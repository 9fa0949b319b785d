"""Tests for the run helpers (repro.sim.runner) and mix builders."""

import pytest

from repro import (MIX_NAMES, MIXES, PREFETCHER_CONFIGS, RunJob, build_mix,
                   execute_job, speedup)
from repro.workloads.mixes import build_eight_core_mix, build_homogeneous
from repro.workloads.spec import HIGH_INTENSITY


def test_table3_mixes_match_paper():
    assert MIX_NAMES == tuple(f"H{i}" for i in range(1, 11))
    assert MIXES["H4"] == ("mcf", "sphinx3", "soplex", "libquantum")
    assert MIXES["H1"] == ("bwaves", "lbm", "milc", "omnetpp")
    # Every mix uses only high-intensity benchmarks, each at most once.
    for names in MIXES.values():
        assert len(names) == 4
        assert len(set(names)) == 4
        assert all(n in HIGH_INTENSITY for n in names)


def test_build_mix_returns_four_pairs():
    workload = build_mix("H1", 300, seed=1)
    assert len(workload) == 4
    for trace, image in workload:
        assert len(trace) >= 300
        assert image is not None


def test_build_mix_unknown_raises():
    with pytest.raises(KeyError):
        build_mix("H99", 100)


def test_homogeneous_unique_instances():
    workload = build_homogeneous("mcf", 4, 300, seed=1)
    seqs = [tuple((u.op, u.imm) for u in trace.uops[:50])
            for trace, _ in workload]
    # Same benchmark, different dynamic instances (per-core seeds).
    assert len(set(seqs)) > 1


def test_eight_core_mix_doubles_quad():
    workload = build_eight_core_mix("H2", 200, seed=1)
    assert len(workload) == 8
    names = [trace.name for trace, _ in workload]
    assert tuple(names[:4]) == MIXES["H2"]
    assert tuple(names[4:]) == MIXES["H2"]


def quad_mix(name, n_instrs, **fields):
    return execute_job(RunJob(workload=("mix", name), n_instrs=n_instrs,
                              **fields))


def test_quad_mix_end_to_end():
    result = quad_mix("H4", n_instrs=800, prefetcher="none", emc=False)
    assert result.aggregate_ipc > 0
    assert result.stats.total_cycles > 0
    assert len(result.per_core_ipc) == 4


def test_named_workload_order_preserved():
    result = execute_job(RunJob(
        workload=("named", "mcf", "lbm", "milc", "bwaves"), n_instrs=600))
    names = [c.benchmark for c in result.stats.cores]
    assert names == ["mcf", "lbm", "milc", "bwaves"]


def test_speedup_helper():
    a = quad_mix("H4", n_instrs=600)
    assert speedup(a, a) == pytest.approx(1.0)


def test_prefetcher_configs_list():
    # An immutable tuple: shared module-level tables must not be mutable
    # (simlint SIM001).
    assert PREFETCHER_CONFIGS == ("none", "ghb", "stream", "markov+stream")


def test_run_results_carry_energy_and_dram():
    result = quad_mix("H3", n_instrs=600, emc=True)
    assert result.energy.total > 0
    assert result.dram_accesses > 0
    assert 0 <= result.dram_row_conflict_rate <= 1
