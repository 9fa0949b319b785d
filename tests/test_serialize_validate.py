"""Tests for trace serialization and the run-invariant validator."""

import pytest

from repro import RunJob, execute_job
from repro.analysis.validate import ValidationError, validate_run
from repro.sim.runner import run_system
from repro.uarch.params import SystemConfig, EMCConfig, PrefetchConfig
from repro.workloads.serialize import load_workload, save_workload
from repro.workloads.spec import build_trace


def test_save_load_roundtrip(tmp_path):
    trace, image = build_trace("mcf", 400, seed=5)
    path = tmp_path / "mcf.trace"
    save_workload(path, trace, image)
    trace2, image2 = load_workload(path)
    assert trace2.name == trace.name
    assert len(trace2) == len(trace)
    for a, b in zip(trace.uops, trace2.uops):
        assert (a.seq, a.op, a.dest, a.src1, a.src2, a.imm, a.pc,
                a.mispredicted, a.is_spill_fill, a.mem_dep) == \
               (b.seq, b.op, b.dest, b.src1, b.src2, b.imm, b.pc,
                b.mispredicted, b.is_spill_fill, b.mem_dep)
    for addr in image.written_addresses():
        assert image2.read(addr) == image.read(addr)


def test_save_load_gzip(tmp_path):
    trace, image = build_trace("libquantum", 300, seed=1)
    path = tmp_path / "libq.trace.gz"
    save_workload(path, trace, image)
    trace2, _image2 = load_workload(path)
    assert len(trace2) == len(trace)


def test_loaded_workload_simulates_identically(tmp_path):
    trace, image = build_trace("omnetpp", 500, seed=2)
    path = tmp_path / "o.trace"
    save_workload(path, trace, image)
    trace2, image2 = load_workload(path)
    cfg = SystemConfig(num_cores=1, emc=EMCConfig(enabled=True),
                       prefetch=PrefetchConfig(kind="none"))
    cfg2 = SystemConfig(num_cores=1, emc=EMCConfig(enabled=True),
                        prefetch=PrefetchConfig(kind="none"))
    a = run_system(cfg, [(trace, image)])
    b = run_system(cfg2, [(trace2, image2)])
    assert a.stats.total_cycles == b.stats.total_cycles
    assert a.stats.cores[0].llc_misses == b.stats.cores[0].llc_misses


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text('{"kind": "something-else"}\n')
    with pytest.raises(ValueError):
        load_workload(path)


def test_load_rejects_truncated(tmp_path):
    trace, image = build_trace("mcf", 200, seed=1)
    path = tmp_path / "t.trace"
    save_workload(path, trace, image)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:11]) + "\n")   # header + 10 uops
    with pytest.raises(ValueError):
        load_workload(path)


# -- validator -------------------------------------------------------------

def quad_mix(name, n_instrs, **fields):
    return execute_job(RunJob(workload=("mix", name), n_instrs=n_instrs,
                              **fields))


def test_validate_passes_on_real_runs():
    result = quad_mix("H3", n_instrs=800, emc=True)
    checks = validate_run(result)
    assert len(checks) > 20


def test_validate_passes_with_prefetching():
    result = quad_mix("H2", n_instrs=800, prefetcher="ghb", emc=True)
    validate_run(result)


def test_validate_detects_corruption():
    result = quad_mix("H4", n_instrs=600)
    result.stats.emc.chains_executed = 999   # impossible: none generated
    with pytest.raises(ValidationError):
        validate_run(result)


def test_validate_detects_latency_inconsistency():
    result = quad_mix("H4", n_instrs=600)
    result.stats.core_miss_latency.dram_total = \
        result.stats.core_miss_latency.total + 1
    with pytest.raises(ValidationError):
        validate_run(result)
