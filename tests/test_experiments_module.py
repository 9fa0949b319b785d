"""Tests for the experiment-driver layer (repro.analysis.experiments) at a
tiny scale: data shapes, caching behavior, and row semantics."""

import pytest

from repro.analysis import experiments as exp
from repro.analysis.parallel import RunJob


@pytest.fixture(autouse=True)
def fresh_cache():
    exp.clear_cache()
    yield
    exp.clear_cache()


N = 700   # per-core instructions: tiny but structurally complete


def h4(emc=False, label=""):
    return RunJob(workload=("mix", "H4"), n_instrs=N, emc=emc, label=label)


def test_run_is_memoized():
    a = exp.run(h4())
    b = exp.run(h4(label="relabelled"))     # the label is not identity
    assert a is b
    c = exp.run(h4(emc=True))
    assert c is not a


def test_run_all_keeps_order_and_shares_the_memo():
    first, second, again = exp.run_all([h4(), h4(emc=True), h4()])
    assert first is again is exp.run(h4())
    assert second is exp.run(h4(emc=True))


def test_scaled_respects_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "2.0")
    assert exp.scaled(1000) == 2000
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.1")
    assert exp.scaled(1000) == 500    # floor


def test_fig01_rows_sorted_by_mpki():
    rows = exp.fig01_latency_breakdown(["libquantum", "povray"], n_instrs=N)
    assert [r.benchmark for r in rows] == ["povray", "libquantum"]
    for row in rows:
        assert row.dram_cycles >= 0 and row.onchip_cycles >= 0
        assert 0 <= row.onchip_fraction <= 1


def test_fig02_rows_have_speedups():
    rows = exp.fig02_dependent_misses(["mcf"], n_instrs=N)
    assert rows[0].benchmark == "mcf"
    assert rows[0].dependent_fraction > 0
    assert rows[0].oracle_speedup > 0.5


def test_fig03_coverage_bounds():
    coverage = exp.fig03_prefetch_coverage(["mcf"], n_instrs=N)
    for _pf, frac in coverage["mcf"].items():
        assert 0.0 <= frac <= 1.0


def test_fig12_normalization_baseline_is_one():
    rows = exp.fig12_quadcore_hetero(("none",), ["H4"], n_instrs=N)
    assert rows[0].normalized[("none", False)] == pytest.approx(1.0)
    assert ("none", True) in rows[0].normalized


def test_perf_row_emc_gain():
    rows = exp.fig12_quadcore_hetero(("none",), ["H3"], n_instrs=N)
    gain = rows[0].emc_gain_over("none")
    assert -0.9 < gain < 0.9


def test_emc_behaviour_rows_complete():
    rows = exp.emc_behaviour(["H3"], n_instrs=N)
    row = rows[0]
    assert row.mix == "H3"
    assert 0 <= row.emc_miss_fraction <= 1
    assert 0 <= row.dcache_hit_rate <= 1
    assert row.core_miss_latency > 0


def test_fig20_rows_normalized_to_first():
    rows = exp.fig20_dram_sweep([(1, 1), (2, 1)], mixes=["H4"], n_instrs=N)
    assert rows[0]["normalized"] == pytest.approx(1.0)
    assert len(rows) == 4    # 2 geometries x emc off/on


def test_fig23_energy_rows():
    rows = exp.fig23_energy_hetero(("none",), ["H4"], n_instrs=N)
    assert rows[0].normalized[("none", False)] == pytest.approx(1.0)
    assert rows[0].normalized[("none", True)] > 0


def test_sec65_overheads_keys():
    out = exp.sec65_overheads(["H4"], n_instrs=N)
    assert set(out) == {"data_traffic_increase", "control_traffic_increase",
                       "emc_share_of_data_hops", "emc_share_of_control_hops"}
    assert 0 <= out["emc_share_of_data_hops"] <= 1
    assert 0 <= out["emc_share_of_control_hops"] <= 1
