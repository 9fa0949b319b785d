"""Unit tests for the event-energy model."""

import pytest

from repro.energy.model import EnergyBreakdown, compute_energy
from repro.sim.stats import CoreStats, SimStats
from repro.uarch.params import quad_core_config


def make_stats(cycles=10_000, cores=4, **energy_counts):
    stats = SimStats()
    for core in range(cores):
        cs = CoreStats(core_id=core, instructions=1000, finished_at=cycles)
        stats.cores.append(cs)
    stats.total_cycles = cycles
    for key, value in energy_counts.items():
        setattr(stats.energy, key, value)
    return stats


def test_zero_events_still_has_static_energy():
    cfg = quad_core_config()
    out = compute_energy(cfg, make_stats())
    assert out.core_dynamic == 0
    assert out.core_static > 0
    assert out.dram_static > 0
    assert out.total > 0


def test_dynamic_energy_scales_with_events():
    cfg = quad_core_config()
    small = compute_energy(cfg, make_stats(core_uops=1000, dram_reads=100))
    large = compute_energy(cfg, make_stats(core_uops=2000, dram_reads=200))
    assert large.core_dynamic == pytest.approx(2 * small.core_dynamic)
    assert large.dram_dynamic == pytest.approx(2 * small.dram_dynamic)


def test_static_energy_scales_with_runtime():
    cfg = quad_core_config()
    short = compute_energy(cfg, make_stats(cycles=10_000))
    long = compute_energy(cfg, make_stats(cycles=20_000))
    assert long.cache_static == pytest.approx(2 * short.cache_static)
    assert long.core_static == pytest.approx(2 * short.core_static)


def test_emc_static_only_when_enabled():
    on = quad_core_config(emc=True)
    off = quad_core_config(emc=False)
    stats = make_stats()
    assert compute_energy(on, stats).emc_static > 0
    assert compute_energy(off, stats).emc_static == 0


def test_emc_static_is_small_fraction_of_core():
    """Paper: the EMC is ~10.4% of a core's area — its static power should
    be a similar fraction."""
    cfg = quad_core_config(emc=True)
    out = compute_energy(cfg, make_stats())
    per_core_static = out.core_static / 4
    assert out.emc_static < 0.2 * per_core_static * 4
    assert out.emc_static > 0.02 * per_core_static


def test_row_activation_energy_dominates_reads():
    cfg = quad_core_config()
    reads_only = compute_energy(cfg, make_stats(dram_reads=1000))
    with_acts = compute_energy(cfg, make_stats(dram_reads=1000,
                                               dram_activations=1000))
    assert with_acts.dram_dynamic > 1.5 * reads_only.dram_dynamic


def test_chaingen_energy_counted():
    cfg = quad_core_config(emc=True)
    out = compute_energy(cfg, make_stats(cdb_broadcasts=1000,
                                         rrt_reads=2000, rrt_writes=1000,
                                         rob_chain_reads=1000))
    assert out.chaingen_dynamic > 0


def test_breakdown_sums():
    out = EnergyBreakdown(core_dynamic=1.0, core_static=2.0,
                          cache_dynamic=0.5, cache_static=0.5,
                          ring_dynamic=0.1, ring_static=0.1,
                          mc_static=0.2, emc_dynamic=0.1, emc_static=0.1,
                          chaingen_dynamic=0.05, dram_dynamic=3.0,
                          dram_static=1.0)
    assert out.chip == pytest.approx(4.65)
    assert out.dram == pytest.approx(4.0)
    assert out.total == pytest.approx(8.65)


def test_per_core_static_stops_at_completion():
    cfg = quad_core_config()
    stats = make_stats(cycles=20_000)
    # One core finished at half time.
    stats.cores[0].finished_at = 10_000
    early = compute_energy(cfg, stats)
    stats.cores[0].finished_at = 20_000
    late = compute_energy(cfg, stats)
    assert early.core_static < late.core_static


@pytest.mark.parametrize("job_args", [
    dict(workload=("mix", "H4"), n_instrs=2000, warmup_instrs=500),
    dict(workload=("eight", "H1"), n_instrs=600, warmup_instrs=150,
         num_mcs=2, fabric="mesh"),
], ids=["H4", "eight-core-2mc"])
def test_dram_energy_counts_are_the_dram_stats(job_args):
    # The energy model's DRAM events come from the controllers' own
    # counters; a store's write-allocate fill to a closed row activates
    # a row like any other read.
    from repro.analysis.parallel import (RunJob, build_job_config,
                                         build_job_workload)
    from repro.sim.system import System
    job = RunJob(**job_args)
    system = System(build_job_config(job), build_job_workload(job))
    system.warmup(job.warmup_instrs)
    energy = system.run().energy
    dram = system.dram_stats
    assert energy.dram_reads == sum(s.reads for s in dram) > 0
    assert energy.dram_writes == sum(s.writes for s in dram)
    assert energy.dram_activations == sum(s.row_closed + s.row_conflicts
                                          for s in dram) > 0


def test_llc_and_emc_energy_counts_are_their_layer_sums(monkeypatch):
    # The LLC and EMC energy events come from the layers' own counters:
    # each equals its layer sum and the measured window's calls.
    from collections import Counter

    from repro.analysis.parallel import (RunJob, build_job_config,
                                         build_job_workload)
    from repro.sim.system import System
    job = RunJob(("eight", "H1"), 600, warmup_instrs=150, num_mcs=2,
                 fabric="mesh", emc=True)
    system = System(build_job_config(job), build_job_workload(job))
    system.warmup(job.warmup_instrs)
    calls = Counter()

    def spy(owner, method, key):
        original = getattr(owner, method)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, method, counted)

    emcs = [emc for emc in system.emcs if emc is not None]
    assert len(emcs) == 2
    spy(system.hierarchy.llc, "access", "llc")
    for emc in emcs:
        spy(emc.dcache, "access", "emc_cache")
        spy(emc, "_execute", "emc_uop")
    stats = system.run()
    energy = stats.energy
    assert energy.llc_accesses == sum(
        sl.cache.stats.accesses
        for sl in system.hierarchy.llc.slices) == calls["llc"] > 0
    assert energy.emc_cache_accesses == sum(
        emc.dcache.stats.accesses for emc in emcs) == calls["emc_cache"] > 0
    assert energy.emc_uops == stats.emc.uops_executed == calls["emc_uop"] > 0
