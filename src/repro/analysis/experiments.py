"""Experiment drivers: one function per figure of the paper's evaluation.

Every driver returns plain data (lists of rows) that the benchmark harness
prints and asserts on, and that EXPERIMENTS.md records.  Runs are memoized
in a process-level cache because several figures share the same underlying
simulations (e.g. the H1–H10 EMC runs feed Figures 12, 15, 16, 17, 18, 19,
22 and 23).

Execution routes through the parallel experiment layer
(:mod:`repro.analysis.parallel`).  Each driver is a thin grid builder: a
base :class:`RunJob` plus the axes it varies (workload, prefetcher, EMC,
overrides).  :func:`~repro.analysis.parallel.run_grid` expands them
through :meth:`RunJob.at`, runs the grid in one memoized
:func:`run_all` fan-out and hands back every result keyed by its grid
point.  The worker count and on-disk cache come from the ``REPRO_JOBS``
and ``REPRO_CACHE_DIR`` environment variables.  With ``jobs=1``
everything runs in-process.

Scale: instruction counts default to laptop-friendly sizes and can be
scaled with the ``REPRO_BENCH_SCALE`` environment variable (a float
multiplier).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (Callable, Dict, Final, Iterable, List, Optional,
                    Sequence, Tuple)

from ..sim.runner import RunResult
from ..workloads.mixes import MIX_NAMES
from ..workloads.spec import HIGH_INTENSITY, PROFILES
from .parallel import (Overrides, RunJob, default_cache_dir, default_jobs,
                       run_grid, run_jobs)


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int) -> int:
    return max(500, int(n * _scale()))


#: default per-core instruction counts by experiment weight
N_MIX = 5000         # multiprogrammed mixes (most figures)
N_SINGLE = 4000      # per-benchmark characterization figures
N_SWEEP = 3000       # many-configuration sweeps

#: Figure 2's oracle: every dependent miss becomes an LLC hit
ORACLE: Final[Overrides] = (("oracle_dependent_hits", True),)


def _n(n_instrs: Optional[int], default: int) -> int:
    """An explicit per-core instruction count, else the scaled default."""
    return n_instrs if n_instrs is not None else scaled(default)


def _mixes(names: Iterable[str]) -> List[tuple]:
    return [("mix", name) for name in names]


def _homog(names: Iterable[str]) -> List[tuple]:
    """Four copies of each benchmark on the quad-core machine."""
    return [("homog", name, 4) for name in names]


# ---------------------------------------------------------------------------
# run cache + parallel execution
# ---------------------------------------------------------------------------

# In-process memo of finished runs.  Module-level mutable state is
# normally a SIM001 violation, but this one is safe by construction: keys
# are full (config, workload, seed) hashes, values are deterministic pure
# functions of their key, and clear_cache() exposes an explicit reset.
_CACHE: Dict[tuple, RunResult] = {}  # simlint: disable=SIM001


def clear_cache() -> None:
    _CACHE.clear()


def run_all(jobs_list: Iterable[RunJob]) -> List[RunResult]:
    """Memoized results of ``jobs_list``, in order.

    Every job not yet in the in-process memo runs in one parallel
    fan-out (deduplicated against the batch itself), so drivers can list
    their full working set unconditionally.
    """
    jobs_list = list(jobs_list)
    missing: List[RunJob] = []
    seen = set()
    for job in jobs_list:
        key = job.key()
        if key not in _CACHE and key not in seen:
            seen.add(key)
            missing.append(job)
    if missing:
        results = run_jobs(missing, jobs=default_jobs(),
                           cache_dir=default_cache_dir())
        for job, result in zip(missing, results):
            _CACHE[job.key()] = result
    return [_CACHE[job.key()] for job in jobs_list]


def run(job: RunJob) -> RunResult:
    """Memoized result of one job."""
    return run_all([job])[0]


def weighted_speedup(result: RunResult,
                     n_instrs: Optional[int] = None,
                     seed: int = 1) -> float:
    """Σ IPC_shared_i / IPC_alone_i — the standard multiprogrammed
    performance metric.  The alone runs are memoized single-core runs of
    each benchmark on the baseline machine (no prefetching, no EMC)."""
    n = _n(n_instrs, N_MIX)
    solos = run_grid(RunJob((), n, seed=seed), {"workload": [
        ("named", core.benchmark) for core in result.stats.cores]}, run_all)
    total = 0.0
    for core in result.stats.cores:
        alone = solos[("named", core.benchmark),].stats.cores[0]
        if alone.ipc():
            total += core.ipc() / alone.ipc()
    return total


# ---------------------------------------------------------------------------
# Figure 1 — memory latency split: DRAM vs on-chip delay
# ---------------------------------------------------------------------------

@dataclass
class LatencySplitRow:
    benchmark: str
    mpki: float
    dram_cycles: float
    onchip_cycles: float

    @property
    def onchip_fraction(self) -> float:
        total = self.dram_cycles + self.onchip_cycles
        return self.onchip_cycles / total if total else 0.0


def fig01_latency_breakdown(benchmarks: Optional[Sequence[str]] = None,
                            n_instrs: Optional[int] = None
                            ) -> List[LatencySplitRow]:
    """DRAM vs on-chip delay per benchmark, quad-core, sorted by MPKI.

    The split comes from traced runs: per-request stage spans (bank + bus
    = DRAM; everything else = on-chip), aggregated by
    :meth:`repro.trace.LatencyAttribution.dram_onchip_split`.
    """
    names = list(benchmarks) if benchmarks else list(PROFILES)
    n = _n(n_instrs, N_SINGLE)
    results = run_grid(RunJob((), n, trace=True),
                         {"workload": _homog(names)}, run_all)
    rows = []
    for (workload,), result in results.items():
        dram, onchip = result.latency_attribution.dram_onchip_split()
        mpki = sum(c.mpki() for c in result.stats.cores) / 4
        rows.append(LatencySplitRow(workload[1], mpki, dram, onchip))
    rows.sort(key=lambda r: r.mpki)
    return rows


# ---------------------------------------------------------------------------
# Figure 2 — dependent-miss fraction and oracle speedup
# ---------------------------------------------------------------------------

@dataclass
class DependentMissRow:
    benchmark: str
    dependent_fraction: float
    oracle_speedup: float         # perf if dependent misses were LLC hits


def fig02_dependent_misses(benchmarks: Optional[Sequence[str]] = None,
                           n_instrs: Optional[int] = None
                           ) -> List[DependentMissRow]:
    names = list(benchmarks) if benchmarks else list(PROFILES)
    n = _n(n_instrs, N_SINGLE)
    results = run_grid(RunJob((), n), {
        "workload": _homog(names), "overrides": ((), ORACLE)}, run_all)
    rows = []
    for workload in _homog(names):
        base, oracle = results[workload, ()], results[workload, ORACLE]
        speedup = (oracle.throughput / base.throughput
                   if base.throughput else 0.0)
        rows.append(DependentMissRow(
            workload[1], base.stats.dependent_miss_fraction(), speedup))
    return rows


# ---------------------------------------------------------------------------
# Figure 3 — fraction of dependent misses covered by each prefetcher
# ---------------------------------------------------------------------------

def fig03_prefetch_coverage(benchmarks: Optional[Sequence[str]] = None,
                            n_instrs: Optional[int] = None
                            ) -> Dict[str, Dict[str, float]]:
    """{benchmark: {prefetcher: coverage}} over the high-MPKI suite."""
    names = list(benchmarks) if benchmarks else list(HIGH_INTENSITY)
    prefetchers = ("ghb", "stream", "markov+stream")
    n = _n(n_instrs, N_SINGLE)
    results = run_grid(RunJob((), n), {
        "workload": _homog(names), "prefetcher": prefetchers}, run_all)
    out: Dict[str, Dict[str, float]] = {}
    for (workload, pf), result in results.items():
        out.setdefault(workload[1], {})[pf] = (
            result.stats.dependent_prefetch_coverage())
    return out


def prefetcher_bandwidth_overhead(prefetcher: str,
                                  n_instrs: Optional[int] = None) -> float:
    """DRAM-traffic increase of a prefetcher over no prefetching (§1)."""
    n = _n(n_instrs, N_MIX)
    results = run_grid(RunJob((), n), {
        "workload": _mixes(MIX_NAMES), "prefetcher": ("none", prefetcher)},
        run_all)
    base_reads = pf_reads = 0
    for workload in _mixes(MIX_NAMES):
        base_reads += results[workload, "none"].dram_reads
        pf_reads += results[workload, prefetcher].dram_reads
    return pf_reads / base_reads - 1.0 if base_reads else 0.0


# ---------------------------------------------------------------------------
# Figure 6 — ops between source and dependent miss
# ---------------------------------------------------------------------------

def fig06_chain_lengths(benchmarks: Optional[Sequence[str]] = None,
                        n_instrs: Optional[int] = None
                        ) -> Dict[str, float]:
    names = list(benchmarks) if benchmarks else list(HIGH_INTENSITY)
    n = _n(n_instrs, N_SINGLE)
    results = run_grid(RunJob((), n), {"workload": _homog(names)}, run_all)
    return {workload[1]: result.stats.avg_dependent_chain_ops()
            for (workload,), result in results.items()}


# ---------------------------------------------------------------------------
# Figures 12/13 — quad-core performance
# ---------------------------------------------------------------------------

@dataclass
class PerfRow:
    workload: str
    #: throughput normalized to the no-prefetch, no-EMC baseline, keyed by
    #: (prefetcher, emc)
    normalized: Dict[Tuple[str, bool], float] = field(default_factory=dict)

    def emc_gain_over(self, prefetcher: str) -> float:
        base = self.normalized.get((prefetcher, False), 0.0)
        with_emc = self.normalized.get((prefetcher, True), 0.0)
        return with_emc / base - 1.0 if base else 0.0


def _normalized_rows(row_type, metric: Callable[[RunResult], float],
                     base: RunJob, workloads: Sequence[tuple],
                     prefetchers: Sequence[str]) -> list:
    """One ``row_type`` per workload: ``metric`` at every prefetcher × EMC
    point of ``base``, normalized to the workload's run of ``base`` itself
    (no prefetcher, no EMC)."""
    results = run_grid(base, {"workload": workloads,
                              "prefetcher": prefetchers,
                              "emc": (False, True)}, run_all)
    rows = []
    for wl in workloads:
        ref = metric(run(base.at({"workload": wl})))
        rows.append(row_type(workload=wl[1], normalized={
            (pf, emc): metric(result) / ref if ref else 0.0
            for (point_wl, pf, emc), result in results.items()
            if point_wl == wl}))
    return rows


def _throughput(result: RunResult) -> float:
    return result.throughput


def _energy(result: RunResult) -> float:
    return result.energy.total


def fig12_quadcore_hetero(prefetchers: Sequence[str] = ("none", "ghb"),
                          mixes: Optional[Sequence[str]] = None,
                          n_instrs: Optional[int] = None) -> List[PerfRow]:
    mixes = list(mixes) if mixes else list(MIX_NAMES)
    n = _n(n_instrs, N_MIX)
    return _normalized_rows(PerfRow, _throughput, RunJob((), n),
                            _mixes(mixes), prefetchers)


def fig13_quadcore_homogeneous(prefetchers: Sequence[str] = ("none", "ghb"),
                               benchmarks: Optional[Sequence[str]] = None,
                               n_instrs: Optional[int] = None
                               ) -> List[PerfRow]:
    names = list(benchmarks) if benchmarks else list(HIGH_INTENSITY)
    n = _n(n_instrs, N_SINGLE)
    return _normalized_rows(PerfRow, _throughput, RunJob((), n),
                            _homog(names), prefetchers)


# ---------------------------------------------------------------------------
# Figure 14 — eight-core performance, 1 vs 2 memory controllers
# ---------------------------------------------------------------------------

def fig14_eightcore(mixes: Optional[Sequence[str]] = None,
                    prefetchers: Sequence[str] = ("none", "ghb"),
                    n_instrs: Optional[int] = None
                    ) -> Dict[int, List[PerfRow]]:
    mixes = list(mixes) if mixes else ["H1", "H3", "H4", "H8"]
    n = _n(n_instrs, N_SWEEP)
    return {num_mcs: _normalized_rows(
        PerfRow, _throughput, RunJob((), n, num_mcs=num_mcs),
        [("eight", mix) for mix in mixes], prefetchers)
        for num_mcs in (1, 2)}


# ---------------------------------------------------------------------------
# Figures 15–19, 22 — EMC behaviour on H1-H10
# ---------------------------------------------------------------------------

@dataclass
class EMCBehaviourRow:
    mix: str
    emc_miss_fraction: float          # Fig 15
    row_conflict_delta: float         # Fig 16 (emc minus baseline)
    core_row_hit_rate: float          # Fig 16 evidence (traced, per class)
    emc_row_hit_rate: float
    dcache_hit_rate: float            # Fig 17
    core_miss_latency: float          # Fig 18 (traced mean, same run)
    emc_miss_latency: float           # Fig 18
    saved_fill_path: float            # Fig 19 (mean cycles/request saved)
    saved_cache_access: float
    saved_queue: float
    saved_dram: float
    avg_chain_uops: float             # Fig 22
    avg_live_ins: float
    avg_live_outs: float


def emc_behaviour(mixes: Optional[Sequence[str]] = None,
                  n_instrs: Optional[int] = None) -> List[EMCBehaviourRow]:
    """EMC behaviour figures (15–19, 22) over the H mixes.

    The EMC run is traced: Figure 18's per-class miss latencies and
    Figure 19's savings attribution come from
    :class:`repro.trace.LatencyAttribution` — exact per-request stage
    accounting, in place of the running averages earlier versions kept in
    ``EMCStats``.  Savings are core-miss minus EMC-miss mean cycles per
    category, so a negative value means the EMC path pays *more* there.
    """
    mixes = list(mixes) if mixes else list(MIX_NAMES)
    n = _n(n_instrs, N_MIX)
    axes = {"workload": _mixes(mixes)}
    base_runs = run_grid(RunJob((), n), axes, run_all)
    emc_runs = run_grid(RunJob((), n, emc=True, trace=True), axes, run_all)
    rows = []
    for (workload,), emc in emc_runs.items():
        base = base_runs[workload,]
        stats = emc.stats
        att = emc.latency_attribution
        saved = att.savings()
        rows.append(EMCBehaviourRow(
            mix=workload[1],
            emc_miss_fraction=stats.emc_miss_fraction(),
            row_conflict_delta=(emc.dram_row_conflict_rate
                                - base.dram_row_conflict_rate),
            core_row_hit_rate=att.core_miss.row_hit_rate,
            emc_row_hit_rate=att.emc_miss.row_hit_rate,
            dcache_hit_rate=stats.emc.dcache_hit_rate,
            core_miss_latency=att.core_miss.mean_total,
            emc_miss_latency=att.emc_miss.mean_total,
            saved_fill_path=saved["fill_path"],
            saved_cache_access=saved["cache_access"],
            saved_queue=saved["queue"],
            saved_dram=saved["dram"],
            avg_chain_uops=stats.emc.avg_chain_uops,
            avg_live_ins=stats.emc.avg_live_ins,
            avg_live_outs=stats.emc.avg_live_outs,
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 20 — DRAM channel/rank sensitivity
# ---------------------------------------------------------------------------

def fig20_dram_sweep(geometries: Sequence[Tuple[int, int]] = (
        (1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (4, 2), (4, 4)),
        mixes: Optional[Sequence[str]] = None,
        n_instrs: Optional[int] = None) -> List[dict]:
    """Average H-mix throughput per geometry, EMC off/on, normalized to
    1-channel 1-rank without EMC."""
    mixes = list(mixes) if mixes else ["H3", "H4", "H8"]
    n = _n(n_instrs, N_SWEEP)
    # The ``with_dram_geometry`` derivation as dotted overrides: the
    # queue scales with the geometry (§5).
    shapes = {(("dram.channels", channels),
               ("dram.queue_entries", max(32, 64 * channels * ranks // 2)),
               ("dram.ranks_per_channel", ranks)): (channels, ranks)
              for channels, ranks in geometries}
    results = run_grid(RunJob((), n), {"overrides": list(shapes),
                                       "emc": (False, True),
                                       "workload": _mixes(mixes)}, run_all)
    totals: Dict[tuple, float] = {}
    for (shape, emc, _workload), result in results.items():
        totals[shape, emc] = totals.get((shape, emc), 0.0) + result.throughput
    rows = []
    baseline = None
    for (shape, emc), total in totals.items():
        avg = total / len(mixes)
        if baseline is None:
            baseline = avg
        channels, ranks = shapes[shape]
        rows.append({"channels": channels, "ranks": ranks, "emc": emc,
                     "throughput": avg, "normalized": avg / baseline})
    return rows


# ---------------------------------------------------------------------------
# Figure 21 — EMC misses covered by prefetching
# ---------------------------------------------------------------------------

def fig21_emc_prefetch_overlap(prefetchers: Sequence[str] = (
        "ghb", "stream", "markov+stream"),
        mixes: Optional[Sequence[str]] = None,
        n_instrs: Optional[int] = None) -> Dict[str, float]:
    """Fraction of EMC LLC-path requests that hit on prefetched lines."""
    mixes = list(mixes) if mixes else list(MIX_NAMES)
    n = _n(n_instrs, N_MIX)
    results = run_grid(RunJob((), n, emc=True), {
        "prefetcher": prefetchers, "workload": _mixes(mixes)}, run_all)
    hits: Dict[str, int] = dict.fromkeys(prefetchers, 0)
    requests: Dict[str, int] = dict.fromkeys(prefetchers, 0)
    for (pf, _workload), result in results.items():
        emc = result.stats.emc
        hits[pf] += emc.llc_hits_on_prefetched
        requests[pf] += emc.llc_requests + emc.direct_dram_requests
    return {pf: hits[pf] / requests[pf] if requests[pf] else 0.0
            for pf in prefetchers}


# ---------------------------------------------------------------------------
# Figures 23/24 — energy
# ---------------------------------------------------------------------------

@dataclass
class EnergyRow:
    workload: str
    #: total (chip+DRAM) energy normalized to no-prefetch/no-EMC baseline,
    #: keyed by (prefetcher, emc)
    normalized: Dict[Tuple[str, bool], float] = field(default_factory=dict)


def fig23_energy_hetero(prefetchers: Sequence[str] = ("none", "ghb"),
                        mixes: Optional[Sequence[str]] = None,
                        n_instrs: Optional[int] = None) -> List[EnergyRow]:
    mixes = list(mixes) if mixes else list(MIX_NAMES)
    n = _n(n_instrs, N_MIX)
    return _normalized_rows(EnergyRow, _energy, RunJob((), n),
                            _mixes(mixes), prefetchers)


def fig24_energy_homogeneous(prefetchers: Sequence[str] = ("none", "ghb"),
                             benchmarks: Optional[Sequence[str]] = None,
                             n_instrs: Optional[int] = None
                             ) -> List[EnergyRow]:
    names = list(benchmarks) if benchmarks else list(HIGH_INTENSITY)
    n = _n(n_instrs, N_SINGLE)
    return _normalized_rows(EnergyRow, _energy, RunJob((), n),
                            _homog(names), prefetchers)


# ---------------------------------------------------------------------------
# Section 6.5 — interconnect overhead
# ---------------------------------------------------------------------------

def sec65_overheads(mixes: Optional[Sequence[str]] = None,
                    n_instrs: Optional[int] = None) -> dict:
    """Ring-traffic overhead of the EMC (§6.5).

    Alongside the headline traffic increases, the per-kind EMC hop
    counters the ring now keeps attribute how much of the EMC run's
    traffic is EMC-tagged (chain shipping, live-out returns, LSQ/PTE
    messages) versus demand traffic shifted by timing changes.
    """
    mixes = list(mixes) if mixes else list(MIX_NAMES)
    n = _n(n_instrs, N_MIX)
    results = run_grid(RunJob((), n), {
        "workload": _mixes(mixes), "emc": (False, True)}, run_all)
    base_data = base_ctrl = emc_data = emc_ctrl = 0
    emc_tagged_data = emc_tagged_ctrl = 0
    for workload in _mixes(mixes):
        b, e = results[workload, False], results[workload, True]
        base_data += b.ring.data_hops
        base_ctrl += b.ring.control_hops
        emc_data += e.ring.data_hops
        emc_ctrl += e.ring.control_hops
        emc_tagged_data += e.ring.emc_data_hops
        emc_tagged_ctrl += e.ring.emc_control_hops
    return {
        "data_traffic_increase": emc_data / base_data - 1 if base_data else 0,
        "control_traffic_increase": (emc_ctrl / base_ctrl - 1
                                     if base_ctrl else 0),
        "emc_share_of_data_hops": (emc_tagged_data / emc_data
                                   if emc_data else 0),
        "emc_share_of_control_hops": (emc_tagged_ctrl / emc_ctrl
                                      if emc_ctrl else 0),
    }
