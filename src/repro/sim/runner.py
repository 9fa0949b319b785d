"""Run one built (config, workload) pair and package the results benches
and examples consume.  Describing a run by value — machine, workload,
seed, overrides — is :class:`repro.analysis.parallel.RunJob`'s job."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Final, List, Optional, Tuple

from ..energy.model import EnergyBreakdown, compute_energy
from ..interconnect import FabricStats
from ..trace import LatencyAttribution, Tracer, trace_enabled_from_env
from ..uarch.params import SystemConfig, set_config_field
from ..workloads.mixes import Workload
from .stats import SimStats
from .system import System


@dataclass
class RunResult:
    """Everything one simulation produced."""

    config: SystemConfig
    stats: SimStats
    energy: EnergyBreakdown
    dram_row_conflict_rate: float
    dram_accesses: int
    dram_reads: int
    ring_messages: int
    label: str = ""
    per_core_ipc: List[float] = field(default_factory=list)
    #: How the machine was warmed: "fresh" (warmup executed in-process) or
    #: "checkpoint" (seated from a warmup checkpoint, possibly via fork).
    warmed_from: Optional[str] = None
    #: Per-component carryover ratios when the machine was forked from a
    #: shared warmup checkpoint under a different config (None otherwise).
    fork_carryover: Optional[dict] = None
    #: Stage-level latency attribution; populated only when the run was
    #: traced (a :class:`repro.trace.Tracer` was passed or REPRO_TRACE set).
    latency_attribution: Optional[LatencyAttribution] = None
    #: Full fabric counters (messages, hops, latency, EMC share) for
    #: whichever interconnect the run used — §6.5 evidence.  The field
    #: keeps its historical name; ``ring`` is any :class:`Interconnect`.
    ring: Optional[FabricStats] = None

    @property
    def aggregate_ipc(self) -> float:
        """Sum of per-core IPCs (each over that core's own finish time)."""
        return sum(self.per_core_ipc)

    @property
    def throughput(self) -> float:
        """System throughput: total instructions / wall-clock cycles.

        The primary performance metric of the benches: every workload runs
        a fixed instruction count per core, so finishing the same work in
        fewer cycles is a speedup.  (Sum-of-IPC is kept for per-benchmark
        views but is noisy at small instruction counts: accelerating one
        core shifts interference phases across the others.)
        """
        if not self.stats.total_cycles:
            return 0.0
        return self.stats.total_instructions() / self.stats.total_cycles


def run_system(cfg: SystemConfig, workload: Workload,
               label: str = "", max_cycles: int = 50_000_000,
               tracer: Optional[Tracer] = None,
               warmup_instrs: int = 0) -> RunResult:
    """Run one workload on one configuration to completion.

    Pass a :class:`repro.trace.Tracer` (or set ``REPRO_TRACE=1``) to record
    per-request lifecycle timelines; the result then carries a
    :class:`~repro.trace.LatencyAttribution`.  Without one the run uses the
    no-op :data:`~repro.trace.NULL_TRACER` and pays no tracing cost.

    ``warmup_instrs`` > 0 runs a warmup window first and measures only
    the region after it.  (A sweep sharing one warmup across configs
    forks instead; see :func:`repro.analysis.parallel.execute_job`.)
    """
    if tracer is None and trace_enabled_from_env():
        tracer = Tracer()
    system = System(cfg, workload, tracer=tracer)
    if warmup_instrs:
        system.warmup(warmup_instrs, max_cycles=max_cycles)
    return run_built(system, label=label, max_cycles=max_cycles,
                     warmed_from="fresh" if warmup_instrs else None)


def run_built(system: System, label: str = "",
              max_cycles: int = 50_000_000,
              warmed_from: Optional[str] = None,
              fork_carryover: Optional[dict] = None) -> RunResult:
    """Run an already-built (fresh, warmed, resumed or forked) machine to
    completion and package its :class:`RunResult`.

    ``warmed_from`` and ``fork_carryover`` are recorded as given: how the
    caller obtained the machine is provenance only it knows.
    """
    stats = system.run(max_cycles=max_cycles)
    dram_stats = system.dram_stats
    accesses = sum(d.accesses for d in dram_stats)
    reads = sum(d.reads for d in dram_stats)
    conflicts = sum(d.row_conflicts for d in dram_stats)
    tracer = system.tracer
    return RunResult(
        config=system.cfg,
        stats=stats,
        energy=compute_energy(system.cfg, stats),
        dram_row_conflict_rate=conflicts / accesses if accesses else 0.0,
        dram_accesses=accesses,
        dram_reads=reads,
        ring_messages=system.ring.stats.messages,
        label=label,
        per_core_ipc=[c.ipc() for c in stats.cores],
        latency_attribution=(tracer.attribution() if tracer.enabled
                             else None),
        ring=system.ring.stats,
        warmed_from=warmed_from,
        fork_carryover=fork_carryover,
    )


#: The four baseline prefetcher configurations of the evaluation.
PREFETCHER_CONFIGS: Final[Tuple[str, ...]] = (
    "none", "ghb", "stream", "markov+stream")


def apply_config_overrides(cfg: SystemConfig, overrides) -> SystemConfig:
    """Apply ``{field_or_dotted_path: value}`` overrides to ``cfg``.

    Every key must name an existing field of :class:`SystemConfig` (or of a
    nested sub-config via a dotted path such as ``"emc.num_contexts"``);
    a typo'd key raises :class:`ValueError` instead of silently creating a
    new, ignored attribute.
    """
    for key, value in dict(overrides).items():
        try:
            set_config_field(cfg, key, value)
        except AttributeError as exc:
            raise ValueError(f"unknown config override {key!r}: {exc}"
                             ) from None
    return cfg


def speedup(result: RunResult, baseline: RunResult) -> float:
    """System-throughput speedup of ``result`` over ``baseline``."""
    if baseline.throughput == 0:
        return 0.0
    return result.throughput / baseline.throughput
