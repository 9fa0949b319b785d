"""System configuration dataclasses encoding Table 1 of the paper.

All timing is in core cycles at 3.2 GHz.  DRAM timings from the DDR3-1600
datasheet referenced by the paper (CAS 13.75 ns ~= 44 core cycles) are
pre-converted to core cycles here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any


CACHE_LINE_BYTES = 64
PAGE_BYTES = 4096


@dataclass
class CoreConfig:
    """A single out-of-order core (Table 1, "Core")."""

    issue_width: int = 4
    retire_width: int = 4
    rob_entries: int = 256
    rs_entries: int = 92
    fetch_width: int = 4
    # Branch misprediction pipeline restart penalty (front-end refill).
    mispredict_penalty: int = 14


@dataclass
class L1Config:
    """Per-core L1 data/instruction cache (write-through)."""

    size_bytes: int = 32 * 1024
    ways: int = 8
    latency: int = 3
    mshr_entries: int = 16


@dataclass
class LLCConfig:
    """Shared, distributed last-level cache: one slice per core."""

    slice_bytes: int = 1024 * 1024
    ways: int = 8
    latency: int = 18
    mshr_entries: int = 32
    # Tag/data pipeline throughput: one access may start every N cycles per
    # slice (a single-ported slice under multiprogrammed load queues up).
    cycles_per_access: int = 2


#: registered interconnect topologies (see ``repro.interconnect``).
TOPOLOGIES = ("ring", "mesh")


@dataclass
class FabricConfig:
    """On-chip interconnect fabric: control (8 B) and data (64 B) networks.

    ``topology`` selects the fabric implementation (``ring`` — the paper's
    bi-directional rings — or ``mesh``, a 2D XY-routed grid).  Per-hop
    latency covers link traversal plus stop arbitration and buffering
    under load; a 64 B + header data message serializes as multiple flits
    on each link.  These parameters are topology-independent, so a
    ring-vs-mesh sweep varies hop counts and contention, not link speed.
    """

    topology: str = "ring"
    link_cycles: int = 2
    # Serialization cycles a message occupies each link it crosses.
    control_occupancy: int = 1
    data_occupancy: int = 4
    # Mesh column count; 0 derives the squarest grid covering the stops.
    mesh_width: int = 0


#: historical name — the ring was the only fabric before the mesh landed.
RingConfig = FabricConfig


@dataclass
class DRAMConfig:
    """DDR3 memory system timing, in core cycles.

    CAS 13.75 ns at 3.2 GHz = 44 cycles; tRCD and tRP are the same class.
    The 800 MHz bus moving a 64 B line over an 8 B DDR interface takes
    4 bus cycles = 16 core cycles.
    """

    channels: int = 2
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    row_bytes: int = 8192
    t_cas: int = 44
    t_rcd: int = 44
    t_rp: int = 44
    data_bus_cycles: int = 16
    queue_entries: int = 128          # memory queue (4-core: 128, 8-core: 256)
    batch_cap_per_source: int = 5     # PAR-BS: max marked requests per source bank

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank


#: registered off-chip (LLC hit/miss) predictors (see
#: ``repro.emc.miss_predictor``).
PREDICTORS = ("map-i", "hermes")


@dataclass
class PredictorConfig:
    """The EMC's LLC hit/miss predictor (Section 4.3), by kind.

    ``kind`` selects the mechanism: ``map-i`` — the paper's per-core
    arrays of 3-bit saturating counters hashed by PC (``entries`` /
    ``threshold``); ``hermes`` — a Hermes-style perceptron over hashed
    program features (the ``hermes_*`` knobs).  Each kind reads only its
    own sizing fields.
    """

    kind: str = "map-i"
    # MAP-I: 3-bit counter table.
    entries: int = 256
    threshold: int = 4
    # Hermes: per-feature weight tables, outcome history, thresholds.
    hermes_entries: int = 128         # weight-table rows per feature
    hermes_history: int = 8           # bits of LLC-outcome history
    hermes_weight_max: int = 15       # weights saturate at +/- this
    hermes_activation: int = 2        # predict miss when sum >= this
    hermes_training_threshold: int = 14  # train while |sum| <= this


@dataclass
class EMCConfig:
    """The Enhanced Memory Controller (Table 1, "EMC Compute")."""

    enabled: bool = True
    issue_width: int = 2
    rs_entries: int = 8
    num_contexts: int = 2             # 4-core: 2; 8-core: 4 total
    uop_buffer_entries: int = 16
    # Optional buffer for accepted chains whose source data has not yet
    # arrived (they would otherwise park inside an execution context).
    # Default 0 — measurements show over-accepting chains congests the
    # 2-wide EMC back-end and queued slices wait longer than the home core
    # would have taken; context occupancy is the natural throttle.
    pending_chain_entries: int = 0
    prf_entries: int = 16
    data_cache_bytes: int = 4096
    data_cache_ways: int = 4
    data_cache_latency: int = 2
    tlb_entries_per_core: int = 32
    uop_bytes: int = 6
    # LLC hit/miss predictor behind the bypass decision (pluggable;
    # dotted overrides address it as ``emc.predictor.kind`` etc.).
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    # Chain-generation trigger: the core's 3-bit saturating counter (a
    # fixed width); generate when either of the top 2 bits is set
    # (value >= 2).
    dep_counter_trigger: int = 2
    max_chain_uops: int = 16
    # Optional chain cache (an extension in the spirit of the paper's
    # future-work discussion): a small PC-indexed cache of recently
    # generated chain shapes lets a repeat source miss skip the multi-cycle
    # dataflow walk (and its CDB/RRT energy).  0 disables it.
    chain_cache_entries: int = 0
    # Maximum levels of load indirection included in one chain.  Live-outs
    # return only when the whole chain completes, so deeper loads gate the
    # core's restart on the chain's slowest leaf; depth 1 keeps exactly the
    # dependent misses whose addresses derive from the source data.  Raised
    # in the chain-depth ablation bench.
    max_load_depth: int = 1
    # What to do when an EMC load misses the EMC TLB:
    #   "fetch"  — request the PTE from the home core (ring round trip) and
    #              retry.  §4.1.4 halts only when "the PTE is not available"
    #              (a page fault); a plain TLB miss is serviceable, and the
    #              paper's gains on scatter-heavy benchmarks require it.
    #   "cancel" — halt on any EMC TLB miss and make the core re-execute the
    #              chain (the strictest reading; kept as an ablation).
    tlb_miss_policy: str = "fetch"


@dataclass
class PrefetchConfig:
    """Prefetcher selection and sizing (Table 1, "Prefetchers")."""

    kind: str = "none"                # none | stream | ghb | markov+stream
    stream_count: int = 32
    stream_distance: int = 32
    ghb_entries: int = 1024
    markov_table_bytes: int = 1024 * 1024
    markov_addrs_per_entry: int = 4
    fdp_enabled: bool = True
    fdp_min_degree: int = 1
    fdp_max_degree: int = 32


@dataclass
class SystemConfig:
    """The full machine: cores + hierarchy + interconnect + MC(s) + EMC."""

    num_cores: int = 4
    num_mcs: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: L1Config = field(default_factory=L1Config)
    llc: LLCConfig = field(default_factory=LLCConfig)
    # Interconnect fabric.  Field keeps its historical name so dotted
    # overrides (``ring.link_cycles``, ``ring.topology``) stay stable.
    ring: FabricConfig = field(default_factory=FabricConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    emc: EMCConfig = field(default_factory=EMCConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    seed: int = 1
    # Oracle mode for Figure 2: dependent cache misses are charged LLC-hit
    # latency instead of going to DRAM.
    oracle_dependent_hits: bool = False

    def validate(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.num_mcs not in (1, 2):
            raise ValueError("1 or 2 memory controllers supported")
        if self.ring.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.ring.topology!r} "
                f"(known: {', '.join(TOPOLOGIES)})")
        if self.ring.mesh_width < 0:
            raise ValueError("mesh_width cannot be negative")
        if self.num_mcs == 2 and self.dram.channels % 2:
            raise ValueError("dual-MC systems need an even channel count")
        if self.dram.channels < 1:
            raise ValueError("need at least one DRAM channel")
        if self.emc.max_chain_uops > self.emc.uop_buffer_entries:
            raise ValueError("chain length cannot exceed the EMC uop buffer")
        if self.emc.predictor.kind not in PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.emc.predictor.kind!r} "
                f"(known: {', '.join(PREDICTORS)})")


def set_config_field(cfg: SystemConfig, path: str, value: Any) -> None:
    """Set a possibly nested config field by dotted path (in place).

    Raises :class:`AttributeError` when any path component does not exist,
    so a typo can never silently create a new attribute.
    """
    parts = path.split(".")
    target = cfg
    for part in parts[:-1]:
        if not hasattr(target, part):
            raise AttributeError(f"no config section {part!r} in {path!r}")
        target = getattr(target, part)
    if not hasattr(target, parts[-1]):
        raise AttributeError(f"no config field {parts[-1]!r} in {path!r}")
    setattr(target, parts[-1], value)


def get_config_field(cfg: SystemConfig, path: str) -> Any:
    target = cfg
    for part in path.split("."):
        target = getattr(target, part)
    return target


def quad_core_config(prefetcher: str = "none", emc: bool = False,
                     seed: int = 1) -> SystemConfig:
    """The paper's quad-core baseline (Figure 7 / Table 1)."""
    cfg = SystemConfig(
        num_cores=4,
        num_mcs=1,
        prefetch=PrefetchConfig(kind=prefetcher),
        emc=EMCConfig(enabled=emc, num_contexts=2),
        seed=seed,
    )
    cfg.validate()
    return cfg


def eight_core_config(prefetcher: str = "none", emc: bool = False,
                      num_mcs: int = 1, seed: int = 1) -> SystemConfig:
    """The paper's eight-core systems (Figure 11a/11b)."""
    contexts = 4 if num_mcs == 1 else 2   # 2 per EMC in the dual-MC system
    cfg = SystemConfig(
        num_cores=8,
        num_mcs=num_mcs,
        dram=DRAMConfig(channels=4, queue_entries=256),
        prefetch=PrefetchConfig(kind=prefetcher),
        emc=EMCConfig(enabled=emc, num_contexts=contexts),
        seed=seed,
    )
    cfg.validate()
    return cfg


def with_dram_geometry(cfg: SystemConfig, channels: int,
                       ranks: int) -> SystemConfig:
    """Derive a config with a different channel/rank geometry (Figure 20),
    scaling the memory queue commensurately as the paper does."""
    queue = max(32, 64 * channels * ranks // 2)
    dram = replace(cfg.dram, channels=channels, ranks_per_channel=ranks,
                   queue_entries=queue)
    out = replace(cfg, dram=dram)
    out.validate()
    return out
