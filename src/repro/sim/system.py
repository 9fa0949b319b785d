"""Full-system model: cores + ring + LLC + memory controller(s) + EMC(s).

Builds the quad-core (Figure 7) or eight-core single/dual-MC (Figure 11)
topologies from a :class:`SystemConfig` and a multiprogrammed workload, and
owns the chain transport between cores and EMCs (Section 4.2/4.3 message
flows).
"""

from __future__ import annotations

import copy
import functools
import gc
import hashlib
import os
import pickle
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ooo_core import OutOfOrderCore
from ..emc.chain import DependenceChain
from ..emc.controller import EMC
from ..interconnect import build_interconnect
from ..memsys.cache import line_addr
from ..memsys.hierarchy import MemoryHierarchy
from ..memsys.vm import FrameAllocator
from ..trace import NULL_TRACER
from ..uarch.params import SystemConfig
from ..uarch.uop import Trace, UopType
from ..workloads.memory_image import MemoryImage
from .component import CarryoverReport, SimComponent, SnapshotError
from .events import new_wheel
from .stats import SimStats


class DeadlockError(RuntimeError):
    """The event wheel drained before every core finished its trace."""


class SimTimeoutError(DeadlockError):
    """The simulation exceeded its ``max_cycles`` budget before finishing.

    Distinct from a true deadlock (empty wheel with unfinished cores) so
    callers can treat a budget overrun — usually an undersized budget or a
    pathological configuration, not a simulator bug — differently.
    Subclasses :class:`DeadlockError` for backwards compatibility.
    """


#: Event budget for the post-finish drain of in-flight memory traffic.
DRAIN_MAX_EVENTS = 2_000_000

#: on-disk checkpoint container format marker
CHECKPOINT_FORMAT = "repro-checkpoint"


@functools.lru_cache(maxsize=None)
def code_fingerprint(root: Optional[Path] = None) -> str:
    """The identity of the simulator's code, which keys every cached
    result, warmup checkpoint and farm result: a sha256 over the relative
    POSIX path and bytes of every ``*.py``/``*.c`` file of the ``repro``
    package, in sorted order, except ``lint/`` (never run inside a
    simulation) and build directories.  Hashed once per process, on
    first use; ``root`` is a test seam no caller passes."""
    root = root or Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix()
                      for pattern in ("*.py", "*.c")
                      for path in root.rglob(pattern)):
        parts = rel.split("/")
        if parts[0] == "lint" or {"__pycache__", "__kernel__"} & set(parts):
            continue
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _join(path: str, leaf: str) -> str:
    """Carryover-report path join tolerating an empty root."""
    return f"{path}/{leaf}" if path else leaf


@contextmanager
def _gc_paused():
    """Suspend cyclic garbage collection for the duration of an event loop.

    The event loops allocate millions of short-lived objects (events,
    in-flight uops, requests) whose lifetimes refcounting alone handles;
    generational collection only adds scan passes over them.  Restores the
    collector's prior enabled state — and never forces a collection — so
    nesting (run inside warmup) and embedding callers stay unaffected.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class System(SimComponent):
    """One simulated machine running one multiprogrammed workload.

    Lifecycle: an optional *warmup* window (:meth:`warmup`) executes N
    instructions per core, quiesces the machine, atomically resets every
    statistic plus the tracer, and rewinds the clock to zero; the
    *measure* window (:meth:`run`) then reports only the region of
    interest.  A machine at cycle 0 (fresh, or at that boundary) can be
    serialized with :meth:`checkpoint` and revived bit-identically with
    :meth:`from_checkpoint`, or forked with :meth:`fork`.
    """

    def __init__(self, cfg: SystemConfig,
                 workload: Sequence[Tuple[Trace, MemoryImage]],
                 tracer=None) -> None:
        cfg.validate()
        if len(workload) != cfg.num_cores:
            raise ValueError(
                f"workload has {len(workload)} traces for {cfg.num_cores} cores")
        self.cfg = cfg
        self.wheel = new_wheel()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind(self.wheel)
        self.stats = SimStats()
        self.energy_counters = self.stats.energy

        self.frame_allocator = FrameAllocator()
        # The snapshot protocol deliberately skips both attributes: the
        # checkpoint envelope carries these *live* workload objects beside
        # the snapshot tree, and fork shares the immutable traces and
        # copies the images, which mutate during execution (see
        # fork/checkpoint below).
        self._workload: List[Tuple[Trace, MemoryImage]] = list(workload)  # simlint: disable=SIM010
        self.images: List[MemoryImage] = [image for _t, image in workload]  # simlint: disable=SIM010
        num_stops = cfg.num_cores + cfg.num_mcs
        # ``ring`` keeps its historical name; the actual fabric behind it
        # is whatever ``cfg.ring.topology`` selects from the registry.
        self.ring = build_interconnect(num_stops, cfg.ring, self.wheel)
        self.hierarchy = MemoryHierarchy(self)

        self.emcs: List[Optional[EMC]] = []
        for mc_id in range(cfg.num_mcs):
            if cfg.emc.enabled:
                self.emcs.append(EMC(mc_id, self, cfg.emc, cfg.num_cores))
            else:
                self.emcs.append(None)

        self.cores: List[OutOfOrderCore] = []
        for core_id, (trace, _image) in enumerate(workload):
            core = OutOfOrderCore(core_id, trace, self)
            self.cores.append(core)
            self.stats.cores.append(core.stats)

        self._finished = 0
        #: every core has finished its measured pass; a plain attribute
        #: (the cores read it every cycle), kept in step with
        #: ``_finished`` by :meth:`on_core_finished` and :meth:`reseat`
        self.all_finished = False
        self._warmed = False

    # ------------------------------------------------------------------
    # component lookups
    # ------------------------------------------------------------------
    def emc_at(self, mc_id: int) -> Optional[EMC]:
        return self.emcs[mc_id]

    def emc_for(self, line: int) -> Optional[EMC]:
        return self.emcs[self.hierarchy.mc_of_line(line)]

    def emc_context_available(self, paddr: int) -> bool:
        emc = self.emc_for(line_addr(paddr))
        return emc is not None and emc.context_available()

    def mark_llc_emc_bit(self, line: int) -> None:
        self.hierarchy.llc.mark_emc(line)

    def store_writethrough(self, core_id: int, paddr: int, pc: int) -> None:
        self.hierarchy.store_writethrough(core_id, paddr, pc)

    # ------------------------------------------------------------------
    # chain transport (core <-> EMC messages)
    # ------------------------------------------------------------------
    def send_chain(self, chain: DependenceChain) -> None:
        """Ship a generated chain (uops + live-ins + PTEs) to the EMC."""
        mc_id = self.hierarchy.mc_of_line(chain.source_line)
        emc = self.emcs[mc_id]
        if emc is None:
            self.cores[chain.core_id].cancel_chain(chain)
            return
        core = self.cores[chain.core_id]
        tlb = emc.tlbs.for_core(chain.core_id)
        # Source-miss PTE ships with the chain when not EMC-resident
        # (Section 4.1.4); live-in-based load addresses are computable at
        # generation time, so their PTEs ship too (see DESIGN.md §7).
        if not tlb.resident(chain.source_vaddr):
            emc.tlbs.preload(chain.core_id, core.page_table,
                             chain.source_vaddr)
            chain.shipped_pte = True
        for cu in chain.uops:
            if (cu.uop.op in (UopType.LOAD, UopType.STORE)
                    and cu.src1_index is None and cu.src1_value is not None):
                vaddr = (cu.src1_value + cu.uop.imm) & ((1 << 64) - 1)
                if not tlb.resident(vaddr):
                    emc.tlbs.preload(chain.core_id, core.page_table, vaddr)

        lines = chain.transfer_lines_to_emc(self.cfg.emc.uop_bytes)
        remaining = {"count": lines}

        def one_arrived() -> None:
            remaining["count"] -= 1
            if remaining["count"]:
                return
            if not emc.accept_chain(chain):
                self.stats.emc.chains_rejected_no_context += 1
                core.cancel_chain(chain)

        for _ in range(lines):
            self.ring.send(chain.core_id, self.hierarchy.mc_stop(mc_id),
                           "data", one_arrived, emc=True)

    def return_liveouts(self, mc_id: int, chain: DependenceChain,
                        values: Dict[int, int]) -> None:
        """Chain finished at the EMC: send live-outs back to the home core."""
        core = self.cores[chain.core_id]
        lines = chain.transfer_lines_to_core()
        remaining = {"count": lines}

        def one_arrived() -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                core.apply_chain_liveouts(chain, values)

        for _ in range(lines):
            self.ring.send(self.hierarchy.mc_stop(mc_id), chain.core_id,
                           "data", one_arrived, emc=True)

    def chain_cancelled(self, mc_id: int, chain: DependenceChain) -> None:
        """The EMC halted; tell the home core to re-execute the chain."""
        core = self.cores[chain.core_id]
        self.ring.send(self.hierarchy.mc_stop(mc_id), chain.core_id, "ctrl",
                       lambda: core.cancel_chain(chain), emc=True)

    def fetch_pte(self, mc_id: int, core_id: int, vaddr: int,
                  callback: Callable[[], None]) -> None:
        """'fetch' TLB-miss policy: round-trip to the home core for a PTE."""
        core = self.cores[core_id]
        emc = self.emcs[mc_id]
        mc_stop = self.hierarchy.mc_stop(mc_id)

        def at_core() -> None:
            entry = core.page_table.entry_for(vaddr)

            def back_at_emc() -> None:
                emc.tlbs.for_core(core_id).insert(entry)
                callback()

            self.ring.send(core_id, mc_stop, "ctrl", back_at_emc, emc=True)

        # A few cycles of page-table-cache lookup at the core.
        self.ring.send(mc_stop, core_id, "ctrl",
                       lambda: self.wheel.schedule(4, at_core), emc=True)

    def notify_source_complete(self, chain: DependenceChain) -> None:
        """The chain's source value is architecturally available at the
        core; start the chain if it is still parked at its EMC (covers
        fills that bypassed the owning controller's DRAM-return hook)."""
        mc_id = self.hierarchy.mc_of_line(chain.source_line)
        emc = self.emcs[mc_id]
        if emc is not None:
            emc.start_if_parked(chain)

    def tlb_shootdown(self, core_id: int, vaddr: int) -> int:
        """OS-initiated TLB shootdown for one page of one address space.

        The per-PTE residency bit the paper adds (§4.1.4) tells the core
        which EMC TLBs hold the translation; invalidation messages travel
        the control ring.  Returns the number of EMC TLB entries dropped.
        """
        from ..uarch.params import PAGE_BYTES
        vpn = vaddr // PAGE_BYTES
        dropped = 0
        for mc_id, emc in enumerate(self.emcs):
            if emc is None:
                continue
            if emc.tlbs.for_core(core_id).invalidate(vpn):
                dropped += 1
                self.ring.send(core_id, self.hierarchy.mc_stop(mc_id),
                               "ctrl", lambda: None, emc=True)
        return dropped

    def notify_core_lsq(self, mc_id: int, core_id: int) -> None:
        """Address-ring message populating the home core's LSQ entry for a
        memory op executed at the EMC (Section 4.3).  Traffic-accounting
        only; the ordering guarantees it provides are modeled by the
        disambiguation hook."""
        self.ring.send(self.hierarchy.mc_stop(mc_id), core_id, "ctrl",
                       lambda: None, emc=True)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def on_core_finished(self, core_id: int) -> None:
        self._finished += 1
        self.all_finished = self._finished >= self.cfg.num_cores

    def warmup(self, warmup_instrs: int,
               max_cycles: int = 50_000_000) -> None:
        """Execute ``warmup_instrs`` instructions per core, then cross the
        warmup/measure boundary.

        Each core fetches until its retired-instruction count reaches the
        target (wrapping its trace as needed, without "finishing"); the
        event wheel then drains naturally, quiescing the machine.  At the
        boundary every statistic and the tracer reset atomically and the
        clock rewinds to zero, so a subsequent :meth:`run` measures only
        the region of interest on warmed caches and predictors.
        """
        if warmup_instrs <= 0:
            return
        if self._warmed or self.wheel.now or self._finished:
            raise SnapshotError("warmup requires a fresh machine")
        for core in self.cores:
            core.begin_warmup(warmup_instrs)
        for core in self.cores:
            core.start()
        with _gc_paused():
            while self.wheel.advance():
                if self.wheel.now > max_cycles:
                    raise SimTimeoutError(
                        f"warmup exceeded {max_cycles} cycles; "
                        + self._deadlock_report())
        laggards = [c.core_id for c in self.cores if not c.warmup_done]
        if laggards:
            raise DeadlockError(
                f"warmup drained with cores {laggards} short of "
                f"{warmup_instrs} instructions; " + self._deadlock_report())
        self._begin_measurement()

    def _begin_measurement(self) -> None:
        """Atomically cross the warmup/measure boundary on a quiesced
        machine: rebase clock-valued component state, prune warmup-only
        bookkeeping, zero every statistic and the tracer, and rewind the
        wheel to cycle zero."""
        if self.wheel.pending:
            raise SnapshotError(
                f"cannot cross the measurement boundary with "
                f"{self.wheel.pending} events pending")
        origin = self.wheel.now
        for core in self.cores:
            core.end_warmup(origin)
        self.hierarchy.rebase(origin)
        self.ring.rebase(origin)
        self.reset_stats()
        self.tracer.reset()
        self.wheel.rewind()
        self._warmed = True

    def run(self, max_cycles: int = 50_000_000,
            drain_max_events: int = DRAIN_MAX_EVENTS) -> SimStats:
        """Run every core's trace to completion and return the stats
        (after :meth:`warmup`, of the measured region only)."""
        for core in self.cores:
            core.start()
        # Whole-cycle batch dispatch: finish/timeout checks run once per
        # simulated cycle, not once per event.  Same-cycle events past
        # the finish edge execute here instead of in the drain below —
        # the drain would run them in the identical order, so the final
        # state (and every statistic) is unchanged.
        wheel_advance = self.wheel.advance
        with _gc_paused():
            while not self.all_finished:
                if not wheel_advance():
                    raise DeadlockError(self._deadlock_report())
                if self.wheel.now > max_cycles:
                    raise SimTimeoutError(
                        f"exceeded {max_cycles} cycles; "
                        + self._deadlock_report())
            self.stats.total_cycles = max(
                (c.stats.finished_at or 0) for c in self.cores)
            # Drain in-flight memory traffic (write-throughs, writebacks,
            # fills) so end-of-run counters settle; wrapped cores stop
            # fetching once everyone has finished, so the wheel empties.
            self.wheel.run(max_events=drain_max_events)
        if self.wheel.pending:
            self.stats.drain_truncated = True
            warnings.warn(
                f"post-finish drain stopped after {drain_max_events} events "
                f"with {self.wheel.pending} still queued; in-flight traffic "
                "counters (DRAM accesses, ring hops, energy) are incomplete",
                RuntimeWarning, stacklevel=2)
        self._finalize_stats()
        return self.stats

    def _finalize_stats(self) -> None:
        """Take the energy model's fabric and DRAM event counts from the
        counters that own them."""
        energy = self.energy_counters
        energy.ring_control_hops = self.ring.stats.control_hops
        energy.ring_data_hops = self.ring.stats.data_hops
        dram = self.dram_stats
        energy.dram_reads = sum(s.reads for s in dram)
        energy.dram_writes = sum(s.writes for s in dram)
        energy.dram_activations = sum(s.row_closed + s.row_conflicts
                                      for s in dram)

    def _deadlock_report(self) -> str:
        parts = [f"deadlock at cycle {self.wheel.now}:"]
        for core in self.cores:
            p = core.progress()
            parts.append(
                f" core{p.core_id}: fetched={p.fetched}"
                f"/{p.trace_len} rob={p.rob_occupancy}"
                f" ready={p.ready} finished={p.finished}"
                f" head={p.rob_head}")
        return "".join(parts)

    # ------------------------------------------------------------------
    # SimComponent protocol (aggregates every component)
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero every statistic in the machine, architectural state
        untouched.  ``SimStats`` resets the shared dataclass tree in
        place (core/EMC/energy aliases survive); components reset the
        counters they privately own."""
        self.stats.reset_stats()
        for core in self.cores:
            core.reset_stats()
        self.hierarchy.reset_stats()
        self.ring.reset_stats()
        for emc in self.emcs:
            if emc is not None:
                emc.reset_stats()

    def config_state(self) -> dict:
        # The topology descriptor: how many per-core and per-MC state
        # subtrees the payload holds, and which MCs carry EMC state.
        return {
            "num_cores": self.cfg.num_cores,
            "num_mcs": self.cfg.num_mcs,
            "emc_present": tuple(emc is not None for emc in self.emcs),
        }

    def _require_cycle_zero(self, action: str) -> None:
        """Raise :class:`SnapshotError` unless the wheel is empty and at
        cycle 0: a freshly built machine, or one at the warmup/measure
        boundary.  There every statistic sits at its construction value
        and no in-flight state holds a callback, so a snapshot carries
        architectural state only."""
        if self.wheel.pending or self.wheel.now:
            raise SnapshotError(
                f"cannot {action} at cycle {self.wheel.now} with "
                f"{self.wheel.pending} events pending: only a fresh "
                "machine or one at the measurement boundary (cycle 0, "
                "empty event wheel) can")

    def snapshot(self) -> dict:
        """Capture the machine's architectural state; only at cycle 0
        (:meth:`_require_cycle_zero`)."""
        self._require_cycle_zero("snapshot")
        state = self._header()
        state.update(
            finished=self._finished,
            warmed=self._warmed,
            frame_allocator=self.frame_allocator.snapshot(),
            ring=self.ring.snapshot(),
            hierarchy=self.hierarchy.snapshot(),
            emcs=[emc.snapshot() if emc is not None else None
                  for emc in self.emcs],
            cores=[core.snapshot() for core in self.cores],
        )
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Seat a (possibly other-config) machine snapshot into this one.

        Workload-derived state re-hashes into the live structures; what
        cannot carry over (e.g. lines beyond a smaller cache's capacity,
        a toggled EMC's warmed dcache) is dropped and accounted in
        ``report``.  Across a core-count change, surviving cores re-seat
        index-by-index, surplus cores' state leaves with their traces
        (shrink), and added cores start cold on fresh traces (grow) —
        the LLC re-interleaves across the new slice count along the way.
        Only a machine at cycle 0 takes a snapshot, so both sides hold
        every statistic at its construction value.
        """
        state = self._check(state, match_config=False)
        self._require_cycle_zero("reseat into a machine")
        saved_cores = state["cores"]
        self._finished = min(state["finished"], len(self.cores))
        self.all_finished = self._finished >= self.cfg.num_cores
        self._warmed = state["warmed"]
        self.frame_allocator.reseat(state["frame_allocator"], report,
                                    _join(path, "frame_allocator"))
        self.ring.reseat(state["ring"], report, _join(path, "ring"))
        self.hierarchy.reseat(state["hierarchy"], report,
                              _join(path, "hierarchy"))
        emc_path = _join(path, "emc")
        saved_emcs = state["emcs"]
        if (len(saved_emcs) == len(self.emcs)
                and len(saved_cores) == len(self.cores)):
            for emc, sub in zip(self.emcs, saved_emcs):
                if emc is not None and sub is not None:
                    emc.reseat(sub, report, emc_path)
                elif emc is not None or sub is not None:
                    # Toggled on (starts cold) or off (warmed state lost).
                    report.record(emc_path, 0, 1)
        else:
            # The MC or core count changed: per-MC EMC state (dcache
            # contents, per-core TLB fills, predictor tables) is keyed to
            # the old line->MC and core partitions and cannot be
            # attributed across the new split.
            lost = sum(1 for sub in saved_emcs if sub is not None)
            if lost or any(emc is not None for emc in self.emcs):
                report.record(emc_path, 0, max(lost, 1))
        # One shared path: per-core L1/chain-cache carryover accumulates
        # into machine-wide lines instead of num_cores separate ones.
        shared = min(len(saved_cores), len(self.cores))
        for core, sub in zip(self.cores[:shared], saved_cores[:shared]):
            core.reseat(sub, report, _join(path, "cores"))
        if len(saved_cores) > shared:
            # Shrink: surplus cores' warmed state leaves with their traces.
            report.record(_join(path, "cores/dropped"), 0,
                          len(saved_cores) - shared)
        if len(self.cores) > shared:
            # Grow: added cores run fresh traces and start cold.
            report.record(_join(path, "cores/added"), 0,
                          len(self.cores) - shared)

    # ------------------------------------------------------------------
    # fork: same workload, different configuration
    # ------------------------------------------------------------------
    def fork(self, cfg_overrides: Optional[Dict[str, object]] = None,
             tracer=None, *, cfg: Optional[SystemConfig] = None,
             added_workload: Optional[Sequence[Tuple[Trace, MemoryImage]]]
             = None) -> Tuple["System", CarryoverReport]:
        """Build a new machine with ``cfg_overrides`` applied, seating this
        machine's workload-derived state into it.

        The point: one warmed machine can seed an entire config sweep.
        Caches and TLBs re-hash into the new geometries, predictor tables
        clamp to the new capacities, and whatever cannot carry over is
        invalidated and accounted in the returned
        :class:`~repro.sim.component.CarryoverReport`.

        Requires cycle 0 (:meth:`snapshot`).  Trace uop lists are never mutated
        after they are built, so the fork shares the parent's ``Trace``
        objects.  Memory images mutate during execution: each is copied,
        which copies its write overlay and shares its immutable regions.
        The snapshot and ``added_workload`` are copied through one pickle
        round trip, so the fork shares no mutable object with the parent
        or the caller; both machines can then run independently.  The
        snapshot references no trace or image, only the few uops the
        rename tables hold, which the round trip copies by value.

        ``num_cores`` may change.  Shrinking drops the surplus cores'
        traces and warmed state (accounted in the report); growing
        requires ``added_workload`` — one fresh ``(trace, image)`` per
        added core, since per-core traces are workload identity, not
        configuration — and the added cores start cold.  Either way the
        LLC re-interleaves its lines across the new slice count.

        Note that ``fork(overrides)`` is *not* bit-identical to warming a
        fresh machine under the overridden config: timing-affecting
        overrides change the warmup trajectory itself.  It is the warmed
        *microarchitectural contents* that carry, which is exactly the
        shared-warmup contract (see ``repro sanitize --fork-identity``).

        ``cfg`` (keyword-only) supplies a complete target config instead
        of overrides — the sweep runner's path, which has already built
        the per-point config.  Mutually exclusive with ``cfg_overrides``.
        """
        from ..uarch.params import set_config_field
        self._require_cycle_zero("fork")
        if cfg is not None:
            if cfg_overrides:
                raise ValueError(
                    "fork takes cfg_overrides or an explicit cfg, not both")
        else:
            cfg = copy.deepcopy(self.cfg)
            for key, value in (cfg_overrides or {}).items():
                set_config_field(cfg, key, value)
        if cfg.num_cores > self.cfg.num_cores:
            added = list(added_workload or ())
            needed = cfg.num_cores - self.cfg.num_cores
            if len(added) != needed:
                raise SnapshotError(
                    f"fork growing num_cores ({self.cfg.num_cores} -> "
                    f"{cfg.num_cores}) needs {needed} added per-core "
                    f"traces, got {len(added)}: per-core traces are "
                    "workload identity, not configuration")
        else:
            if added_workload:
                raise ValueError(
                    "added_workload only applies when the fork grows "
                    "num_cores")
            added = []
        cfg.validate()
        added, state = pickle.loads(pickle.dumps(
            (added, self.snapshot()), pickle.HIGHEST_PROTOCOL))
        workload = [(trace, image.copy()) for trace, image in self._workload]
        forked = System(cfg, (workload + added)[:cfg.num_cores],
                        tracer=tracer)
        report = CarryoverReport()
        forked.reseat(state, report)
        return forked, report

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> None:
        """Serialize the full machine to ``path`` (atomically).

        Requires cycle 0 (:meth:`snapshot`) — in practice the
        warmup/measure boundary.  The
        payload carries the config, the *live* workload (trace uop lists
        and memory images, which mutate during execution), and the
        component state tree in one pickle, so shared object identity —
        rename-table entries referencing trace uops, cores referencing
        their images — survives the round trip.
        """
        payload = {
            "format": CHECKPOINT_FORMAT,
            "code": code_fingerprint(),
            "cfg": self.cfg,
            "workload": self._workload,
            "state": self.snapshot(),
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    @classmethod
    def from_checkpoint(cls, path: str, tracer=None) -> "System":
        """Revive a machine serialized by :meth:`checkpoint`.

        The revived system is bit-identical to the one that was
        checkpointed: running it produces the same statistics as running
        the original straight through.  A fresh ``tracer`` may be
        attached (the boundary resets tracers, so a resumed traced run
        matches a straight-through traced run).  A file that does not
        unpickle, is not a checkpoint, or was written by other code
        (another :func:`code_fingerprint`) raises :class:`SnapshotError`.
        Resuming is a fork into the same configuration: :meth:`restore`
        demands every component header match, then reseats.
        """
        with open(path, "rb") as fh:
            try:
                payload = pickle.load(fh)
            except Exception as exc:
                # pickle surfaces corruption as almost any exception type.
                raise SnapshotError(f"{path}: unreadable checkpoint: "
                                    f"{exc!r}") from exc
        if (not isinstance(payload, dict)
                or payload.get("format") != CHECKPOINT_FORMAT):
            raise SnapshotError(f"{path}: not a simulator checkpoint")
        if payload.get("code") != code_fingerprint():
            raise SnapshotError(f"{path}: checkpoint of other code "
                                f"(fingerprint {payload.get('code')})")
        system = cls(payload["cfg"], payload["workload"], tracer=tracer)
        system.restore(payload["state"])
        return system

    # -- convenience ----------------------------------------------------
    @property
    def dram_stats(self):
        """Aggregated DRAM stats across all memory controllers."""
        return [d.stats for d in self.hierarchy.dram]
