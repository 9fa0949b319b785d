"""Trace-driven out-of-order core model.

Models what the paper's mechanism needs from a core: a 256-entry ROB with
register-dataflow scheduling (wakeup lists, not per-cycle scans), a
reservation-station capacity limit, an L1 with MSHR coalescing, statistical
branch-misprediction stalls, full-window-stall detection, runtime
dependent-miss classification (the backward dataflow walk), and the
chain-generation unit of Section 4.2 (RRT + live-in vector + pseudo
wake-up walk, Algorithm 1).

Cores "doze": a core that can neither fetch, issue, nor retire stops
scheduling tick events and is woken by memory completions.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..emc.chain import ChainUop, DependenceChain
from ..memsys.cache import SetAssocCache, line_addr
from ..memsys.request import MemRequest
from ..memsys.vm import PageTable
from ..sim.component import (CarryoverReport, SimComponent,
                             SnapshotError, rebase_clock,
                             require_empty)
from ..sim.stats import CoreStats, CounterBank
from ..uarch.isa import effective_address, execute_alu
from ..uarch.uop import MASK64, UOP_LATENCY, MicroOp, Trace, UopType
from . import kernel
from .inflight import InflightUop, UopState

#: backward-walk depth limit for dependent-miss classification
MISS_WALK_LIMIT = 24


@dataclass(frozen=True)
class CoreProgress:
    """Public point-in-time snapshot of a core's execution state.

    This is the supported surface for diagnostics (deadlock reports,
    watchdogs, progress displays); it insulates callers from the core's
    private fetch/window bookkeeping.
    """

    core_id: int
    fetched: int          # uops fetched from the current trace pass
    trace_len: int        # uops in one trace pass
    rob_occupancy: int
    ready: int            # uops ready to issue
    finished: bool        # completed its first full (measured) trace pass
    wrap_count: int       # interference-only wrapped passes completed
    rob_head: Optional[object]   # oldest in-flight uop, or None


class OutOfOrderCore(SimComponent):
    """One core: front-end, window, L1, and the chain-generation unit."""

    def __init__(self, core_id: int, trace: Trace, system) -> None:
        self.core_id = core_id
        self.system = system
        self.cfg = system.cfg.core
        self.wheel = system.wheel
        self.tracer = system.tracer
        self.image = system.images[core_id]
        self.page_table = PageTable(asid=core_id,
                                    allocator=system.frame_allocator)
        self.stats = CoreStats(core_id=core_id, benchmark=trace.name)

        self._trace = trace.uops
        self._fetch_index = 0
        self.rob: Deque[InflightUop] = deque()
        self.ready: Deque[InflightUop] = deque()
        self.rename: Dict[int, InflightUop] = {}
        self.regfile: Dict[int, int] = {}
        self._by_seq: Dict[int, InflightUop] = {}
        self.rs_occupancy = 0

        l1cfg = system.cfg.l1
        self.l1 = SetAssocCache(l1cfg.size_bytes, l1cfg.ways)
        self.l1_latency = l1cfg.latency
        self.l1_mshr_capacity = l1cfg.mshr_entries
        self.l1_pending: Dict[int, List[InflightUop]] = {}

        # Branch handling: fetch stops after a mispredicted branch until it
        # resolves plus the pipeline-restart penalty.
        self._fetch_blocked = False

        # 3-bit saturating dependent-miss-likelihood counter (Section 4.2).
        self.dep_miss_counter = 4
        self._chain_gen_busy_until = 0
        # PC-indexed LRU chain cache (extension; empty when disabled).
        self._chain_cache: "OrderedDict[int, bool]" = OrderedDict()
        # Flat accumulator for the chain-generation energy events; always
        # drained into the energy counters before _build_chain returns, so
        # it holds no state between events (never snapshotted).
        self._chain_energy = CounterBank(
            ("cdb_broadcasts", "rrt_reads", "rrt_writes",
             "rob_chain_reads"))

        # Fixed-delay completions (ALU results, store acks, L1 hits): one
        # FIFO of (uop, value) pairs per delay, each drained by one event
        # callback made once per core.  Completions scheduled at the same
        # delay fire in schedule order (now + delay never decreases), so
        # each event pops exactly the pair it was scheduled for.
        self._completions: Dict[int, Tuple[Deque[Tuple[InflightUop, int]],
                                           Callable[[], None]]] = {
            delay: self._completion_fifo()
            for delay in sorted({*filter(None, UOP_LATENCY.values()), 1,
                                 self.l1_latency})}
        # The loads whose llc_miss_pending is set, by id: the only
        # possible chain sources.  Every write of that flag keeps this in
        # step, so it holds exactly the loads whose LLC miss is pending.
        self._miss_sources: Dict[int, InflightUop] = {}

        self._tick_scheduled = False
        self._doze_started: Optional[int] = None
        # The tick's scheduled callable, picked when the core is built: the
        # C kernel's TickEvent, or the Python reference method.
        self._tick_event: Callable[[], None] = (
            self._tick if _kernel is None else _kernel.TickEvent(self))
        # "finished" = completed its first full trace window (the paper's
        # per-benchmark instruction budget).  The core then keeps running
        # wrapped-around copies of its trace to preserve interference until
        # every core completes, but its statistics are frozen.
        self.finished = False
        self.stats_frozen = False
        self.wrap_count = 0
        # Warmup window: while set, fetch stops at this retired-instruction
        # count and a core exhausting its trace wraps *without* finishing.
        self._warmup_limit: Optional[int] = None

    # ------------------------------------------------------------------
    # scheduling / doze
    # ------------------------------------------------------------------
    def start(self) -> None:
        # Stagger core start-up a little: real multiprogrammed workloads do
        # not begin in lock-step, and homogeneous mixes otherwise phase-lock
        # on the DRAM batch scheduler, amplifying butterfly effects.
        self._tick_scheduled = True
        self.wheel.schedule(1 + 53 * self.core_id, self._tick_event)

    def _completion_fifo(self) -> Tuple[Deque[Tuple[InflightUop, int]],
                                        Callable[[], None]]:
        fifo: Deque[Tuple[InflightUop, int]] = deque()
        if _kernel is not None:
            return fifo, _kernel.Completion(self, fifo)
        popleft = fifo.popleft

        def complete_next() -> None:
            iu, value = popleft()
            self._complete(iu, value)

        return fifo, complete_next

    def _schedule_tick(self, delay: int = 0) -> None:
        if self._tick_scheduled:
            return
        self._tick_scheduled = True
        self.wheel.schedule(delay, self._tick_event)

    def wake(self) -> None:
        """Called by any completion event that may unblock this core."""
        if self._doze_started is not None:
            # Attribute dozed time blocked on a full window to stall stats,
            # up to the cycle the core's statistics froze.
            cfg = self.cfg
            if (len(self.rob) >= cfg.rob_entries
                    or self.rs_occupancy >= cfg.rs_entries):
                until = self.wheel.now
                if self.stats_frozen:
                    until = min(until, self.stats.finished_at or 0)
                if until > self._doze_started:
                    # CoreStats is donated to SimStats.cores at
                    # construction; SimStats.reset_stats zeroes it
                    # recursively.
                    self.stats.full_window_stall_cycles += (  # simlint: disable=SIM011
                        until - self._doze_started)
            self._doze_started = None
        self._schedule_tick()

    def progress(self) -> CoreProgress:
        """Snapshot fetch/window state without exposing internals."""
        return CoreProgress(
            core_id=self.core_id,
            fetched=self._fetch_index,
            trace_len=len(self._trace),
            rob_occupancy=len(self.rob),
            ready=len(self.ready),
            finished=self.finished,
            wrap_count=self.wrap_count,
            rob_head=self.rob[0] if self.rob else None,
        )

    # ------------------------------------------------------------------
    # phase lifecycle (warmup / measure boundary)
    # ------------------------------------------------------------------
    def begin_warmup(self, limit: int) -> None:
        """Arm the warmup gate: fetch stops once ``limit`` instructions
        have retired, and trace exhaustion wraps instead of finishing."""
        self._warmup_limit = limit

    @property
    def warmup_done(self) -> bool:
        """True once this core has retired its warmup quota (vacuously
        true outside a warmup window)."""
        return (self._warmup_limit is None
                or self.stats.instructions >= self._warmup_limit)

    def _require_quiesced(self) -> None:
        require_empty(self, rob=self.rob, ready=self.ready,
                      by_seq=self._by_seq, l1_pending=self.l1_pending,
                      miss_sources=self._miss_sources,
                      **{f"completions[{delay}]": fifo for delay, (fifo, _)
                         in self._completions.items()})
        if self.rs_occupancy != 0:
            raise SnapshotError(
                f"core {self.core_id}: rs_occupancy={self.rs_occupancy} "
                "with an empty window")

    def end_warmup(self, origin: int) -> None:
        """Cross the warmup/measure boundary on a quiesced core.

        Drops the warmup gate, rebases clock-valued state against the
        rewound wheel, and prunes the retired-uop dependence DAG to the
        classification horizon so it (and any checkpoint built from it)
        stays bounded.  ``origin`` is the wheel time the boundary was
        taken at (the new cycle zero).
        """
        self._require_quiesced()
        self._warmup_limit = None
        self.wrap_count = 0
        self._tick_scheduled = False
        self._doze_started = None
        self._chain_gen_busy_until = rebase_clock(
            self._chain_gen_busy_until, origin)
        if self._fetch_index >= len(self._trace):
            # Warmup consumed an exact number of whole passes; measure
            # from the top of the trace rather than finishing instantly.
            self._fetch_index = 0
        self._rebase_and_prune(origin)

    def _rebase_and_prune(self, origin: int) -> None:
        """Retired uops reachable from the rename table feed
        ``find_miss_root`` during the measure window.  Rebase their cycle
        timestamps — *unclamped*, because ``done_cycle`` ordering against
        future ``dispatch_cycle`` values must survive the rewind — and cut
        producer links past the walk horizon so the DAG cannot grow
        without bound across the boundary."""
        depth_of: Dict[int, int] = {}
        order: List[InflightUop] = []
        level: List[InflightUop] = list(self.rename.values())
        depth = 0
        while level and depth <= MISS_WALK_LIMIT:
            nxt: List[InflightUop] = []
            for iu in level:
                if id(iu) in depth_of:
                    continue
                depth_of[id(iu)] = depth
                order.append(iu)
                nxt.extend(iu.producers())
            level = nxt
            depth += 1
        for iu in order:
            # Every node here is retired: wake-up lists, memory-ordering
            # links, and chain membership are dead weight.
            iu.consumers.clear()
            iu.chain = None
            iu.source_of_chain = None
            iu.mem_dep_p = None
            for field in ("dispatch_cycle", "issue_cycle", "done_cycle"):
                value = getattr(iu, field)
                if value is not None:
                    setattr(iu, field, value - origin)
            if depth_of[id(iu)] >= MISS_WALK_LIMIT:
                iu.p1 = iu.p2 = None

    # ------------------------------------------------------------------
    # SimComponent protocol
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        # CoreStats is owned (and reset) by SimStats; only the L1's own
        # counters live below this component.
        self.l1.reset_stats()

    def config_state(self) -> dict:
        return {"core_id": self.core_id}

    def snapshot(self) -> dict:
        self._require_quiesced()
        state = self._header()
        state.update(
            fetch_index=self._fetch_index,
            rename=dict(self.rename),
            regfile=dict(self.regfile),
            l1=self.l1.snapshot(),
            page_table=self.page_table.snapshot(),
            fetch_blocked=self._fetch_blocked,
            dep_miss_counter=self.dep_miss_counter,
            chain_gen_busy_until=self._chain_gen_busy_until,
            chain_cache=OrderedDict(self._chain_cache),
            finished=self.finished,
            stats_frozen=self.stats_frozen,
            wrap_count=self.wrap_count,
            warmup_limit=self._warmup_limit,
        )
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Adopt a snapshot across a config change.  Everything but the
        L1 (re-hashed into its new geometry) and the chain cache
        (trimmed to the live ``emc.chain_cache_entries`` capacity,
        newest-first) is config-independent."""
        state = self._check(state)
        self._fetch_index = state["fetch_index"]
        self.rob.clear()
        self.ready.clear()
        self._by_seq.clear()
        self.l1_pending.clear()
        self._miss_sources.clear()
        self.rs_occupancy = 0
        self.rename.clear()
        self.rename.update(state["rename"])
        self.regfile.clear()
        self.regfile.update(state["regfile"])
        self.page_table.reseat(state["page_table"], report,
                               f"{path}/page_table")
        self._fetch_blocked = state["fetch_blocked"]
        self.dep_miss_counter = state["dep_miss_counter"]
        self._chain_gen_busy_until = state["chain_gen_busy_until"]
        self._tick_scheduled = False
        self._doze_started = None
        self.finished = state["finished"]
        self.stats_frozen = state["stats_frozen"]
        self.wrap_count = state["wrap_count"]
        self._warmup_limit = state["warmup_limit"]
        self.l1.reseat(state["l1"], report, f"{path}/l1")
        saved_cc = state["chain_cache"]
        cap = self.system.cfg.emc.chain_cache_entries
        keep = list(saved_cc.items())[max(0, len(saved_cc) - cap):] \
            if cap else []
        self._chain_cache.clear()
        self._chain_cache.update(keep)
        report.record(f"{path}/chain_cache", len(keep), len(saved_cc))

    def _can_fetch(self) -> bool:
        if self.stats_frozen and self.system.all_finished:
            return False    # draining: wrapped interference is over
        if (self._warmup_limit is not None
                and self.stats.instructions >= self._warmup_limit):
            return False    # warmup target reached: quiesce for the boundary
        return (self._fetch_index < len(self._trace)
                and len(self.rob) < self.cfg.rob_entries
                and self.rs_occupancy < self.cfg.rs_entries
                and not self._fetch_blocked)

    def _tick(self) -> None:
        """One core cycle: retire, issue, fetch/dispatch, chain
        generation, then reschedule or doze.

        This is the pure-Python reference of the C kernel's ``TickEvent``
        (``_tick.c``), statement for statement.  A core built while the
        kernel is loaded schedules the ``TickEvent`` instead (its
        ``_tick_event``); both are defined in ``repro.core``, so a tracer
        charges the cycle to the core either way.

        The stage bodies are merged into this single method on purpose.
        On the paper's workloads each stage touches about one uop per
        cycle, so per-stage call and attribute-binding overhead — not the
        per-uop work — dominates host time; one shared set of locals per
        tick is measurably faster than four method calls.  The rare
        trace-exhausted path stays in :meth:`_on_window_empty`; loads,
        stores and chain generation stay in their methods, which the
        kernel calls back.
        """
        self._tick_scheduled = False
        cfg = self.cfg
        rob = self.rob
        ready = self.ready
        wheel = self.wheel
        now = wheel.now
        stats = self.stats
        regfile = self.regfile
        done = UopState.DONE
        ready_state = UopState.READY

        # -- retire ------------------------------------------------------
        if rob and rob[0].state is done:
            retire_width = cfg.retire_width
            by_seq_pop = self._by_seq.pop
            rename_get = self.rename.get
            popleft = rob.popleft
            frozen = self.stats_frozen
            retired = 0
            while retired < retire_width and rob and rob[0].state is done:
                iu = popleft()
                uop = iu.uop
                by_seq_pop(uop.seq, None)
                if rename_get(uop.dest) is iu:
                    # Keep the committed value readable after the entry
                    # leaves the window.
                    regfile[uop.dest] = iu.value
                if not frozen:
                    stats.instructions += 1
                retired += 1
        if not rob and self._fetch_index >= len(self._trace):
            self._on_window_empty()

        # -- issue -------------------------------------------------------
        if ready:
            issue_width = cfg.issue_width
            issued_state = UopState.ISSUED
            load = UopType.LOAD
            store = UopType.STORE
            branch = UopType.BRANCH
            popleft = ready.popleft
            regfile_get = regfile.get
            schedule = wheel.schedule
            completions = self._completions
            issued = 0
            retry = None
            while ready and issued < issue_width:
                iu = popleft()
                if iu.migrated or iu.state is not ready_state:
                    continue
                uop = iu.uop
                op = uop.op
                if op is load and not self._l1_mshr_free(iu):
                    retry = iu
                    break
                iu.state = issued_state
                iu.issue_cycle = now
                if iu.rs_held:
                    iu.rs_held = False
                    self.rs_occupancy -= 1
                if op is load:
                    self._execute_load(iu)
                elif op is store:
                    self._execute_store(iu)
                else:
                    # ALU uop: _source_value() inlined for both operands.
                    reg = uop.src1
                    if reg is None:
                        a = 0
                    else:
                        p = iu.p1
                        a = p.value if p is not None else regfile_get(reg, 0)
                    reg = uop.src2
                    if reg is None:
                        b = 0
                    else:
                        p = iu.p2
                        b = p.value if p is not None else regfile_get(reg, 0)
                    value = execute_alu(uop, a, b)
                    latency = op.latency
                    if op is branch and uop.mispredicted:
                        schedule(latency + cfg.mispredict_penalty,
                                 self._unblock_fetch)
                    fifo, complete_next = completions[latency]
                    fifo.append((iu, value))
                    schedule(latency, complete_next)
                issued += 1
            if retry is not None:
                retry.state = ready_state
                ready.appendleft(retry)

        # -- fetch / dispatch -------------------------------------------
        # _can_fetch() gates entry; inside the loop only the conditions
        # dispatch itself can change (window occupancy, fetch block, trace
        # exhaustion) are re-checked — warmup/drain gating cannot flip
        # mid-fetch.  stats_frozen is re-read: retirement above may have
        # just crossed the finish line.
        if self._can_fetch():
            trace = self._trace
            trace_len = len(trace)
            fetch_width = cfg.fetch_width
            rob_entries = cfg.rob_entries
            rs_entries = cfg.rs_entries
            rename = self.rename
            rename_get = rename.get
            by_seq = self._by_seq
            by_seq_get = by_seq.get
            frozen = self.stats_frozen
            branch = UopType.BRANCH
            fetch_index = self._fetch_index
            fetched = 0
            while True:
                uop = trace[fetch_index]
                fetch_index += 1
                iu = InflightUop(uop, now)
                reg = uop.src1
                if reg is not None:
                    producer = rename_get(reg)
                    if producer is not None:
                        iu.p1 = producer
                        if producer.state is not done:
                            iu.deps += 1
                            producer.consumers.append(iu)
                reg = uop.src2
                if reg is not None:
                    producer = rename_get(reg)
                    if producer is not None:
                        iu.p2 = producer
                        if producer.state is not done:
                            iu.deps += 1
                            producer.consumers.append(iu)
                if uop.mem_dep is not None:
                    dep = by_seq_get(uop.mem_dep)
                    if dep is not None and dep.state is not done:
                        iu.mem_dep_p = dep
                        iu.deps += 1
                        dep.consumers.append(iu)
                if uop.dest is not None:
                    rename[uop.dest] = iu
                rob.append(iu)
                by_seq[uop.seq] = iu
                self.rs_occupancy += 1
                if uop.op is branch and uop.mispredicted:
                    self._fetch_blocked = True
                    if not frozen:
                        stats.mispredicted_branches += 1
                if iu.deps == 0:
                    iu.state = ready_state
                    ready.append(iu)
                fetched += 1
                if (fetched >= fetch_width or fetch_index >= trace_len
                        or len(rob) >= rob_entries
                        or self.rs_occupancy >= rs_entries
                        or self._fetch_blocked):
                    break
            self._fetch_index = fetch_index
            if not frozen:
                self.system.energy_counters.note_core_uops(fetched)

        # -- chain generation + reschedule ------------------------------
        # Chain generation runs only when the EMC is on, stats are live,
        # and the window is actually full.
        if (self.system.cfg.emc.enabled and not self.stats_frozen
                and (len(rob) >= cfg.rob_entries
                     or self.rs_occupancy >= cfg.rs_entries)):
            self._maybe_generate_chain()
        if (ready
                or (rob and rob[0].state is done)
                or self._can_fetch()):
            self._schedule_tick(1)
        else:
            self._doze_started = wheel.now

    def _on_window_empty(self) -> None:
        """The window drained with the trace exhausted: wrap (warmup or
        interference generation) or finish the measured pass."""
        if self._warmup_limit is not None:
            # Warming up: wrap without finishing so the measured window
            # always starts from a running (not completed) machine.
            if self.stats.instructions < self._warmup_limit:
                self._fetch_index = 0
                self.wrap_count += 1
            return
        if not self.finished:
            self.finished = True
            self.stats_frozen = True
            self.stats.finished_at = self.wheel.now
            self.system.on_core_finished(self.core_id)
        if not self.system.all_finished:
            # Wrap around: keep generating interference for the cores
            # still inside their measurement window (§5 methodology).
            self._fetch_index = 0
            self.wrap_count += 1

    # ------------------------------------------------------------------
    # issue / execute helpers
    # ------------------------------------------------------------------
    def _source_value(self, reg: Optional[int],
                      producer: Optional[InflightUop]) -> int:
        if reg is None:
            return 0
        if producer is not None:
            return producer.value
        return self.regfile.get(reg, 0)

    def _l1_mshr_free(self, iu: InflightUop) -> bool:
        # Loads to a line already pending coalesce and never need an entry.
        uop = iu.uop
        reg = uop.src1
        if reg is None:
            vaddr = uop.imm & MASK64
        else:
            p1 = iu.p1
            base = p1.value if p1 is not None else self.regfile.get(reg, 0)
            vaddr = (base + uop.imm) & MASK64
        paddr = self.page_table.translate(vaddr)
        line = line_addr(paddr)
        iu.vaddr, iu.paddr = vaddr, paddr
        if self.l1.probe(line) is not None:
            return True
        l1_pending = self.l1_pending
        if line in l1_pending:
            return True
        return len(l1_pending) < self.l1_mshr_capacity

    def _unblock_fetch(self) -> None:
        self._fetch_blocked = False
        self.wake()

    def _execute_store(self, iu: InflightUop) -> None:
        base = self._source_value(iu.uop.src1, iu.p1)
        vaddr = effective_address(iu.uop, base)
        iu.vaddr = vaddr
        iu.paddr = self.page_table.translate(vaddr)
        if iu.uop.src2 is not None:
            value = self._source_value(iu.uop.src2, iu.p2)
        else:
            value = iu.uop.imm
        self.image.write(vaddr, value)
        # Write-through, write-allocate L1: install the line so spill fills
        # (and other store-then-load patterns) hit locally.
        self.l1.fill(line_addr(iu.paddr))
        self.l1.access(line_addr(iu.paddr), write=True)
        self.system.energy_counters.note_l1_access()
        self.system.store_writethrough(self.core_id, iu.paddr, iu.uop.pc)
        fifo, complete_next = self._completions[1]
        fifo.append((iu, value))
        self.wheel.schedule(1, complete_next)

    def _execute_load(self, iu: InflightUop) -> None:
        if iu.vaddr is None:
            base = self._source_value(iu.uop.src1, iu.p1)
            iu.vaddr = effective_address(iu.uop, base)
            iu.paddr = self.page_table.translate(iu.vaddr)
        line = line_addr(iu.paddr)
        frozen = self.stats_frozen
        l1_latency = self.l1_latency
        schedule = self.wheel.schedule
        if not frozen:
            self.system.energy_counters.note_l1_access()
        if self.l1.access(line) is not None:
            if not frozen:
                self.stats.l1_hits += 1
            fifo, complete_next = self._completions[l1_latency]
            fifo.append((iu, self.image.read(iu.vaddr)))
            schedule(l1_latency, complete_next)
            return
        if not frozen:
            self.stats.l1_misses += 1
        waiters = self.l1_pending.get(line)
        if waiters is not None:
            waiters.append(iu)
            return
        self.l1_pending[line] = [iu]
        req = MemRequest(core_id=self.core_id, vaddr=iu.vaddr,
                         paddr=iu.paddr, line=line, pc=iu.uop.pc,
                         uop=iu, callback=self._l1_fill,
                         t_start=self.wheel.now + l1_latency)
        schedule(l1_latency,
                 lambda: self.system.hierarchy.demand_request(req))

    def _l1_fill(self, req: MemRequest) -> None:
        # Installing the line and waking dependents costs an L1 access.
        self.tracer.instant(req, "l1.fill")
        self.wheel.schedule(self.l1_latency, lambda: self._l1_fill_done(req))

    def _l1_fill_done(self, req: MemRequest) -> None:
        line = req.line
        self.l1.fill(line)
        waiters = self.l1_pending.pop(line, [])
        for iu in waiters:
            if iu.migrated:
                continue   # value will arrive via the chain's live-outs
            if iu.llc_miss_pending:
                iu.llc_miss_pending = False
                del self._miss_sources[id(iu)]
            value = self.image.read(iu.vaddr)
            self._complete(iu, value)
        self.tracer.instant(req, "core.wakeup")
        self.wake()

    # ------------------------------------------------------------------
    # completion / wakeup
    # ------------------------------------------------------------------
    def _complete(self, iu: InflightUop, value: int) -> None:
        if iu.state is UopState.DONE:
            return
        iu.value = value
        iu.state = UopState.DONE
        iu.done_cycle = self.wheel.now
        if iu.llc_miss_pending:
            iu.llc_miss_pending = False
            del self._miss_sources[id(iu)]
        if iu.rs_held:
            iu.rs_held = False
            self.rs_occupancy -= 1
        if iu.source_of_chain is not None:
            # Belt and braces against the data-raced-ahead-of-chain case: a
            # chain parked on this source can always start once the source
            # value is architecturally available.
            self.system.notify_source_complete(iu.source_of_chain)
            iu.source_of_chain = None
        consumers = iu.consumers
        if consumers:
            waiting = UopState.WAITING
            ready_state = UopState.READY
            ready_append = self.ready.append
            for consumer in consumers:
                consumer.deps -= 1
                if (consumer.deps == 0 and consumer.state is waiting
                        and not consumer.migrated):
                    consumer.state = ready_state
                    ready_append(consumer)
        # wake(), inlined: the doze bookkeeping only when dozing.
        if self._doze_started is not None:
            self.wake()
        elif not self._tick_scheduled:
            self._tick_scheduled = True
            self.wheel.schedule(0, self._tick_event)

    # ------------------------------------------------------------------
    # dependent-miss classification (backward dataflow walk)
    # ------------------------------------------------------------------
    def find_miss_root(self, iu: InflightUop) -> Optional[Tuple[InflightUop, int]]:
        """Find an ancestor load that LLC-missed and whose data had not
        returned when ``iu`` was dispatched.  Returns (root, edge_depth),
        or None.

        The walk is depth-first, second operand first, and visits each
        ancestor once, at the depth of the first path that reaches it.
        Of the roots it reaches it returns the one with the smallest such
        depth; that is not always the minimum edge count.  For ``X.p1 =
        A -> R`` and ``X.p2 = B -> C -> R`` it returns R at depth 3, not
        2: the walk reaches R through B first and never revisits it.
        """
        best_depth = 0
        best_node: Optional[InflightUop] = None
        dispatch_cycle = iu.dispatch_cycle
        load = UopType.LOAD
        stack: List[Tuple[InflightUop, int]] = [
            (p, 1) for p in (iu.p1, iu.p2) if p is not None]
        pop = stack.pop
        push = stack.append
        visited: set = set()
        visited_add = visited.add
        while stack:
            node, depth = pop()
            if depth > MISS_WALK_LIMIT or node in visited:
                continue
            visited_add(node)
            if (node.uop.op is load and node.was_llc_miss
                    and (node.done_cycle is None
                         or node.done_cycle >= dispatch_cycle)):
                if best_node is None or depth < best_depth:
                    best_depth = depth
                    best_node = node
                continue
            depth += 1
            p = node.p1
            if p is not None:
                push((p, depth))
            p = node.p2
            if p is not None:
                push((p, depth))
        if best_node is None:
            return None
        return best_node, best_depth

    def classify_llc_outcome(self, req: MemRequest, hit: bool,
                             prefetched: bool) -> None:
        """Called by the hierarchy when the LLC outcome of a core demand
        load is known; updates dependent-miss statistics and flags."""
        iu: Optional[InflightUop] = req.uop
        if iu is None or req.is_store:
            return
        root = self.find_miss_root(iu)
        frozen = self.stats_frozen
        if hit:
            if not frozen:
                self.stats.llc_hits += 1
                if prefetched and root is not None:
                    self.stats.dependent_covered_by_prefetch += 1
            return
        if not frozen:
            self.stats.llc_misses += 1
            self.stats.source_misses_total += 1
        iu.was_llc_miss = True
        iu.llc_miss_pending = True
        miss_sources = self._miss_sources
        miss_sources[id(iu)] = iu
        # Loads coalesced on the same line share the outcome (they are just
        # as stalled, and just as eligible to root a chain); they are not
        # double-counted in the miss statistics.
        for waiter in self.l1_pending.get(req.line, ()):
            if waiter is not iu and not waiter.was_llc_miss:
                waiter.was_llc_miss = True
                waiter.llc_miss_pending = True
                miss_sources[id(waiter)] = waiter
        # Wake the core: if it dozed on a full window, the chain-generation
        # check must run now that the head is known to be an LLC miss.
        self.wake()
        # The 3-bit dependent-miss-likelihood counter (Section 4.2) trains
        # here: a miss that is itself dependent on a prior miss is the
        # evidence that chains are worth generating.
        if root is not None:
            root_iu, depth = root
            iu.is_dependent_miss = True
            req.dependent = True
            if not root_iu.had_dependent:
                root_iu.had_dependent = True
                if not frozen:
                    self.stats.source_misses_with_dependent += 1
            if not frozen:
                self.stats.dependent_misses += 1
                self.stats.dependent_chain_ops_total += max(0, depth - 1)
            self.dep_miss_counter = min(7, self.dep_miss_counter + 1)
        else:
            self.dep_miss_counter = max(0, self.dep_miss_counter - 1)

    # ------------------------------------------------------------------
    # chain generation (Section 4.2, Algorithm 1)
    # ------------------------------------------------------------------
    def _chain_sources(self) -> List[InflightUop]:
        """The loads that may root a chain: LLC miss pending, not
        migrated, not yet attempted."""
        return [iu for iu in self._miss_sources.values()
                if not iu.migrated and not iu.chain_attempted]

    def _maybe_generate_chain(self) -> None:
        """Run the chain-generation unit on a full-window stall.

        :meth:`_tick` calls this only with the EMC on, stats live, and
        dispatch blocked (ROB or RS exhausted) — the RS-full case matters
        because a dependence-heavy window parks unissued uops in the RS
        long before the ROB itself fills.
        """
        system = self.system
        if self.wheel.now < self._chain_gen_busy_until:
            return
        if self.dep_miss_counter < system.cfg.emc.dep_counter_trigger:
            return
        sources = self._chain_sources()
        if not sources:
            return      # a scan of the ROB would find no candidate
        # Pick the oldest outstanding LLC miss that still has un-issued
        # dependents: accelerating the retirement-blocking slice frees the
        # window soonest (migrating a younger miss's slice would freeze
        # retirement behind it and throttle the core's own MLP).  A source
        # whose slice turns out to contain no dependent load (e.g. only a
        # branch consumer) is skipped and the next pending miss is tried.
        # The index holds exactly the ROB loads a scan would consider, so
        # visiting it in ROB order visits the scan's candidates in turn.
        if len(sources) > 1:
            sources.sort(key=self.rob.index)
        chain = None
        attempts = 0
        for iu in sources:
            if attempts >= 8:
                break
            if (iu.uop.op is not UopType.LOAD or not iu.llc_miss_pending
                    or iu.migrated or iu.chain_attempted):
                continue
            if not any(c.state is UopState.WAITING and not c.migrated
                       for c in iu.consumers):
                continue
            if not system.emc_context_available(iu.paddr):
                # Leave the source eligible: a later stall evaluation
                # retries once a context frees up.
                system.stats.emc.note_rejected_no_context()
                return
            attempts += 1
            iu.chain_attempted = True
            chain = self._build_chain(iu)
            if chain is not None:
                break
        if chain is None:
            return
        # Optional chain cache: a repeat source PC skips the multi-cycle
        # dataflow walk (the shape was learned last time).
        cache_size = system.cfg.emc.chain_cache_entries
        cached = False
        if cache_size:
            pc = chain.source_ref.uop.pc
            cached = pc in self._chain_cache
            self._chain_cache[pc] = True
            self._chain_cache.move_to_end(pc)
            while len(self._chain_cache) > cache_size:
                self._chain_cache.popitem(last=False)
        gen_cycles = 1 if cached else len(chain) + 1
        self._chain_gen_busy_until = self.wheel.now + gen_cycles
        system.stats.emc.note_chain_generated(
            uops=len(chain), live_ins=chain.live_in_count,
            live_outs=chain.live_out_count, gen_cycles=gen_cycles,
            from_cache=cached)
        self.wheel.schedule(gen_cycles, lambda: system.send_chain(chain))
        self._schedule_tick(1)

    #: how far past the chain cap the forward walk explores before the
    #: backward slice filter trims it down to address-generating uops.
    #: Kept small: long chains put deep dependent loads on the chain's
    #: completion path, delaying the live-out return that unblocks the core.
    _WALK_OVERSHOOT = 2

    def _build_chain(self, source: InflightUop) -> Optional[DependenceChain]:
        """Algorithm 1 plus the paper's slice filter.

        Phase 1 — forward pseudo-wake-up walk: starting from the source
        miss, a ROB entry is *woken* when it is EMC-executable, every source
        is ready or chain-produced, and at least one source is
        chain-produced.

        Phase 2 — backward slice: "only the operations that are required to
        generate the address for the dependent cache miss are included", so
        the candidate set is filtered to loads, spill stores they order
        after, and their transitive producers.  A dependent *mispredicted*
        branch truncates the walk — everything past it is wrong-path from
        the EMC's point of view and the EMC will cancel there (§4.3).
        """
        # Chain-generation energy events accumulate in a flat CounterBank
        # (list-index adds on the walk's hot path) and drain into the
        # energy counters on every exit from the real walk below.
        counts = self._chain_energy.counts
        CDB, RRT_R, RRT_W, ROB_R = 0, 1, 2, 3
        try:
            return self._build_chain_inner(source, counts,
                                           CDB, RRT_R, RRT_W, ROB_R)
        finally:
            self.system.energy_counters.absorb(self._chain_energy)

    def _build_chain_inner(self, source: InflightUop, counts: List[int],
                           CDB: int, RRT_R: int, RRT_W: int, ROB_R: int
                           ) -> Optional[DependenceChain]:
        # Sequence numbers are read as ``iu.uop.seq``, not through the
        # ``InflightUop.seq`` property: the walk reads one per visited
        # entry and operand.
        emc_cfg = self.system.cfg.emc
        source_seq = source.uop.seq
        woken = {source_seq}            # seqs whose dest is chain-produced
        value_depth = {source_seq: 0}   # load-indirection depth per value
        candidates: List[InflightUop] = []
        max_walk = emc_cfg.max_chain_uops * self._WALK_OVERSHOOT
        counts[CDB] += 1                # pseudo wake-up of the source miss

        rob = list(self.rob)
        try:
            start = rob.index(source) + 1
        except ValueError:
            return None
        mispredict_truncated = False

        def slot(producer: Optional[InflightUop]) -> str:
            if producer is None or producer.state is UopState.DONE:
                return "ready"
            if producer.uop.seq in woken:
                return "woken"
            return "blocked"

        for iu in rob[start:]:
            if len(candidates) >= max_walk:
                break
            if iu.state is not UopState.WAITING or iu.migrated:
                continue
            uop = iu.uop
            s1 = slot(iu.p1) if uop.src1 is not None else "absent"
            s2 = slot(iu.p2) if uop.src2 is not None else "absent"
            if "blocked" in (s1, s2):
                continue
            woken_via_mem = (iu.mem_dep_p is not None
                             and iu.mem_dep_p.uop.seq in woken)
            if "woken" not in (s1, s2) and not woken_via_mem:
                continue                # independent of the chain
            if uop.op is UopType.BRANCH:
                if uop.mispredicted:
                    # The EMC would run onto the wrong path here; stop.
                    mispredict_truncated = True
                    break
                continue                # correct directions ship as metadata
            if not uop.emc_allowed:
                continue
            if uop.op is UopType.STORE and not uop.is_spill_fill:
                continue
            if iu.mem_dep_p is not None:
                dep = iu.mem_dep_p
                if dep.state is not UopState.DONE and dep.uop.seq not in woken:
                    continue
            depth = max((value_depth.get(p.uop.seq, 0) for p in iu.producers()
                         if p.uop.seq in woken), default=0)
            if uop.op is UopType.LOAD:
                fill_forwarded = (uop.is_spill_fill and iu.mem_dep_p is not None
                                  and iu.mem_dep_p.uop.seq in woken)
                if not fill_forwarded:
                    # A spill fill forwards from the EMC LSQ — it is not a
                    # level of memory indirection.
                    depth += 1
                if depth > emc_cfg.max_load_depth:
                    continue            # too deep: it would gate live-outs
            counts[CDB] += 1
            woken.add(iu.uop.seq)           # stores wake fills via mem_dep
            if uop.dest is not None:
                value_depth[iu.uop.seq] = depth
            candidates.append(iu)

        # Phase 2: backward slice from the memory uops.
        in_chain: Dict[int, InflightUop] = {c.uop.seq: c for c in candidates}
        keep: Dict[int, bool] = {}
        for iu in reversed(candidates):
            needed = keep.get(iu.uop.seq, False) or iu.uop.is_mem
            keep[iu.uop.seq] = needed
            if not needed:
                continue
            for producer in iu.producers():
                if producer.uop.seq in in_chain:
                    keep[producer.uop.seq] = True
            if iu.mem_dep_p is not None and iu.mem_dep_p.uop.seq in in_chain:
                keep[iu.mem_dep_p.uop.seq] = True
        kept = [c for c in candidates if keep.get(c.uop.seq, False)]
        # Drop spill stores whose fill load did not survive the filter.
        fills_present = {c.uop.mem_dep for c in kept
                         if c.uop.mem_dep is not None}
        kept = [c for c in kept
                if not (c.uop.op is UopType.STORE
                        and c.uop.seq not in fills_present)]
        kept = kept[: emc_cfg.max_chain_uops]
        if not any(c.uop.op is UopType.LOAD for c in kept):
            self.system.stats.emc.note_chain_no_load()
            return None

        # Assign EMC physical registers and build the shippable chain.
        rrt: Dict[int, int] = {source_seq: 0}
        seq_to_index: Dict[int, int] = {source_seq: -1}
        next_epr = 1
        chain_uops: List[ChainUop] = []
        live_ins = 0
        counts[RRT_W] += 1
        for iu in kept:
            if next_epr >= emc_cfg.prf_entries:
                break
            uop = iu.uop
            cu = ChainUop(uop=uop, dest_epr=None, index=len(chain_uops),
                          core_ref=iu)
            counts[ROB_R] += 1
            skip = False
            for slot_no, (reg, producer) in enumerate(
                    ((uop.src1, iu.p1), (uop.src2, iu.p2)), start=1):
                if reg is None:
                    continue
                counts[RRT_R] += 1
                if producer is not None and producer.uop.seq in rrt:
                    if producer.uop.seq not in seq_to_index:
                        skip = True     # producer fell off the EPR cap
                        break
                    index = seq_to_index[producer.uop.seq]
                    if slot_no == 1:
                        cu.src1_epr = rrt[producer.uop.seq]
                        cu.src1_index = index
                    else:
                        cu.src2_epr = rrt[producer.uop.seq]
                        cu.src2_index = index
                    cu.dep_indices.append(index)
                elif producer is not None and producer.state is not UopState.DONE:
                    skip = True         # producer was filtered out
                    break
                else:
                    value = self._source_value(reg, producer)
                    if slot_no == 1:
                        cu.src1_value = value
                    else:
                        cu.src2_value = value
                    live_ins += 1
            if skip:
                continue
            if iu.mem_dep_p is not None:
                if iu.mem_dep_p.uop.seq in seq_to_index:
                    cu.dep_indices.append(seq_to_index[iu.mem_dep_p.uop.seq])
                elif iu.mem_dep_p.state is not UopState.DONE:
                    continue    # ordering store missing from the chain
            if uop.dest is not None:
                cu.dest_epr = next_epr
                rrt[iu.uop.seq] = next_epr
                next_epr += 1
                counts[RRT_W] += 1
            seq_to_index[iu.uop.seq] = cu.index
            chain_uops.append(cu)

        if not any(cu.uop.op is UopType.LOAD for cu in chain_uops):
            self.system.stats.emc.note_chain_no_load()
            return None
        chain = DependenceChain(
            core_id=self.core_id,
            source_seq=source_seq,
            source_line=line_addr(source.paddr),
            source_vaddr=source.vaddr,
            source_dest_epr=0,
            uops=chain_uops,
            live_in_count=live_ins,
            source_ref=source,
            generated_at=self.wheel.now,
            mispredict_truncated=mispredict_truncated,
        )
        for cu in chain_uops:
            iu = cu.core_ref
            iu.migrated = True
            iu.chain = chain
            if iu.rs_held:
                # "These uops are read out of the instruction window and
                # sent to the EMC" — they free their RS entries like any
                # issued uop would.
                iu.rs_held = False
                self.rs_occupancy -= 1
        source.source_of_chain = chain
        return chain

    # ------------------------------------------------------------------
    # chain reconciliation (live-outs / cancellation)
    # ------------------------------------------------------------------
    def apply_chain_liveouts(self, chain: DependenceChain,
                             values: Dict[int, int]) -> None:
        """Live-outs arrived: complete every migrated uop with its
        EMC-computed value (physical-register tag broadcast, Section 4.3)."""
        for cu in chain.uops:
            iu: InflightUop = cu.core_ref
            iu.migrated = False
            if iu.state in (UopState.WAITING, UopState.READY):
                self._complete(iu, values.get(cu.index, 0))
        self.wake()

    def cancel_chain(self, chain: DependenceChain) -> None:
        """The EMC halted (mispredicted branch, TLB miss, disambiguation):
        un-migrate every uop so the core re-executes the chain normally."""
        for cu in chain.uops:
            iu: InflightUop = cu.core_ref
            if not iu.migrated:
                continue
            iu.migrated = False
            if iu.state is UopState.WAITING:
                # Back into the window; RS occupancy may transiently exceed
                # capacity (hardware would drain re-insertions gradually).
                if not iu.rs_held:
                    iu.rs_held = True
                    self.rs_occupancy += 1
                if iu.deps == 0:
                    iu.state = UopState.READY
                    self.ready.append(iu)
        self.wake()


#: The C kernel (the ``TickEvent`` and ``Completion`` callables), or None
#: to run the pure-Python :meth:`OutOfOrderCore._tick` and
#: :meth:`OutOfOrderCore._complete` (tests set this to None to pick them;
#: a core picks its tick and completion callables when it is built).
_kernel = kernel.load(InflightUop, MicroOp, UopState, UopType)


def tick_implementation() -> str:
    """Which core tick runs: ``"C <source hash>"`` or ``"python"``."""
    return "python" if _kernel is None else f"C {kernel.source_hash()}"
