"""The Enhanced Memory Controller's compute engine (Section 4.1/4.3).

Two (quad-core) issue contexts share a 2-wide back-end, an 8-entry
reservation station, a 4 KB data cache, per-core TLBs, and an LLC hit/miss
predictor.  A context parks a chain until its source miss's data arrives
from DRAM at this controller, then executes the chain out of order, issuing
dependent memory requests either to the LLC or — when predicted to miss —
straight to DRAM.  Live-outs return to the core at chain completion; any
exceptional event (mispredicted branch, TLB miss) cancels the chain and the
core re-executes it locally.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional

from ..memsys.cache import SetAssocCache, line_addr
from ..sim.component import (CarryoverReport, SimComponent,
                             SnapshotError, require_empty)
from ..trace import Stage
from ..uarch.isa import effective_address, execute_alu
from ..uarch.params import EMCConfig
from ..uarch.uop import UopType
from .chain import ChainUop, DependenceChain
from .miss_predictor import build_predictor
from .tlb import EMCTlbFile


class ContextState(enum.Enum):
    IDLE = "idle"
    PARKED = "parked"      # chain loaded, waiting on source-miss data
    RUNNING = "running"
    CANCELLED = "cancelled"


class EMCContext:
    """One issue context: uop buffer + PRF + live-in vector + LSQ."""

    def __init__(self, context_id: int) -> None:
        self.context_id = context_id
        self.state = ContextState.IDLE
        self.chain: Optional[DependenceChain] = None
        self.values: Dict[int, int] = {}
        self.waiters: Dict[int, List[ChainUop]] = {}
        self.deps_remaining: Dict[int, int] = {}
        self.ready: Deque[ChainUop] = deque()
        self.remaining = 0
        self.store_lines: set = set()
        # LSQ store-to-load forwarding: executed store values by uop seq.
        self.store_values: Dict[int, int] = {}

    def load_chain(self, chain: DependenceChain) -> None:
        self.chain = chain
        self.state = ContextState.PARKED
        self.remaining = len(chain.uops)

    def release(self) -> None:
        """Return to the construction state, so an idle context holds
        nothing of the chain it last ran."""
        self.state = ContextState.IDLE
        self.chain = None
        self.values = {}
        self.waiters = {}
        self.deps_remaining = {}
        self.ready = deque()
        self.remaining = 0
        self.store_lines = set()
        self.store_values = {}


class EMC(SimComponent):
    """The compute side of one enhanced memory controller."""

    def __init__(self, mc_id: int, system, cfg: EMCConfig,
                 num_cores: int) -> None:
        self.mc_id = mc_id
        self.system = system
        self.cfg = cfg
        self.wheel = system.wheel
        self.trace = system.tracer
        self.stats = system.stats.emc
        self.contexts = [EMCContext(i) for i in range(cfg.num_contexts)]
        self.dcache = SetAssocCache(cfg.data_cache_bytes, cfg.data_cache_ways)
        self.tlbs = EMCTlbFile(num_cores, cfg.tlb_entries_per_core)
        self.miss_predictor = build_predictor(cfg.predictor)
        self._inflight = 0          # reservation-station occupancy
        self._tick_scheduled = False
        self._rr = 0                # round-robin pointer over contexts
        # Outstanding line fetches: same-line EMC loads merge here instead
        # of issuing duplicate DRAM requests (the LSQ's coalescing role).
        self._pending_lines: Dict[int, List[tuple]] = {}
        # Accepted chains waiting for their source data (no context held).
        self._pending_chains: List[DependenceChain] = []

    # ------------------------------------------------------------------
    # SimComponent protocol
    # ------------------------------------------------------------------
    # Architectural (kept warm across the warmup/measure boundary): the
    # data cache, per-core TLBs, miss-predictor counters, and the
    # round-robin pointer.  In-flight state (running contexts, pending
    # chains, pending line fetches) holds chain/callback references and
    # requires a quiesced machine.  EMCStats is owned by SimStats.
    def reset_stats(self) -> None:
        self.dcache.reset_stats()
        self.tlbs.reset_stats()
        self.miss_predictor.reset_stats()

    def config_state(self) -> dict:
        return {"mc_id": self.mc_id,
                "num_contexts": len(self.contexts)}

    def snapshot(self) -> dict:
        require_empty(self, pending_lines=self._pending_lines,
                      pending_chains=self._pending_chains)
        busy = [c.context_id for c in self.contexts
                if c.state is not ContextState.IDLE]
        if busy or self._inflight:
            raise SnapshotError(
                f"EMC {self.mc_id}: cannot snapshot with busy contexts "
                f"{busy} / {self._inflight} in-flight uops "
                f"(quiesce the machine first)")
        state = self._header()
        state["dcache"] = self.dcache.snapshot()
        state["tlbs"] = self.tlbs.snapshot()
        state["miss_predictor"] = self.miss_predictor.snapshot()
        state["rr"] = self._rr
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        state = self._check(state, match_config=False)
        self._clear_inflight()
        self.dcache.reseat(state["dcache"], report, f"{path}/dcache")
        self.tlbs.reseat(state["tlbs"], report, f"{path}/tlb")
        self.miss_predictor.reseat(state["miss_predictor"], report,
                                   f"{path}/miss_predictor")
        # The round-robin pointer carries whole when the context count is
        # unchanged (an identity fork must snapshot bit-identically to
        # its parent) and survives modulo the live count otherwise.
        if state["config"]["num_contexts"] == len(self.contexts):
            self._rr = state["rr"]
        else:
            self._rr = state["rr"] % len(self.contexts)

    def _clear_inflight(self) -> None:
        for ctx in self.contexts:
            ctx.release()
        self._inflight = 0
        self._tick_scheduled = False
        self._pending_lines.clear()
        self._pending_chains.clear()

    # ------------------------------------------------------------------
    # context management
    # ------------------------------------------------------------------
    def context_available(self) -> bool:
        """Can the EMC take another chain right now?  True while either a
        pending-buffer slot or an idle execution context exists."""
        if len(self._pending_chains) < self.cfg.pending_chain_entries:
            return True
        return any(c.state is ContextState.IDLE for c in self.contexts)

    def accept_chain(self, chain: DependenceChain) -> bool:
        """Take a chain: run it if its source data already arrived, park it
        in an execution context otherwise (or in the optional pending
        buffer when configured).  Returns False when everything is full."""
        self.trace.track(Stage.CHAIN_ARRIVE, self.mc_id, chain.core_id)
        source = chain.source_ref
        ready = source is not None and not source.llc_miss_pending
        ctx = next((c for c in self.contexts
                    if c.state is ContextState.IDLE), None)
        if ready and ctx is not None:
            ctx.load_chain(chain)
            self._start(ctx)
            return True
        if len(self._pending_chains) < self.cfg.pending_chain_entries:
            chain._source_ready = ready
            self._pending_chains.append(chain)
            return True
        if ctx is not None:
            ctx.load_chain(chain)       # parks until the source arrives
            if ready:
                self._start(ctx)
            return True
        return False

    def _dispatch_pending(self) -> None:
        """Move source-ready pending chains into idle execution contexts."""
        for chain in list(self._pending_chains):
            if not getattr(chain, "_source_ready", False):
                continue
            ctx = next((c for c in self.contexts
                        if c.state is ContextState.IDLE), None)
            if ctx is None:
                return
            self._pending_chains.remove(chain)
            ctx.load_chain(chain)
            self._start(ctx)

    def on_dram_line(self, line: int) -> None:
        """DRAM read data arrived at this controller: cache the line and
        start whatever was waiting on it (parked contexts, pending chains)."""
        self.dcache.fill(line)
        self.system.mark_llc_emc_bit(line)
        for ctx in self.contexts:
            if (ctx.state is ContextState.PARKED
                    and ctx.chain.source_line == line):
                self._start(ctx)
        hit = False
        for chain in self._pending_chains:
            if chain.source_line == line:
                chain._source_ready = True
                hit = True
        if hit:
            self._dispatch_pending()

    def start_if_parked(self, chain: DependenceChain) -> None:
        """The chain's source value became available by a path that did not
        pass through this controller's DRAM-return hook."""
        if chain in self._pending_chains:
            chain._source_ready = True
            self._dispatch_pending()
            return
        for ctx in self.contexts:
            if ctx.state is ContextState.PARKED and ctx.chain is chain:
                self._start(ctx)

    def invalidate_line(self, line: int) -> None:
        """Coherence back-invalidation from the inclusive LLC."""
        self.dcache.invalidate(line)

    # ------------------------------------------------------------------
    # chain start / scheduling
    # ------------------------------------------------------------------
    def _start(self, ctx: EMCContext) -> None:
        chain = ctx.chain
        self.trace.track(Stage.CHAIN_DISPATCH, self.mc_id, chain.core_id)
        ctx.state = ContextState.RUNNING
        image = self.system.images[chain.core_id]
        ctx.values[-1] = image.read(chain.source_vaddr)
        for cu in chain.uops:
            missing = 0
            for dep in cu.dep_indices:
                if dep in ctx.values:
                    continue
                missing += 1
                ctx.waiters.setdefault(dep, []).append(cu)
            ctx.deps_remaining[cu.index] = missing
            if missing == 0:
                ctx.ready.append(cu)
        self.stats.chains_executed += 1
        self._schedule_tick()

    def _schedule_tick(self, delay: int = 0) -> None:
        if self._tick_scheduled:
            return
        self._tick_scheduled = True
        self.wheel.schedule(delay, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        issued = 0
        ncontexts = len(self.contexts)
        scanned = 0
        while issued < self.cfg.issue_width and scanned < ncontexts:
            ctx = self.contexts[self._rr % ncontexts]
            self._rr += 1
            scanned += 1
            if ctx.state is not ContextState.RUNNING or not ctx.ready:
                continue
            if self._inflight >= self.cfg.rs_entries:
                break
            cu = ctx.ready.popleft()
            self._inflight += 1
            self._execute(ctx, cu)
            issued += 1
            scanned = 0
        if any(c.state is ContextState.RUNNING and c.ready
               for c in self.contexts):
            self._schedule_tick(1)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _operand(self, ctx: EMCContext, cu: ChainUop, slot: int) -> int:
        index = cu.src1_index if slot == 1 else cu.src2_index
        value = cu.src1_value if slot == 1 else cu.src2_value
        if index is not None:
            return ctx.values[index]
        if value is not None:
            return value
        return 0

    def _execute(self, ctx: EMCContext, cu: ChainUop) -> None:
        uop = cu.uop
        self.stats.uops_executed += 1
        if uop.op is UopType.LOAD:
            self._execute_load(ctx, cu)
            return
        if uop.op is UopType.STORE:
            self._execute_store(ctx, cu)
            return
        a = self._operand(ctx, cu, 1)
        b = self._operand(ctx, cu, 2)
        if uop.op is UopType.BRANCH and uop.mispredicted:
            self.wheel.schedule(1, lambda: self._cancel(ctx, "branch"))
            return
        value = execute_alu(uop, a, b)
        self.wheel.schedule(1, lambda: self._complete(ctx, cu, value))

    def _execute_store(self, ctx: EMCContext, cu: ChainUop) -> None:
        base = self._operand(ctx, cu, 1)
        vaddr = effective_address(cu.uop, base)
        if cu.uop.src2 is not None:
            value = self._operand(ctx, cu, 2)
        else:
            value = cu.uop.imm
        image = self.system.images[ctx.chain.core_id]
        image.write(vaddr, value)
        self.stats.stores_executed += 1
        ctx.store_lines.add(vaddr & ~0x3F)
        ctx.store_values[cu.uop.seq] = value
        # Address-ring message so the home core populates its LSQ entry.
        self.system.notify_core_lsq(self.mc_id, ctx.chain.core_id)
        self.wheel.schedule(1, lambda: self._complete(ctx, cu, value))

    def _execute_load(self, ctx: EMCContext, cu: ChainUop) -> None:
        chain = ctx.chain
        mem_dep = cu.uop.mem_dep
        if mem_dep is not None and mem_dep in ctx.store_values:
            # LSQ store-to-load forwarding: a spill/fill pair inside the
            # chain never leaves the EMC (the reason stores are supported
            # at all, §4.1.2).
            value = ctx.store_values[mem_dep]
            self.stats.loads_executed += 1
            self.wheel.schedule(1, lambda: self._complete(ctx, cu, value))
            return
        base = self._operand(ctx, cu, 1)
        vaddr = effective_address(cu.uop, base)
        tlb = self.tlbs.for_core(chain.core_id)
        paddr = tlb.translate(vaddr)
        if paddr is None:
            self.stats.tlb_misses += 1
            if self.cfg.tlb_miss_policy == "cancel":
                self.wheel.schedule(1, lambda: self._cancel(ctx, "tlb"))
                return
            # "fetch" extension: request the PTE from the home core and
            # retry the load once it arrives.
            self.system.fetch_pte(self.mc_id, chain.core_id, vaddr,
                                  lambda: self._retry_load(ctx, cu))
            return
        self.stats.tlb_hits += 1
        self._load_translated(ctx, cu, vaddr, paddr)

    def _retry_load(self, ctx: EMCContext, cu: ChainUop) -> None:
        if ctx.state is not ContextState.RUNNING:
            return
        self._execute_load(ctx, cu)

    def _load_translated(self, ctx: EMCContext, cu: ChainUop,
                         vaddr: int, paddr: int) -> None:
        chain = ctx.chain
        line = line_addr(paddr)
        self.stats.loads_executed += 1
        if self.dcache.access(line) is not None:
            self.stats.dcache_hits += 1
            image = self.system.images[chain.core_id]
            value = image.read(vaddr)
            delay = self.cfg.data_cache_latency
            self.wheel.schedule(delay, lambda: self._complete(ctx, cu, value))
            self.system.notify_core_lsq(self.mc_id, chain.core_id)
            return
        self.stats.dcache_misses += 1
        waiter = (ctx, cu, chain, vaddr)
        pending = self._pending_lines.get(line)
        if pending is not None:
            # A fetch for this line is already in flight: merge in the LSQ.
            pending.append(waiter)
            self.trace.track(Stage.CHAIN_LSQ_MERGE, self.mc_id,
                             chain.core_id)
            self.system.notify_core_lsq(self.mc_id, chain.core_id)
            return
        self._pending_lines[line] = [waiter]
        predicted_miss = self.miss_predictor.predict_miss(
            chain.core_id, cu.uop.pc, vaddr)

        def on_data(req) -> None:
            self.dcache.fill(line)
            self.system.mark_llc_emc_bit(line)
            for wctx, wcu, wchain, wvaddr in self._pending_lines.pop(line, []):
                if (wctx.state is not ContextState.RUNNING
                        or wctx.chain is not wchain):
                    # Chain was cancelled while the request was in flight;
                    # free the reservation-station slot the load still held.
                    self._inflight = max(0, self._inflight - 1)
                    continue
                image = self.system.images[wchain.core_id]
                self._complete(wctx, wcu, image.read(wvaddr))

        self.system.hierarchy.emc_fetch(
            mc_id=self.mc_id, core_id=chain.core_id, pc=cu.uop.pc,
            vaddr=vaddr, paddr=paddr, predicted_miss=predicted_miss,
            callback=on_data)
        self.system.notify_core_lsq(self.mc_id, chain.core_id)

    # ------------------------------------------------------------------
    # completion / cancellation
    # ------------------------------------------------------------------
    def _complete(self, ctx: EMCContext, cu: ChainUop, value: int) -> None:
        self._inflight = max(0, self._inflight - 1)
        if ctx.state is not ContextState.RUNNING:
            return
        ctx.values[cu.index] = value
        for waiter in ctx.waiters.pop(cu.index, []):
            ctx.deps_remaining[waiter.index] -= 1
            if ctx.deps_remaining[waiter.index] == 0:
                ctx.ready.append(waiter)
        ctx.remaining -= 1
        if ctx.remaining == 0:
            chain, values = ctx.chain, dict(ctx.values)
            if chain.mispredict_truncated:
                # The chain ends at a branch the core mispredicted: the EMC
                # detects it here and hands the whole chain back (§4.3).
                self._cancel(ctx, "branch", holds_slot=False)
                return
            ctx.release()
            self.trace.track(Stage.CHAIN_COMPLETE, self.mc_id,
                             chain.core_id)
            self.system.return_liveouts(self.mc_id, chain, values)
            self._dispatch_pending()
        else:
            self._schedule_tick()

    def _cancel(self, ctx: EMCContext, reason: str,
                holds_slot: bool = True) -> None:
        if holds_slot:
            self._inflight = max(0, self._inflight - 1)
        if ctx.state is not ContextState.RUNNING:
            return
        if reason == "branch":
            self.stats.chains_cancelled_branch += 1
        elif reason == "tlb":
            self.stats.chains_cancelled_tlb += 1
        else:
            self.stats.chains_cancelled_disambiguation += 1
        chain = ctx.chain
        self.trace.track(Stage.CHAIN_CANCEL, self.mc_id, chain.core_id)
        ctx.state = ContextState.CANCELLED
        ctx.release()
        self.system.chain_cancelled(self.mc_id, chain)
        self._dispatch_pending()

    def cancel_for_disambiguation(self, core_id: int, line: int) -> None:
        """A home-core store conflicts with a chain-executed access."""
        for ctx in self.contexts:
            if (ctx.state is ContextState.RUNNING
                    and ctx.chain.core_id == core_id
                    and line in ctx.store_lines):
                self._cancel(ctx, "disambiguation", holds_slot=False)
