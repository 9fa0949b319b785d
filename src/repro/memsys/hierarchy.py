"""The on-chip memory hierarchy glue: L1-miss → ring → LLC slice → ring →
memory controller → DRAM → fill path, plus the EMC's shortened request
paths, the write-through store stream, and prefetch injection.

Every latency the paper's figures decompose (Figure 1's on-chip delay,
Figure 18's EMC-vs-core miss latency, Figure 19's savings attribution) is
measured here from actual event timestamps: each transition stamps the
request through the system tracer (:mod:`repro.trace`), which is a no-op
unless a run opts in to tracing.
"""

from __future__ import annotations

from typing import Callable, List

from ..interconnect import Interconnect
from ..prefetch import build_prefetcher
from ..prefetch.base import FDPThrottle, NullPrefetcher
from ..sim.component import CarryoverReport, SimComponent, rebase_clock
from ..trace import Stage
from .cache import line_addr
from .dram import DRAMRequest, DRAMSystem, open_row_addrs
from .llc import LLC
from .request import MemRequest

#: retry interval when an MSHR or a memory queue is full
RETRY_CYCLES = 12


class MemoryHierarchy(SimComponent):
    """Everything below the cores' L1s for one simulated system."""

    def __init__(self, system) -> None:
        self.system = system
        cfg = system.cfg
        self.cfg = cfg
        self.wheel = system.wheel
        self.ring: Interconnect = system.ring
        self.stats = system.stats
        self.trace = system.tracer
        self.llc = LLC(cfg.num_cores, cfg.llc)
        self.llc.emc_invalidate_hook = self._emc_invalidate

        # One DRAMSystem per memory controller, splitting the channels.
        self.total_channels = cfg.dram.channels
        self.dram: List[DRAMSystem] = []
        per_mc = cfg.dram.channels // cfg.num_mcs
        for mc in range(cfg.num_mcs):
            ids = list(range(mc * per_mc, (mc + 1) * per_mc))
            self.dram.append(DRAMSystem(cfg.dram, self.wheel, ids))

        self.prefetcher = build_prefetcher(cfg.prefetch)
        if cfg.prefetch.fdp_enabled:
            self.fdp = FDPThrottle(cfg.prefetch.fdp_min_degree,
                                   cfg.prefetch.fdp_max_degree)
        else:
            self.fdp = None

        # Per-slice tag/data pipeline occupancy (single-ported slices).
        self._slice_free = [0] * cfg.num_cores

    def _slice_wait(self, line: int) -> int:
        """Reserve the slice pipeline for one access; returns the queueing
        delay before the access may start."""
        index = self.llc.slice_stop(line)
        now = self.wheel.now
        start = max(now, self._slice_free[index])
        self._slice_free[index] = start + self.cfg.llc.cycles_per_access
        return start - now

    # ------------------------------------------------------------------
    # SimComponent protocol
    # ------------------------------------------------------------------
    # Architectural: LLC contents, DRAM bank state, prefetcher tables,
    # FDP degree, per-slice port clocks.  The shared SimStats tree is
    # owned (reset) by the System, not here.
    def reset_stats(self) -> None:
        self.llc.reset_stats()
        for dram in self.dram:
            dram.reset_stats()
        self.prefetcher.reset_stats()
        if self.fdp is not None:
            self.fdp.reset_stats()

    def config_state(self) -> dict:
        return {"num_mcs": self.cfg.num_mcs,
                "total_channels": self.total_channels,
                "has_fdp": self.fdp is not None}

    def snapshot(self) -> dict:
        state = self._header()
        state["llc"] = self.llc.snapshot()
        state["dram"] = [dram.snapshot() for dram in self.dram]
        state["prefetcher"] = self.prefetcher.snapshot()
        state["fdp"] = (self.fdp.snapshot()
                        if self.fdp is not None else None)
        state["slice_free"] = list(self._slice_free)
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Adopt a snapshot into a possibly re-configured hierarchy."""
        state = self._check(state, match_config=False)
        self.llc.reseat(state["llc"], report, f"{path}/llc")
        self._reseat_dram(state, report, f"{path}/dram")
        self.prefetcher.reseat(state["prefetcher"], report,
                               f"{path}/prefetcher")
        if self.fdp is not None and state["fdp"] is not None:
            self.fdp.reseat(state["fdp"], report, f"{path}/fdp")
        elif self.fdp is not None or state["fdp"] is not None:
            # FDP toggled across the fork: nothing to translate — a new
            # throttle starts at its default degree, a dropped one loses
            # its adapted degree.
            report.record(f"{path}/fdp", 0, 1)
        saved_free = state["slice_free"]
        if len(saved_free) == len(self._slice_free):
            self._slice_free[:] = saved_free
        else:
            # The slice count changed: saved port clocks name slices
            # whose lines moved, so every port simply starts free.
            self._slice_free[:] = [0] * len(self._slice_free)

    def _reseat_dram(self, state: dict, report: CarryoverReport,
                     path: str) -> None:
        same = (len(state["dram"]) == len(self.dram)
                and all(saved["config"] == dram.config_state()
                        for saved, dram in zip(state["dram"], self.dram)))
        if same:
            for dram, saved in zip(self.dram, state["dram"]):
                dram.reseat(saved, report, path)
            return
        # Channel-map change (channel count, bank count, row size, or MC
        # split): every channel starts cold and the open rows re-seed
        # across the new geometry via their representative line
        # addresses.  Rows landing in one bank replace each other, so
        # what carried is the banks left open.
        addrs = []
        for saved in state["dram"]:
            addrs.extend(open_row_addrs(saved))
        for dram in self.dram:
            dram.start_cold()
        for addr in addrs:
            self.dram[self.mc_of_line(addr)].seed_open_row(addr)
        report.record(path, sum(dram.open_banks() for dram in self.dram),
                      len(addrs))

    def rebase(self, origin: int) -> None:
        """Rebase slice-port and DRAM clocks when the wheel rewinds."""
        self._slice_free[:] = [rebase_clock(t, origin)
                               for t in self._slice_free]
        for dram in self.dram:
            dram.rebase(origin)

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def mc_of_line(self, line: int) -> int:
        """Which memory controller owns the channel of ``line``."""
        channel = DRAMSystem.channel_of(line, self.total_channels)
        per_mc = self.total_channels // self.cfg.num_mcs
        return channel // per_mc

    def mc_stop(self, mc_id: int) -> int:
        return self.cfg.num_cores + mc_id

    # ------------------------------------------------------------------
    # core demand path
    # ------------------------------------------------------------------
    def demand_request(self, req: MemRequest) -> None:
        """Entry point for a core's L1 miss."""
        req.t_start = self.wheel.now
        self.trace.begin(req, Stage.RING_REQ)
        # Loads reach this point exactly one L1 latency after the miss was
        # detected at the core.
        self.trace.instant_at(req, Stage.L1_MISS,
                              req.t_start - self.cfg.l1.latency)
        slice_stop = self.llc.slice_stop(req.line)
        self.ring.send(req.core_id, slice_stop, "ctrl",
                       lambda: self._at_slice(req))

    def _at_slice(self, req: MemRequest) -> None:
        req.t_at_slice = self.wheel.now
        self.trace.mark(req, Stage.LLC_LOOKUP)
        self.wheel.schedule(self._slice_wait(req.line) + self.cfg.llc.latency,
                            lambda: self._llc_probe(req))

    def _llc_probe(self, req: MemRequest) -> None:
        prior = self.llc.probe(req.line)
        was_useful = prior.prefetch_useful if prior is not None else True
        state = self.llc.access(req.line)
        hit = state is not None
        prefetched = hit and state.prefetched

        core = self.system.cores[req.core_id]
        core.classify_llc_outcome(req, hit, prefetched)
        emc = self.system.emc_for(req.line)
        if emc is not None:
            emc.miss_predictor.update(req.core_id, req.pc, not hit,
                                      vaddr=req.vaddr)
        if hit and prefetched and not was_useful:
            self._record_prefetch_useful()
        self._train_prefetcher(req.line, req.pc, req.core_id, hit)

        if not hit and self.cfg.oracle_dependent_hits and req.dependent:
            # Figure 2's oracle: charge LLC-hit latency for dependent misses.
            self.llc.fill(req.line)
            hit = True
        if hit:
            slice_stop = self.llc.slice_stop(req.line)
            self.trace.mark(req, Stage.RING_DATA)
            self.ring.send(slice_stop, req.core_id, "data",
                           lambda: self._delivered(req, from_dram=False))
            return
        self.trace.mark(req, Stage.MSHR_ALLOC)
        self._allocate_llc_miss(req)

    def _allocate_llc_miss(self, req: MemRequest) -> None:
        sl = self.llc.slice_of(req.line)
        prior = sl.mshr.lookup(req.line)
        if prior is not None and not prior.demand:
            # Late prefetch: accurate but not timely.  FDP treats it as a
            # useful prediction and ramps degree/distance up (§5, FDP).
            self.prefetcher.note_late()
            if self.fdp is not None:
                self.fdp.record_useful()
        entry = sl.mshr.allocate(req.line, self.wheel.now,
                                 waiter=lambda _line: self._on_fill(req))
        if entry is not None:
            self._to_mc(req)
            return
        if sl.mshr.lookup(req.line) is not None:
            # Coalesced; the existing fill will notify us.  The wait until
            # that fill completes is the request's mshr.merge stage.
            self.trace.mark(req, Stage.MSHR_MERGE)
            return
        self.wheel.schedule(RETRY_CYCLES,
                            lambda: self._allocate_llc_miss(req))

    def _to_mc(self, req: MemRequest) -> None:
        mc_id = self.mc_of_line(req.line)
        slice_stop = self.llc.slice_stop(req.line)
        self.trace.mark(req, Stage.RING_MC)
        self.ring.send(slice_stop, self.mc_stop(mc_id), "ctrl",
                       lambda: self._at_mc(req, mc_id))

    def _at_mc(self, req: MemRequest, mc_id: int) -> None:
        req.t_at_mc = self.wheel.now
        self.trace.mark(req, Stage.MC_QUEUE)
        dram_req = DRAMRequest(
            line=req.line, source=req.core_id, is_write=False,
            emc_generated=False,
            callback=lambda dr: self._dram_done(req, mc_id, dr))
        if not self.dram[mc_id].enqueue(dram_req, self.total_channels):
            self.wheel.schedule(RETRY_CYCLES,
                                lambda: self._at_mc(req, mc_id))

    def _dram_done(self, req: MemRequest, mc_id: int,
                   dram_req: DRAMRequest) -> None:
        req.t_dram_start = dram_req.service_start
        req.t_dram_done = self.wheel.now
        req.row_hit = dram_req.row_hit
        # Retroactively split the time since the MC-queue mark: waiting in
        # the queue until service_start, then bank activate+CAS, then the
        # data-bus phase ending now.
        self.trace.mark_at(req, Stage.DRAM_BANK, dram_req.service_start)
        self.trace.mark_at(req, Stage.DRAM_BUS, dram_req.bank_done)
        self.trace.mark(req, Stage.RING_FILL)
        emc = self.system.emc_at(mc_id)
        if emc is not None:
            emc.on_dram_line(req.line)
        slice_stop = self.llc.slice_stop(req.line)
        self.ring.send(self.mc_stop(mc_id), slice_stop, "data",
                       lambda: self._fill_llc(req, mc_id))

    def _fill_llc(self, req: MemRequest, mc_id: int) -> None:
        # The fill path is not free: installing the line in the slice and
        # forwarding it costs an LLC access — part of what the EMC bypasses
        # by executing dependents at the controller (§6.3).
        self.trace.mark(req, Stage.LLC_FILL)
        self.wheel.schedule(self._slice_wait(req.line) + self.cfg.llc.latency,
                            lambda: self._fill_llc_done(req, mc_id))

    def _fill_llc_done(self, req: MemRequest, mc_id: int) -> None:
        emc = self.system.emc_at(mc_id)
        emc_bit = emc is not None and emc.dcache.probe(req.line) is not None
        dirty_victim = self.llc.fill(req.line, emc_bit=emc_bit)
        if dirty_victim is not None:
            self._writeback(dirty_victim)
        sl = self.llc.slice_of(req.line)
        for waiter in sl.mshr.complete(req.line, self.wheel.now):
            waiter(req.line)

    def _on_fill(self, req: MemRequest) -> None:
        # Last leg of the fill path the EMC bypasses: DRAM data on chip ->
        # ring to the slice -> LLC fill -> ring to the core (+ L1 fill at
        # the core, charged separately by the core model).
        slice_stop = self.llc.slice_stop(req.line)
        self.trace.mark(req, Stage.RING_CORE)
        self.ring.send(slice_stop, req.core_id, "data",
                       lambda: self._delivered(req, from_dram=True))

    def _delivered(self, req: MemRequest, from_dram: bool) -> None:
        req.t_done = self.wheel.now
        self.trace.end(req, from_dram)
        if from_dram:
            self.stats.llc_misses_from_core += 1
            self.stats.core_miss_latency.add(
                req.total_latency, req.dram_latency, req.queue_delay)
        if req.callback is not None:
            req.callback(req)

    # ------------------------------------------------------------------
    # store write-through path (fire-and-forget)
    # ------------------------------------------------------------------
    def store_writethrough(self, core_id: int, paddr: int, pc: int) -> None:
        line = line_addr(paddr)
        slice_stop = self.llc.slice_stop(line)
        self.ring.send(core_id, slice_stop, "data",
                       lambda: self._store_at_slice(core_id, line))
        # Disambiguation check: a home-core store hitting a line a running
        # chain has speculatively stored to cancels that chain.
        for mc_id in range(self.cfg.num_mcs):
            emc = self.system.emc_at(mc_id)
            if emc is not None:
                emc.cancel_for_disambiguation(core_id, line)

    def _store_at_slice(self, core_id: int, line: int) -> None:
        wait = self._slice_wait(line)
        if wait:
            self.wheel.schedule(wait,
                                lambda: self._store_at_slice_now(core_id, line))
            return
        self._store_at_slice_now(core_id, line)

    def _store_at_slice_now(self, core_id: int, line: int) -> None:
        state = self.llc.access(line, write=True)
        if state is not None:
            return
        # Write-allocate: fetch the line, then install it dirty.
        sl = self.llc.slice_of(line)
        entry = sl.mshr.allocate(line, self.wheel.now,
                                 waiter=lambda _l: None, demand=False)
        if entry is None:
            if sl.mshr.lookup(line) is None:
                self.wheel.schedule(RETRY_CYCLES,
                                    lambda: self._store_at_slice(core_id, line))
            return
        mc_id = self.mc_of_line(line)

        def fetched(_req: DRAMRequest) -> None:
            dirty_victim = self.llc.fill(line, dirty=True)
            if dirty_victim is not None:
                self._writeback(dirty_victim)
            for waiter in sl.mshr.complete(line, self.wheel.now):
                waiter(line)

        dram_req = DRAMRequest(line=line, source=core_id, is_write=False,
                               callback=fetched)
        self._enqueue_with_retry(mc_id, dram_req)

    def _writeback(self, line: int) -> None:
        mc_id = self.mc_of_line(line)
        slice_stop = self.llc.slice_stop(line)
        dram_req = DRAMRequest(line=line, source=self.cfg.num_cores,
                               is_write=True, callback=lambda dr: None)
        self.ring.send(slice_stop, self.mc_stop(mc_id), "data",
                       lambda: self._enqueue_with_retry(mc_id, dram_req))

    def _enqueue_with_retry(self, mc_id: int, dram_req: DRAMRequest) -> None:
        if not self.dram[mc_id].enqueue(dram_req, self.total_channels):
            self.wheel.schedule(RETRY_CYCLES,
                                lambda: self._enqueue_with_retry(mc_id,
                                                                 dram_req))

    # ------------------------------------------------------------------
    # prefetching
    # ------------------------------------------------------------------
    def _train_prefetcher(self, line: int, pc: int, core_id: int,
                          hit: bool) -> None:
        if isinstance(self.prefetcher, NullPrefetcher):
            return
        candidates = self.prefetcher.observe(line, pc, core_id, hit)
        if not candidates:
            return
        if self.fdp is not None:
            candidates = self.fdp.clamp(candidates)
        for cand in candidates:
            self._issue_prefetch(core_id, line_addr(cand))

    def _record_prefetch_useful(self) -> None:
        self.stats.prefetches_useful += 1
        self.prefetcher.note_useful()
        if self.fdp is not None:
            self.fdp.record_useful()

    def _issue_prefetch(self, core_id: int, line: int) -> None:
        if self.llc.probe(line) is not None:
            return
        sl = self.llc.slice_of(line)
        if sl.mshr.lookup(line) is not None:
            return
        entry = sl.mshr.allocate(line, self.wheel.now,
                                 waiter=lambda _l: None, demand=False)
        if entry is None:
            self.prefetcher.note_dropped()
            return
        self.stats.prefetches_issued += 1
        self.prefetcher.note_issued()
        if self.fdp is not None:
            self.fdp.record_issue()
        mc_id = self.mc_of_line(line)
        prefetch_entry = entry

        def fetched(_req: DRAMRequest) -> None:
            dirty_victim = self.llc.fill(line, prefetched=True)
            if dirty_victim is not None:
                self._writeback(dirty_victim)
            for waiter in sl.mshr.complete(line, self.wheel.now):
                waiter(line)

        slice_stop = self.llc.slice_stop(line)
        dram_req = DRAMRequest(line=line, source=core_id, is_write=False,
                               is_prefetch=True, callback=fetched)
        prefetch_entry.dram_req = dram_req
        self.ring.send(slice_stop, self.mc_stop(mc_id), "ctrl",
                       lambda: self._enqueue_with_retry(mc_id, dram_req))

    # ------------------------------------------------------------------
    # EMC request paths (the latency-saving shortcuts)
    # ------------------------------------------------------------------
    def emc_fetch(self, mc_id: int, core_id: int, pc: int, vaddr: int,
                  paddr: int, predicted_miss: bool,
                  callback: Callable[[MemRequest], None]) -> None:
        """A load executed at the EMC missed the EMC data cache."""
        line = line_addr(paddr)
        req = MemRequest(core_id=core_id, vaddr=vaddr, paddr=paddr,
                         line=line, pc=pc, emc=True, callback=callback,
                         t_start=self.wheel.now)
        emc = self.system.emc_at(mc_id)
        # Train the predictor on ground truth (modeling shortcut: a zero-
        # cost directory probe; documented in DESIGN.md).
        actually_resident = self.llc.probe(line) is not None
        if emc is not None:
            emc.miss_predictor.update(core_id, pc, not actually_resident,
                                      vaddr=vaddr)
            if predicted_miss == (not actually_resident):
                self.stats.emc.miss_pred_correct += 1
            else:
                self.stats.emc.miss_pred_wrong += 1
            # Bypass confusion matrix: positive = "predicted miss" (the
            # load goes straight to DRAM).
            if predicted_miss:
                if actually_resident:
                    self.stats.emc.bypass_false_pos += 1
                else:
                    self.stats.emc.bypass_true_pos += 1
            elif not actually_resident:
                self.stats.emc.bypass_false_neg += 1

        self.trace.begin(req, Stage.EMC_ISSUE)
        if predicted_miss:
            req.bypassed_llc = True
            self.stats.emc.direct_dram_requests += 1
            self.trace.track(Stage.EMC_DIRECT_DRAM, mc_id, core_id)
            # EMC requests are demand requests: the line still fills the
            # LLC (off the critical path), it just isn't *waited on*.
            self._emc_to_dram(req, mc_id, fill_llc=True)
            return
        self.stats.emc.llc_path_requests += 1
        self.trace.track(Stage.EMC_LLC_PATH, mc_id, core_id)
        self.trace.mark(req, Stage.RING_REQ)
        slice_stop = self.llc.slice_stop(line)
        self.ring.send(self.mc_stop(mc_id), slice_stop, "ctrl",
                       lambda: self._emc_llc_probe(req, mc_id), emc=True)

    def _emc_llc_probe(self, req: MemRequest, mc_id: int) -> None:
        self.trace.mark(req, Stage.LLC_LOOKUP)
        self.wheel.schedule(self._slice_wait(req.line) + self.cfg.llc.latency,
                            lambda: self._emc_llc_outcome(req, mc_id))

    def _emc_llc_outcome(self, req: MemRequest, mc_id: int) -> None:
        state = self.llc.access(req.line, emc=True)
        self.stats.emc.llc_requests += 1
        slice_stop = self.llc.slice_stop(req.line)
        if state is not None:
            if state.prefetched:
                self.stats.emc.llc_hits_on_prefetched += 1
            state.emc_bit = True
            self.trace.mark(req, Stage.RING_DATA)
            self.ring.send(slice_stop, self.mc_stop(mc_id), "data",
                           lambda: self._emc_delivered(req, went_to_dram=False),
                           emc=True)
            return
        self._emc_to_dram(req, mc_id, fill_llc=True)

    def _emc_to_dram(self, req: MemRequest, requesting_mc: int,
                     fill_llc: bool = False) -> None:
        owner = self.mc_of_line(req.line)
        # Zero-length unless the line's channel belongs to another MC, in
        # which case this is the cross-channel request hop (Section 4.4).
        self.trace.mark(req, Stage.RING_EMC)
        if owner == requesting_mc:
            self._emc_enqueue_at_owner(req, owner, requesting_mc, fill_llc)
        else:
            self.ring.send(self.mc_stop(requesting_mc), self.mc_stop(owner),
                           "ctrl",
                           lambda: self._emc_enqueue_at_owner(
                               req, owner, requesting_mc, fill_llc),
                           emc=True)

    def _emc_enqueue_at_owner(self, req: MemRequest, owner: int,
                              requesting_mc: int, fill_llc: bool) -> None:
        """Queue an EMC request at the MC owning its line, retrying every
        ``RETRY_CYCLES`` while that MC's queue is full.  The retry and
        the DRAM callback call methods: a closure that schedules itself
        would hold the request in a reference cycle."""
        req.t_at_mc = self.wheel.now
        self.trace.mark(req, Stage.MC_QUEUE)
        dram_req = DRAMRequest(
            line=req.line, source=req.core_id, is_write=False,
            emc_generated=True,
            callback=lambda dr: self._emc_done_at_owner(
                req, owner, requesting_mc, fill_llc, dr))
        if not self.dram[owner].enqueue(dram_req, self.total_channels):
            self.wheel.schedule(RETRY_CYCLES,
                                lambda: self._emc_enqueue_at_owner(
                                    req, owner, requesting_mc, fill_llc))

    def _emc_done_at_owner(self, req: MemRequest, owner: int,
                           requesting_mc: int, fill_llc: bool,
                           dram_req: DRAMRequest) -> None:
        req.t_dram_start = dram_req.service_start
        req.t_dram_done = self.wheel.now
        req.row_hit = dram_req.row_hit
        self.trace.mark_at(req, Stage.DRAM_BANK, dram_req.service_start)
        self.trace.mark_at(req, Stage.DRAM_BUS, dram_req.bank_done)
        owner_emc = self.system.emc_at(owner)
        if owner_emc is not None:
            owner_emc.on_dram_line(req.line)
        if fill_llc:
            slice_stop = self.llc.slice_stop(req.line)
            self.ring.send(self.mc_stop(owner), slice_stop, "data",
                           lambda: self._emc_fill_llc(req), emc=True)
        if owner == requesting_mc:
            self._emc_delivered(req, went_to_dram=True)
        else:
            # Cross-channel dependency: data ships EMC-to-EMC directly,
            # cutting the core out (Section 4.4).
            self.trace.mark(req, Stage.RING_EMC)
            self.ring.send(self.mc_stop(owner),
                           self.mc_stop(requesting_mc), "data",
                           lambda: self._emc_delivered(req,
                                                       went_to_dram=True),
                           emc=True)

    def _emc_fill_llc(self, req: MemRequest) -> None:
        dirty_victim = self.llc.fill(req.line, emc_bit=True)
        if dirty_victim is not None:
            self._writeback(dirty_victim)

    def _emc_delivered(self, req: MemRequest, went_to_dram: bool) -> None:
        req.t_done = self.wheel.now
        self.trace.end(req, went_to_dram)
        if went_to_dram:
            self.stats.llc_misses_from_emc += 1
            self.stats.emc_miss_latency.add(
                req.total_latency, req.dram_latency, req.queue_delay)
        if req.callback is not None:
            req.callback(req)

    # ------------------------------------------------------------------
    # coherence hooks
    # ------------------------------------------------------------------
    def _emc_invalidate(self, line: int) -> None:
        for mc_id in range(self.cfg.num_mcs):
            emc = self.system.emc_at(mc_id)
            if emc is not None:
                emc.invalidate_line(line)
