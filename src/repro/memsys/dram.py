"""DDR3 DRAM model: channels, ranks, banks, row buffers, and a PAR-BS-style
batch scheduler (the paper's baseline memory scheduling algorithm).

Timing is event-driven.  Each bank serves one CAS at a time; the per-channel
data bus serializes line transfers.  Row-buffer state determines the access
class (hit / closed / conflict) and therefore the latency, which is where the
EMC's row-locality benefit (Figure 16) comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim.component import (CarryoverReport, SimComponent,
                             rebase_clock, require_empty,
                             reset_dataclass_stats)
from ..sim.events import EventWheel
from ..uarch.params import CACHE_LINE_BYTES, DRAMConfig


@dataclass(slots=True, eq=False)
class DRAMRequest:
    """One line-granularity DRAM access.

    Compared by identity: ``DRAMChannel._issue`` removes the chosen
    request from its queue with ``list.remove``, which would otherwise
    run the field-wise ``__eq__`` on every request queued ahead of it.
    Each request carries its own callback closure, so no two distinct
    requests were ever equal field by field either.
    """

    line: int                       # physical line base address
    source: int                     # requesting core id
    is_write: bool
    callback: Callable[["DRAMRequest"], None]
    emc_generated: bool = False
    is_prefetch: bool = False
    queued_at: int = 0
    service_start: int = 0
    bank_done: int = 0              # activate+CAS done; bus phase begins
    completed_at: int = 0
    row_hit: bool = False
    marked: bool = False            # PAR-BS batch membership
    bank: int = -1                  # cached at enqueue by the channel
    row: int = -1


@dataclass(slots=True)
class BankState:
    """One bank's open row and busy clock (architectural) and its
    row-buffer outcome counters (statistical; window: the whole run)."""

    open_row: Optional[int] = None
    busy_until: int = 0
    row_hits: int = 0
    row_conflicts: int = 0
    row_closed: int = 0


@dataclass(slots=True)
class DRAMStats:
    """One memory controller's request counters.  Window: the whole run,
    every request served until the post-finish drain ends."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_conflicts: int = 0
    row_closed: int = 0
    emc_requests: int = 0
    prefetch_requests: int = 0
    total_queue_delay: int = 0
    total_service_delay: int = 0
    batches_formed: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_conflict_rate(self) -> float:
        return self.row_conflicts / self.accesses if self.accesses else 0.0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


class DRAMChannel(SimComponent):
    """One channel: ranks × banks behind a shared data bus, with PAR-BS.

    Batch scheduling (Mutlu & Moscibroda, ISCA'08): when no *marked*
    requests remain, mark up to ``batch_cap_per_source`` oldest requests per
    (source, bank); marked requests strictly outrank unmarked ones.  Within a
    priority class the scheduler is FR-FCFS (row hits first, then oldest).
    """

    def __init__(self, channel_id: int, cfg: DRAMConfig,
                 wheel: EventWheel, stats: DRAMStats) -> None:
        self.channel_id = channel_id
        self.cfg = cfg
        self.wheel = wheel
        self.stats = stats
        nbanks = cfg.ranks_per_channel * cfg.banks_per_rank
        self.banks = [BankState() for _ in range(nbanks)]
        self.queue: List[DRAMRequest] = []
        self.bus_free_at = 0
        self._pick_scheduled_for: Optional[int] = None
        self.marked_remaining = 0

    # -- SimComponent protocol ---------------------------------------------
    # Architectural: open rows, bank/bus clocks.  Statistical: the per-bank
    # hit/conflict/closed counters (the shared DRAMStats block is owned by
    # DRAMSystem).  The request queue holds completion callbacks, so
    # snapshots require it drained; ``marked_remaining`` counts the marked
    # requests in it, so it is 0 there and no snapshot carries it.
    def reset_stats(self) -> None:
        for bank in self.banks:
            bank.row_hits = 0
            bank.row_conflicts = 0
            bank.row_closed = 0

    def config_state(self) -> dict:
        # Address-interpretation geometry only: timing parameters
        # (t_cas/t_rcd/...) live in cfg and never shape the payload, so
        # pure timing overrides reseat losslessly.
        return {"channel_id": self.channel_id,
                "channels": self.cfg.channels,
                "nbanks": len(self.banks),
                "row_bytes": self.cfg.row_bytes}

    def snapshot(self) -> dict:
        require_empty(self, queue=self.queue)
        state = self._header()
        state["banks"] = [(bank.open_row, bank.busy_until)
                          for bank in self.banks]
        state["bus_free_at"] = self.bus_free_at
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Same geometry only: a channel whose geometry changed starts
        cold instead (:meth:`start_cold`), and the hierarchy re-seeds
        and accounts its open rows."""
        state = self._check(state)
        for bank, (open_row, busy_until) in zip(self.banks, state["banks"]):
            bank.open_row = open_row
            bank.busy_until = busy_until
        self.queue.clear()
        self.bus_free_at = state["bus_free_at"]
        self._pick_scheduled_for = None
        self.marked_remaining = 0

    def start_cold(self) -> None:
        """Reset to power-on state (reseat helper: a channel whose
        geometry changed adopts nothing directly; open rows are
        re-seeded across the new channel map by the hierarchy)."""
        require_empty(self, queue=self.queue)
        for bank in self.banks:
            bank.open_row = None
            bank.busy_until = 0
        self.bus_free_at = 0
        self._pick_scheduled_for = None
        self.marked_remaining = 0

    def seed_open_row(self, addr: int) -> None:
        """Open the row covering ``addr`` in its bank (reseat helper)."""
        self.banks[self.bank_of(addr)].open_row = self.row_of(addr)

    def rebase(self, origin: int) -> None:
        """Rebase bank/bus clocks when the wheel rewinds to zero.  Only
        valid on a quiesced channel (no queued requests, no pending pick)."""
        self.bus_free_at = rebase_clock(self.bus_free_at, origin)
        self._pick_scheduled_for = None
        for bank in self.banks:
            bank.busy_until = rebase_clock(bank.busy_until, origin)

    # -- geometry ----------------------------------------------------------
    # Address mapping: column (within-row) → channel → bank → row, so the
    # ``row_bytes`` of consecutive channel-local lines share one bank's row
    # buffer.  Spatially-local accesses (a page, a stream) row-hit; the
    # naive "bank = low line bits" mapping would scatter every row across
    # all banks and destroy the locality Figures 16/20 depend on.
    def _local_line(self, line: int) -> int:
        return (line // CACHE_LINE_BYTES) // self.cfg.channels

    def bank_of(self, line: int) -> int:
        lines_per_row = self.cfg.row_bytes // CACHE_LINE_BYTES
        return (self._local_line(line) // lines_per_row) % len(self.banks)

    def row_of(self, line: int) -> int:
        lines_per_row = self.cfg.row_bytes // CACHE_LINE_BYTES
        return self._local_line(line) // (lines_per_row * len(self.banks))

    # -- queue interface ---------------------------------------------------
    @property
    def queue_full(self) -> bool:
        return len(self.queue) >= self.cfg.queue_entries

    def enqueue(self, req: DRAMRequest) -> bool:
        """Add a request; returns False if the memory queue is full."""
        if self.queue_full:
            return False
        req.queued_at = self.wheel.now
        req.bank = self.bank_of(req.line)
        req.row = self.row_of(req.line)
        self.queue.append(req)
        self._schedule_pick(self.wheel.now)
        return True

    # -- scheduling --------------------------------------------------------
    def _schedule_pick(self, when: int) -> None:
        when = max(when, self.wheel.now)
        if (self._pick_scheduled_for is not None
                and self._pick_scheduled_for <= when):
            return
        self._pick_scheduled_for = when
        # Superseded events stay in the wheel; the fire-time token lets
        # them detect they are stale and return immediately.
        self.wheel.schedule_at(when, lambda t=when: self._pick(t))

    def _form_batch(self) -> None:
        """Mark a new batch when the previous one has fully drained."""
        per_source_bank: Dict[tuple, int] = {}
        cap = self.cfg.batch_cap_per_source
        for req in sorted(self.queue, key=lambda r: r.queued_at):
            if req.is_prefetch:
                continue        # prefetches never join a batch
            key = (req.source, req.bank)
            if per_source_bank.get(key, 0) < cap:
                req.marked = True
                per_source_bank[key] = per_source_bank.get(key, 0) + 1
                self.marked_remaining += 1
        if self.marked_remaining:
            self.stats.batches_formed += 1

    def _request_priority(self, req: DRAMRequest) -> tuple:
        row_hit = self.banks[req.bank].open_row == req.row
        # Lower tuple = higher priority: demand over prefetch, marked batch
        # first, then row-hit, then oldest (FR-FCFS within a class).
        return (1 if req.is_prefetch else 0, 0 if req.marked else 1,
                0 if row_hit else 1, req.queued_at)

    def _pick(self, fire_time: Optional[int] = None) -> None:
        """Issue every request that can start now; reschedule for the rest."""
        if fire_time is not None and self._pick_scheduled_for != fire_time:
            return              # superseded by an earlier reschedule
        self._pick_scheduled_for = None
        now = self.wheel.now
        if not self.queue:
            return
        if self.marked_remaining == 0:
            self._form_batch()

        # Group by bank once, then serve the best request of each free bank.
        banks = self.banks
        by_bank: Dict[int, List[DRAMRequest]] = {}
        for req in self.queue:
            by_bank.setdefault(req.bank, []).append(req)
        for bank_id, requests in by_bank.items():
            bank = banks[bank_id]
            if bank.busy_until > now:
                continue
            if len(requests) == 1:
                req = requests[0]
            else:
                # min(requests, key=self._request_priority), inlined: the
                # open row is per-bank, so it is hoisted out of the scan,
                # and the strict < keeps min()'s first-wins tie-breaking.
                open_row = bank.open_row
                req = requests[0]
                best_key = (1 if req.is_prefetch else 0,
                            0 if req.marked else 1,
                            0 if open_row == req.row else 1, req.queued_at)
                for cand in requests:
                    key = (1 if cand.is_prefetch else 0,
                           0 if cand.marked else 1,
                           0 if open_row == cand.row else 1, cand.queued_at)
                    if key < best_key:
                        req, best_key = cand, key
                # self._request_priority stays the canonical definition.
            self._issue(req, now)

        if self.queue:
            wake = None
            for r in self.queue:
                busy = banks[r.bank].busy_until
                if wake is None or busy < wake:
                    wake = busy
            self._schedule_pick(max(wake, now + 1))

    def _issue(self, req: DRAMRequest, now: int) -> None:
        self.queue.remove(req)
        if req.marked:
            self.marked_remaining -= 1
        bank = self.banks[self.bank_of(req.line)]
        row = self.row_of(req.line)
        cfg = self.cfg

        if bank.open_row == row:
            access = cfg.t_cas
            bank.row_hits += 1
            self.stats.row_hits += 1
            req.row_hit = True
        elif bank.open_row is None:
            access = cfg.t_rcd + cfg.t_cas
            bank.row_closed += 1
            self.stats.row_closed += 1
        else:
            access = cfg.t_rp + cfg.t_rcd + cfg.t_cas
            bank.row_conflicts += 1
            self.stats.row_conflicts += 1
        bank.open_row = row

        cas_done = now + access
        req.bank_done = cas_done
        data_start = max(cas_done, self.bus_free_at)
        data_done = data_start + cfg.data_bus_cycles
        self.bus_free_at = data_done
        bank.busy_until = data_done

        if req.is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if req.emc_generated:
            self.stats.emc_requests += 1
        if req.is_prefetch:
            self.stats.prefetch_requests += 1
        req.service_start = now
        self.stats.total_queue_delay += now - req.queued_at
        self.stats.total_service_delay += data_done - now

        req.completed_at = data_done
        self.wheel.schedule_at(data_done, lambda r=req: r.callback(r))


class DRAMSystem(SimComponent):
    """All channels of one memory controller, sharing one stats block."""

    def __init__(self, cfg: DRAMConfig, wheel: EventWheel,
                 channel_ids: Optional[List[int]] = None) -> None:
        self.cfg = cfg
        self.wheel = wheel
        self.stats = DRAMStats()
        ids = channel_ids if channel_ids is not None else list(range(cfg.channels))
        self.channel_ids = ids
        self.channels = {cid: DRAMChannel(cid, cfg, wheel, self.stats)
                         for cid in ids}

    # -- SimComponent protocol ---------------------------------------------
    def reset_stats(self) -> None:
        reset_dataclass_stats(self.stats)
        for channel in self.channels.values():
            channel.reset_stats()

    def config_state(self) -> dict:
        return {"channels": self.cfg.channels,
                "channel_ids": tuple(self.channel_ids),
                "nbanks": self.cfg.ranks_per_channel
                * self.cfg.banks_per_rank,
                "row_bytes": self.cfg.row_bytes}

    def snapshot(self) -> dict:
        state = self._header()
        state["channels"] = {cid: ch.snapshot()
                             for cid, ch in self.channels.items()}
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Same geometry only: across a geometry change the hierarchy
        starts every channel cold and re-seeds open rows
        (:meth:`start_cold`, :meth:`seed_open_row`)."""
        state = self._check(state)
        for cid, channel in self.channels.items():
            channel.reseat(state["channels"][cid], report, path)
        opens = len(open_row_addrs(state))
        report.record(path, opens, opens)

    def start_cold(self) -> None:
        for channel in self.channels.values():
            channel.start_cold()

    def seed_open_row(self, addr: int) -> None:
        """Open the row covering ``addr``; this controller's channels
        must own the line."""
        cid = self.channel_of(addr, self.cfg.channels)
        self.channels[cid].seed_open_row(addr)

    def open_banks(self) -> int:
        """How many banks hold an open row."""
        return sum(1 for channel in self.channels.values()
                   for bank in channel.banks if bank.open_row is not None)

    def rebase(self, origin: int) -> None:
        for channel in self.channels.values():
            channel.rebase(origin)

    @staticmethod
    def channel_of(line: int, total_channels: int) -> int:
        """Global line→channel interleaving (per cache line)."""
        return (line // CACHE_LINE_BYTES) % total_channels

    def owns(self, line: int, total_channels: int) -> bool:
        return self.channel_of(line, total_channels) in self.channels

    def enqueue(self, req: DRAMRequest, total_channels: int) -> bool:
        cid = self.channel_of(req.line, total_channels)
        return self.channels[cid].enqueue(req)

    def pending(self) -> int:
        return sum(len(ch.queue) for ch in self.channels.values())


def open_row_addrs(state: dict) -> List[int]:
    """Representative line addresses of every open row in a
    :class:`DRAMSystem` snapshot, inverted through the *snapshot's* own
    geometry descriptor.  Feeding these through the live machine's
    line→channel→bank→row mapping re-seeds row-buffer locality into any
    new geometry (reseat helper)."""
    cfg = state["config"]
    lines_per_row = cfg["row_bytes"] // CACHE_LINE_BYTES
    addrs: List[int] = []
    for cid in sorted(state["channels"]):
        for bank_idx, (row, _busy) in enumerate(
                state["channels"][cid]["banks"]):
            if row is None:
                continue
            local = (row * cfg["nbanks"] + bank_idx) * lines_per_row
            addrs.append((local * cfg["channels"] + cid)
                         * CACHE_LINE_BYTES)
    return addrs
