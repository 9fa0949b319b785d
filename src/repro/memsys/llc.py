"""Shared, distributed last-level cache.

One slice per core, physically co-located with that core's ring stop
(Figure 7).  The LLC is inclusive; each directory entry carries an extra bit
tracking whether the EMC data cache holds the line (Section 4.1.3), which is
how EMC coherence is maintained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim.component import (CarryoverReport, SimComponent,
                             reset_dataclass_stats)
from ..uarch.params import CACHE_LINE_BYTES, LLCConfig
from .cache import CacheLineState, SetAssocCache, line_addr
from .mshr import MSHRFile


@dataclass
class LLCSliceStats:
    """Demand, prefetch and EMC outcomes at one LLC slice.  Window: the
    whole run, until the post-finish drain ends."""

    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_hits: int = 0     # demand hits on prefetched lines
    emc_accesses: int = 0
    emc_hits: int = 0
    writebacks: int = 0
    back_invalidations: int = 0


class LLCSlice(SimComponent):
    """One 1 MB slice: tags + MSHRs + stats."""

    def __init__(self, slice_id: int, cfg: LLCConfig) -> None:
        self.slice_id = slice_id
        self.cfg = cfg
        self.cache = SetAssocCache(cfg.slice_bytes, cfg.ways)
        self.mshr = MSHRFile(cfg.mshr_entries)
        self.stats = LLCSliceStats()

    # -- SimComponent protocol -----------------------------------------------
    def reset_stats(self) -> None:
        self.cache.reset_stats()
        self.mshr.reset_stats()
        reset_dataclass_stats(self.stats)

    def config_state(self) -> dict:
        return {"slice_id": self.slice_id}

    def snapshot(self) -> dict:
        state = self._header()
        state["cache"] = self.cache.snapshot()
        state["mshr"] = self.mshr.snapshot()
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        state = self._check(state)
        self.cache.reseat(state["cache"], report, f"{path}/cache")
        self.mshr.reseat(state["mshr"], report, f"{path}/mshr")

    # -- stats mutation API (SIM005: counters change only via the owner) -----
    def note_access(self, hit: bool, emc: bool = False,
                    prefetched: bool = False) -> None:
        """Record one demand access to this slice."""
        if emc:
            self.stats.emc_accesses += 1
        if not hit:
            self.stats.demand_misses += 1
            return
        self.stats.demand_hits += 1
        if emc:
            self.stats.emc_hits += 1
        if prefetched:
            self.stats.prefetch_hits += 1

    def note_writeback(self) -> None:
        """A dirty victim left this slice for DRAM."""
        self.stats.writebacks += 1

    def note_back_invalidation(self) -> None:
        """The EMC copy of one of this slice's lines was invalidated."""
        self.stats.back_invalidations += 1


class LLC(SimComponent):
    """The full distributed LLC: slice selection + coherence bookkeeping.

    ``emc_invalidate_hook`` is wiring, not state — it is re-established by
    the owning system on construction and never snapshotted.
    """

    def __init__(self, num_slices: int, cfg: LLCConfig) -> None:
        self.cfg = cfg
        self.slices: List[LLCSlice] = [LLCSlice(i, cfg)
                                       for i in range(num_slices)]
        # Called with the line address when a line with the EMC bit set is
        # evicted or written, so the EMC data cache can invalidate its copy.
        # Re-wired by the owning System after every restore/fork, so the
        # snapshot protocol deliberately does not carry it.
        self.emc_invalidate_hook: Optional[Callable[[int], None]] = None

    def slice_of(self, line: int) -> LLCSlice:
        index = (line // CACHE_LINE_BYTES) % len(self.slices)
        return self.slices[index]

    def slice_stop(self, line: int) -> int:
        """Ring stop of the slice holding ``line`` (slice i at stop i)."""
        return (line // CACHE_LINE_BYTES) % len(self.slices)

    # -- access paths --------------------------------------------------------
    def access(self, addr: int, write: bool = False,
               emc: bool = False) -> Optional[CacheLineState]:
        """Demand access.  Returns the line state on hit, None on miss."""
        line = line_addr(addr)
        sl = self.slice_of(line)
        state = sl.cache.access(line, write=write)
        sl.note_access(hit=state is not None, emc=emc,
                       prefetched=state is not None and state.prefetched)
        if state is None:
            return None
        if write and state.emc_bit:
            self._invalidate_emc_copy(line, state)
        return state

    def probe(self, addr: int) -> Optional[CacheLineState]:
        """Side-effect-free lookup (used by prefetch filtering and tests)."""
        return self.slice_of(line_addr(addr)).cache.probe(line_addr(addr))

    def fill(self, addr: int, dirty: bool = False, prefetched: bool = False,
             emc_bit: bool = False) -> Optional[int]:
        """Insert a line.  Returns the address of an evicted *dirty* line
        (which the caller must write back to DRAM) or None."""
        line = line_addr(addr)
        sl = self.slice_of(line)
        victim = sl.cache.fill(line, dirty=dirty, prefetched=prefetched)
        state = sl.cache.probe(line)
        if state is not None and emc_bit:
            state.emc_bit = True
        if victim is None:
            return None
        victim_addr = sl.cache.addr_of(victim)
        if victim.emc_bit:
            self._invalidate_emc_copy(victim_addr, victim)
        if victim.dirty:
            sl.note_writeback()
            return victim_addr
        return None

    def mark_emc(self, addr: int) -> None:
        """Set the per-line EMC directory bit (EMC data cache holds a copy)."""
        state = self.probe(addr)
        if state is not None:
            state.emc_bit = True

    def _invalidate_emc_copy(self, line: int, state: CacheLineState) -> None:
        state.emc_bit = False
        self.slice_of(line).note_back_invalidation()
        if self.emc_invalidate_hook is not None:
            self.emc_invalidate_hook(line)

    # -- SimComponent protocol -----------------------------------------------
    def reset_stats(self) -> None:
        for sl in self.slices:
            sl.reset_stats()

    def config_state(self) -> dict:
        # One slice per core.  A same-count fork only re-hashes within
        # slices (SetAssocCache.reseat); a cross-core-count fork changes
        # the line->slice interleave, so reseat() re-routes every line
        # to its new home slice.
        return {"num_slices": len(self.slices)}

    def snapshot(self) -> dict:
        state = self._header()
        state["slices"] = [sl.snapshot() for sl in self.slices]
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        state = self._check(state, match_config=False)
        if state["config"] == self.config_state():
            # All slices accumulate under one path so the report reads
            # as one LLC-wide carryover line.
            for sl, saved in zip(self.slices, state["slices"]):
                sl.reseat(saved, report, path)
            return
        self._reseat_across_slices(state, report, path)

    def _reseat_across_slices(self, state: dict, report: CarryoverReport,
                              path: str) -> None:
        """The slice count changed: the line->slice interleave moved, so
        every saved line re-routes to its new home slice, carrying its
        flags and replayed LRU -> MRU (source slices in id order, source
        sets in index order) so recency survives as faithfully as the
        new geometry allows.  Lines colliding past the new associativity
        drop as LRU overflow.  Per-slice MSHRs start empty, as they are
        at every snapshot point.
        """
        for sl in self.slices:
            sl.cache.clear_lines()
        total = 0
        seeded = set()
        for saved in state["slices"]:
            cache = saved["cache"]
            old_cfg = cache["config"]
            old_sets = old_cfg["num_sets"]
            old_line = old_cfg["line_bytes"]
            for index, cset in enumerate(cache["sets"]):
                for tag, line in cset.items():
                    total += 1
                    addr = (tag * old_sets + index) * old_line
                    home = self.slice_of(addr).cache
                    base = (addr // home.line_bytes) * home.line_bytes
                    if base in seeded:
                        continue
                    seeded.add(base)
                    home.seed_line(base, line)
        kept = len(seeded)
        dropped = sum(sl.cache.trim_to_ways() for sl in self.slices)
        report.record(f"{path}/cache", kept - dropped, total)

    # -- aggregate stats ------------------------------------------------------
    def total_demand_hits(self) -> int:
        return sum(s.stats.demand_hits for s in self.slices)

    def total_demand_misses(self) -> int:
        return sum(s.stats.demand_misses for s in self.slices)
