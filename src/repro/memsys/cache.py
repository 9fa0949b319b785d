"""Set-associative cache model with LRU replacement.

This is the *state* model (tags, LRU, dirty bits); *timing* lives in the
owning component (L1 in the core model, LLC slices, EMC data cache), which
consults this structure and schedules events.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.component import (CarryoverReport, SimComponent,
                             reset_dataclass_stats)
from ..uarch.params import CACHE_LINE_BYTES


def line_addr(addr: int) -> int:
    """Align an address down to its cache-line base."""
    return addr & ~(CACHE_LINE_BYTES - 1)


@dataclass(slots=True)
class CacheLineState:
    tag: int
    dirty: bool = False
    # Inclusive-LLC bookkeeping: which cores hold this line in L1, and
    # whether the EMC data cache holds a copy (the extra directory bit the
    # paper adds for EMC coherence, Section 4.1.3).
    sharers: set = field(default_factory=set)
    emc_bit: bool = False
    prefetched: bool = False
    prefetch_useful: bool = False
    # Set index stashed by fill() on the evicted line so addr_of can
    # reconstruct its address; None for lines still resident.
    _victim_index: Optional[int] = None


@dataclass(slots=True)
class CacheStats:
    """Outcomes of one cache array's accesses.

    Window: the whole run, every access from the warmup/measure boundary
    to the end of the post-finish drain.  For an L1 that includes stores
    and a finished core's accesses; ``CoreStats.l1_hits``/``l1_misses``
    count the same loads only in the core's measured window.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssocCache(SimComponent):
    """Tags + LRU for one cache array.

    Each set is an ``OrderedDict`` keyed by tag; iteration order is LRU →
    MRU.  ``probe`` is side-effect-free; ``access`` updates recency and
    stats; ``fill`` inserts (returning the victim, if any).

    State split: tags/LRU order/line flags are architectural;
    :class:`CacheStats` is statistical.
    """

    def __init__(self, size_bytes: int, ways: int,
                 line_bytes: int = CACHE_LINE_BYTES) -> None:
        if size_bytes % (ways * line_bytes):
            raise ValueError("cache size must be a multiple of way*line size")
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        self._sets: List[OrderedDict] = [OrderedDict()
                                         for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _index_tag(self, addr: int):
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def probe(self, addr: int) -> Optional[CacheLineState]:
        """Look up without touching LRU or stats."""
        index, tag = self._index_tag(addr)
        return self._sets[index].get(tag)

    def access(self, addr: int, write: bool = False) -> Optional[CacheLineState]:
        """Demand access: returns the line on hit (promoting to MRU), None on
        miss.  Stats are updated either way."""
        index, tag = self._index_tag(addr)
        cset = self._sets[index]
        state = cset.get(tag)
        if state is None:
            self.stats.misses += 1
            return None
        cset.move_to_end(tag)
        self.stats.hits += 1
        if write:
            state.dirty = True
        if state.prefetched and not state.prefetch_useful:
            state.prefetch_useful = True
        return state

    def fill(self, addr: int, dirty: bool = False,
             prefetched: bool = False) -> Optional[CacheLineState]:
        """Insert a line, evicting LRU if the set is full.

        Returns the evicted :class:`CacheLineState` (its original address is
        recoverable via :meth:`addr_of`) or None.
        """
        index, tag = self._index_tag(addr)
        cset = self._sets[index]
        if tag in cset:
            state = cset[tag]
            cset.move_to_end(tag)
            state.dirty = state.dirty or dirty
            return None
        victim = None
        if len(cset) >= self.ways:
            _vtag, victim = cset.popitem(last=False)
            victim._victim_index = index  # stashed for addr_of
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
        cset[tag] = CacheLineState(tag=tag, dirty=dirty, prefetched=prefetched)
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLineState]:
        """Remove a line (coherence back-invalidation).  Returns it or None."""
        index, tag = self._index_tag(addr)
        return self._sets[index].pop(tag, None)

    def addr_of(self, state: CacheLineState) -> int:
        """Reconstruct the line base address of an evicted line."""
        index = state._victim_index
        if index is None:
            raise ValueError("addr_of only valid for lines returned by fill()")
        return (state.tag * self.num_sets + index) * self.line_bytes

    # -- SimComponent protocol -----------------------------------------------
    def reset_stats(self) -> None:
        reset_dataclass_stats(self.stats)

    def config_state(self) -> dict:
        return {"num_sets": self.num_sets, "ways": self.ways,
                "line_bytes": self.line_bytes}

    def snapshot(self) -> dict:
        state = self._header()
        state["sets"] = [OrderedDict(cset) for cset in self._sets]
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Adopt a snapshot, re-hashing contents into the live geometry.

        Lines are replayed LRU -> MRU per source set (source sets in
        index order) so recency carries over as faithfully as the new
        geometry allows; lines that collide past the new associativity
        are dropped as LRU overflow.
        """
        state = self._check(state, match_config=False)
        saved_cfg = state["config"]
        if saved_cfg == self.config_state():
            for cset, saved in zip(self._sets, state["sets"]):
                cset.clear()
                cset.update(saved)
            total = sum(len(s) for s in state["sets"])
            report.record(path, total, total)
            return
        old_sets = saved_cfg["num_sets"]
        old_line = saved_cfg["line_bytes"]
        for cset in self._sets:
            cset.clear()
        total = 0
        seeded = set()
        for index, saved in enumerate(state["sets"]):
            for tag, line in saved.items():
                total += 1
                # Invert the source mapping to the line base address,
                # then re-align into the (possibly different) live line
                # size; several source lines can land in one covering
                # line, so dedupe keeps the first (least-recent) copy.
                addr = (tag * old_sets + index) * old_line
                base = (addr // self.line_bytes) * self.line_bytes
                if base in seeded:
                    continue
                seeded.add(base)
                self.seed_line(base, line)
        kept = sum(len(s) for s in self._sets)
        dropped = self.trim_to_ways()
        report.record(path, kept - dropped, total)

    def seed_line(self, addr: int, line: CacheLineState) -> None:
        """Insert an existing line object at ``addr`` as MRU, rewriting
        its tag for the live geometry (reseat helper; no stats, no
        capacity check — call :meth:`trim_to_ways` afterwards)."""
        index, tag = self._index_tag(addr)
        line.tag = tag
        cset = self._sets[index]
        cset.pop(tag, None)
        cset[tag] = line

    def clear_lines(self) -> None:
        """Drop every resident line (reseat helper; stats untouched)."""
        for cset in self._sets:
            cset.clear()

    def trim_to_ways(self) -> int:
        """Evict LRU lines from any over-full set (reseat helper).
        Returns the number of lines dropped."""
        dropped = 0
        for cset in self._sets:
            while len(cset) > self.ways:
                cset.popitem(last=False)
                dropped += 1
        return dropped

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> List[int]:
        """All resident line base addresses (test/debug helper)."""
        out = []
        for index, cset in enumerate(self._sets):
            for tag in cset:
                out.append((tag * self.num_sets + index) * self.line_bytes)
        return out
