"""Miss Status Holding Registers: outstanding-miss tracking and coalescing.

An MSHR file caps memory-level parallelism at each cache level and merges
concurrent requests to the same line so only one fill is in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..sim.component import CarryoverReport, SimComponent, require_empty


@dataclass(slots=True)
class MSHREntry:
    line: int
    issued_at: int
    waiters: List[Callable[[int], None]] = field(default_factory=list)
    # Whether a demand (non-prefetch) request is merged into this miss.
    demand: bool = True
    # The in-flight DRAM request backing this fill, when one exists; a
    # demand merging into a prefetch promotes it to demand priority.
    dram_req: object = None


class MSHRFile(SimComponent):
    """A fixed-capacity table of outstanding line fills.

    State split: the entry table is architectural but holds waiter
    *callbacks*, so snapshots require it to be drained (quiesced
    machine) and carry only the header;
    ``peak_occupancy``/``coalesced``/``rejections`` are statistical.
    """

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._entries: Dict[int, MSHREntry] = {}
        self.peak_occupancy = 0
        self.coalesced = 0
        self.rejections = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- SimComponent protocol -----------------------------------------------
    def reset_stats(self) -> None:
        self.peak_occupancy = len(self._entries)
        self.coalesced = 0
        self.rejections = 0

    def config_state(self) -> dict:
        return {"capacity": self.capacity}

    def snapshot(self) -> dict:
        require_empty(self, entries=self._entries)
        return self._header()

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        # A drained table carries nothing, so a capacity change loses
        # nothing either.
        self._check(state, match_config=False)
        self._entries.clear()

    def lookup(self, line: int) -> Optional[MSHREntry]:
        return self._entries.get(line)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(self, line: int, now: int, waiter: Callable[[int], None],
                 demand: bool = True) -> Optional[MSHREntry]:
        """Track a new miss, or merge into an existing one.

        Returns the entry if this call *created* it (the caller must then
        actually issue the fill), or None if the request was coalesced or the
        file is full (``rejections`` distinguishes the two).
        """
        entry = self._entries.get(line)
        if entry is not None:
            entry.waiters.append(waiter)
            if demand and not entry.demand:
                entry.demand = True
                if entry.dram_req is not None:
                    # Late prefetch: the demand is now waiting on it, so it
                    # competes at demand priority from here on.
                    entry.dram_req.is_prefetch = False
            self.coalesced += 1
            return None
        if self.full:
            self.rejections += 1
            return None
        entry = MSHREntry(line=line, issued_at=now, waiters=[waiter],
                          demand=demand)
        self._entries[line] = entry
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))
        return entry

    def complete(self, line: int, now: int) -> List[Callable[[int], None]]:
        """Retire the miss; returns the waiters to notify."""
        entry = self._entries.pop(line, None)
        if entry is None:
            return []
        return entry.waiters
