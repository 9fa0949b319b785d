"""Virtual memory: pages, a flat page table, and address translation.

The simulator runs each core's workload in its own address space.  Physical
frames are handed out on first touch.  The EMC keeps a small per-core TLB
(:mod:`repro.emc.tlb`); a chain whose pages are not resident there halts EMC
execution and falls back to the core, as in Section 4.1.4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.component import CarryoverReport, SimComponent
from ..uarch.params import PAGE_BYTES


@dataclass(frozen=True)
class PageTableEntry:
    vpn: int
    pfn: int
    asid: int


class FrameAllocator(SimComponent):
    """Hands out physical frame numbers on first touch.

    One allocator exists per simulated machine (owned by the
    :class:`~repro.sim.system.System`) and is shared by every core's page
    table, so different cores' working sets map to disjoint physical
    addresses and contend realistically in the shared LLC and DRAM banks.
    Keeping the allocator instance-scoped — never module- or class-level —
    is what lets several ``System`` objects coexist in one process (the
    parallel experiment runner, notebook workflows) without corrupting each
    other's address spaces.
    """

    def __init__(self, first_frame: int = 1) -> None:
        # Frame 0 is reserved so a zero physical address never appears.
        self._next_frame = first_frame

    def allocate(self) -> int:
        pfn = self._next_frame
        self._next_frame += 1
        return pfn

    @property
    def frames_allocated(self) -> int:
        return self._next_frame - 1

    # -- SimComponent protocol (all state is architectural) ------------------
    def reset_stats(self) -> None:
        pass

    def snapshot(self) -> dict:
        state = self._header()
        state["next_frame"] = self._next_frame
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        self._check(state)
        self._next_frame = state["next_frame"]


class PageTable(SimComponent):
    """Per-address-space page table with on-demand frame allocation.

    ``allocator`` is normally the owning system's shared
    :class:`FrameAllocator`; a standalone page table (unit tests, tooling)
    gets a private one.
    """

    def __init__(self, asid: int,
                 allocator: Optional[FrameAllocator] = None) -> None:
        self.asid = asid
        self.allocator = allocator if allocator is not None else FrameAllocator()
        self._entries: Dict[int, PageTableEntry] = {}

    @staticmethod
    def vpn_of(vaddr: int) -> int:
        return vaddr // PAGE_BYTES

    def translate(self, vaddr: int) -> int:
        """Translate a virtual address, allocating a frame on first touch."""
        vpn = self.vpn_of(vaddr)
        entry = self._entries.get(vpn)
        if entry is None:
            entry = PageTableEntry(vpn=vpn, pfn=self.allocator.allocate(),
                                   asid=self.asid)
            self._entries[vpn] = entry
        return entry.pfn * PAGE_BYTES + (vaddr % PAGE_BYTES)

    def entry_for(self, vaddr: int) -> PageTableEntry:
        """Return (allocating if needed) the PTE covering ``vaddr``."""
        self.translate(vaddr)
        return self._entries[self.vpn_of(vaddr)]

    def resident(self, vaddr: int) -> bool:
        return self.vpn_of(vaddr) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- SimComponent protocol (all state is architectural) ------------------
    # The shared FrameAllocator is snapshotted once at System level, not
    # per page table; reseat keeps this table's allocator reference.
    def reset_stats(self) -> None:
        pass

    def config_state(self) -> dict:
        # The ASID is core-identity wiring: fork() reseats surviving
        # cores index by index, so a reseat target always matches.
        return {"asid": self.asid}

    def snapshot(self) -> dict:
        state = self._header()
        state["entries"] = dict(self._entries)
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        state = self._check(state)
        self._entries.clear()
        self._entries.update(state["entries"])
