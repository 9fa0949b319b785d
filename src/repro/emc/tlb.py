"""EMC TLBs: one small circular-buffer TLB per core (Section 4.1.4).

Each TLB caches the page-table entries of the last pages the EMC accessed on
behalf of that core.  The core mirrors residency with a bit per PTE so it
knows whether to ship the source miss's PTE along with a chain.  The EMC
never walks page tables: a miss halts chain execution and the core
re-executes the chain locally.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..memsys.vm import PageTable, PageTableEntry
from ..sim.component import CarryoverReport, SimComponent
from ..uarch.params import PAGE_BYTES


class EMCTlb(SimComponent):
    """Per-core circular-buffer TLB (FIFO replacement, as in the paper).

    State split: the translation buffer is architectural;
    hits/misses/shootdowns are statistical.
    """

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._entries: "OrderedDict[int, PageTableEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.shootdowns = 0

    def resident(self, vaddr: int) -> bool:
        return (vaddr // PAGE_BYTES) in self._entries

    def translate(self, vaddr: int) -> Optional[int]:
        """Return the physical address, or None on TLB miss."""
        vpn = vaddr // PAGE_BYTES
        entry = self._entries.get(vpn)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.pfn * PAGE_BYTES + (vaddr % PAGE_BYTES)

    def insert(self, entry: PageTableEntry) -> None:
        """Insert a PTE; circular buffer evicts the oldest entry."""
        if entry.vpn in self._entries:
            self._entries[entry.vpn] = entry
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[entry.vpn] = entry

    def invalidate(self, vpn: int) -> bool:
        """TLB-shootdown path: drop one translation if present."""
        if self._entries.pop(vpn, None) is not None:
            self.shootdowns += 1
            return True
        return False

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # -- SimComponent protocol -----------------------------------------------
    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.shootdowns = 0

    def config_state(self) -> dict:
        return {"capacity": self.capacity}

    def snapshot(self) -> dict:
        state = self._header()
        state["entries"] = OrderedDict(self._entries)
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        """Adopt a snapshot across a capacity change: a circular buffer
        keeps its newest entries, so shrinking drops from the FIFO
        head."""
        state = self._check(state, match_config=False)
        saved = state["entries"]
        self._entries.clear()
        keep = list(saved.items())[max(0, len(saved) - self.capacity):]
        self._entries.update(keep)
        report.record(path, len(keep), len(saved))


class EMCTlbFile(SimComponent):
    """The set of per-core EMC TLBs living at one memory controller."""

    def __init__(self, num_cores: int, entries_per_core: int) -> None:
        self.tlbs: Dict[int, EMCTlb] = {
            core: EMCTlb(entries_per_core) for core in range(num_cores)}

    # -- SimComponent protocol -----------------------------------------------
    def reset_stats(self) -> None:
        for tlb in self.tlbs.values():
            tlb.reset_stats()

    def config_state(self) -> dict:
        return {"num_cores": len(self.tlbs)}

    def snapshot(self) -> dict:
        state = self._header()
        state["tlbs"] = {core: tlb.snapshot()
                         for core, tlb in self.tlbs.items()}
        return state

    def reseat(self, state: dict, report: CarryoverReport,
               path: str = "") -> None:
        state = self._check(state)
        for core, tlb in self.tlbs.items():
            tlb.reseat(state["tlbs"][core], report, f"{path}[{core}]")

    def for_core(self, core_id: int) -> EMCTlb:
        return self.tlbs[core_id]

    def preload(self, core_id: int, page_table: PageTable,
                vaddr: int) -> None:
        """Ship a PTE with a chain (the source miss's page)."""
        self.tlbs[core_id].insert(page_table.entry_for(vaddr))
