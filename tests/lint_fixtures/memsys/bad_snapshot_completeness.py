"""Planted SIM010: a state attribute the snapshot protocol never covers.

``coalesced`` is bumped as the buffer merges writes, but neither
``snapshot`` nor ``reseat`` mentions it — every checkpoint/fork of this
component silently resets the counter.
"""

from repro.sim.component import SimComponent


class LeakyWriteBuffer(SimComponent):
    """Write buffer whose coalesce counter misses the snapshot."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.entries = []
        self.coalesced = 0

    def push(self, line: int) -> None:
        if line in self.entries:
            self.coalesced += 1
        else:
            self.entries.append(line)

    def snapshot(self) -> dict:
        return {"entries": list(self.entries)}

    def reseat(self, state: dict, report, path: str = "") -> None:
        self.entries = list(state["entries"])
