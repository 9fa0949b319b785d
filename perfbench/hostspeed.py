"""Host-speed probe: puts host times on the scale of one reference host.

On a shared host, other tenants' load can slow this process down by up
to ~2x for tens of seconds at a time — longer than a run — so raw
medians move more between runs than a regression bound can tolerate.
A short, fixed pure-Python loop (object allocation, dict, deque and heap
traffic, like the simulator's event machinery; independent of ``src/``)
is timed just before and just after every operation, and the
operation's host times are scaled by ``REFERENCE_S / probe time``.  The
scaled figures read as seconds on a host where the probe takes
``REFERENCE_S``, roughly its time on an unloaded 2.1 GHz Xeon vCPU; the
report prints the raw seconds beside them.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

#: about the probe's time on an unloaded 2.1 GHz Xeon vCPU (Python 3.11)
REFERENCE_S = 0.06
_ITERATIONS = 100_000


class _Item:
    __slots__ = ("key", "bucket")


def _probe_loop() -> int:
    table = {}
    fifo: deque = deque()
    heap: list = []
    total = 0
    for i in range(_ITERATIONS):
        item = _Item()
        item.key = i
        item.bucket = i & 7
        table[i & 1023] = item
        fifo.append(item)
        if len(fifo) > 64:
            total += fifo.popleft().key
        heapq.heappush(heap, (i * 7919) % 10007)
        if len(heap) > 128:
            total += heapq.heappop(heap)
        total += table.get((i * 31) & 1023, item).bucket
    return total


def probe_s() -> float:
    """Host seconds the probe loop takes right now."""
    start = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - start


def speed(before_s: float, after_s: float) -> float:
    """Scale factor for host times measured between two probes."""
    return REFERENCE_S / ((before_s + after_s) / 2)
