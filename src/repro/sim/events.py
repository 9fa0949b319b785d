"""Event wheel: the discrete-event engine driving the whole simulator.

Every timed behaviour in the system (core ticks, cache fills, DRAM command
completions, ring message deliveries, EMC execution steps) is a callback
scheduled on a single global :class:`EventWheel`.  Components that have
nothing to do simply stop scheduling ticks and are woken by completion
events; this "doze" idiom is what makes a Python cycle simulator usable on
memory-bound workloads, where most core-cycles are idle.

Implementation: a calendar queue rather than one flat heap.  Events for
the same cycle live in one per-cycle bucket (a deque, append order =
fire order), and a small heap orders only the *distinct* pending cycles.
Most traffic lands in a handful of buckets (every awake core ticks each
cycle, completions cluster), so the common scheduling operation is a
dict lookup plus an append instead of an O(log n) heap push of a
``(time, seq, callback)`` tuple — and same-cycle FIFO order is carried
by the bucket itself, no tie-break sequence needed.  :meth:`advance`
dispatches a whole cycle in one call, which lets the system loop hoist
its per-event bookkeeping to per-cycle.

Two implementations, one behaviour.  :class:`PythonEventWheel` below is
the reference.  ``_wheel.c`` is its C twin, built on first import by
:func:`repro.core.kernel.load_source` like the core tick; when it loads,
:class:`EventWheel` is a thin subclass of its ``Wheel`` type, otherwise
it is the Python wheel (after one warning).  :func:`new_wheel` builds the
wheel a ``System`` runs on and takes the Python one when ``_kernel`` is
None, so tests pick it by setting ``repro.sim.events._kernel = None``
before building a machine.
"""

from __future__ import annotations

import heapq
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional

from ..core.kernel import load_source, source_hash

WHEEL_SOURCE = Path(__file__).with_name("_wheel.c")


class PythonEventWheel:
    """A calendar queue of per-cycle event buckets.

    Events scheduled for the same cycle fire in scheduling order (bucket
    append order), which keeps the simulator deterministic for a fixed
    seed.  A callback that raises still consumes its event; a bucket it
    leaves empty retires, so the wheel stays consistent.  A callback may
    schedule but not dispatch: ``step``, ``advance`` or ``run`` inside a
    dispatch raises ``RuntimeError``, as the C wheel does.
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: per-cycle buckets; a cycle key exists iff it has queued events
        self._buckets: Dict[int, Deque[Callable[[], None]]] = {}
        #: heap of the distinct cycles present in ``_buckets``
        self._times: List[int] = []
        #: a step, advance or run is on the stack
        self._dispatching = False

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque((callback,))
            heapq.heappush(self._times, time)
        else:
            bucket.append(callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at an absolute cycle (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque((callback,))
            heapq.heappush(self._times, time)
        else:
            bucket.append(callback)

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return sum(len(bucket) for bucket in self._buckets.values())

    def rewind(self) -> None:
        """Reset the clock to zero on an *empty* wheel.

        The warmup/measure boundary rewinds simulated time to zero so the
        measurement window is self-contained (and a checkpoint resumed in
        a fresh process replays identically).  Queued events hold absolute
        times, so rewinding with work in flight would corrupt ordering —
        this quiesce guard is the only rewind path; callers (including
        any mid-drain batch dispatch) must drain the wheel first.
        """
        if self._buckets:
            raise RuntimeError(
                f"cannot rewind with {self.pending} events pending")
        self.now = 0

    def _begin_dispatch(self) -> None:
        if self._dispatching:
            raise RuntimeError("the event wheel is already dispatching")
        self._dispatching = True

    def step(self) -> bool:
        """Pop and run the next event.  Returns False if the wheel is empty."""
        times = self._times
        if not times:
            return False
        self._begin_dispatch()
        time = times[0]
        self.now = time
        bucket = self._buckets[time]
        callback = bucket.popleft()
        try:
            callback()
        finally:
            self._dispatching = False
            # The callback may have scheduled into this same cycle; only
            # an exhausted bucket retires its heap entry.
            if not bucket:
                del self._buckets[time]
                heapq.heappop(times)
        return True

    def advance(self) -> int:
        """Dispatch *every* event of the earliest pending cycle.

        Events scheduled for that same cycle during the batch (zero-delay
        wakeups) are dispatched too, in schedule order.  Returns the
        number of events executed — 0 means the wheel is empty.
        """
        times = self._times
        if not times:
            return 0
        self._begin_dispatch()
        time = times[0]
        self.now = time
        bucket = self._buckets[time]
        popleft = bucket.popleft
        executed = 0
        try:
            while bucket:
                popleft()()
                executed += 1
        finally:
            self._dispatching = False
            if not bucket:
                del self._buckets[time]
                heapq.heappop(times)
        return executed

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Drain events, optionally bounded by time and/or event count.

        Returns the number of events executed.
        """
        self._begin_dispatch()
        executed = 0
        buckets = self._buckets
        times = self._times
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    break
                self.now = time
                bucket = buckets[time]
                try:
                    if max_events is None:
                        popleft = bucket.popleft
                        while bucket:
                            popleft()()
                            executed += 1
                    else:
                        while bucket:
                            if executed >= max_events:
                                return executed
                            bucket.popleft()()
                            executed += 1
                finally:
                    if not bucket:
                        del buckets[time]
                        heapq.heappop(times)
        finally:
            self._dispatching = False
        return executed


#: The C wheel kernel (``Wheel``, ``_wheel.c``), or None: then
#: :func:`new_wheel` builds the :class:`PythonEventWheel` (tests set this
#: to None to pick it).
_kernel = load_source(f"{__package__}._wheel", WHEEL_SOURCE,
                      "pure-Python event wheel")

if _kernel is not None:
    class EventWheel(_kernel.Wheel):
        """The C wheel.  ``schedule``, ``schedule_at`` and ``run`` sit in
        this class's own ``__dict__`` so that a tracer can wrap them per
        class (perfbench's ledger reads and patches them there), and the
        C tick reaches ``schedule`` through attribute lookup."""

        __slots__ = ()
        schedule = _kernel.Wheel.schedule
        schedule_at = _kernel.Wheel.schedule_at
        run = _kernel.Wheel.run
else:
    EventWheel = PythonEventWheel    # type: ignore[misc,assignment]


def new_wheel():
    """A fresh event wheel: the C one unless ``_kernel`` is None."""
    return PythonEventWheel() if _kernel is None else EventWheel()


def wheel_implementation() -> str:
    """Which event wheel runs: ``"C <source hash>"`` or ``"python"``."""
    return ("python" if _kernel is None
            else f"C {source_hash(WHEEL_SOURCE)}")
