"""Outside-in per-layer host-time ledger for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :func:`installed`
patches, for the duration of one traced operation, the simulator's
layer boundaries from the outside:

- ``EventWheel.schedule``/``schedule_at`` wrap every scheduled callback
  so that, when the wheel dispatches it, its host time and one event are
  charged to the layer that owns the callback (the ``repro.<layer>``
  package its code was defined in);
- the direct cross-layer calls (``MemoryHierarchy.demand_request``,
  ``Interconnect.send``, ``EMC.accept_chain``, the ``System`` lifecycle,
  ``build_named``, ``execute_job``, the lint passes, ...) run inside
  span-stack timers.

Spans nest: a span's *self* time is its duration minus the time of the
spans opened inside it, so the self times of all spans add up to the
time covered by the outermost ones.  Spans are aggregated per name in
memory (count, inclusive seconds, self seconds) and read once the
operation ends; nothing is written while the simulator runs.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: The repository's modules, used as the layers of the per-layer report.
LAYERS: Tuple[str, ...] = ("workloads", "sim", "core", "memsys",
                           "interconnect", "emc", "prefetch", "analysis",
                           "lint")

#: (module, class or None, attribute, span name).  A class entry also
#: patches every loaded subclass that overrides the attribute, so e.g.
#: each concrete prefetcher's ``observe`` is timed.
SPAN_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.events", "EventWheel", "run", "sim.drain"),
    ("repro.sim.system", "System", "__init__", "sim.init"),
    ("repro.sim.system", "System", "warmup", "sim.warmup"),
    ("repro.sim.system", "System", "run", "sim.run"),
    ("repro.sim.system", "System", "fork", "sim.fork"),
    ("repro.sim.system", "System", "checkpoint", "sim.checkpoint"),
    ("repro.sim.system", "System", "from_checkpoint", "sim.restore"),
    ("repro.memsys.hierarchy", "MemoryHierarchy", "demand_request",
     "memsys.demand_request"),
    ("repro.memsys.hierarchy", "MemoryHierarchy", "emc_fetch",
     "memsys.emc_fetch"),
    ("repro.memsys.llc", "LLC", "access", "memsys.llc_access"),
    ("repro.memsys.llc", "LLC", "fill", "memsys.llc_fill"),
    ("repro.memsys.dram", "DRAMChannel", "enqueue", "memsys.dram_enqueue"),
    ("repro.interconnect.base", "Interconnect", "send",
     "interconnect.send"),
    ("repro.emc.controller", "EMC", "accept_chain", "emc.accept_chain"),
    ("repro.emc.miss_predictor", "OffChipPredictor", "predict_miss",
     "emc.predict_miss"),
    ("repro.emc.miss_predictor", "OffChipPredictor", "update",
     "emc.predictor_update"),
    ("repro.prefetch.base", "Prefetcher", "observe", "prefetch.observe"),
    ("repro.workloads.mixes", None, "build_named", "workloads.build"),
    ("repro.analysis.parallel", None, "execute_job",
     "analysis.execute_job"),
    ("repro.analysis.parallel", None, "_cache_store",
     "analysis.result_store"),
    ("repro.analysis.spec", None, "load_spec", "analysis.spec"),
    ("repro.analysis.farm", None, "render_outputs", "analysis.render"),
    ("repro.lint.engine", None, "lint_paths", "lint.lint_paths"),
    ("repro.lint.engine", None, "_parse", "lint.parse"),
    ("repro.lint.engine", None, "_check_file", "lint.rules"),
    ("repro.lint.graph", "ProjectGraph", "add_module", "lint.graph"),
    ("repro.lint.graph", "ProjectGraph", "_compute_taint", "lint.graph"),
)

#: Packages whose subclasses must be loaded before patching, so that
#: every concrete fabric, predictor and prefetcher is found.
_SUBCLASS_PACKAGES = ("repro.interconnect", "repro.emc.miss_predictor",
                      "repro.prefetch")


class Ledger:
    """Per-span-name totals of one traced operation."""

    def __init__(self) -> None:
        #: span name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: child-time accumulator of each open span; [0] is the root
        self._stack: List[float] = [0.0]
        self._event_span_of_module: Dict[str, str] = {}
        #: bytes of checkpoint payload written
        self.checkpoint_bytes = 0
        #: trace uops built
        self.uops = 0

    def _totals(self, name: str) -> List[float]:
        totals = self.spans.get(name)
        if totals is None:
            totals = self.spans[name] = [0, 0.0, 0.0]
        return totals

    def _span(self, name: str, fn: Callable) -> Callable:
        totals = self._totals(name)
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children
                stack[-1] += elapsed

        return span

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        span = functools.wraps(fn)(self._span(name, fn))
        span.__perfbench_span__ = True
        return span

    def event(self, callback: Callable) -> Callable:
        """``callback`` wrapped so its dispatch is one ``<layer>.event``,
        the layer being the ``repro.<layer>`` package that defined it."""
        module = getattr(callback, "__module__", None)
        if module is None:                  # functools.partial and kin
            module = getattr(getattr(callback, "func", None),
                             "__module__", "")
        name = self._event_span_of_module.get(module)
        if name is None:
            parts = module.split(".")
            layer = (parts[1] if len(parts) > 1 and parts[0] == "repro"
                     else "other")
            name = self._event_span_of_module[module] = f"{layer}.event"
        # No functools.wraps here: this runs once per scheduled event.
        return self._span(name, callback)

    # -- reading the totals ---------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def inclusive_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def events(self) -> int:
        """Events dispatched, all layers."""
        return sum(int(calls) for name, (calls, _i, _s) in self.spans.items()
                   if name.endswith(".event"))

    def sim_s(self) -> float:
        """Host time inside the simulation loops (warmup and run)."""
        return self.inclusive_s("sim.warmup") + self.inclusive_s("sim.run")

    def by_layer(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls and events, self seconds)."""
        out: Dict[str, Tuple[int, float]] = {}
        for name, (calls, _incl, self_s) in self.spans.items():
            layer = name.split(".")[0]
            total_calls, total_s = out.get(layer, (0, 0.0))
            out[layer] = (total_calls + int(calls), total_s + self_s)
        return out


def _all_subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _patch_targets(ledger: Ledger) -> Iterator[Tuple[object, str, object,
                                                     object]]:
    """(owner, attribute, original, replacement) for every span target
    whose module is loaded and not yet patched."""
    for module_name, class_name, attr, span_name in SPAN_TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if class_name is None:
            owners = [module]
        else:
            base = getattr(module, class_name)
            owners = [base, *_all_subclasses(base)]
        for owner in owners:
            original = vars(owner).get(attr)
            if original is None:
                continue
            func = getattr(original, "__func__", original)
            if getattr(func, "__perfbench_span__", False):
                continue
            if span_name in _RECORDERS:
                func = _recording(ledger, _RECORDERS[span_name], func)
            wrapped = ledger.timed(span_name, func)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            yield owner, attr, original, wrapped


def _count_checkpoint(ledger: Ledger, args: tuple, _result) -> None:
    ledger.checkpoint_bytes += os.path.getsize(args[1])


def _count_uops(ledger: Ledger, _args: tuple, workload) -> None:
    ledger.uops += sum(len(trace) for trace, _image in workload)


#: span name -> what to record from its call's arguments and result
_RECORDERS = {"sim.checkpoint": _count_checkpoint,
              "workloads.build": _count_uops}


def _recording(ledger: Ledger, record: Callable, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(ledger, args, result)
        return result

    return recorded


def _event_targets(ledger: Ledger) -> Iterator[Tuple[object, str, object,
                                                     object]]:
    from repro.sim.events import EventWheel
    schedule = vars(EventWheel)["schedule"]
    schedule_at = vars(EventWheel)["schedule_at"]
    if getattr(schedule, "__perfbench_span__", False):
        return
    event = ledger.event

    def traced_schedule(wheel, delay, callback):
        schedule(wheel, delay, event(callback))

    def traced_schedule_at(wheel, when, callback):
        schedule_at(wheel, when, event(callback))

    for func in (traced_schedule, traced_schedule_at):
        func.__perfbench_span__ = True
    yield EventWheel, "schedule", schedule, traced_schedule
    yield EventWheel, "schedule_at", schedule_at, traced_schedule_at


@contextmanager
def installed(ledger: Ledger) -> Iterator[Callable[[], None]]:
    """Patch every layer boundary for the duration of the block.

    Yields a ``refresh`` callable that patches modules loaded (or
    re-imported) since the block began.  Every patch is undone on exit,
    newest first.
    """
    for package in _SUBCLASS_PACKAGES:
        importlib.import_module(package)
    undo: List[Tuple[object, str, object]] = []

    def refresh() -> None:
        for owner, attr, original, wrapped in [*_event_targets(ledger),
                                               *_patch_targets(ledger)]:
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))

    refresh()
    try:
        yield refresh
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
