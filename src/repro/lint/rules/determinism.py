"""Determinism rules: SIM002, SIM003 and SIM013 over the project graph.

A simulation is only reproducible if nothing in it reads the host: not
the wall clock, not host entropy, not the interpreter-global RNG (whose
state depends on everything that drew from it first; ``random.seed()``
rewrites it under every other component).  The sanctioned pattern is a
per-instance generator seeded from the config —
``random.Random(seed)`` / ``np.random.default_rng(seed)`` — and the
event wheel's ``now`` for time.

One analysis serves all three codes.  The
:class:`~repro.lint.graph.ProjectGraph` classifies every direct read
once per module, resolving names through the module's whole import
table (function-local imports included), and its taint fixpoint
summarizes which project functions return such a value.  The rules only
pick findings out of those facts:

- **SIM002** unseeded-randomness (every file): a global-RNG call made
  through a module (``random.random()``, ``np.random.rand()``,
  ``npr.rand()``), and each ``from random import randint``-style binding
  of a global-RNG function, reported once on the import line rather than
  at its bare calls.
- **SIM003** wall-clock-in-hot-path (hot packages): a direct host-clock
  read (``time.perf_counter()``, ``datetime.now()``, ...).  Host timing
  belongs in the analysis layer.
- **SIM013** determinism-taint-flow (hot packages): a value tainted
  *through project helper calls* reaches a timing sink (a cycle-named
  assignment or a ``schedule``/``schedule_at``/``send`` argument, the
  scan :mod:`.timing` uses).  A direct read on the sink line is already
  SIM002/SIM003's finding.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..findings import Finding, LintContext
from ..graph import GLOBAL_RNG, WALL_CLOCK
from ..registry import Rule, register_rule
from .common import module_of
from .timing import TIMING_CALLS, timing_sinks


@register_rule
class UnseededRandom(Rule):
    code = "SIM002"
    name = "unseeded-randomness"
    description = (
        "Call through the process-global RNG (random.* module functions, "
        "random.seed, numpy's legacy np.random.* globals): breaks "
        "bit-determinism and cross-run isolation.  Use a per-instance "
        "random.Random(seed) / np.random.default_rng(seed) wired from "
        "the config instead.")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        module = module_of(tree, ctx)
        for node, origin in module.bound_sources:
            if origin.startswith(GLOBAL_RNG):
                yield self.finding(
                    ctx, node,
                    f"import binds {origin}; import the Random class and "
                    f"seed a per-instance generator instead")
        for call, origin in module.sources.items():
            # A bare call of a from-imported name was reported at the
            # import.
            if (origin.startswith(GLOBAL_RNG)
                    and isinstance(call.func, ast.Attribute)):
                yield self.finding(
                    ctx, call,
                    f"call to {origin}; use a per-instance "
                    f"random.Random(seed) / np.random.default_rng(seed)")


@register_rule
class WallClockRead(Rule):
    code = "SIM003"
    name = "wall-clock-in-hot-path"
    description = (
        "Host wall-clock read (time.time/monotonic/perf_counter, "
        "datetime.now, ...) inside a simulation hot-path package "
        "(sim/core/memsys/emc/interconnect/prefetch).  Simulated time is "
        "EventWheel.now; host timing belongs in the analysis layer.")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        if not ctx.hot_path:
            return
        for call, origin in module_of(tree, ctx).sources.items():
            if origin.startswith(WALL_CLOCK):
                yield self.finding(
                    ctx, call,
                    f"{origin} in a simulation hot path; use the event "
                    f"wheel's simulated time (wheel.now) or move host "
                    f"timing to the analysis layer")


def _laundered(graph, fn, values, tainted, summaries) -> Optional[str]:
    """Taint origin of the first value tainted through a project call."""
    for value in values:
        origin = graph.expr_taint(fn, value, tainted, summaries)
        if origin is not None and "via call to" in origin:
            return origin
    return None


@register_rule
class TaintedTimeFlow(Rule):
    code = "SIM013"
    name = "determinism-taint-flow"
    description = (
        "A value derived from host wall-clock, host entropy, or the "
        "process-global RNG flows *through project helper calls* into "
        "hot-path cycle arithmetic or event scheduling: the simulated "
        "timeline silently depends on the host.  Thread a seeded "
        "random.Random / integer cycle value instead.  (Direct reads at "
        "the sink line are SIM002/SIM003.)")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        graph, module = ctx.graph, ctx.module
        if not ctx.hot_path or graph is None or module is None:
            return
        summaries = graph.taint_summaries()
        for fn in module.all_functions():
            if not graph.can_taint(fn, summaries):
                continue
            tainted = graph.tainted_locals(fn, summaries)
            for node, what, values in timing_sinks(fn.nodes, TIMING_CALLS):
                origin = _laundered(graph, fn, values, tainted, summaries)
                if origin is None:
                    continue
                if isinstance(node, ast.Call):
                    message = (f"{what}() argument is tainted by "
                               f"{origin}; event timing must not depend "
                               f"on the host")
                else:
                    message = (f"cycle-valued target {what!r} receives a "
                               f"value tainted by {origin}; simulated time "
                               f"must not depend on the host")
                yield self.finding(ctx, node, message)
