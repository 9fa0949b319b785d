"""SIM010: snapshot-completeness for SimComponent subclasses.

The snapshot/reseat protocol (``repro.sim.component``) is the
substrate under warmup sharing, quiesced checkpoints, and ``System.fork``:
a mutable attribute a component's ``__init__`` creates but its protocol
methods never touch is *silently dropped* by every checkpoint and fork —
the restored machine diverges only where that attribute mattered, which
the runtime sanitizer may or may not reach.

This rule is whole-program: class hierarchies resolve across modules via
the :class:`~repro.lint.graph.ProjectGraph`, so a subclass inheriting
``snapshot`` from a base in another file is judged against that base
(including hook dispatch — a base ``snapshot`` calling
``self._arch_snapshot()`` covers whatever the subclass's override
mentions).

An attribute counts as **state** (and must be covered) when its first
``__init__`` assignment builds a fresh mutable container (``{}``, ``[]``,
``deque()``, a comprehension, ...) or a bare scalar literal
(``0``/``0.0``/``False``/``None`` — counters, clocks, flags).  Wiring and
config attributes (``self.cfg = cfg``, ``self.num_sets = size // ways``)
are derived from constructor inputs and are exactly what snapshots
deliberately do not carry.

An attribute counts as **covered** when ``self.<attr>`` is mentioned
anywhere in the transitive self-call closure of ``snapshot``/``reseat``/
``config_state``/``reset_stats`` (resolved against the subclass, so
shared helpers like ``_reseat_dram`` count; ``restore`` is defined once,
on the protocol root, and only reseats), or when that closure hands the
whole instance to ``reset_dataclass_stats`` or uses dynamic
``getattr(self, ...)`` access.  ``reset_stats`` is a root because a
machine is snapshotted only at cycle 0, where every counter it resets
sits at its construction value: a statistic is covered by being reset,
and snapshots carry none.

Exempt a genuinely transient attribute (never live across a quiesced
boundary) with an inline justification::

    # Drained before any snapshot; holds no cross-event state.
    self._scratch = []  # simlint: disable=SIM010
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..findings import Finding, LintContext
from ..registry import Rule, register_rule
from .common import MUTABLE_CALLS, call_name, is_mutable_container

#: protocol methods whose closure defines snapshot coverage
PROTOCOL_ROOTS = ("snapshot", "reseat", "config_state", "reset_stats")


def _is_state_value(value: Optional[ast.expr]) -> bool:
    """True when the first-assignment RHS marks workload/mutable state."""
    if value is None:
        return False
    if is_mutable_container(value):
        return True
    if isinstance(value, ast.Constant):
        return value.value is None or isinstance(value.value,
                                                 (bool, int, float))
    return False


def _is_state_field(value: Optional[ast.expr]) -> bool:
    """Dataclass-field variant: also treat ``field(default_factory=list)``
    as mutable-container state."""
    if _is_state_value(value):
        return True
    if isinstance(value, ast.Call) and call_name(value) == "field":
        for kw in value.keywords:
            if kw.arg == "default_factory" and isinstance(
                    kw.value, ast.Name) and kw.value.id in MUTABLE_CALLS:
                return True
    return False


@register_rule
class SnapshotCompleteness(Rule):
    code = "SIM010"
    name = "snapshot-completeness"
    description = (
        "A SimComponent subclass's __init__ creates mutable state (a "
        "fresh container or a scalar literal) that no snapshot/reseat/"
        "config_state/reset_stats implementation in its class hierarchy "
        "ever mentions: checkpoints and forks silently drop it.  Cover "
        "the attribute in the protocol, or exempt a transient with "
        "'# simlint: disable=SIM010' plus a justification.")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        graph, module = ctx.graph, ctx.module
        if graph is None or module is None:
            return
        for cls in sorted(module.classes.values(),
                          key=lambda c: c.node.lineno):
            if not graph.is_sim_component(cls):
                continue
            # No concrete snapshot anywhere below the protocol root:
            # nothing to be incomplete against (abstract intermediary).
            if graph.find_method(cls, "snapshot", skip_root=True) is None:
                continue
            covered, wildcard = graph.reachable_state_coverage(
                cls, PROTOCOL_ROOTS)
            if wildcard:
                continue
            if cls.is_dataclass:
                table = {name: a for name, a
                         in cls.dataclass_fields.items()
                         if _is_state_field(a.value)}
            else:
                table = {name: a for name, a in cls.init_attrs.items()
                         if _is_state_value(a.value)}
            for name in sorted(table, key=lambda n: table[n].lineno):
                if name in covered:
                    continue
                assign = table[name]
                anchor = ast.copy_location(ast.Pass(), assign.value
                                           if assign.value is not None
                                           else cls.node)
                anchor.lineno = assign.lineno
                anchor.col_offset = assign.col
                yield self.finding(
                    ctx, anchor,
                    f"{cls.name}.__init__ assigns state attribute "
                    f"{name!r} that snapshot/reseat/config_state/"
                    f"reset_stats (and their helpers) never cover; "
                    f"checkpoints and "
                    f"forks will silently drop it")
