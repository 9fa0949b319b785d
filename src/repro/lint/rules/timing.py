"""Timing-sink rules: SIM004, SIM007 and SIM009 over one sink scan.

Every simulated timestamp is an integer cycle count, and the event wheel
orders events by exact comparison.  A value becomes simulated time in
two places — an assignment to a cycle-named target (``*_cycle[s]``,
``*_tick[s]``, ``*_at``, ``when``, ``deadline``) or an argument of an
event-wheel call (``schedule``/``schedule_at``, and ``send`` on the
fabric) — and each rule here guards one way a value can go wrong there:

- **SIM004** float-cycle-arithmetic: a true division (``/``) whose result
  is not re-coerced by ``int``/``round``/``floor``/``ceil`` reaches a
  cycle-named target or a ``schedule``/``schedule_at`` argument.  The
  timeline silently becomes floats and event order rounding-dependent.
- **SIM007** event-scheduled-in-the-past: the absolute time of a
  ``schedule_at(t, ...)`` is not provably ``>= now``.  Provably safe
  values are a ``.now`` read, a name called ``now``, an addition with a
  safe operand, a ``max(...)`` clamp with a safe argument, or a local
  name *every* assignment of which is safe (least fixpoint, with
  ``x += y`` read as ``x + y`` so ``now``-anchored chains stay clean).
  ``EventWheel.schedule_at`` raises on a past time only for the inputs
  that reach it at runtime; delay-based ``schedule()`` is the usual fix.
- **SIM009** unordered-iteration-into-timing: a ``for`` loop over a set
  (literal, comprehension, ``set()``/``frozenset()``, a set operator, or
  a local name every assignment of which is one of those — greatest
  fixpoint, with ``x op= y`` recording only ``y``) whose body calls
  ``schedule``/``schedule_at``/``send``: event order inherits hash
  order.  Dict iteration is not flagged; insertion order is defined and
  the simulator leans on it.  Iterate ``sorted(...)`` instead.

All three apply to hot-package files only.  SIM013 (in
:mod:`.determinism`) reuses the same sink scan for laundered host time.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..findings import Finding, LintContext
from ..graph import ModuleInfo
from ..registry import Rule, register_rule
from .common import call_name, calls_method, module_of, target_names

#: cycle-valued target names
_CYCLE_NAME = re.compile(
    r"(?:^|_)(?:cycle|cycles|tick|ticks|when|deadline)$|_at$")
#: event-wheel calls whose arguments are event times or delays
SCHEDULE_CALLS = frozenset({"schedule", "schedule_at"})
#: ... plus the fabric's ``send``, which schedules the delivery
TIMING_CALLS = SCHEDULE_CALLS | {"send"}
_SCHEDULE_AT = frozenset({"schedule_at"})

#: set operators that yield a set when an operand is one
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)

_Assignments = Dict[str, List[ast.expr]]


def _terminal_name(target: ast.expr) -> str:
    """``x`` -> ``x``, ``a.b.x`` -> ``x``; anything else -> ``""``."""
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return ""


def timing_sinks(nodes: List[ast.AST], calls: FrozenSet[str]
                 ) -> Iterator[Tuple[ast.AST, str, List[ast.expr]]]:
    """Every place among ``nodes`` where a value becomes simulated time:
    ``(assignment, first cycle-named target, [value])`` and ``(call,
    method name, arguments)`` for a method call named in ``calls``."""
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if node.value is None:
                continue
            for target in target_names(node):
                name = _terminal_name(target)
                if _CYCLE_NAME.search(name):
                    yield node, name, [node.value]
                    break
        elif calls_method(node, calls):
            yield node, node.func.attr, list(node.args) + [
                kw.value for kw in node.keywords]


def _collect_assignments(scope: List[ast.AST],
                         aug_as_binop: bool) -> _Assignments:
    """Name -> every expression assigned to it among the ``scope`` nodes.

    ``x op= y`` records ``x op y`` when ``aug_as_binop``, else just
    ``y``.  Tuple unpacking, loop targets and ``with ... as`` bindings
    are not recorded: a name bound only that way has no assignments.
    """
    assigns: _Assignments = {}
    for node in scope:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigns.setdefault(target.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                assigns.setdefault(node.target.id, []).append(node.value)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                value = node.value
                if aug_as_binop:
                    value = ast.BinOp(
                        left=ast.Name(id=node.target.id, ctx=ast.Load()),
                        op=node.op, right=value)
                assigns.setdefault(node.target.id, []).append(value)
    return assigns


def _names_where(assigns: _Assignments,
                 holds: Callable[[ast.expr, Set[str]], bool],
                 start: Set[str]) -> Set[str]:
    """Names every assignment of which ``holds``, given the names found
    so far.  Iterated to a fixpoint from ``start``: the least one from no
    names, the greatest from every assigned name."""
    names = start
    while True:
        found = {name for name, values in assigns.items()
                 if all(holds(value, names) for value in values)}
        if found == names:
            return names
        names = found


def _scoped(module: ModuleInfo, want: Callable[[ast.AST], bool],
            aug_as_binop: bool
            ) -> Iterator[Tuple[_Assignments, List[ast.AST]]]:
    """The nodes ``want`` accepts, grouped by scope, with that scope's
    assignments.  A node's scope is its outermost enclosing function;
    module-level nodes come last, against the whole module's
    assignments."""
    in_functions: Set[int] = set()
    for function in module.scopes():
        nodes = module.walk(function)
        picked = [node for node in nodes if want(node)]
        if picked:
            in_functions.update(map(id, picked))
            yield _collect_assignments(nodes, aug_as_binop), picked
    picked = [node for node in module.nodes
              if want(node) and id(node) not in in_functions]
    if picked:
        yield _collect_assignments(module.nodes, aug_as_binop), picked


def _contains_true_div(node: ast.AST) -> bool:
    """True when ``node`` contains a ``/`` whose float result escapes
    (one fully wrapped in an int-coercing call does not)."""
    if isinstance(node, ast.Call) and call_name(node) in (
            "int", "round", "floor", "ceil"):
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    return any(_contains_true_div(child)
               for child in ast.iter_child_nodes(node))


@register_rule
class FloatCycleArithmetic(Rule):
    code = "SIM004"
    name = "float-cycle-arithmetic"
    description = (
        "True division (/) feeding a cycle/tick attribute or an event-"
        "wheel schedule() argument in hot-path code: simulated timestamps "
        "must stay integers or event ordering becomes rounding-dependent. "
        "Use // or wrap in int()/round().")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        if not ctx.hot_path:
            return
        for node, what, values in timing_sinks(module_of(tree, ctx).nodes,
                                               SCHEDULE_CALLS):
            if isinstance(node, ast.Call):
                if any(_contains_true_div(arg) for arg in values):
                    yield self.finding(
                        ctx, node,
                        f"true division in a {what}() argument; event "
                        f"delays must be integral cycles (use // or "
                        f"int(...))")
            elif _contains_true_div(values[0]) or (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, ast.Div)):
                yield self.finding(
                    ctx, node,
                    f"true division feeds cycle-valued target {what!r}; "
                    f"simulated time must stay integral (use // or "
                    f"int(...))")


def _time_argument(call: ast.Call) -> Optional[ast.expr]:
    """The absolute-time argument of a ``schedule_at`` call, if present."""
    if call.args:
        first = call.args[0]
        return None if isinstance(first, ast.Starred) else first
    for kw in call.keywords:
        if kw.arg == "time":
            return kw.value
    return None


def _is_safe(expr: ast.expr, safe: Set[str]) -> bool:
    if isinstance(expr, ast.Attribute):
        return expr.attr == "now"
    if isinstance(expr, ast.Name):
        return expr.id == "now" or expr.id in safe
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "max"):
        return any(_is_safe(arg, safe) for arg in expr.args
                   if not isinstance(arg, ast.Starred))
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return _is_safe(expr.left, safe) or _is_safe(expr.right, safe)
    return False


@register_rule
class PastEventSchedule(Rule):
    code = "SIM007"
    name = "event-scheduled-in-the-past"
    description = (
        "schedule_at() called with an absolute time that is not provably "
        ">= the wheel's now (a .now read, 'now + delay', or a "
        "'max(..., now)' clamp).  A past time raises ValueError at "
        "runtime; use delay-based schedule() or clamp with "
        "max(t, wheel.now).")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        if not ctx.hot_path:
            return
        for assigns, calls in _scoped(
                module_of(tree, ctx),
                lambda node: calls_method(node, _SCHEDULE_AT),
                aug_as_binop=True):
            safe = _names_where(assigns, _is_safe, set())
            for call in calls:
                when = _time_argument(call)
                if when is None or _is_safe(when, safe):
                    continue
                yield self.finding(
                    ctx, call,
                    "absolute event time is not provably >= wheel.now; "
                    "derive it from a .now read ('now + delay') or clamp "
                    "with max(t, wheel.now) — or use delay-based "
                    "schedule()")


def _is_setlike(expr: ast.expr, setlike: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        return call_name(expr) in ("set", "frozenset")
    if isinstance(expr, ast.Name):
        return expr.id in setlike
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
        return (_is_setlike(expr.left, setlike)
                or _is_setlike(expr.right, setlike))
    return False


@register_rule
class UnorderedIterationIntoTiming(Rule):
    code = "SIM009"
    name = "unordered-iteration-into-timing"
    description = (
        "for-loop over a set whose body schedules events or sends ring "
        "messages: set iteration order is hash order, so event order — "
        "and simulated timing — silently depends on it.  Iterate "
        "sorted(...) or keep the collection in an ordered container.")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        if not ctx.hot_path:
            return
        for assigns, loops in _scoped(
                module_of(tree, ctx), lambda node: isinstance(node, ast.For),
                aug_as_binop=False):
            setlike = _names_where(assigns, _is_setlike, set(assigns))
            for loop in loops:
                if _is_setlike(loop.iter, setlike) and any(
                        calls_method(node, TIMING_CALLS)
                        for node in ast.walk(loop)):
                    yield self.finding(
                        ctx, loop,
                        "loop over an unordered set schedules events / "
                        "sends messages: event order inherits hash order; "
                        "iterate sorted(...) or use an ordered container")
