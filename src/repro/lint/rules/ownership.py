"""Ownership rules: SIM005 and SIM008 over one classification of writes.

Every piece of simulator state has one writer, the component that owns
it.  A write from anywhere else couples components to each other's
internals: double-counted stats become invisible (and the sweep cache
memoizes them), and a fork's ``snapshot``/``reseat`` contract no longer
covers every writer, so it can silently resurrect or lose the foreign
mutation.  The sanctioned shape is one hop to a peer and then a method
on the owner (``sl.note_writeback()``, ``dram.seed_open_row(a)``).

One pass over the module's node index visits every assignment target
and the receiver of every in-place mutator call, and classifies the
attribute chain it mutates:

- **SIM005** foreign-stats-mutation: an assignment through ``.stats``
  anywhere but directly on ``self`` (``core.stats.llc_misses += 1``,
  ``self.prefetcher.stats.useful += 1``).  ``self.stats.<field> = ...``
  is the component updating its own stats; ``self.stats = ...`` rebinds
  its pointer.  Mutator calls are not judged here.
- **SIM008** cross-component-reach-through: otherwise, a write landing
  two or more attribute hops from ``self``
  (``self.system.dram.queue.append(req)``); indexing adds no hop.
  Chains whose first hop is ``stats`` or ``cfg`` are exempt: stats
  belong to SIM005 and config is plumbing.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..findings import Finding, LintContext
from ..graph import attribute_chain
from ..registry import Rule, register_rule
from .common import calls_method, module_of, target_names

#: container/mapping methods that mutate their receiver in place
MUTATOR_METHODS = frozenset({
    "append", "extend", "add", "update", "insert", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
    "appendleft", "extendleft", "move_to_end",
})

#: first hops with their own rules/conventions, exempt from SIM008
EXEMPT_FIRST_HOPS = frozenset({"stats", "cfg"})


def _deep_chain(node: ast.expr) -> Tuple[ast.expr, List[str]]:
    """Like :func:`attribute_chain`, but transparent through subscripts:
    ``a.b[i].c`` -> ``(a, ["b", "c"])``."""
    attrs: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attrs.append(node.attr)
        node = node.value
    attrs.reverse()
    return node, attrs


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _classify(target: ast.expr,
              how: Optional[str]) -> Optional[Tuple[str, str]]:
    """``(code, message)`` for a mutation of ``target`` — an assignment
    when ``how`` is None, else the named mutator call — or None."""
    if how is None and isinstance(target, ast.Attribute):
        base, attrs = attribute_chain(target)
        if "stats" in attrs[:-1]:
            if attrs.index("stats") == 0 and _is_self(base):
                return None
            through = ".".join(
                ([base.id] if isinstance(base, ast.Name) else ["<expr>"])
                + attrs[:-1])
            return "SIM005", (
                f"stats counter {attrs[-1]!r} mutated through foreign "
                f"object '{through}'; route it through a method on the "
                f"owning component")
    base, attrs = _deep_chain(target)
    # attrs[-1] is what is mutated, the rest is the reach: one hop is the
    # owner touching a direct member, two or more cross a boundary.
    if (not _is_self(base) or len(attrs) < 3
            or attrs[0] in EXEMPT_FIRST_HOPS or "stats" in attrs[:-1]):
        return None
    chain = "self." + ".".join(attrs)
    return "SIM008", (
        f"{how or 'assignment'} mutates '{chain}', {len(attrs) - 1} hops "
        f"from self: '{attrs[-1]}' belongs to a component reached through "
        f"'{'.'.join(attrs[:-1])}'; route the write through a method on "
        f"its owner")


def _ownership_hits(nodes: List[ast.AST]
                    ) -> Iterator[Tuple[str, ast.AST, str]]:
    """``(code, node, message)`` for every classified mutation among
    ``nodes``."""
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            mutated = [(target, None) for target in target_names(node)]
        elif (isinstance(node, ast.Call)
              and calls_method(node, MUTATOR_METHODS)):
            mutated = [(node.func.value, f".{node.func.attr}() call")]
        else:
            continue
        for target, how in mutated:
            hit = _classify(target, how)
            if hit is not None:
                yield hit[0], node, hit[1]


class _OwnershipRule(Rule):
    """Reports the mutations :func:`_classify` assigns to ``self.code``."""

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        for code, node, message in _ownership_hits(
                module_of(tree, ctx).nodes):
            if code == self.code:
                yield self.finding(ctx, node, message)


@register_rule
class ForeignStatsMutation(_OwnershipRule):
    code = "SIM005"
    name = "foreign-stats-mutation"
    description = (
        "Assignment through another object's .stats container "
        "(x.stats.counter += 1 where x is not self): stats counters must "
        "be mutated by their owning component.  Add a note_*() method on "
        "the owner and call that instead.")


@register_rule
class CrossComponentReachThrough(_OwnershipRule):
    code = "SIM008"
    name = "cross-component-reach-through"
    description = (
        "State mutated >= 2 attribute hops from self (e.g. "
        "self.system.dram.queue.append(...)): the structure belongs to "
        "another component, and writes that bypass its owner escape the "
        "snapshot/reseat contract.  Add a method on the owning component "
        "and call that instead.")
