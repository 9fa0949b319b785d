"""SIM011: stats counters must be reachable from the owner's reset_stats.

The warmup/measure boundary calls :meth:`reset_stats` on every component
and trusts it to zero *all* statistical state; a counter a hot-path
component bumps but its ``reset_stats`` never reaches keeps warmup-window
counts in the measured region, biasing every figure that reads it — and
the two-run sanitizer cannot see it, because both runs are biased
identically.

Whole-program mechanics: for each SimComponent subclass in a hot package,
every ``self.<root>.<counter> += ...`` whose root attribute looks
statistical (its name contains ``stats``) must have ``self.<root>``
mentioned in the transitive self-call closure of the class's
``reset_stats`` (resolved across modules and through helpers; handing the
instance to ``reset_dataclass_stats`` counts as full coverage).

Roots that are *aliases* — assigned in ``__init__`` straight from a
constructor parameter or another object's attribute (``self.stats =
stats``, ``self.stats = system.stats.emc``) — are exempt: the object is
owned, and reset, by whoever built it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from ..findings import Finding, LintContext
from ..graph import attribute_chain
from ..registry import Rule, register_rule


def _is_alias_value(value: Optional[ast.expr]) -> bool:
    """RHS shapes that adopt somebody else's object instead of building
    one: a bare name (parameter) or an attribute read."""
    return isinstance(value, (ast.Name, ast.Attribute))


@register_rule
class ResetCoverage(Rule):
    code = "SIM011"
    name = "reset-coverage"
    description = (
        "A hot-path SimComponent mutates a statistical counter "
        "(self.<stats-root>.<field> += ...) that its reset_stats (and "
        "helpers, across the class hierarchy) never reaches: the "
        "warmup/measure boundary will leak warmup counts into measured "
        "figures.  Reset the container in reset_stats, or alias it from "
        "its true owner.")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        if not ctx.hot_path:
            return
        graph, module = ctx.graph, ctx.module
        if graph is None or module is None:
            return
        for cls in sorted(module.classes.values(),
                          key=lambda c: c.node.lineno):
            if not graph.is_sim_component(cls):
                continue
            mutated = self._stats_mutations(cls)
            if not mutated:
                continue
            covered, wildcard = graph.reachable_state_coverage(
                cls, ("reset_stats",))
            if wildcard:
                continue
            has_reset = graph.find_method(
                cls, "reset_stats", skip_root=True) is not None
            for root in sorted(mutated):
                node, counter = mutated[root]
                if root in covered:
                    continue
                if self._is_alias_root(graph, cls, root):
                    continue
                why = ("has no reset_stats implementation"
                       if not has_reset else
                       f"never reaches 'self.{root}' from reset_stats")
                yield self.finding(
                    ctx, node,
                    f"{cls.name} mutates counter "
                    f"'self.{root}.{counter}' but {why}; the "
                    f"warmup/measure boundary will not zero it")

    @staticmethod
    def _stats_mutations(cls) -> Dict[str, Tuple[ast.AST, str]]:
        """stats-root attr -> (first mutation node, counter name)."""
        out: Dict[str, Tuple[ast.AST, str]] = {}
        for name, method in cls.methods.items():
            if name in ("reset_stats", "__init__"):
                continue
            for node in method.assigns:
                if not isinstance(node, ast.AugAssign):
                    continue
                base, attrs = attribute_chain(node.target)
                if (not isinstance(base, ast.Name) or base.id != "self"
                        or len(attrs) < 2):
                    continue
                root = attrs[0]
                if "stats" not in root.lower():
                    continue
                prev = out.get(root)
                if prev is None or (node.lineno, node.col_offset) < (
                        prev[0].lineno, prev[0].col_offset):
                    out[root] = (node, attrs[-1])
        return out

    @staticmethod
    def _is_alias_root(graph, cls, root: str) -> bool:
        order, _unresolved = graph.ancestors(cls)
        for anc in order:
            assign = anc.init_attrs.get(root)
            if assign is not None:
                return _is_alias_value(assign.value)
        return False
