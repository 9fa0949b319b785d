"""SIM001: shared mutable state at module or class level.

The PR-1 bug class: the shared ``PageTable`` frame allocator was a
class-level dict, so every ``System`` silently shared (and corrupted) one
physical address space.  Any module- or class-level *mutable* container in
simulator code is the same hazard — one object shared by every instance
and every run in the process.

True constants are fine, but the rule verifies immutability instead of
trusting naming: a module-level table passes when it is a tuple/frozenset,
is wrapped in ``types.MappingProxyType``, or carries a ``Final``
annotation (machine-checked intent; rebinding is then a type error).
Class-level containers get no ``Final`` exemption — the hazard there is
instance *sharing*, which ``Final`` does not prevent; hoist the container
into ``__init__`` or use ``dataclasses.field(default_factory=...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, LintContext
from ..registry import Rule, register_rule
from .common import (call_name, is_final_annotation, is_mutable_container,
                     module_of)


def _is_dataclass_field(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node) == "field"


def _target_name(target: ast.expr) -> str:
    if isinstance(target, ast.Name):
        return target.id
    return ast.dump(target)


@register_rule
class SharedMutableState(Rule):
    code = "SIM001"
    name = "shared-mutable-state"
    description = (
        "Module- or class-level mutable container in simulator code: one "
        "object shared by every instance and every run in the process "
        "(the PR-1 PageTable bug class).  Make it immutable (tuple / "
        "frozenset / MappingProxyType, or Final at module level) or move "
        "it into __init__.")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        yield from self._scan_body(tree.body, ctx, class_level=False)
        for node in module_of(tree, ctx).nodes:
            if isinstance(node, ast.ClassDef):
                yield from self._scan_body(node.body, ctx, class_level=True,
                                           class_name=node.name)

    def _scan_body(self, body, ctx: LintContext, class_level: bool,
                   class_name: str = "") -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets, value, annotation = stmt.targets, stmt.value, None
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
                annotation = stmt.annotation
            else:
                continue
            if not is_mutable_container(value):
                continue
            if _is_dataclass_field(value):
                continue
            if not class_level and is_final_annotation(annotation):
                continue
            names = [_target_name(t) for t in targets]
            if all(n.startswith("__") and n.endswith("__") for n in names):
                continue  # __all__, __slots__ and friends
            where = (f"class {class_name}" if class_level else "module")
            hint = ("hoist into __init__ or use "
                    "dataclasses.field(default_factory=...)"
                    if class_level else
                    "use a tuple/frozenset/MappingProxyType or annotate "
                    "it Final")
            yield self.finding(
                ctx, stmt,
                f"{where}-level mutable container "
                f"{', '.join(repr(n) for n in names)} is shared across "
                f"instances and runs; {hint}")
