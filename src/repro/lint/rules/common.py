"""AST helpers shared by the built-in rules."""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional

from ..findings import LintContext
from ..graph import ModuleInfo

#: constructors that build mutable containers
MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter", "ChainMap",
})

#: constructors/wrappers whose result is read-only
IMMUTABLE_CALLS = frozenset({
    "tuple", "frozenset", "MappingProxyType", "mappingproxy",
})


def module_of(tree: ast.Module, ctx: LintContext) -> ModuleInfo:
    """This file's graph module, with its node index; a one-off one when
    a rule is driven on a snippet without a graph."""
    return ctx.module or ModuleInfo(ctx.path, "", tree)


def call_name(node: ast.Call) -> Optional[str]:
    """Terminal name of a call: ``f(...)`` -> ``f``, ``m.f(...)`` -> ``f``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def calls_method(node: ast.AST, names: FrozenSet[str]) -> bool:
    """True for a call ``<expr>.m(...)`` with ``m`` in ``names``."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names)


def is_mutable_container(node: ast.AST) -> bool:
    """True when evaluating ``node`` yields a mutable container.

    Literals and comprehensions of list/dict/set are mutable; so are calls
    to the well-known mutable constructors.  A tuple literal is immutable
    only if every element is (a tuple *of lists* still shares state).
    """
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Tuple):
        return any(is_mutable_container(el) for el in node.elts)
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in IMMUTABLE_CALLS:
            return False
        if name in MUTABLE_CALLS:
            return True
    return False


def is_final_annotation(annotation: Optional[ast.AST]) -> bool:
    """True for ``Final`` / ``Final[...]`` / ``typing.Final[...]``."""
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id == "Final"
    if isinstance(node, ast.Attribute):
        return node.attr == "Final"
    return False


def target_names(stmt: ast.stmt) -> List[ast.expr]:
    """Assignment targets of an Assign/AnnAssign/AugAssign statement."""
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return [stmt.target]
    return []
