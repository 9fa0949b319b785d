"""SIM006: mutable default arguments.

A default value is evaluated once at ``def`` time and shared by every
call — in a simulator constructor (``def __init__(self, queues=[])``)
that means every instance shares one container, which is exactly the
cross-``System`` state leak PR 1 spent a release hunting down.  Use
``None`` plus an ``if x is None: x = []`` in the body, or a dataclass
``field(default_factory=...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, LintContext
from ..registry import Rule, register_rule
from .common import is_mutable_container, module_of


@register_rule
class MutableDefaultArgument(Rule):
    code = "SIM006"
    name = "mutable-default-argument"
    description = (
        "Mutable container as a default argument value: evaluated once "
        "and shared by every call (and, in __init__, every instance).  "
        "Default to None and create the container in the body.")

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        for node in module_of(tree, ctx).nodes:
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            for arg, default in zip(positional[len(positional)
                                               - len(args.defaults):],
                                    args.defaults):
                if is_mutable_container(default):
                    yield self._flag(ctx, default, node.name, arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None and is_mutable_container(default):
                    yield self._flag(ctx, default, node.name, arg.arg)

    def _flag(self, ctx: LintContext, node: ast.AST, func: str,
              arg: str) -> Finding:
        return self.finding(
            ctx, node,
            f"mutable default for parameter {arg!r} of {func}(): shared "
            f"across all calls; default to None and build it in the body")
