"""Rule registry: rules self-register via :func:`register_rule`.

A rule is a class with ``code``/``name``/``description`` metadata, a
default :class:`~repro.lint.findings.Severity`, and a ``check(tree, ctx)``
method yielding :class:`~repro.lint.findings.Finding` objects.  Importing
:mod:`repro.lint.rules` registers the built-in rules; external
code can register additional rules with the same decorator.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Type

from .findings import Finding, LintContext, Severity


class Rule:
    """Base class for simlint rules."""

    #: unique rule ID, e.g. ``"SIM001"``
    code: str = ""
    #: short kebab-case name, e.g. ``"shared-mutable-state"``
    name: str = ""
    #: one-paragraph description for ``--list-rules`` and the docs
    description: str = ""
    default_severity: Severity = Severity.ERROR

    def check(self, tree: ast.Module,
              ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST,
                message: str) -> Finding:
        return ctx.make(self.code, self.default_severity, node, message)


# Write-once plugin registration point, mutated only by register_rule()
# at import time — the sanctioned exception SIM001 exists to police.
_REGISTRY: Dict[str, Rule] = {}  # simlint: disable=SIM001


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its code."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    _ensure_builtin()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    _ensure_builtin()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(f"unknown rule {code!r}; known: "
                       f"{', '.join(sorted(_REGISTRY))}") from None


def select_rules(codes: Optional[Iterable[str]] = None) -> List[Rule]:
    """Resolve an optional ``--select`` list; ``None`` means every rule."""
    if codes is None:
        return all_rules()
    return [get_rule(code) for code in codes]


def _ensure_builtin() -> None:
    # Imported lazily to avoid a registry <-> rules import cycle.
    from . import rules  # noqa: F401
