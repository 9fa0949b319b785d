"""Finding and severity types shared by the engine, rules, and reporters."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class Severity(enum.Enum):
    """How bad a finding is; drives the exit code via ``--fail-on``."""

    WARNING = "warning"
    ERROR = "error"

    def __ge__(self, other: "Severity") -> bool:
        order = {Severity.WARNING: 0, Severity.ERROR: 1}
        return order[self] >= order[other]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str                 # "SIM001"
    severity: Severity
    path: str                 # as given on the command line, '/'-normalized
    line: int                 # 1-based
    col: int                  # 0-based (ast convention)
    message: str
    #: stripped text of the offending source line — the baseline match key,
    #: stable across unrelated edits that only shift line numbers
    line_text: str = ""

    def baseline_key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.line_text)

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule} [{self.severity.value}] {self.message}")

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }


@dataclass(frozen=True)
class LintContext:
    """Per-file context handed to every rule."""

    path: str                      # normalized, '/'-separated
    source: str
    lines: Tuple[str, ...]         # source split into lines (1-based access
                                   # via ``line_at``)
    hot_path: bool                 # under a simulation hot-path package
    #: whole-program symbol graph over every file in this lint run
    #: (:class:`repro.lint.graph.ProjectGraph`); None only when a rule is
    #: driven directly on a snippet outside the engine
    graph: object = None
    #: this file's :class:`repro.lint.graph.ModuleInfo` within ``graph``
    module: object = None

    def line_at(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def stripped(self, lineno: int) -> str:
        return self.line_at(lineno).strip()

    def make(self, rule: str, severity: Severity, node,
             message: str) -> Finding:
        """Build a finding anchored at an AST node."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule, severity=severity, path=self.path,
                       line=line, col=col, message=message,
                       line_text=self.stripped(line))


#: subpackages whose code runs inside the simulated-cycle hot path; rules
#: about simulated time (SIM003/SIM004/SIM007/SIM009/SIM013) only
#: apply here
HOT_PACKAGES = frozenset(
    {"sim", "core", "memsys", "emc", "interconnect", "prefetch"})


def is_hot_path(path: str) -> bool:
    """True when any directory component of ``path`` names a hot package."""
    parts = path.replace("\\", "/").split("/")
    return any(part in HOT_PACKAGES for part in parts[:-1])
