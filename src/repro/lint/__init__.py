"""simlint: AST-based simulator-invariant checking.

A pluggable static-analysis pass enforcing the isolation and determinism
invariants the simulator's correctness rests on — the ones PR 1's shared
``PageTable`` frame allocator violated and the parallel sweep cache and
trace subsystem silently depend on:

- **SIM001** shared mutable state at module/class level in simulator code
- **SIM006** mutable default arguments
- determinism (**SIM002** global RNG, **SIM003** wall clock in hot paths,
  **SIM013** host values laundered through helper calls), read from the
  cross-module symbol graph in :mod:`repro.lint.graph`
- ownership (**SIM005** foreign stats writes, **SIM008** reach-through
  writes)
- timing sinks (**SIM004** float cycle arithmetic, **SIM007** events
  scheduled in the past, **SIM009** set iteration feeding event order)

Run it as ``repro lint src/`` (or via :func:`lint_paths`), suppress a
finding inline with ``# simlint: disable=SIM001`` (stale suppressions
are themselves reported as SIM099), and grandfather legacy findings in
a committed baseline file.  The dynamic counterparts live in
:mod:`repro.lint.sanitize` and are exposed as ``repro sanitize``: the
two-run determinism sanitizer, and the live fork identity, which checks
the component protocol (snapshot completeness, reset coverage,
config-state agreement) on real machines.

See ``docs/lint.md`` for the rule catalogue and workflow.
"""

from .engine import LintResult, lint_paths
from .findings import Finding, Severity
from .registry import all_rules, get_rule, register_rule
from .sanitize import SanitizeReport, flatten_tree, sanitize_runs

__all__ = [
    "Finding",
    "LintResult",
    "SanitizeReport",
    "Severity",
    "all_rules",
    "flatten_tree",
    "get_rule",
    "lint_paths",
    "register_rule",
    "sanitize_runs",
]
