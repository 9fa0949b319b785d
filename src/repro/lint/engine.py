"""The simlint engine: walk files, run rules, apply suppressions/baseline.

One :func:`lint_paths` call parses each Python file once, builds the
whole-program :class:`~repro.lint.graph.ProjectGraph` over every parsed
module (import tables, direct determinism sources, cross-file class
hierarchy, call edges — the substrate for the determinism rules), and
hands each tree to every selected rule together with the shared graph.
Findings then pass through two filters:

- inline suppressions — ``# simlint: disable=SIM001`` (comma-separate
  for several codes, or ``disable=all``) on the *reported line* silences
  the finding there;
- the committed baseline (:mod:`repro.lint.baseline`) — grandfathered
  findings are counted but do not fail the run.

Two engine-level pseudo-rules exist outside the registry:

- ``SIM000``: a file that fails to parse yields a single parse-error
  finding instead of crashing the whole run;
- ``SIM099``: an inline suppression that silenced nothing (the code
  never fired on that line) is itself reported, so stale ``disable=``
  comments cannot rot in place.  Only codes that were actually selected
  for the run are judged — ``--select SIM001`` says nothing about
  whether a ``disable=SIM013`` comment is stale.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .baseline import Baseline
from .findings import Finding, LintContext, Severity, is_hot_path
from .graph import ProjectGraph
from .registry import Rule, select_rules

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+?)(?:\s*#|$)")

PARSE_ERROR_RULE = "SIM000"
UNUSED_SUPPRESSION_RULE = "SIM099"


def suppressed_codes(line: str) -> frozenset:
    """Rule codes disabled by an inline comment on ``line`` (upper-cased);
    the special token ``all`` disables every rule."""
    match = _SUPPRESS_RE.search(line)
    if not match:
        return frozenset()
    return frozenset(code.strip().upper()
                     for code in match.group(1).split(",") if code.strip())


def is_suppressed(finding: Finding, line: str) -> bool:
    codes = suppressed_codes(line)
    return "ALL" in codes or finding.rule.upper() in codes


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)     # active
    suppressed: List[Finding] = field(default_factory=list)   # inline
    baselined: List[Finding] = field(default_factory=list)    # grandfathered
    files_checked: int = 0

    def worst(self) -> Optional[Severity]:
        if any(f.severity is Severity.ERROR for f in self.findings):
            return Severity.ERROR
        if self.findings:
            return Severity.WARNING
        return None

    def exit_code(self, fail_on: Severity = Severity.WARNING) -> int:
        worst = self.worst()
        return 1 if worst is not None and worst >= fail_on else 0


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Hidden (dot-named) and ``__pycache__`` entries are skipped only below
    a given directory, so ``..`` or a checkout under ``~/.work`` still
    counts.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(p for p in sorted(path.rglob("*.py"))
                         if not any(part == "__pycache__"
                                    or part.startswith(".")
                                    for part in p.relative_to(path).parts))
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


def _parse(path: Path) -> Tuple[str, Optional[ast.Module],
                                Optional[Finding]]:
    """(source, tree, parse-error finding) — exactly one of the last two
    is non-None."""
    norm = path.as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        return source, ast.parse(source, filename=norm), None
    except SyntaxError as exc:
        line = exc.lineno or 1
        lines = tuple(source.splitlines())
        text = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        return source, None, Finding(
            rule=PARSE_ERROR_RULE, severity=Severity.ERROR,
            path=norm, line=line, col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}", line_text=text)


def _check_file(path: Path, source: str, tree: ast.Module,
                rules: Sequence[Rule],
                graph: ProjectGraph) -> List[Finding]:
    norm = path.as_posix()
    ctx = LintContext(path=norm, source=source,
                      lines=tuple(source.splitlines()),
                      hot_path=is_hot_path(norm),
                      graph=graph, module=graph.module_for(norm))
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.check(tree, ctx))
    return findings


def lint_file(path: Union[str, Path],
              rules: Optional[Sequence[Rule]] = None,
              graph: Optional[ProjectGraph] = None) -> List[Finding]:
    """Run rules over one file; raw findings, no suppression/baseline.

    Without an explicit ``graph`` the file gets a single-module graph of
    itself — whole-program rules then see only what this file declares.
    """
    path = Path(path)
    source, tree, error = _parse(path)
    if error is not None:
        return [error]
    if graph is None:
        graph = ProjectGraph()
        graph.add_module(path, tree)
    elif graph.module_for(path) is None:
        graph.add_module(path, tree)
    return _check_file(path, source, tree,
                       rules if rules is not None else select_rules(),
                       graph)


def _comment_lines(source: str) -> Optional[Set[int]]:
    """Line numbers carrying a *real* ``#`` comment token, or None when
    the file does not tokenize (fall back to judging every line)."""
    out: Set[int] = set()
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.add(tok.start[0])
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return None
    return out


def _unused_suppressions(path: str, lines: Sequence[str],
                         used_by_line: Dict[int, Set[str]],
                         selected_codes: Set[str],
                         comment_lines: Optional[Set[int]]) -> List[Finding]:
    """SIM099 findings for ``disable=`` comments that silenced nothing.

    A code is judged only when this run actually ran it (it is in
    ``selected_codes``) or when it names no known rule at all (typos
    like ``disable=SIM0013`` should never linger).  ``disable=all`` is
    unused when the line produced no suppressed finding.  A
    ``SIM099`` token is an escape hatch, never itself "unused".
    Suppression-shaped text inside string literals (docstrings quoting
    the syntax) is not a comment and is never judged.
    """
    from .registry import all_rules
    known_codes = {rule.code for rule in all_rules()}
    known_codes.add(PARSE_ERROR_RULE)
    findings: List[Finding] = []
    for lineno, line in enumerate(lines, start=1):
        if comment_lines is not None and lineno not in comment_lines:
            continue
        codes = suppressed_codes(line)
        if not codes:
            continue
        used = used_by_line.get(lineno, set())
        for code in sorted(codes):
            if code == UNUSED_SUPPRESSION_RULE:
                continue
            if code == "ALL":
                if used:
                    continue
                message = ("suppression 'disable=all' silences nothing "
                           "on this line; remove the stale comment")
            else:
                if code in used:
                    continue
                if code in selected_codes:
                    message = (f"suppression of {code} silences nothing "
                               f"on this line; remove the stale comment "
                               f"or fix the code it used to excuse")
                elif code.startswith("SIM") and code not in known_codes:
                    message = (f"suppression names unknown rule {code}; "
                               f"fix the code or remove the comment")
                else:
                    # A real rule that this run did not select: we cannot
                    # judge whether the suppression still earns its keep.
                    continue
            findings.append(Finding(
                rule=UNUSED_SUPPRESSION_RULE, severity=Severity.ERROR,
                path=path, line=lineno, col=line.find("#"),
                message=message, line_text=line.strip()))
    return findings


def lint_paths(paths: Iterable[Union[str, Path]],
               rules: Optional[Sequence[Rule]] = None,
               baseline: Optional[Baseline] = None) -> LintResult:
    """Lint files/directories, applying suppressions and the baseline.

    All files are parsed first and assembled into one
    :class:`~repro.lint.graph.ProjectGraph`, so cross-file facts (class
    hierarchies, helper-call taint) are visible to every rule regardless
    of file order.
    """
    result = LintResult()
    baseline = baseline if baseline is not None else Baseline()
    rules = rules if rules is not None else select_rules()
    selected_codes = {rule.code for rule in rules}

    parsed: List[Tuple[Path, str, Optional[ast.Module],
                       Optional[Finding]]] = []
    graph = ProjectGraph()
    for path in iter_python_files(paths):
        source, tree, error = _parse(path)
        parsed.append((path, source, tree, error))
        if tree is not None:
            graph.add_module(path, tree)

    for path, source, tree, error in parsed:
        result.files_checked += 1
        raw = ([error] if error is not None
               else _check_file(path, source, tree, rules, graph))
        lines = source.splitlines()
        used_by_line: Dict[int, Set[str]] = {}
        active: List[Finding] = []
        for finding in sorted(raw, key=lambda f: (f.line, f.col, f.rule)):
            line_src = (lines[finding.line - 1]
                        if 0 < finding.line <= len(lines) else "")
            if is_suppressed(finding, line_src):
                result.suppressed.append(finding)
                codes = suppressed_codes(line_src)
                used = used_by_line.setdefault(finding.line, set())
                if finding.rule.upper() in codes:
                    used.add(finding.rule.upper())
                else:           # silenced by the 'all' token
                    used.add("ALL")
            else:
                active.append(finding)
        # No 'simlint:' text, no suppression comment to judge: skip the
        # tokenizer for the files that need none.
        unused = (_unused_suppressions(
            path.as_posix(), lines, used_by_line, selected_codes,
            _comment_lines(source)) if "simlint:" in source else [])
        for finding in unused:
            line_src = (lines[finding.line - 1]
                        if 0 < finding.line <= len(lines) else "")
            # A 'SIM099' token on the same comment is the escape hatch
            # for a deliberately-kept suppression.
            if UNUSED_SUPPRESSION_RULE in suppressed_codes(line_src):
                result.suppressed.append(finding)
            else:
                active.append(finding)
        for finding in sorted(active,
                              key=lambda f: (f.line, f.col, f.rule)):
            if baseline.match(finding):
                result.baselined.append(finding)
            else:
                result.findings.append(finding)
    return result
