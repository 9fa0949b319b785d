"""Engine-level tests: suppressions, baseline, reporters, CLI wiring,
and the self-lint gate asserting ``repro lint src/`` is clean at head."""

import json
from pathlib import Path

import pytest

from repro.lint import engine, lint_paths
from repro.lint.baseline import Baseline
from repro.lint.cli import main as simlint_main
from repro.lint.engine import (PARSE_ERROR_RULE, LintResult,
                               iter_python_files, lint_file,
                               suppressed_codes)
from repro.lint.findings import Finding, Severity
from repro.lint.report import JSON_SCHEMA_VERSION, format_json

REPO = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "lint_fixtures"

VIOLATION = "REGISTRY = {}\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


# -- inline suppressions ----------------------------------------------------

def test_suppressed_codes_parsing():
    assert suppressed_codes("x = {}  # simlint: disable=SIM001") == \
        frozenset({"SIM001"})
    assert suppressed_codes("x = {}  # simlint: disable=SIM001, sim005") == \
        frozenset({"SIM001", "SIM005"})
    assert suppressed_codes("x = {}  # simlint: disable=all") == \
        frozenset({"ALL"})
    assert suppressed_codes(
        "x = {}  # simlint: disable=SIM001  # why: registry") == \
        frozenset({"SIM001"})
    assert suppressed_codes("x = {}  # plain comment") == frozenset()


def test_inline_suppression_moves_finding_aside(tmp_path):
    path = write(tmp_path, "mod.py",
                 "REGISTRY = {}  # simlint: disable=SIM001\n"
                 "OTHER = {}\n")
    result = lint_paths([path])
    assert [f.line for f in result.findings] == [2]
    assert [f.line for f in result.suppressed] == [1]
    assert result.exit_code() == 1


def test_suppression_is_per_code(tmp_path):
    path = write(tmp_path, "mod.py",
                 "REGISTRY = {}  # simlint: disable=SIM002\n")
    result = lint_paths([path])
    # Wrong code: the SIM001 finding stays active, and the SIM002
    # suppression is itself flagged as silencing nothing.
    assert [f.rule for f in result.findings] == ["SIM001", "SIM099"]


# -- unused suppressions (SIM099) -------------------------------------------

def test_unused_suppression_is_reported(tmp_path):
    path = write(tmp_path, "mod.py",
                 "x = 1  # simlint: disable=SIM001\n")
    result = lint_paths([path])
    (finding,) = result.findings
    assert finding.rule == "SIM099"
    assert "SIM001" in finding.message
    assert finding.line == 1


def test_used_suppression_is_not_reported(tmp_path):
    path = write(tmp_path, "mod.py",
                 "REGISTRY = {}  # simlint: disable=SIM001\n")
    result = lint_paths([path])
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["SIM001"]


def test_unused_disable_all_is_reported(tmp_path):
    path = write(tmp_path, "mod.py",
                 "x = 1  # simlint: disable=all\n")
    result = lint_paths([path])
    assert [f.rule for f in result.findings] == ["SIM099"]
    assert "disable=all" in result.findings[0].message


def test_unknown_rule_code_in_suppression_is_reported(tmp_path):
    path = write(tmp_path, "mod.py",
                 "x = 1  # simlint: disable=SIM0042\n")
    result = lint_paths([path])
    assert [f.rule for f in result.findings] == ["SIM099"]
    assert "unknown rule SIM0042" in result.findings[0].message


def test_unselected_code_is_not_judged_unused(tmp_path):
    from repro.lint.registry import select_rules
    path = write(tmp_path, "mod.py",
                 "x = 1  # simlint: disable=SIM001\n")
    result = lint_paths([path], rules=select_rules(["SIM006"]))
    # --select SIM006 says nothing about whether SIM001 would fire.
    assert result.findings == []


def test_sim099_token_is_an_escape_hatch(tmp_path):
    path = write(tmp_path, "mod.py",
                 "x = 1  # simlint: disable=SIM001,SIM099\n")
    result = lint_paths([path])
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["SIM099"]


def test_suppression_text_inside_docstring_is_ignored(tmp_path):
    path = write(tmp_path, "mod.py",
                 '"""Example::\n\n'
                 '    x = []  # simlint: disable=SIM001\n'
                 '"""\n')
    result = lint_paths([path])
    assert result.findings == []


def test_only_files_with_simlint_text_are_tokenized(tmp_path, monkeypatch):
    """The tokenizer runs only where a suppression comment could be; a
    ``disable=`` quoted in a docstring is tokenized and still not
    judged by SIM099."""
    tokenized = []
    comment_lines = engine._comment_lines

    def counting(source):
        tokenized.append(source)
        return comment_lines(source)

    monkeypatch.setattr(engine, "_comment_lines", counting)
    plain = write(tmp_path, "plain.py", "x = 1  # an ordinary comment\n")
    quoted = write(tmp_path, "quoted.py",
                   '"""Example::\n\n'
                   '    x = []  # simlint: disable=SIM001\n'
                   '"""\n')
    result = lint_paths([plain, quoted])
    assert tokenized == [quoted.read_text()]
    assert result.findings == [] and result.suppressed == []


# -- baseline ---------------------------------------------------------------

def test_baseline_round_trip(tmp_path):
    src = write(tmp_path, "mod.py", VIOLATION)
    first = lint_paths([src])
    assert len(first.findings) == 1

    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(first.findings).dump(baseline_path)

    again = lint_paths([src], baseline=Baseline.load(baseline_path))
    assert again.findings == []
    assert len(again.baselined) == 1
    assert again.exit_code() == 0


def test_baseline_survives_line_drift(tmp_path):
    src = write(tmp_path, "mod.py", VIOLATION)
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(lint_paths([src]).findings).dump(baseline_path)

    # Shift the violation down two lines: the key is the stripped line
    # text, so the baseline still matches.
    src.write_text("import os\n\n" + VIOLATION)
    result = lint_paths([src], baseline=Baseline.load(baseline_path))
    assert result.findings == []
    assert len(result.baselined) == 1


def test_baseline_counts_do_not_hide_new_copies(tmp_path):
    src = write(tmp_path, "mod.py", VIOLATION)
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_findings(lint_paths([src]).findings).dump(baseline_path)

    # A second identical line: one slot is consumed, the other finding
    # stays active.
    src.write_text(VIOLATION + VIOLATION)
    result = lint_paths([src], baseline=Baseline.load(baseline_path))
    assert len(result.findings) == 1
    assert len(result.baselined) == 1


def test_baseline_missing_file_is_empty(tmp_path):
    assert len(Baseline.load(tmp_path / "nope.json")) == 0


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError, match="version"):
        Baseline.load(path)


# -- parse errors and traversal ---------------------------------------------

def test_syntax_error_becomes_sim000(tmp_path):
    path = write(tmp_path, "broken.py", "def f(:\n")
    findings = lint_file(path)
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_RULE
    assert findings[0].severity is Severity.ERROR


def test_iter_python_files_skips_caches_and_dot_dirs(tmp_path):
    write(tmp_path, "pkg/mod.py", "x = 1\n")
    write(tmp_path, "pkg/__pycache__/mod.cpython-311.py", "x = 1\n")
    write(tmp_path, ".venv/lib/site.py", "x = 1\n")
    files = iter_python_files([tmp_path])
    assert [f.name for f in files] == ["mod.py"]


def test_iter_python_files_judges_hidden_parts_below_the_root(tmp_path):
    # A dot-named directory *above* the given root (a checkout under
    # ~/.work) hides nothing; one below it still does.
    root = tmp_path / ".work" / "repo"
    write(root, "pkg/mod.py", "x = 1\n")
    write(root, "pkg/.hidden/skip.py", "x = 1\n")
    assert [f.name for f in iter_python_files([root])] == ["mod.py"]


def test_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        iter_python_files([tmp_path / "does-not-exist"])


# -- exit codes -------------------------------------------------------------

def make_finding(severity):
    return Finding(rule="SIM001", severity=severity, path="x.py",
                   line=1, col=0, message="m", line_text="t")


def test_exit_code_fail_on_thresholds():
    clean = LintResult()
    assert clean.exit_code() == 0
    warn = LintResult(findings=[make_finding(Severity.WARNING)])
    assert warn.exit_code(Severity.WARNING) == 1
    assert warn.exit_code(Severity.ERROR) == 0
    err = LintResult(findings=[make_finding(Severity.ERROR)])
    assert err.exit_code(Severity.ERROR) == 1


# -- JSON reporter schema ---------------------------------------------------

def test_json_report_schema(tmp_path):
    src = write(tmp_path, "mod.py", VIOLATION)
    payload = json.loads(format_json(lint_paths([src])))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["tool"] == "simlint"
    assert set(payload) == {"version", "tool", "findings", "suppressed",
                            "baselined", "summary"}
    assert payload["summary"] == {"files_checked": 1, "findings": 1,
                                  "suppressed": 0, "baselined": 0}
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "severity", "path", "line", "col",
                            "message", "line_text"}
    assert finding["rule"] == "SIM001"
    assert finding["severity"] == "error"
    assert finding["line_text"] == "REGISTRY = {}"


# -- standalone CLI ---------------------------------------------------------

def test_cli_list_rules(capsys):
    assert simlint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SIM001", "SIM006"):
        assert code in out


def test_cli_reports_and_fails_on_findings(tmp_path, capsys):
    path = write(tmp_path, "mod.py", VIOLATION)
    assert simlint_main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out
    assert "1 finding (0 suppressed, 0 baselined) across 1 files" in out


def test_cli_select_limits_rules(tmp_path, capsys):
    path = write(tmp_path, "mod.py",
                 VIOLATION + "def f(x=[]):\n    return x\n")
    assert simlint_main([str(path), "--select", "SIM006"]) == 1
    out = capsys.readouterr().out
    assert "SIM006" in out
    assert "SIM001" not in out


def test_cli_unknown_rule_code(tmp_path, capsys):
    assert simlint_main(["--select", "SIM999", str(tmp_path)]) == 2
    assert "SIM999" in capsys.readouterr().err


def test_cli_update_baseline_then_clean(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "mod.py", VIOLATION)
    assert simlint_main(["mod.py", "--update-baseline"]) == 0
    assert (tmp_path / "simlint-baseline.json").exists()
    capsys.readouterr()
    # The default baseline in the cwd is picked up automatically.
    assert simlint_main(["mod.py"]) == 0
    assert "(0 suppressed, 1 baselined)" in capsys.readouterr().out


def test_cli_prune_baseline_drops_fixed_entries(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    src = write(tmp_path, "mod.py", VIOLATION + "OTHER = {}\n")
    assert simlint_main(["mod.py", "--update-baseline"]) == 0
    assert len(Baseline.load(tmp_path / "simlint-baseline.json")) == 2
    capsys.readouterr()
    # Fix one of the two grandfathered findings, then prune.
    src.write_text(VIOLATION + "OTHER = (1,)\n")
    assert simlint_main(["mod.py", "--prune-baseline"]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 stale entries" in out
    assert len(Baseline.load(tmp_path / "simlint-baseline.json")) == 1
    # The remaining entry still matches; the run stays clean.
    assert simlint_main(["mod.py"]) == 0


def test_repro_cli_has_lint_and_sanitize(capsys):
    from repro.cli import main as repro_main
    assert repro_main(["lint", "--list-rules"]) == 0
    assert "SIM003" in capsys.readouterr().out


# -- self-lint gate ---------------------------------------------------------

def test_src_tree_is_lint_clean():
    """``repro lint src/`` must stay clean; new violations either get
    fixed or earn a justified inline suppression."""
    baseline = Baseline.load(REPO / "simlint-baseline.json")
    result = lint_paths([REPO / "src"], baseline=baseline)
    assert result.findings == [], "\n".join(
        f.format() for f in result.findings)
    # The committed baseline is empty: the steady state is zero debt.
    assert result.baselined == []


def test_committed_baseline_is_empty():
    baseline = Baseline.load(REPO / "simlint-baseline.json")
    assert len(baseline) == 0
