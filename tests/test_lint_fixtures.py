"""End-to-end check of the planted-violation fixtures.

`tests/lint_fixtures/` contains deliberately-bad simulator subclasses,
one rule per file (see its README).  Linting the directory must report
exactly the planted findings — right rule, right file, right line — and
nothing else.  This pins both the true-positive behavior of every rule
on realistic code and the absence of false positives on the clean lines
sitting next to the planted ones.
"""

from pathlib import Path

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "lint_fixtures"

# (rule, relative path, line) for every planted violation.
PLANTED = [
    ("SIM001", "bad_shared_state.py", 13),          # module-level dict
    ("SIM001", "bad_shared_state.py", 20),          # class-level list
    ("SIM002", "bad_unseeded_random.py", 8),        # from random import
    ("SIM002", "bad_unseeded_random.py", 17),       # random.getrandbits()
    ("SIM003", "memsys/bad_wall_clock.py", 16),     # time.perf_counter()
    ("SIM003", "memsys/bad_wall_clock.py", 18),     # time.time()
    ("SIM004", "memsys/bad_float_cycles.py", 14),   # cycle target / 2
    ("SIM004", "memsys/bad_float_cycles.py", 18),   # augassign /= 2
    ("SIM004", "memsys/bad_float_cycles.py", 19),   # division in schedule()
    ("SIM005", "memsys/bad_foreign_stats.py", 14),  # foreign stats += 1
    ("SIM006", "bad_mutable_default.py", 8),        # uops=[]
    ("SIM006", "bad_mutable_default.py", 13),       # totals={}
    ("SIM007", "memsys/bad_past_event.py", 16),     # stored timestamp
    ("SIM007", "memsys/bad_past_event.py", 20),     # now - penalty
    ("SIM008", "bad_reach_through.py", 17),         # 3-hop .append()
    ("SIM008", "bad_reach_through.py", 20),         # 4-hop assignment
    ("SIM009", "memsys/bad_unordered_sched.py", 17),  # set -> schedule()
    ("SIM013", "xmodpkg/memsys/bad_taint_flow.py", 15),  # laundered clock
    ("SIM099", "bad_unused_suppression.py", 7),      # stale disable=SIM001
]


def test_fixtures_report_exactly_the_planted_findings():
    result = lint_paths([FIXTURES])
    got = sorted((f.rule, Path(f.path).relative_to(FIXTURES).as_posix(),
                  f.line) for f in result.findings)
    assert got == sorted(PLANTED)
    assert result.suppressed == []
    assert result.baselined == []


def test_fixtures_found_through_a_dotdot_path(monkeypatch):
    # '..' in the given path is not a hidden directory: linting the
    # fixtures from a sibling directory still finds every planted one.
    monkeypatch.chdir(FIXTURES.parent)
    root = Path("..") / FIXTURES.parent.name / FIXTURES.name
    result = lint_paths([root])
    got = sorted((f.rule, Path(f.path).relative_to(root).as_posix(),
                  f.line) for f in result.findings)
    assert got == sorted(PLANTED)


def test_fixture_run_fails_the_gate():
    result = lint_paths([FIXTURES])
    assert result.exit_code() == 1


def test_cross_module_findings_need_the_whole_program_graph():
    # Linting the whole package resolves the taint through
    # xmodpkg/helpers.py ...
    pkg = lint_paths([FIXTURES / "xmodpkg"])
    assert [f.rule for f in pkg.findings] == ["SIM013"]
    # ... while linting the bad file alone does not see the helper's taint.
    alone = lint_paths(
        [FIXTURES / "xmodpkg" / "memsys" / "bad_taint_flow.py"])
    assert alone.findings == []


def test_hot_path_rules_silent_outside_hot_packages():
    # The same wall-clock/float-cycle code outside a hot-package directory
    # must not fire: the fixtures at the lint_fixtures root produce no
    # SIM003/SIM004.
    result = lint_paths([FIXTURES / "bad_shared_state.py",
                         FIXTURES / "bad_unseeded_random.py",
                         FIXTURES / "bad_mutable_default.py"])
    assert not any(f.rule in ("SIM003", "SIM004")
                   for f in result.findings)
