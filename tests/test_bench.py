"""Regression tests for the host-throughput microbench harness."""

import pytest

from repro.analysis.bench import BENCH_REPEATS, run_bench


@pytest.mark.parametrize("repeats", [0, -1, -100])
def test_run_bench_rejects_nonpositive_repeats(repeats):
    """repeats < 1 used to leave the best-of-N loop unentered and crash on
    the unbound result (and, worse, max(1, ...) would have recorded a
    measurement that never ran).  It must raise up front instead."""
    with pytest.raises(ValueError, match="repeats"):
        run_bench(repeats=repeats)


def test_default_repeats_is_positive():
    assert BENCH_REPEATS >= 1


@pytest.mark.parametrize("phase", ["build", "sim", "all"])
def test_profile_run_profiles_one_phase_of_a_job(phase):
    from dataclasses import replace

    from repro.analysis.bench import BENCH_JOB
    from repro.analysis.profile import profile_run
    job = replace(BENCH_JOB, n_instrs=300, warmup_instrs=50)
    reports = profile_run(job, phase=phase, limit=5)
    assert [r.phase for r in reports] == [phase]
    assert "function calls" in reports[0].text


def _result(instrs_per_s: float):
    from repro.analysis.bench import BenchResult
    return BenchResult(rev="cur", wall_s=1.0, cycles_per_s=instrs_per_s * 2,
                       instrs_per_s=instrs_per_s, total_cycles=100,
                       total_instrs=50, repeats=1)


def test_check_trend_gates_on_20_percent_regression():
    from repro.analysis.bench import check_trend
    baseline = {"rev": "prev", "instrs_per_s": 10_000.0}
    ok, _ = check_trend(_result(8_100.0), baseline)      # -19%
    assert ok
    ok, message = check_trend(_result(7_900.0), baseline)  # -21%
    assert not ok
    assert "prev" in message
    ok, _ = check_trend(_result(30_000.0), baseline)     # improvement
    assert ok


def test_check_trend_skips_across_fabric_or_machine_change():
    import dataclasses

    from repro.analysis.bench import check_trend
    # A -21% rate on a different fabric or core count is not a
    # regression: the gate soft-passes instead of comparing.
    baseline = {"rev": "prev", "instrs_per_s": 10_000.0,
                "topology": "mesh", "machine": "quad"}
    ok, message = check_trend(_result(7_900.0), baseline)
    assert ok
    assert "not comparable" in message
    eight = dataclasses.replace(_result(7_900.0), machine="eight")
    ok, message = check_trend(eight, {"rev": "prev",
                                      "instrs_per_s": 10_000.0})
    assert ok and "not comparable" in message
    # Old artifacts without the fields count as ring/quad and still gate.
    ok, _ = check_trend(_result(7_900.0),
                        {"rev": "prev", "instrs_per_s": 10_000.0})
    assert not ok


def test_load_baseline_picks_newest_artifact(tmp_path):
    import json
    import os
    import time

    from repro.analysis.bench import load_baseline
    old = tmp_path / "BENCH_aaaa.json"
    new = tmp_path / "BENCH_bbbb.json"
    old.write_text(json.dumps({"rev": "aaaa", "instrs_per_s": 1.0}))
    new.write_text(json.dumps({"rev": "bbbb", "instrs_per_s": 2.0}))
    past = time.time() - 60
    os.utime(old, (past, past))
    data = load_baseline(str(tmp_path))
    assert data is not None and data["rev"] == "bbbb"
    # A single file path works too.
    assert load_baseline(str(old))["rev"] == "aaaa"


def test_load_baseline_soft_passes_on_missing_or_garbage(tmp_path):
    from repro.analysis.bench import load_baseline
    assert load_baseline(str(tmp_path / "nope")) is None
    assert load_baseline(str(tmp_path)) is None          # empty dir
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{not json")
    assert load_baseline(str(bad)) is None
    zero = tmp_path / "BENCH_zero.json"
    zero.write_text('{"instrs_per_s": 0}')
    assert load_baseline(str(zero)) is None


def test_check_trend_message_names_both_revisions():
    """The trend line must say which two artifacts were compared —
    'prev -> cur' — so a CI log reader can tell a stale baseline from a
    real regression at a glance."""
    from repro.analysis.bench import check_trend
    ok, message = check_trend(_result(9_500.0),
                              {"rev": "prev", "instrs_per_s": 10_000.0})
    assert ok
    assert "prev -> cur" in message
    # an old artifact without a rev field degrades gracefully
    _, message = check_trend(_result(9_500.0), {"instrs_per_s": 10_000.0})
    assert "unknown -> cur" in message


def test_cli_bench_soft_pass_names_rev_and_baseline(tmp_path, capsys,
                                                    monkeypatch):
    """`repro bench --baseline <empty>` soft-passes, and the message must
    say which rev ran and which baseline path had nothing usable."""
    import repro.analysis.bench as bench_mod
    from repro.cli import main
    monkeypatch.setattr(bench_mod, "run_bench",
                        lambda repeats, out_dir: (_result(9_500.0), None))
    missing = str(tmp_path / "artifacts")
    rc = main(["bench", "--baseline", missing])
    out = capsys.readouterr().out
    assert rc == 0
    assert "skipping the gate for rev cur" in out
    assert missing in out
