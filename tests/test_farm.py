"""Work-queue and farm-scheduler tests.

Queue mechanics (lease / heartbeat / reclaim / retry) are exercised with
explicit ``now=`` timestamps — no sleeps, no wall-clock flakiness.  The
execution paths (``run_worker``, ``serve_queue``, ``run_farm``) run real
but tiny simulations and check the acceptance property: a farm run over
a queue is bit-identical to ``run_jobs`` over the same expansion.
"""

import dataclasses
import os

import pytest

from repro.analysis import parallel
from repro.analysis.farm import (MAX_ATTEMPTS, FarmError, JobQueue,
                                 collect_results, format_status,
                                 queue_status, results_dir, run_farm,
                                 run_worker, serve_queue)
from repro.analysis.parallel import (RunJob, _cache_store, job_hash,
                                     run_jobs)
from repro.sim.system import System


def _jobs(n=3, n_instrs=300, **kw):
    return [RunJob(workload=("mix", "H4"), n_instrs=n_instrs, seed=i + 1,
                   label=f"j{i}", **kw) for i in range(n)]


def _poison_job():
    """A job whose config override can never resolve: fails fast in the
    executing process with a ValueError, which parks it as failed on its
    first attempt."""
    return RunJob(workload=("mix", "H4"), n_instrs=300,
                  overrides=(("no.such.knob", 1),), label="poison")


# ---------------------------------------------------------------------------
# queue mechanics (deterministic time)
# ---------------------------------------------------------------------------

def test_enqueue_is_idempotent(tmp_path):
    queue = JobQueue(str(tmp_path))
    jobs = _jobs(3)
    assert queue.enqueue(jobs, "demo", now=100.0) == (3, 0)
    assert queue.enqueue(jobs, "demo", now=101.0) == (0, 3)
    status = queue.status()
    assert status.counts["pending"] == 3
    assert status.total == 3
    assert not status.all_done


def test_lease_complete_lifecycle(tmp_path):
    queue = JobQueue(str(tmp_path))
    jobs = _jobs(2)
    queue.enqueue(jobs, now=100.0)
    # same enqueued_at -> hash is the tie-break, so order is predictable
    first_hash = min(job_hash(j) for j in jobs)
    leased = queue.lease("w1", lease_s=50.0, now=100.0)
    assert leased.hash == first_hash
    assert leased.attempts == 1
    assert queue.status().counts["leased"] == 1
    queue.complete(leased.hash, "w1", now=110.0)
    counts = queue.status().counts
    assert counts["done"] == 1 and counts["pending"] == 1


def test_heartbeat_is_worker_and_state_guarded(tmp_path):
    queue = JobQueue(str(tmp_path))
    queue.enqueue(_jobs(1), now=100.0)
    leased = queue.lease("w1", lease_s=50.0, now=100.0)
    assert queue.heartbeat(leased.hash, "w1", lease_s=50.0, now=120.0)
    assert not queue.heartbeat(leased.hash, "w2", lease_s=50.0, now=120.0)
    queue.complete(leased.hash, "w1", now=130.0)
    assert not queue.heartbeat(leased.hash, "w1", lease_s=50.0, now=140.0)


def test_expired_lease_is_reclaimed_by_next_lease(tmp_path):
    # the killed-worker scenario: w1 leases, never heartbeats, its lease
    # lapses, and w2's next lease() call picks the job straight up
    queue = JobQueue(str(tmp_path))
    queue.enqueue(_jobs(1), now=100.0)
    first = queue.lease("w1", lease_s=50.0, now=100.0)
    assert queue.lease("w2", lease_s=50.0, now=120.0) is None  # still held
    second = queue.lease("w2", lease_s=50.0, now=151.0)        # expired
    assert second is not None
    assert second.hash == first.hash
    assert second.attempts == 2
    # and w1's late completion is ignored: the job is w2's now
    queue.complete(first.hash, "w1", now=152.0)
    assert queue.status().counts["leased"] == 1


def test_reclaim_expired_counts(tmp_path):
    queue = JobQueue(str(tmp_path))
    queue.enqueue(_jobs(2), now=100.0)
    queue.lease("w1", lease_s=10.0, now=100.0)
    queue.lease("w1", lease_s=500.0, now=100.0)
    assert queue.reclaim_expired(now=111.0) == 1   # only the short lease
    counts = queue.status().counts
    assert counts["pending"] == 1 and counts["leased"] == 1


def test_fail_retries_then_parks_as_failed(tmp_path):
    assert MAX_ATTEMPTS == 2   # the docs promise one retry of a host fault
    queue = JobQueue(str(tmp_path))
    queue.enqueue(_jobs(2), "demo", now=100.0)
    leased = queue.lease("w1", now=100.0)
    # Lease order follows the job hash, which hashes the code too.
    first = leased.job.label
    assert queue.fail(leased.hash, "w1", "boom", True, now=101.0) == \
        "pending"
    leased = queue.lease("w1", now=102.0)
    assert leased.attempts == 2
    assert queue.fail(leased.hash, "w1", "boom again", True,
                      now=103.0) == "failed"
    # Anything but a host fault fails the same way again: no retry.
    leased = queue.lease("w1", now=104.0)
    assert leased.attempts == 1
    second = leased.job.label
    assert {first, second} == {"j0", "j1"}
    assert queue.fail(leased.hash, "w1", "bug", False, now=105.0) == \
        "failed"
    status = queue.status()
    assert status.counts["failed"] == 2
    assert status.failures == ((first, "boom again"), (second, "bug"))
    assert f"FAILED {first}: boom again" in format_status(status)


def test_fail_reports_lost_after_reclaim(tmp_path):
    queue = JobQueue(str(tmp_path))
    queue.enqueue(_jobs(1), now=100.0)
    leased = queue.lease("w1", lease_s=10.0, now=100.0)
    queue.reclaim_expired(now=111.0)
    assert queue.fail(leased.hash, "w1", "late", True, now=112.0) == "lost"
    assert queue.status().counts["pending"] == 1


def test_enqueue_premarks_done_over_warm_store(tmp_path):
    queue = JobQueue(str(tmp_path))
    jobs = _jobs(2)
    _cache_store(results_dir(str(tmp_path)), jobs[0], "sentinel-result")
    assert queue.enqueue(jobs, now=100.0) == (2, 0)
    counts = queue.status().counts
    assert counts["done"] == 1 and counts["pending"] == 1


def test_collect_results_names_missing_jobs(tmp_path):
    jobs = _jobs(2)
    _cache_store(results_dir(str(tmp_path)), jobs[0], "sentinel-result")
    with pytest.raises(FarmError) as err:
        collect_results(str(tmp_path), jobs)
    assert "1/2 results missing" in str(err.value)
    assert "j1" in str(err.value)
    # with a full store it returns results in input order
    _cache_store(results_dir(str(tmp_path)), jobs[1], "other-result")
    assert collect_results(str(tmp_path), jobs) == ["sentinel-result",
                                                    "other-result"]


def test_queue_status_requires_a_queue(tmp_path):
    with pytest.raises(FarmError):
        queue_status(str(tmp_path / "nowhere"))


# ---------------------------------------------------------------------------
# execution: worker drain, scheduler, bit-identity
# ---------------------------------------------------------------------------

def test_run_worker_drains_queue_bit_identical_to_run_jobs(tmp_path):
    jobs = _jobs(2)
    queue_dir = str(tmp_path / "q")
    JobQueue(queue_dir).enqueue(jobs, "demo")
    executed = run_worker(queue_dir, worker_id="w1", lease_s=30.0)
    assert executed == 2
    status = queue_status(queue_dir)
    assert status.all_done and status.counts["done"] == 2
    farmed = collect_results(queue_dir, jobs)
    direct = run_jobs(jobs, jobs=1,
                      cache_dir=str(tmp_path / "direct-cache"))
    assert [r.stats for r in farmed] == [r.stats for r in direct]


def test_run_worker_forks_sweep_points_from_one_warm_base(tmp_path,
                                                        monkeypatch):
    base = RunJob(workload=("mix", "H4"), n_instrs=300, warmup_instrs=100)
    jobs = [base, dataclasses.replace(base, prefetcher="stream"),
            dataclasses.replace(base, emc=True)]
    queue_dir = str(tmp_path / "q")
    JobQueue(queue_dir).enqueue(jobs, "demo")
    calls = []
    warmup, load = System.warmup, System.from_checkpoint
    monkeypatch.setattr(
        System, "warmup",
        lambda self, *a, **kw: calls.append("warmup") or warmup(self, *a,
                                                                **kw))
    monkeypatch.setattr(
        System, "from_checkpoint",
        classmethod(lambda cls, path, tracer=None:
                    calls.append("load") or load(path, tracer=tracer)))
    assert run_worker(queue_dir, worker_id="w1", lease_s=30.0) == 3
    assert calls == ["warmup"]      # one warmup, the rest fork in memory
    farmed = collect_results(queue_dir, jobs)
    assert [r.stats for r in farmed] == [r.stats for r in run_jobs(jobs)]


def test_run_worker_records_poison_job_without_raising(tmp_path):
    queue_dir = str(tmp_path / "q")
    JobQueue(queue_dir).enqueue([_poison_job()], "demo")
    executed = run_worker(queue_dir, worker_id="w1", lease_s=30.0)
    assert executed == 0
    status = queue_status(queue_dir)
    assert status.counts["failed"] == 1
    assert status.failures[0][0] == "poison"


def test_serve_queue_raises_farm_error_on_permanent_failure(tmp_path):
    queue_dir = str(tmp_path / "q")
    bad = _poison_job()
    JobQueue(queue_dir).enqueue([bad], "demo")
    with pytest.raises(FarmError) as err:
        serve_queue(queue_dir, [bad], jobs=1, lease_s=30.0)
    assert "1 job(s) failed: poison: ValueError(" in str(err.value)


def test_store_filled_by_other_code_reports_every_point_missing(
        tmp_path, monkeypatch):
    queue_dir = str(tmp_path / "q")
    jobs = _jobs(2)
    monkeypatch.setattr(parallel, "code_fingerprint", lambda: "other code")
    JobQueue(queue_dir).enqueue(jobs, "demo")
    serve_queue(queue_dir, jobs, jobs=1, lease_s=30.0)
    assert len(collect_results(queue_dir, jobs)) == 2
    monkeypatch.undo()
    with pytest.raises(FarmError, match="2/2 results missing .*: j0, j1"):
        collect_results(queue_dir, jobs)


def test_worker_parks_rows_enqueued_by_other_code(tmp_path, monkeypatch):
    queue_dir = str(tmp_path / "q")
    jobs = _jobs(2)
    monkeypatch.setattr(parallel, "code_fingerprint", lambda: "other code")
    JobQueue(queue_dir).enqueue(jobs, "demo")
    monkeypatch.undo()
    assert run_worker(queue_dir, worker_id="w1", lease_s=30.0) == 0
    status = queue_status(queue_dir)
    assert status.counts["failed"] == 2 and status.total == 2
    assert sorted(status.failures) == [("j0", "enqueued by other code"),
                                       ("j1", "enqueued by other code")]
    # The host that enqueued them learns it instead of waiting.
    monkeypatch.setattr(parallel, "code_fingerprint", lambda: "other code")
    with pytest.raises(FarmError, match="2 job.*enqueued by other code"):
        serve_queue(queue_dir, jobs, jobs=1, lease_s=30.0)


def test_expect_done_passes_over_parked_rows_of_other_code(
        tmp_path, monkeypatch, capsys):
    from repro.cli import main
    queue_dir = str(tmp_path / "q")
    jobs = _jobs(2)
    monkeypatch.setattr(parallel, "code_fingerprint", lambda: "other code")
    JobQueue(queue_dir).enqueue(jobs[:1], "demo")
    monkeypatch.undo()
    JobQueue(queue_dir).enqueue(jobs, "demo")
    assert run_worker(queue_dir, worker_id="w1", lease_s=30.0) == 2
    status = queue_status(queue_dir)
    assert status.counts["done"] == 2 and status.counts["failed"] == 1
    assert status.other_code == 1 and status.all_done

    rc = main(["farm", "status", "--queue-dir", queue_dir,
               "--expect-done"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "done=2 failed=1" in out
    assert "other code: 1 parked row(s)" in out and "FAILED" not in out


TINY_SPEC = """\
name: tiny
n_instrs: 300
matrix:
  workload: [H4]
  emc: [false, true]
outputs:
  tables:
    - name: perf
      columns: [workload, emc]
      metrics: [ipc]
"""


def test_run_farm_queue_matches_degenerate_path(tmp_path):
    # the acceptance property: a 2-worker queue run is bit-identical to
    # the plain run_jobs path over the same spec
    pytest.importorskip("yaml")
    from repro.analysis.spec import parse_spec
    spec = parse_spec(TINY_SPEC, "tiny.yaml")
    queued = run_farm(spec, queue_dir=str(tmp_path / "q"), jobs=2,
                      out_dir=str(tmp_path / "out-q"), lease_s=30.0)
    direct = run_farm(spec, queue_dir=None, jobs=1,
                      out_dir=str(tmp_path / "out-d"),
                      cache_dir=str(tmp_path / "cache-d"))
    assert len(queued.results) == len(direct.results) == 2
    assert ([r.stats for r in queued.results]
            == [r.stats for r in direct.results])
    # both paths rendered the declared table, with identical content
    assert [os.path.basename(p) for p in queued.output_paths] == ["perf.md"]
    with open(queued.output_paths[0]) as fh:
        queued_table = fh.read()
    with open(direct.output_paths[0]) as fh:
        assert fh.read() == queued_table
    assert "ipc" in queued_table


def test_run_farm_reuses_warm_queue_store(tmp_path):
    pytest.importorskip("yaml")
    from repro.analysis.spec import parse_spec
    spec = parse_spec(TINY_SPEC, "tiny.yaml")
    queue_dir = str(tmp_path / "q")
    first = run_farm(spec, queue_dir=queue_dir, jobs=1, lease_s=30.0)
    again = run_farm(spec, queue_dir=queue_dir, jobs=1, lease_s=30.0)
    assert ([r.stats for r in first.results]
            == [r.stats for r in again.results])
    assert queue_status(queue_dir).counts["done"] == 2


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_farm_run_status_report(tmp_path, capsys):
    pytest.importorskip("yaml")
    from repro.cli import main
    spec_path = tmp_path / "tiny.yaml"
    spec_path.write_text(TINY_SPEC)
    queue_dir = str(tmp_path / "q")
    out_dir = str(tmp_path / "out")

    rc = main(["farm", "run", str(spec_path), "--queue-dir", queue_dir,
               "--jobs", "2", "--out-dir", out_dir, "--lease", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "farm run tiny: 2 jobs" in out
    assert "wrote" in out and "perf.md" in out

    rc = main(["farm", "status", "--queue-dir", queue_dir,
               "--expect-done"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "done=2" in out

    rc = main(["farm", "report", str(spec_path), "--queue-dir",
               queue_dir, "--out-dir", out_dir])
    out = capsys.readouterr().out
    assert rc == 0
    assert "| ipc |" in out or "ipc" in out

    # a drained queue leaves nothing for an external worker
    rc = main(["farm", "worker", "--queue-dir", queue_dir])
    assert rc == 0
    assert "executed 0 job(s)" in capsys.readouterr().out


def test_cli_farm_status_without_queue_is_rc2(tmp_path, capsys):
    from repro.cli import main
    rc = main(["farm", "status", "--queue-dir",
               str(tmp_path / "missing")])
    assert rc == 2
    assert "no queue at" in capsys.readouterr().err


def test_cli_rejects_nonpositive_jobs(capsys):
    from repro.cli import main
    for argv in (["compare", "--mix", "H4", "--jobs", "0"],
                 ["farm", "run", "spec.yaml", "--jobs", "-2"],
                 ["farm", "worker", "--queue-dir", "q",
                  "--max-jobs", "0"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
