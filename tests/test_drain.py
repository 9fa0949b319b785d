"""The one drain loop behind run_jobs, run_worker and serve_queue.

Both execution modes — in-process (``jobs=1``) and the process pool
(``jobs=2``) — go through the same lease/execute/store/complete loop, so
the failure, warm-base and ordering properties are checked on each.
"""

import dataclasses
import time

import pytest

from repro.analysis import parallel
from repro.analysis.farm import (MAX_ATTEMPTS, FarmError, JobQueue,
                                 collect_results, queue_status, run_worker,
                                 serve_queue)
from repro.analysis.parallel import ParallelRunError, RunJob, run_jobs
from repro.sim.system import System

from .test_farm import _poison_job


def _sweep():
    base = RunJob(workload=("mix", "H4"), n_instrs=300, warmup_instrs=100)
    return [base, dataclasses.replace(base, prefetcher="stream"),
            dataclasses.replace(base, emc=True)]


def _count_warmups_and_loads(monkeypatch):
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
    return calls


def _poison_pair():
    """Two distinct poison jobs, so ``jobs=2`` really starts a pool."""
    return [_poison_job(), dataclasses.replace(_poison_job(), seed=2)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_jobs_raises_on_a_failing_job(jobs):
    with pytest.raises(ParallelRunError, match="failed: ValueError"):
        run_jobs(_poison_pair(), jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_serve_queue_names_the_permanently_failed_job(tmp_path, jobs):
    queue_dir = str(tmp_path / "q")
    bad = _poison_pair()
    JobQueue(queue_dir).enqueue(bad, "demo")
    with pytest.raises(FarmError) as err:
        serve_queue(queue_dir, bad, jobs=jobs, lease_s=30.0)
    assert "failed: poison: ValueError(" in str(err.value)


def test_serve_queue_in_process_forks_sweep_points_from_one_warm_base(
        tmp_path, monkeypatch):
    jobs = _sweep()
    queue_dir = str(tmp_path / "q")
    JobQueue(queue_dir).enqueue(jobs, "demo")
    calls = _count_warmups_and_loads(monkeypatch)
    serve_queue(queue_dir, jobs, jobs=1, lease_s=30.0)
    assert calls == ["warmup"]      # one warmup, the rest fork in memory
    farmed = collect_results(queue_dir, jobs)
    assert [r.stats for r in farmed] == [r.stats for r in run_jobs(jobs)]


def test_pool_worker_forks_sweep_points_from_its_warm_base(tmp_path,
                                                          monkeypatch):
    first, second = _sweep()[1:]
    monkeypatch.setattr(parallel, "_pool_warm_base", None)
    calls = _count_warmups_and_loads(monkeypatch)
    parallel._init_pool_worker()
    cache = str(tmp_path / "cache")
    pooled = [parallel._execute_pooled(job, None, cache)
              for job in (first, second)]
    assert calls == ["warmup"]      # the second point forked from memory
    serial = run_jobs([first, second], jobs=1)
    assert [r.stats for r in pooled] == [r.stats for r in serial]


def test_sweep_without_a_cache_dir_warms_once(tmp_path, monkeypatch):
    calls = _count_warmups_and_loads(monkeypatch)
    uncached = run_jobs(_sweep(), jobs=1)
    assert calls == ["warmup"]      # the later points fork from memory
    cached = run_jobs(_sweep(), jobs=1, cache_dir=str(tmp_path))
    assert [r.stats for r in uncached] == [r.stats for r in cached]
    assert [r.warmed_from for r in uncached] == \
           [r.warmed_from for r in cached]


@pytest.mark.parametrize("jobs", [1, 2])
def test_duplicated_job_gets_its_result_at_both_positions(jobs):
    a, b = (RunJob(workload=("mix", "H4"), n_instrs=300, seed=seed,
                   label=f"s{seed}") for seed in (1, 2))
    results = run_jobs([a, b, a], jobs=jobs)
    assert [r.label for r in results] == ["s1", "s2", "s1"]
    assert results[0].stats == results[2].stats
    assert results[0].stats != results[1].stats


def test_lease_is_renewed_while_its_job_executes(tmp_path, monkeypatch):
    queue_dir = str(tmp_path / "q")
    JobQueue(queue_dir).enqueue([RunJob(workload=("mix", "H4"),
                                        n_instrs=300, label="slow")])
    beats = []
    heartbeat = JobQueue.heartbeat
    monkeypatch.setattr(
        JobQueue, "heartbeat",
        lambda self, *a, **kw: beats.append(a) or heartbeat(self, *a, **kw))
    real = parallel.execute_job

    def slow(job, cache_dir=None, warm_base=None):
        time.sleep(0.5)
        return real(job, cache_dir, warm_base)

    monkeypatch.setattr(parallel, "execute_job", slow)
    assert run_worker(queue_dir, worker_id="w1", lease_s=0.3) == 1
    assert beats and all(beat[:2] == beats[0][:2] for beat in beats)
    assert queue_status(queue_dir).all_done


def test_failing_job_is_attempted_max_attempts_times(monkeypatch):
    calls = []
    monkeypatch.setattr(parallel, "execute_job",
                        lambda job, *_: calls.append(job) or 1 / 0)
    with pytest.raises(ParallelRunError, match="failed: ZeroDivisionError"):
        run_jobs([_poison_job()])
    assert len(calls) == 1              # a simulator error is not retried

    def host_fault(job, *_):
        calls.append(job)
        raise OSError("disk went away")

    calls.clear()
    monkeypatch.setattr(parallel, "execute_job", host_fault)
    with pytest.raises(ParallelRunError, match="failed twice: OSError"):
        run_jobs([_poison_job()])
    assert len(calls) == MAX_ATTEMPTS
