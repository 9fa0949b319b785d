"""Tests for the parallel experiment-execution layer
(repro.analysis.parallel): job specs, caching, retry/timeout policy,
deterministic ordering, and serial/parallel bit-identity."""

import os
import pickle
import time

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (ParallelRunError, RunJob,
                                     build_job_config, execute_job,
                                     job_hash, run_grid, run_jobs)

N = 400   # per-core instructions: tiny but structurally complete


def mix(name, seed=1, **fields):
    fields.setdefault("label", name)
    return RunJob(workload=("mix", name), n_instrs=N, seed=seed, **fields)


# ---------------------------------------------------------------------------
# determinism (same seed -> identical SimStats, serial and parallel)
# ---------------------------------------------------------------------------

def _assert_identical(a, b):
    assert a.stats == b.stats                 # full bit-identical SimStats
    assert a.stats.total_cycles == b.stats.total_cycles
    assert [c.ipc() for c in a.stats.cores] == \
           [c.ipc() for c in b.stats.cores]
    assert (a.stats.energy.ring_control_hops,
            a.stats.energy.ring_data_hops) == \
           (b.stats.energy.ring_control_hops,
            b.stats.energy.ring_data_hops)
    assert a.per_core_ipc == b.per_core_ipc
    assert a.energy == b.energy


def test_same_seed_runs_are_identical():
    _assert_identical(execute_job(mix("H4", seed=3)),
                      execute_job(mix("H4", seed=3)))


def test_serial_and_parallel_are_bit_identical():
    jobs_list = [mix("H4", seed=3), mix("H3", emc=True, seed=3)]
    serial = run_jobs(jobs_list, jobs=1)
    fanned = run_jobs(jobs_list, jobs=2)
    for s, p in zip(serial, fanned):
        _assert_identical(s, p)


def test_results_keep_input_order():
    jobs_list = [mix("H4"), mix("H1"), mix("H3")]
    results = run_jobs(jobs_list, jobs=2)
    assert [r.label for r in results] == [j.label for j in jobs_list]


# ---------------------------------------------------------------------------
# job specs
# ---------------------------------------------------------------------------

def test_job_kinds_build_expected_configs():
    solo = RunJob(workload=("named", "mcf"), n_instrs=N)
    assert execute_job(solo).config.num_cores == 1
    eight = RunJob(workload=("eight", "H1"), n_instrs=N, num_mcs=2, emc=True)
    result = execute_job(eight)
    assert result.config.num_cores == 8 and result.config.num_mcs == 2
    with pytest.raises(ValueError):           # needs 1, 4 or 8 names
        build_job_config(RunJob(workload=("named", "mcf", "lbm"),
                                n_instrs=N))


@pytest.mark.parametrize("workload,machine,cores", [
    (("mix", "H4"), "quad", 4),
    (("eight", "H4"), "eight", 8),
    (("homog", "mcf", 4), "quad", 4),
    (("homog", "mcf", 8), "eight", 8),
    (("named", "mcf", "lbm", "milc", "bwaves"), "quad", 4),
    (("named",) + ("mcf", "lbm", "milc", "bwaves") * 2, "eight", 8),
    (("named", "mcf"), "single", 1),
])
def test_workload_tuple_fixes_the_machine(workload, machine, cores):
    job = RunJob(workload=workload, n_instrs=N)
    assert job.machine == machine
    assert job.effective_cores() == cores
    assert build_job_config(job).num_cores == cores


def test_second_memory_controller_needs_an_eight_core_workload():
    for workload in (("mix", "H4"), ("homog", "mcf", 4), ("named", "mcf")):
        with pytest.raises(ValueError, match="num_mcs=2 needs an eight"):
            build_job_config(RunJob(workload=workload, n_instrs=N,
                                    num_mcs=2))
    # ...including a quad workload resized to eight cores
    with pytest.raises(ValueError, match="num_mcs=2"):
        build_job_config(RunJob(workload=("mix", "H4"), n_instrs=N,
                                num_mcs=2, num_cores=8))
    assert build_job_config(RunJob(workload=("homog", "mcf", 8), n_instrs=N,
                                   num_mcs=2)).num_mcs == 2


@pytest.mark.parametrize("num_cores", [2, 8])
def test_named_workload_rejects_another_core_count(num_cores):
    # Rejected with the config, before any build: a job forking from a
    # warm base builds nothing, and must not silently shrink instead.
    job = RunJob(workload=("named", "mcf", "lbm", "milc", "bwaves"),
                 n_instrs=N, num_cores=num_cores, warmup_instrs=50)
    with pytest.raises(ValueError, match="one benchmark per core"):
        build_job_config(job)


def test_job_overrides_and_hash():
    base = mix("H4")
    tuned = mix("H4", overrides=(("emc.num_contexts", 4),))
    assert base.key() != tuned.key()
    assert job_hash(base) != job_hash(tuned)
    assert job_hash(base) == job_hash(mix("H4", label="other"))
    assert execute_job(tuned).config.emc.num_contexts == 4


def test_bad_override_fails_the_job():
    with pytest.raises(ParallelRunError):
        run_jobs([mix("H4", overrides=(("emc.no_such", 1),))])


# ---------------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------------

def test_cache_roundtrip_and_hit(tmp_path, monkeypatch):
    cache = str(tmp_path)
    job = mix("H4", seed=5)
    first = run_jobs([job], cache_dir=cache)[0]
    assert any(f.startswith("run-") for f in os.listdir(cache))
    # A hit must not execute anything: sabotage execution and re-run.
    monkeypatch.setattr(parallel, "execute_job",
                        lambda _job: (_ for _ in ()).throw(AssertionError))
    again = run_jobs([job], cache_dir=cache)[0]
    _assert_identical(first, again)


def test_cached_result_is_not_served_to_other_code(tmp_path, monkeypatch):
    cache = str(tmp_path)
    job = mix("H4", seed=5)
    run_jobs([job], cache_dir=cache)
    calls = []
    real = parallel.execute_job
    monkeypatch.setattr(parallel, "execute_job",
                        lambda job, *a: calls.append(job) or real(job, *a))
    monkeypatch.setattr(parallel, "code_fingerprint", lambda: "other code")
    run_jobs([job], cache_dir=cache)
    assert calls == [job]               # a miss: the code changed
    assert len([f for f in os.listdir(cache) if f.startswith("run-")]) == 2


@pytest.mark.parametrize("junk", [
    b"not a pickle",   # UnpicklingError (bad opcode)
    b"garbage\n",      # ValueError ('g' is a real opcode with a bad operand)
    b"",               # EOFError
])
def test_corrupt_cache_entry_is_recomputed(tmp_path, junk):
    cache = str(tmp_path)
    job = mix("H4", seed=5)
    expected = run_jobs([job], cache_dir=cache)[0]
    path = os.path.join(cache, f"run-{job_hash(job)}.pkl")
    with open(path, "wb") as fh:
        fh.write(junk)
    result = run_jobs([job], cache_dir=cache)[0]
    _assert_identical(expected, result)


def test_truncated_cache_entry_warns_and_is_recomputed(tmp_path, capsys):
    cache = str(tmp_path)
    job = mix("H4", seed=5)
    expected = run_jobs([job], cache_dir=cache)[0]
    path = os.path.join(cache, f"run-{job_hash(job)}.pkl")
    with open(path, "rb") as fh:
        payload = fh.read()
    with open(path, "wb") as fh:
        fh.write(payload[:len(payload) // 2])
    capsys.readouterr()
    result = run_jobs([job], cache_dir=cache)[0]
    _assert_identical(expected, result)
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1
    assert path in warnings[0] and "Error" in warnings[0]
    # The recompute rewrote the entry: the next load is a silent hit.
    run_jobs([job], cache_dir=cache)
    assert "warning:" not in capsys.readouterr().err


def test_parallel_workers_fill_the_cache(tmp_path):
    cache = str(tmp_path)
    jobs_list = [mix("H4", seed=7), mix("H3", seed=7)]
    run_jobs(jobs_list, jobs=2, cache_dir=cache)
    for job in jobs_list:
        with open(os.path.join(cache, f"run-{job_hash(job)}.pkl"),
                  "rb") as fh:
            assert pickle.load(fh).stats.total_cycles > 0


# ---------------------------------------------------------------------------
# retry / timeout
# ---------------------------------------------------------------------------

def test_flaky_job_is_retried_once(monkeypatch):
    calls = {"n": 0}
    real = execute_job

    def flaky(job, cache_dir=None, warm_base=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("transient")
        return real(job, cache_dir, warm_base)

    monkeypatch.setattr(parallel, "execute_job", flaky)
    result = run_jobs([mix("H4")])[0]
    assert calls["n"] == 2 and result.stats.total_cycles > 0


def test_twice_failing_job_raises(monkeypatch):
    def broken(_job, _cache_dir=None, _warm_base=None):
        raise OSError("boom")

    monkeypatch.setattr(parallel, "execute_job", broken)
    with pytest.raises(ParallelRunError, match="failed twice"):
        run_jobs([mix("H4")])


def test_per_job_timeout(monkeypatch):
    def stuck(_job, _cache_dir=None, _warm_base=None):
        time.sleep(5)

    monkeypatch.setattr(parallel, "execute_job", stuck)
    started = time.monotonic()
    with pytest.raises(ParallelRunError):
        run_jobs([mix("H4")], timeout=0.2)
    assert time.monotonic() - started < 4     # both attempts were cut short


def test_progress_callback_sees_every_job():
    seen = []
    run_jobs([mix("H4"), mix("H1")],
             progress=lambda done, total, label, elapsed:
             seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


# ---------------------------------------------------------------------------
# sweeps through the runner
# ---------------------------------------------------------------------------

def test_sweep_jobs_matches_serial_sweep(tmp_path):
    grid = {"emc.num_contexts": [1, 2], "emc.max_load_depth": [1, 2]}
    serial = run_grid(mix("H4", emc=True), grid)
    fanned = run_grid(mix("H4", emc=True), grid, jobs=2,
                      cache_dir=str(tmp_path))
    assert len(serial) == len(fanned) == 4
    assert list(serial) == list(fanned)
    for point, result in serial.items():
        _assert_identical(result, fanned[point])


def test_sweep_jobs_base_overrides_are_kept():
    base = mix("H4", overrides=(("llc.latency", 20),))
    cfg = run_grid(base, {"emc.enabled": [True]})[True,].config
    assert cfg.llc.latency == 20 and cfg.emc.enabled
