"""Phased lifecycle tests: warmup/measure windows, the uniform
SimComponent snapshot/restore protocol, and checkpoint/resume.

The bit-identity oracle is the sanitizer's state flattening
(:func:`repro.lint.sanitize.flatten_state` / the sanitize_* drivers), so
a regression here reports the exact diverging component and field.
"""

import dataclasses
import pickle
import re

import pytest

from repro.analysis.parallel import (RunJob, execute_job, run_direct,
                                     run_jobs, warmup_checkpoint_path)
from repro.lint.sanitize import (flatten_state, sanitize_checkpoint_roundtrip,
                                 sanitize_parallel_runner)
from repro.sim.component import SnapshotError
from repro.sim.system import DeadlockError, SimTimeoutError, System
from repro.uarch.params import quad_core_config, set_config_field
from repro.workloads.mixes import build_mix

N = 400   # per-core instructions: tiny but structurally complete


def h4(warmup_instrs=0):
    """H4 warmed under its own config (no shared-warmup fork)."""
    return run_direct(RunJob(workload=("mix", "H4"), n_instrs=N,
                             warmup_instrs=warmup_instrs))


# ---------------------------------------------------------------------------
# warmup window
# ---------------------------------------------------------------------------

def test_warmup_measures_only_the_remaining_region():
    warm = System(quad_core_config(), build_mix("H4", N, seed=1))
    warm.warmup(100)
    # The boundary is atomic: stats zeroed, clock rewound, wheel empty.
    assert warm.wheel.now == 0 and warm.wheel.pending == 0
    assert all(c.stats.instructions == 0 for c in warm.cores)
    # Quiescing is natural (in-flight work retires), so each core reaches
    # at least the target and may overshoot by what was in flight.
    consumed = [c._fetch_index for c in warm.cores]
    assert all(k >= 100 for k in consumed)
    stats = warm.run()
    # The measured region is exactly the rest of each trace.
    assert [c.instructions for c in stats.cores] == \
           [len(c._trace) - k for c, k in zip(warm.cores, consumed)]


def test_warmup_changes_measured_timing_but_not_work():
    cold = h4()
    warm = h4(warmup_instrs=100)
    assert warm.stats.total_cycles != cold.stats.total_cycles
    for warm_core, cold_core in zip(warm.stats.cores, cold.stats.cores):
        assert 0 < warm_core.instructions <= cold_core.instructions - 100


def test_warmup_wraps_the_trace_without_finishing():
    system = System(quad_core_config(), build_mix("H4", 200, seed=1))
    system.warmup(300)          # > trace length: each core wraps once
    assert all(not c.finished for c in system.cores)
    stats = system.run()
    assert all(c.finished for c in system.cores)
    assert all(c.instructions > 0 for c in stats.cores)


def test_warmup_requires_a_fresh_machine():
    system = System(quad_core_config(), build_mix("H4", 200, seed=1))
    system.warmup(50)
    with pytest.raises(SnapshotError):
        system.warmup(50)
    ran = System(quad_core_config(), build_mix("H4", 200, seed=1))
    ran.run()
    with pytest.raises(SnapshotError):
        ran.warmup(50)


def test_warmup_budget_overrun_raises_sim_timeout():
    system = System(quad_core_config(), build_mix("H4", N, seed=1))
    with pytest.raises(SimTimeoutError):
        system.warmup(N, max_cycles=50)


def test_warmup_reports_laggard_cores_on_deadlock():
    system = System(quad_core_config(), build_mix("H4", N, seed=1))
    # Wedge one core through state the tick reads (both the C kernel and
    # the Python body): a fetch block that no branch will ever lift.
    system.cores[0]._fetch_blocked = True
    with pytest.raises(DeadlockError, match=r"cores \[0\]"):
        system.warmup(100)


# ---------------------------------------------------------------------------
# snapshot/restore protocol
# ---------------------------------------------------------------------------

def test_fresh_system_snapshot_restore_roundtrip():
    a = System(quad_core_config(emc=True), build_mix("H4", N, seed=1))
    snap = pickle.loads(pickle.dumps(a.snapshot()))
    b = System(quad_core_config(emc=True), build_mix("H4", N, seed=1))
    b.restore(snap)
    assert flatten_state(b.snapshot()) == flatten_state(a.snapshot())


def test_snapshot_refuses_a_machine_in_flight():
    system = System(quad_core_config(), build_mix("H4", 200, seed=1))
    system.wheel.schedule(10, lambda: None)
    with pytest.raises(SnapshotError):
        system.snapshot()


def test_restore_rejects_foreign_state():
    a = System(quad_core_config(emc=True), build_mix("H4", 200, seed=1))
    b = System(quad_core_config(emc=False), build_mix("H4", 200, seed=1))
    with pytest.raises(SnapshotError):
        b.restore(a.snapshot())         # EMC presence mismatch
    with pytest.raises(SnapshotError):
        b.restore({"component": "System", "config": {"num_cores": 99}})


@pytest.mark.parametrize("field, value, path", [
    ("l1.ways", 4, "System.cores[0].l1"),
    ("dram.row_bytes", 4096, "System.hierarchy.dram[0]"),
])
def test_restore_names_the_nested_component_whose_config_differs(
        field, value, path):
    a = System(quad_core_config(), build_mix("H4", 200, seed=1))
    cfg = quad_core_config()
    set_config_field(cfg, field, value)
    b = System(cfg, build_mix("H4", 200, seed=1))
    assert b.config_state() == a.config_state()
    with pytest.raises(SnapshotError, match=re.escape(f"{path}: config")):
        b.restore(a.snapshot())


# ---------------------------------------------------------------------------
# checkpoint/resume
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("emc", [False, True])
def test_checkpoint_roundtrip_is_bit_identical(emc):
    report = sanitize_checkpoint_roundtrip(RunJob(
        workload=("mix", "H4"), n_instrs=N, emc=emc, warmup_instrs=100))
    assert report.deterministic, report.format()


def test_from_checkpoint_rejects_garbage(tmp_path):
    bogus = tmp_path / "bogus.pkl"
    bogus.write_bytes(pickle.dumps({"format": "something-else"}))
    with pytest.raises(SnapshotError):
        System.from_checkpoint(str(bogus))


# ---------------------------------------------------------------------------
# warmup-checkpoint sharing in the experiment runner
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, calls):
    """Record every System.warmup and System.from_checkpoint call."""
    warmup, load = System.warmup, System.from_checkpoint
    monkeypatch.setattr(
        System, "warmup",
        lambda self, *a, **kw: calls.append("warmup") or warmup(self, *a,
                                                                **kw))
    monkeypatch.setattr(
        System, "from_checkpoint",
        classmethod(lambda cls, path, tracer=None:
                    calls.append(path) or load(path, tracer=tracer)))


def _garbage(path):
    with open(path, "wb") as fh:
        fh.write(b"truncated")


def _stamped(**stamp):
    """Restamp a checkpoint as if other code had written it."""
    def spoil(path):
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload.pop("code", None)
        payload.update(stamp)
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
    return spoil


# Before the code fingerprint, checkpoints carried an integer version:
# version 3 pickled every image word in one dict, version 4 snapshot
# headers still carried a ``kind`` field.
@pytest.mark.parametrize(
    "spoil", [_garbage, _stamped(version=3), _stamped(version=4),
              _stamped(code="0" * 64)],
    ids=["garbage", "version_3", "version_4", "foreign_fingerprint"])
def test_unreadable_warmup_checkpoint_is_rewarmed(tmp_path, capsys, spoil):
    job = RunJob(workload=("mix", "H4"), n_instrs=N, warmup_instrs=100)
    uncached = execute_job(job)
    cache = str(tmp_path)
    execute_job(job, cache)
    path = warmup_checkpoint_path(cache, job)
    spoil(path)
    capsys.readouterr()
    result = execute_job(job, cache)
    assert result.warmed_from == "fresh"
    assert result.stats == uncached.stats
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1 and path in warnings[0]
    # The fresh warmup rewrote the file: the next job resumes silently.
    again = execute_job(job, cache)
    assert again.warmed_from == "checkpoint"
    assert again.stats == uncached.stats
    assert "warning:" not in capsys.readouterr().err


def test_sweep_points_share_one_warmup_checkpoint(tmp_path, monkeypatch):
    base = RunJob(workload=("mix", "H4"), n_instrs=N, warmup_instrs=100)
    # Same warmup identity, different measurement budget: the second job
    # forks from the base the first one warmed, kept in memory.
    jobs = [base, dataclasses.replace(base, max_cycles=40_000_000,
                                      label="budget-variant")]
    assert warmup_checkpoint_path(str(tmp_path), jobs[0]) == \
           warmup_checkpoint_path(str(tmp_path), jobs[1])

    calls = []
    _count_calls(monkeypatch, calls)
    results = run_jobs(jobs, jobs=1, cache_dir=str(tmp_path))
    assert calls == ["warmup"]              # one warmup, no reload
    assert len(list(tmp_path.glob("warmup-ckpt/wck-*.pkl"))) == 1
    assert results[0].stats == results[1].stats


def test_second_sweep_resumes_from_the_checkpoint_once(tmp_path,
                                                       monkeypatch):
    base = RunJob(workload=("mix", "H4"), n_instrs=N, warmup_instrs=100)
    run_jobs([base], jobs=1, cache_dir=str(tmp_path))
    # New points (result-cache misses) with the same warmup identity: the
    # new call loads the checkpoint from disk once, then forks in memory.
    later = [dataclasses.replace(base, prefetcher="stream"),
             dataclasses.replace(base, emc=True)]
    calls = []
    _count_calls(monkeypatch, calls)
    resumed = run_jobs(later, jobs=1, cache_dir=str(tmp_path))
    ckpts = list(tmp_path.glob("warmup-ckpt/wck-*.pkl"))
    assert calls == [str(ckpts[0])]
    scratch = run_jobs(later, jobs=1)       # fresh warmup per job
    assert [r.stats for r in resumed] == [r.stats for r in scratch]


def test_parallel_runner_matches_serial_with_warmup():
    report = sanitize_parallel_runner(
        RunJob(workload=("mix", "H4"), n_instrs=N, warmup_instrs=50), jobs=2)
    assert report.deterministic, report.format()


# ---------------------------------------------------------------------------
# named workloads (label + config overrides)
# ---------------------------------------------------------------------------

def test_named_workload_labels_and_applies_overrides():
    job = RunJob(workload=("named", "mcf", "mcf", "soplex", "milc"),
                 n_instrs=200, emc=True, overrides=(("emc.num_contexts", 1),),
                 label="mcf+mcf+soplex+milc/none+emc")
    result = execute_job(job)
    assert result.label == "mcf+mcf+soplex+milc/none+emc"
    assert result.config.emc.num_contexts == 1
    with pytest.raises(ValueError, match="no.such.field"):
        execute_job(dataclasses.replace(
            job, overrides=(("no.such.field", 1),)))
