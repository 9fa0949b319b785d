"""Tests for the request-lifecycle tracing layer (repro.trace).

Covers the four guarantees docs/tracing.md makes:

- disabled tracing is free: the NullTracer records nothing and its hooks
  allocate nothing on the hot path;
- enabled tracing is exact: every finished request's stage spans tile its
  lifetime, so per-stage cycles sum to the measured end-to-end latency;
- the Chrome trace-event export is well-formed JSON;
- EMC-issued requests carry the EMC stages and chain track events.
"""

import gc
import json
import sys

import pytest

from repro.analysis.parallel import RunJob, execute_job, run_jobs
from repro.sim.runner import run_system
from repro.trace import (CATEGORIES, CATEGORY_OF, NULL_TRACER, NullTracer,
                         Stage, TraceError, Tracer, trace_enabled_from_env)
from repro.uarch.params import quad_core_config
from repro.workloads.mixes import build_mix


@pytest.fixture(scope="module")
def traced_emc_run():
    """One small traced quad-core EMC run shared by the exactness tests."""
    tracer = Tracer()
    cfg = quad_core_config(prefetcher="none", emc=True, seed=1)
    workload = build_mix("H1", 2000, seed=1)
    result = run_system(cfg, workload, tracer=tracer)
    return tracer, result


# ---------------------------------------------------------------------------
# disabled path
# ---------------------------------------------------------------------------

def test_null_tracer_records_nothing():
    tracer = NullTracer()

    class Req:
        pass

    req = Req()
    tracer.begin(req, Stage.RING_REQ)
    tracer.mark(req, Stage.LLC_LOOKUP)
    tracer.mark_at(req, Stage.MC_QUEUE, 10)
    tracer.instant(req, Stage.L1_MISS)
    tracer.instant_at(req, Stage.L1_FILL, 20)
    tracer.end(req, True)
    tracer.track(Stage.CHAIN_ARRIVE, 0, 0)
    assert not hasattr(req, "trace")
    assert not tracer.enabled


def test_null_tracer_hot_path_allocates_nothing():
    if not hasattr(sys, "getallocatedblocks"):
        pytest.skip("needs sys.getallocatedblocks (CPython)")
    tracer = NULL_TRACER

    class Req:
        pass

    req = Req()
    # Warm up any method-lookup caches, then measure.
    for _ in range(10):
        tracer.mark(req, Stage.LLC_LOOKUP)
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(10_000):
        tracer.begin(req, Stage.RING_REQ)
        tracer.mark(req, Stage.LLC_LOOKUP)
        tracer.end(req, True)
    gc.collect()
    after = sys.getallocatedblocks()
    # Unrelated interpreter activity can move the needle by a few blocks;
    # 30k no-op calls leaking would move it by thousands.
    assert abs(after - before) < 50


def test_untraced_run_attaches_no_records(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    cfg = quad_core_config(prefetcher="none", emc=False, seed=1)
    result = run_system(cfg, build_mix("H1", 1000, seed=1))
    assert result.latency_attribution is None


# ---------------------------------------------------------------------------
# enabled path: exactness
# ---------------------------------------------------------------------------

def test_every_record_verifies_and_sums_exactly(traced_emc_run):
    tracer, _result = traced_emc_run
    finished = tracer.finished()
    assert len(finished) > 100
    for rec in finished:
        rec.verify()
        span_sum = sum(end - start for start, end, _ in rec.spans())
        assert span_sum == rec.total == rec.t_end - rec.t_begin
        assert sum(rec.breakdown().values()) == rec.total


def test_attribution_buckets_cover_all_finished(traced_emc_run):
    tracer, result = traced_emc_run
    att = result.latency_attribution
    buckets = [att.core_miss, att.core_hit, att.emc_miss, att.emc_hit]
    assert sum(b.count for b in buckets) == len(tracer.finished())
    # Per-bucket category cycles sum to the bucket's total cycles.
    for bucket in buckets:
        assert sum(bucket.by_category.values()) == bucket.total_cycles
    # The headline Figure 18 comparison holds on this mix.
    assert att.core_miss.count > 0 and att.emc_miss.count > 0
    assert att.emc_miss.mean_total < att.core_miss.mean_total


def test_savings_sum_to_latency_difference(traced_emc_run):
    _tracer, result = traced_emc_run
    att = result.latency_attribution
    saved = att.savings()
    diff = att.core_miss.mean_total - att.emc_miss.mean_total
    assert sum(saved.values()) == pytest.approx(diff)


def test_dram_onchip_split_sums_to_mean(traced_emc_run):
    _tracer, result = traced_emc_run
    att = result.latency_attribution
    dram, onchip = att.dram_onchip_split()
    assert dram + onchip == pytest.approx(att.core_miss.mean_total)
    assert dram > 0 and onchip > 0


def test_verify_catches_a_corrupted_record(traced_emc_run):
    tracer, _result = traced_emc_run
    rec = tracer.finished()[0]
    bad = type(rec)(req_id=rec.req_id, core_id=rec.core_id, pc=rec.pc,
                    line=rec.line, emc=rec.emc, t_begin=rec.t_begin,
                    marks=list(rec.marks) + [(rec.t_end + 5, "bogus")],
                    t_end=rec.t_end)
    with pytest.raises(TraceError):
        bad.verify()
    non_monotone = type(rec)(req_id=rec.req_id, core_id=rec.core_id,
                             pc=rec.pc, line=rec.line, emc=rec.emc,
                             t_begin=rec.t_begin,
                             marks=list(reversed(rec.marks)),
                             t_end=rec.t_end)
    with pytest.raises(TraceError):
        non_monotone.verify()


def test_every_stage_has_a_category():
    assert set(CATEGORY_OF.values()) <= set(CATEGORIES)


# ---------------------------------------------------------------------------
# EMC path
# ---------------------------------------------------------------------------

def test_emc_records_carry_emc_stages(traced_emc_run):
    tracer, _result = traced_emc_run
    emc_recs = [rec for rec in tracer.finished() if rec.emc]
    assert emc_recs
    for rec in emc_recs:
        # Every EMC-issued request opens with the zero-length issue marker.
        assert rec.stages()[0] == Stage.EMC_ISSUE
        assert Stage.RING_CORE not in rec.stages()  # no core fill leg
    core_recs = [rec for rec in tracer.finished() if not rec.emc]
    for rec in core_recs:
        assert rec.stages()[0] == Stage.RING_REQ


def test_chain_track_events_recorded(traced_emc_run):
    tracer, _result = traced_emc_run
    names = {name for _t, name, _mc, _core in tracer.track_events}
    assert Stage.CHAIN_ARRIVE in names
    assert Stage.CHAIN_DISPATCH in names
    assert (Stage.EMC_DIRECT_DRAM in names) or (Stage.EMC_LLC_PATH in names)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------

def test_chrome_json_round_trips(traced_emc_run, tmp_path):
    tracer, _result = traced_emc_run
    payload = json.loads(tracer.to_chrome_json())
    events = payload["traceEvents"]
    assert events
    complete = [e for e in events if e["ph"] == "X"]
    assert complete
    for e in complete:
        assert e["dur"] >= 0
        assert e["ts"] >= 0
        assert e["cat"] in CATEGORIES
    assert any(e["ph"] == "i" for e in events)
    assert any(e["ph"] == "M" for e in events)
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    assert json.loads(path.read_text())["traceEvents"]


def test_tracer_limit_caps_records():
    tracer = Tracer(limit=10)
    cfg = quad_core_config(prefetcher="none", emc=False, seed=1)
    run_system(cfg, build_mix("H1", 1000, seed=1), tracer=tracer)
    assert len(tracer.requests) == 10


# ---------------------------------------------------------------------------
# wiring: env var and the parallel layer
# ---------------------------------------------------------------------------

def test_repro_trace_env_enables_tracing(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert trace_enabled_from_env()
    cfg = quad_core_config(prefetcher="none", emc=False, seed=1)
    result = run_system(cfg, build_mix("H1", 1000, seed=1))
    assert result.latency_attribution is not None
    assert result.latency_attribution.core_miss.count > 0


def test_run_job_trace_flag():
    traced = RunJob(workload=("mix", "H1"), n_instrs=1000, trace=True)
    untraced = RunJob(workload=("mix", "H1"), n_instrs=1000)
    assert traced.key() != untraced.key()
    result = execute_job(traced)
    assert result.latency_attribution is not None
    assert execute_job(untraced).latency_attribution is None


def test_cached_job_result_does_not_depend_on_repro_trace(tmp_path,
                                                          monkeypatch):
    """A result stored under a job hash is the job's own: filling the
    cache under REPRO_TRACE=1 must not store a traced result that an
    untraced read of the same job then gets back."""
    job = RunJob(workload=("mix", "H1"), n_instrs=300)
    monkeypatch.setenv("REPRO_TRACE", "1")
    run_jobs([job], cache_dir=str(tmp_path))
    monkeypatch.delenv("REPRO_TRACE")
    cached = run_jobs([job], cache_dir=str(tmp_path))[0]
    assert cached.latency_attribution is None
    assert run_jobs([job])[0].stats == cached.stats


def test_repro_trace_env_is_the_cli_trace_default(monkeypatch):
    from repro.cli import build_parser
    argv = ["run", "--mix", "H1"]
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert not build_parser().parse_args(argv).trace
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert build_parser().parse_args(argv).trace


def test_traced_and_untraced_runs_time_identically():
    """Tracing must observe, not perturb: same cycles, same IPC."""
    cfg1 = quad_core_config(prefetcher="none", emc=True, seed=1)
    r1 = run_system(cfg1, build_mix("H1", 1500, seed=1))
    cfg2 = quad_core_config(prefetcher="none", emc=True, seed=1)
    r2 = run_system(cfg2, build_mix("H1", 1500, seed=1), tracer=Tracer())
    assert r1.stats.total_cycles == r2.stats.total_cycles
    assert r1.per_core_ipc == r2.per_core_ipc
