"""Unit tests for the stream, GHB, and Markov prefetchers and FDP."""

from repro.analysis.parallel import (RunJob, build_job_config,
                                     build_job_workload)
from repro.prefetch import (CompositePrefetcher, GHBPrefetcher,
                            MarkovPrefetcher, NullPrefetcher,
                            StreamPrefetcher, build_prefetcher)
from repro.prefetch.base import FDPThrottle, PrefetchStats
from repro.sim.runner import run_built
from repro.sim.system import System
from repro.uarch.params import CACHE_LINE_BYTES as LINE
from repro.uarch.params import PrefetchConfig


def feed(prefetcher, lines, core=0, hit=False, pc=0):
    out = []
    for line in lines:
        out.extend(prefetcher.observe(line * LINE, pc, core, hit))
    return [a // LINE for a in out]


# -- stream ---------------------------------------------------------------

def test_stream_trains_on_ascending_misses():
    pf = StreamPrefetcher(degree=4)
    feed(pf, [100, 101])
    predicted = feed(pf, [102, 103])
    assert predicted
    assert all(p > 102 for p in predicted)
    assert sorted(set(predicted)) == predicted   # no duplicates, ascending


def test_stream_descending_direction():
    pf = StreamPrefetcher(degree=4)
    feed(pf, [200, 199])
    predicted = feed(pf, [198, 197])
    assert predicted
    assert all(p < 198 for p in predicted)


def test_stream_does_not_predict_random():
    pf = StreamPrefetcher(degree=4)
    predicted = feed(pf, [10, 5000, 90000, 123, 777777])
    assert predicted == []


def test_stream_respects_distance():
    pf = StreamPrefetcher(degree=64, distance=8)
    predicted = feed(pf, list(range(100, 105)))
    assert all(p <= 104 + 8 for p in predicted)


def test_stream_tracker_capacity():
    pf = StreamPrefetcher(streams=2)
    feed(pf, [100])
    feed(pf, [5000])
    feed(pf, [90000])   # evicts the LRU tracker
    assert len(pf.entries) == 2


def test_stream_per_core_isolation():
    pf = StreamPrefetcher(degree=4)
    feed(pf, [100, 101], core=0)
    predicted = feed(pf, [102, 103], core=1)
    assert predicted == []   # core 1's stream is untrained


# -- GHB G/DC -------------------------------------------------------------

def test_ghb_constant_stride_predicts_forward():
    pf = GHBPrefetcher(degree=4)
    feed(pf, [10, 12, 14, 16])
    predicted = feed(pf, [18])
    assert predicted == [20, 22, 24, 26]


def test_ghb_repeating_delta_pattern():
    pf = GHBPrefetcher(degree=2)
    # Pattern +1,+3 repeating: 0,1,4,5,8,9,...
    seq = [0, 1, 4, 5, 8, 9, 12]
    predicted = feed(pf, seq)
    assert 13 in predicted or 16 in predicted


def test_ghb_ignores_hits():
    pf = GHBPrefetcher()
    assert feed(pf, [10, 11, 12, 13], hit=True) == []


def test_ghb_needs_history():
    pf = GHBPrefetcher()
    assert feed(pf, [10]) == []
    assert feed(pf, [11]) == []


# -- Markov ---------------------------------------------------------------

def test_markov_learns_recurring_successor():
    pf = MarkovPrefetcher()
    feed(pf, [10, 77, 10])
    predicted = feed(pf, [10])   # hmm: observing 10 again
    # After seeing 10 -> 77 once, a new miss on 10 predicts 77.
    assert 77 in predicted or predicted == []
    # Deterministic check via two full passes:
    pf2 = MarkovPrefetcher()
    feed(pf2, [1, 2, 3, 1])
    predicted = feed(pf2, [2])
    assert 3 in predicted


def test_markov_tracks_multiple_successors():
    pf = MarkovPrefetcher(addrs_per_entry=4)
    feed(pf, [1, 2, 1, 3, 1, 4])
    predicted = feed(pf, [1])
    assert set(predicted) >= {2, 3, 4}


def test_markov_entry_cap():
    pf = MarkovPrefetcher(addrs_per_entry=2)
    feed(pf, [1, 2, 1, 3, 1, 4, 1, 5])
    predicted = feed(pf, [1])
    assert len(predicted) <= 2
    assert 5 in predicted


def test_markov_table_capacity():
    pf = MarkovPrefetcher(table_bytes=MarkovPrefetcher.ENTRY_BYTES * 2)
    feed(pf, [1, 2, 3, 4, 5, 6])
    assert len(pf._table) <= 2


# -- composite / factory ---------------------------------------------------

def test_composite_merges_candidates():
    pf = CompositePrefetcher([StreamPrefetcher(degree=2),
                              GHBPrefetcher(degree=2)])
    predicted = feed(pf, [100, 101, 102, 103])
    assert predicted   # at least one component fires
    assert pf.name == "stream+ghb"


def test_composite_owns_the_counts_of_its_parts():
    job = RunJob(("mix", "H1"), 2000, warmup_instrs=500,
                 prefetcher="markov+stream")
    system = System(build_job_config(job), build_job_workload(job))
    system.warmup(job.warmup_instrs)
    stats = run_built(system).stats
    composite = system.hierarchy.prefetcher
    assert isinstance(composite, CompositePrefetcher)
    assert composite.stats.issued == stats.prefetches_issued > 0
    assert all(part.stats == PrefetchStats() for part in composite.parts)


def test_build_prefetcher_kinds():
    assert isinstance(build_prefetcher(PrefetchConfig(kind="none")),
                      NullPrefetcher)
    assert isinstance(build_prefetcher(PrefetchConfig(kind="stream")),
                      StreamPrefetcher)
    assert isinstance(build_prefetcher(PrefetchConfig(kind="ghb")),
                      GHBPrefetcher)
    assert isinstance(build_prefetcher(PrefetchConfig(kind="markov")),
                      MarkovPrefetcher)
    combo = build_prefetcher(PrefetchConfig(kind="markov+stream"))
    assert isinstance(combo, CompositePrefetcher)


def test_build_prefetcher_rejects_unknown():
    import pytest
    with pytest.raises(ValueError):
        build_prefetcher(PrefetchConfig(kind="oracle"))


# -- FDP -------------------------------------------------------------------

def test_fdp_ramps_up_on_accuracy():
    fdp = FDPThrottle(1, 32)
    start = fdp.degree
    for _ in range(3):
        for _ in range(FDPThrottle.WINDOW):
            fdp.record_useful()
            fdp.record_issue()
    assert fdp.degree > start


def test_fdp_ramps_down_on_inaccuracy():
    fdp = FDPThrottle(1, 32)
    for _ in range(5):
        for _ in range(FDPThrottle.WINDOW):
            fdp.record_issue()
    assert fdp.degree == 1


def test_fdp_clamps_candidates():
    fdp = FDPThrottle(1, 32)
    fdp.degree = 2
    assert fdp.clamp([1, 2, 3, 4]) == [1, 2]
