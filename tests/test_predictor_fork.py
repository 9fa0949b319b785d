"""Cross-kind predictor re-seating under System.fork (satellite of the
pluggable-predictor refactor).

A MAP-I-warmed machine forks into a Hermes EMC (and back): the learned
counter tables mean nothing to the perceptron's weight tables, so they
drop with explicit per-core 0/len accounting while everything else —
caches, TLBs, stats — carries exactly as an identity fork would.
"""

import pytest

from repro.emc.miss_predictor import HermesPerceptron, MissPredictor
from repro.lint.sanitize import flatten_state
from repro.sim.system import System
from repro.uarch.params import quad_core_config
from repro.workloads.mixes import build_mix

N = 600


def warmed(kind="map-i", warmup=300):
    cfg = quad_core_config(emc=True)
    cfg.emc.predictor.kind = kind
    system = System(cfg, build_mix("H4", N, seed=1))
    system.warmup(warmup)
    return system


def predictor_paths(report):
    return {path: counts for path, counts in report.as_dict().items()
            if "miss_predictor" in path}


def test_fork_to_hermes_drops_learned_state_with_per_core_accounting():
    parent = warmed("map-i")
    pred = parent.emcs[0].miss_predictor
    assert isinstance(pred, MissPredictor)
    assert pred._tables, "warmup should have trained the predictor"
    child, report = parent.fork({"emc.predictor.kind": "hermes"})
    assert isinstance(child.emcs[0].miss_predictor, HermesPerceptron)
    assert not child.emcs[0].miss_predictor._tables
    dropped = predictor_paths(report)
    assert dropped  # one path per warmed core table
    assert all(kept == 0 and total == len(pred._tables[int(p.rsplit("core", 1)[1])])
               for p, (kept, total) in dropped.items())
    # Everything that is not the predictor carries like an identity fork.
    identity = predictor_paths(parent.fork()[1])
    assert set(dropped) == set(identity)
    assert all(kept == total for kept, total in identity.values())
    assert report.ratio("hierarchy/llc/cache") == 1.0
    # Stats carry: the fork continues the parent's counters.
    assert child.stats.emc.miss_pred_correct == \
        parent.stats.emc.miss_pred_correct
    child.run()


def test_fork_back_to_map_i_drops_hermes_state():
    parent = warmed("hermes")
    pred = parent.emcs[0].miss_predictor
    assert isinstance(pred, HermesPerceptron)
    assert pred._tables
    child, report = parent.fork({"emc.predictor.kind": "map-i"})
    assert isinstance(child.emcs[0].miss_predictor, MissPredictor)
    assert not child.emcs[0].miss_predictor._tables
    dropped = predictor_paths(report)
    assert dropped
    assert all(kept == 0 and total > 0
               for kept, total in dropped.values())
    child.run()


def test_repeat_cross_kind_fork_is_bit_identical():
    parent = warmed("map-i")
    first, _ = parent.fork({"emc.predictor.kind": "hermes"})
    again, _ = parent.fork({"emc.predictor.kind": "hermes"})
    assert flatten_state(first.snapshot()) == \
           flatten_state(again.snapshot())
    stats_a = first.run()
    stats_b = again.run()
    assert stats_a == stats_b


def test_identity_fork_carries_predictor_whole():
    parent = warmed("map-i")
    child, report = parent.fork()
    for kept, total in predictor_paths(report).values():
        assert kept == total > 0
    assert flatten_state(child.snapshot()) == \
           flatten_state(parent.snapshot())


def test_fork_rejects_unknown_predictor_kind():
    parent = warmed("map-i")
    with pytest.raises(ValueError, match="unknown predictor"):
        parent.fork({"emc.predictor.kind": "oracle"})
