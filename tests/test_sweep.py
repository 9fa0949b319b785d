"""Tests for the parameter-sweep utility."""

import pytest

from repro.analysis.parallel import RunJob, build_job_config
from repro.analysis.sweep import (get_config_field, grid_overrides,
                                  set_config_field, sweep_jobs)
from repro.uarch.params import quad_core_config


def emc_mix(name, n_instrs):
    return RunJob(workload=("mix", name), n_instrs=n_instrs, emc=True)


def test_set_get_nested_field():
    cfg = quad_core_config()
    set_config_field(cfg, "emc.num_contexts", 4)
    assert cfg.emc.num_contexts == 4
    assert get_config_field(cfg, "emc.num_contexts") == 4
    set_config_field(cfg, "llc.latency", 20)
    assert cfg.llc.latency == 20


def test_set_unknown_field_raises():
    cfg = quad_core_config()
    with pytest.raises(AttributeError):
        set_config_field(cfg, "emc.no_such_knob", 1)
    with pytest.raises(AttributeError):
        set_config_field(cfg, "nosection.x", 1)


def test_sweep_runs_full_grid():
    result = sweep_jobs({"emc.num_contexts": [1, 2],
                         "emc.max_load_depth": [1, 2]},
                        emc_mix("H4", 400))
    assert len(result.points) == 4
    seen = {(p.overrides["emc.num_contexts"],
             p.overrides["emc.max_load_depth"]) for p in result.points}
    assert seen == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for point in result.points:
        assert point.performance > 0


def test_sweep_best_and_table():
    result = sweep_jobs({"emc.enabled": [False, True]}, emc_mix("H3", 400))
    best = result.best()
    assert best.performance == max(p.performance for p in result.points)
    rows = result.table({"perf": lambda p: p.performance,
                         "chains": lambda p:
                         p.result.stats.emc.chains_generated})
    assert len(rows) == 2
    assert {"emc.enabled", "perf", "chains"} <= set(rows[0])


def test_sweep_does_not_mutate_base_config():
    base = emc_mix("H4", 300)
    result = sweep_jobs({"emc.num_contexts": [4]}, base)
    assert result.points[0].result.config.emc.num_contexts == 4
    # points are variants of the frozen base job, which stays as it was
    assert base.overrides == ()
    assert build_job_config(base).emc.num_contexts == 2


def test_grid_overrides_expands_in_declaration_order():
    assert grid_overrides({"b": [1, 2], "a": ["x", "y"]}) == [
        {"b": 1, "a": "x"}, {"b": 1, "a": "y"},
        {"b": 2, "a": "x"}, {"b": 2, "a": "y"}]
