"""Tests for the one grid expander: ``grid``, ``RunJob.at`` and
``run_grid``, plus the dotted config-path helpers they rely on."""

import pickle
import re

import pytest

from repro.analysis.parallel import RunJob, build_job_config, grid, run_grid
from repro.cli import main
from repro.uarch.params import (get_config_field, quad_core_config,
                                set_config_field)


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
    results = run_grid(emc_mix("H4", 400), {"emc.num_contexts": [1, 2],
                                            "emc.max_load_depth": [1, 2]})
    assert list(results) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    for (contexts, depth), result in results.items():
        assert result.config.emc.num_contexts == contexts
        assert result.config.emc.max_load_depth == depth
        assert result.aggregate_ipc > 0


def test_sweep_best_and_table(capsys):
    rc = main(["sweep", "--mix", "H3", "-n", "400", "--emc",
               "--set", "emc.enabled=false,true"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["emc.enabled", "perf", "emc_frac"]
    perf = {row[0]: row[1] for row in map(str.split, lines[2:4])}
    assert list(perf) == ["False", "True"]
    best, best_perf = re.fullmatch(
        r"best: \{'emc.enabled': (\w+)\} -> ([\d.]+)", lines[4]).groups()
    assert perf[best] == best_perf == max(perf.values(), key=float)


def test_sweep_does_not_mutate_base_config():
    base = emc_mix("H4", 300)
    results = run_grid(base, {"emc.num_contexts": [4]})
    assert results[4,].config.emc.num_contexts == 4
    # points are variants of the frozen base job, which stays as it was
    assert base.overrides == ()
    assert build_job_config(base).emc.num_contexts == 2


def test_grid_overrides_expands_in_declaration_order():
    assert grid({"b": [1, 2], "a": ["x", "y"]}) == [
        {"b": 1, "a": "x"}, {"b": 1, "a": "y"},
        {"b": 2, "a": "x"}, {"b": 2, "a": "y"}]
    # dotted names are appended sorted by path, after the base overrides
    base = RunJob(("mix", "H4"), 400, overrides=(("llc.latency", 20),))
    assert base.at({"emc.z": 1, "dram.a": 2}).overrides == (
        ("llc.latency", 20), ("dram.a", 2), ("emc.z", 1))


def test_point_names_a_job_field_or_a_config_path():
    base = RunJob(("mix", "H4"), 400)
    job = base.at({"num_cores": 8, "seed": 3, "emc": True,
                   "emc.num_contexts": 4})
    assert (job.num_cores, job.seed, job.emc) == (8, 3, True)
    assert job.overrides == (("emc.num_contexts", 4),)
    assert build_job_config(job).num_cores == 8
    # an ``overrides`` axis replaces the base's, dotted names still append
    assert base.at({"overrides": (("llc.latency", 20),),
                    "dram.channels": 2}).overrides == (
        ("llc.latency", 20), ("dram.channels", 2))


def test_sweep_set_num_cores_builds_an_eight_core_job(tmp_path, capsys):
    rc = main(["sweep", "--mix", "H4", "-n", "300", "--set", "num_cores=8",
               "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert "num_cores" in capsys.readouterr().out
    (entry,) = tmp_path.glob("run-*.pkl")
    with open(entry, "rb") as fh:
        result = pickle.load(fh)
    assert result.config.num_cores == 8
    assert len(result.stats.cores) == 8
    assert result.config.ring.topology == "ring"
