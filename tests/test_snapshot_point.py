"""Cycle 0 is the only snapshot point, and snapshots carry no statistic.

A machine is snapshotted (and so forked or checkpointed) only with an
empty event wheel at cycle 0: freshly built, or at the warmup/measure
boundary right after ``reset_stats``.  There every counter sits at its
construction value in the snapshotted machine and in any machine it is
seated into, which is why no snapshot carries one.  That every counter
is back at its construction value there is checked by
tests/test_fork_identity.py, which compares the live boundary machine
with its freshly built fork.
"""

import pytest

from repro.analysis.parallel import (RunJob, build_job_config,
                                     build_job_workload)
from repro.lint.sanitize import flatten_state
from repro.sim.component import CarryoverReport, SnapshotError
from repro.sim.system import System

N = 400


def build(job):
    return System(build_job_config(job), build_job_workload(job))


def boundary(job):
    system = build(job)
    system.warmup(job.warmup_instrs)
    return system


# -- (a) a machine that has run is never snapshotted ------------------------

def test_a_machine_that_has_run_refuses_snapshot_fork_and_checkpoint(
        tmp_path):
    job = RunJob(("mix", "H4"), N)
    ran = build(job)
    ran.run()
    assert ran.wheel.now > 0 and ran.wheel.pending == 0
    with pytest.raises(SnapshotError, match="cycle"):
        ran.snapshot()
    with pytest.raises(SnapshotError, match="cycle"):
        ran.fork()
    with pytest.raises(SnapshotError, match="cycle"):
        ran.checkpoint(str(tmp_path / "ran.ckpt"))
    assert not (tmp_path / "ran.ckpt").exists()
    state = build(job).snapshot()
    with pytest.raises(SnapshotError, match="cycle"):
        ran.reseat(state, CarryoverReport())
    with pytest.raises(SnapshotError, match="cycle"):
        ran.restore(state)


# -- (b) no statistic enters a snapshot --------------------------------------

def test_boundary_snapshot_ignores_every_statistic():
    system = boundary(RunJob(("mix", "H4"), N, warmup_instrs=100, emc=True,
                             prefetcher="stream"))
    before = flatten_state(system.snapshot())
    hierarchy = system.hierarchy
    dram = hierarchy.dram[0]
    system.stats.cores[0].llc_misses += 1
    system.cores[1].l1.stats.hits += 1
    hierarchy.llc.slices[2].stats.demand_hits += 1
    hierarchy.llc.slices[2].mshr.coalesced += 1
    dram.stats.row_conflicts += 1
    next(iter(dram.channels.values())).banks[0].row_hits += 1
    system.ring.stats.data_hops += 1
    hierarchy.prefetcher.stats.issued += 1
    system.emcs[0].tlbs.for_core(3).hits += 1
    after = flatten_state(system.snapshot())
    assert after == before
    assert not [key for key in after
                if any(leaf in key for leaf in
                       ("['stats']", "['tree']", "['now']", "['seq']"))]
