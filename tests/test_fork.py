"""System.fork and shared-warmup sweep tests.

The fork contract: workload-derived state (cache/TLB contents, branch
history, trace cursors) carries from a warmed parent into a machine
rebuilt under a different configuration; config-derived structures are
rebuilt and the carryover report accounts, per component, for what could
not be re-seated.  On top of it, the experiment runner shares one warmup
per (workload, warmup) identity across an entire config sweep.

Bit-identity oracle is :func:`repro.lint.sanitize.flatten_state`, same
as the lifecycle tests.
"""

import collections
import dataclasses
import hashlib
import io
import pickle

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import RunJob, run_jobs
from repro.lint.sanitize import flatten_state
from repro.sim.component import SnapshotError
from repro.sim.system import System
from repro.uarch.params import (eight_core_config, quad_core_config,
                                set_config_field)
from repro.uarch.uop import MicroOp, Trace
from repro.workloads.memory_image import MemoryImage
from repro.workloads.mixes import build_mix, build_scaled_mix

N = 400   # per-core instructions: tiny but structurally complete


def warmed(n_instrs=N, warmup=100, **cfg_kwargs):
    system = System(quad_core_config(**cfg_kwargs),
                    build_mix("H4", n_instrs, seed=1))
    system.warmup(warmup)
    return system


# ---------------------------------------------------------------------------
# fork: identity and geometry changes
# ---------------------------------------------------------------------------

def test_identity_fork_is_bit_identical_with_full_carryover():
    parent = warmed()
    child, report = parent.fork()
    assert flatten_state(child.snapshot()) == \
           flatten_state(parent.snapshot())
    assert report.overall() == 1.0
    assert all(report.ratio(path) == 1.0 for path in report.as_dict())
    # The fork is a live machine, not a view: running it leaves the
    # parent untouched and still forkable.
    child.run()
    again, _ = parent.fork()
    assert flatten_state(again.snapshot()) == \
           flatten_state(parent.snapshot())


def test_fork_shrinking_l1_rehashes_and_accounts_evictions():
    parent = warmed(n_instrs=800, warmup=300)
    child, report = parent.fork({"l1.ways": 1})
    # Re-seating into 1-way sets keeps at most one line per set; the
    # shortfall is visible per component, and only there.
    assert 0.0 < report.ratio("cores/l1") < 1.0
    assert report.ratio("hierarchy/llc/cache") == 1.0
    assert report.ratio("hierarchy/dram") == 1.0
    assert child.cfg.l1.ways == 1
    child.run()                               # runs to completion


def test_fork_toggling_emc_on_reports_lost_context():
    parent = warmed()                         # no EMC in the parent
    child, report = parent.fork({"emc.enabled": True})
    assert report.ratio("emc") == 0.0         # nothing to carry into it
    assert report.overall() < 1.0
    stats = child.run()
    assert stats.total_cycles > 0


def test_fork_guards_core_count_and_argument_misuse():
    parent = warmed()
    with pytest.raises(SnapshotError, match="num_cores"):
        parent.fork(cfg=eight_core_config())     # grow without traces
    with pytest.raises(ValueError, match="not both"):
        parent.fork({"l1.ways": 4}, cfg=quad_core_config())
    with pytest.raises(ValueError, match="added_workload"):
        parent.fork(cfg=quad_core_config(),
                    added_workload=build_mix("H4", N, seed=1)[:1])
    in_flight = System(quad_core_config(), build_mix("H4", N, seed=1))
    in_flight.wheel.schedule(10, lambda: None)
    with pytest.raises(SnapshotError):
        in_flight.fork()


def test_fork_growing_cores_starts_added_cold_keeps_survivors():
    parent = warmed(warmup=200)
    added = build_scaled_mix("H4", 8, N, seed=1)[4:]
    child, report = parent.fork(cfg=eight_core_config(), added_workload=added)
    assert len(child.cores) == 8
    # Added cores contribute nothing warmed; survivors carry like an
    # identity fork does (their L1 geometry is unchanged).
    assert report.as_dict()["cores/added"] == (0, 4)
    assert report.ratio("cores/l1") == 1.0
    identity_child, identity_report = parent.fork()
    assert report.as_dict()["cores/l1"] == \
           identity_report.as_dict()["cores/l1"]
    # The LLC re-interleaves across 8 slices instead of 4.
    assert "hierarchy/llc/cache" in report.as_dict()
    # Deterministic: the same grow fork twice is bit-identical.
    again, _ = parent.fork(cfg=eight_core_config(), added_workload=added)
    assert flatten_state(again.snapshot()) == \
           flatten_state(child.snapshot())
    stats = child.run()
    assert len(stats.cores) == 8
    assert all(c.instructions > 0 for c in stats.cores)


def test_fork_shrinking_cores_drops_surplus_and_runs():
    parent = System(eight_core_config(),
                    build_scaled_mix("H4", 8, N, seed=1))
    parent.warmup(200)
    child, report = parent.fork(cfg=quad_core_config())
    assert len(child.cores) == 4
    assert report.as_dict()["cores/dropped"] == (0, 4)
    stats = child.run()
    assert len(stats.cores) == 4
    assert all(c.instructions > 0 for c in stats.cores)
    # The parent stays intact and can still fork.
    again, _ = parent.fork()
    assert len(again.cores) == 8


def _open_banks(system):
    return sum(bank.open_row is not None
               for dram in system.hierarchy.dram
               for channel in dram.channels.values()
               for bank in channel.banks)


@pytest.fixture(scope="module")
def dram_parents():
    quad = System(quad_core_config(), build_mix("H4", 1200, seed=1))
    quad.warmup(400)
    eight = System(eight_core_config(), build_scaled_mix("H1", 8, 600, seed=1))
    eight.warmup(200)
    return {"quad": quad, "eight": eight}


@pytest.mark.parametrize("machine, overrides", [
    ("quad", {"dram.channels": 4}),
    ("quad", {"dram.row_bytes": 4096}),
    ("quad", {"dram.banks_per_rank": 4}),
    ("quad", {"dram.channels": 1}),
    ("eight", {"num_mcs": 2}),
], ids=["channels-4", "row-4k", "banks-4", "channels-1", "mcs-2"])
def test_fork_across_dram_geometry_counts_the_banks_left_open(
        dram_parents, machine, overrides):
    # Saved open rows re-seed into the new geometry, where rows landing
    # in one bank replace each other: what carried is the open banks.
    parent = dram_parents[machine]
    child, report = parent.fork(overrides)
    kept, total = report.as_dict()["hierarchy/dram"]
    assert total == _open_banks(parent) > 0
    assert kept == _open_banks(child) > 0
    stats = child.run()
    assert all(c.instructions > 0 for c in stats.cores)


def _workload_digest(workload):
    """Digest of every trace uop field and every written image word."""
    h = hashlib.sha256()
    for trace, image in workload:
        for uop in trace.uops:
            h.update(repr(dataclasses.astuple(uop)).encode())
        h.update(repr(sorted((addr, image.read(addr))
                             for addr in image.written_addresses()))
                 .encode())
    return h.hexdigest()


@pytest.mark.parametrize("grow", [False, True])
def test_fork_shares_traces_but_never_memory_images(grow):
    parent = warmed(warmup=200)
    if grow:      # 4 -> 8 cores: the caller's added workload is copied too
        added = build_scaled_mix("H4", 8, N, seed=1)[4:]
        fork_args = dict(cfg=eight_core_config(), added_workload=added)
    else:
        added = []
        fork_args = dict(cfg_overrides={"emc.enabled": True})
    before = _workload_digest(parent._workload + added)
    child, _ = parent.fork(**fork_args)
    stats = child.run()
    assert _workload_digest(parent._workload + added) == before
    for (p_trace, _), (c_trace, _) in zip(parent._workload, child._workload):
        assert c_trace is p_trace             # immutable: shared
    assert not {id(image) for image in child.images} & \
        {id(image) for _t, image in parent._workload + added}
    again, _ = parent.fork(**fork_args)
    assert again.run() == stats


class _WorkloadCounter(pickle.Pickler):
    """Counts the workload objects and uops a pickled tree reaches."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.counts = collections.Counter()

    def persistent_id(self, obj):
        if isinstance(obj, (Trace, MemoryImage, System, MicroOp)):
            self.counts[type(obj).__name__] += 1
        return None


@pytest.mark.parametrize("overrides", [
    {"emc.enabled": True, "prefetch.kind": "stream"},
    {"ring.topology": "mesh"},
    {"emc.enabled": True, "emc.predictor.kind": "hermes"},
], ids=["ring-emc-stream", "mesh", "hermes"])
def test_snapshot_reaches_no_workload_and_fork_uops_match_trace(overrides):
    # A fork copies its snapshot with a plain pickle round trip; that is
    # only cheap and correct while the snapshot reaches no trace, image
    # or machine.  The uops it does reach are rename-table entries.
    cfg = quad_core_config()
    for key, value in overrides.items():
        set_config_field(cfg, key, value)
    parent = System(cfg, build_mix("H4", 800, seed=1))
    parent.warmup(300)
    counter = _WorkloadCounter(io.BytesIO())
    counter.dump(parent.snapshot())
    assert counter.counts["MicroOp"] > 0
    assert not counter.counts.keys() - {"MicroOp"}, counter.counts
    child, _ = parent.fork()
    pairs = [(iu.uop, core._trace[iu.uop.seq])
             for core in child.cores for iu in core.rename.values()]
    assert pairs
    for copied, traced in pairs:
        assert copied is not traced
        assert dataclasses.astuple(copied) == dataclasses.astuple(traced)


def test_fork_shares_image_regions_and_copies_writes():
    parent = warmed()
    child, _ = parent.fork()
    for p_image, c_image in zip(parent.images, child.images):
        assert len(c_image.regions) == len(p_image.regions)
        assert all(c.data is p.data
                   for c, p in zip(c_image.regions, p_image.regions))
    # Core 0 runs mcf: its chains are regions.  A store into a region
    # word lands in the child's overlay only.
    p_image, c_image = parent.images[0], child.images[0]
    region = c_image.regions[0]
    old = p_image.read(region.base)
    c_image.write(region.base, old ^ 1)
    assert c_image.read(region.base) == old ^ 1
    assert p_image.read(region.base) == old == region.data[0]
    assert len(c_image) == len(p_image)


# ---------------------------------------------------------------------------
# shared warmup across a config sweep
# ---------------------------------------------------------------------------

# The acceptance sweep: EMC on/off x two prefetchers, plus two dotted
# overrides -- six configs, one warmup identity.
SWEEP_POINTS = [
    dict(prefetcher="none", emc=False),
    dict(prefetcher="none", emc=True),
    dict(prefetcher="stream", emc=False),
    dict(prefetcher="stream", emc=True),
    dict(prefetcher="none", emc=True, overrides=(("emc.num_contexts", 4),)),
    dict(prefetcher="none", emc=False, overrides=(("dram.t_cas", 20),)),
]


def sweep_jobs():
    return [RunJob(workload=("mix", "H4"), n_instrs=N, seed=1,
                   warmup_instrs=100, **point)
            for point in SWEEP_POINTS]


def test_sweep_points_share_one_warmup_identity():
    keys = {job.warmup_key() for job in sweep_jobs()}
    assert len(keys) == 1
    # ...but changing the workload or the warmup length splits it.
    base = sweep_jobs()[0]
    assert dataclasses.replace(base, warmup_instrs=200).warmup_key() \
        not in keys
    assert dataclasses.replace(base, seed=2).warmup_key() not in keys


def test_sweep_performs_exactly_one_warmup(tmp_path, monkeypatch):
    warmups = []
    orig = System.warmup
    monkeypatch.setattr(
        System, "warmup",
        lambda self, *a, **kw: warmups.append(self) or orig(self, *a, **kw))
    results = run_jobs(sweep_jobs(), jobs=1, cache_dir=str(tmp_path))
    assert len(warmups) == 1                  # one warmup for six configs
    assert [r.warmed_from for r in results] == \
           ["fresh"] + ["checkpoint"] * (len(results) - 1)
    assert len(list(tmp_path.glob("warmup-ckpt/wck-*.pkl"))) == 1
    # Every point reports its carryover; the identity point (none/no-EMC,
    # no overrides) carries everything.
    assert all(r.fork_carryover is not None for r in results)
    identity = results[0].fork_carryover
    assert all(kept == total for kept, total in identity.values())


def test_sweep_results_identical_with_and_without_checkpoint_cache(tmp_path):
    cached = run_jobs(sweep_jobs(), jobs=1, cache_dir=str(tmp_path))
    replay = run_jobs(sweep_jobs(), jobs=1, cache_dir=str(tmp_path))
    scratch = run_jobs(sweep_jobs(), jobs=1)  # one warmup, kept in memory
    for a, b, c in zip(cached, replay, scratch):
        assert a.stats == b.stats == c.stats
    # Replayed results come out of the result cache, provenance intact.
    assert [r.warmed_from for r in replay] == \
           [r.warmed_from for r in cached] == \
           [r.warmed_from for r in scratch]


def test_parallel_sweep_matches_serial(tmp_path):
    serial = run_jobs(sweep_jobs(), jobs=1)
    parallel = run_jobs(sweep_jobs(), jobs=3,
                        cache_dir=str(tmp_path / "cache"))
    for a, b in zip(serial, parallel):
        assert a.stats == b.stats


def test_sweep_builds_its_workload_once(tmp_path, monkeypatch):
    builds = []
    real = parallel.build_job_workload
    monkeypatch.setattr(
        parallel, "build_job_workload",
        lambda job, num_cores=0: builds.append(job) or real(job, num_cores))
    run_jobs(sweep_jobs(), jobs=1, cache_dir=str(tmp_path / "sweep"))
    assert len(builds) == 1                   # the base warmup's build
    # A point that grows num_cores past the warm base still builds, for
    # its added cores only, and matches a run without any cache.
    grown = dataclasses.replace(sweep_jobs()[0], num_cores=8)
    builds.clear()
    result = run_jobs([grown], jobs=1, cache_dir=str(tmp_path / "sweep"))[0]
    assert builds == [grown]
    assert result.stats == run_jobs([grown], jobs=1)[0].stats
