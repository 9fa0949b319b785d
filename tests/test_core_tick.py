"""The core tick's host-speed shortcuts are exact: the C tick kernel
matches the pure-Python tick, the C event wheel the Python wheel,
fixed-delay completions fire in the original order, the chain-source
index agrees with the ROB scan it short-circuits, and a snapshot never
drops a pending completion."""

import pytest

from repro.core import kernel, ooo_core
from repro.core.ooo_core import OutOfOrderCore
from repro.lint.sanitize import flatten_tree
from repro.sim import events
from repro.sim.component import SnapshotError
from repro.sim.system import System
from repro.uarch.params import (CoreConfig, eight_core_config,
                                quad_core_config)
from repro.uarch.uop import UopType
from repro.workloads.memory_image import MemoryImage
from repro.workloads.mixes import build_mix, build_scaled_mix

from .helpers import TraceWriter, tiny_config


def _emc_quad():
    return System(quad_core_config(prefetcher="stream", emc=True, seed=1),
                  build_mix("H3", 1200, seed=1))


def _mesh8():
    cfg = eight_core_config(prefetcher="stream", num_mcs=2, seed=1)
    cfg.ring.topology = "mesh"
    return System(cfg, build_scaled_mix("H1", 8, 600, seed=1))


def _run(system, warmup):
    system.warmup(warmup)
    return flatten_tree(system.run())


def _forked_sweep():
    parent = System(quad_core_config(emc=True, seed=1),
                    build_mix("H4", 900, seed=1))
    parent.warmup(300)
    stats = {}
    for overrides in ({}, {"emc.enabled": False}, {"l1.ways": 2},
                      {"emc.num_contexts": 1, "core.rs_entries": 48}):
        child, _report = parent.fork(overrides)
        stats[repr(overrides)] = flatten_tree(child.run())
    return stats


RUNS = pytest.mark.parametrize("run", [
    lambda: _run(_emc_quad(), 300),
    lambda: _run(_mesh8(), 150),
    _forked_sweep,
], ids=["h3_quad_emc", "h1_mesh8_2mc", "h4_forked_sweep"])


@RUNS
def test_c_kernel_matches_the_python_tick(run, monkeypatch):
    if ooo_core._kernel is None:
        pytest.skip("the C tick kernel did not build")
    kernel = run()
    monkeypatch.setattr(ooo_core, "_kernel", None)
    assert run() == kernel


@RUNS
def test_c_wheel_matches_the_python_wheel(run, monkeypatch):
    """Both C kernels against both Python references."""
    if events._kernel is None or ooo_core._kernel is None:
        pytest.skip("a C kernel did not build")
    kernels = run()
    monkeypatch.setattr(events, "_kernel", None)
    monkeypatch.setattr(ooo_core, "_kernel", None)
    assert run() == kernels


def _layout():
    from repro.core.inflight import InflightUop, UopState
    from repro.uarch.uop import MicroOp
    return InflightUop, MicroOp, UopState, UopType


def test_kernel_builds_once_into_its_cache(tmp_path, monkeypatch):
    if ooo_core._kernel is None:
        pytest.skip("the C tick kernel did not build")
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path)
    assert kernel.load(*_layout()) is not None
    built = list(tmp_path.iterdir())
    assert [p.name for p in built] == [
        f"_tick_{kernel.source_hash()}{kernel.EXT_SUFFIX}"]
    stamp = built[0].stat().st_mtime_ns
    assert kernel.load(*_layout()) is not None
    assert built[0].stat().st_mtime_ns == stamp      # loaded, not rebuilt


def test_failed_build_falls_back_to_python_with_one_warning(tmp_path,
                                                            monkeypatch):
    broken = tmp_path / "_tick.c"
    broken.write_text("#error deliberately broken\n")
    monkeypatch.setattr(kernel, "SOURCE", broken)
    monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "cache")
    with pytest.warns(RuntimeWarning, match="pure-Python tick") as record:
        assert kernel.load(*_layout()) is None
    assert len(record) == 1
    assert not list((tmp_path / "cache").glob("*.tmp"))


def test_tick_implementation_names_the_tick(monkeypatch):
    if ooo_core._kernel is not None:
        assert ooo_core.tick_implementation().startswith("C ")
    monkeypatch.setattr(ooo_core, "_kernel", None)
    assert ooo_core.tick_implementation() == "python"


def _one_tick_mix():
    """ADD, FP (latency 4), ADD, a store and a mispredicted branch all
    issue in one tick; their consumers are fetched in the same group."""
    tw = TraceWriter()
    tw.add(UopType.ADD, dest=1, imm=1)
    tw.add(UopType.FP, dest=2, imm=2)
    tw.add(UopType.ADD, dest=3, imm=3)
    tw.add(UopType.STORE, imm=0x2000)
    tw.add(UopType.ADD, dest=4, src1=2)
    tw.add(UopType.ADD, dest=5, src1=1, src2=3)
    tw.add(UopType.LOAD, dest=6, imm=0x2000, mem_dep=3)
    tw.add(UopType.ADD, dest=7, src1=3)
    tw.add(UopType.ADD, dest=8, src1=1)
    tw.add(UopType.BRANCH, mispredicted=True)
    tw.add(UopType.ADD, dest=9, src1=4, src2=5)
    return tw.trace()


def test_completion_order_and_wakeups(tick):
    cfg = tiny_config()
    cfg.core = CoreConfig(issue_width=5, fetch_width=16)
    system = System(cfg, [(_one_tick_mix(), MemoryImage())])
    core = system.cores[0]
    core.start()
    ready_log, done, last = [], {}, None
    while not system.all_finished:
        system.wheel.step()
        ready = tuple(iu.uop.seq for iu in core.ready)
        if ready != last:
            ready_log.append((system.wheel.now, ready))
            last = ready
        for iu in core.rob:
            if iu.done_cycle is not None:
                done.setdefault(iu.uop.seq, iu.done_cycle)
    # Recorded from the closure-per-completion core this replaced.
    assert ready_log == [
        (1, (0, 1, 2, 3, 9)), (2, ()), (3, (8,)), (3, (8, 5, 7)),
        (3, (8, 5, 7, 6)), (3, ()), (6, (4,)), (6, ()), (17, (10,)),
        (18, ())]
    assert done == {0: 3, 1: 6, 2: 3, 3: 3, 4: 7, 5: 4, 6: 6, 7: 4, 8: 4,
                    9: 3, 10: 19}
    assert core.regfile == {1: 1, 2: 100000002, 3: 3, 4: 100000002, 5: 4,
                            6: 0x2000, 7: 3, 8: 1, 9: 100000006}


def test_snapshot_refuses_a_pending_completion():
    system = System(quad_core_config(), build_mix("H4", 200, seed=1))
    fifo, _complete_next = system.cores[0]._completions[1]
    fifo.append((None, 0))
    with pytest.raises(SnapshotError, match=r"completions\[1\]"):
        system.snapshot()


def test_chain_source_index_matches_the_rob_scan(tick, monkeypatch):
    """At every chain-generation check, the index's eligible entries are
    exactly the ROB loads the scan would consider."""
    original = OutOfOrderCore._maybe_generate_chain
    calls = []

    def checked(core):
        scanned = [iu for iu in core.rob
                   if iu.uop.op is UopType.LOAD and iu.llc_miss_pending
                   and not iu.migrated and not iu.chain_attempted]
        indexed = core._chain_sources()
        assert sorted(map(id, indexed)) == sorted(map(id, scanned))
        calls.append(bool(scanned))
        original(core)

    monkeypatch.setattr(OutOfOrderCore, "_maybe_generate_chain", checked)
    system = System(quad_core_config(emc=True, seed=1),
                    build_mix("H3", 1500, seed=1))
    stats = system.run()
    assert stats.emc.chains_generated > 0
    # Both outcomes occur: the skip is exercised, and so is the scan.
    assert any(calls) and not all(calls)
