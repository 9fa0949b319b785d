"""Scheduling-discipline tests: issue/retire width, RS capacity, and
window-limit behaviour of the core."""

from repro.uarch.params import CoreConfig
from repro.uarch.uop import UopType
from repro.workloads.memory_image import MemoryImage

from .helpers import TraceWriter, run_trace, tiny_config


def test_issue_width_bounds_alu_throughput():
    """8 independent ALU streams: IPC caps at the 4-wide issue width."""
    tw = TraceWriter()
    for r in range(8):
        tw.add(UopType.MOV, dest=1 + r, imm=r)
    for i in range(400):
        r = i % 8
        tw.add(UopType.ADD, dest=1 + r, src1=1 + r, imm=1)
    _system, stats = run_trace(tw.trace())
    ipc = stats.cores[0].instructions / stats.cores[0].finished_at
    assert 2.5 < ipc <= 4.3


def test_narrow_machine_is_slower():
    cfg_narrow = tiny_config()
    cfg_narrow.core = CoreConfig(issue_width=1, retire_width=1,
                                 fetch_width=1)

    def trace():
        tw = TraceWriter()
        for r in range(4):
            tw.add(UopType.MOV, dest=1 + r, imm=r)
        for i in range(200):
            tw.add(UopType.ADD, dest=1 + (i % 4), src1=1 + (i % 4), imm=1)
        return tw.trace()

    _s1, wide = run_trace(trace())
    _s2, narrow = run_trace(trace(), cfg=cfg_narrow)
    assert narrow.cores[0].finished_at > 2 * wide.cores[0].finished_at


def test_rs_capacity_limits_window():
    """With a 4-entry RS, a long-dependence trace stalls dispatch hard."""
    cfg = tiny_config()
    cfg.core = CoreConfig(rs_entries=4)

    def trace():
        tw = TraceWriter()
        tw.add(UopType.MOV, dest=1, imm=0x100000)
        # One long load, then many dependents that clog the tiny RS.
        tw.add(UopType.LOAD, dest=2, src1=1)
        for i in range(60):
            tw.add(UopType.ADD, dest=3 + (i % 4), src1=2, imm=i)
        return tw.trace()

    _s1, big = run_trace(trace())
    _s2, small = run_trace(trace(), cfg=cfg)
    assert small.cores[0].instructions == big.cores[0].instructions
    assert small.cores[0].finished_at >= big.cores[0].finished_at


def test_small_rob_serializes_misses():
    cfg = tiny_config()
    cfg.core = CoreConfig(rob_entries=8, rs_entries=8)
    tw = TraceWriter()
    for i in range(12):
        tw.add(UopType.MOV, dest=1, imm=0x100000 + i * 0x100000)
        tw.add(UopType.LOAD, dest=2, src1=1)
    _s1, small = run_trace(tw.trace(), cfg=cfg)

    tw2 = TraceWriter()
    for i in range(12):
        tw2.add(UopType.MOV, dest=1, imm=0x100000 + i * 0x100000)
        tw2.add(UopType.LOAD, dest=2, src1=1)
    _s2, big = run_trace(tw2.trace())
    assert small.cores[0].finished_at >= big.cores[0].finished_at


def test_full_window_stall_cycles_accumulate():
    image = MemoryImage()
    nodes = [0x100000 + i * 0x140 for i in range(62)]
    for a, b in zip(nodes, nodes[1:]):
        image.write(a, b)
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=nodes[0])
    for _ in range(60):
        tw.add(UopType.LOAD, dest=1, src1=1, pc=0x10)
        for k in range(6):
            tw.add(UopType.ADD, dest=2, src1=1, imm=k, pc=0x11 + k)
    cfg = tiny_config()
    cfg.core = CoreConfig(rob_entries=32, rs_entries=16)
    _system, stats = run_trace(tw.trace(), image=image, cfg=cfg)
    assert stats.cores[0].full_window_stall_cycles > 0


def test_full_window_stall_cycles_stop_at_finish():
    """A finished core keeps running wrapped passes for interference, but
    its stall cycles count only up to ``finished_at``, like every other
    frozen core statistic."""
    from repro.sim.system import System
    from repro.uarch.params import quad_core_config
    from repro.workloads.mixes import build_mix
    system = System(quad_core_config(emc=True, seed=1),
                    build_mix("H3", 1500, seed=1))
    stats = system.run()
    for core in stats.cores:
        assert core.full_window_stall_cycles <= core.finished_at, core


def test_retire_is_in_order():
    """A fast op behind a slow miss cannot retire first: instruction count
    over time is gated by the head."""
    image = MemoryImage()
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=0x100000)
    tw.add(UopType.LOAD, dest=2, src1=1)       # slow head
    tw.add(UopType.ADD, dest=3, src1=1, imm=1)  # fast follower
    system, stats = run_trace(tw.trace(), image=image)
    # All three retired; completion of the run equals (approximately) the
    # load's completion, not the ADD's.
    lat = stats.core_miss_latency.mean
    assert stats.cores[0].finished_at >= lat
