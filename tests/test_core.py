"""Directed tests of the out-of-order core model."""

import pytest

from repro.core.inflight import InflightUop
from repro.uarch.uop import MicroOp, UopType
from repro.workloads.memory_image import MemoryImage

from .helpers import TraceWriter, run_trace, tiny_config


def test_alu_sequence_executes_and_retires():
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=5)
    tw.add(UopType.ADD, dest=2, src1=1, imm=3)
    tw.add(UopType.SHL, dest=3, src1=2, imm=1)
    system, stats = run_trace(tw.trace())
    core = system.cores[0]
    assert stats.cores[0].instructions == 3
    assert core.regfile[3] == 16


def test_dependent_values_flow():
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=10)
    tw.add(UopType.MOV, dest=2, imm=20)
    tw.add(UopType.ADD, dest=3, src1=1, src2=2)
    tw.add(UopType.SUB, dest=4, src1=3, imm=5)
    system, _stats = run_trace(tw.trace())
    assert system.cores[0].regfile[4] == 25


def test_load_reads_memory_image():
    image = MemoryImage()
    image.write(0x1000, 0xABCD)
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=0x1000)
    tw.add(UopType.LOAD, dest=2, src1=1)
    system, _ = run_trace(tw.trace(), image=image)
    assert system.cores[0].regfile[2] == 0xABCD


def test_store_then_load_same_address():
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=0x2000)
    tw.add(UopType.MOV, dest=2, imm=99)
    store = tw.add(UopType.STORE, src1=1, src2=2, is_spill_fill=True)
    tw.add(UopType.LOAD, dest=3, src1=1, mem_dep=store.seq,
           is_spill_fill=True)
    system, _ = run_trace(tw.trace())
    assert system.cores[0].regfile[3] == 99


def test_pointer_chase_through_memory():
    image = MemoryImage()
    image.write(0x1000, 0x2000)
    image.write(0x2000, 0x3000)
    image.write(0x3000, 42)
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=0x1000)
    tw.add(UopType.LOAD, dest=1, src1=1)
    tw.add(UopType.LOAD, dest=1, src1=1)
    tw.add(UopType.LOAD, dest=1, src1=1)
    system, _ = run_trace(tw.trace(), image=image)
    assert system.cores[0].regfile[1] == 42


def test_l1_hit_after_fill():
    # A load to a line filled by an earlier (serialized) load must L1-hit.
    image = MemoryImage()
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=0x4000)
    tw.add(UopType.LOAD, dest=2, src1=1)
    tw.add(UopType.AND, dest=3, src1=2, imm=0)       # serialize
    tw.add(UopType.ADD, dest=3, src1=3, imm=0x4008)
    tw.add(UopType.LOAD, dest=4, src1=3)             # same line, post-fill
    _system, stats = run_trace(tw.trace(), image=image)
    core = stats.cores[0]
    assert core.l1_misses == 1
    assert core.l1_hits >= 1


def test_mispredicted_branch_stalls_fetch():
    def build(mispredict):
        tw = TraceWriter()
        tw.add(UopType.MOV, dest=1, imm=1)
        tw.add(UopType.BRANCH, src1=1, mispredicted=mispredict)
        for i in range(20):
            tw.add(UopType.ADD, dest=2, src1=1, imm=i)
        return tw.trace()

    _sys1, s_good = run_trace(build(False))
    _sys2, s_bad = run_trace(build(True))
    assert s_bad.cores[0].finished_at > s_good.cores[0].finished_at
    assert s_bad.cores[0].mispredicted_branches == 1


def test_rob_capacity_limits_inflight():
    # A long-latency load at the head plus hundreds of dependents: the core
    # must not fetch beyond the ROB size.
    image = MemoryImage()
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=0x100000)
    tw.add(UopType.LOAD, dest=2, src1=1)
    for _ in range(400):
        tw.add(UopType.ADD, dest=2, src1=2, imm=1)
    system, stats = run_trace(tw.trace(), image=image)
    assert stats.cores[0].instructions == 402
    assert system.cores[0].regfile[2] == image.read(0x100000) + 400


def test_independent_misses_overlap():
    """Two independent loads should overlap their miss latencies (MLP)."""
    image = MemoryImage()

    def build(n_loads):
        tw = TraceWriter()
        for i in range(n_loads):
            tw.add(UopType.MOV, dest=1 + i, imm=0x100000 + i * 0x10000)
        for i in range(n_loads):
            tw.add(UopType.LOAD, dest=10 + i, src1=1 + i)
        return tw.trace()

    _s1, one = run_trace(build(1), image=image.copy())
    _s2, four = run_trace(build(4), image=image.copy())
    t1 = one.cores[0].finished_at
    t4 = four.cores[0].finished_at
    assert t4 < 2.5 * t1     # far better than 4x serialization


def test_dependent_miss_classified():
    """A load whose address comes from a prior LLC-missing load must be
    counted as a dependent cache miss."""
    image = MemoryImage()
    image.write(0x100000, 0x500000)
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=0x100000)
    tw.add(UopType.LOAD, dest=2, src1=1)       # source miss
    tw.add(UopType.ADD, dest=3, src1=2, imm=8)
    tw.add(UopType.LOAD, dest=4, src1=3)       # dependent miss
    _system, stats = run_trace(tw.trace(), image=image)
    core = stats.cores[0]
    assert core.llc_misses == 2
    assert core.dependent_misses == 1
    assert core.dependent_chain_ops_total == 1   # the ADD in between


def test_independent_loads_not_classified_dependent():
    image = MemoryImage()
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=0x100000)
    tw.add(UopType.MOV, dest=2, imm=0x900000)
    tw.add(UopType.LOAD, dest=3, src1=1)
    tw.add(UopType.LOAD, dest=4, src1=2)
    _system, stats = run_trace(tw.trace(), image=image)
    assert stats.cores[0].dependent_misses == 0


def test_fp_uops_execute_at_core():
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=3)
    tw.add(UopType.FP, dest=2, src1=1, imm=1)
    _system, stats = run_trace(tw.trace())
    assert stats.cores[0].instructions == 2


def test_deadlock_reported_not_hung():
    from repro.sim.system import DeadlockError, SimTimeoutError, System
    # An empty wheel with unfinished work must raise, not hang.
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=1)
    cfg = tiny_config()
    system = System(cfg, [(tw.trace(), MemoryImage())])
    # Sabotage: drop every tick so nothing ever runs.
    system.cores[0]._schedule_tick = lambda *a, **k: None
    with pytest.raises(DeadlockError) as excinfo:
        system.run(max_cycles=100)
    # A drained wheel is a deadlock proper, not a cycle-budget timeout.
    assert not isinstance(excinfo.value, SimTimeoutError)


def test_find_miss_root_keeps_depth_of_first_path_reached():
    """The backward walk is depth-first (second operand first) and visits
    each ancestor once, so a root first reached along a longer path keeps
    that path's depth: X.p1 = A -> R and X.p2 = B -> C -> R give depth 3,
    not the minimum edge count 2."""
    system, _ = run_trace(TraceWriter().trace())

    def uop(seq, op, p1=None):
        iu = InflightUop(MicroOp(seq=seq, op=op), dispatch_cycle=0)
        iu.p1 = p1
        return iu

    root = uop(0, UopType.LOAD)
    root.was_llc_miss = True          # data still outstanding
    a = uop(1, UopType.ADD, p1=root)
    c = uop(2, UopType.ADD, p1=root)
    b = uop(3, UopType.ADD, p1=c)
    x = uop(4, UopType.LOAD, p1=a)
    x.p2 = b
    assert system.cores[0].find_miss_root(x) == (root, 3)
