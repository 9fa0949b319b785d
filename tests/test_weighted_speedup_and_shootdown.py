"""Tests for the weighted-speedup metric and the TLB shootdown path."""

import pytest

from repro.analysis import experiments as exp
from repro.analysis.parallel import RunJob
from repro.uarch.params import PAGE_BYTES
from repro.uarch.uop import UopType
from repro.workloads.memory_image import MemoryImage

from .helpers import TraceWriter, run_trace, tiny_config


@pytest.fixture(autouse=True)
def fresh_cache():
    exp.clear_cache()
    yield
    exp.clear_cache()


def mix(name, n_instrs, emc=False):
    return exp.run(RunJob(workload=("mix", name), n_instrs=n_instrs,
                          emc=emc))


def test_solo_baseline_single_core():
    result = exp.run(RunJob(workload=("named", "mcf"), n_instrs=500))
    assert len(result.stats.cores) == 1
    assert result.stats.cores[0].benchmark == "mcf"


def test_weighted_speedup_bounds():
    shared = mix("H4", 600)
    ws = exp.weighted_speedup(shared, n_instrs=600)
    # 4 apps sharing one machine: each slows down, so 0 < WS < 4.
    assert 0 < ws < 4


def test_weighted_speedup_uses_cache():
    shared = mix("H4", 600)
    exp.weighted_speedup(shared, n_instrs=600)
    # RunJob keys lead with the workload tuple; ("named", x) is a solo run.
    cached = sum(1 for k in exp._CACHE
                 if k[0][0] == "named" and len(k[0]) == 2)
    assert cached == 4          # one solo run per distinct benchmark


def test_weighted_speedup_differentiates_configs():
    base = mix("H3", 800)
    emc = mix("H3", 800, emc=True)
    ws_base = exp.weighted_speedup(base, n_instrs=800)
    ws_emc = exp.weighted_speedup(emc, n_instrs=800)
    assert ws_base > 0 and ws_emc > 0
    assert ws_base != ws_emc    # the metric reacts to the config


# -- TLB shootdown -----------------------------------------------------------

def chase_trace():
    image = MemoryImage()
    nodes = [0x100000 + i * 0x140 for i in range(42)]
    for a, b in zip(nodes, nodes[1:]):
        image.write(a, b)
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=nodes[0])
    for _ in range(40):
        tw.add(UopType.LOAD, dest=2, src1=1, pc=0x10)
        tw.add(UopType.ADD, dest=3, src1=2, imm=8, pc=0x11)
        tw.add(UopType.LOAD, dest=4, src1=3, pc=0x12)
        tw.add(UopType.MOV, dest=1, src1=2, pc=0x13)
    return tw.trace(), image


def test_shootdown_drops_emc_tlb_entry():
    trace, image = chase_trace()
    cfg = tiny_config(emc=True)
    system, stats = run_trace(trace, image=image, cfg=cfg)
    assert stats.emc.chains_generated > 0
    emc = system.emcs[0]
    tlb = emc.tlbs.for_core(0)
    assert len(tlb) > 0
    # Shoot down one resident page.
    resident_vpn = next(iter(tlb._entries))
    dropped = system.tlb_shootdown(0, resident_vpn * PAGE_BYTES)
    assert dropped == 1
    assert not tlb.resident(resident_vpn * PAGE_BYTES)
    assert tlb.shootdowns == 1


def test_shootdown_absent_page_is_noop():
    trace, image = chase_trace()
    system, _stats = run_trace(trace, image=image, cfg=tiny_config(emc=True))
    assert system.tlb_shootdown(0, 0xDEAD0000000) == 0


def test_shootdown_without_emc_is_noop():
    trace, image = chase_trace()
    system, _stats = run_trace(trace, image=image, cfg=tiny_config())
    assert system.tlb_shootdown(0, 0x100000) == 0
