"""Hot-path overhaul gates: slotted structures must keep the whole
SimComponent snapshot/pickle surface working, and the optimized engine
must stay bit-identical run-to-run (the sanitizer is the oracle).

Same-cycle *event ordering* under batch dispatch is covered in
test_events.py; these tests cover the layers above the wheel.
"""

import dataclasses
import pickle

import pytest

from repro.analysis.parallel import RunJob
from repro.emc.chain import ChainUop, DependenceChain
from repro.lint.sanitize import (diff_system_states, flatten_state,
                                 sanitize_checkpoint_roundtrip,
                                 sanitize_determinism)
from repro.memsys.cache import CacheLineState, SetAssocCache
from repro.memsys.dram import DRAMRequest
from repro.memsys.mshr import MSHREntry
from repro.memsys.request import MemRequest
from repro.sim.stats import (CoreStats, EMCStats, EnergyCounters,
                             LatencyAccumulator, SimStats)
from repro.sim.system import System
from repro.uarch.params import quad_core_config
from repro.uarch.uop import MicroOp, UopType
from repro.workloads.mixes import build_mix

#: every structure the slots pass touched, with a representative instance
SLOTTED = [
    MicroOp(seq=0, op=UopType.LOAD, dest=1, src1=2, imm=8),
    MSHREntry(line=0x1000, issued_at=5),
    DRAMRequest(line=0x2000, source=1, is_write=False, callback=None),
    CacheLineState(tag=7, dirty=True, sharers={0, 2}),
    MemRequest(core_id=0, vaddr=16, paddr=16, line=0, pc=4),
    CoreStats(core_id=3, benchmark="mcf", instructions=11),
    EMCStats(chains_generated=2),
    EnergyCounters(core_uops=9),
    LatencyAccumulator(count=1, total=8, buckets={3: 1}),
    ChainUop(uop=MicroOp(seq=1, op=UopType.ADD), dest_epr=0),
    DependenceChain(core_id=0, source_seq=0, source_line=0,
                    source_vaddr=0, source_dest_epr=0),
]


@pytest.mark.parametrize("obj", SLOTTED,
                         ids=lambda o: type(o).__name__)
def test_slotted_structures_have_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.not_a_declared_attribute = 1


@pytest.mark.parametrize("obj", SLOTTED,
                         ids=lambda o: type(o).__name__)
def test_slotted_structures_pickle_round_trip(obj):
    if type(obj) is DRAMRequest:
        obj = dataclasses.replace(obj, callback=None)
    clone = pickle.loads(pickle.dumps(obj))
    assert flatten_state(clone) == flatten_state(obj)


def test_slotted_cache_line_still_supports_addr_of():
    cache = SetAssocCache(size_bytes=2 * 64, ways=1, line_bytes=64)
    cache.fill(0 * 64)
    victim = cache.fill(2 * 64)      # same set, evicts the first line
    assert victim is not None
    assert cache.addr_of(victim) == 0
    resident = cache.probe(2 * 64)
    assert resident is not None and resident._victim_index is None


def test_checkpoint_restores_slotted_state_bit_identically(tmp_path):
    """System.checkpoint -> from_checkpoint through pickled slotted
    structures (cache lines, uops in flight-free state, stats tree)."""
    system = System(quad_core_config(seed=1), build_mix("H4", 400, seed=1))
    system.warmup(100)
    path = str(tmp_path / "warm.ckpt")
    system.checkpoint(path)
    resumed = System.from_checkpoint(path)
    report = diff_system_states(system.snapshot(), resumed.snapshot(),
                                label="slots-checkpoint")
    assert report.deterministic, report.format()


def test_fork_reseats_slotted_state_bit_identically():
    system = System(quad_core_config(seed=1), build_mix("H4", 400, seed=1))
    system.warmup(100)
    fork, report = system.fork()
    assert report.overall() == 1.0
    diff = diff_system_states(system.snapshot(), fork.snapshot(),
                              label="slots-fork")
    assert diff.deterministic, diff.format()


def test_stats_reset_preserves_aliases_with_slots():
    """reset_stats refills slotted dataclasses in place: the aliases
    components hold into the SimStats tree must survive."""
    system = System(quad_core_config(emc=True, seed=1),
                    build_mix("H4", 200, seed=1))
    stats: SimStats = system.stats
    aliases = [(core.stats, stats.cores[i])
               for i, core in enumerate(system.cores)]
    aliases.append((system.energy_counters, stats.energy))
    system.run()
    system.reset_stats()
    for left, right in aliases:
        assert left is right
    assert stats.total_cycles == 0
    assert all(c.instructions == 0 for c in stats.cores)
    assert all(c.benchmark for c in stats.cores)   # identity preserved


def test_short_h4_run_is_bit_identical_under_sanitizer():
    """The optimized hot path, gated end-to-end: two fresh H4+EMC runs
    (warmup + measure + drain) must produce bit-identical stats trees."""
    report = sanitize_determinism(RunJob(
        workload=("mix", "H4"), n_instrs=800, prefetcher="stream", emc=True,
        warmup_instrs=200))
    assert report.deterministic, report.format()


def test_checkpoint_roundtrip_is_bit_identical_under_sanitizer():
    report = sanitize_checkpoint_roundtrip(RunJob(
        workload=("mix", "H4"), n_instrs=600, emc=True, warmup_instrs=150))
    assert report.deterministic, report.format()
