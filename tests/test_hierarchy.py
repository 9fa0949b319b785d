"""Directed tests of the memory-hierarchy glue: request paths, timestamps,
write-through stores, prefetch injection, and the EMC shortcuts."""

from repro.memsys.cache import line_addr
from repro.memsys.dram import DRAMRequest
from repro.memsys.hierarchy import RETRY_CYCLES
from repro.memsys.request import MemRequest
from repro.sim.system import System
from repro.uarch.uop import UopType
from repro.workloads.memory_image import MemoryImage

from .helpers import TraceWriter, tiny_config


def make_system(num_cores=1, **kw):
    tw = TraceWriter()
    tw.add(UopType.MOV, dest=1, imm=1)
    traces = []
    for _ in range(num_cores):
        traces.append((tw.trace(), MemoryImage()))
    cfg = tiny_config(num_cores=num_cores, **kw)
    return System(cfg, traces)


def drive_request(system, paddr, core_id=0):
    """Inject one demand request and run to completion."""
    done = []
    req = MemRequest(core_id=core_id, vaddr=paddr, paddr=paddr,
                     line=line_addr(paddr), pc=0x10,
                     callback=lambda r: done.append(r))
    system.hierarchy.demand_request(req)
    system.wheel.run()
    assert done, "request never completed"
    return done[0]


def test_demand_miss_timestamps_are_ordered():
    system = make_system()
    req = drive_request(system, 0x100000)
    assert (req.t_start <= req.t_at_slice <= req.t_at_mc
            <= req.t_dram_start <= req.t_dram_done <= req.t_done)
    assert not req.llc_hit
    assert req.dram_latency > 0
    assert req.total_latency > req.dram_latency   # on-chip delay exists


def test_llc_hit_is_much_faster():
    system = make_system()
    first = drive_request(system, 0x200000)
    second = drive_request(system, 0x200000)
    assert second.total_latency < first.total_latency / 2
    assert second.t_dram_done == 0    # never went to DRAM


def test_llc_miss_counts_per_issuer():
    system = make_system()
    drive_request(system, 0x300000)
    assert system.stats.llc_misses_from_core == 1
    assert system.stats.llc_misses_from_emc == 0


def test_store_writethrough_dirties_llc():
    system = make_system()
    system.hierarchy.store_writethrough(0, 0x400000, pc=0)
    system.wheel.run()
    state = system.hierarchy.llc.probe(0x400000)
    assert state is not None and state.dirty


def test_dirty_eviction_writes_back():
    system = make_system()
    llc = system.hierarchy.llc
    sl = llc.slice_of(0)
    sets = sl.cache.num_sets
    ways = sl.cache.ways
    nslices = len(llc.slices)
    # Fill one set of slice 0 with dirty lines, then overflow it.
    stride = 64 * nslices * sets
    for i in range(ways + 1):
        system.hierarchy.store_writethrough(0, i * stride, pc=0)
        system.wheel.run()
    assert sum(d.writes for d in system.dram_stats) >= 1


def test_prefetch_fills_llc_without_core_delivery():
    system = make_system()
    system.hierarchy._issue_prefetch(0, 0x500000)
    system.wheel.run()
    state = system.hierarchy.llc.probe(0x500000)
    assert state is not None and state.prefetched
    assert system.stats.prefetches_issued == 1
    assert system.stats.llc_misses_from_core == 0


def test_duplicate_prefetch_filtered():
    system = make_system()
    system.hierarchy._issue_prefetch(0, 0x600000)
    system.hierarchy._issue_prefetch(0, 0x600000)   # in-flight duplicate
    system.wheel.run()
    system.hierarchy._issue_prefetch(0, 0x600000)   # already resident
    system.wheel.run()
    assert system.stats.prefetches_issued == 1


def test_emc_fetch_direct_bypasses_llc():
    system = make_system(emc=True)
    done = []
    system.hierarchy.emc_fetch(
        mc_id=0, core_id=0, pc=0x20, vaddr=0x700000, paddr=0x700000,
        predicted_miss=True, callback=lambda r: done.append(r))
    system.wheel.run()
    assert done
    req = done[0]
    assert req.bypassed_llc
    assert system.stats.llc_misses_from_emc == 1
    # The line still filled the LLC (demand semantics).
    assert system.hierarchy.llc.probe(0x700000) is not None


def test_emc_fetch_predicted_hit_uses_llc():
    system = make_system(emc=True)
    drive_request(system, 0x800000)    # warm the LLC
    done = []
    system.hierarchy.emc_fetch(
        mc_id=0, core_id=0, pc=0x20, vaddr=0x800000, paddr=0x800000,
        predicted_miss=False, callback=lambda r: done.append(r))
    system.wheel.run()
    assert done
    assert not done[0].bypassed_llc
    assert system.stats.emc.llc_requests == 1
    # LLC hit: no DRAM involvement, so it is not an EMC miss.
    assert system.stats.llc_misses_from_emc == 0


def test_emc_fetch_direct_retries_a_full_memory_queue(monkeypatch):
    """A bypassing EMC load that finds its MC's queue full re-tries every
    ``RETRY_CYCLES`` and still completes, through DRAM."""
    system = make_system(emc=True)
    system.cfg.dram.queue_entries = 2
    h = system.hierarchy
    dram = h.dram[0]
    channel = dram.channels[dram.channel_of(0xB00000, h.total_channels)]
    while not channel.queue_full:
        assert channel.enqueue(DRAMRequest(line=0xB00000, source=0,
                                           is_write=False,
                                           callback=lambda _dr: None))
    attempts = []
    enqueue_at_owner = h._emc_enqueue_at_owner

    def spy(*args):
        attempts.append(system.wheel.now)
        enqueue_at_owner(*args)

    monkeypatch.setattr(h, "_emc_enqueue_at_owner", spy)
    done = []
    h.emc_fetch(mc_id=0, core_id=0, pc=0x20, vaddr=0xB00000,
                paddr=0xB00000, predicted_miss=True,
                callback=lambda r: done.append(r))
    system.wheel.run()
    assert len(attempts) >= 2
    assert all(later - earlier == RETRY_CYCLES
               for earlier, later in zip(attempts, attempts[1:]))
    [req] = done
    assert req.bypassed_llc and req.t_at_mc == attempts[-1]
    assert req.t_at_mc < req.t_dram_done <= req.t_done
    assert system.stats.llc_misses_from_emc == 1


def test_emc_path_has_less_onchip_overhead():
    """The EMC's direct path skips the ring/LLC/fill legs: compare the
    *on-chip* (non-DRAM) portion, which is independent of row-buffer
    state."""
    system = make_system(emc=True)
    core_req = drive_request(system, 0x900000)
    done = []
    system.hierarchy.emc_fetch(
        mc_id=0, core_id=0, pc=0x20, vaddr=0xA00000, paddr=0xA00000,
        predicted_miss=True, callback=lambda r: done.append(r))
    system.wheel.run()
    emc_req = done[0]
    core_onchip = core_req.total_latency - core_req.dram_latency
    emc_onchip = emc_req.total_latency - emc_req.dram_latency
    assert emc_onchip < core_onchip


def test_mc_of_line_splits_channels():
    system = make_system(num_cores=1)
    h = system.hierarchy
    owners = {h.mc_of_line(i * 64) for i in range(8)}
    assert owners == {0}    # single MC owns everything


def test_slice_pipeline_serializes_bursts():
    system = make_system()
    h = system.hierarchy
    waits = [h._slice_wait(0) for _ in range(4)]
    assert waits[0] == 0
    assert waits[1] > 0
    assert waits == sorted(waits)
