"""Property-based tests (hypothesis) on core data structures and system
invariants: conservation of requests, determinism, functional equivalence
of EMC execution under random workload parameters."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.cache import SetAssocCache
from repro.memsys.dram import DRAMChannel, DRAMRequest, DRAMStats
from repro.interconnect.ring import Ring
from repro.uarch.params import DRAMConfig, RingConfig
from repro.workloads.generators import PointerChaseParams, TraceBuilder, \
    pointer_chase
from repro.workloads.memory_image import MemoryImage

from .helpers import run_trace, tiny_config
from .wheels import on_both_wheels

lines = st.lists(st.integers(min_value=0, max_value=1 << 30)
                 .map(lambda a: a & ~0x3F), min_size=1, max_size=60)


@settings(max_examples=30, deadline=None)
@given(addrs=lines)
def test_dram_every_request_completes_exactly_once(addrs):
    _every_request_completes_exactly_once(addrs)


@on_both_wheels
def _every_request_completes_exactly_once(EventWheel, addrs):
    cfg = DRAMConfig(channels=1, queue_entries=256)
    wheel = EventWheel()
    channel = DRAMChannel(0, cfg, wheel, DRAMStats())
    done = []
    for i, line in enumerate(addrs):
        req = DRAMRequest(line=line, source=i % 4, is_write=False,
                          callback=lambda r: done.append(r))
        assert channel.enqueue(req)
    wheel.run()
    assert len(done) == len(addrs)
    assert not channel.queue


@settings(max_examples=30, deadline=None)
@given(addrs=lines)
def test_dram_bank_never_overlaps_service(addrs):
    """A bank serves one request at a time: service windows per bank are
    disjoint."""
    _bank_never_overlaps_service(addrs)


@on_both_wheels
def _bank_never_overlaps_service(EventWheel, addrs):
    cfg = DRAMConfig(channels=1, queue_entries=256)
    wheel = EventWheel()
    channel = DRAMChannel(0, cfg, wheel, DRAMStats())
    served = []
    for _i, line in enumerate(addrs):
        req = DRAMRequest(line=line, source=0, is_write=False,
                          callback=lambda r: served.append(r))
        channel.enqueue(req)
    wheel.run()
    by_bank = {}
    for req in served:
        by_bank.setdefault(req.bank, []).append(
            (req.service_start, req.completed_at))
    for windows in by_bank.values():
        windows.sort()
        for (_s1, e1), (s2, _e2) in zip(windows, windows[1:]):
            assert s2 >= e1, windows


@settings(max_examples=30, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=40))
def test_ring_delivers_everything_in_bounded_time(pairs):
    _ring_delivers_everything_in_bounded_time(pairs)


@on_both_wheels
def _ring_delivers_everything_in_bounded_time(EventWheel, pairs):
    wheel = EventWheel()
    ring = Ring(6, RingConfig(), wheel)
    delivered = []
    for src, dst in pairs:
        ring.send(src, dst, "data", lambda: delivered.append(wheel.now))
    wheel.run()
    assert len(delivered) == len(pairs)
    # Worst case: all messages serialized over the longest path.
    bound = len(pairs) * 6 * (RingConfig().link_cycles
                              + RingConfig().data_occupancy)
    assert all(t <= bound for t in delivered)


@settings(max_examples=20, deadline=None)
@given(keys=st.lists(st.integers(0, 1 << 20).map(lambda a: a * 64),
                     min_size=1, max_size=200))
def test_cache_occupancy_never_exceeds_capacity(keys):
    cache = SetAssocCache(size_bytes=4096, ways=4)
    for addr in keys:
        cache.fill(addr)
        assert cache.occupancy() <= 4096 // 64
    # Every resident line is findable.
    for line in cache.resident_lines():
        assert cache.probe(line) is not None


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000),
       locality=st.floats(0.1, 0.9),
       payload=st.floats(0.0, 1.0))
def test_emc_functionally_equivalent_on_random_chases(seed, locality,
                                                      payload):
    """For any pointer-chase shape, EMC-on and EMC-off runs end in the same
    architectural state."""
    params = PointerChaseParams(num_nodes=512, page_locality=locality,
                                payload_prob=payload,
                                second_level_prob=0.3, spill_prob=0.2,
                                mispredict_rate=0.02)
    image = MemoryImage()
    builder = TraceBuilder(image, seed=seed)
    pointer_chase(builder, 400, params)
    trace = builder.finish("prop")
    sys_off, _ = run_trace(trace, image=image.copy(), cfg=tiny_config())
    sys_on, stats = run_trace(trace, image=image.copy(),
                              cfg=tiny_config(emc=True))
    assert sys_on.cores[0].regfile == sys_off.cores[0].regfile
    assert stats.cores[0].instructions == len(trace.uops)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_simulation_is_deterministic(seed):
    params = PointerChaseParams(num_nodes=256, spill_prob=0.1)
    image = MemoryImage()
    builder = TraceBuilder(image, seed=seed)
    pointer_chase(builder, 300, params)
    trace = builder.finish("det")
    _s1, a = run_trace(trace, image=image.copy(), cfg=tiny_config(emc=True))
    _s2, b = run_trace(trace, image=image.copy(), cfg=tiny_config(emc=True))
    assert a.total_cycles == b.total_cycles
    assert a.cores[0].llc_misses == b.cores[0].llc_misses
    assert a.emc.chains_generated == b.emc.chains_generated
