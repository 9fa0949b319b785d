"""Tests for the workload generators: functional consistency is the key
invariant — re-executing a trace against its image must reproduce exactly
the values the generator computed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.isa import effective_address, execute_alu
from repro.uarch.uop import Trace, UopType
from repro.workloads.generators import (GatherParams, PointerChaseParams,
                                        StreamParams, TraceBuilder, gather,
                                        pointer_chase, stream)
from repro.workloads.memory_image import MemoryImage
from repro.workloads.spec import (HIGH_INTENSITY, LOW_INTENSITY, PROFILES,
                                  build_trace, get_profile)


def replay(trace: Trace, image: MemoryImage) -> dict:
    """Functionally re-execute a trace; returns final register state.

    Raises if any uop type is unknown — the correctness oracle for the
    generator's execute-while-emitting discipline.
    """
    regs = {}

    def val(reg):
        return regs.get(reg, 0) if reg is not None else 0

    for uop in trace.uops:
        if uop.op is UopType.LOAD:
            addr = effective_address(uop, val(uop.src1))
            result = image.read(addr)
        elif uop.op is UopType.STORE:
            addr = effective_address(uop, val(uop.src1))
            value = val(uop.src2) if uop.src2 is not None else uop.imm
            image.write(addr, value)
            result = value
        else:
            result = execute_alu(uop, val(uop.src1), val(uop.src2))
        if uop.dest is not None:
            regs[uop.dest] = result
    return regs


@pytest.mark.parametrize("name", ["mcf", "omnetpp", "soplex", "libquantum",
                                  "lbm", "milc", "calculix", "gcc"])
def test_profile_traces_replay_consistently(name):
    trace, image = build_trace(name, n_instrs=800, seed=3)
    # Replaying on a fresh copy must end in the same register state the
    # builder reached (the builder IS a replay).
    regs = replay(trace, image.copy())
    trace2, image2 = build_trace(name, n_instrs=800, seed=3)
    regs2 = replay(trace2, image2.copy())
    assert regs == regs2


def test_trace_length_respects_budget():
    for name in ("mcf", "libquantum"):
        trace, _ = build_trace(name, n_instrs=500, seed=1)
        # Budget plus at most one iteration of slack plus setup.
        assert 500 <= len(trace) <= 600


def test_seeds_change_traces():
    t1, _ = build_trace("mcf", n_instrs=300, seed=1)
    t2, _ = build_trace("mcf", n_instrs=300, seed=2)
    ops1 = [(u.op, u.imm) for u in t1.uops]
    ops2 = [(u.op, u.imm) for u in t2.uops]
    assert ops1 != ops2


def test_same_seed_is_deterministic():
    t1, i1 = build_trace("omnetpp", n_instrs=300, seed=7)
    t2, i2 = build_trace("omnetpp", n_instrs=300, seed=7)
    assert [(u.op, u.dest, u.src1, u.src2, u.imm) for u in t1.uops] \
        == [(u.op, u.dest, u.src1, u.src2, u.imm) for u in t2.uops]


def test_pointer_chase_next_pointers_are_real():
    image = MemoryImage()
    builder = TraceBuilder(image, seed=1)
    params = PointerChaseParams(num_nodes=256, payload_prob=0.0,
                                second_level_prob=0.0, spill_prob=0.0)
    pointer_chase(builder, 400, params)
    trace = builder.finish("chase")
    # Every chase LOAD's loaded value must itself be a valid node address.
    regs = {}
    base = params.region_base
    limit = base + 2 * params.num_nodes * 64 * 2
    for uop in trace.uops:
        if uop.op is UopType.LOAD and uop.imm == 0 and uop.src1 is not None:
            addr = (regs.get(uop.src1, 0) + uop.imm) & ((1 << 64) - 1)
            value = image.read(addr)
            assert base <= value < limit
        if uop.op is UopType.LOAD:
            regs[uop.dest] = image.read(
                effective_address(uop, regs.get(uop.src1, 0)))
        elif uop.op is UopType.STORE:
            image.write(effective_address(uop, regs.get(uop.src1, 0)),
                        regs.get(uop.src2, 0) if uop.src2 is not None
                        else uop.imm)
        elif uop.dest is not None:
            regs[uop.dest] = execute_alu(uop, regs.get(uop.src1, 0),
                                         regs.get(uop.src2, 0))


def test_parallel_chains_use_disjoint_regions():
    image = MemoryImage()
    builder = TraceBuilder(image, seed=1)
    params = PointerChaseParams(num_nodes=512, parallel_chains=4,
                                payload_prob=0.0, second_level_prob=0.0,
                                spill_prob=0.0)
    pointer_chase(builder, 200, params)
    # Each chain's pointer registers start in distinct regions.
    starts = [u.imm for u in builder.uops[:4] if u.op is UopType.MOV]
    assert len(set(s // (1 << 14) for s in starts)) == 4


def test_spill_fill_pairs_have_mem_deps():
    image = MemoryImage()
    builder = TraceBuilder(image, seed=5)
    params = PointerChaseParams(num_nodes=256, spill_prob=1.0)
    pointer_chase(builder, 300, params)
    fills = [u for u in builder.uops
             if u.op is UopType.LOAD and u.is_spill_fill]
    assert fills
    by_seq = {u.seq: u for u in builder.uops}
    for fill in fills:
        assert fill.mem_dep is not None
        store = by_seq[fill.mem_dep]
        assert store.op is UopType.STORE and store.is_spill_fill
        assert store.imm == fill.imm          # same spill slot


def test_stream_is_sequential():
    image = MemoryImage()
    builder = TraceBuilder(image, seed=1)
    stream(builder, 300, StreamParams(array_bytes=1 << 20, store_prob=0.0))
    regs = {}
    addrs = []
    for uop in builder.uops:
        if uop.op is UopType.LOAD:
            addrs.append(effective_address(uop, regs.get(uop.src1, 0)))
            regs[uop.dest] = image.read(addrs[-1])
        elif uop.dest is not None:
            regs[uop.dest] = execute_alu(uop, regs.get(uop.src1, 0),
                                         regs.get(uop.src2, 0))
    deltas = [b - a for a, b in zip(addrs, addrs[1:])]
    assert all(d >= 0 for d in deltas)   # monotone until wrap


def test_gather_addresses_stay_in_data_region():
    image = MemoryImage()
    builder = TraceBuilder(image, seed=1)
    params = GatherParams(index_bytes=1 << 20, data_bytes=1 << 22,
                          dependent_prob=1.0)
    gather(builder, 300, params)
    data_base = params.region_base + params.index_bytes + (1 << 24)
    regs = {}
    gather_addrs = []
    for uop in builder.uops:
        if uop.op is UopType.LOAD:
            addr = effective_address(uop, regs.get(uop.src1, 0))
            if addr >= data_base:
                gather_addrs.append(addr)
            regs[uop.dest] = image.read(addr)
        elif uop.dest is not None:
            regs[uop.dest] = execute_alu(uop, regs.get(uop.src1, 0),
                                         regs.get(uop.src2, 0))
    assert gather_addrs
    assert all(data_base <= a < data_base + params.data_bytes + 8
               for a in gather_addrs)


def test_compute_profile_has_low_memory_footprint():
    trace, image = build_trace("povray", n_instrs=500, seed=1)
    loads = sum(1 for u in trace.uops if u.op is UopType.LOAD)
    assert loads / len(trace) < 0.25


def test_profiles_cover_table2():
    assert set(HIGH_INTENSITY) == {"omnetpp", "milc", "soplex", "sphinx3",
                                   "bwaves", "libquantum", "lbm", "mcf"}
    assert len(LOW_INTENSITY) == 21
    assert len(PROFILES) == 29


def test_unknown_profile_rejected():
    with pytest.raises(KeyError):
        get_profile("nosuchbenchmark")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_any_seed_generates_valid_mcf_trace(seed):
    # mcf takes the multi-chain path (four chains); gcc is one chain.
    for name in ("mcf", "gcc"):
        trace, image = build_trace(name, n_instrs=200, seed=seed)
        replay(trace, image.copy())   # must not raise


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       maxback=st.integers(min_value=1, max_value=64))
def test_inline_randbelow_matches_randint_sequence(seed, maxback):
    """pointer_chase replicates ``rng.randint(1, maxback)`` inline via
    getrandbits (CPython's _randbelow_with_getrandbits) to skip call
    frames on the build hot path.  The drawn sequence — and therefore
    every generated trace — must match the randint formulation exactly."""
    import random
    ref = random.Random(seed)
    expected = [ref.randint(1, maxback) for _ in range(500)]
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    k = maxback.bit_length()
    got = []
    for _ in range(500):
        r = getrandbits(k)
        while r >= maxback:
            r = getrandbits(k)
        got.append(1 + r)
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       length=st.integers(min_value=0, max_value=200))
def test_inline_shuffle_matches_random_shuffle(seed, length):
    """_build_chase_order inlines rng.shuffle (Fisher-Yates over
    getrandbits); the permutation and the RNG state afterwards must match
    random.Random.shuffle exactly."""
    import random
    ref_rng = random.Random(seed)
    ref = list(range(length))
    ref_rng.shuffle(ref)
    rng = random.Random(seed)
    got = list(range(length))
    getrandbits = rng.getrandbits
    for i in range(len(got) - 1, 0, -1):
        bound = i + 1
        bits = bound.bit_length()
        r = getrandbits(bits)
        while r >= bound:
            r = getrandbits(bits)
        got[i], got[r] = got[r], got[i]
    assert got == ref
    assert rng.getstate() == ref_rng.getstate()
