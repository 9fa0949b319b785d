"""Synthetic workload kernels.

Each kernel *functionally executes while it emits*: the generator maintains
architectural register state and performs every load/store against the
:class:`MemoryImage` it is building, so the uop stream it produces computes
exactly the same addresses when re-executed by the simulated core — or,
crucially, by the EMC.  Dependent cache misses in these traces are therefore
genuinely data-dependent, not annotations.

Kernels:

- ``pointer_chase`` — mcf/omnetpp-style linked-structure traversal with
  controllable page locality (clustered allocation), payload indirection
  depth, and ALU work between the source load and its dependent load.
- ``stream`` — libquantum/lbm/bwaves-style sequential sweeps with optional
  store streams; high bandwidth, prefetch-friendly, no dependent misses.
- ``gather`` — soplex/sphinx3/milc-style ``A[B[i]]`` indirect access: the
  index load is a (prefetchable) streaming miss, the data load a dependent
  miss.
- ``compute`` — low-MPKI ALU/FP loop over an LLC-resident working set, for
  the low-intensity SPEC benchmarks.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.kernel import load_source, source_hash
from ..uarch.isa import execute_alu
from ..uarch.uop import MASK64, MicroOp, Trace, UopType
from .memory_image import MemoryImage

LINE = 64
PAGE = 4096


class TraceBuilder:
    """Emits uops while executing them, keeping registers and memory
    consistent between generation time and simulation time.

    When the C workload kernel loaded, ``emit`` is its ``Emitter.emit``
    (``_layout.c``), bound to this builder's ``uops``, ``regs`` and
    image, which counts its own ``seq``; the method below is its
    reference and the fallback."""

    def __init__(self, image: MemoryImage, seed: int,
                 num_regs: int = 32) -> None:
        self.image = image
        self.rng = random.Random(seed)
        self.uops: List[MicroOp] = []
        self.regs: Dict[int, int] = {}
        self.num_regs = num_regs
        self._seq = 0
        self._emitter = None
        if _kernel is not None:
            self._emitter = _kernel.Emitter(self.uops, self.regs, image)
            self.emit = self._emitter.emit

    def emit(self, op: UopType, dest: Optional[int] = None,
             src1: Optional[int] = None, src2: Optional[int] = None,
             imm: int = 0, pc: int = 0, mispredicted: bool = False,
             is_spill_fill: bool = False,
             mem_dep: Optional[int] = None) -> int:
        """Append one uop and functionally execute it.  Returns the value
        written to ``dest`` (or the store value / branch 0)."""
        uop = MicroOp(seq=self._seq, op=op, dest=dest, src1=src1, src2=src2,
                      imm=imm, pc=pc, mispredicted=mispredicted,
                      is_spill_fill=is_spill_fill, mem_dep=mem_dep)
        self._seq += 1
        self.uops.append(uop)
        regs_get = self.regs.get
        if op is UopType.LOAD:
            # effective_address(), inlined for the build fast path.
            addr = (imm & MASK64 if src1 is None
                    else (regs_get(src1, 0) + imm) & MASK64)
            value = self.image.read(addr)
        elif op is UopType.STORE:
            addr = (imm & MASK64 if src1 is None
                    else (regs_get(src1, 0) + imm) & MASK64)
            value = regs_get(src2, 0) if src2 is not None else (imm & MASK64)
            self.image.write(addr, value)
        else:
            value = execute_alu(uop,
                                0 if src1 is None else regs_get(src1, 0),
                                0 if src2 is None else regs_get(src2, 0))
        if dest is not None:
            self.regs[dest] = value
        return value

    def set_reg(self, reg: int, value: int, pc: int = 0) -> None:
        """Materialize a 64-bit constant into ``reg`` (MOV-immediate)."""
        self.emit(UopType.MOV, dest=reg, imm=value & MASK64, pc=pc)

    def branch(self, pc: int, mispredict_rate: float,
               src: Optional[int] = None) -> None:
        mis = self.rng.random() < mispredict_rate
        self.emit(UopType.BRANCH, src1=src, pc=pc, mispredicted=mis)

    @property
    def count(self) -> int:
        return self._seq if self._emitter is None else self._emitter.seq

    def finish(self, name: str, **meta) -> Trace:
        return Trace(uops=self.uops, name=name, num_regs=self.num_regs,
                     meta=meta)


# ---------------------------------------------------------------------------
# pointer chasing (mcf / omnetpp)
# ---------------------------------------------------------------------------

@dataclass
class PointerChaseParams:
    num_nodes: int = 4096             # total across all parallel chains
    node_bytes: int = 64              # one node per cache line
    parallel_chains: int = 1          # independent lists chased round-robin
    page_locality: float = 0.7        # P(next node on the same page)
    page_adjacency: float = 0.7       # P(page change goes to the next page)
    payload_prob: float = 0.6         # P(dependent payload load per node)
    second_level_prob: float = 0.25   # P(second indirection per node)
    work_ops: int = 2                 # ALU ops between source and dependent
    compute_ops: int = 3              # non-chain ALU ops per iteration
    spill_prob: float = 0.08          # register spill/fill inside the chain
    mispredict_rate: float = 0.01
    region_base: int = 0x10000000


def _build_chase_order(rng: random.Random, n: int, nodes_per_page: int,
                       locality: float, adjacency: float) -> List[int]:
    """Traversal order over node indices with page-level clustering.

    The order is built as runs: stay on the current page with probability
    ``locality`` per step, otherwise jump to a random page that still has
    unvisited nodes.  O(n) overall via swap-remove bookkeeping.
    """
    num_pages = -(-n // nodes_per_page)
    per_page: List[List[int]] = [[] for _ in range(num_pages)]
    for i in range(n):
        per_page[i // nodes_per_page].append(i)
    getrandbits = rng.getrandbits
    for nodes in per_page:
        # rng.shuffle(nodes), Fisher–Yates inlined with _randbelow
        # replicated via getrandbits — bit-for-bit the same draw sequence
        # (pinned by test_inline_randbelow_matches_randint_sequence and
        # test_inline_shuffle_matches_random_shuffle) without three call
        # frames per element.
        for i in range(len(nodes) - 1, 0, -1):
            bound = i + 1
            bits = bound.bit_length()
            r = getrandbits(bits)
            while r >= bound:
                r = getrandbits(bits)
            nodes[i], nodes[r] = nodes[r], nodes[i]
    import bisect
    live_pages = list(range(num_pages))     # kept sorted

    def next_page_pos(current_pos: int) -> int:
        # Page changes prefer the allocation-order neighbour (mcf-style
        # semi-sequential traversal of node arrays), else a random jump.
        if rng.random() < adjacency:
            current = live_pages[current_pos]
            pos = bisect.bisect_right(live_pages, current)
            if pos < len(live_pages):
                return pos
        # rng.randrange(len(live_pages)), _randbelow inlined as above.
        bound = len(live_pages)
        bits = bound.bit_length()
        r = getrandbits(bits)
        while r >= bound:
            r = getrandbits(bits)
        return r

    order: List[int] = []
    order_append = order.append
    random = rng.random
    page_pos = rng.randrange(len(live_pages))
    while live_pages:
        page = live_pages[page_pos]
        nodes = per_page[page]
        order_append(nodes.pop())
        if not nodes:
            live_pages.pop(page_pos)
            if not live_pages:
                break
            page_pos = next_page_pos(min(page_pos, len(live_pages) - 1))
        elif random() >= locality:
            page_pos = next_page_pos(page_pos)
    return order


def _lay_out_chain_py(rng: random.Random, n: int, nodes_per_page: int,
                      locality: float, adjacency: float, base: int,
                      node_bytes: int, words: array) -> int:
    """Lay out one linked list of ``n`` nodes at ``base`` into ``words``
    and return its first node: the reference for ``_layout.c``.

    Node ``i`` lives at ``base + i * node_bytes``; ``words[2 * i]`` is its
    ``->next`` (the following node in traversal order, wrapping) and
    ``words[2 * i + 1]`` its ``->ptr``, into a *recently visited* node
    (graph edges into recently touched allocations), which gives the
    second indirection genuine temporal page locality.
    """
    order = _build_chase_order(rng, n, nodes_per_page, locality, adjacency)
    addrs = [base + node * node_bytes for node in order]
    # ``back = rng.randint(1, maxback)`` is replicated inline via
    # getrandbits — exactly CPython's Random._randbelow_with_getrandbits —
    # to skip three call frames per node (sequence equivalence is pinned
    # by a regression test).
    maxback = 64 if n >= 64 else n
    k = maxback.bit_length()
    getrandbits = rng.getrandbits
    for pos, (node, next_addr) in enumerate(zip(order,
                                                addrs[1:] + addrs[:1])):
        r = getrandbits(k)
        while r >= maxback:
            r = getrandbits(k)
        # back = 1 + r, target = order[pos - back]
        words[2 * node] = next_addr
        words[2 * node + 1] = addrs[pos - 1 - r] + 16
    return order[0]


LAYOUT_SOURCE = Path(__file__).with_name("_layout.c")

#: The C workload kernel (``_layout.c``: ``chain`` lays out a pointer
#: chase, ``Emitter`` is ``TraceBuilder.emit``), or None for the
#: pure-Python layout and emit; tests set it to None to run the
#: references.
_kernel = load_source(f"{__package__}._layout", LAYOUT_SOURCE,
                      "pure-Python layout and emit",
                      lambda module: module.setup(MicroOp, UopType))


def layout_implementation() -> str:
    """Which workload build runs, chain layout and trace emission
    together: ``"C <source hash>"`` or ``"python"``."""
    return "python" if _kernel is None else f"C {source_hash(LAYOUT_SOURCE)}"


def _lay_out_chain(rng: random.Random, n: int, params: PointerChaseParams,
                   base: int) -> Tuple[int, array]:
    """One chain's first node and its node words (see
    :func:`_lay_out_chain_py`), through the C kernel when it loaded.
    Either way ``rng`` ends in the same state."""
    nodes_per_page = max(1, PAGE // params.node_bytes)
    words = array("Q", bytes(16 * n))
    args = (n, nodes_per_page, params.page_locality, params.page_adjacency,
            base, params.node_bytes, words)
    if _kernel is None:
        return _lay_out_chain_py(rng, *args), words
    version, state, gauss_next = rng.getstate()
    state, first = _kernel.chain(state, *args)
    rng.setstate((version, state, gauss_next))
    return first, words


def pointer_chase(builder: TraceBuilder, n_instrs: int,
                  params: PointerChaseParams, pc_base: int = 0x1000) -> None:
    """Linked-structure traversal: every ``next`` load is a potential source
    miss; payload and second-level loads are its dependent misses.

    ``parallel_chains`` independent lists are chased round-robin — the
    memory-level parallelism real pointer chasers exhibit (mcf walks many
    arc lists concurrently).  Steps of one list stay strictly serialized.
    Each list is one immutable region of the image: two words per node.
    """
    image, rng = builder.image, builder.rng
    nb = params.node_bytes
    nchains = max(1, params.parallel_chains)
    nodes_per_chain = max(64, params.num_nodes // nchains)

    starts = []
    for j in range(nchains):
        base = params.region_base + j * nodes_per_chain * nb * 2
        first, words = _lay_out_chain(rng, nodes_per_chain, params, base)
        image.add_region(base, nb, 2, words)
        starts.append(base + first * nb)

    R_NEXT, R_TMP, R_VAL, R_PTR2, R_ACC, R_SP = 2, 3, 4, 5, 6, 7
    R_PTR0 = 16                       # pointer register per parallel chain
    for j in range(nchains):
        builder.set_reg(R_PTR0 + j, starts[j], pc=pc_base + j)
    builder.set_reg(R_ACC, 0, pc=pc_base + 8)
    builder.set_reg(R_SP, 0x7FFF0000, pc=pc_base + 9)

    start = builder.count
    iteration = 0
    while builder.count - start < n_instrs:
        j = iteration % nchains
        iteration += 1
        r_ptr = R_PTR0 + j
        pc = pc_base + 0x10 + 0x40 * j
        # Source load: node->next (the pointer chase step).
        builder.emit(UopType.LOAD, dest=R_NEXT, src1=r_ptr, imm=0, pc=pc)
        # Work between source and dependent load (Figure 6's chain ops).
        prev = R_NEXT
        for k in range(params.work_ops):
            builder.emit(UopType.ADD, dest=R_TMP, src1=prev, imm=0,
                         pc=pc + 1 + k)
            prev = R_TMP
        if rng.random() < params.spill_prob:
            store_seq = builder.count
            # Rotating spill slots: out-of-order execution must never let a
            # younger spill clobber a slot an older fill still needs.  The
            # 256-entry ROB spans ~23 iterations, so 32 slots per chain
            # keep every in-flight spill/fill pair on a private slot.
            slot = 0x40 + j * 0x100 + (iteration % 32) * 8
            builder.emit(UopType.STORE, src1=R_SP, src2=prev, imm=slot,
                         pc=pc + 6, is_spill_fill=True)
            builder.emit(UopType.LOAD, dest=R_TMP, src1=R_SP, imm=slot,
                         pc=pc + 7, is_spill_fill=True, mem_dep=store_seq)
            prev = R_TMP
        if rng.random() < params.payload_prob:
            # Dependent load: a field of the next node.
            builder.emit(UopType.LOAD, dest=R_VAL, src1=prev, imm=8,
                         pc=pc + 8)
            if rng.random() < params.second_level_prob:
                # Second level of indirection: chase the payload pointer.
                builder.emit(UopType.LOAD, dest=R_PTR2, src1=R_VAL, imm=0,
                             pc=pc + 9)
                builder.emit(UopType.ADD, dest=R_ACC, src1=R_ACC,
                             src2=R_PTR2, pc=pc + 10)
            else:
                builder.emit(UopType.ADD, dest=R_ACC, src1=R_ACC,
                             src2=R_VAL, pc=pc + 11)
        for k in range(params.compute_ops):
            builder.emit(UopType.XOR, dest=R_ACC, src1=R_ACC, imm=k + 1,
                         pc=pc + 12 + k)
        builder.branch(pc + 20, params.mispredict_rate, src=R_ACC)
        builder.emit(UopType.MOV, dest=r_ptr, src1=R_NEXT, pc=pc + 21)


# ---------------------------------------------------------------------------
# streaming (libquantum / lbm / bwaves)
# ---------------------------------------------------------------------------

@dataclass
class StreamParams:
    array_bytes: int = 16 << 20
    stride: int = 64
    loads_per_iter: int = 2
    store_prob: float = 0.0           # lbm-style store stream
    compute_ops: int = 2
    mispredict_rate: float = 0.001
    region_base: int = 0x40000000


def stream(builder: TraceBuilder, n_instrs: int, params: StreamParams,
           pc_base: int = 0x2000) -> None:
    """Sequential sweep: high MPKI, zero dependent misses, very
    prefetch-friendly."""
    rng = builder.rng
    R_IDX, R_VAL, R_ACC, R_WADDR = 1, 2, 3, 4
    builder.set_reg(R_IDX, params.region_base, pc=pc_base)
    builder.set_reg(R_ACC, 0, pc=pc_base + 1)
    builder.set_reg(R_WADDR, params.region_base + params.array_bytes
                    + (1 << 22), pc=pc_base + 2)
    limit = params.region_base + params.array_bytes

    start = builder.count
    while builder.count - start < n_instrs:
        pc = pc_base + 0x10
        for k in range(params.loads_per_iter):
            builder.emit(UopType.LOAD, dest=R_VAL, src1=R_IDX,
                         imm=k * params.stride, pc=pc + k)
            builder.emit(UopType.ADD, dest=R_ACC, src1=R_ACC, src2=R_VAL,
                         pc=pc + 8 + k)
        if rng.random() < params.store_prob:
            builder.emit(UopType.STORE, src1=R_WADDR, src2=R_ACC, imm=0,
                         pc=pc + 16)
            builder.emit(UopType.ADD, dest=R_WADDR, src1=R_WADDR,
                         imm=params.stride, pc=pc + 17)
        for k in range(params.compute_ops):
            builder.emit(UopType.SHR, dest=R_ACC, src1=R_ACC, imm=1,
                         pc=pc + 20 + k)
        builder.emit(UopType.ADD, dest=R_IDX, src1=R_IDX,
                     imm=params.loads_per_iter * params.stride, pc=pc + 24)
        if builder.regs[R_IDX] + params.stride >= limit:
            builder.set_reg(R_IDX, params.region_base, pc=pc + 25)
        builder.branch(pc + 26, params.mispredict_rate)


# ---------------------------------------------------------------------------
# gather / indirect indexing (soplex / sphinx3 / milc)
# ---------------------------------------------------------------------------

@dataclass
class GatherParams:
    index_bytes: int = 8 << 20        # streaming index array
    data_bytes: int = 32 << 20        # randomly indexed data array
    gathers_per_iter: int = 2
    dependent_prob: float = 0.5       # P(the gather actually happens)
    # Bytes between consecutive index loads: 8 = dense (most index loads
    # L1-hit), 64 = sparse (every index load misses, so the gather is a
    # true dependent cache miss — sphinx3/soplex-like sparse structures).
    index_stride: int = 8
    compute_ops: int = 4
    mispredict_rate: float = 0.005
    region_base: int = 0x80000000


def gather(builder: TraceBuilder, n_instrs: int, params: GatherParams,
           pc_base: int = 0x3000) -> None:
    """``A[B[i]]``: the index-array load streams (prefetchable); the data
    load depends on it and scatters over a large array (dependent miss).

    The index value is the deterministic content of the unwritten index
    array; the data address is derived with mask/add uops so the EMC can
    recompute it."""
    rng = builder.rng
    R_IDX, R_B, R_MASKED, R_ADDR, R_VAL, R_ACC, R_BASE = 1, 2, 3, 4, 5, 6, 7
    data_base = params.region_base + params.index_bytes + (1 << 24)
    mask = (1 << (params.data_bytes.bit_length() - 1)) - 1
    builder.set_reg(R_IDX, params.region_base, pc=pc_base)
    builder.set_reg(R_BASE, data_base, pc=pc_base + 1)
    builder.set_reg(R_ACC, 0, pc=pc_base + 2)
    limit = params.region_base + params.index_bytes

    start = builder.count
    while builder.count - start < n_instrs:
        pc = pc_base + 0x10
        stride = params.index_stride
        for k in range(params.gathers_per_iter):
            builder.emit(UopType.LOAD, dest=R_B, src1=R_IDX, imm=k * stride,
                         pc=pc + k)
            if rng.random() < params.dependent_prob:
                builder.emit(UopType.AND, dest=R_MASKED, src1=R_B,
                             imm=mask & ~0x7, pc=pc + 4 + k)
                builder.emit(UopType.ADD, dest=R_ADDR, src1=R_MASKED,
                             src2=R_BASE, pc=pc + 8 + k)
                builder.emit(UopType.LOAD, dest=R_VAL, src1=R_ADDR, imm=0,
                             pc=pc + 12 + k)
                builder.emit(UopType.ADD, dest=R_ACC, src1=R_ACC, src2=R_VAL,
                             pc=pc + 16 + k)
        for k in range(params.compute_ops):
            builder.emit(UopType.XOR, dest=R_ACC, src1=R_ACC, imm=k + 3,
                         pc=pc + 24 + k)
        builder.emit(UopType.ADD, dest=R_IDX, src1=R_IDX,
                     imm=params.gathers_per_iter * 8, pc=pc + 30)
        if builder.regs[R_IDX] + 8 >= limit:
            builder.set_reg(R_IDX, params.region_base, pc=pc + 31)
        builder.branch(pc + 32, params.mispredict_rate)


# ---------------------------------------------------------------------------
# compute-bound (low-intensity SPEC benchmarks)
# ---------------------------------------------------------------------------

@dataclass
class ComputeParams:
    working_set_bytes: int = 256 << 10   # LLC-resident
    load_prob: float = 0.15
    fp_prob: float = 0.3
    compute_ops: int = 6
    # Loads concentrate on a small hot set (cache-friendly reuse); only
    # `cold_prob` of them touch the broader working set, so short runs are
    # not dominated by cold misses.
    hot_lines: int = 32
    cold_prob: float = 0.01
    mispredict_rate: float = 0.002
    region_base: int = 0xC0000000


def compute(builder: TraceBuilder, n_instrs: int, params: ComputeParams,
            pc_base: int = 0x4000) -> None:
    """ALU/FP-heavy loop over a cache-resident working set: low MPKI."""
    rng = builder.rng
    R_IDX, R_VAL, R_ACC = 1, 2, 3
    builder.set_reg(R_IDX, params.region_base, pc=pc_base)
    builder.set_reg(R_ACC, 1, pc=pc_base + 1)
    span = params.working_set_bytes
    hot_offsets = [rng.randrange(0, span, 8)
                   for _ in range(max(1, params.hot_lines))]

    start = builder.count
    while builder.count - start < n_instrs:
        pc = pc_base + 0x10
        if rng.random() < params.load_prob:
            if rng.random() < params.cold_prob:
                offset = rng.randrange(0, span, 8)
            else:
                offset = rng.choice(hot_offsets)
            builder.emit(UopType.LOAD, dest=R_VAL, src1=R_IDX, imm=offset,
                         pc=pc)
            builder.emit(UopType.ADD, dest=R_ACC, src1=R_ACC, src2=R_VAL,
                         pc=pc + 1)
        for k in range(params.compute_ops):
            op = UopType.FP if rng.random() < params.fp_prob else UopType.ADD
            builder.emit(op, dest=R_ACC, src1=R_ACC, imm=k + 1, pc=pc + 4 + k)
        builder.branch(pc + 12, params.mispredict_rate)
