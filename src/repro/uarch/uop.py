"""Micro-operation (uop) definitions.

Uops carry *real* integer semantics over a synthetic memory image so that a
dependence chain executed remotely at the EMC computes exactly the addresses
the core would have computed.  This is the property the paper's mechanism
relies on: the EMC runs the actual pointer arithmetic, it does not guess.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Final, List, Mapping, Optional, Tuple


class UopType(enum.Enum):
    """Operation classes.  The integer/logical subset is EMC-executable."""

    ADD = "add"
    SUB = "sub"
    MOV = "mov"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    SEXT = "sext"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    FP = "fp"          # floating point — never EMC-executable
    VEC = "vec"        # vector — never EMC-executable
    NOP = "nop"


#: Uop types the EMC back-end may execute (Table 1, "EMC Instructions").
EMC_ALLOWED_TYPES = frozenset(
    {
        UopType.ADD,
        UopType.SUB,
        UopType.MOV,
        UopType.AND,
        UopType.OR,
        UopType.XOR,
        UopType.NOT,
        UopType.SHL,
        UopType.SHR,
        UopType.SEXT,
        UopType.LOAD,
        UopType.STORE,
    }
)

#: Execution latency in cycles on the core's functional units.
UOP_LATENCY: Final[Mapping["UopType", int]] = MappingProxyType({
    UopType.ADD: 1,
    UopType.SUB: 1,
    UopType.MOV: 1,
    UopType.AND: 1,
    UopType.OR: 1,
    UopType.XOR: 1,
    UopType.NOT: 1,
    UopType.SHL: 1,
    UopType.SHR: 1,
    UopType.SEXT: 1,
    UopType.BRANCH: 1,
    UopType.FP: 4,
    UopType.VEC: 4,
    UopType.NOP: 1,
    # LOAD/STORE latency comes from the memory system, not this table.
})

# Each op carries its latency as a plain attribute (None for LOAD/STORE),
# so the core's issue loop reads ``op.latency`` instead of hashing the
# enum member into the table (``Enum.__hash__`` is Python code).
for _op in UopType:
    _op.latency = UOP_LATENCY.get(_op)
del _op

MASK64 = (1 << 64) - 1


@dataclass(slots=True)
class MicroOp:
    """One dynamic micro-operation from a workload trace.

    Registers are *architectural* ids (small ints).  The core renames them at
    dispatch; the chain-generation unit renames them again onto the EMC's
    16-register space.

    For memory ops the effective address is ``regs[src1] + imm`` (or just
    ``imm`` when ``src1 is None``, an absolute address).  ``STORE`` writes the
    value of ``src2`` (or ``imm`` when ``src2 is None``).
    """

    seq: int                      # dynamic sequence number within the trace
    op: UopType
    dest: Optional[int] = None    # architectural destination register
    src1: Optional[int] = None    # architectural source register
    src2: Optional[int] = None    # second architectural source register
    imm: int = 0                  # immediate / displacement
    pc: int = 0                   # program counter of the parent instruction
    mispredicted: bool = False    # BRANCH only: core mispredicts this branch
    is_spill_fill: bool = False   # STORE/LOAD that is a register spill/fill
    # Memory-dependence edge: seq of an earlier STORE this uop must order
    # after (models perfect memory disambiguation for spill/fill pairs).
    mem_dep: Optional[int] = None

    def sources(self) -> Tuple[int, ...]:
        """Architectural source registers actually read by this uop."""
        srcs = []
        if self.src1 is not None:
            srcs.append(self.src1)
        if self.src2 is not None:
            srcs.append(self.src2)
        return tuple(srcs)

    @property
    def is_mem(self) -> bool:
        return self.op in (UopType.LOAD, UopType.STORE)

    @property
    def emc_allowed(self) -> bool:
        return self.op in EMC_ALLOWED_TYPES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"#{self.seq} {self.op.value}"]
        if self.dest is not None:
            parts.append(f"r{self.dest} <-")
        if self.src1 is not None:
            parts.append(f"r{self.src1}")
        if self.src2 is not None:
            parts.append(f"r{self.src2}")
        if self.imm:
            parts.append(f"+{self.imm:#x}")
        return " ".join(parts)


@dataclass
class Trace:
    """A finite dynamic uop stream plus the memory image backing its loads."""

    uops: List[MicroOp]
    name: str = "trace"
    #: number of architectural registers referenced
    num_regs: int = 32
    #: metadata the generators attach (profile name, knob values)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.uops)
