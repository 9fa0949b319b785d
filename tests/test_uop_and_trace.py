"""Tests for MicroOp/Trace helpers and edge semantics."""

from repro.uarch.uop import (EMC_ALLOWED_TYPES, UOP_LATENCY, MicroOp,
                             Trace, UopType)


def test_sources_enumeration():
    u = MicroOp(seq=0, op=UopType.ADD, dest=1, src1=2, src2=3)
    assert u.sources() == (2, 3)
    u = MicroOp(seq=0, op=UopType.MOV, dest=1, imm=5)
    assert u.sources() == ()
    u = MicroOp(seq=0, op=UopType.NOT, dest=1, src1=7)
    assert u.sources() == (7,)


def test_is_mem_flag():
    assert MicroOp(seq=0, op=UopType.LOAD, dest=1, src1=2).is_mem
    assert MicroOp(seq=0, op=UopType.STORE, src1=1, src2=2).is_mem
    assert not MicroOp(seq=0, op=UopType.ADD, dest=1, src1=2).is_mem


def test_emc_allowed_property_matches_set():
    for op in UopType:
        u = MicroOp(seq=0, op=op, dest=1, src1=2)
        assert u.emc_allowed == (op in EMC_ALLOWED_TYPES)


def test_latency_table_covers_non_memory_ops():
    for op in UopType:
        if op in (UopType.LOAD, UopType.STORE):
            continue
        assert op in UOP_LATENCY, op
        assert UOP_LATENCY[op] >= 1
        assert op.latency == UOP_LATENCY[op], op


def test_trace_len_and_meta():
    uops = [MicroOp(seq=i, op=UopType.NOP) for i in range(5)]
    trace = Trace(uops=uops, name="t", meta={"profile": "x"})
    assert len(trace) == 5
    assert trace.meta["profile"] == "x"


def test_repr_is_printable():
    u = MicroOp(seq=3, op=UopType.ADD, dest=1, src1=2, imm=0x18)
    text = repr(u)
    assert "add" in text and "#3" in text
