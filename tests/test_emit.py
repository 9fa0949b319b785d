"""The C ``TraceBuilder.emit`` (``Emitter`` in ``_layout.c``) is an exact
twin of the pure-Python ``emit``: on random uop programs both return the
same values, append the same ``MicroOp`` objects field for field (types
included), and leave the same registers, overlay words and ``count``."""

from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch.uop import MicroOp, UopType
from repro.workloads import generators
from repro.workloads.generators import TraceBuilder
from repro.workloads.memory_image import MemoryImage

pytestmark = pytest.mark.skipif(generators._kernel is None,
                                reason="the C workload kernel did not build")

REGION = 0x1000            # 8 records of 32 bytes, 2 words each
OVERLAY = 0x2000           # written before the program runs
UNMAPPED = 0x9000
#: Registers 0-4 are set before the program runs and are its only
#: destinations; 5-7 stay unset.
SET_REGS = {0: REGION, 1: OVERLAY, 2: UNMAPPED, 3: 2**64 - 5,
            4: 0x80000001}

ARGS = ("op", "dest", "src1", "src2", "imm", "pc", "mispredicted",
        "is_spill_fill", "mem_dep")
DEFAULTS = (None, None, None, 0, 0, False, False, None)


def new_builder(c_emit):
    image = MemoryImage()
    image.add_region(REGION, 32, 2, array("Q", range(100, 116)))
    image.write(OVERLAY, 7)
    with mock.patch.object(generators, "_kernel",
                           generators._kernel if c_emit else None):
        builder = TraceBuilder(image, seed=0)
    for reg, value in SET_REGS.items():
        builder.set_reg(reg, value)
    return builder


def call(builder, positional, kwargs):
    """``builder.emit`` with ``kwargs``: as keywords, or every argument
    up to the last one given as a positional."""
    if not positional:
        return builder.emit(**kwargs)
    last = max(ARGS.index(name) for name in kwargs)
    args = [kwargs["op"]] + [kwargs.get(name, default) for name, default
                             in zip(ARGS[1:last + 1], DEFAULTS)]
    return builder.emit(*args)


registers = st.one_of(st.none(), st.integers(0, 7))
immediates = st.one_of(
    st.sampled_from([0, 1, 3, 8, 16, 24, 31, 32, 63, 64, -1, -8, -16,
                     2**63, 2**64, 2**64 + 8, 2**64 - 8, 2**70 + 3]),
    # the first region word, a later one, the gap between two records,
    # the word past the last record, the overlay word, unmapped memory
    st.sampled_from([REGION, REGION + 40, REGION + 16, REGION + 8 * 32,
                     OVERLAY, UNMAPPED, REGION - 8]),
    st.integers(-2**66, 2**66))
uops = st.tuples(
    st.booleans(),
    st.fixed_dictionaries(
        {"op": st.sampled_from(list(UopType))},
        optional={"dest": st.one_of(st.none(), st.integers(0, 4)),
                  "src1": registers, "src2": registers, "imm": immediates,
                  "pc": st.integers(0, 2**20),
                  "mispredicted": st.sampled_from([False, True, 0, 1]),
                  "is_spill_fill": st.booleans(),
                  "mem_dep": st.one_of(st.none(), st.integers(0, 50))}))


def assert_same_uops(c_uops, py_uops):
    assert len(c_uops) == len(py_uops)
    for c_uop, py_uop in zip(c_uops, py_uops):
        assert type(c_uop) is MicroOp
        for name in MicroOp.__slots__:
            c_value, py_value = getattr(c_uop, name), getattr(py_uop, name)
            assert type(c_value) is type(py_value), (name, c_uop, py_uop)
            assert c_value == py_value, (name, c_uop, py_uop)


@settings(max_examples=400, deadline=None)
@given(program=st.lists(uops, max_size=40))
def test_c_emit_matches_the_python_emit(program):
    c_builder, py_builder = new_builder(True), new_builder(False)
    assert c_builder._emitter is not None and py_builder._emitter is None
    for positional, kwargs in program:
        c_value = call(c_builder, positional, kwargs)
        py_value = call(py_builder, positional, kwargs)
        assert type(c_value) is type(py_value) and c_value == py_value
    assert_same_uops(c_builder.uops, py_builder.uops)
    assert c_builder.count == py_builder.count == len(py_builder.uops)
    assert c_builder.regs == py_builder.regs
    assert [type(v) for v in c_builder.regs.values()] == \
        [type(v) for v in py_builder.regs.values()]
    assert c_builder.image._words == py_builder.image._words
    assert list(c_builder.image._words) == list(py_builder.image._words)


def test_every_op_on_every_operand_kind_matches():
    """Each ``UopType`` with each source absent, set or unset, and an
    immediate of 0, negative, an offset into the region's gap, or at
    least 2**64 (register 0 holds the region's base)."""
    c_builder, py_builder = new_builder(True), new_builder(False)
    for op in UopType:
        for src1 in (None, 0, 3, 4, 6):
            for src2 in (None, 4, 6):
                for imm in (0, -3, 16, 2**64 + 3, 2**70 - 1):
                    kwargs = {"op": op, "dest": 5, "src1": src1,
                              "src2": src2, "imm": imm}
                    c_value = call(c_builder, False, kwargs)
                    py_value = call(py_builder, False, kwargs)
                    assert type(c_value) is type(py_value)
                    assert c_value == py_value, kwargs
                    del c_builder.regs[5], py_builder.regs[5]
    assert_same_uops(c_builder.uops, py_builder.uops)
    assert c_builder.image._words == py_builder.image._words


def test_stores_shadow_region_words_on_both():
    for c_emit in (True, False):
        builder = new_builder(c_emit)
        builder.emit(UopType.STORE, src1=0, src2=1, imm=8)
        assert builder.emit(UopType.LOAD, dest=3, imm=REGION + 8) == OVERLAY
        assert builder.emit(UopType.LOAD, dest=3, src1=0) == 100
        assert builder.image.read(REGION + 8) == OVERLAY


@pytest.mark.parametrize("args, kwargs", [
    ((), {"op": UopType.ADD, "bogus": 1}),
    ((UopType.ADD,), {"op": UopType.ADD}),
    ((UopType.ADD,) + DEFAULTS + (None,), {}),
    ((), {"dest": 1}),
])
def test_bad_arguments_raise_type_error_on_both(args, kwargs):
    for c_emit in (True, False):
        builder = new_builder(c_emit)
        with pytest.raises(TypeError):
            builder.emit(*args, **kwargs)


def test_an_op_that_is_no_uop_type_raises_value_error_on_both():
    for c_emit in (True, False):
        builder = new_builder(c_emit)
        with pytest.raises(ValueError, match="cannot execute"):
            builder.emit("add", dest=1, src1=0, imm=1)
        assert builder.count == len(SET_REGS) + 1


def test_the_kernel_switch_selects_the_emit():
    assert type(new_builder(True).emit.__self__) is generators._kernel.Emitter
    assert new_builder(False).emit.__func__ is TraceBuilder.emit

