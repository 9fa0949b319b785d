"""Unit + property tests for the synthetic memory image."""

from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.uarch.uop import MASK64
from repro.workloads.memory_image import MemoryImage

addrs = st.integers(min_value=0, max_value=MASK64)
words = st.integers(min_value=0, max_value=MASK64)


def test_read_after_write():
    image = MemoryImage()
    image.write(0x1000, 42)
    assert image.read(0x1000) == 42


def test_word_granularity():
    image = MemoryImage()
    image.write(0x1000, 42)
    # Any address within the same 8-byte word reads the same value.
    assert image.read(0x1003) == 42
    assert image.read(0x1007) == 42


def test_unwritten_reads_are_deterministic():
    a, b = MemoryImage(), MemoryImage()
    assert a.read(0xDEADBEEF) == b.read(0xDEADBEEF)
    assert a.read(0xDEADBEEF) == a.read(0xDEADBEEF)


def test_unwritten_reads_spread():
    image = MemoryImage()
    values = {image.read(i * 8) for i in range(64)}
    assert len(values) > 32   # hash-quality sanity check


def test_contains_and_len():
    image = MemoryImage()
    assert 0x1000 not in image
    image.write(0x1000, 1)
    assert 0x1000 in image
    assert 0x1004 in image       # same word
    assert len(image) == 1


def test_copy_is_independent():
    image = MemoryImage()
    image.write(0, 1)
    clone = image.copy()
    clone.write(0, 2)
    assert image.read(0) == 1
    assert clone.read(0) == 2


@given(addr=addrs, value=words)
def test_write_read_roundtrip(addr, value):
    image = MemoryImage()
    image.write(addr, value)
    assert image.read(addr) == value


@given(addr=addrs)
def test_reads_fit_64_bits(addr):
    image = MemoryImage()
    assert 0 <= image.read(addr) <= MASK64


@given(addr=addrs, v1=words, v2=words)
def test_last_write_wins(addr, v1, v2):
    image = MemoryImage()
    image.write(addr, v1)
    image.write(addr, v2)
    assert image.read(addr) == v2


@given(a1=addrs, a2=addrs, v1=words, v2=words)
def test_disjoint_words_do_not_interfere(a1, a2, v1, v2):
    if (a1 & ~0x7) == (a2 & ~0x7):
        return
    image = MemoryImage()
    image.write(a1, v1)
    image.write(a2, v2)
    assert image.read(a1) == v1
    assert image.read(a2) == v2


def _regioned(base=0x1000, stride=64, words=2, records=8):
    """An image with one region, and an image holding the same words as
    plain writes."""
    data = array("Q", [(i * 0x9E3779B97F4A7C15) & MASK64
                       for i in range(records * words)])
    regioned, written = MemoryImage(), MemoryImage()
    regioned.add_region(base, stride, words, data)
    for i, value in enumerate(data):
        written.write(base + (i // words) * stride + 8 * (i % words), value)
    return regioned, written


def test_region_reads_match_per_word_writes():
    regioned, written = _regioned()
    assert len(regioned) == len(written) == 16
    assert list(regioned.written_addresses()) == \
        sorted(written.written_addresses())
    for addr in range(0x0F00, 0x1300, 4):      # around, inside, between
        assert regioned.read(addr) == written.read(addr)
        assert (addr in regioned) == (addr in written)


def test_writes_shadow_region_words():
    regioned, written = _regioned()
    for image in (regioned, written):
        image.write(0x1048, 7)                 # record 1, word 1
        image.write(0x1050, 8)                 # between records
    assert regioned.read(0x1048) == 7
    assert len(regioned) == len(written) == 17
    assert sorted(regioned.written_addresses()) == \
        sorted(written.written_addresses())
    assert regioned.regions[0].data[3] != 7   # the region is not written


def test_copy_shares_regions_and_copies_writes():
    image, _written = _regioned()
    clone = image.copy()
    assert clone.regions[0].data is image.regions[0].data
    clone.write(0x1000, 1)
    assert clone.read(0x1000) == 1
    assert image.read(0x1000) == image.regions[0].data[0]


@pytest.mark.parametrize("base, stride, words, n", [
    (0x1004, 64, 2, 4),        # unaligned base
    (0x1000, 12, 1, 4),        # unaligned stride
    (0x1000, 16, 3, 6),        # record wider than its stride
    (0x1000, 64, 2, 3),        # partial record
])
def test_bad_region_geometry_rejected(base, stride, words, n):
    with pytest.raises(ValueError, match="geometry"):
        MemoryImage().add_region(base, stride, words, array("Q", [0] * n))


def test_overlapping_regions_and_writes_rejected():
    image, _written = _regioned()
    with pytest.raises(ValueError, match="overlaps the region"):
        image.add_region(0x11C0, 64, 1, array("Q", [0]))
    image.write(0x4000, 1)
    with pytest.raises(ValueError, match="overlaps written words"):
        image.add_region(0x4000, 64, 1, array("Q", [0]))
