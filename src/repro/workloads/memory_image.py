"""Synthetic memory image: the functional backing store for traces.

Workload generators lay out data structures (linked lists, hash buckets,
arrays) in a sparse 64-bit address space; the core and the EMC both read and
write this image, so dependent addresses are genuinely data-dependent.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from ..uarch.uop import MASK64

_WORD_MASK = ~0x7 & MASK64


class Region(NamedTuple):
    """An immutable run of records at a fixed stride: record ``i`` starts
    at ``base + i * stride`` and its ``words`` 8-byte words are
    ``data[i * words:(i + 1) * words]``.  The bytes between records are
    not part of the region; ``end`` is the address after the last
    record."""

    base: int
    end: int
    stride: int
    words: int
    data: array


def _lookup(regions: Tuple[Region, ...], waddr: int) -> Optional[int]:
    """The value of word address ``waddr`` in ``regions``, or None."""
    for base, end, stride, words, data in regions:
        if base <= waddr < end:
            record, byte = divmod(waddr - base, stride)
            return data[record * words + (byte >> 3)] \
                if byte < 8 * words else None
    return None


class MemoryImage:
    """A sparse word-addressable (8-byte granularity) memory.

    Words live in two layers.  Regions hold bulk layouts (a pointer-chase
    heap) in one ``array('Q')`` each and are never written; ``copy`` shares
    them.  The overlay dict holds every :meth:`write`, and shadows region
    words.  Reads of locations in neither return a deterministic hash of
    the address so stray loads stay reproducible without storing the whole
    address space.
    """

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}
        self._regions: Tuple[Region, ...] = ()

    def read(self, addr: int) -> int:
        """Read the 8-byte word containing ``addr``."""
        waddr = addr & _WORD_MASK
        value = self._words.get(waddr)
        if value is None and self._regions:
            value = _lookup(self._regions, waddr)
        if value is None:
            # Deterministic "uninitialized" pattern (splitmix64-style mix).
            z = (waddr + 0x9E3779B97F4A7C15) & MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            value = z ^ (z >> 31)
        return value

    def write(self, addr: int, value: int) -> None:
        """Write the 8-byte word containing ``addr``."""
        self._words[addr & _WORD_MASK] = value & MASK64

    def add_region(self, base: int, stride: int, words: int,
                   data: array) -> None:
        """Map ``data`` as an immutable region (see :class:`Region`).

        The region may not overlap another region or a written word, so
        it reads exactly as if each of its words had been written."""
        if data.typecode != "Q":
            raise ValueError("region data must be an array('Q')")
        if base % 8 or stride % 8 or not 0 < words <= stride // 8 \
                or len(data) % words:
            raise ValueError(f"bad region geometry: base {base:#x}, "
                             f"stride {stride}, {words} words/record, "
                             f"{len(data)} words")
        region = Region(base, base + len(data) // words * stride, stride,
                        words, data)
        for other in self._regions:
            if base < other.end and other.base < region.end:
                raise ValueError(f"region at {base:#x} overlaps the region "
                                 f"at {other.base:#x}")
        if any(_lookup((region,), waddr) is not None
               for waddr in self._words):
            raise ValueError(f"region at {base:#x} overlaps written words")
        self._regions += (region,)

    @property
    def regions(self) -> Tuple[Region, ...]:
        return self._regions

    def __contains__(self, addr: int) -> bool:
        waddr = addr & _WORD_MASK
        return (waddr in self._words
                or _lookup(self._regions, waddr) is not None)

    def __len__(self) -> int:
        shadowed = sum(1 for waddr in self._words
                       if _lookup(self._regions, waddr) is not None)
        return (len(self._words) - shadowed
                + sum(len(region.data) for region in self._regions))

    def written_addresses(self) -> Iterator[int]:
        """Every word address that reads a stored value: region words in
        region order, then the overlay's other words."""
        for region in self._regions:
            for start in range(region.base, region.end, region.stride):
                yield from range(start, start + 8 * region.words, 8)
        for waddr in self._words:
            if _lookup(self._regions, waddr) is None:
                yield waddr

    def copy(self) -> "MemoryImage":
        """An independent image: the overlay is copied, the immutable
        regions are shared."""
        clone = MemoryImage()
        clone._words = dict(self._words)
        clone._regions = self._regions
        return clone
