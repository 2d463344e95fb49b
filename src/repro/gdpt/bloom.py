"""Bloom filter for the MarkDup_opt map-side filter (section 3.2).

A previous MapReduce round records the 5' unclipped positions of all
reads in partial matching pairs; a set bit means reads of complete
pairs at that position must also be shuffled under the second
(fragment-level) partitioning function.  False positives only cost
extra shuffling, never correctness.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable

from repro.errors import FormatError

#: ``to_bytes`` header: magic, num_bits, num_hashes, items_added.
_HEADER = struct.Struct(">4sIIQ")
_MAGIC = b"BLM1"


class BloomFilter:
    """A fixed-size bloom filter over hashable items."""

    def __init__(self, num_bits: int = 1 << 16, num_hashes: int = 3):
        if num_bits < 8:
            raise ValueError("num_bits must be >= 8")
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray(num_bits // 8 + 1)
        self.items_added = 0

    def _positions(self, item) -> Iterable[int]:
        payload = repr(item).encode()
        for salt in range(self.num_hashes):
            yield zlib.crc32(payload, salt * 0x9E3779B9) % self.num_bits

    def add(self, item) -> None:
        for position in self._positions(item):
            self._bits[position >> 3] |= 1 << (position & 7)
        self.items_added += 1

    def update(self, items: Iterable) -> None:
        for item in items:
            self.add(item)

    def __contains__(self, item) -> bool:
        return all(
            self._bits[position >> 3] & (1 << (position & 7))
            for position in self._positions(item)
        )

    def merge(self, other: "BloomFilter") -> None:
        """Union with another filter of identical geometry."""
        if (self.num_bits, self.num_hashes) != (other.num_bits, other.num_hashes):
            raise ValueError("bloom filter geometries differ")
        for index, byte in enumerate(other._bits):
            self._bits[index] |= byte
        self.items_added += other.items_added

    def estimated_fill(self) -> float:
        """Fraction of set bits (saturation diagnostic)."""
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.num_bits

    def to_bytes(self) -> bytes:
        return _HEADER.pack(_MAGIC, self.num_bits, self.num_hashes,
                            self.items_added) + bytes(self._bits)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        try:
            magic, num_bits, num_hashes, items = _HEADER.unpack_from(data)
            if magic != _MAGIC:
                raise ValueError(f"bad magic {magic!r}")
            # Checked before the filter is allocated: a damaged
            # ``num_bits`` must not size a bytearray.
            bits = data[_HEADER.size:]
            if len(bits) != num_bits // 8 + 1:
                raise ValueError(
                    f"{len(bits)} bytes of bits for {num_bits} bits"
                )
            bloom = cls(num_bits, num_hashes)
        except (struct.error, ValueError) as exc:
            raise FormatError(f"malformed bloom filter: {exc}") from exc
        bloom._bits[:] = bits
        bloom.items_added = items
        return bloom

    def __repr__(self) -> str:
        return (
            f"BloomFilter({self.num_bits} bits, {self.num_hashes} hashes, "
            f"{self.items_added} items, fill={self.estimated_fill():.3f})"
        )
