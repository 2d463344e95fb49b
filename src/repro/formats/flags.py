"""SAM FLAG bitfield.

The FLAG word encodes pairing, strand, mapping and duplicate status of a
read.  We expose the standard bit constants plus a small helper class so
the rest of the library never manipulates raw integers.
"""

from __future__ import annotations

PAIRED = 0x1
PROPER_PAIR = 0x2
UNMAPPED = 0x4
MATE_UNMAPPED = 0x8
REVERSE = 0x10
MATE_REVERSE = 0x20
FIRST_IN_PAIR = 0x40
SECOND_IN_PAIR = 0x80
SECONDARY = 0x100
QC_FAIL = 0x200
DUPLICATE = 0x400
SUPPLEMENTARY = 0x800

_ALL = (
    PAIRED | PROPER_PAIR | UNMAPPED | MATE_UNMAPPED | REVERSE | MATE_REVERSE
    | FIRST_IN_PAIR | SECOND_IN_PAIR | SECONDARY | QC_FAIL | DUPLICATE
    | SUPPLEMENTARY
)


class SamFlags:
    """A thin, immutable wrapper over the FLAG integer."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = int(value) & _ALL

    def has(self, bit: int) -> bool:
        return bool(self.value & bit)

    def with_bit(self, bit: int, on: bool = True) -> "SamFlags":
        if on:
            return SamFlags(self.value | bit)
        return SamFlags(self.value & ~bit)

    # Convenience predicates used throughout the pipeline -----------------
    @property
    def is_paired(self) -> bool:
        return self.has(PAIRED)

    @property
    def is_proper_pair(self) -> bool:
        return self.has(PROPER_PAIR)

    @property
    def is_unmapped(self) -> bool:
        return self.has(UNMAPPED)

    @property
    def is_mate_unmapped(self) -> bool:
        return self.has(MATE_UNMAPPED)

    @property
    def is_reverse(self) -> bool:
        return self.has(REVERSE)

    @property
    def is_first_in_pair(self) -> bool:
        return self.has(FIRST_IN_PAIR)

    @property
    def is_second_in_pair(self) -> bool:
        return self.has(SECOND_IN_PAIR)

    @property
    def is_duplicate(self) -> bool:
        return self.has(DUPLICATE)

    @property
    def is_primary(self) -> bool:
        return not (self.has(SECONDARY) or self.has(SUPPLEMENTARY))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SamFlags) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"SamFlags(0x{self.value:x})"
