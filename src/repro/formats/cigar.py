"""CIGAR algebra for SAM records.

A CIGAR string describes how a read maps to the reference: runs of
matches (``M``/``=``/``X``), insertions (``I``), deletions (``D``),
skipped reference (``N``), soft clips (``S``), hard clips (``H``) and
padding (``P``).  The cleaning and duplicate-marking stages depend on
derived quantities computed here, most importantly the *5' unclipped
end* used by MarkDuplicates (paper section 3.2).
"""

from __future__ import annotations

import re
from itertools import takewhile
from typing import Dict, Iterator, List, Tuple

from repro.errors import CigarError

#: CIGAR operations that consume bases of the read sequence.
CONSUMES_QUERY = frozenset("MIS=X")
#: CIGAR operations that consume positions on the reference.
CONSUMES_REFERENCE = frozenset("MDN=X")
#: Every operation code accepted by the SAM specification.
VALID_OPS = frozenset("MIDNSHP=X")
#: Clipping operations (soft keeps bases in SEQ, hard does not).
CLIP_OPS = frozenset("SH")

_CIGAR_TOKEN = re.compile(r"(\d+)([MIDNSHP=X])")

#: ``Cigar.parse`` interns by text: a ``Cigar`` is immutable, so equal
#: texts may share one object.  The simulated samples this repo runs
#: hold 16-31 distinct CIGARs (EXPERIMENTS.md, PR 15); nothing here has
#: been measured on indel- or clip-rich real reads.  The cap only bounds
#: memory (under 2 MB when full): past it, novel texts parse without
#: being stored and pay the miss (threads racing on the last slots may
#: overshoot by one each).
_INTERN_CAP = 4096
_interned: Dict[str, "Cigar"] = {}


class Cigar:
    """An immutable, validated CIGAR.

    Parameters
    ----------
    ops:
        Sequence of ``(length, op)`` tuples, e.g. ``[(5, 'S'), (95, 'M')]``.

    Raises
    ------
    CigarError
        If any operation code is invalid or any length is non-positive.
    """

    __slots__ = ("_ops", "text")

    def __init__(self, ops: List[Tuple[int, str]]):
        self._ops: Tuple[Tuple[int, str], ...] = tuple(ops)
        for length, op in self._ops:
            if op not in VALID_OPS:
                raise CigarError(f"invalid CIGAR op {op!r}")
            if length <= 0:
                raise CigarError(f"non-positive CIGAR length {length} for op {op!r}")
        #: The SAM text (``'*'`` when empty), fixed at construction.
        self.text: str = (
            "".join(f"{length}{op}" for length, op in self._ops) or "*"
        )

    @classmethod
    def parse(cls, text: str) -> "Cigar":
        """Parse the SAM textual representation (``'*'`` means empty).

        Equal texts return the same interned object while the cache has
        room; a text that fails validation is never stored.
        """
        cigar = _interned.get(text)
        if cigar is None:
            cigar = cls(cls._parse_ops(text))
            if len(_interned) < _INTERN_CAP:
                _interned[text] = cigar
        return cigar

    @staticmethod
    def _parse_ops(text: str) -> List[Tuple[int, str]]:
        if text == "*" or text == "":
            return []
        ops = []
        consumed = 0
        for match in _CIGAR_TOKEN.finditer(text):
            ops.append((int(match.group(1)), match.group(2)))
            consumed += len(match.group(0))
        if consumed != len(text):
            raise CigarError(f"malformed CIGAR string {text!r}")
        return ops

    def __reduce__(self):
        return Cigar.parse, (self.text,)

    @property
    def ops(self) -> Tuple[Tuple[int, str], ...]:
        return self._ops

    def __iter__(self) -> Iterator[Tuple[int, str]]:
        return iter(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cigar) and self._ops == other._ops

    def __hash__(self) -> int:
        return hash(self._ops)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Cigar({str(self)!r})"

    def query_length(self) -> int:
        """Number of read bases covered (must equal ``len(SEQ)``)."""
        return sum(length for length, op in self._ops if op in CONSUMES_QUERY)

    def reference_length(self) -> int:
        """Number of reference positions spanned by the alignment."""
        return sum(length for length, op in self._ops if op in CONSUMES_REFERENCE)

    def leading_clip(self) -> int:
        """Total soft+hard clipped bases before the first aligned base."""
        clipped = 0
        for length, op in self._ops:
            if op in CLIP_OPS:
                clipped += length
            else:
                break
        return clipped

    def trailing_clip(self) -> int:
        """Total soft+hard clipped bases after the last aligned base."""
        clipped = 0
        for length, op in reversed(self._ops):
            if op in CLIP_OPS:
                clipped += length
            else:
                break
        return clipped

    def leading_soft_clip(self) -> int:
        """Soft-clipped bases at the start (present in SEQ)."""
        clipped = takewhile(lambda item: item[1] in CLIP_OPS, self._ops)
        return sum(length for length, op in clipped if op == "S")

    def is_fully_clipped(self) -> bool:
        """True when no operation consumes the reference (unaligned)."""
        return self.reference_length() == 0

    def validate_against_sequence(self, seq: str) -> None:
        """Raise :class:`CigarError` unless query_length matches ``seq``.

        Records with ``SEQ == '*'`` (sequence omitted) are exempt, as in
        the SAM specification.
        """
        if seq == "*" or not self._ops:
            return
        if self.query_length() != len(seq):
            raise CigarError(
                f"CIGAR {self} covers {self.query_length()} bases but "
                f"SEQ has {len(seq)}"
            )


def unclipped_start(pos: int, cigar: Cigar) -> int:
    """5' unclipped start for a forward-strand read.

    ``pos`` is the leftmost mapping position (POS).  Clipped leading
    bases are projected back onto the reference, recovering the position
    the read would have started at had the aligner not clipped it.  This
    is the derived attribute MarkDuplicates keys on (Fig. 3 of the paper).
    """
    return pos - cigar.leading_clip()


def unclipped_end(pos: int, cigar: Cigar) -> int:
    """5' unclipped end for a reverse-strand read.

    For reverse-strand reads the biological 5' end is the *rightmost*
    reference position, extended by any trailing clipping.
    """
    return pos + cigar.reference_length() - 1 + cigar.trailing_clip()


def unclipped_five_prime(pos: int, cigar: Cigar, reverse: bool) -> int:
    """The 5' unclipped end for either strand (paper Fig. 3, red row)."""
    if reverse:
        return unclipped_end(pos, cigar)
    return unclipped_start(pos, cigar)


def reference_end(pos: int, cigar: Cigar) -> int:
    """Inclusive rightmost reference position covered by the alignment."""
    span = cigar.reference_length()
    if span == 0:
        return pos
    return pos + span - 1
