"""SAM records and headers.

The text-based SAM format stores one record per alignment of a read
(paper section 3.1).  Records here are mutable because the cleaning
stages (CleanSam, FixMateInformation, MarkDuplicates, recalibration)
update fields in place, exactly as PicardTools does.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import FormatError
from repro.formats import flags as F
from repro.formats.cigar import Cigar, reference_end, unclipped_five_prime

#: Phred+33 offset used to encode base qualities as printable text.
QUAL_OFFSET = 33

#: Mapping quality for reads whose position could not be determined.
MAPQ_UNAVAILABLE = 255

#: POS value for unmapped reads in our 1-based convention.
UNMAPPED_POS = 0


# 256-entry ``bytes.translate`` tables: score -> QUAL byte (clamped at
# 93, the last printable one) and QUAL byte -> score.
_ENCODE_TABLE = bytes(min(q, 93) + QUAL_OFFSET for q in range(256))
_DECODE_TABLE = bytes(max(b - QUAL_OFFSET, 0) for b in range(256))


def encode_quals(quals: Iterable[int]) -> str:
    """Encode integer Phred scores to the SAM QUAL string.

    Scores above 93 clamp to it; a negative score is a FormatError.
    """
    scores = list(quals)
    try:
        raw = bytes(scores)
    except ValueError:  # bytes() takes 0..255 only: negative, or huge?
        if min(scores) < 0:
            raise FormatError(
                f"negative base quality {min(scores)} cannot be encoded"
            ) from None
        raw = bytes(min(q, 93) for q in scores)
    return raw.translate(_ENCODE_TABLE).decode("ascii")


#: The bytes below '!': ``_qual_bytes`` deletes them to find one.
_BELOW_OFFSET = bytes(range(QUAL_OFFSET))


def _qual_bytes(text: str) -> bytes:
    """The validated ASCII bytes of a QUAL string (``"*"`` holds none)."""
    if text == "*":
        return b""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError(f"QUAL text is not ASCII: {text!r}") from None
    if len(raw.translate(None, _BELOW_OFFSET)) != len(raw):
        raise FormatError(f"QUAL text has a character below '!': {text!r}")
    return raw


def decode_quals(text: str) -> List[int]:
    """Decode a SAM QUAL string into integer Phred scores."""
    return list(_qual_bytes(text).translate(_DECODE_TABLE))


def _score_table(minimum: int) -> bytes:
    """QUAL byte -> its score, or 0 where the score is below ``minimum``."""
    floor = QUAL_OFFSET + max(minimum, 0)
    return bytes(b - QUAL_OFFSET if b >= floor else 0 for b in range(256))


#: Picard's duplicate-score threshold, the only one the pipeline uses.
_DEFAULT_SCORE_TABLE = _score_table(15)


#: The integer SAM fields ``from_line`` converts: (name, column).
_INTEGER_FIELDS = (
    ("FLAG", 1), ("POS", 3), ("MAPQ", 4), ("PNEXT", 7), ("TLEN", 8),
)


class SamRecord:
    """One alignment record (one mapping of one read).

    Field names follow the SAM specification / the paper's Fig. 3:
    QNAME, FLAG, RNAME, POS, MAPQ, CIGAR, RNEXT, PNEXT, TLEN, SEQ, QUAL
    plus optional string tags.
    """

    __slots__ = (
        "qname", "flags", "rname", "pos", "mapq", "cigar",
        "rnext", "pnext", "tlen", "seq", "qual", "tags",
    )

    def __init__(
        self,
        qname: str,
        flags: F.SamFlags,
        rname: str,
        pos: int,
        mapq: int,
        cigar: Cigar,
        rnext: str = "*",
        pnext: int = 0,
        tlen: int = 0,
        seq: str = "*",
        qual: str = "*",
        tags: Optional[Dict[str, str]] = None,
    ):
        self.qname = qname
        self.flags = flags
        self.rname = rname
        self.pos = pos
        self.mapq = mapq
        self.cigar = cigar
        self.rnext = rnext
        self.pnext = pnext
        self.tlen = tlen
        self.seq = seq
        self.qual = qual
        self.tags = dict(tags) if tags else {}

    # -- derived attributes (paper Fig. 3, red rows) ----------------------
    @property
    def is_mapped(self) -> bool:
        return not self.flags.is_unmapped

    @property
    def reference_end(self) -> int:
        """Inclusive rightmost reference position of the alignment."""
        return reference_end(self.pos, self.cigar)

    @property
    def unclipped_five_prime(self) -> int:
        """5' unclipped end — the MarkDuplicates key attribute."""
        return unclipped_five_prime(self.pos, self.cigar, self.flags.is_reverse)

    @property
    def read_length(self) -> int:
        return 0 if self.seq == "*" else len(self.seq)

    def base_qualities(self) -> List[int]:
        return decode_quals(self.qual)

    def qual_bytes(self) -> bytes:
        """The scores of :meth:`base_qualities`, one per byte, no list built."""
        return _qual_bytes(self.qual).translate(_DECODE_TABLE)

    def set_base_qualities(self, quals: Iterable[int]) -> None:
        self.qual = encode_quals(quals)

    def sum_of_base_qualities(self, minimum: int = 15) -> int:
        """Picard-style duplicate score: sum of qualities >= ``minimum``."""
        table = _DEFAULT_SCORE_TABLE if minimum == 15 else _score_table(minimum)
        return sum(_qual_bytes(self.qual).translate(table))

    # -- flag mutation helpers --------------------------------------------
    def set_duplicate(self, on: bool = True) -> None:
        self.flags = self.flags.with_bit(F.DUPLICATE, on)

    # -- (de)serialization -------------------------------------------------
    def to_line(self) -> str:
        """Serialize to one SAM text line (no trailing newline)."""
        return join_fields([
            self.qname, self.flags.value, self.rname, self.pos, self.mapq,
            self.cigar, self.rnext, self.pnext, self.tlen, self.seq,
            self.qual, self.tags,
        ])

    def line_bytes(self) -> int:
        """``len(self.to_line()) + 1`` — the line plus its newline —
        summed from the fields without rendering the line."""
        size = len(self.seq) + len(self.qual) + 11 + len(
            f"{self.qname}{self.flags.value}{self.rname}{self.pos}{self.mapq}"
            f"{self.cigar.text}{self.rnext}{self.pnext}{self.tlen}"
        )
        for key, value in self.tags.items():
            size += len(key) + len(value) + 4
        return size

    @classmethod
    def from_line(cls, line: str) -> "SamRecord":
        """Parse one SAM text line."""
        return _record_from_fields(*split_line(line))

    def __reduce__(self):
        # The flat wire form: eleven SAM fields as primitives + the tag
        # dict, rebuilt by the same constructor ``from_line`` uses.
        return _record_from_fields, (
            self.qname, self.flags.value, self.rname, self.pos, self.mapq,
            self.cigar.text, self.rnext, self.pnext, self.tlen,
            self.seq, self.qual, self.tags,
        )

    def copy(self) -> "SamRecord":
        # The immutable Cigar is shared; flags and tags are the copy's own.
        return _record_from_fields(
            self.qname, self.flags.value, self.rname, self.pos, self.mapq,
            self.cigar, self.rnext, self.pnext, self.tlen,
            self.seq, self.qual, dict(self.tags),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SamRecord):
            return NotImplemented
        return self.to_line() == other.to_line()

    def __hash__(self) -> int:
        return hash(self.to_line())

    def __repr__(self) -> str:
        return (
            f"SamRecord({self.qname!r}, flag=0x{int(self.flags):x}, "
            f"{self.rname}:{self.pos}, mapq={self.mapq}, cigar={self.cigar})"
        )


def split_line(line: str) -> list:
    """A SAM line's eleven fields as a record holds them (FLAG masked,
    integers as ``int``, the interned ``Cigar``) plus its tag dict, with
    ``from_line``'s checks and errors; no record is built."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 11:
        raise FormatError(f"SAM line has {len(fields)} fields, expected >= 11")
    tags: Dict[str, str] = {}
    for raw in fields[11:]:
        parts = raw.split(":", 2)
        if len(parts) != 3:
            raise FormatError(f"malformed SAM tag {raw!r}")
        tags[parts[0]] = parts[2]
    del fields[11:]
    try:
        for name, index in _INTEGER_FIELDS:
            fields[index] = int(fields[index])
    except ValueError:
        raise FormatError(
            f"SAM {name} is not an integer: {fields[index]!r}"
        ) from None
    fields[1] &= F._ALL
    fields[5] = Cigar.parse(fields[5])
    fields.append(tags)
    return fields


def join_fields(f: list) -> str:
    """:func:`split_line` fields as one SAM line (``to_line``'s renderer)."""
    line = (f"{f[0]}\t{f[1]}\t{f[2]}\t{f[3]}\t{f[4]}\t{f[5].text}\t{f[6]}\t"
            f"{f[7]}\t{f[8]}\t{f[9]}\t{f[10]}")
    tags = f[11]
    if tags:
        line += "".join(f"\t{key}:Z:{tags[key]}" for key in sorted(tags))
    return line


def _record_from_fields(
    qname: str, flag: int, rname: str, pos: int, mapq: int,
    cigar: Union[str, Cigar], rnext: str, pnext: int, tlen: int,
    seq: str, qual: str, tags: Dict[str, str],
) -> SamRecord:
    """Build a record from its eleven SAM fields (FLAG as ``int``, CIGAR
    as text, or an already-built ``Cigar`` to share) and a tag dict the
    record takes ownership of.

    The one body behind ``from_line`` (over :func:`split_line`),
    ``copy`` and unpickling.
    """
    record = SamRecord.__new__(SamRecord)
    record.qname = qname
    record.flags = F.SamFlags(flag)
    record.rname = rname
    record.pos = pos
    record.mapq = mapq
    record.cigar = Cigar.parse(cigar) if isinstance(cigar, str) else cigar
    record.rnext = rnext
    record.pnext = pnext
    record.tlen = tlen
    record.seq = seq
    record.qual = qual
    record.tags = tags
    return record


class SamHeader:
    """SAM header: @HD, @SQ (reference sequences), @RG, @PG lines.

    The header travels with every BAM chunk set because wrapped programs
    need it to interpret local partitions as complete files (section 3.1).
    """

    def __init__(
        self,
        sequences: Optional[List[Tuple[str, int]]] = None,
        read_groups: Optional[List[Dict[str, str]]] = None,
        programs: Optional[List[Dict[str, str]]] = None,
        sort_order: str = "unsorted",
    ):
        self.sequences: List[Tuple[str, int]] = list(sequences or [])
        self.read_groups: List[Dict[str, str]] = [dict(g) for g in (read_groups or [])]
        self.programs: List[Dict[str, str]] = [dict(p) for p in (programs or [])]
        self.sort_order = sort_order

    def sequence_names(self) -> List[str]:
        return [name for name, _ in self.sequences]

    def sequence_length(self, name: str) -> int:
        for seq_name, length in self.sequences:
            if seq_name == name:
                return length
        raise FormatError(f"unknown reference sequence {name!r}")

    def add_program(self, **fields: str) -> None:
        if "ID" not in fields:
            raise FormatError("program record requires an ID field")
        self.programs.append(dict(fields))

    def to_text(self) -> str:
        lines = [f"@HD\tVN:1.6\tSO:{self.sort_order}"]
        for name, length in self.sequences:
            lines.append(f"@SQ\tSN:{name}\tLN:{length}")
        for group in self.read_groups:
            parts = ["@RG"] + [f"{k}:{v}" for k, v in sorted(group.items())]
            lines.append("\t".join(parts))
        for program in self.programs:
            parts = ["@PG"] + [f"{k}:{v}" for k, v in sorted(program.items())]
            lines.append("\t".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SamHeader":
        header = cls()
        for line in text.splitlines():
            if not line.startswith("@"):
                continue
            fields = line.split("\t")
            tag = fields[0]
            attrs = {}
            for raw in fields[1:]:
                key, _, value = raw.partition(":")
                attrs[key] = value
            if tag == "@HD":
                header.sort_order = attrs.get("SO", "unsorted")
            elif tag == "@SQ":
                header.sequences.append((attrs["SN"], int(attrs["LN"])))
            elif tag == "@RG":
                header.read_groups.append(attrs)
            elif tag == "@PG":
                header.programs.append(attrs)
        return header

    def copy(self) -> "SamHeader":
        return SamHeader(
            sequences=list(self.sequences),
            read_groups=[dict(g) for g in self.read_groups],
            programs=[dict(p) for p in self.programs],
            sort_order=self.sort_order,
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SamHeader) and self.to_text() == other.to_text()

    def __repr__(self) -> str:
        return (
            f"SamHeader({len(self.sequences)} sequences, "
            f"{len(self.read_groups)} read groups, SO={self.sort_order})"
        )
