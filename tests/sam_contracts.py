"""ValidateSamFile-lite: round output files against their declared contract.

An independent oracle in the spirit of the validation step paleomix
runs after every node: it imports nothing from ``repro``.  It parses a
round BAM from its bytes — the ``RBAM1`` magic, then frames of
``CHNK | u32 raw_len | u32 comp_len | zlib payload``, the first holding
the header text and every later one newline-joined SAM lines — and
checks the file against the contract its ``@HD SO:`` declares:

* ``queryname`` (round 2): every read name is one contiguous run, and
  the two reads of a pair agree on RNEXT / PNEXT / TLEN and the mate
  flags (SAM spec §1.4, as FixMateInformation sets them);
* ``coordinate`` (rounds 3 and 4): records ascend by (``@SQ`` order,
  POS), unmapped reads last;

and, given its ``.bai``, that every index entry names a chunk start in
the file and that chunk's first record.  :func:`duplicate_problems`
holds round 3's MarkDuplicates contract over a whole round's records:
exactly one non-duplicate per 5'-key set.  :func:`naive_recal_counts`
counts BaseRecalibrator's covariate tables with plain dicts.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import re
import struct
import zlib
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

MAGIC = b"RBAM1\n"
FRAME = struct.Struct("<4sII")
FRAME_MAGIC = b"CHNK"

PAIRED, UNMAPPED, MATE_UNMAPPED = 0x1, 0x4, 0x8
REVERSE, MATE_REVERSE, FIRST, SECOND = 0x10, 0x20, 0x40, 0x80
SECONDARY, DUPLICATE, SUPPLEMENTARY = 0x100, 0x400, 0x800

_CIGAR_OP = re.compile(r"(\d+)([MIDNSHP=X])")


class Record:
    """The eleven mandatory SAM fields of one line, plus its tags."""

    __slots__ = ("qname", "flag", "rname", "pos", "mapq", "cigar",
                 "rnext", "pnext", "tlen", "seq", "qual", "tags")

    def __init__(self, line: str):
        fields = line.split("\t")
        self.qname, self.rname, self.cigar = fields[0], fields[2], fields[5]
        self.flag, self.pos = int(fields[1]), int(fields[3])
        self.mapq, self.rnext = int(fields[4]), fields[6]
        self.pnext, self.tlen = int(fields[7]), int(fields[8])
        self.seq, self.qual = fields[9], fields[10]
        self.tags = dict(raw.split(":", 2)[::2] for raw in fields[11:])

    def has(self, bit: int) -> bool:
        return bool(self.flag & bit)

    @property
    def mapped(self) -> bool:
        return not self.flag & UNMAPPED

    @property
    def primary(self) -> bool:
        return not self.flag & (SECONDARY | SUPPLEMENTARY)

    def ops(self) -> List[Tuple[int, str]]:
        return [(int(n), op) for n, op in _CIGAR_OP.findall(self.cigar)]

    def end(self) -> int:
        """Inclusive rightmost reference base."""
        span = sum(n for n, op in self.ops() if op in "MDN=X")
        return self.pos + max(span, 1) - 1

    def five_prime(self) -> Tuple[str, int, bool]:
        """(contig, unclipped 5' end, reverse): the duplicate key."""
        if self.has(REVERSE):
            return (self.rname, self.end() + _clipped(reversed(self.ops())),
                    True)
        return (self.rname, self.pos - _clipped(self.ops()), False)


def _clipped(ops) -> int:
    """Soft- and hard-clipped bases before the first other operation."""
    total = 0
    for n, op in ops:
        if op not in "SH":
            break
        total += n
    return total


def frames(data: bytes) -> List[Tuple[int, bytes]]:
    """``(offset, payload)`` of every frame, header frame first."""
    if not data.startswith(MAGIC):
        raise ValueError("missing RBAM1 magic")
    out, offset = [], len(MAGIC)
    while offset < len(data):
        magic, raw_len, comp_len = FRAME.unpack_from(data, offset)
        if magic != FRAME_MAGIC:
            raise ValueError(f"bad frame magic at {offset}")
        body = data[offset + FRAME.size: offset + FRAME.size + comp_len]
        payload = zlib.decompress(body)
        if len(payload) != raw_len:
            raise ValueError(f"frame at {offset}: raw length mismatch")
        out.append((offset, payload))
        offset += FRAME.size + comp_len
    return out


def parse(data: bytes) -> Tuple[Dict[str, object], List[Record]]:
    """Header (``SO`` and the ``@SQ`` names in order) and records."""
    parsed = frames(data)
    header: Dict[str, object] = {"SO": None, "SQ": []}
    for line in parsed[0][1].decode().splitlines():
        fields = dict(f.split(":", 1) for f in line.split("\t")[1:])
        if line.startswith("@HD"):
            header["SO"] = fields.get("SO")
        elif line.startswith("@SQ"):
            header["SQ"].append(fields["SN"])
    records = [
        Record(line)
        for _, payload in parsed[1:] if payload
        for line in payload.decode().split("\n")
    ]
    return header, records


def file_problems(data: bytes, bai: Optional[bytes] = None) -> List[str]:
    """Every breach of the contract ``data``'s header declares."""
    header, records = parse(data)
    if header["SO"] == "queryname":
        problems = queryname_problems(records)
    elif header["SO"] == "coordinate":
        problems = coordinate_problems(header["SQ"], records)
    else:
        problems = [f"undeclared sort order {header['SO']!r}"]
    if bai is not None:
        problems += index_problems(data, bai)
    return problems


def queryname_problems(records: List[Record]) -> List[str]:
    problems: List[str] = []
    runs: Dict[str, List[Record]] = {}
    previous = None
    for record in records:
        if record.qname != previous and record.qname in runs:
            problems.append(f"{record.qname}: name not one contiguous run")
        runs.setdefault(record.qname, []).append(record)
        previous = record.qname
    for name, group in runs.items():
        paired = [r for r in group if r.primary and r.has(PAIRED)]
        if len(paired) != 2:
            problems.append(f"{name}: {len(paired)} primary paired reads")
            continue
        for read, mate in (paired, paired[::-1]):
            problems += [f"{name}: {p}" for p in _mate_problems(read, mate)]
        if sorted(r.flag & (FIRST | SECOND) for r in paired) != [FIRST, SECOND]:
            problems.append(f"{name}: not one first and one second read")
    return problems


def _mate_problems(read: Record, mate: Record) -> List[str]:
    problems = []
    if read.has(MATE_UNMAPPED) != (not mate.mapped):
        problems.append("mate-unmapped flag disagrees with the mate")
    if read.has(MATE_REVERSE) != mate.has(REVERSE):
        problems.append("mate-reverse flag disagrees with the mate")
    if mate.mapped:
        rnext = "=" if mate.rname == read.rname else mate.rname
        if (read.rnext, read.pnext) != (rnext, mate.pos):
            problems.append(
                f"RNEXT/PNEXT {read.rnext}:{read.pnext} != {rnext}:{mate.pos}"
            )
        if read.tags.get("MC") != mate.cigar:
            problems.append("MC tag is not the mate's CIGAR")
    if read.mapped and mate.mapped and read.rname == mate.rname:
        span = max(read.end(), mate.end()) - min(read.pos, mate.pos) + 1
        leftmost = read.pos < mate.pos or (
            read.pos == mate.pos and not read.has(REVERSE)
        )
        expected = span if leftmost else -span
    else:
        expected = 0
    if read.tlen != expected:
        problems.append(f"TLEN {read.tlen} != {expected}")
    return problems


def coordinate_problems(contigs: List[str], records: List[Record]) -> List[str]:
    order = {name: index for index, name in enumerate(contigs)}
    problems, last = [], None
    for record in records:
        if record.rname == "*":
            key = (len(order), 0)
        elif record.rname not in order:
            problems.append(f"{record.qname}: contig {record.rname} not in @SQ")
            continue
        else:
            key = (order[record.rname], record.pos)
        if last is not None and key < last:
            problems.append(f"{record.qname}: {key} sorts before {last}")
        last = key
    return problems


def index_problems(data: bytes, bai: bytes) -> List[str]:
    """Every ``.bai`` entry must be a data chunk's offset and name that
    chunk's first record; every data chunk must be indexed."""
    chunks = {}
    for offset, payload in frames(data)[1:]:
        if payload:
            first = Record(payload.decode().split("\n", 1)[0])
            chunks[offset] = (first.rname, first.pos)
    text = bai.decode()
    entries = [line.split("\t") for line in text.split("\n")] if text else []
    problems = []
    for rname, pos, offset in entries:
        if int(offset) not in chunks:
            problems.append(f"index offset {offset} is not a chunk start")
        elif chunks[int(offset)] != (rname, int(pos)):
            problems.append(
                f"index entry {rname}:{pos} @ {offset} names "
                f"{chunks[int(offset)]}, the chunk's first record"
            )
    if sorted(int(offset) for _, _, offset in entries) != sorted(chunks):
        problems.append(f"{len(entries)} index entries for {len(chunks)} chunks")
    return problems


def duplicate_problems(records: List[Record]) -> List[str]:
    """Exactly one non-duplicate per 5'-key set, over a round's records.

    Complete pairs (both ends mapped) sharing both 5' keys form a set
    in which one pair — both ends — is not a duplicate.  Mapped reads
    with an unmapped mate sharing one 5' key form a set with one
    non-duplicate, unless a complete pair has an end at that key: then
    the pair represents the position and every such read is a
    duplicate.
    """
    by_name: Dict[str, List[Record]] = defaultdict(list)
    for record in records:
        if record.primary and record.has(PAIRED):
            by_name[record.qname].append(record)
    pair_sets: Dict[tuple, List[Tuple[Record, Record]]] = defaultdict(list)
    fragment_sets: Dict[tuple, List[Record]] = defaultdict(list)
    problems: List[str] = []
    for name, ends in by_name.items():
        if len(ends) != 2:
            problems.append(f"{name}: {len(ends)} primary paired reads")
            continue
        mapped = [end for end in ends if end.mapped]
        if len(mapped) == 2:
            key = tuple(sorted(end.five_prime() for end in mapped))
            pair_sets[key].append((mapped[0], mapped[1]))
        elif len(mapped) == 1:
            fragment_sets[mapped[0].five_prime()].append(mapped[0])
    pair_ends = {end.five_prime() for pairs in pair_sets.values()
                 for pair in pairs for end in pair}
    for key, pairs in pair_sets.items():
        if any(a.has(DUPLICATE) != b.has(DUPLICATE) for a, b in pairs):
            problems.append(f"pair set {key}: ends of one pair disagree")
        kept = sum(not a.has(DUPLICATE) for a, _ in pairs)
        if kept != 1:
            problems.append(f"pair set {key}: {kept} non-duplicate pairs")
    for key, reads in fragment_sets.items():
        kept = sum(not read.has(DUPLICATE) for read in reads)
        expected = 0 if key in pair_ends else 1
        if kept != expected:
            problems.append(
                f"fragment set {key}: {kept} non-duplicates, want {expected}"
            )
    return problems


def naive_recal_counts(records: List[Record], contigs: Dict[str, str],
                       known_sites=frozenset()) -> Dict[str, Dict]:
    """BaseRecalibrator's three tables, ``key -> [observed, errors]``.

    Every aligned (M / = / X) base of a mapped, non-duplicate read that
    falls on its contig and off ``known_sites`` is one observation; it
    is an error when the read base differs from the reference base.
    Keys: read group; (read group, reported Q); and (read group,
    reported Q, "Cycle" | "Context", value) — cycle is the 1-based read
    offset, negated on the reverse strand; context is the base and the
    one before it, "NN" at the read's first base.
    """
    tables: Dict[str, Dict] = {"read_group": {}, "reported": {}, "extra": {}}

    def bump(table, key, error):
        counts = tables[table].setdefault(key, [0, 0])
        counts[0] += 1
        counts[1] += error

    for record in records:
        if not record.mapped or record.has(DUPLICATE):
            continue
        reference = contigs[record.rname]
        group = record.tags.get("RG", "unknown")
        read_at, ref_at = 0, record.pos
        for length, op in record.ops():
            if op in "M=X":
                for step in range(length):
                    offset, pos = read_at + step, ref_at + step
                    if not 1 <= pos <= len(reference) or \
                            (record.rname, pos) in known_sites:
                        continue
                    quality = max(ord(record.qual[offset]) - 33, 0)
                    cycle = -(offset + 1) if record.has(REVERSE) else offset + 1
                    context = record.seq[offset - 1: offset + 1] if offset else "NN"
                    error = int(record.seq[offset] != reference[pos - 1])
                    bump("read_group", group, error)
                    bump("reported", (group, quality), error)
                    bump("extra", (group, quality, "Cycle", cycle), error)
                    bump("extra", (group, quality, "Context", context), error)
            if op in "MIS=X":
                read_at += length
            if op in "MDN=X":
                ref_at += length
    return tables
