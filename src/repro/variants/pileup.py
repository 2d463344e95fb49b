"""Pileup engine: per-position stacks of aligned bases.

Both small-variant callers consume pileups; the Haplotype Caller
additionally derives its activity statistic from them.  Reads flagged
as duplicates are excluded — this is the channel through which
MarkDuplicates tie-breaking differences propagate into variant calls
(the paper's D_impact chain).
"""

from __future__ import annotations

from itertools import compress, groupby
from operator import ne
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import FormatError
from repro.formats.sam import SamRecord
from repro.genome.regions import GenomicInterval


class PileupEntry:
    """One read's contribution to one reference position."""

    __slots__ = ("record", "read_offset", "base", "quality", "mapq",
                 "reverse", "indel")

    def __init__(self, record: SamRecord, read_offset: int, base: str,
                 quality: int, mapq: int, reverse: bool,
                 indel: Optional[Tuple[str, str]] = None):
        self.record = record
        self.read_offset = read_offset
        self.base = base
        self.quality = quality
        self.mapq = mapq
        self.reverse = reverse
        #: ``(ref_allele, alt_allele)`` if an indel starts right after
        #: this base on this read, else ``None``.
        self.indel = indel


class PileupColumn:
    """All read evidence overlapping one reference position."""

    __slots__ = ("contig", "pos", "entries")

    def __init__(self, contig: str, pos: int, entries: List[PileupEntry]):
        self.contig = contig
        self.pos = pos
        self.entries = entries

    @property
    def depth(self) -> int:
        return len(self.entries)

    def base_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.entries:
            counts[entry.base] = counts.get(entry.base, 0) + 1
        return counts

    def indel_observations(self) -> Dict[Tuple[str, str], int]:
        counts: Dict[Tuple[str, str], int] = {}
        for entry in self.entries:
            if entry.indel is not None:
                counts[entry.indel] = counts.get(entry.indel, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"PileupColumn({self.contig}:{self.pos}, depth={self.depth})"


class PileupConfig:
    """Read filters applied before piling up."""

    def __init__(self, min_mapq: int = 13, min_base_quality: int = 6,
                 include_duplicates: bool = False):
        self.min_mapq = min_mapq
        self.min_base_quality = min_base_quality
        self.include_duplicates = include_duplicates


def record_passes(record: SamRecord, config: PileupConfig) -> bool:
    """The caller-level read filter (GATK-style)."""
    if record.flags.is_unmapped or not record.flags.is_primary:
        return False
    if record.flags.is_duplicate and not config.include_duplicates:
        return False
    if record.mapq < config.min_mapq:
        return False
    return True


def _indel_after(record: SamRecord, end_read: int, end_ref: int,
                 following: Optional[Tuple[int, str]],
                 reference) -> Optional[Tuple[str, str]]:
    """The I or D that starts right after a block's last base, if any."""
    if following is None:
        return None
    next_len, next_op = following
    if next_op == "I":
        inserted = record.seq[end_read + 1 : end_read + 1 + next_len]
        ref_base = reference.base_at(record.rname, end_ref)
        return (ref_base, ref_base + inserted)
    if next_op == "D" and end_ref + next_len <= reference.contig_length(record.rname):
        ref_allele = reference.fetch(record.rname, end_ref, end_ref + next_len + 1)
        return (ref_allele, ref_allele[0])
    return None


def _passing_blocks(records: Iterable[SamRecord],
                    interval: Optional[GenomicInterval],
                    config: PileupConfig) -> Iterator[tuple]:
    """Walk each passing read's CIGAR once, one item per M/=/X block.

    Yields ``(record, quals, read_start, ref_start, lo, hi, length,
    following)``: ``quals`` is the record's base qualities, one score
    per byte; block bases ``lo <= k < hi`` survive clipping to
    ``interval`` and to the qualities present; ``following`` is the
    ``(length, op)`` after the block, if any — an indel can only anchor
    at a block's last base (``k == length - 1``).  A block that reaches
    past the end of SEQ is a :class:`FormatError`.
    """
    for record in records:
        if not record_passes(record, config):
            continue
        if interval is not None and record.rname != interval.contig:
            continue
        quals = record.qual_bytes()
        seq_len = len(record.seq)
        ops = record.cigar.ops
        read_cursor = 0
        ref_cursor = record.pos
        for index, (length, op) in enumerate(ops):
            if op in "M=X":
                lo = 0
                hi = min(length, len(quals) - read_cursor)
                if interval is not None:
                    lo = max(lo, interval.start - ref_cursor)
                    hi = min(hi, interval.end - ref_cursor)
                if lo < hi:
                    if read_cursor + hi > seq_len:
                        raise FormatError(
                            f"{record.qname}: SEQ is shorter than its "
                            f"CIGAR and QUAL"
                        )
                    following = ops[index + 1] if index + 1 < len(ops) else None
                    yield (record, quals, read_cursor, ref_cursor, lo, hi,
                           length, following)
                read_cursor += length
                ref_cursor += length
            elif op in "IS":
                read_cursor += length
            elif op in "DN":
                ref_cursor += length


def build_pileup(
    records: Iterable[SamRecord],
    reference,
    interval: Optional[GenomicInterval] = None,
    config: Optional[PileupConfig] = None,
    wanted: Optional[Dict[str, Set[int]]] = None,
) -> Iterator[PileupColumn]:
    """Yield pileup columns in coordinate order.

    ``interval`` restricts the output columns (reads overlapping the
    interval still contribute from outside it); ``wanted`` further
    restricts them to the given positions per contig.
    """
    config = config or PileupConfig()
    min_quality = config.min_base_quality
    # contig (first-seen order) -> position -> entries in read order
    columns: Dict[str, Dict[int, List[PileupEntry]]] = {}
    for record, quals, read_start, ref_start, lo, hi, length, following in (
        _passing_blocks(records, interval, config)
    ):
        rname = record.rname
        keep = None if wanted is None else wanted.get(rname, frozenset())
        if keep is not None and keep.isdisjoint(
            range(ref_start + lo, ref_start + hi)
        ):
            continue
        seq = record.seq
        mapq = record.mapq
        reverse = record.flags.is_reverse
        contig_columns = columns.get(rname)
        for k in range(lo, hi):
            read_offset = read_start + k
            quality = quals[read_offset]
            if quality < min_quality:
                continue
            ref_pos = ref_start + k
            if keep is not None and ref_pos not in keep:
                continue
            indel = None
            if k == length - 1:
                indel = _indel_after(record, read_offset, ref_pos, following,
                                     reference)
            entry = PileupEntry(record, read_offset, seq[read_offset], quality,
                                mapq, reverse, indel)
            if contig_columns is None:
                contig_columns = columns[rname] = {}
            entries = contig_columns.get(ref_pos)
            if entries is None:
                contig_columns[ref_pos] = [entry]
            else:
                entries.append(entry)
    for contig, contig_columns in columns.items():
        for pos in sorted(contig_columns):
            yield PileupColumn(contig, pos, contig_columns[pos])


def _passing_runs(quals: bytes, start: int, stop: int,
                  floor: int) -> Iterator[Tuple[int, int]]:
    """Maximal runs ``[a, b)`` of ``quals[start:stop]`` at or above ``floor``."""
    block = quals[start:stop]
    if min(block) >= floor:
        yield start, stop
        return
    for passing, run in groupby(block, floor.__le__):
        stop = start + sum(1 for _ in run)
        if passing:
            yield start, stop
        start = stop


def pileup_activity(
    records: Iterable[SamRecord],
    reference,
    interval: Optional[GenomicInterval] = None,
    config: Optional[PileupConfig] = None,
) -> Iterator[Tuple[str, int, int, int]]:
    """Yield ``(contig, pos, depth, disagreeing)`` per pileup column.

    Same columns in the same order as :func:`build_pileup`, without
    building entries: ``disagreeing`` counts the entries whose base
    differs from the reference or that anchor an indel.  Depth changes
    only where a run of passing bases starts or ends, so a run costs
    two edge updates plus one visit per mismatching base.
    """
    config = config or PileupConfig()
    floor = config.min_base_quality
    # contig (first-seen order) -> ({pos: depth change}, {pos: disagreeing})
    counts: Dict[str, Tuple[Dict[int, int], Dict[int, int]]] = {}
    for record, quals, read_start, ref_start, lo, hi, length, following in (
        _passing_blocks(records, interval, config)
    ):
        rname = record.rname
        seq = record.seq
        ref_seq = reference.fetch(rname, ref_start + lo, ref_start + hi)
        block_start = read_start + lo  # the read offset of ``ref_seq[0]``
        shift = ref_start - read_start  # read offset -> reference position
        for a, b in _passing_runs(quals, block_start, read_start + hi, floor):
            if rname not in counts:
                counts[rname] = ({}, {})
            edges, disagreeing = counts[rname]
            edges[a + shift] = edges.get(a + shift, 0) + 1
            edges[b + shift] = edges.get(b + shift, 0) - 1
            read_run = seq[a:b]
            ref_run = ref_seq[a - block_start : b - block_start]
            if read_run != ref_run:
                for pos in compress(range(a + shift, b + shift),
                                    map(ne, read_run, ref_run)):
                    disagreeing[pos] = disagreeing.get(pos, 0) + 1
            # An indel anchors at the block's last base, and is asked
            # for only where that base did not already disagree.
            last = b - 1
            if (
                last == read_start + length - 1
                and read_run[-1] == ref_run[-1]
                and _indel_after(record, last, last + shift, following,
                                 reference) is not None
            ):
                disagreeing[last + shift] = disagreeing.get(last + shift, 0) + 1
    for contig, (edges, disagreeing) in counts.items():
        depth = 0
        run_start = None
        for edge in sorted(edges):
            if depth:
                for pos in range(run_start, edge):
                    yield contig, pos, depth, disagreeing.get(pos, 0)
            depth += edges[edge]
            run_start = edge
