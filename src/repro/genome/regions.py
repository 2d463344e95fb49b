"""Genomic interval algebra.

Range partitioning (GDPT section 3.2) and the error-diagnosis study
(Fig 11: centromeres, ENCODE blacklisted regions) both work in terms of
half-open intervals over named contigs; this module is their shared
foundation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.errors import ReproError


class GenomicInterval:
    """A half-open interval ``[start, end)`` on one contig (1-based start)."""

    __slots__ = ("contig", "start", "end", "label")

    def __init__(self, contig: str, start: int, end: int, label: str = ""):
        if end < start:
            raise ReproError(f"interval end {end} precedes start {start}")
        self.contig = contig
        self.start = start
        self.end = end
        self.label = label

    @property
    def length(self) -> int:
        return self.end - self.start

    def contains(self, contig: str, pos: int) -> bool:
        return contig == self.contig and self.start <= pos < self.end

    def overlaps(self, other: "GenomicInterval") -> bool:
        return (
            self.contig == other.contig
            and self.start < other.end
            and other.start < self.end
        )

    def expanded(self, margin: int) -> "GenomicInterval":
        """Interval grown by ``margin`` on both sides (floored at 1)."""
        return GenomicInterval(
            self.contig, max(1, self.start - margin), self.end + margin, self.label
        )

    def as_tuple(self) -> Tuple[str, int, int]:
        return (self.contig, self.start, self.end)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenomicInterval):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return f"GenomicInterval({self.contig}:{self.start}-{self.end}{tag})"


class RegionSet:
    """A queryable set of labelled intervals (e.g. the ENCODE blacklist)."""

    def __init__(self, intervals: Iterable[GenomicInterval] = ()):
        self._by_contig: dict = {}
        for interval in intervals:
            self.add(interval)

    def add(self, interval: GenomicInterval) -> None:
        self._by_contig.setdefault(interval.contig, []).append(interval)
        self._by_contig[interval.contig].sort(key=lambda iv: iv.start)

    def contains(self, contig: str, pos: int) -> bool:
        for interval in self._by_contig.get(contig, ()):
            if interval.start <= pos < interval.end:
                return True
            if interval.start > pos:
                break
        return False

    def overlapping(self, query: GenomicInterval) -> List[GenomicInterval]:
        hits = []
        for interval in self._by_contig.get(query.contig, ()):
            if interval.overlaps(query):
                hits.append(interval)
            elif interval.start >= query.end:
                break
        return hits

    def intervals(self) -> Iterator[GenomicInterval]:
        for contig in sorted(self._by_contig):
            yield from self._by_contig[contig]

    def total_length(self) -> int:
        return sum(iv.length for iv in self.intervals())

    def __len__(self) -> int:
        return sum(len(ivs) for ivs in self._by_contig.values())


def tile_contig(
    contig: str, length: int, segment_length: int, overlap: int = 0
) -> List[GenomicInterval]:
    """Divide a contig into segments, optionally overlapping.

    This is the geometric core of range partitioning: non-overlapping in
    the simple case (Unified Genotyper by chromosome), overlapping when
    the analysis walks across segment boundaries (Haplotype Caller).
    """
    if segment_length <= 0:
        raise ReproError("segment_length must be positive")
    if overlap < 0 or overlap >= segment_length:
        raise ReproError("overlap must be in [0, segment_length)")
    segments = []
    start = 1
    while start <= length:
        end = min(start + segment_length, length + 1)
        seg_start = max(1, start - overlap)
        seg_end = min(end + overlap, length + 1)
        segments.append(GenomicInterval(contig, seg_start, seg_end))
        start = end
    return segments
