"""HaplotypeCallerLite: greedy sequential segmentation + local calling.

Mirrors the access pattern the paper singles out (section 3.2, "Range
Partitioning"): the caller walks every position of the genome,
(1) computes a statistical *activity* measure over the reads that
overlap the position, (2) greedily extends the current segment (the
*active window*) based on the recent trend of that measure subject to
minimum/maximum window-length constraints, and (3) detects mutations
inside each window.

Because windows are defined greedily and sequentially, naive position
partitioning changes window boundaries; :func:`required_overlap` gives
the overlap margin that makes an overlapping range partition safe.

A second nondeterminism source is modelled after GATK's depth
downsampling: when a window's depth exceeds the cap, reads are dropped
at random from an invocation-seeded RNG — so per-chromosome parallel
invocations can differ slightly from one serial whole-genome run even
with safe boundaries, exactly the paper's observation that "even
chromosome-level partitioning gives slightly different results".
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.formats.sam import SamRecord
from repro.formats.vcf import VariantRecord
from repro.genome.reference import ReferenceGenome
from repro.genome.regions import GenomicInterval
from repro.variants.genotyper import GenotyperConfig, call_column
from repro.variants.pileup import (
    PileupColumn,
    build_pileup,
    pileup_activity,
    record_passes,
)


class HaplotypeCallerConfig:
    """Segmentation and downsampling parameters."""

    def __init__(
        self,
        activity_threshold: float = 0.12,
        extension_threshold: float = 0.05,
        trend_window: int = 10,
        min_window: int = 12,
        max_window: int = 240,
        downsample_depth: int = 80,
        seed: int = 11,
        genotyper: Optional[GenotyperConfig] = None,
    ):
        self.activity_threshold = activity_threshold
        self.extension_threshold = extension_threshold
        self.trend_window = trend_window
        self.min_window = min_window
        self.max_window = max_window
        self.downsample_depth = downsample_depth
        self.seed = seed
        self.genotyper = genotyper or GenotyperConfig()


def activity_score(column: PileupColumn, ref_base: str) -> float:
    """Fraction of evidence at a column that disagrees with the reference."""
    if column.depth == 0:
        return 0.0
    disagreeing = 0
    for entry in column.entries:
        if entry.base != ref_base or entry.indel is not None:
            disagreeing += 1
    return disagreeing / column.depth


def required_overlap(config: HaplotypeCallerConfig, margin: int = 10) -> int:
    """Overlap needed so a window never depends on unseen positions.

    A window can extend at most ``max_window`` positions past its start
    and the trend statistic looks back ``trend_window`` positions, so an
    overlap of ``max_window + trend_window + margin`` bounds the error
    probability of the overlapping partitioning scheme (the guarantee
    sketched in section 3.2).
    """
    return config.max_window + config.trend_window + margin


class HaplotypeCallerLite:
    """Active-window small-variant caller."""

    name = "HaplotypeCaller"

    def __init__(self, reference: ReferenceGenome,
                 config: Optional[HaplotypeCallerConfig] = None):
        self.reference = reference
        self.config = config or HaplotypeCallerConfig()

    # -- public API --------------------------------------------------------
    def call(
        self,
        records: Iterable[SamRecord],
        interval: Optional[GenomicInterval] = None,
        emit_interval: Optional[GenomicInterval] = None,
    ) -> List[VariantRecord]:
        """Call variants, optionally restricted to ``interval``.

        ``emit_interval`` further restricts which calls are *reported*
        — the overlapping range partitioner analyses the padded
        interval but emits only the core, so windows near partition
        edges are computed from complete evidence.
        """
        records = self._downsample(list(records), interval)
        pileup_config = self.config.genotyper.pileup
        # Activity needs only per-position counters; entries are built
        # afterwards, and only for positions inside an active window.
        windows = self._segment(
            (contig, pos, disagreeing / depth)
            for contig, pos, depth, disagreeing in pileup_activity(
                records, self.reference, interval, pileup_config
            )
        )
        wanted: Dict[str, Set[int]] = {}
        for window in windows:
            wanted.setdefault(window.contig, set()).update(
                range(window.start, window.end)
            )
        calls: List[VariantRecord] = []
        columns_by_pos: Dict[Tuple[str, int], PileupColumn] = {
            (column.contig, column.pos): column
            for column in build_pileup(records, self.reference, interval,
                                       pileup_config, wanted)
        }
        for window in windows:
            for pos in range(window.start, window.end):
                column = columns_by_pos.get((window.contig, pos))
                if column is None:
                    continue
                for call in call_column(column, self.reference,
                                        self.config.genotyper):
                    if emit_interval is not None and not emit_interval.contains(
                        call.chrom, call.pos
                    ):
                        continue
                    calls.append(call)
        return calls

    # -- greedy sequential segmentation ---------------------------------------
    def active_windows(self, columns: List[PileupColumn]) -> List[GenomicInterval]:
        """Walk all positions and greedily define active windows."""
        return self._segment(
            (column.contig, column.pos, activity_score(
                column, self.reference.base_at(column.contig, column.pos)))
            for column in columns
        )

    def _segment(
        self, scored: Iterable[Tuple[str, int, float]]
    ) -> List[GenomicInterval]:
        """Segment ``(contig, pos, activity)`` triples in column order."""
        windows: List[GenomicInterval] = []
        config = self.config
        current_contig: Optional[str] = None
        window_start: Optional[int] = None
        last_pos: Optional[int] = None
        recent: List[float] = []

        def close(end_pos: int) -> None:
            nonlocal window_start
            if window_start is None:
                return
            length = end_pos - window_start + 1
            if length < config.min_window:
                end_pos = window_start + config.min_window - 1
            windows.append(
                GenomicInterval(current_contig, window_start, end_pos + 1)
            )
            window_start = None

        for contig, pos, score in scored:
            if contig != current_contig:
                if window_start is not None and last_pos is not None:
                    close(last_pos)
                current_contig = contig
                recent = []
            recent.append(score)
            if len(recent) > config.trend_window:
                recent.pop(0)

            if window_start is None:
                if score >= config.activity_threshold:
                    window_start = pos
            else:
                window_len = pos - window_start + 1
                gap = last_pos is not None and pos - last_pos > config.trend_window
                if window_len >= config.max_window or gap:
                    close(last_pos if gap else pos)
                    if score >= config.activity_threshold:
                        window_start = pos
                elif (
                    window_len >= config.min_window
                    # the recent trend, summed only where it is read
                    and sum(recent) / len(recent) < config.extension_threshold
                ):
                    close(pos)
            last_pos = pos
        if window_start is not None and last_pos is not None:
            close(last_pos)
        return windows

    # -- downsampling -------------------------------------------------------------
    def _downsample(
        self,
        records: List[SamRecord],
        interval: Optional[GenomicInterval],
    ) -> List[SamRecord]:
        """Cap coverage by randomly dropping reads (GATK-style).

        The RNG is seeded from this invocation's first usable record, so
        the behaviour is deterministic per dataset yet differs between
        one whole-genome run and per-partition runs.
        """
        config = self.config
        usable = [
            record
            for record in records
            if record_passes(record, config.genotyper.pileup)
            and (interval is None or record.rname == interval.contig)
        ]
        if not usable:
            return records
        approx_span = self._span(usable)
        if approx_span <= 0:
            return records
        mean_depth = sum(r.read_length for r in usable) / approx_span
        if mean_depth <= config.downsample_depth:
            return records
        keep_fraction = config.downsample_depth / mean_depth
        rng = random.Random(
            zlib.crc32(f"{config.seed}|{usable[0].qname}|{len(usable)}".encode())
        )
        kept = [
            record
            for record in records
            if not record_passes(record, config.genotyper.pileup)
            or rng.random() < keep_fraction
        ]
        return kept

    @staticmethod
    def _span(records: List[SamRecord]) -> int:
        spans: Dict[str, Tuple[int, int]] = {}
        for record in records:
            lo, hi = spans.get(record.rname, (record.pos, record.reference_end))
            spans[record.rname] = (
                min(lo, record.pos), max(hi, record.reference_end)
            )
        return sum(hi - lo + 1 for lo, hi in spans.values())
