"""CleanSam (pipeline step 4, Table 2).

Fixes CIGAR and mapping-quality fields and removes records whose
alignment runs off the end of a reference sequence ("reads that overlap
two chromosomes" in the paper's phrasing — in a concatenated-reference
world an overhanging alignment would spill into the next contig).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.formats.cigar import Cigar, reference_end
from repro.formats.flags import UNMAPPED
from repro.formats.sam import MAPQ_UNAVAILABLE, SamHeader, SamRecord
from repro.formats.sam import join_fields, split_line


class CleanSamStats:
    """Counters reported by one CleanSam run."""

    def __init__(self):
        self.records_in = 0
        self.records_out = 0
        self.dropped_overhanging = 0
        self.fixed_unmapped_mapq = 0
        self.cleared_unmapped_cigar = 0


class CleanSam:
    """Picard CleanSam equivalent."""

    name = "CleanSam"

    def __init__(self):
        self.stats = CleanSamStats()

    def run(
        self, header: SamHeader, records: Iterable[SamRecord]
    ) -> Tuple[SamHeader, List[SamRecord]]:
        stats = CleanSamStats()
        known = set(header.sequence_names())
        out: List[SamRecord] = []
        for record in records:
            stats.records_in += 1
            updated = record.copy()
            if updated.flags.is_unmapped:
                # Unmapped reads must carry no alignment information.
                if updated.mapq != 0:
                    updated.mapq = 0
                    stats.fixed_unmapped_mapq += 1
                if len(updated.cigar) > 0:
                    updated.cigar = Cigar([])
                    stats.cleared_unmapped_cigar += 1
                out.append(updated)
                stats.records_out += 1
                continue
            if updated.rname not in known:
                stats.dropped_overhanging += 1
                continue
            contig_len = header.sequence_length(updated.rname)
            if updated.reference_end > contig_len or updated.pos < 1:
                # Alignment hangs over the contig boundary: drop it, as
                # Picard drops reads aligned over two chromosomes.
                stats.dropped_overhanging += 1
                continue
            if updated.mapq == MAPQ_UNAVAILABLE:
                updated.mapq = 0
            out.append(updated)
            stats.records_out += 1
        self.stats = stats
        return header.copy(), out


def clean_lines(header: SamHeader, lines: Iterable[str],
                read_group: str) -> Tuple[List[str], int]:
    """AddOrReplaceReadGroups (``RG:Z:read_group``) then CleanSam over
    split SAM lines: the lines they output and the first one's SAM-text
    size."""
    lengths = dict(reversed(header.sequences))  # sequence_length's: first wins
    out, staged = [], 0
    for line in lines:
        fields = split_line(line)
        fields[11]["RG"] = read_group
        text = join_fields(fields)
        staged += len(text) + 1
        _, flag, rname, pos, mapq, cigar = fields[:6]
        if flag & UNMAPPED:  # no alignment information on unmapped reads
            if mapq or len(cigar):
                fields[4], fields[5] = 0, Cigar([])
                text = join_fields(fields)
        elif (rname not in lengths or pos < 1
              or reference_end(pos, cigar) > lengths[rname]):
            continue  # hangs over its contig's end: dropped
        elif mapq == MAPQ_UNAVAILABLE:
            fields[4] = 0
            text = join_fields(fields)
        out.append(text)
    return out, staged
