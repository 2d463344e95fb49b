"""Samtools Index (pipeline step 2, Table 2).

Creates the compressed BAM file and its index.  In Gesall's world the
same operation happens per logical partition at the end of Round 4, so
Haplotype Caller can seek straight to its range.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.cleaning.sort import coordinate_key
from repro.errors import PipelineError
from repro.formats.bam import BamLinearIndex, bam_bytes
from repro.formats.sam import SamHeader, SamRecord


class SamtoolsIndex:
    """Build the binary BAM plus its linear index from sorted records."""

    name = "SamtoolsIndex"

    def __init__(self, chunk_bytes: int = 64 * 1024,
                 require_sorted: bool = True):
        self.chunk_bytes = chunk_bytes
        self.require_sorted = require_sorted

    def build(
        self, header: SamHeader, records: Iterable[SamRecord]
    ) -> Tuple[bytes, BamLinearIndex]:
        """Serialize + index; raises unless input is coordinate-sorted."""
        records = list(records)
        if self.require_sorted:
            self._check_sorted(header, records)
        data = bam_bytes(header, records, self.chunk_bytes)
        return data, BamLinearIndex.build(data)

    @staticmethod
    def _check_sorted(header: SamHeader, records: List[SamRecord]) -> None:
        key = coordinate_key(header)
        placed = [r for r in records
                  if not (r.flags.is_unmapped and r.rname == "*")]
        for before, record in zip(placed, placed[1:]):
            if key(record)[:2] < key(before)[:2]:
                raise PipelineError(
                    "SamtoolsIndex requires coordinate-sorted input "
                    f"(violated at {record.rname}:{record.pos})"
                )
