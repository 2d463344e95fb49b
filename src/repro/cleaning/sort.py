"""SortSam: coordinate and queryname sorting.

Round 4 of the Gesall pipeline sorts each range partition before
Haplotype Caller; PicardTools' SortSam is the serial equivalent.  The
bounded-memory sort-spill-merge is the MapReduce engine's
``SpillBuffer``, whose disk behaviour the paper's multipass-merge
analysis (Appendix B.1) models.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Tuple

from repro.errors import PipelineError
from repro.formats.sam import SamHeader, SamRecord

SortKey = Callable[[SamRecord], Tuple]


def coordinate_key(header: SamHeader) -> SortKey:
    """Sort key: (contig index, position, strand, name).

    Unmapped reads sort to the end, as in samtools/Picard.
    """
    order = {name: i for i, name in enumerate(header.sequence_names())}

    def key(record: SamRecord) -> Tuple:
        if record.flags.is_unmapped and record.rname == "*":
            return (len(order), 0, 0, record.qname)
        return (
            order.get(record.rname, len(order)),
            record.pos,
            1 if record.flags.is_reverse else 0,
            record.qname,
        )

    return key


def queryname_key() -> SortKey:
    """Sort key: (read name, first/second in pair)."""

    def key(record: SamRecord) -> Tuple:
        return (record.qname, 1 if record.flags.is_second_in_pair else 0)

    return key


class SortSam:
    """In-memory sort, matching Picard SortSam semantics."""

    name = "SortSam"

    def __init__(self, order: str = "coordinate"):
        if order not in ("coordinate", "queryname"):
            raise PipelineError(f"unsupported sort order {order!r}")
        self.order = order

    def run(
        self, header: SamHeader, records: Iterable[SamRecord]
    ) -> Tuple[SamHeader, List[SamRecord]]:
        out_header = header.copy()
        out_header.sort_order = self.order
        key = (
            coordinate_key(header) if self.order == "coordinate" else queryname_key()
        )
        out = sorted((record.copy() for record in records), key=key)
        return out_header, out
