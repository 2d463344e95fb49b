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
from repro.formats.flags import REVERSE, UNMAPPED
from repro.formats.sam import SamHeader, SamRecord

SortKey = Callable[[SamRecord], Tuple]


def _coordinate_rule(header: SamHeader) -> Callable[[str, int, int, str], Tuple]:
    """The one coordinate order: (RNAME, POS, FLAG, QNAME) -> (contig
    index as round 4 partitions, position, strand, name); unplaced reads
    and unknown contigs sort last, as in samtools/Picard."""
    from repro.gdpt.partitioner import RangePartitioner  # gdpt imports us

    ranger = RangePartitioner(header)
    contig_index, unplaced = ranger.contig_index, ranger.num_partitions

    def key(rname: str, pos: int, flag: int, qname: str) -> Tuple:
        if flag & UNMAPPED and rname == "*":
            return (unplaced, 0, 0, qname)
        index = contig_index(rname)
        return (unplaced if index is None else index, pos,
                1 if flag & REVERSE else 0, qname)

    return key


def coordinate_key(header: SamHeader) -> SortKey:
    """Sort key: (contig index, position, strand, name)."""
    rule = _coordinate_rule(header)
    return lambda r: rule(r.rname, r.pos, r.flags.value, r.qname)


def coordinate_line_key(header: SamHeader) -> Callable[[str], Tuple]:
    """:func:`coordinate_key` of a SAM line's record, read from its
    first four fields without building the record."""
    rule = _coordinate_rule(header)

    def key(line: str) -> Tuple:
        qname, flag, rname, pos, _ = line.split("\t", 4)
        return rule(rname, int(pos), int(flag), qname)

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
