"""FixMateInformation (pipeline step 5, Table 2).

Shares alignment information between the two reads of a pair and makes
the mate fields consistent — needed because of alignment-software
limitations (paper section 2.1).  Requires input grouped by read name,
which is exactly why the Gesall wrapper runs it behind a group
partitioner on QNAME.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import PipelineError
from repro.formats import flags as F
from repro.formats.cigar import reference_end
from repro.formats.sam import SamHeader, SamRecord, split_line


class FixMateInformation:
    """Picard FixMateInformation equivalent."""

    name = "FixMateInfo"

    def run(
        self, header: SamHeader, records: Iterable[SamRecord]
    ) -> Tuple[SamHeader, List[SamRecord]]:
        out: List[SamRecord] = []
        pending: Dict[str, SamRecord] = {}
        for record in records:
            updated = record.copy()
            if not updated.flags.is_paired:
                out.append(updated)
                continue
            mate = pending.pop(updated.qname, None)
            if mate is None:
                pending[updated.qname] = updated
                continue
            first, second = (mate, updated)
            self._fix(first, second)
            self._fix(second, first)
            out.append(first)
            out.append(second)
        _check_all_mated(pending)
        return header.copy(), out

    @staticmethod
    def _fix(record: SamRecord, mate: SamRecord) -> None:
        """Copy mate information onto ``record``."""
        record.flags = record.flags.with_bit(F.MATE_UNMAPPED, mate.flags.is_unmapped)
        record.flags = record.flags.with_bit(F.MATE_REVERSE, mate.flags.is_reverse)
        if mate.flags.is_unmapped:
            record.rnext = "="
            record.pnext = record.pos
            record.tlen = 0
        else:
            record.rnext = "=" if mate.rname == record.rname else mate.rname
            record.pnext = mate.pos
            record.tlen = _template_length(record, mate)
            record.tags["MC"] = str(mate.cigar)
            record.tags["MQ"] = str(mate.mapq)


def _template_length(record: SamRecord, mate: SamRecord) -> int:
    """Signed TLEN per the SAM spec (leftmost record positive)."""
    if record.flags.is_unmapped or mate.flags.is_unmapped:
        return 0
    if record.rname != mate.rname:
        return 0
    left = min(record.pos, mate.pos)
    right = max(
        reference_end(record.pos, record.cigar),
        reference_end(mate.pos, mate.cigar),
    )
    span = right - left + 1
    if record.pos < mate.pos or (record.pos == mate.pos and not record.flags.is_reverse):
        return span
    return -span


def _check_all_mated(pending: Dict[str, object]) -> None:
    if pending:
        raise PipelineError(
            f"{len(pending)} paired reads missing their mate — input "
            "was not grouped by read name (logical partitioning violated)"
        )


def fix_mate_fields(lines: Iterable[str]) -> List[list]:
    """:class:`FixMateInformation` over split SAM lines (mates' FLAG
    bits, RNEXT, PNEXT, TLEN, MC and MQ rewritten): the fields, in order."""
    out: List[list] = []
    pending: Dict[str, list] = {}
    for line in lines:
        fields = split_line(line)
        if not fields[1] & F.PAIRED:
            out.append(fields)
            continue
        mate = pending.pop(fields[0], None)
        if mate is None:
            pending[fields[0]] = fields
            continue
        _fix_fields(mate, fields)
        _fix_fields(fields, mate)
        out += (mate, fields)
    _check_all_mated(pending)
    return out


def _fix_fields(end: list, mate: list) -> None:
    """``FixMateInformation._fix`` over split fields."""
    mate_flag = mate[1]
    # UNMAPPED / REVERSE, one bit up, are MATE_UNMAPPED / MATE_REVERSE.
    end[1] = (end[1] & ~(F.MATE_UNMAPPED | F.MATE_REVERSE)
              | (mate_flag & (F.UNMAPPED | F.REVERSE)) << 1)
    if mate_flag & F.UNMAPPED:
        end[6:9] = "=", end[3], 0
        return
    flag, rname, pos, _, cigar = end[1:6]
    end[6] = "=" if mate[2] == rname else mate[2]
    end[7] = mate[3]
    end[8] = 0  # _template_length: the leftmost end's is positive
    if not flag & F.UNMAPPED and rname == mate[2]:
        end[8] = max(reference_end(pos, cigar), reference_end(mate[3], mate[5])
                     ) - min(pos, mate[3]) + 1
        if pos > mate[3] or (pos == mate[3] and flag & F.REVERSE):
            end[8] = -end[8]
    end[11]["MC"] = mate[5].text
    end[11]["MQ"] = str(mate[4])
