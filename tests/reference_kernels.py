"""Reference kernels: the pre-fast-path bodies, kept as test oracles.

``banded_local_alignment`` (with ``_push``), ``build_pileup`` (with
``_indel_after``) and ``call_over_full_pileup`` are verbatim copies of
what ``repro.align.sw``, ``repro.variants.pileup`` and
``HaplotypeCallerLite.call`` shipped before the kernel fast path.  They
are slow on purpose and live in ``tests/`` only: the differential tests
in ``test_kernel_oracles.py`` require the shipped kernels to return
exactly what these return.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.align.sw import (
    GAP_EXTEND,
    GAP_OPEN,
    MATCH,
    MISMATCH,
    LocalAlignment,
)
from repro.formats.cigar import Cigar
from repro.formats.sam import SamRecord
from repro.genome.regions import GenomicInterval
from repro.recal.covariates import aligned_pairs
from repro.variants.genotyper import call_column
from repro.variants.pileup import (
    PileupColumn,
    PileupConfig,
    PileupEntry,
    record_passes,
)


def banded_local_alignment(
    read: str, window: str, band: int = 12
) -> Optional[LocalAlignment]:
    """Banded local alignment (Smith-Waterman, affine gaps).

    The band is applied around the main diagonal of the read-vs-window
    matrix, which is correct for seed-anchored candidates where the true
    indel offset is small.  Unaligned read ends become soft clips.
    """
    read_len = len(read)
    win_len = len(window)
    if read_len == 0 or win_len == 0:
        return None

    neg_inf = -(10 ** 9)
    # H: best score ending at (i, j); E: gap in read (deletion from ref
    # consumed); F: gap in reference (insertion of read bases).
    prev_h = [0] * (win_len + 1)
    prev_e = [neg_inf] * (win_len + 1)
    best_score = 0
    best_cell = (0, 0)
    # Traceback matrix: dict keyed by (i, j) -> move, kept sparse within
    # the band to bound memory.
    moves = {}

    for i in range(1, read_len + 1):
        cur_h = [0] * (win_len + 1)
        cur_e = [neg_inf] * (win_len + 1)
        f_score = neg_inf
        j_lo = max(1, i - band)
        j_hi = min(win_len, i + band + max(0, win_len - read_len))
        read_base = read[i - 1]
        for j in range(j_lo, j_hi + 1):
            sub = MATCH if read_base == window[j - 1] else MISMATCH
            diag = prev_h[j - 1] + sub
            cur_e[j] = max(prev_e[j] + GAP_EXTEND, prev_h[j] + GAP_OPEN)
            f_score = max(f_score + GAP_EXTEND, cur_h[j - 1] + GAP_OPEN)
            score = max(0, diag, cur_e[j], f_score)
            cur_h[j] = score
            if score == 0:
                continue
            if score == diag:
                moves[(i, j)] = "M"  # diagonal: read base vs window base
            elif score == cur_e[j]:
                moves[(i, j)] = "U"  # up: read base vs gap (insertion)
            else:
                moves[(i, j)] = "L"  # left: gap vs window base (deletion)
            if score > best_score:
                best_score = score
                best_cell = (i, j)
        prev_h, prev_e = cur_h, cur_e

    if best_score <= 0:
        return None

    # Traceback from the best-scoring cell back to a zero cell.
    ops: List[Tuple[int, str]] = []
    mismatches = 0
    i, j = best_cell
    end_clip = read_len - i
    while i > 0 and j > 0:
        move = moves.get((i, j))
        if move is None:
            break
        if move == "M":
            if read[i - 1] != window[j - 1]:
                mismatches += 1
            _push(ops, "M")
            i -= 1
            j -= 1
        elif move == "U":
            _push(ops, "I")  # read base consumed, no window base
            i -= 1
        else:
            _push(ops, "D")  # window base consumed, no read base
            j -= 1
    start_clip = i
    ref_offset = j

    ops.reverse()
    cigar_ops: List[Tuple[int, str]] = []
    if start_clip:
        cigar_ops.append((start_clip, "S"))
    cigar_ops.extend(ops)
    if end_clip:
        cigar_ops.append((end_clip, "S"))
    return LocalAlignment(best_score, Cigar(cigar_ops), ref_offset, mismatches)


def _push(ops: List[Tuple[int, str]], op: str) -> None:
    """Append one op, run-length merging with the previous entry."""
    if ops and ops[-1][1] == op:
        ops[-1] = (ops[-1][0] + 1, op)
    else:
        ops.append((1, op))


def _indel_after(record: SamRecord, read_offset: int, ref_pos: int,
                 reference) -> Optional[Tuple[str, str]]:
    """Detect an I or D operation starting immediately after this base."""
    read_cursor = 0
    ref_cursor = record.pos
    ops = list(record.cigar)
    for index, (length, op) in enumerate(ops):
        if op in ("M", "=", "X"):
            end_read = read_cursor + length - 1
            end_ref = ref_cursor + length - 1
            if read_offset == end_read and ref_pos == end_ref and index + 1 < len(ops):
                next_len, next_op = ops[index + 1]
                if next_op == "I":
                    inserted = record.seq[end_read + 1 : end_read + 1 + next_len]
                    ref_base = reference.base_at(record.rname, ref_pos)
                    return (ref_base, ref_base + inserted)
                if next_op == "D":
                    contig_len = reference.contig_length(record.rname)
                    if ref_pos + next_len <= contig_len:
                        ref_allele = reference.fetch(
                            record.rname, ref_pos, ref_pos + next_len + 1
                        )
                        return (ref_allele, ref_allele[0])
            read_cursor += length
            ref_cursor += length
        elif op in ("I", "S"):
            read_cursor += length
        elif op in ("D", "N"):
            ref_cursor += length
    return None


def build_pileup(
    records: Iterable[SamRecord],
    reference,
    interval: Optional[GenomicInterval] = None,
    config: Optional[PileupConfig] = None,
) -> Iterator[PileupColumn]:
    """Yield pileup columns in coordinate order.

    ``interval`` restricts the output columns (reads overlapping the
    interval still contribute from outside it).
    """
    config = config or PileupConfig()
    columns: Dict[Tuple[str, int], List[PileupEntry]] = {}
    for record in records:
        if not record_passes(record, config):
            continue
        if interval is not None and record.rname != interval.contig:
            continue
        quals = record.base_qualities()
        for read_offset, ref_pos in aligned_pairs(record):
            if interval is not None and not (
                interval.start <= ref_pos < interval.end
            ):
                continue
            if read_offset >= len(quals):
                continue
            quality = quals[read_offset]
            if quality < config.min_base_quality:
                continue
            indel = _indel_after(record, read_offset, ref_pos, reference)
            entry = PileupEntry(
                record=record,
                read_offset=read_offset,
                base=record.seq[read_offset],
                quality=quality,
                mapq=record.mapq,
                reverse=record.flags.is_reverse,
                indel=indel,
            )
            columns.setdefault((record.rname, ref_pos), []).append(entry)
    contig_order: Dict[str, int] = {}
    for contig, _ in columns:
        if contig not in contig_order:
            contig_order[contig] = len(contig_order)
    for (contig, pos) in sorted(
        columns, key=lambda key: (contig_order[key[0]], key[1])
    ):
        yield PileupColumn(contig, pos, columns[(contig, pos)])


def call_over_full_pileup(caller, records, interval=None, emit_interval=None):
    """``HaplotypeCallerLite.call`` as it was: every column materialised.

    Verbatim body of the pre-fast-path method, with ``self`` spelled
    ``caller`` and the reference :func:`build_pileup` above.
    """
    records = list(records)
    records = caller._downsample(records, interval)
    columns = list(
        build_pileup(records, caller.reference, interval,
                     caller.config.genotyper.pileup)
    )
    windows = caller.active_windows(columns)
    calls = []
    columns_by_pos = {
        (column.contig, column.pos): column for column in columns
    }
    for window in windows:
        for pos in range(window.start, window.end):
            column = columns_by_pos.get((window.contig, pos))
            if column is None:
                continue
            for call in call_column(column, caller.reference,
                                    caller.config.genotyper):
                if emit_interval is not None and not emit_interval.contains(
                    call.chrom, call.pos
                ):
                    continue
                calls.append(call)
    return calls
