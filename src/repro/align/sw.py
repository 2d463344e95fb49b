"""Pairwise alignment kernels for the BwaMemLite aligner.

Two tiers, mirroring how a production aligner spends its time:

* :func:`ungapped_alignment` — a fast Hamming-style extension used for
  the vast majority of reads (no indel at the locus);
* :func:`banded_local_alignment` — a banded Smith-Waterman with affine
  gap penalties for the small fraction of reads that cross an indel.

Scores use Bwa-mem-like defaults: match +1, mismatch -4, gap open -6,
gap extend -1.
"""

from __future__ import annotations

from operator import ne
from typing import List, Optional, Tuple

from repro.formats.cigar import Cigar

MATCH = 1
MISMATCH = -4
GAP_OPEN = -6
GAP_EXTEND = -1


class LocalAlignment:
    """Result of aligning a read against a reference window."""

    __slots__ = ("score", "cigar", "ref_offset", "mismatches")

    def __init__(self, score: int, cigar: Cigar, ref_offset: int, mismatches: int):
        #: Alignment score under the scoring scheme above.
        self.score = score
        #: CIGAR including leading/trailing soft clips.
        self.cigar = cigar
        #: 0-based offset of the first aligned base within the window.
        self.ref_offset = ref_offset
        self.mismatches = mismatches

    def __repr__(self) -> str:
        return (
            f"LocalAlignment(score={self.score}, cigar={self.cigar}, "
            f"offset={self.ref_offset})"
        )


def ungapped_alignment(
    read: str, window: str, offset: int, max_mismatches: int
) -> Optional[LocalAlignment]:
    """Score ``read`` against ``window[offset:]`` without gaps.

    Returns ``None`` when the placement does not fit in the window or
    exceeds ``max_mismatches`` — the caller then falls back to the
    banded DP.
    """
    read_len = len(read)
    if offset < 0 or offset + read_len > len(window):
        return None
    segment = window[offset : offset + read_len]
    mismatches = 0 if read == segment else sum(map(ne, read, segment))
    if mismatches > max_mismatches:
        return None
    score = (read_len - mismatches) * MATCH + mismatches * MISMATCH
    return LocalAlignment(score, Cigar([(read_len, "M")]), offset, mismatches)


def banded_local_alignment(
    read: str, window: str, band: int = 12, diagonal: Optional[int] = None
) -> Optional[LocalAlignment]:
    """Banded local alignment (Smith-Waterman, affine gaps).

    The band follows the seed: with ``diagonal`` (the window offset at
    which the seed places the read's first base) row ``i`` fills the
    columns within ``band`` of that diagonal; without one it covers
    every diagonal the window has room for.  Unaligned read ends become
    soft clips.  ``GAP_OPEN`` pays for a gap's first base and
    ``GAP_EXTEND`` for each further one, and ``score`` is exactly that
    re-score of the returned CIGAR: the traceback settles open versus
    extend by value, and where both explain a cell the shorter gap wins.
    """
    read_len = len(read)
    win_len = len(window)
    if read_len == 0 or win_len == 0:
        return None
    if diagonal is None:
        d_lo, d_hi = 0, max(0, win_len - read_len)
    else:
        d_lo = d_hi = diagonal

    match, mismatch, gap_open, gap_extend = MATCH, MISMATCH, GAP_OPEN, GAP_EXTEND
    neg_inf = -(10 ** 9)
    width = win_len + 1
    # H: best score ending at (i, j); E: gap in read (deletion from ref
    # consumed); F: gap in reference (insertion of read bases).  Cells
    # outside the band keep H = 0 and E = -inf.
    prev_h = [0] * width
    prev_e = [neg_inf] * width
    best_score = 0
    best_i = best_j = 0
    # Traceback: per read row its H list and one bytearray of moves;
    # 1 = M, 2 = U, 3 = L, 0 where H is 0.  Row 0 and rows the band
    # never reaches share the all-zero ones.
    rows = [prev_h] * (read_len + 1)
    moves = [bytearray(width)] * (read_len + 1)
    band_left = band - d_lo
    band_right = band + d_hi

    for i in range(max(1, 1 - band_right), read_len + 1):
        j_lo = i - band_left if i - band_left > 1 else 1
        j_hi = i + band_right if i + band_right < win_len else win_len
        if j_lo > j_hi:
            break  # the band has left the window: every later row is empty
        cur_h = rows[i] = [0] * width
        cur_e = [neg_inf] * width
        row = moves[i] = bytearray(width)
        read_base = read[i - 1]
        f_score = neg_inf
        h_left = 0
        h_diag = prev_h[j_lo - 1]
        for j in range(j_lo, j_hi + 1):
            h_up = prev_h[j]
            score = h_diag + (match if read_base == window[j - 1] else mismatch)
            h_diag = h_up
            e_score = prev_e[j] + gap_extend
            opened = h_up + gap_open
            if opened > e_score:
                e_score = opened
            cur_e[j] = e_score
            f_score += gap_extend
            opened = h_left + gap_open
            if opened > f_score:
                f_score = opened
            # Ties resolve M > U > L: a later move must be strictly better.
            move = 1
            if e_score > score:
                score = e_score
                move = 2
            if f_score > score:
                score = f_score
                move = 3
            if score <= 0:
                h_left = 0
                continue
            h_left = cur_h[j] = score
            row[j] = move
            if score > best_score:
                best_score = score
                best_i = i
                best_j = j
        prev_h, prev_e = cur_h, cur_e

    if best_score <= 0:
        return None

    # Traceback from the best-scoring cell back to a zero cell.  A U or
    # L move enters a gap whose score ``need`` is the cell's H; each
    # step back along it either finds the H the gap opened from
    # (H + GAP_OPEN == need) or gives one GAP_EXTEND back and goes on.
    ops: List[Tuple[int, str]] = []
    mismatches = 0
    i, j = best_i, best_j
    end_clip = read_len - i
    while True:
        move = moves[i][j]
        if move == 0:
            break
        if move == 1:  # diagonal: read base vs window base
            if read[i - 1] != window[j - 1]:
                mismatches += 1
            _push(ops, "M")
            i -= 1
            j -= 1
            continue
        need = rows[i][j]
        while True:
            if move == 2:  # up: read base vs gap (insertion)
                _push(ops, "I")
                i -= 1
            else:  # left: gap vs window base (deletion)
                _push(ops, "D")
                j -= 1
            if rows[i][j] + gap_open == need:
                break
            need -= gap_extend
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


def align_candidate(
    read: str, window: str, expected_offset: int, max_ungapped_mismatches: int = 6
) -> Optional[LocalAlignment]:
    """Align a read at a seed-anchored candidate locus.

    Tries the cheap ungapped placement at ``expected_offset`` first and
    falls back to the DP banded around that same diagonal.
    """
    result = ungapped_alignment(read, window, expected_offset, max_ungapped_mismatches)
    if result is not None:
        return result
    return banded_local_alignment(read, window, diagonal=expected_offset)
