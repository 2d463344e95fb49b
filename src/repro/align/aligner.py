"""Single-end alignment machinery for BwaMemLite.

Seed-and-extend against the :class:`~repro.align.index.ReferenceIndex`:
seeds vote for (contig, diagonal) candidates, each candidate is scored
by the Smith-Waterman kernels, and MAPQ is derived from the gap between
the best and second-best scores — so equal-score placements (duplicated
segments, centromeres) get MAPQ 0 and require a random choice, the Bwa
artifact behind Fig 11 of the paper.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.align.index import ReferenceIndex
from repro.align.sw import align_candidate
from repro.formats.cigar import Cigar
from repro.genome.reference import reverse_complement


class AlignerConfig:
    """Tunables for BwaMemLite (defaults mirror bwa-mem behaviour)."""

    def __init__(
        self,
        seed_stride: int = 7,
        max_candidates: int = 4,
        window_pad: int = 16,
        max_ungapped_mismatches: int = 6,
        min_seed_votes: int = 1,
        min_score: int = 30,
        mapq_scale: float = 5.0,
        prior_insert_mean: float = 400.0,
        prior_insert_sd: float = 60.0,
        min_insert_samples: int = 8,
        proper_pair_z: float = 4.0,
        unpaired_penalty: int = 17,
        seed: int = 17,
    ):
        self.seed_stride = seed_stride
        self.max_candidates = max_candidates
        self.window_pad = window_pad
        self.max_ungapped_mismatches = max_ungapped_mismatches
        self.min_seed_votes = min_seed_votes
        self.min_score = min_score
        self.mapq_scale = mapq_scale
        #: Fallback insert-size prior used when a batch is too small to
        #: estimate its own distribution — deliberately not centred on
        #: the simulator's true distribution, as a real prior would not be.
        self.prior_insert_mean = prior_insert_mean
        self.prior_insert_sd = prior_insert_sd
        self.min_insert_samples = min_insert_samples
        self.proper_pair_z = proper_pair_z
        self.unpaired_penalty = unpaired_penalty
        self.seed = seed


class AlignmentCandidate:
    """One scored placement of a read on the reference."""

    __slots__ = ("contig", "pos", "reverse", "score", "cigar", "mismatches")

    def __init__(self, contig: str, pos: int, reverse: bool, score: int,
                 cigar: Cigar, mismatches: int):
        self.contig = contig
        self.pos = pos
        self.reverse = reverse
        self.score = score
        self.cigar = cigar
        self.mismatches = mismatches

    def placement(self) -> Tuple[str, int, bool]:
        return (self.contig, self.pos, self.reverse)

    def __repr__(self) -> str:
        strand = "-" if self.reverse else "+"
        return (
            f"AlignmentCandidate({self.contig}:{self.pos}{strand} "
            f"score={self.score} {self.cigar})"
        )


class BwaMemLite:
    """Seed-and-extend single-end aligner over a k-mer index."""

    def __init__(self, index: ReferenceIndex, config: Optional[AlignerConfig] = None):
        self.index = index
        self.config = config or AlignerConfig()

    def candidates(self, read: str) -> List[AlignmentCandidate]:
        """All scored placements of a read, best first.

        Ordering among equal scores is deterministic (contig, pos,
        strand) — tie *selection* is the pairing layer's job, where the
        batch-seeded RNG lives.
        """
        results: Dict[Tuple[str, int, bool], AlignmentCandidate] = {}
        for reverse in (False, True):
            oriented = reverse_complement(read) if reverse else read
            for contig, anchor in self._vote(oriented):
                candidate = self._extend(oriented, contig, anchor, reverse)
                if candidate is None or candidate.score < self.config.min_score:
                    continue
                key = candidate.placement()
                held = results.get(key)
                if held is None or candidate.score > held.score:
                    results[key] = candidate
        ordered = sorted(
            results.values(),
            key=lambda c: (-c.score, c.contig, c.pos, c.reverse),
        )
        return ordered[: self.config.max_candidates]

    def _vote(self, read: str) -> List[Tuple[str, int]]:
        """Seed voting: cluster seed hits by (contig, diagonal).

        Returns up to ``max_candidates`` anchor positions (1-based
        reference position where the read would start), most-voted
        first.
        """
        votes: Dict[Tuple[str, int], int] = {}
        for offset, hits in self.index.seed_hits(read, self.config.seed_stride):
            for contig, hit_pos in hits:
                anchor = hit_pos - offset
                if anchor < 1:
                    continue
                votes[(contig, anchor)] = votes.get((contig, anchor), 0) + 1
        # Merge anchors within a small indel-sized fuzz onto the
        # best-voted representative.
        merged: Dict[Tuple[str, int], int] = {}
        for (contig, anchor), count in sorted(
            votes.items(), key=lambda item: (-item[1], item[0])
        ):
            placed = False
            for (m_contig, m_anchor) in list(merged):
                if m_contig == contig and abs(m_anchor - anchor) <= 8:
                    merged[(m_contig, m_anchor)] += count
                    placed = True
                    break
            if not placed:
                merged[(contig, anchor)] = count
        ranked = [
            key
            for key, count in sorted(
                merged.items(), key=lambda item: (-item[1], item[0])
            )
            if count >= self.config.min_seed_votes
        ]
        return ranked[: self.config.max_candidates * 2]

    def _extend(
        self, read: str, contig: str, anchor: int, reverse: bool
    ) -> Optional[AlignmentCandidate]:
        pad = self.config.window_pad
        contig_len = self.index.reference.contig_length(contig)
        window_start = max(1, anchor - pad)
        window_end = min(contig_len + 1, anchor + len(read) + pad)
        if window_end - window_start < len(read) // 2:
            return None
        window = self.index.reference.fetch(contig, window_start, window_end)
        result = align_candidate(
            read,
            window,
            expected_offset=anchor - window_start,
            max_ungapped_mismatches=self.config.max_ungapped_mismatches,
        )
        if result is None:
            return None
        pos = window_start + result.ref_offset
        return AlignmentCandidate(
            contig, pos, reverse, result.score, result.cigar, result.mismatches
        )

    def mapq(self, candidates: List[AlignmentCandidate]) -> int:
        """Bwa-style MAPQ from the best/second-best score gap."""
        if not candidates:
            return 0
        best = candidates[0].score
        second = candidates[1].score if len(candidates) > 1 else None
        if second is None:
            return 60
        if second >= best:
            return 0
        return min(60, int(self.config.mapq_scale * (best - second)))
