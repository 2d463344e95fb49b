"""Reference k-mer index: the seed source for BwaMemLite.

Stands in for Bwa's FM-index.  The index must be loaded by every mapper
process — the per-mapper loading cost is exactly the overhead the paper
measures when the alignment job is over-partitioned (Table 4, Fig 5a),
so :meth:`ReferenceIndex.build` also reports its size for the cost
model.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.errors import AlignmentError
from repro.genome.reference import ReferenceGenome

#: Default seed length.  Long enough to be mostly unique at our
#: synthetic-genome scale, short enough that error-free seeds exist in
#: every 100 bp read.
DEFAULT_K = 19

SeedHit = Tuple[str, int]  # (contig, 1-based position of k-mer start)


class ReferenceIndex:
    """Exact k-mer lookup over a reference genome."""

    def __init__(self, reference: ReferenceGenome, k: int = DEFAULT_K,
                 max_hits_per_kmer: int = 64):
        if k < 4:
            raise AlignmentError(f"seed length {k} too small")
        self.reference = reference
        self.k = k
        self.max_hits_per_kmer = max_hits_per_kmer
        self._table: Dict[str, List[SeedHit]] = {}
        self._overflow: set = set()
        self._build()

    def _build(self) -> None:
        k = self.k
        for contig, seq in self.reference.contigs.items():
            for start in range(len(seq) - k + 1):
                kmer = seq[start : start + k]
                if kmer in self._overflow:
                    continue
                hits = self._table.setdefault(kmer, [])
                hits.append((contig, start + 1))
                if len(hits) > self.max_hits_per_kmer:
                    # Highly repetitive k-mer (e.g. centromere motif):
                    # drop it, as seed filters in real aligners do.
                    del self._table[kmer]
                    self._overflow.add(kmer)

    def lookup(self, kmer: str) -> List[SeedHit]:
        """All reference placements of one k-mer (empty if repetitive)."""
        if len(kmer) != self.k:
            raise AlignmentError(
                f"query length {len(kmer)} != index k {self.k}"
            )
        return self._table.get(kmer, [])

    def is_repetitive(self, kmer: str) -> bool:
        return kmer in self._overflow

    def seed_hits(self, read: str,
                  stride: int = 7) -> List[Tuple[int, List[SeedHit]]]:
        """``(read_offset, hits)`` for each seed sampled across the read
        that the index places: one table lookup per k-mer."""
        k = self.k
        placed = []
        for offset in range(0, len(read) - k + 1, stride):
            hits = self._table.get(read[offset : offset + k])
            if hits:
                placed.append((offset, hits))
        return placed

    def seed_read(self, read: str, stride: int = 7) -> Iterator[Tuple[int, SeedHit]]:
        """Yield ``(read_offset, hit)`` for seeds sampled across the read."""
        for offset, hits in self.seed_hits(read, stride):
            for hit in hits:
                yield offset, hit

    def size_in_entries(self) -> int:
        """Number of indexed k-mers (proxy for index memory footprint)."""
        return len(self._table)

    def __repr__(self) -> str:
        return (
            f"ReferenceIndex(k={self.k}, {self.size_in_entries()} kmers, "
            f"{len(self._overflow)} repetitive dropped)"
        )
