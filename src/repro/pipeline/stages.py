"""Catalog of the Table 2 pipeline stages.

Records each stage's single-server running time on the paper's 12-core,
64 GB server for the NA12878 64x sample.  Times marked ``paper-text``
survive verbatim in the paper's prose or tables; times marked
``reconstructed`` were chosen to be consistent with the narrative (the
PDF extraction corrupted the last column of Table 2) — the total comes
to ~12 days, matching "the pipeline took about two weeks to finish".
"""

from __future__ import annotations

from typing import List


class StageSpec:
    """One row of Table 2."""

    def __init__(self, step: str, name: str, description: str,
                 single_server_hours: float, source: str):
        self.step = step
        self.name = name
        self.description = description
        self.single_server_hours = single_server_hours
        #: "paper-text" (verbatim in prose/tables) or "reconstructed".
        self.source = source

    def __repr__(self) -> str:
        return f"StageSpec({self.step} {self.name}: {self.single_server_hours}h)"


TABLE2_STAGES: List[StageSpec] = [
    StageSpec("1", "Bwa (mem)",
              "Aligns the reads to the positions on the reference genome",
              13.95, "reconstructed"),
    StageSpec("2", "Samtools Index",
              "Creates the compressed bam file and its index",
              4.0, "reconstructed"),
    StageSpec("3", "Add Replace Groups",
              "Fixes the ReadGroup field of every read, adds header info",
              12.0, "reconstructed"),
    StageSpec("4", "Clean Sam",
              "Fixes Cigar and mapping quality fields, removes reads that "
              "overlap two chromosomes",
              7.55, "paper-text"),   # 7 h 33 m in section 4.4
    StageSpec("5", "Fix Mate Info",
              "Makes necessary information consistent between a pair of reads",
              30.0, "reconstructed"),
    StageSpec("6", "Mark Duplicates",
              "Flags duplicate reads based on the same position, orientation, "
              "and sequence",
              14.45, "paper-text"),  # 14 h 26 m 42 s in Table 7
    StageSpec("7", "Base Recalibrator",
              "Finds the empirical quality score for each covariate",
              25.0, "reconstructed"),
    StageSpec("8", "Print Reads",
              "Adjusts quality scores of reads based on covariates",
              50.0, "reconstructed"),
    StageSpec("v1", "Unified Genotyper",
              "Calls both SNPs and small insertion/deletion variants",
              30.0, "reconstructed"),
    StageSpec("v2", "Haplotype Caller",
              "Like Unified Genotyper, but a newer version of the algorithm",
              98.0, "reconstructed"),
]


def total_pipeline_hours(stages: List[StageSpec] = TABLE2_STAGES) -> float:
    """Sum of stage hours (~2 weeks on the single server)."""
    return sum(stage.single_server_hours for stage in stages)
