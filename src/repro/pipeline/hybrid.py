"""Hybrid pipelines for discordant-impact measurement (section 4.5.2).

A hybrid pipeline P-tilde runs the *parallel* pipeline up to step i and
the *serial* pipeline from step i+1 to the end; comparing its final
variants against the fully serial pipeline's isolates the impact
(D_impact) of parallelising the first i steps.
"""

from __future__ import annotations

from typing import List, Optional

from repro.api import PipelineSpec
from repro.formats.sam import SamRecord
from repro.formats.vcf import VariantRecord
from repro.genome.reference import ReferenceGenome
from repro.pipeline.serial import SerialPipeline
from repro.variants.haplotype import HaplotypeCallerConfig


class HybridPipeline:
    """Serial tail applied to a parallel prefix's output."""

    def __init__(
        self,
        reference: ReferenceGenome,
        hc_config: Optional[HaplotypeCallerConfig] = None,
        recorder=None,
    ):
        # The serial machinery is reused for the tail; hybrids always
        # start from aligned records, so its aligner is never built.
        # The recorder flows into the tail, so tail stages appear as
        # the same ``category="stage"`` spans the serial pipeline emits.
        self._serial = SerialPipeline(
            PipelineSpec(reference, hc_config=hc_config), recorder=recorder
        )
        self.reference = reference
        self.recorder = self._serial.recorder

    def from_alignment(
        self, parallel_alignment: List[SamRecord]
    ) -> List[VariantRecord]:
        """P-tilde_1: parallel Bwa, then serial steps 3..v2."""
        serial = self._serial
        with self.recorder.span(
            "hybrid:from-alignment", category="stage", track="driver",
            records=len(parallel_alignment),
        ):
            header = _header_for(self.reference)
            header, records = serial.run_cleaning(header, parallel_alignment)
            header, records = serial.run_markdup(header, records)
            return serial.run_haplotype_caller(records)

    def from_markdup(
        self, parallel_deduped: List[SamRecord]
    ) -> List[VariantRecord]:
        """P-tilde_2: parallel through MarkDuplicates, then serial HC."""
        with self.recorder.span(
            "hybrid:from-markdup", category="stage", track="driver",
            records=len(parallel_deduped),
        ):
            return self._serial.run_haplotype_caller(parallel_deduped)


def _header_for(reference: ReferenceGenome):
    from repro.formats.sam import SamHeader

    return SamHeader(sequences=reference.sam_sequences())
