"""The serial (single-node) pipeline — the gold standard baseline.

Runs the GATK-best-practices order of Table 2 in one process, exactly
as the multi-threaded single-server pipeline the paper compares
against.  Intermediate outputs are retained so the error-diagnosis
toolkit can compare any prefix against the parallel pipeline.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.align.index import ReferenceIndex
from repro.align.pairing import PairedEndAligner
from repro.api import PipelineSpec
from repro.cleaning.clean_sam import CleanSam
from repro.cleaning.duplicates import MarkDuplicates
from repro.cleaning.fix_mate import FixMateInformation
from repro.cleaning.read_groups import AddOrReplaceReadGroups
from repro.cleaning.sort import SortSam
from repro.formats.fastq import ReadPair
from repro.formats.sam import SamHeader, SamRecord
from repro.formats.vcf import VariantRecord, sort_variants
from repro.obs.recorder import NULL_RECORDER
from repro.recal.apply import PrintReads
from repro.recal.recalibrator import BaseRecalibrator, RecalibrationTable
from repro.variants.haplotype import HaplotypeCallerLite


class SerialPipelineResult:
    """Outputs of every stage, R_1 .. R_k of the paper's notation."""

    def __init__(self):
        self.header: Optional[SamHeader] = None
        #: R after Bwa (step 1).
        self.alignment: List[SamRecord] = []
        #: R after AddReplaceGroups + CleanSam + FixMateInfo (steps 3-5).
        self.cleaned: List[SamRecord] = []
        #: R after SortSam + MarkDuplicates (step 6).
        self.deduped: List[SamRecord] = []
        #: Recalibration table if recalibration ran (steps 7-8).
        self.recal_table: Optional[RecalibrationTable] = None
        #: R after PrintReads (step 8) or deduped if recal skipped.
        self.analysis_ready: List[SamRecord] = []
        #: Final variant calls (step v2).
        self.variants: List[VariantRecord] = []


class SerialPipeline:
    """Bwa -> cleaning -> MarkDuplicates [-> BQSR] -> Haplotype Caller.

    Holds the same :class:`~repro.api.PipelineSpec` the parallel
    pipeline runs from and reads it directly; only ``batch_size`` (how
    many pairs one aligner call takes) and the ``recorder`` are its own.
    """

    def __init__(self, spec: PipelineSpec, batch_size: int = 4000,
                 recorder=None):
        self.spec = spec
        self.batch_size = batch_size
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    @cached_property
    def aligner(self) -> PairedEndAligner:
        """Built on first use: the hybrid tails start from aligned
        records and never pay for the index, the expensive part."""
        spec = self.spec
        return PairedEndAligner(
            spec.index or ReferenceIndex(spec.reference), spec.aligner_config
        )

    def run(self, pairs: Sequence[ReadPair]) -> SerialPipelineResult:
        result = SerialPipelineResult()
        header = self.aligner.header()
        with self.recorder.span(
            "serial:align", category="stage", track="driver", reads=len(pairs)
        ):
            result.alignment = self.aligner.align_all(pairs, self.batch_size)

        header, records = self.run_cleaning(header, result.alignment)
        result.cleaned = records

        header, records = self.run_markdup(header, records)
        result.deduped = records
        result.header = header

        if self.spec.with_recalibration:
            table, records = self.run_recalibration(header, records)
            result.recal_table = table
        result.analysis_ready = records

        result.variants = self.run_haplotype_caller(records)
        return result

    # -- stage groups reused by the hybrid pipelines -----------------------
    def run_cleaning(
        self, header: SamHeader, records: List[SamRecord]
    ) -> Tuple[SamHeader, List[SamRecord]]:
        """Steps 3-5: AddReplaceGroups, CleanSam, FixMateInfo."""
        with self.recorder.span(
            "serial:cleaning", category="stage", track="driver",
            records=len(records),
        ):
            header, records = AddOrReplaceReadGroups().run(header, records)
            header, records = CleanSam().run(header, records)
            header, records = FixMateInformation().run(header, records)
        return header, records

    def run_markdup(
        self, header: SamHeader, records: List[SamRecord]
    ) -> Tuple[SamHeader, List[SamRecord]]:
        """Step 6 (with the coordinate sort it requires)."""
        with self.recorder.span(
            "serial:markdup", category="stage", track="driver",
            records=len(records),
        ):
            header, records = SortSam("coordinate").run(header, records)
            header, records = MarkDuplicates().run(header, records)
        return header, records

    def run_recalibration(
        self, header: SamHeader, records: List[SamRecord]
    ) -> Tuple[RecalibrationTable, List[SamRecord]]:
        """Steps 7-8: BaseRecalibrator + PrintReads."""
        with self.recorder.span(
            "serial:recalibration", category="stage", track="driver",
            records=len(records),
        ):
            recalibrator = BaseRecalibrator(
                self.spec.reference, self.spec.known_sites
            )
            table = recalibrator.build_table(records)
            _, records = PrintReads(table).run(header, records)
        return table, records

    def run_haplotype_caller(
        self, records: List[SamRecord]
    ) -> List[VariantRecord]:
        """Step v2: one whole-genome invocation (one RNG stream)."""
        with self.recorder.span(
            "serial:haplotype-caller", category="stage", track="driver",
            records=len(records),
        ) as span:
            caller = HaplotypeCallerLite(
                self.spec.reference, self.spec.hc_config
            )
            variants = sort_variants(caller.call(records))
            span.set(variants=len(variants))
        return variants
