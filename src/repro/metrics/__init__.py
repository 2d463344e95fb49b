"""Performance and accuracy metrics of the study (section 4.1, 4.5.2)."""

from repro.metrics.accuracy import (
    AlignmentComparison,
    DiscordantAlignment,
    DuplicateComparison,
    VariantComparison,
    alignment_signature,
    compare_alignments,
    compare_duplicates,
    compare_variants,
    precision_sensitivity,
    read_key,
)
from repro.metrics.perf import (
    PerfRow,
    format_duration,
    resource_efficiency,
    speedup,
)
from repro.metrics.quality import (
    VariantSetSummary,
    het_hom_ratio,
    quality_table,
    summarize_variants,
    ti_tv_ratio,
)
from repro.metrics.weighting import (
    MAPQ_WEIGHT,
    VARIANT_QUAL_WEIGHT,
    LogisticWeight,
)

__all__ = [
    "AlignmentComparison",
    "DiscordantAlignment",
    "DuplicateComparison",
    "VariantComparison",
    "alignment_signature",
    "compare_alignments",
    "compare_duplicates",
    "compare_variants",
    "precision_sensitivity",
    "read_key",
    "PerfRow",
    "format_duration",
    "resource_efficiency",
    "speedup",
    "VariantSetSummary",
    "het_hom_ratio",
    "quality_table",
    "summarize_variants",
    "ti_tv_ratio",
    "MAPQ_WEIGHT",
    "VARIANT_QUAL_WEIGHT",
    "LogisticWeight",
]
