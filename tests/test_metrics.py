"""Unit tests for performance/accuracy metrics and weighting."""

import pytest

from repro.errors import SimulationError
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.sam import SamRecord, encode_quals
from repro.formats.vcf import VariantRecord
from repro.metrics.accuracy import (
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
    het_hom_ratio,
    quality_table,
    summarize_variants,
    ti_tv_ratio,
)
from repro.metrics.weighting import MAPQ_WEIGHT, LogisticWeight


def rec(qname, pos=100, mapq=60, flag_bits=0, dup=False):
    record = SamRecord(
        qname, F.SamFlags(flag_bits | F.PAIRED | F.FIRST_IN_PAIR), "chr1",
        pos, mapq, Cigar.parse("10M"), seq="ACGTACGTAC",
        qual=encode_quals([30] * 10),
    )
    record.set_duplicate(dup)
    return record


def var(pos, qual=80.0, ref="A", alt="G", genotype="0/1"):
    return VariantRecord("chr1", pos, ref, alt, qual, genotype=genotype)


class TestPerf:
    def test_speedup(self):
        assert speedup(100.0, 25.0) == 4.0
        with pytest.raises(SimulationError):
            speedup(10.0, 0.0)

    def test_resource_efficiency(self):
        assert resource_efficiency(45.0, 90) == 0.5
        with pytest.raises(SimulationError):
            resource_efficiency(1.0, 0)

    def test_perf_row(self):
        row = PerfRow("r", wall_seconds=100, single_node_seconds=1000,
                      cores_used=20)
        assert row.speedup == 10.0
        assert row.resource_efficiency == 0.5
        assert "speedup" in row.formatted()

    def test_format_duration(self):
        assert format_duration(5256) == "1 hrs, 27 mins, 36 sec"
        assert format_duration(59) == "59 sec"
        assert format_duration(3600) == "1 hrs, 0 mins, 0 sec"

    def test_format_duration_subsecond(self):
        assert format_duration(0.25) == "250 ms"
        assert format_duration(0.9994) == "999 ms"
        assert format_duration(0.9996) == "1 sec"
        assert format_duration(0.0004) == "400 us"
        assert format_duration(0.0) == "0 sec"

    def test_format_duration_negative(self):
        assert format_duration(-59) == "-59 sec"
        assert format_duration(-0.25) == "-250 ms"
        assert format_duration(-5256) == "-1 hrs, 27 mins, 36 sec"


class TestWeighting:
    def test_cutoffs(self):
        assert MAPQ_WEIGHT(30) == 0.0
        assert MAPQ_WEIGHT(29) == 0.0
        assert MAPQ_WEIGHT(55) == 1.0
        assert MAPQ_WEIGHT(60) == 1.0

    def test_monotonic_between_cuts(self):
        values = [MAPQ_WEIGHT(q) for q in range(30, 56)]
        assert values == sorted(values)
        assert 0.4 < MAPQ_WEIGHT(42.5) < 0.6  # midpoint ~0.5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LogisticWeight(50, 40)
        with pytest.raises(ValueError):
            LogisticWeight(30, 55, edge_value=0.7)


class TestAlignmentComparison:
    def test_identical_sets_concordant(self):
        records = [rec(f"r{i}") for i in range(10)]
        comparison = compare_alignments(records, [r.copy() for r in records])
        assert comparison.d_count == 0
        assert comparison.concordant == 10

    def test_moved_read_discordant(self):
        serial = [rec("a", pos=100, mapq=60)]
        parallel = [rec("a", pos=555, mapq=60)]
        comparison = compare_alignments(serial, parallel)
        assert comparison.d_count == 1
        assert comparison.weighted_d_count == 1.0  # mapq 60 weighs 1

    def test_low_mapq_discordance_weighs_zero(self):
        serial = [rec("a", pos=100, mapq=0)]
        parallel = [rec("a", pos=555, mapq=0)]
        comparison = compare_alignments(serial, parallel)
        assert comparison.d_count == 1
        assert comparison.weighted_d_count == 0.0

    def test_min_quality_filter(self):
        serial = [rec("a", pos=100, mapq=0)]
        parallel = [rec("a", pos=555, mapq=0)]
        comparison = compare_alignments(serial, parallel, min_quality=1)
        assert comparison.d_count == 0

    def test_signature_includes_strand_and_cigar(self):
        a = rec("a")
        b = rec("a", flag_bits=F.REVERSE)
        assert alignment_signature(a) != alignment_signature(b)

    def test_read_key_distinguishes_ends(self):
        first = rec("a")
        second = SamRecord(
            "a", F.SamFlags(F.PAIRED | F.SECOND_IN_PAIR), "chr1", 1, 60,
            Cigar.parse("10M"), seq="ACGTACGTAC", qual=encode_quals([30] * 10),
        )
        assert read_key(first) != read_key(second)

    def test_percentages(self):
        serial = [rec("a", mapq=60), rec("b", mapq=60)]
        parallel = [rec("a", pos=999, mapq=60), rec("b", mapq=60)]
        comparison = compare_alignments(serial, parallel)
        assert comparison.d_count_percent == 50.0
        assert comparison.weighted_d_count_percent == 50.0


class TestDuplicateComparison:
    def test_flag_differences_counted(self):
        serial = [rec("a", dup=True), rec("b", dup=False)]
        parallel = [rec("a", dup=False), rec("b", dup=True)]
        comparison = compare_duplicates(serial, parallel)
        assert comparison.flag_differences == 2
        assert comparison.count_difference == 0  # 1 vs 1 duplicates

    def test_net_count_difference(self):
        serial = [rec("a", dup=True), rec("b", dup=True)]
        parallel = [rec("a", dup=False), rec("b", dup=True)]
        comparison = compare_duplicates(serial, parallel)
        assert comparison.serial_duplicates == 2
        assert comparison.parallel_duplicates == 1
        assert comparison.count_difference == 1


class TestVariantComparison:
    def test_partition(self):
        serial = [var(1), var(2), var(3)]
        other = [var(2), var(3), var(9)]
        comparison = compare_variants(serial, other)
        assert len(comparison.concordant) == 2
        assert [v.pos for v in comparison.only_first] == [1]
        assert [v.pos for v in comparison.only_second] == [9]
        assert comparison.d_count == 2

    def test_weighted_by_qual(self):
        comparison = compare_variants([var(1, qual=150)], [var(9, qual=10)])
        assert comparison.weighted_d_count == pytest.approx(1.0)

    def test_d_count_percent(self):
        comparison = compare_variants([var(1), var(2)], [var(2)])
        assert comparison.d_count_percent == pytest.approx(100.0 / 2)

    def test_precision_sensitivity(self):
        calls = [var(1), var(2), var(3)]
        truth = {var(2).site_key(), var(3).site_key(), var(4).site_key()}
        precision, sensitivity = precision_sensitivity(calls, truth)
        assert precision == pytest.approx(2 / 3)
        assert sensitivity == pytest.approx(2 / 3)

    def test_precision_sensitivity_empty(self):
        assert precision_sensitivity([], {("chr1", 1, "A", "G")}) == (0.0, 0.0)


class TestQualitySummaries:
    def test_ti_tv(self):
        variants = [var(1, ref="A", alt="G"), var(2, ref="C", alt="T"),
                    var(3, ref="A", alt="T")]
        assert ti_tv_ratio(variants) == 2.0

    def test_het_hom(self):
        variants = [var(1), var(2), var(3, genotype="1/1")]
        assert het_hom_ratio(variants) == 2.0

    def test_summary_row(self):
        variants = [
            VariantRecord("chr1", 1, "A", "G", 80,
                          info={"DP": 30, "MQ": 58, "FS": 1.0, "AB": 0.5}),
            VariantRecord("chr1", 2, "C", "T", 60,
                          info={"DP": 20, "MQ": 52, "FS": 3.0, "AB": 0.4}),
        ]
        summary = summarize_variants("test", variants)
        row = summary.as_row()
        assert row["count"] == 2
        assert row["DP"] == 25.0
        assert row["MQ"] == 55.0

    def test_empty_set_summary(self):
        summary = summarize_variants("empty", [])
        assert summary.count == 0
        assert summary.mean_qual == 0.0

    def test_quality_table_rows(self):
        rows = quality_table([var(1)], [var(2)], [var(3)])
        assert [r.label for r in rows] == ["Intersection", "Serial", "Hybrid"]
