"""Tests for the error-diagnosis toolkit (Table 8, Fig 11 analyses)."""

import pytest

from repro.api import PipelineSpec
from repro.diagnostics.insert_size import (
    edge_enrichment,
    insert_size_histogram,
    population_insert_stats,
)
from repro.diagnostics.regions import (
    attribute_regions,
    discordance_coverage,
    enrichment_in_hard_regions,
    filtered_discordance_fraction,
)
from repro.diagnostics.toolkit import ErrorDiagnosisToolkit
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.sam import SamRecord, encode_quals
from repro.metrics.accuracy import DiscordantAlignment, compare_alignments
from repro.pipeline.parallel import GesallPipeline
from repro.pipeline.serial import SerialPipeline


def rec(qname, pos, mapq=60, tlen=0, flag_bits=0):
    return SamRecord(
        qname, F.SamFlags(flag_bits | F.PAIRED | F.FIRST_IN_PAIR | F.PROPER_PAIR),
        "chr1", pos, mapq, Cigar.parse("10M"), seq="ACGTACGTAC",
        qual=encode_quals([30] * 10), tlen=tlen,
    )


def discordant(pos_a, pos_b, mapq=60, tlen=0):
    return DiscordantAlignment(
        rec("x", pos_a, mapq, tlen), rec("x", pos_b, mapq, tlen)
    )


@pytest.fixture(scope="module")
def pipeline_pair(reference, ref_index, pairs):
    # A low downsampling cap activates the Haplotype Caller's
    # invocation-seeded nondeterminism, so variant-level discordance
    # (and hence pipeline-unique variants) can be observed.
    from repro.variants.haplotype import HaplotypeCallerConfig
    hc_config = HaplotypeCallerConfig(downsample_depth=10)
    spec = PipelineSpec(
        reference, index=ref_index, num_fastq_partitions=5, num_reducers=3,
        hc_config=hc_config,
    )
    serial = SerialPipeline(spec, batch_size=500).run(pairs)
    parallel = GesallPipeline(spec).run(pairs)
    return serial, parallel


class TestRegionAttribution:
    def test_classification(self, reference):
        centromere = next(reference.centromeres.intervals())
        blacklist = next(reference.blacklist.intervals())
        discordants = [
            discordant(centromere.start + 5, centromere.start + 9),
            discordant(blacklist.start + 5, blacklist.start + 9),
            discordant(10, 20),
        ]
        attribution = attribute_regions(discordants, reference)
        assert attribution.in_centromere == 1
        assert attribution.in_blacklist == 1
        assert attribution.elsewhere == 1
        assert attribution.hard_region_fraction == pytest.approx(2 / 3)

    def test_coverage_bins(self, reference):
        discordants = [discordant(100, 100), discordant(120, 130)]
        coverage = discordance_coverage(discordants, reference, bin_size=500)
        assert coverage["chr1"][0] == 4  # both reads of both discordants

    def test_filtered_fraction_drops_hard_and_low_mapq(self, reference):
        centromere = next(reference.centromeres.intervals())
        clean_pos = next(
            pos for pos in range(1, reference.contig_length("chr1"))
            if not reference.in_hard_region("chr1", pos)
            and not reference.in_hard_region("chr1", pos + 10)
        )
        discordants = [
            discordant(centromere.start + 1, centromere.start + 2, mapq=60),
            discordant(clean_pos, clean_pos + 10, mapq=5),
            discordant(clean_pos, clean_pos + 10, mapq=60),
        ]
        fraction = filtered_discordance_fraction(
            discordants, reference, total_reads=100
        )
        assert fraction == pytest.approx(0.01)  # only the third survives


class TestInsertSizeAnalysis:
    def test_histogram(self):
        discordants = [discordant(1, 2, tlen=310), discordant(3, 4, tlen=-305)]
        histogram = insert_size_histogram(discordants, bin_width=20)
        assert histogram == {300: 2}

    def test_population_stats(self):
        population = [rec(f"r{i}", 1, tlen=300 + (i % 5)) for i in range(50)]
        mean, sd = population_insert_stats(population)
        assert 300 <= mean <= 305
        assert sd > 0

    def test_edge_enrichment_ordering(self):
        population = [rec(f"r{i}", 1, tlen=300) for i in range(100)]
        population += [rec(f"e{i}", 1, tlen=300 + i) for i in range(1, 30)]
        discordants = [discordant(1, 2, tlen=400), discordant(3, 4, tlen=395)]
        disc_edge, pop_edge = edge_enrichment(discordants, population)
        assert disc_edge >= pop_edge


class TestToolkitOnRealPipelines:
    def test_table8_report(self, reference, pipeline_pair):
        serial, parallel = pipeline_pair
        from repro.variants.haplotype import HaplotypeCallerConfig
        toolkit = ErrorDiagnosisToolkit(
            reference, HaplotypeCallerConfig(downsample_depth=10)
        )
        report = toolkit.diagnose(serial, parallel)
        stages = [row.stage for row in report.rows]
        assert stages == ["Bwa", "Mark Duplicates", "Haplotype Caller"]
        assert report.row("Bwa").d_count > 0
        assert report.row("Bwa").d_impact is not None
        assert report.quality_rows[0].label == "Intersection"

    def test_discordance_concentrates_in_hard_regions(self, reference,
                                                      pipeline_pair):
        """Fig 11a: disagreeing reads gather around centromeres and
        blacklisted regions."""
        serial, parallel = pipeline_pair
        comparison = compare_alignments(serial.alignment, parallel.alignment)
        if comparison.d_count < 5:
            pytest.skip("too few discordants on this seed to test enrichment")
        enrichment = enrichment_in_hard_regions(
            comparison.discordant, reference
        )
        assert enrichment > 1.5

    def test_most_discordants_low_mapq(self, reference, pipeline_pair):
        """Fig 11b: the majority of disagreeing reads have low MAPQ."""
        serial, parallel = pipeline_pair
        comparison = compare_alignments(serial.alignment, parallel.alignment)
        toolkit = ErrorDiagnosisToolkit(reference)
        assert toolkit.low_quality_fraction(comparison) > 0.5
        joint = toolkit.mapq_joint_distribution(comparison)
        assert len(joint) == comparison.d_count

    def test_markdup_dcount_exceeds_net_difference(self, pipeline_pair):
        """Paper: the MarkDuplicates D_count is inflated by tie
        flapping; the net duplicate-count difference is tiny."""
        serial, parallel = pipeline_pair
        from repro.metrics.accuracy import compare_duplicates
        comparison = compare_duplicates(serial.deduped, parallel.deduped)
        assert comparison.count_difference <= comparison.flag_differences

    def test_concordant_variants_higher_quality(self, reference,
                                                pipeline_pair):
        """Tables 9/10: pipeline-unique variants are lower quality than
        the concordant set."""
        serial, parallel = pipeline_pair
        from repro.variants.haplotype import HaplotypeCallerConfig
        toolkit = ErrorDiagnosisToolkit(
            reference, HaplotypeCallerConfig(downsample_depth=10)
        )
        report = toolkit.diagnose(serial, parallel)
        intersection = report.quality_rows[0]
        unique = report.quality_rows[1:]
        unique_with_calls = [row for row in unique if row.count > 0]
        if not unique_with_calls:
            pytest.skip("no pipeline-unique variants on this seed")
        for row in unique_with_calls:
            assert row.mean_qual <= intersection.mean_qual * 1.05
