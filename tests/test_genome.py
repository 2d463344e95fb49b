"""Unit tests for the genome substrate: regions, reference, simulators."""

import pytest

from repro.cli import main
from repro.errors import ReferenceError_, ReproError, SimulationError
from repro.genome.reference import (
    ReferenceGenome,
    read_fasta,
    reverse_complement,
    write_fasta,
)
from repro.genome.regions import GenomicInterval, RegionSet, tile_contig
from repro.genome.simulate import (
    DonorSimulationConfig,
    ReadSimulationConfig,
    ReferenceSimulationConfig,
    simulate_donor,
    simulate_reads,
    simulate_reference,
)


class TestIntervals:
    def test_length(self):
        assert GenomicInterval("chr1", 10, 20).length == 10

    def test_contains_half_open(self):
        interval = GenomicInterval("chr1", 10, 20)
        assert interval.contains("chr1", 10)
        assert interval.contains("chr1", 19)
        assert not interval.contains("chr1", 20)
        assert not interval.contains("chr2", 15)

    def test_overlap(self):
        a = GenomicInterval("chr1", 10, 20)
        assert a.overlaps(GenomicInterval("chr1", 19, 30))
        assert not a.overlaps(GenomicInterval("chr1", 20, 30))
        assert not a.overlaps(GenomicInterval("chr2", 10, 20))

    def test_expanded_floors_at_one(self):
        assert GenomicInterval("chr1", 3, 10).expanded(5).start == 1

    def test_invalid_interval(self):
        with pytest.raises(ReproError):
            GenomicInterval("chr1", 10, 5)


class TestRegionSet:
    def test_contains(self):
        regions = RegionSet([GenomicInterval("chr1", 100, 200)])
        assert regions.contains("chr1", 150)
        assert not regions.contains("chr1", 200)
        assert not regions.contains("chr2", 150)

    def test_overlapping_query(self):
        regions = RegionSet(
            [GenomicInterval("chr1", 100, 200), GenomicInterval("chr1", 300, 400)]
        )
        hits = regions.overlapping(GenomicInterval("chr1", 150, 350))
        assert len(hits) == 2

    def test_total_length(self):
        regions = RegionSet(
            [GenomicInterval("chr1", 1, 11), GenomicInterval("chr2", 1, 21)]
        )
        assert regions.total_length() == 30


class TestTiling:
    def test_non_overlapping_cover(self):
        segments = tile_contig("chr1", 100, 30)
        assert segments[0].start == 1
        assert segments[-1].end == 101
        covered = sum(s.length for s in segments)
        assert covered == 100

    def test_overlapping_tiles(self):
        segments = tile_contig("chr1", 100, 30, overlap=10)
        # Every interior boundary is covered by two segments.
        assert segments[1].start == 31 - 10
        assert segments[0].end == 31 + 10

    def test_every_position_covered(self):
        segments = tile_contig("chr1", 97, 30, overlap=5)
        for pos in range(1, 98):
            assert any(s.start <= pos < s.end for s in segments)

    def test_invalid_params(self):
        with pytest.raises(ReproError):
            tile_contig("chr1", 100, 0)
        with pytest.raises(ReproError):
            tile_contig("chr1", 100, 30, overlap=30)


class TestReference:
    def test_fetch_1_based(self):
        genome = ReferenceGenome({"chr1": "ACGTACGT"})
        assert genome.fetch("chr1", 1, 5) == "ACGT"
        assert genome.base_at("chr1", 5) == "A"

    def test_fetch_out_of_range(self):
        genome = ReferenceGenome({"chr1": "ACGT"})
        with pytest.raises(ReferenceError_):
            genome.fetch("chr1", 1, 10)
        with pytest.raises(ReferenceError_):
            genome.fetch("chr1", 0, 2)

    def test_unknown_contig(self):
        genome = ReferenceGenome({"chr1": "ACGT"})
        with pytest.raises(ReferenceError_):
            genome.fetch("chrZ", 1, 2)

    def test_empty_contig_rejected(self):
        with pytest.raises(ReferenceError_):
            ReferenceGenome({"chr1": ""})

    def test_sam_sequences(self):
        genome = ReferenceGenome({"chr1": "ACGT", "chr2": "AC"})
        assert genome.sam_sequences() == [("chr1", 4), ("chr2", 2)]

    def test_fasta_roundtrip(self, tmp_path):
        genome = ReferenceGenome({"chr1": "ACGT" * 50, "chr2": "TTTT" * 30})
        path = str(tmp_path / "ref.fa")
        write_fasta(path, genome, width=13)
        loaded = read_fasta(path)
        assert loaded.contigs == genome.contigs

    def test_reverse_complement(self):
        assert reverse_complement("ACGT") == "ACGT"
        assert reverse_complement("AACG") == "CGTT"
        assert reverse_complement(reverse_complement("GATTACA")) == "GATTACA"


class TestReferenceSimulation:
    def test_deterministic(self):
        config = ReferenceSimulationConfig(contig_lengths={"chr1": 5000}, seed=5)
        a = simulate_reference(config)
        b = simulate_reference(config)
        assert a.contigs == b.contigs

    def test_annotations_present(self, reference):
        assert len(reference.centromeres) >= 1
        assert len(reference.blacklist) >= 1

    def test_centromere_is_repetitive(self, reference):
        interval = next(reference.centromeres.intervals())
        segment = reference.fetch(interval.contig, interval.start, interval.end)
        # A tandem repeat: shifting by the motif length reproduces it.
        motif_len = 7
        assert segment[:-motif_len] == segment[motif_len:]

    def test_hard_region_query(self, reference):
        interval = next(reference.centromeres.intervals())
        assert reference.in_hard_region(interval.contig, interval.start)

    def test_a_contig_must_hold_its_centromere(self):
        def config(length):
            return ReferenceSimulationConfig(contig_lengths={"chr1": length},
                                             blacklist_regions=0)

        with pytest.raises(SimulationError, match="200 bp centromere"):
            config(199)
        assert len(simulate_reference(config(200)).contigs["chr1"]) == 200

    def test_a_contig_must_hold_a_blacklist_run(self):
        def config(length):
            return ReferenceSimulationConfig(contig_lengths={"chr1": length})

        with pytest.raises(SimulationError, match="blacklist run of 300"):
            config(300)
        assert len(simulate_reference(config(301)).blacklist) == 2

    @pytest.mark.parametrize("length", ["100", "500", "600"])
    def test_simulate_refuses_a_short_genome(self, length, tmp_path, capsys):
        out = tmp_path / "sample"
        assert main(["simulate", "--out", str(out), "--length", length]) == 2
        assert "error: contig chr1" in capsys.readouterr().err
        assert not out.exists()


class TestDonorSimulation:
    def test_truth_variants_applied_to_haplotypes(self, reference):
        donor = simulate_donor(
            reference, DonorSimulationConfig(snp_rate=5e-3, seed=9)
        )
        assert donor.truth_variants
        hom = [v for v in donor.truth_variants if v.genotype == "1/1" and v.is_snp]
        if hom:
            variant = hom[0]
            for haplotype in donor.haplotypes:
                # hom-alt SNPs keep coordinates only before any indel;
                # just check sequences differ from the reference.
                assert haplotype[variant.chrom] != reference.contigs[variant.chrom]

    def test_het_variant_on_one_haplotype(self, reference):
        donor = simulate_donor(
            reference,
            DonorSimulationConfig(snp_rate=5e-3, indel_rate=0.0,
                                  het_fraction=1.0, seed=10),
        )
        het = [v for v in donor.truth_variants if v.genotype == "0/1"][0]
        hap_a, hap_b = donor.haplotypes
        assert hap_a[het.chrom][het.pos - 1] == het.alt
        assert hap_b[het.chrom][het.pos - 1] == het.ref


class TestReadSimulation:
    def test_pair_counts_match_fragments(self, pairs, fragments):
        assert len(pairs) == len(fragments)

    def test_read_lengths(self, pairs):
        fwd, rev = pairs[0]
        assert len(fwd.sequence) == 100
        assert len(rev.sequence) == 100
        assert len(fwd.qualities) == 100

    def test_names_are_paired(self, pairs):
        fwd, rev = pairs[3]
        assert fwd.name.endswith("/1")
        assert rev.name.endswith("/2")
        assert fwd.name[:-2] == rev.name[:-2]

    def test_duplicates_share_fragment_coordinates(self, fragments):
        duplicates = [f for f in fragments if f.is_duplicate]
        assert duplicates, "duplicate_fraction should produce duplicates"
        originals = {
            (f.contig, f.start, f.insert_size)
            for f in fragments if not f.is_duplicate
        }
        for dup in duplicates:
            assert (dup.contig, dup.start, dup.insert_size) in originals

    def test_quality_declines_with_cycle(self, pairs):
        first = [p[0].qualities[0] for p in pairs[:200]]
        last = [p[0].qualities[-1] for p in pairs[:200]]
        assert sum(first) / len(first) > sum(last) / len(last)

    @pytest.mark.parametrize("coverage", [-0.5, float("nan"), float("inf")])
    def test_coverage_must_be_finite_and_not_negative(self, coverage):
        with pytest.raises(SimulationError, match="coverage"):
            ReadSimulationConfig(coverage=coverage)

    def test_zero_coverage_yields_no_reads(self, donor):
        assert simulate_reads(donor, ReadSimulationConfig(coverage=0.0)) == (
            [], [])

    def test_simulate_refuses_negative_coverage(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "sample"),
                     "--coverage", "-3"]) == 2
        assert "coverage" in capsys.readouterr().err

    def test_a_contig_must_fit_the_shortest_fragment(self):
        def donor(length):
            return simulate_donor(simulate_reference(ReferenceSimulationConfig(
                contig_lengths={"chr1": length}, blacklist_regions=0)))

        config = ReadSimulationConfig(coverage=4.0)
        with pytest.raises(SimulationError, match="200 bp fragment"):
            simulate_reads(donor(201), config)
        simulate_reads(donor(202), config)

    def test_deterministic(self, donor):
        config = ReadSimulationConfig(coverage=2.0, seed=77)
        a, _ = simulate_reads(donor, config)
        b, _ = simulate_reads(donor, config)
        assert [(p[0].name, p[0].sequence) for p in a] == [
            (p[0].name, p[0].sequence) for p in b
        ]
