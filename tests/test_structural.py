"""Tests for the GASVLite structural variant caller and its round."""

import pytest

from repro.align.index import ReferenceIndex
from repro.align.pairing import PairedEndAligner
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.sam import SamRecord, encode_quals
from repro.genome.simulate import (
    DonorSimulationConfig,
    ReadSimulationConfig,
    ReferenceSimulationConfig,
    simulate_donor,
    simulate_reads,
    simulate_reference,
)
from repro.variants.structural import (
    DELETION,
    INVERSION,
    GASVConfig,
    GASVLite,
    estimate_insert_distribution,
)


def make_pair(qname, pos1, pos2, tlen, rev2=True, mapq=60, proper=True,
              read_len=50):
    bits1 = F.PAIRED | F.FIRST_IN_PAIR
    bits2 = F.PAIRED | F.SECOND_IN_PAIR
    if proper:
        bits1 |= F.PROPER_PAIR
        bits2 |= F.PROPER_PAIR
    if rev2:
        bits2 |= F.REVERSE
        bits1 |= F.MATE_REVERSE
    cigar = Cigar.parse(f"{read_len}M")
    quals = encode_quals([30] * read_len)
    end1 = SamRecord(qname, F.SamFlags(bits1), "chr1", pos1, mapq, cigar,
                     tlen=tlen, seq="A" * read_len, qual=quals)
    end2 = SamRecord(qname, F.SamFlags(bits2), "chr1", pos2, mapq, cigar,
                     tlen=-tlen, seq="A" * read_len, qual=quals)
    return [end1, end2]


def background(n=60, insert=300, start=1000):
    """Concordant FR pairs to anchor the insert-size estimate."""
    records = []
    for i in range(n):
        pos1 = start + 17 * i
        pos2 = pos1 + insert - 50
        records.extend(make_pair(f"bg{i}", pos1, pos2, insert))
    return records


class TestInsertEstimate:
    def test_estimates_mean(self):
        mean, sd = estimate_insert_distribution(background())
        assert mean == pytest.approx(300, abs=5)
        assert sd >= 1.0

    def test_empty(self):
        assert estimate_insert_distribution([]) == (0.0, 1.0)


class TestGASVLite:
    def test_deletion_cluster_called(self):
        records = background()
        # 6 pairs spanning a ~400 bp deletion at ~5000: insert ~700.
        for i in range(6):
            pos1 = 4850 + 8 * i
            pos2 = pos1 + 650
            records.extend(
                make_pair(f"del{i}", pos1, pos2, 700, proper=False)
            )
        calls = GASVLite().call(records)
        deletions = [c for c in calls if c.kind == DELETION]
        assert len(deletions) == 1
        call = deletions[0]
        assert call.support == 6
        assert 4850 < call.start < 5600
        assert call.size_estimate == pytest.approx(400, abs=60)

    def test_inversion_cluster_called(self):
        records = background()
        for i in range(5):
            pos1 = 7000 + 9 * i
            records.extend(
                make_pair(f"inv{i}", pos1, pos1 + 400, 0, rev2=False,
                          proper=False)
            )
        calls = GASVLite().call(records)
        inversions = [c for c in calls if c.kind == INVERSION]
        assert len(inversions) == 1
        assert inversions[0].support == 5

    def test_insufficient_support_suppressed(self):
        records = background()
        records.extend(make_pair("lone", 5000, 5700, 750, proper=False))
        calls = GASVLite(GASVConfig(min_support=4)).call(records)
        assert calls == []

    def test_low_mapq_pairs_ignored(self):
        records = background()
        for i in range(6):
            records.extend(
                make_pair(f"bad{i}", 5000 + 5 * i, 5700 + 5 * i, 750,
                          mapq=0, proper=False)
            )
        assert GASVLite().call(records) == []

    def test_duplicates_ignored(self):
        records = background()
        for i in range(6):
            pair = make_pair(f"dup{i}", 5000 + 5 * i, 5700 + 5 * i, 750,
                             proper=False)
            for record in pair:
                record.set_duplicate(True)
            records.extend(pair)
        assert GASVLite().call(records) == []

    def test_distant_clusters_not_merged(self):
        records = background(n=80)
        for base, tag in ((3000, "a"), (9000, "b")):
            for i in range(5):
                records.extend(
                    make_pair(f"{tag}{i}", base + 7 * i, base + 700 + 7 * i,
                              750, proper=False)
                )
        calls = [c for c in GASVLite().call(records) if c.kind == DELETION]
        assert len(calls) == 2

    def test_no_proper_pairs_no_calls(self):
        assert GASVLite().call([]) == []


class TestEndToEndDetection:
    @pytest.fixture(scope="class")
    def sv_sample(self):
        reference = simulate_reference(
            ReferenceSimulationConfig(contig_lengths={"chr1": 15000}, seed=41)
        )
        donor = simulate_donor(
            reference,
            DonorSimulationConfig(structural_deletions=1,
                                  structural_deletion_length=400, seed=42),
        )
        pairs, _ = simulate_reads(
            donor, ReadSimulationConfig(coverage=25.0, seed=43)
        )
        records = PairedEndAligner(ReferenceIndex(reference)).align_all(
            pairs, batch_size=800
        )
        return reference, donor, records

    def test_truth_sv_separated_from_small_variants(self, sv_sample):
        _, donor, _ = sv_sample
        assert len(donor.truth_structural) == 1
        sv = donor.truth_structural[0]
        assert len(sv.ref) - len(sv.alt) >= 50
        assert all(
            len(v.ref) - len(v.alt) < 50 for v in donor.truth_variants
        )

    def test_planted_deletion_detected(self, sv_sample):
        reference, donor, records = sv_sample
        sv = donor.truth_structural[0]
        calls = GASVLite().call(records)
        hit = [
            c for c in calls
            if c.kind == DELETION
            and c.overlaps(sv.chrom, sv.pos, sv.pos + len(sv.ref), margin=200)
        ]
        assert len(hit) == 1
        assert hit[0].size_estimate == pytest.approx(400, rel=0.25)

    def test_sv_clear_of_hard_regions(self, sv_sample):
        reference, donor, _ = sv_sample
        sv = donor.truth_structural[0]
        for pos in range(sv.pos, sv.pos + len(sv.ref), 40):
            assert not reference.in_hard_region(sv.chrom, pos)

    def test_sv_round_over_partitions(self, sv_sample, tmp_path):
        from repro.gdpt.partitioner import split_pairs_contiguously
        from repro.hdfs.bam_storage import upload_bam
        from repro.hdfs.filesystem import Hdfs
        from repro.mapreduce.engine import MapReduceEngine
        from repro.wrappers.rounds import GesallRounds
        from repro.formats.sam import SamHeader

        reference, donor, records = sv_sample
        hdfs = Hdfs(["n0", "n1"], replication=1, block_size=64 * 1024)
        engine = MapReduceEngine(nodes=hdfs.nodes)
        header = SamHeader(sequences=reference.sam_sequences())
        paths = ["/sv/part-00000.bam"]
        upload_bam(hdfs, paths[0], header, records, logical_partition=True)
        rounds = GesallRounds(hdfs, engine, aligner=None, reference=reference)
        calls = rounds.round5_structural_variants(paths)
        sv = donor.truth_structural[0]
        assert any(
            c.kind == DELETION
            and c.overlaps(sv.chrom, sv.pos, sv.pos + len(sv.ref), margin=200)
            for c in calls
        )

