"""Unit tests for the Genome Data Parallel Toolkit."""

import pytest

from repro.errors import FormatError, PartitioningError
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.sam import SamHeader, SamRecord, encode_quals
from repro.gdpt.bloom import BloomFilter
from repro.gdpt.partitioner import (
    GroupPartitioner,
    MarkDupKeying,
    OverlappingRangePartitioner,
    RangePartitioner,
    build_partial_position_bloom,
    read_name_key,
    split_pairs_contiguously,
    verify_group_partitioning,
)


def rec(qname, pos=100, rname="chr1", flag_bits=0, cigar="10M"):
    return SamRecord(
        qname, F.SamFlags(flag_bits), rname, pos, 60, Cigar.parse(cigar),
        seq="ACGTACGTAC", qual=encode_quals([30] * 10),
    )


def pair(qname, pos1, pos2, mapped2=True):
    bits1 = F.PAIRED | F.FIRST_IN_PAIR
    bits2 = F.PAIRED | F.SECOND_IN_PAIR | F.REVERSE
    if not mapped2:
        bits1 |= F.MATE_UNMAPPED
        bits2 = F.PAIRED | F.SECOND_IN_PAIR | F.UNMAPPED
    return rec(qname, pos1, flag_bits=bits1), rec(qname, pos2, flag_bits=bits2)


HEADER = SamHeader(sequences=[("chr1", 9000), ("chr2", 7000)])


class TestBloomFilter:
    def test_membership(self):
        bloom = BloomFilter()
        bloom.add(("chr1", 123))
        assert ("chr1", 123) in bloom
        assert ("chr1", 124) not in bloom

    def test_no_false_negatives(self):
        bloom = BloomFilter(num_bits=1 << 12)
        items = [("chr1", i) for i in range(500)]
        bloom.update(items)
        assert all(item in bloom for item in items)

    def test_false_positive_rate_bounded(self):
        bloom = BloomFilter(num_bits=1 << 14, num_hashes=3)
        bloom.update(("chr1", i) for i in range(400))
        false_hits = sum(
            1 for i in range(10_000, 20_000) if ("chr1", i) in bloom
        )
        assert false_hits / 10_000 < 0.05

    def test_merge_is_union(self):
        a, b = BloomFilter(num_bits=1 << 10), BloomFilter(num_bits=1 << 10)
        a.add("x")
        b.add("y")
        a.merge(b)
        assert "x" in a and "y" in a

    def test_merge_geometry_mismatch(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=1 << 10).merge(BloomFilter(num_bits=1 << 11))

    def test_fill_estimate(self):
        bloom = BloomFilter(num_bits=1 << 10)
        assert bloom.estimated_fill() == 0.0
        bloom.add("x")
        assert bloom.estimated_fill() > 0.0

    def test_bytes_roundtrip_keeps_geometry_bits_and_count(self):
        bloom = BloomFilter(num_bits=1 << 10, num_hashes=4)
        bloom.update(("chr2", i) for i in range(50))
        back = BloomFilter.from_bytes(bloom.to_bytes())
        assert (back.num_bits, back.num_hashes, back.items_added) == (
            1 << 10, 4, 50)
        assert back.to_bytes() == bloom.to_bytes()
        assert all(("chr2", i) in back for i in range(50))

    @pytest.mark.parametrize("blob", [
        b"",
        b"BLM1\x00",
        b"NOPE" + BloomFilter().to_bytes()[4:],
        BloomFilter().to_bytes()[:-1],
        BloomFilter().to_bytes() + b"\x00",
        BloomFilter(num_bits=64).to_bytes()[:8] + b"\x00" * 30,
        b"BLM1" + b"\x00\x00\x00\x04" + BloomFilter().to_bytes()[8:],
    ], ids=["empty", "short-header", "magic", "truncated", "trailing",
            "num-hashes-0", "num-bits-4"])
    def test_malformed_bytes_raise_a_format_error(self, blob):
        with pytest.raises(FormatError, match="malformed bloom filter"):
            BloomFilter.from_bytes(blob)


class TestGroupPartitioning:
    def test_groups_never_split(self):
        records = []
        for i in range(50):
            records.extend(pair(f"q{i}", 100 + i, 300 + i))
        partitioner = GroupPartitioner(read_name_key, 7)
        partitions = partitioner.split(records)
        verify_group_partitioning(partitions, read_name_key)

    def test_verify_detects_violation(self):
        a, b = pair("same", 100, 300)
        with pytest.raises(PartitioningError):
            verify_group_partitioning([[a], [b]], read_name_key)

    def test_all_records_assigned(self):
        records = [rec(f"q{i}") for i in range(100)]
        partitions = GroupPartitioner(read_name_key, 5).split(records)
        assert sum(len(p) for p in partitions) == 100

    def test_invalid_partition_count(self):
        with pytest.raises(PartitioningError):
            GroupPartitioner(read_name_key, 0)

    def test_contiguous_split_balance_and_order(self):
        pairs = [(i, i) for i in range(103)]
        parts = split_pairs_contiguously(pairs, 10)
        assert sum(len(p) for p in parts) == 103
        assert max(len(p) for p in parts) - min(len(p) for p in parts) <= 1
        flat = [x for p in parts for x in p]
        assert flat == pairs

    def test_non_canonical_key_raises(self):
        # A key_fn returning a type without a canonical byte encoding
        # must fail loudly at the first item, not silently hash repr()
        # (which can embed process-dependent state like id()).
        class Opaque:
            pass

        partitioner = GroupPartitioner(lambda record: Opaque(), 4)
        with pytest.raises(PartitioningError):
            partitioner.partition_of(rec("q0"))
        partitioner = GroupPartitioner(lambda record: [record.qname], 4)
        with pytest.raises(PartitioningError):
            partitioner.split([rec("q0")])

    def test_placement_identical_across_interpreters(self):
        # Regression for the repr()-hash bug: partition placement must
        # be a pure function of the key bytes, so a forked (or freshly
        # spawned) worker with a different PYTHONHASHSEED agrees with
        # the parent about where every group lives.
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        qnames = [f"read-{i:04d}" for i in range(64)]
        partitioner = GroupPartitioner(read_name_key, 7)
        parent = [partitioner.partition_of(rec(name)) for name in qnames]

        script = (
            "import json, sys\n"
            "from repro.shuffle.keys import stable_hash_partition\n"
            "names = json.loads(sys.stdin.read())\n"
            "print(json.dumps("
            "[stable_hash_partition(n, 7) for n in names]))\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        for hash_seed in ("1", "4242"):
            env = dict(os.environ, PYTHONPATH=src_dir,
                       PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                input=json.dumps(qnames), capture_output=True,
                text=True, env=env, check=True,
            )
            assert json.loads(out.stdout) == parent


class TestMarkDupKeying:
    def test_complete_pair_emits_pair_key(self):
        keying = MarkDupKeying("reg")
        end1, end2 = pair("q", 100, 300)
        emissions = keying.keys_for_pair(end1, end2)
        kinds = [key[0] for key, _ in emissions]
        assert kinds.count("P") == 1
        assert kinds.count("F") == 2  # reg always shadows both ends

    def test_map_side_filter_dedupes_shadows(self):
        keying = MarkDupKeying("reg")
        keying.reset()
        first = keying.keys_for_pair(*pair("a", 100, 300))
        second = keying.keys_for_pair(*pair("b", 100, 300))
        shadows_second = [k for k, v in second if k[0] == "F"]
        assert shadows_second == []  # same 5' positions already sent
        assert len([k for k, v in first if k[0] == "F"]) == 2

    def test_opt_mode_consults_bloom(self):
        bloom = BloomFilter()
        keying = MarkDupKeying("opt", bloom)
        emissions = keying.keys_for_pair(*pair("a", 100, 300))
        assert [k for k, _ in emissions if k[0] == "F"] == []
        # Now mark position 100 as having a partial matching.
        end1, _ = pair("x", 100, 300)
        bloom.add((end1.rname, end1.unclipped_five_prime))
        keying2 = MarkDupKeying("opt", bloom)
        emissions2 = keying2.keys_for_pair(*pair("b", 100, 300))
        assert len([k for k, _ in emissions2 if k[0] == "F"]) == 1

    def test_partial_pair_emits_fragment_key(self):
        keying = MarkDupKeying("reg")
        emissions = keying.keys_for_pair(*pair("p", 100, 100, mapped2=False))
        assert len(emissions) == 1
        assert emissions[0][0][0] == "F"
        assert emissions[0][1][0] == "partial"

    def test_both_unmapped_passthrough(self):
        keying = MarkDupKeying("reg")
        end1 = rec("u", 0, rname="*",
                   flag_bits=F.PAIRED | F.UNMAPPED | F.MATE_UNMAPPED, cigar="*")
        end2 = rec("u", 0, rname="*",
                   flag_bits=F.PAIRED | F.UNMAPPED | F.MATE_UNMAPPED, cigar="*")
        emissions = keying.keys_for_pair(end1, end2)
        assert emissions[0][0][0] == "U"

    def test_opt_requires_bloom(self):
        with pytest.raises(PartitioningError):
            MarkDupKeying("opt")

    def test_bloom_built_from_partials_only(self):
        pairs = [pair("a", 100, 300), pair("b", 500, 500, mapped2=False)]
        bloom = build_partial_position_bloom(pairs)
        assert bloom.items_added == 1

    def test_opt_shuffles_fewer_records_than_reg(self):
        pairs = [pair(f"q{i}", 100 + 7 * i, 400 + 7 * i) for i in range(40)]
        pairs.append(pair("partial", 100, 100, mapped2=False))
        bloom = build_partial_position_bloom(pairs)
        reg_count = 0
        keying = MarkDupKeying("reg")
        keying.reset()
        for p in pairs:
            reg_count += len(keying.keys_for_pair(*p))
        opt_count = 0
        keying = MarkDupKeying("opt", bloom)
        keying.reset()
        for p in pairs:
            opt_count += len(keying.keys_for_pair(*p))
        assert opt_count < reg_count


class TestRangePartitioning:
    def test_by_chromosome(self):
        partitioner = RangePartitioner(HEADER)
        assert partitioner.num_partitions == 2
        records = [rec("a", rname="chr1"), rec("b", rname="chr2"),
                   rec("c", rname="chr1")]
        partitions = partitioner.split(records)
        assert [r.qname for r in partitions[0]] == ["a", "c"]
        assert [r.qname for r in partitions[1]] == ["b"]

    def test_unmapped_unplaced(self):
        partitioner = RangePartitioner(HEADER)
        unmapped = rec("u", 0, rname="*", flag_bits=F.UNMAPPED, cigar="*")
        assert partitioner.partition_of(unmapped) is None


class TestOverlappingRangePartitioning:
    def test_interior_read_in_one_partition(self):
        partitioner = OverlappingRangePartitioner(HEADER, 1000, overlap=50)
        record = rec("mid", pos=500)
        assert len(partitioner.partitions_of(record)) == 1

    def test_boundary_read_replicated(self):
        partitioner = OverlappingRangePartitioner(HEADER, 1000, overlap=50)
        record = rec("edge", pos=996)  # spans the 1000/1001 boundary
        assert len(partitioner.partitions_of(record)) == 2

    def test_every_read_covered(self):
        partitioner = OverlappingRangePartitioner(HEADER, 1000, overlap=100)
        records = [rec(f"r{p}", pos=p) for p in range(1, 8980, 37)]
        partitions = partitioner.split(records)
        seen = {r.qname for part in partitions for r in part}
        assert seen == {r.qname for r in records}

    def test_replication_factor_grows_with_overlap(self):
        records = [rec(f"r{p}", pos=p) for p in range(1, 8900, 13)]
        small = OverlappingRangePartitioner(HEADER, 500, overlap=10)
        large = OverlappingRangePartitioner(HEADER, 500, overlap=200)
        assert large.replication_factor(records) > small.replication_factor(records)

    def test_cores_do_not_overlap(self):
        partitioner = OverlappingRangePartitioner(HEADER, 700, overlap=60)
        for a, b in zip(partitioner.cores, partitioner.cores[1:]):
            if a.contig == b.contig:
                assert a.end == b.start

    def test_invalid_params(self):
        with pytest.raises(PartitioningError):
            OverlappingRangePartitioner(HEADER, 0, 10)
        with pytest.raises(PartitioningError):
            OverlappingRangePartitioner(HEADER, 100, -1)
