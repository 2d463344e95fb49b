"""Unit tests for the HDFS simulation and the BAM storage substrate."""

import random

import pytest

from repro.errors import BamError, HdfsError
from repro.formats import flags as F
from repro.formats.bam import bam_bytes, read_bam
from repro.formats.cigar import Cigar
from repro.formats.sam import SamHeader, SamRecord
from repro.hdfs.bam_storage import upload_bam
from repro.hdfs.blocks import split_into_blocks
from repro.hdfs.filesystem import Hdfs
from repro.hdfs.placement import BlockPlacementPolicy, LogicalBlockPlacementPolicy


def make_hdfs(block_size=2048, nodes=4):
    return Hdfs(
        [f"n{i}" for i in range(nodes)], replication=2, block_size=block_size
    )


def make_records(n):
    rng = random.Random(42)
    return [
        SamRecord(
            f"r{i:05d}", F.SamFlags(0), "chr1", rng.randrange(1, 8000), 60,
            Cigar.parse("50M"), seq="A" * 50, qual="I" * 50,
        )
        for i in range(n)
    ]


class TestBlocks:
    def test_split_exact(self):
        assert split_into_blocks(b"abcdef", 2) == [b"ab", b"cd", b"ef"]

    def test_split_remainder(self):
        assert split_into_blocks(b"abcde", 2) == [b"ab", b"cd", b"e"]

    def test_split_empty(self):
        assert split_into_blocks(b"", 4) == [b""]

    def test_split_bad_size(self):
        with pytest.raises(HdfsError):
            split_into_blocks(b"abc", 0)


class TestPlacement:
    def test_default_spreads_blocks(self):
        policy = BlockPlacementPolicy(replication=2)
        placements = policy.place_file("/f", 4, ["a", "b", "c"])
        primaries = [p[0] for p in placements]
        assert len(set(primaries)) > 1
        assert all(len(p) == 2 for p in placements)

    def test_logical_pins_one_node(self):
        policy = LogicalBlockPlacementPolicy(replication=2)
        placements = policy.place_file("/part-1", 5, ["a", "b", "c"])
        assert len({p[0] for p in placements}) == 1

    def test_logical_different_files_spread(self):
        policy = LogicalBlockPlacementPolicy(replication=1)
        owners = {
            policy.place_file(f"/part-{i}", 1, ["a", "b", "c", "d"])[0][0]
            for i in range(24)
        }
        assert len(owners) > 1

    def test_replication_capped_by_nodes(self):
        policy = BlockPlacementPolicy(replication=5)
        placements = policy.place_file("/f", 1, ["a", "b"])
        assert len(placements[0]) == 2

    def test_no_nodes_rejected(self):
        with pytest.raises(HdfsError):
            BlockPlacementPolicy().place_file("/f", 1, [])


class TestHdfs:
    def test_put_get_roundtrip(self):
        hdfs = make_hdfs()
        data = bytes(range(256)) * 40
        hdfs.put("/a/b", data)
        assert hdfs.get("/a/b") == data

    def test_blocks_created(self):
        hdfs = make_hdfs(block_size=1000)
        hdfs.put("/f", b"x" * 3500)
        assert len(hdfs.blocks_of("/f")) == 4
        assert hdfs.block_offsets("/f") == [0, 1000, 2000, 3000]

    def test_duplicate_path_rejected(self):
        hdfs = make_hdfs()
        hdfs.put("/f", b"x")
        with pytest.raises(HdfsError):
            hdfs.put("/f", b"y")

    def test_missing_file(self):
        with pytest.raises(HdfsError):
            make_hdfs().get("/nope")

    def test_delete_releases_blocks(self):
        hdfs = make_hdfs()
        hdfs.put("/f", b"x" * 5000)
        hdfs.delete("/f")
        assert not hdfs.exists("/f")
        assert all(v == 0 for v in hdfs.used_bytes_by_node().values())

    def test_list_dir(self):
        hdfs = make_hdfs()
        hdfs.put("/d/a", b"1")
        hdfs.put("/d/b", b"2")
        hdfs.put("/e/c", b"3")
        assert hdfs.list_dir("/d") == ["/d/a", "/d/b"]

    def test_replication_tracked(self):
        hdfs = make_hdfs()
        hdfs.put("/f", b"x" * 100)
        block = hdfs.blocks_of("/f")[0]
        assert len(hdfs.nodes_with_replica(block.block_id)) == 2


class TestBamStorage:
    def test_distributed_roundtrip_small_blocks(self):
        """A BAM whose chunks straddle many block edges reassembles
        byte-exact from its blocks."""
        hdfs = make_hdfs(block_size=1500)
        header = SamHeader(sequences=[("chr1", 10000)])
        records = make_records(400)
        upload_bam(hdfs, "/data.bam", header, records, chunk_bytes=600)
        assert len(hdfs.blocks_of("/data.bam")) > 1
        got_header, got_records = read_bam(hdfs.get("/data.bam"))
        assert got_header == header
        assert got_records == records

    def test_header_fetch(self):
        hdfs = make_hdfs()
        header = SamHeader(sequences=[("chr1", 10000)], sort_order="coordinate")
        upload_bam(hdfs, "/h.bam", header, make_records(10))
        assert read_bam(hdfs.get("/h.bam"))[0] == header

    def test_header_fetch_rejects_non_bam(self):
        hdfs = make_hdfs()
        hdfs.put("/junk", b"this is not a bam" * 10)
        with pytest.raises(BamError):
            read_bam(hdfs.get("/junk"))

    def test_logical_partitions_colocated(self):
        hdfs = make_hdfs(block_size=800)
        header = SamHeader(sequences=[("chr1", 10000)])
        records = make_records(300)
        paths = ["/parts/part-00000.bam", "/parts/part-00001.bam"]
        for path, part in zip(paths, [records[:150], records[150:]]):
            upload_bam(hdfs, path, header, part, logical_partition=True,
                       chunk_bytes=400)
        for path in paths:
            primaries = {b.replicas[0] for b in hdfs.blocks_of(path)}
            assert len(primaries) == 1

    def test_logical_partitions_roundtrip(self):
        hdfs = make_hdfs(block_size=800)
        header = SamHeader(sequences=[("chr1", 10000)])
        records = make_records(100)
        paths = ["/parts/part-00000.bam", "/parts/part-00001.bam"]
        for path, part in zip(paths, [records[:40], records[40:]]):
            upload_bam(hdfs, path, header, part, logical_partition=True)
        loaded = []
        for path in paths:
            _, part = read_bam(hdfs.get(path))
            loaded.extend(part)
        assert loaded == records

    @pytest.mark.parametrize("block_size", [300, 512, 1024, 4096, 100000])
    def test_roundtrip_any_block_size(self, block_size):
        hdfs = make_hdfs(block_size=block_size)
        header = SamHeader(sequences=[("chr1", 10000)])
        records = make_records(120)
        upload_bam(hdfs, "/t.bam", header, records, chunk_bytes=450)
        _, got = read_bam(hdfs.get("/t.bam"))
        assert got == records
