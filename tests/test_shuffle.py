"""Tests for the shuffle service (repro.shuffle).

Covers the byte plane bottom-up: canonical key hashing, codecs, the
segment wire format, the spill buffer, the segment store's verified
fetch path, total-order partitioning / skew detection, and finally the
engine-level contracts — byte-identical outputs across every executor x
codec combination, real post-compression byte accounting, and the chaos
gate for injected segment corruption.
"""

import random

import pytest

from repro.chaos.plan import CorruptSegment, Enospc, FaultPlan, parse_event
from repro.errors import (
    MapReduceError,
    PartitioningError,
    ShuffleCorruptionError,
    ShuffleError,
    StorageFullError,
)
from repro.hdfs.filesystem import Hdfs
from repro.io.faults import FaultIO
from repro.io.layer import LocalIO
from repro.io.policy import IoPolicy
from repro.mapreduce import counters as C
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobSpec, make_splits
from repro.mapreduce.policy import ExecutionPolicy
from repro.shuffle.codec import CODEC_NAMES, codec_for_id, get_codec
from repro.shuffle.config import DEFAULT_SHUFFLE, ShuffleConfig
from repro.shuffle.keys import canonical_key_bytes, stable_hash_partition
from repro.shuffle.merge import merge_sorted_runs_list
from repro.shuffle.segment import (
    HEADER_BYTES,
    decode_segment,
    encode_segment,
    segment_path,
    verify_segment,
)
from repro.shuffle.skew import detect_skew
from repro.shuffle.spill import SpillBuffer
from repro.shuffle.store import (
    DiskSegmentBackend,
    LocalSegmentBackend,
    SegmentStore,
    ShippedReplicaBackend,
)


class TestCanonicalKeys:
    def test_distinct_types_never_collide(self):
        keys = [None, True, False, 1, 0, "1", b"1", 1.0, (1,), ("1",)]
        encodings = [canonical_key_bytes(k) for k in keys]
        assert len(set(encodings)) == len(encodings)

    def test_nested_tuples_are_framed(self):
        # Length framing keeps ("ab", "c") distinct from ("a", "bc").
        assert canonical_key_bytes(("ab", "c")) != canonical_key_bytes(
            ("a", "bc")
        )
        assert canonical_key_bytes((("a",), "b")) != canonical_key_bytes(
            ("a", ("b",))
        )

    def test_equal_keys_encode_identically(self):
        assert canonical_key_bytes(("P", "chr1", 500)) == canonical_key_bytes(
            ("P", "chr1", 500)
        )

    def test_non_canonical_keys_rejected(self):
        for bad in ([1, 2], {"a": 1}, {1, 2}, object()):
            with pytest.raises(PartitioningError):
                canonical_key_bytes(bad)
        with pytest.raises(PartitioningError):
            stable_hash_partition(["chr1", 5], 4)

    def test_partition_in_range_and_stable(self):
        for key in ("chr1", ("P", "q0007", 1), 42, b"\x00\xff"):
            first = stable_hash_partition(key, 7)
            assert 0 <= first < 7
            assert stable_hash_partition(key, 7) == first


class TestCodecs:
    def test_roundtrip_every_codec(self):
        payload = b"ACGT" * 500 + b"\x00binary\xff"
        for name in CODEC_NAMES:
            codec = get_codec(name)
            packed = codec.compress(payload)
            assert codec.decompress(packed) == payload

    def test_raw_is_passthrough(self):
        raw = get_codec("raw")
        assert raw.compress(b"data") == b"data"

    def test_zlib_compresses_repetitive_data(self):
        payload = b"ACGT" * 2000
        assert len(get_codec("zlib-1").compress(payload)) < len(payload) / 2

    def test_unknown_codec_rejected(self):
        with pytest.raises(ShuffleError):
            get_codec("snappy")
        with pytest.raises(ShuffleError):
            codec_for_id(250)

    def test_garbage_decompress_raises_shuffle_error(self):
        with pytest.raises(ShuffleError):
            get_codec("zlib-1").decompress(b"not a zlib stream")


class TestSegmentFormat:
    RECORDS = [("chr1", 100), ("chr1", 250), ("chr2", 10)]

    def test_roundtrip_and_accounting(self):
        for name in CODEC_NAMES:
            encoded = encode_segment(self.RECORDS, get_codec(name))
            assert encoded.records == 3
            decoded = decode_segment(encoded.blob)
            assert decoded.records == self.RECORDS
            assert decoded.record_count == 3
            assert decoded.raw_bytes == encoded.raw_bytes
            assert decoded.blob_bytes == len(encoded.blob)
            assert decoded.codec_name == name

    def test_empty_segment_roundtrips(self):
        encoded = encode_segment([], get_codec("raw"))
        assert decode_segment(encoded.blob).records == []

    def test_truncated_blob_is_corruption(self):
        with pytest.raises(ShuffleCorruptionError):
            decode_segment(b"GS")
        blob = encode_segment(self.RECORDS, get_codec("raw")).blob
        with pytest.raises(ShuffleCorruptionError):
            decode_segment(blob[:-3])

    def test_payload_bitflip_fails_crc(self):
        blob = bytearray(encode_segment(self.RECORDS, get_codec("zlib-1")).blob)
        blob[HEADER_BYTES] ^= 0xFF
        with pytest.raises(ShuffleCorruptionError):
            decode_segment(bytes(blob))

    def test_magic_bitflip_is_shuffle_error(self):
        blob = bytearray(encode_segment(self.RECORDS, get_codec("raw")).blob)
        blob[0] ^= 0xFF
        with pytest.raises(ShuffleError):
            decode_segment(bytes(blob))

    def test_the_crc_covers_the_header(self):
        """Every header byte past the magic is checked: a flip in the
        codec id, count or sizes is corruption, found without decoding."""
        blob = encode_segment(self.RECORDS, get_codec("zlib-1")).blob
        for offset in range(5, HEADER_BYTES):
            rotted = bytearray(blob)
            rotted[offset] ^= 0x01
            with pytest.raises(ShuffleCorruptionError):
                verify_segment(bytes(rotted))
        assert verify_segment(blob)[:3] == (
            CODEC_NAMES.index("zlib-1"), 3, decode_segment(blob).raw_bytes
        )

    def test_segment_paths_are_canonical(self):
        assert segment_path("round2-cleaning", 3, 11) == (
            "/shuffle/round2-cleaning/map-00003/seg-00011.bin"
        )


class TestMerge:
    def test_merge_equals_stable_sort_of_concatenation(self):
        # The ordering contract: k-way merging runs spilled in emit
        # order must equal a stable sort over the emit-ordered stream.
        runs = [
            [("b", 1), ("b", 2), ("c", 1)],
            [("a", 1), ("b", 3)],
            [("a", 2), ("c", 2)],
        ]
        merged = merge_sorted_runs_list(runs, key=lambda kv: kv[0])
        flat = [kv for run in runs for kv in run]
        assert merged == sorted(flat, key=lambda kv: kv[0])

    def test_empty_runs_are_fine(self):
        assert merge_sorted_runs_list([], key=lambda x: x) == []
        assert merge_sorted_runs_list([[], [1], []], key=lambda x: x) == [1]


class TestSpillBuffer:
    @staticmethod
    def _buffer(spill_records=30, partitions=2, track_keys=0):
        return SpillBuffer(
            num_partitions=partitions,
            partitioner=stable_hash_partition,
            sort_key=lambda k: k,
            spill_records=spill_records,
            track_keys=track_keys,
        )

    def test_spill_count_matches_run_count(self):
        buffer = self._buffer(spill_records=30)
        for i in range(100):
            buffer.add(f"k{i:03d}", i)
        spilled = buffer.finish(get_codec("raw"))
        assert spilled.spills == 4  # ceil(100 / 30)

    def test_small_input_counts_one_spill(self):
        buffer = self._buffer(spill_records=1000)
        buffer.add("a", 1)
        assert buffer.finish(get_codec("raw")).spills == 1

    def test_segments_hold_sorted_partitioned_records(self):
        buffer = self._buffer(spill_records=5, partitions=3)
        keys = [f"key-{i:02d}" for i in range(40)]
        for i, key in enumerate(keys):
            buffer.add(key, i)
        spilled = buffer.finish(get_codec("zlib-6"))
        assert len(spilled.segments) == 3
        seen = []
        for partition, segment in enumerate(spilled.segments):
            records = decode_segment(segment.blob).records
            assert [k for k, _ in records] == sorted(k for k, _ in records)
            for key, _ in records:
                assert stable_hash_partition(key, 3) == partition
            seen.extend(records)
        assert sorted(seen) == sorted(zip(keys, range(40)))
        assert spilled.partition_records == [
            len(decode_segment(s.blob).records) for s in spilled.segments
        ]

    def test_out_of_range_partitioner_rejected(self):
        buffer = SpillBuffer(
            num_partitions=2, partitioner=lambda key, n: 5,
            sort_key=lambda k: k, spill_records=10,
        )
        with pytest.raises(ShuffleError):
            buffer.add("k", 1)

    def test_key_tracking_ranks_heaviest_first(self):
        buffer = self._buffer(partitions=1, track_keys=2)
        for _ in range(5):
            buffer.add("hot", 1)
        buffer.add("cold", 1)
        buffer.add("warm", 1)
        buffer.add("warm", 1)
        spilled = buffer.finish(get_codec("raw"))
        assert spilled.key_counts[0] == [("hot", 5), ("warm", 2)]


class TestSpillRunIntegrity:
    """A run spilled to disk is a segment frame: rot in the run file
    fails the map task with a typed error, never a wrong segment."""

    def test_bit_flips_in_a_spill_run_raise_only_corruption(self, tmp_path):
        rng = random.Random("spill-run-flips")
        for trial in range(200):
            buffer = SpillBuffer(
                2, stable_hash_partition, None, 4,
                spill_io=LocalIO(IoPolicy(fsync=False)),
                spill_dirs=(str(tmp_path / f"t{trial}"),),
            )
            buffer.add_all((f"k{i % 5}", i) for i in range(6))
            [path] = [run for run in buffer._runs if isinstance(run, str)]
            with open(path, "rb") as handle:
                data = bytearray(handle.read())
            bit = rng.randrange(len(data) * 8)
            data[bit >> 3] ^= 1 << (bit & 7)
            with open(path, "wb") as handle:
                handle.write(data)
            with pytest.raises(ShuffleCorruptionError):
                buffer.finish(get_codec("raw"))


class TestSegmentStore:
    RECORDS = [("k1", "v1"), ("k2", "v2")]

    def _store_with_segment(self, replicas=3):
        store = SegmentStore(LocalSegmentBackend(replicas=replicas))
        blob = encode_segment(self.RECORDS, get_codec("zlib-1")).blob
        store.put_map(["/shuffle/j/map-00000/seg-00000.bin"], [blob])
        return store, "/shuffle/j/map-00000/seg-00000.bin"

    def test_clean_fetch(self):
        store, path = self._store_with_segment()
        fetch = store.fetch(path, retries=2)
        assert fetch.segment.records == self.RECORDS
        assert fetch.crc_failures == 0
        assert fetch.refetches == 0

    def test_refetch_fails_over_past_corrupt_replica(self):
        store, path = self._store_with_segment()
        store.corrupt(path, replica_index=0)
        fetch = store.fetch(path, retries=2)
        assert fetch.segment.records == self.RECORDS
        assert fetch.crc_failures == 1
        assert fetch.refetches == 1

    def test_all_replicas_corrupt_raises(self):
        store, path = self._store_with_segment(replicas=2)
        store.corrupt(path, replica_index=0)
        store.corrupt(path, replica_index=1)
        with pytest.raises(ShuffleCorruptionError):
            store.fetch(path, retries=3)

    def test_no_retries_budget_surfaces_corruption(self):
        store, path = self._store_with_segment()
        store.corrupt(path, replica_index=0)
        with pytest.raises(ShuffleCorruptionError):
            store.fetch(path, retries=0)

    def test_hdfs_backend_fetch_and_corruption(self):
        fs = Hdfs(["n0", "n1", "n2"], replication=3)
        store = SegmentStore.for_filesystem(fs)
        blob = encode_segment(self.RECORDS, get_codec("raw")).blob
        path = segment_path("job", 0, 0)
        store.put_map([path], [blob])
        store.corrupt(path, replica_index=0)
        fetch = store.fetch(path, retries=2)
        assert fetch.segment.records == self.RECORDS
        assert fetch.crc_failures == 1
        store.delete(path)
        assert not fs.exists(path)

    def test_snapshot_stops_at_the_first_verified_replica(self):
        store, path = self._store_with_segment()
        clean = store.snapshot([path], attempts=3)[path]
        assert len(clean) == 1
        store.corrupt(path, replica_index=0)
        chain = store.snapshot([path], attempts=3)[path]
        assert len(chain) == 2 and chain[1] == clean[0]
        store.corrupt(path, replica_index=1)
        store.corrupt(path, replica_index=2)
        assert len(store.snapshot([path], attempts=3)[path]) == 3

    def test_for_filesystem_falls_back_to_local(self):
        store = SegmentStore.for_filesystem(None)
        assert isinstance(store.backend, LocalSegmentBackend)


class TestDiskMapFile:
    """One map task's segments live in one replica file per replica."""

    RECORDS = [[("k%d" % r, r)] * (r + 1) for r in range(3)]
    PATHS = [segment_path("j", 0, r) for r in range(3)]
    MAP_FILE = "/shuffle/j/map-00000/seg-file.out"

    def _blobs(self):
        return [
            encode_segment(records, get_codec("zlib-1")).blob
            for records in self.RECORDS
        ]

    def _store(self, tmp_path, io=None, dirs=("d0",), **kwargs):
        backend = DiskSegmentBackend(
            io or LocalIO(), [str(tmp_path / d) for d in dirs], **kwargs
        )
        store = SegmentStore(backend)
        store.put_map(self.PATHS, self._blobs())
        return store

    def test_one_replica_file_per_map_task_holds_every_frame(self, tmp_path):
        store = self._store(tmp_path)
        io = store.backend.io
        assert io.stats.writes == 2
        assert store.paths() == [self.MAP_FILE]
        replica = tmp_path / "d0" / "shuffle/j/map-00000/seg-file.out.r1"
        assert replica.read_bytes() == b"".join(self._blobs())
        chains = store.snapshot(self.PATHS, attempts=2)
        assert io.stats.reads == 1
        assert [chains[path] for path in self.PATHS] == \
            [[blob] for blob in self._blobs()]

    def test_one_rotten_frame_fails_over_only_its_reducer(self, tmp_path):
        store = self._store(tmp_path)
        victim = store.corrupt(self.PATHS[1], replica_index=0)
        assert victim == f"seg-file.out.r0@{len(self._blobs()[0])}"
        io = store.backend.io
        reads = io.stats.reads
        chains = store.snapshot(self.PATHS, attempts=2)
        # Once per replica attempt: replica 0 whole, then replica 1 for
        # the one frame that failed its CRC.
        assert io.stats.reads - reads == 2
        assert [len(chains[path]) for path in self.PATHS] == [1, 2, 1]
        shipped = SegmentStore(ShippedReplicaBackend(chains))
        fetches = [shipped.fetch(path, retries=1) for path in self.PATHS]
        assert [f.segment.records for f in fetches] == self.RECORDS
        assert [(f.crc_failures, f.refetches) for f in fetches] == \
            [(0, 0), (1, 1), (0, 0)]

    def test_a_rotten_length_field_spares_sibling_frames(self, tmp_path):
        store = self._store(tmp_path)
        replica = tmp_path / "d0" / "shuffle/j/map-00000/seg-file.out.r0"
        rotten = bytearray(replica.read_bytes())
        # Frame 0's packed-length field (header bytes 14-17).
        rotten[14] ^= 0xFF
        replica.write_bytes(bytes(rotten))
        chains = store.snapshot(self.PATHS, attempts=2)
        assert [len(chains[path]) for path in self.PATHS] == [2, 1, 1]

    def test_one_corrupt_frame_in_a_job_fails_over_one_reducer(
        self, tmp_path
    ):
        clean = _run_wordcount(ExecutionPolicy.serial(), DEFAULT_SHUFFLE)
        spill = str(tmp_path / "spill")
        policy = ExecutionPolicy(
            io=IoPolicy(spill_dirs=(spill,)),
            fault_plan=FaultPlan(seed=0, events=(CorruptSegment(
                "wordcount", map_index=1, reducer=2, replica_index=0,
            ),)),
        )
        chaos = _run_wordcount(policy, DEFAULT_SHUFFLE)
        assert chaos.all_outputs() == clean.all_outputs()
        assert chaos.counters.get(C.SHUFFLE_CRC_FAILURES) == 1
        assert chaos.counters.get(C.SHUFFLE_FETCH_RETRIES) == 1
        [event] = chaos.history.events_of("segment_corrupted")
        assert event["path"] == segment_path("wordcount", 1, 2)
        assert event["replica"].startswith("seg-file.out.r0@")
        assert DiskSegmentBackend(LocalIO(), [spill]).paths() == []

    def test_enospc_falls_back_per_map_file(self, tmp_path):
        primary = str(tmp_path / "primary")
        io = FaultIO(
            IoPolicy(), events=(Enospc(0, path_glob=primary + "/*"),)
        )
        store = self._store(tmp_path, io, dirs=("primary", "secondary"))
        # Both replicas of the one map file degraded, not one per frame.
        assert (io.stats.fallback_spills, io.stats.writes) == (2, 2)
        assert store.snapshot(self.PATHS, attempts=1)[self.PATHS[2]] == \
            [self._blobs()[2]]

    def test_replicas_shed_per_map_file(self, tmp_path):
        size = sum(map(len, self._blobs()))
        io = FaultIO(IoPolicy(), events=(
            Enospc(size, path_glob=str(tmp_path / "d0") + "/*"),
        ))
        store = self._store(tmp_path, io, replicas=3, min_replicas=1)
        assert (io.stats.replicas_shed, io.stats.writes) == (2, 1)
        assert store.backend.read(self.PATHS[1], 2) == self._blobs()[1]

    def test_a_put_below_min_replicas_is_cleaned_up(self, tmp_path):
        size = sum(map(len, self._blobs()))
        io = FaultIO(IoPolicy(), events=(
            Enospc(size, path_glob=str(tmp_path / "d0") + "/*"),
        ))
        store = SegmentStore(DiskSegmentBackend(
            io, [str(tmp_path / "d0")], replicas=2, min_replicas=2
        ))
        with pytest.raises(StorageFullError):
            store.put_map(self.PATHS, self._blobs())
        # Replica 0 landed before the disk filled; the engine's cleanup
        # (every path of the task) still finds it.
        assert store.paths() == [self.MAP_FILE]
        store.delete_all(self.PATHS)
        assert store.paths() == []

    def test_the_map_file_goes_with_its_last_segment(self, tmp_path):
        store = self._store(tmp_path, dirs=("d0", "d1"))
        io = store.backend.io
        store.delete_all(self.PATHS[:2])
        assert io.stats.unlinks == 0
        assert store.paths() == [self.MAP_FILE]
        assert store.fetch(self.PATHS[2]).segment.records == self.RECORDS[2]
        with pytest.raises(ShuffleError, match="no such segment"):
            store.fetch(self.PATHS[0])
        store.delete_all(self.PATHS)
        # Every (replica, directory) candidate, once.
        assert io.stats.unlinks == 2 * 2
        assert store.paths() == []

    def test_no_map_file_outlives_any_job(self, tmp_path):
        spill = str(tmp_path / "spill")
        leftover = DiskSegmentBackend(LocalIO(), [spill])
        for events, fails in [
            ((), None),
            ((CorruptSegment("wordcount", 0, 0, 0),), None),
            (tuple(CorruptSegment("wordcount", 0, 0, r) for r in range(2)),
             MapReduceError),
            ((CorruptSegment("wordcount", 9, 0, 0),), MapReduceError),
            # Replica 0 of map 0 lands, replica 1 cannot: below
            # min_replicas, the put raises with one file on disk.
            ((Enospc(0, path_glob="*.r1"),), StorageFullError),
        ]:
            policy = ExecutionPolicy(
                io=IoPolicy(spill_dirs=(spill,), min_replicas=2),
                fault_plan=FaultPlan(seed=0, events=events),
            )
            shuffle = ShuffleConfig(fetch_retries=1)
            if fails:
                with pytest.raises(fails):
                    _run_wordcount(policy, shuffle)
            else:
                _run_wordcount(policy, shuffle)
            assert leftover.paths() == [], events


class TestShuffleConfig:
    def test_defaults(self):
        assert DEFAULT_SHUFFLE.codec == "raw"
        assert DEFAULT_SHUFFLE.fetch_retries >= 1

    def test_invalid_codec_rejected(self):
        with pytest.raises(ShuffleError):
            ShuffleConfig(codec="lz4")

    def test_invalid_retries_rejected(self):
        with pytest.raises(ShuffleError):
            ShuffleConfig(fetch_retries=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_SHUFFLE.codec = "zlib-1"


class TestSkewDetection:
    def test_balanced_load_is_not_skewed(self):
        report = detect_skew([[10, 11], [9, 10]], [None, None])
        assert not report.is_skewed
        assert report.hot_partitions == []
        assert report.imbalance < 1.1

    def test_hot_partition_detected_with_heavy_keys(self):
        report = detect_skew(
            [[100, 5, 4], [80, 6, 5]],
            [[[("dup", 90), ("x", 10)], [], []], [[("dup", 70)], [], []]],
        )
        assert report.is_skewed
        assert report.hot_partitions == [0]
        assert report.heavy_keys[0][0] == ("dup", 160)
        assert report.imbalance > 1.5
        assert any("hot partition 0" in line for line in report.describe())

    def test_empty_tallies(self):
        report = detect_skew([], [])
        assert not report.is_skewed
        assert report.imbalance == 1.0


def _kv_mapper(payload, ctx):
    for token in payload.split():
        ctx.emit(token, 1)


def _count_reducer(key, values, ctx):
    ctx.emit(key, sum(values))


SPLIT_TEXT = [
    "gattaca gattaca ref alt ref",
    "alt alt gattaca depth ref",
    "ref ref depth qual gattaca",
]


def _run_wordcount(policy, shuffle, filesystem=None):
    engine = MapReduceEngine(
        nodes=["n0", "n1"], policy=policy, filesystem=filesystem
    )
    job = JobSpec(
        "wordcount", _kv_mapper, _count_reducer, num_reducers=3,
        io_sort_records=4, shuffle=shuffle,
    )
    return engine.run(job, make_splits(SPLIT_TEXT))


class TestEngineShuffleIntegration:
    def test_outputs_identical_across_executors_and_codecs(self):
        policies = [
            ExecutionPolicy.serial(),
            ExecutionPolicy.pooled(max_workers=2),
        ]
        baseline = _run_wordcount(
            ExecutionPolicy.serial(), DEFAULT_SHUFFLE
        ).all_outputs()
        for policy in policies:
            for codec in CODEC_NAMES:
                result = _run_wordcount(policy, ShuffleConfig(codec=codec))
                assert result.all_outputs() == baseline, (
                    f"{policy.executor}/{codec} diverged"
                )

    def test_shuffled_bytes_measure_real_segment_bytes(self):
        raw = _run_wordcount(ExecutionPolicy.serial(), DEFAULT_SHUFFLE)
        packed = _run_wordcount(
            ExecutionPolicy.serial(), ShuffleConfig(codec="zlib-6")
        )
        # Raw counts match; only the wire bytes change with the codec.
        assert (
            raw.counters.get(C.SHUFFLE_RAW_BYTES)
            == packed.counters.get(C.SHUFFLE_RAW_BYTES)
            > 0
        )
        assert (
            packed.counters.get(C.SHUFFLED_BYTES)
            < raw.counters.get(C.SHUFFLED_BYTES)
        )
        assert raw.counters.get(C.SHUFFLE_SEGMENTS) == 3 * 3
        assert raw.counters.get(C.SHUFFLE_CRC_FAILURES) == 0

    def test_skew_report_attached_to_job_result(self):
        result = _run_wordcount(ExecutionPolicy.serial(), DEFAULT_SHUFFLE)
        assert result.skew is not None
        assert len(result.skew.partition_records) == 3
        assert sum(result.skew.partition_records) == result.counters.get(
            C.SHUFFLED_RECORDS
        )

    def test_segments_cleaned_up_from_filesystem(self):
        fs = Hdfs(["n0", "n1", "n2"], replication=2)
        _run_wordcount(ExecutionPolicy.serial(), DEFAULT_SHUFFLE,
                       filesystem=fs)
        assert fs.list_dir("/shuffle") == []

    def _chaos_policy(self, events):
        return ExecutionPolicy(
            fault_plan=FaultPlan(seed=0, events=tuple(events))
        )

    def test_single_replica_corruption_is_absorbed(self):
        fs = Hdfs(["n0", "n1", "n2"], replication=3)
        clean = _run_wordcount(ExecutionPolicy.serial(), DEFAULT_SHUFFLE)
        policy = self._chaos_policy(
            [CorruptSegment("wordcount", map_index=0, reducer=0,
                            replica_index=0)]
        )
        chaos = _run_wordcount(policy, DEFAULT_SHUFFLE, filesystem=fs)
        assert chaos.all_outputs() == clean.all_outputs()
        assert chaos.counters.get(C.SHUFFLE_CRC_FAILURES) == 1
        assert chaos.counters.get(C.SHUFFLE_FETCH_RETRIES) == 1
        events = chaos.history.events_of("segment_corrupted")
        assert len(events) == 1
        assert events[0]["path"] == segment_path("wordcount", 0, 0)

    def test_corruption_beyond_retry_budget_fails_the_job(self):
        fs = Hdfs(["n0", "n1"], replication=2)
        policy = self._chaos_policy([
            CorruptSegment("wordcount", map_index=0, reducer=0,
                           replica_index=r)
            for r in range(2)
        ])
        shuffle = ShuffleConfig(fetch_retries=1)
        with pytest.raises(MapReduceError):
            _run_wordcount(policy, shuffle, filesystem=fs)

    def test_events_for_other_jobs_are_ignored(self):
        fs = Hdfs(["n0", "n1"], replication=2)
        policy = self._chaos_policy(
            [CorruptSegment("another-job", map_index=0, reducer=0)]
        )
        result = _run_wordcount(policy, DEFAULT_SHUFFLE, filesystem=fs)
        assert result.counters.get(C.SHUFFLE_CRC_FAILURES) == 0
        assert result.history.events_of("segment_corrupted") == []

    def test_out_of_range_event_is_an_error(self):
        fs = Hdfs(["n0", "n1"], replication=2)
        policy = self._chaos_policy(
            [CorruptSegment("wordcount", map_index=99, reducer=0)]
        )
        with pytest.raises(MapReduceError):
            _run_wordcount(policy, DEFAULT_SHUFFLE, filesystem=fs)


class TestSegmentRotSweep:
    """Rot anywhere in a stored segment's first replica, header bytes
    included, is caught by the frame CRC and absorbed by one refetch —
    the same outputs and counters on both executors."""

    JOB = JobSpec("sweep", _kv_mapper, _count_reducer, num_reducers=1)
    #: Every map task stores the same segment; map *i*'s gets byte *i*
    #: of its first replica flipped, so one job sweeps every offset.
    SIZE = len(encode_segment([("dog", 1), ("the", 1)], get_codec("raw")).blob)
    SPLITS = make_splits(["the dog"] * SIZE)

    @staticmethod
    def _policy(executor, events):
        return ExecutionPolicy(
            executor=executor, max_workers=2,
            fault_plan=FaultPlan(seed=0, events=tuple(events)),
        )

    @staticmethod
    def _flip_byte_of_the_map_index(backend, path, replica_index=0):
        offset = int(path.split("/map-")[1].split("/")[0])
        copies = backend._copies[path]
        rotted = bytearray(copies[replica_index])
        rotted[offset] ^= 0xFF
        copies[replica_index] = bytes(rotted)
        return f"copy-{replica_index}"

    @pytest.mark.parametrize("executor", ["serial", "pool"])
    def test_every_byte_flip_of_the_first_replica_is_absorbed(
        self, executor, monkeypatch
    ):
        clean = MapReduceEngine(nodes=["n0"]).run(self.JOB, self.SPLITS)
        monkeypatch.setattr(LocalSegmentBackend, "corrupt",
                            self._flip_byte_of_the_map_index)
        policy = self._policy(executor, [
            CorruptSegment("sweep", map_index=m, reducer=0, replica_index=0)
            for m in range(self.SIZE)
        ])
        with MapReduceEngine(nodes=["n0"], policy=policy) as engine:
            result = engine.run(self.JOB, self.SPLITS)
        assert result.all_outputs() == clean.all_outputs()
        assert result.counters.as_dict() == dict(clean.counters.as_dict(), **{
            C.SHUFFLE_CRC_FAILURES: self.SIZE,
            C.SHUFFLE_FETCH_RETRIES: self.SIZE,
        })

    @pytest.mark.parametrize("executor", ["serial", "pool"])
    def test_every_replica_rotten_fails_the_job(self, executor):
        policy = self._policy(executor, [
            CorruptSegment("sweep", map_index=0, reducer=0, replica_index=r)
            for r in range(3)
        ])
        with pytest.raises(MapReduceError, match="no clean replica"):
            with MapReduceEngine(nodes=["n0"], policy=policy) as engine:
                engine.run(self.JOB, self.SPLITS)


class TestChaosPlanParsing:
    def test_parse_corrupt_segment_specs(self):
        event = parse_event("round2-cleaning:1:2:0", "corrupt-segment")
        assert event == CorruptSegment(
            "round2-cleaning", map_index=1, reducer=2, replica_index=0
        )
        assert parse_event("jobx", "corrupt-segment") == CorruptSegment("jobx")

    def test_plan_filters_segment_events_by_job(self):
        plan = FaultPlan(seed=1, events=(
            CorruptSegment("a", map_index=0, reducer=0),
            CorruptSegment("b", map_index=1, reducer=1),
        ))
        assert [e.job for e in plan.segment_events("a")] == ["a"]
        assert plan.segment_events("c") == []
