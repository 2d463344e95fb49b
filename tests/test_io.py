"""Durable-I/O layer: contract, fault injection, crash-consistency.

Covers the `repro.io` stack bottom-up: the frozen IoPolicy, the
LocalIO durability contract (atomic writes, self-healing appends,
idempotent unlinks, transient retry), FaultIO's seeded torn-write /
ENOSPC / EIO / short-read / slow-I/O injection, the degraded-mode
spill routing (fallback directories, replica shedding), the chaos
grammar for the four new event kinds, and the headline crash-
consistency fuzz gate over every durable component.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.chaos.plan import (
    Eio,
    Enospc,
    FaultPlan,
    SlowIo,
    TornWrite,
    parse_event,
)
from repro.errors import (
    DurableIoError,
    IoTimeoutError,
    MapReduceError,
    ShuffleError,
    StorageFullError,
)
from repro.io.crashfuzz import (
    COMPONENTS,
    CrashPoint,
    RecordingIO,
    crash_points,
    disk_image,
    materialize,
    run_fuzz_gate,
)
from repro.io.faults import FaultIO, ShortRead, build_io
from repro.io.layer import TMP_SUFFIX, IoStats, LocalIO
from repro.io.policy import DEFAULT_IO_POLICY, IoPolicy
from repro.mapreduce.policy import ExecutionPolicy
from repro.pipeline.checkpoint import LocalDirectoryBackend
from repro.pipeline.wal import FrameLog, JobWal
from repro.shuffle.store import DiskSegmentBackend, SegmentStore


# ---------------------------------------------------------------------------
# IoPolicy
# ---------------------------------------------------------------------------
class TestIoPolicy:
    def test_defaults_are_frozen_and_sane(self):
        policy = IoPolicy()
        assert policy.retries == 2
        assert policy.fsync is True
        assert policy.spill_dirs == ()
        with pytest.raises(Exception):
            policy.retries = 5  # frozen dataclass

    def test_validation(self):
        with pytest.raises(DurableIoError):
            IoPolicy(retries=-1)
        with pytest.raises(DurableIoError):
            IoPolicy(op_timeout=-1.0)
        with pytest.raises(DurableIoError):
            IoPolicy(segment_replicas=0)
        with pytest.raises(DurableIoError):
            IoPolicy(min_replicas=3, segment_replicas=2)

    def test_spill_dirs_list_coerced_to_tuple(self):
        policy = IoPolicy(spill_dirs=["/a", "/b"])
        assert policy.spill_dirs == ("/a", "/b")

    def test_execution_policy_resolves_io(self):
        assert ExecutionPolicy().resolved_io() is DEFAULT_IO_POLICY
        custom = IoPolicy(retries=5)
        assert ExecutionPolicy(io=custom).resolved_io() is custom


# ---------------------------------------------------------------------------
# LocalIO contract
# ---------------------------------------------------------------------------
class TestLocalIO:
    def test_write_read_roundtrip(self, tmp_path):
        io = LocalIO()
        target = str(tmp_path / "deep" / "dir" / "blob.bin")
        io.write_atomic(target, b"hello")
        assert io.read_bytes(target) == b"hello"
        assert io.stats.writes == 1
        assert io.stats.fsyncs == 1
        assert io.stats.dir_fsyncs == 1
        assert io.stats.bytes_written == 5

    def test_read_missing_returns_none(self, tmp_path):
        io = LocalIO()
        assert io.read_bytes(str(tmp_path / "nope")) is None

    def test_write_atomic_leaves_no_temp(self, tmp_path):
        io = LocalIO()
        target = str(tmp_path / "blob.bin")
        io.write_atomic(target, b"x" * 100)
        assert not os.path.exists(target + TMP_SUFFIX)

    def test_append_durable(self, tmp_path):
        io = LocalIO()
        target = str(tmp_path / "log")
        io.append_durable(target, b"aa")
        io.append_durable(target, b"bb")
        assert io.read_bytes(target) == b"aabb"
        assert io.stats.appends == 2

    def test_unlink_idempotent(self, tmp_path):
        io = LocalIO()
        target = str(tmp_path / "gone")
        io.write_atomic(target, b"x")
        io.unlink(target)
        io.unlink(target)  # already missing: still fine
        assert io.stats.unlinks == 2
        assert not os.path.exists(target)

    def test_fsync_ordering_write_then_rename_then_dirsync(self, tmp_path):
        """S2 audit: temp fsync strictly before rename, dir sync after."""
        calls = []

        class SpyIO(LocalIO):
            def _os_write(self, tmp, path, data):
                super()._os_write(tmp, path, data)
                calls.append("write+fsync-tmp")

            def _os_fsync_dir(self, parent):
                calls.append("fsync-dir")
                super()._os_fsync_dir(parent)

        real_replace = os.replace

        def spying_replace(src, dst):
            calls.append("rename")
            return real_replace(src, dst)

        io = SpyIO()
        target = str(tmp_path / "ordered.bin")
        os_replace = os.replace
        os.replace = spying_replace
        try:
            io.write_atomic(target, b"payload")
        finally:
            os.replace = os_replace
        assert calls == ["write+fsync-tmp", "rename", "fsync-dir"]

    def test_kill_between_rename_and_dirsync_leaves_complete_file(
        self, tmp_path
    ):
        """S2: a crash after the rename but before the directory sync
        must leave the destination complete (old or new, never torn)."""

        class KilledAfterRename(LocalIO):
            def _os_fsync_dir(self, parent):
                raise KeyboardInterrupt("killed between rename and dirsync")

        target = str(tmp_path / "blob.bin")
        LocalIO().write_atomic(target, b"old-bytes")
        io = KilledAfterRename()
        with pytest.raises(KeyboardInterrupt):
            io.write_atomic(target, b"new-bytes")
        with open(target, "rb") as handle:
            content = handle.read()
        assert content in (b"old-bytes", b"new-bytes")
        # A later attempt through a healthy layer converges.
        LocalIO().write_atomic(target, b"new-bytes")
        assert LocalIO().read_bytes(target) == b"new-bytes"

    def test_nontransient_error_wraps_as_durable_io_error(self, tmp_path):
        class BrokenIO(LocalIO):
            def _os_write(self, tmp, path, data):
                raise OSError(errno.EACCES, "permission denied")

        io = BrokenIO()
        with pytest.raises(DurableIoError, match="after 1 attempt"):
            io.write_atomic(str(tmp_path / "x"), b"data")

    def test_transient_errors_exhaust_retry_budget(self, tmp_path):
        class AlwaysEio(LocalIO):
            def _os_write(self, tmp, path, data):
                raise OSError(errno.EIO, "dead disk")

        io = AlwaysEio(policy=IoPolicy(retries=2))
        with pytest.raises(DurableIoError, match="after 3 attempt"):
            io.write_atomic(str(tmp_path / "x"), b"data")
        assert io.stats.retries == 2
        assert io.stats.backoff_charged_seconds > 0

    def test_stats_as_dict_uses_io_prefix(self):
        stats = IoStats()
        stats.writes = 3
        stats.slow_seconds = 1.25
        out = stats.as_dict()
        assert out["io.writes"] == 3
        assert out["io.slow_seconds"] == 1.25
        assert set(out) == {f"io.{name}" for name in IoStats.FIELDS}


# ---------------------------------------------------------------------------
# FaultIO injection
# ---------------------------------------------------------------------------
class TestFaultIO:
    def test_eio_on_write_absorbed_by_retry(self, tmp_path):
        io = FaultIO(IoPolicy(retries=2), events=(Eio("write"),))
        target = str(tmp_path / "blob.bin")
        io.write_atomic(target, b"payload")
        assert io.read_bytes(target) == b"payload"
        assert io.stats.eio == 1
        assert io.stats.retries == 1
        assert io.stats.transient_errors == 1

    def test_eio_on_read_absorbed_by_retry(self, tmp_path):
        io = FaultIO(IoPolicy(retries=2), events=(Eio("read"),))
        target = str(tmp_path / "blob.bin")
        io.write_atomic(target, b"payload")
        assert io.read_bytes(target) == b"payload"
        assert io.stats.eio == 1

    def test_eio_nth_targets_a_later_op(self, tmp_path):
        io = FaultIO(IoPolicy(retries=2), events=(Eio("write", nth=2),))
        io.write_atomic(str(tmp_path / "a"), b"1")  # unscathed
        assert io.stats.eio == 0
        io.write_atomic(str(tmp_path / "b"), b"2")  # injected, retried
        assert io.stats.eio == 1
        assert io.read_bytes(str(tmp_path / "b")) == b"2"

    def test_eio_without_retry_budget_is_terminal(self, tmp_path):
        io = FaultIO(IoPolicy(retries=0), events=(Eio("write"),))
        with pytest.raises(DurableIoError):
            io.write_atomic(str(tmp_path / "x"), b"data")

    def test_torn_append_healed_before_retry(self, tmp_path):
        io = FaultIO(
            IoPolicy(retries=2), events=(TornWrite("*journal*", at_byte=3),)
        )
        target = str(tmp_path / "journal.log")
        io.append_durable(target, b"first-")
        io.append_durable(target, b"second")
        # The torn 3 bytes were truncated back before the retry: no
        # damaged prefix survives in front of good bytes.
        assert io.read_bytes(target) == b"first-second"
        assert io.stats.torn_writes == 1
        assert io.stats.retries >= 1

    def test_torn_atomic_write_never_reaches_destination(self, tmp_path):
        io = FaultIO(
            IoPolicy(retries=2), events=(TornWrite("*blob*", at_byte=2),)
        )
        target = str(tmp_path / "blob.bin")
        io.write_atomic(target, b"full-payload")
        assert io.read_bytes(target) == b"full-payload"
        assert io.stats.torn_writes == 1

    def test_fault_matching_uses_logical_path_not_temp_name(self, tmp_path):
        # A glob anchored to the final name must fire even though the
        # bytes physically land in the .inflight temp file first.
        io = FaultIO(
            IoPolicy(retries=1), events=(Eio("write", path_glob="*.bin"),)
        )
        io.write_atomic(str(tmp_path / "seg.bin"), b"x")
        assert io.stats.eio == 1

    def test_enospc_is_typed_and_not_retried(self, tmp_path):
        io = FaultIO(IoPolicy(retries=5), events=(Enospc(4),))
        target = str(tmp_path / "big.bin")
        io.write_atomic(target, b"ok")  # 2 bytes of a 4-byte budget
        with pytest.raises(StorageFullError):
            io.write_atomic(target, b"xxx")  # would exceed the budget
        assert io.stats.enospc == 1
        assert io.stats.retries == 0  # a full disk stays full

    def test_short_read_retried(self, tmp_path):
        io = FaultIO(
            IoPolicy(retries=2), events=(ShortRead("*blob*", at_byte=2),)
        )
        target = str(tmp_path / "blob.bin")
        io.write_atomic(target, b"complete")
        assert io.read_bytes(target) == b"complete"
        assert io.stats.short_reads == 1
        assert io.stats.retries == 1

    def test_slow_io_charge_accounting(self, tmp_path):
        io = FaultIO(IoPolicy(), events=(SlowIo(0.5),))
        io.write_atomic(str(tmp_path / "x"), b"data")
        assert io.stats.slow_seconds == pytest.approx(0.5)
        io.read_bytes(str(tmp_path / "x"))
        assert io.stats.slow_seconds == pytest.approx(1.0)

    def test_op_timeout_raises_io_timeout(self, tmp_path):
        io = FaultIO(
            IoPolicy(op_timeout=0.1), events=(SlowIo(0.5),)
        )
        with pytest.raises(IoTimeoutError):
            io.write_atomic(str(tmp_path / "x"), b"data")
        assert io.stats.timeouts == 1

    def test_build_io_selects_fault_io_only_for_io_plans(self):
        plain = ExecutionPolicy()
        assert type(build_io(plain)) is LocalIO
        compute_plan = FaultPlan.demo(0, ["node00"])
        assert type(build_io(ExecutionPolicy(fault_plan=compute_plan))) \
            is LocalIO
        io_plan = FaultPlan(seed=0, events=(Eio("write"),))
        built = build_io(ExecutionPolicy(fault_plan=io_plan))
        assert isinstance(built, FaultIO)
        assert built.events == [Eio("write")]


# ---------------------------------------------------------------------------
# Chaos grammar for the four new event kinds (satellite S6)
# ---------------------------------------------------------------------------
class TestIoChaosGrammar:
    def test_parse_well_formed(self):
        assert parse_event("*wal*@13", "torn-write") == \
            TornWrite("*wal*", at_byte=13)
        assert parse_event("4096@*spill*", "enospc") == \
            Enospc(4096, path_glob="*spill*")
        assert parse_event("4096", "enospc") == Enospc(4096)
        assert parse_event("READ:3", "eio") == Eio("read", nth=3)
        assert parse_event("write", "eio") == Eio("write")
        assert parse_event("0.25@*queue*", "slow-io") == \
            SlowIo(0.25, path_glob="*queue*")

    def test_torn_write_errors_name_field_and_grammar(self):
        with pytest.raises(MapReduceError) as err:
            parse_event("no-byte-marker", "torn-write")
        assert "missing '@BYTE'" in str(err.value)
        assert "--torn-write PATH_GLOB@BYTE" in str(err.value)
        with pytest.raises(MapReduceError, match="BYTE must be an integer"):
            parse_event("*wal*@half", "torn-write")
        with pytest.raises(MapReduceError,
                           match="PATH_GLOB must be non-empty"):
            parse_event("@3", "torn-write")

    def test_enospc_errors_name_field_and_grammar(self):
        with pytest.raises(MapReduceError) as err:
            parse_event("lots", "enospc")
        assert "AFTER_BYTES must be an integer" in str(err.value)
        assert "--enospc AFTER_BYTES[@PATH_GLOB]" in str(err.value)
        with pytest.raises(MapReduceError,
                           match="PATH_GLOB must be non-empty"):
            parse_event("4096@", "enospc")

    def test_eio_errors_name_field_and_grammar(self):
        with pytest.raises(MapReduceError) as err:
            parse_event("sideways", "eio")
        assert "mode must be READ or WRITE" in str(err.value)
        assert "--eio READ|WRITE[:NTH]" in str(err.value)
        with pytest.raises(MapReduceError, match="NTH must be an integer"):
            parse_event("read:first", "eio")

    def test_slow_io_errors_name_field_and_grammar(self):
        with pytest.raises(MapReduceError) as err:
            parse_event("slowly", "slow-io")
        assert "SECONDS must be a number" in str(err.value)
        assert "--slow-io SECONDS[@PATH_GLOB]" in str(err.value)

    def test_plan_validates_io_events(self):
        with pytest.raises(MapReduceError):
            FaultPlan(seed=0, events=(TornWrite("", at_byte=1),))
        with pytest.raises(MapReduceError):
            FaultPlan(seed=0, events=(Enospc(-1),))
        with pytest.raises(MapReduceError):
            FaultPlan(seed=0, events=(Eio("sideways"),))
        with pytest.raises(MapReduceError):
            FaultPlan(seed=0, events=(SlowIo(-0.5),))
        plan = FaultPlan(
            seed=0, events=(TornWrite("*wal*", at_byte=3), Eio("read"))
        )
        assert plan.touches_io()
        assert len(list(plan.io_events())) == 2
        assert not FaultPlan.demo(0, ["node00"]).touches_io()


# ---------------------------------------------------------------------------
# FrameLog atomic compaction (satellite S2) + every-byte recovery (S3)
# ---------------------------------------------------------------------------
RECORDS = [
    {"n": 1, "blob": b"alpha" * 5},
    {"n": 2, "blob": b"beta" * 7},
    {"n": 3, "blob": b"gamma" * 3},
]


def _make_log(tmp_path, io=None):
    backend = LocalDirectoryBackend(str(tmp_path), io=io)
    return FrameLog(backend, "t.log", "test-fingerprint")


class TestFrameLogCompaction:
    def test_rewrite_matches_reset_plus_appends_bytes(self, tmp_path):
        a = _make_log(tmp_path / "a")
        a.reset()
        for record in RECORDS:
            a.append(record)
        b = _make_log(tmp_path / "b")
        b.rewrite(RECORDS)
        with open(tmp_path / "a" / "t.log", "rb") as handle:
            via_appends = handle.read()
        with open(tmp_path / "b" / "t.log", "rb") as handle:
            via_rewrite = handle.read()
        assert via_appends == via_rewrite

    def test_rewrite_crash_keeps_old_log_intact(self, tmp_path):
        """A kill anywhere inside the compaction write must leave the
        previous log complete — rewrite is one atomic backend write."""

        class KilledWrite(LocalIO):
            def _os_write(self, tmp, path, data):
                super()._os_write(tmp, path, data)
                raise KeyboardInterrupt("killed before rename")

        log = _make_log(tmp_path)
        log.reset()
        for record in RECORDS:
            log.append(record)
        crashing = _make_log(tmp_path, io=KilledWrite())
        with pytest.raises(KeyboardInterrupt):
            crashing.rewrite(RECORDS[:1])
        # The old log survives whole; nothing was lost mid-compaction.
        assert _make_log(tmp_path).replay() == RECORDS

    def test_rewrite_kill_between_rename_and_dirsync(self, tmp_path):
        """S2 pin: the compacted log is already complete at the rename;
        losing the directory sync can only revert to the complete old
        log, never tear the new one."""

        class KilledDirsync(LocalIO):
            def _os_fsync_dir(self, parent):
                raise KeyboardInterrupt("killed before dirsync")

        log = _make_log(tmp_path)
        log.reset()
        for record in RECORDS:
            log.append(record)
        crashing = _make_log(tmp_path, io=KilledDirsync())
        with pytest.raises(KeyboardInterrupt):
            crashing.rewrite(RECORDS[:2])
        replayed = _make_log(tmp_path).replay()
        assert replayed in (RECORDS, RECORDS[:2])


class TestEveryByteTruncation:
    """Satellite S3: truncate the journal at every byte offset."""

    def test_framelog_recovery_never_raises_never_resurrects(self, tmp_path):
        log = _make_log(tmp_path)
        log.reset()
        for record in RECORDS:
            log.append(record)
        path = tmp_path / "t.log"
        full = path.read_bytes()
        for offset in range(len(full) + 1):
            path.write_bytes(full[:offset])
            replayed = _make_log(tmp_path).replay()  # must not raise
            # Only a durable prefix of the appended records may appear.
            assert replayed == RECORDS[: len(replayed)]
        path.write_bytes(full)
        assert _make_log(tmp_path).replay() == RECORDS

    def test_jobwal_recovery_never_raises_never_resurrects(self, tmp_path):
        backend = LocalDirectoryBackend(str(tmp_path))
        wal = JobWal(backend, "fp-1")
        wal.begin_round("r1")
        commits = [("t0", 1, {"v": 0}), ("t1", 1, {"v": 1}),
                   ("t2", 2, {"v": 2})]
        for task, epoch, outcome in commits:
            wal.append_commit("r1", task, epoch, outcome)
        path = tmp_path / "wal-r1.log"
        full = path.read_bytes()
        expected = {t: (e, o) for t, e, o in commits}
        for offset in range(len(full) + 1):
            path.write_bytes(full[:offset])
            recovered = wal.recover_round("r1")  # must not raise
            tasks = list(recovered)
            # Commits recover in append order, as a prefix, unmutated.
            assert tasks == [t for t, _, _ in commits][: len(tasks)]
            for task in tasks:
                assert recovered[task] == expected[task]


# ---------------------------------------------------------------------------
# Idempotent cleanup (satellite S1)
# ---------------------------------------------------------------------------
class TestIdempotentCleanup:
    def test_checkpoint_backend_delete_tolerates_missing(self, tmp_path):
        backend = LocalDirectoryBackend(str(tmp_path))
        backend.write("blob", b"x")
        backend.delete("blob")
        backend.delete("blob")  # already gone
        assert backend.read("blob") is None

    def test_segment_delete_all_tolerates_missing_files(self, tmp_path):
        io = LocalIO()
        backend = DiskSegmentBackend(
            io, [str(tmp_path / "d0")], replicas=2, min_replicas=1
        )
        store = SegmentStore(backend)
        store.put("/shuffle/j/m0/seg-0.bin", b"zero")
        store.put("/shuffle/j/m0/seg-1.bin", b"one")
        store.delete("/shuffle/j/m0/seg-0.bin")
        # Re-running cleanup over already-deleted paths must succeed.
        store.delete_all(
            ["/shuffle/j/m0/seg-0.bin", "/shuffle/j/m0/seg-1.bin",
             "/shuffle/j/never-written.bin"]
        )
        assert store.paths() == []

    def test_delete_all_continues_past_backend_errors(self):
        class ExplodingBackend:
            def __init__(self):
                self.deleted = []

            def delete(self, path):
                if path == "/boom":
                    raise ShuffleError("backend exploded")
                self.deleted.append(path)

        backend = ExplodingBackend()
        SegmentStore(backend).delete_all(["/a", "/boom", "/b"])
        assert backend.deleted == ["/a", "/b"]


# ---------------------------------------------------------------------------
# Degraded-mode spill routing
# ---------------------------------------------------------------------------
class TestDegradedSpillRouting:
    def test_enospc_falls_back_to_secondary_dir(self, tmp_path):
        primary = str(tmp_path / "primary")
        secondary = str(tmp_path / "secondary")
        io = FaultIO(
            IoPolicy(), events=(Enospc(0, path_glob=primary + "/*"),)
        )
        backend = DiskSegmentBackend(
            io, [primary, secondary], replicas=2, min_replicas=1
        )
        backend.put("/shuffle/j/m0/seg-0.bin", b"payload")
        assert io.stats.fallback_spills == 2  # both replicas degraded
        assert backend.read("/shuffle/j/m0/seg-0.bin", 0) == b"payload"
        # makedirs may have carved the tree, but no bytes landed there.
        assert not any(files for _, _, files in os.walk(primary))

    def test_replicas_shed_when_space_is_tight(self, tmp_path):
        primary = str(tmp_path / "primary")
        # Room for exactly one replica (8 bytes), then the disk is full.
        io = FaultIO(
            IoPolicy(), events=(Enospc(8, path_glob=primary + "/*"),)
        )
        backend = DiskSegmentBackend(
            io, [primary], replicas=3, min_replicas=1
        )
        backend.put("/shuffle/j/m0/seg-0.bin", b"12345678")
        assert io.stats.replicas_shed == 2
        assert backend.read("/shuffle/j/m0/seg-0.bin", 0) == b"12345678"

    def test_storage_full_raises_below_min_replicas(self, tmp_path):
        primary = str(tmp_path / "primary")
        io = FaultIO(
            IoPolicy(), events=(Enospc(0, path_glob=primary + "/*"),)
        )
        backend = DiskSegmentBackend(
            io, [primary], replicas=2, min_replicas=1
        )
        with pytest.raises(StorageFullError):
            backend.put("/shuffle/j/m0/seg-0.bin", b"payload")

    def test_spill_buffer_writes_runs_to_disk(self, tmp_path):
        from repro.shuffle.codec import get_codec
        from repro.shuffle.spill import SpillBuffer

        def run_buffer(spill_io, dirs):
            buffer = SpillBuffer(
                num_partitions=2,
                partitioner=lambda key, n: hash(key) % n,
                sort_key=lambda key: key,
                spill_records=4,
                spill_io=spill_io,
                spill_dirs=dirs,
                spill_prefix="t-m-00000-e1",
            )
            for i in range(10):
                buffer.add(f"k{i % 5}", i)
            return buffer.finish(get_codec("raw"))

        io = LocalIO()
        spill_root = str(tmp_path / "spill")
        disk = run_buffer(io, (spill_root,))
        memory = run_buffer(None, ())
        assert [s.blob for s in disk.segments] == \
            [s.blob for s in memory.segments]
        assert disk.spills == memory.spills == 3
        # Runs were really written and then cleaned up after the merge.
        assert io.stats.writes == 3
        assert io.stats.unlinks == 3
        mapspill = os.path.join(spill_root, "mapspill")
        assert not os.path.exists(mapspill) or os.listdir(mapspill) == []

    def test_spill_buffer_keeps_run_in_memory_when_all_dirs_full(
        self, tmp_path
    ):
        from repro.shuffle.codec import get_codec
        from repro.shuffle.spill import SpillBuffer

        io = FaultIO(IoPolicy(), events=(Enospc(0),))
        buffer = SpillBuffer(
            num_partitions=1,
            partitioner=lambda key, n: 0,
            sort_key=lambda key: key,
            spill_records=2,
            spill_io=io,
            spill_dirs=(str(tmp_path / "full"),),
        )
        for i in range(5):
            buffer.add(f"k{i}", i)
        result = buffer.finish(get_codec("raw"))
        assert result.spills == 3  # degraded but complete
        assert result.segments[0].records == 5

    def test_spill_io_requires_a_dir(self):
        from repro.shuffle.spill import SpillBuffer

        with pytest.raises(ShuffleError, match="spill dir"):
            SpillBuffer(
                num_partitions=1, partitioner=lambda k, n: 0,
                sort_key=lambda k: k, spill_records=2,
                spill_io=LocalIO(),
            )


# ---------------------------------------------------------------------------
# Crash-consistency fuzzing (the headline gate)
# ---------------------------------------------------------------------------
class TestCrashFuzzHarness:
    def test_recording_io_captures_relative_ops(self, tmp_path):
        io = RecordingIO(str(tmp_path))
        io.write_atomic(str(tmp_path / "a" / "x.bin"), b"x")
        io.append_durable(str(tmp_path / "log"), b"yy")
        io.unlink(str(tmp_path / "log"))
        kinds = [(op.kind, op.path) for op in io.ops]
        assert kinds == [
            ("write", os.path.join("a", "x.bin")),
            ("append", "log"),
            ("unlink", "log"),
        ]

    def test_crash_points_cover_boundaries_and_cuts(self, tmp_path):
        io = RecordingIO(str(tmp_path))
        io.write_atomic(str(tmp_path / "x.bin"), b"0123456789")
        io.append_durable(str(tmp_path / "log"), b"abcdefghij")
        points = crash_points(io.ops, seed=1, append_cuts=4, write_cuts=3)
        boundaries = [p for p in points if p.partial is None]
        appends = [p for p in points if p.partial == "append"]
        inflights = [p for p in points if p.partial == "inflight"]
        assert len(boundaries) == 3
        assert len(appends) == 4
        assert len(inflights) == 3
        assert all(0 < p.cut < 10 for p in appends + inflights)

    def test_materialize_torn_append(self, tmp_path):
        io = RecordingIO(str(tmp_path / "ref"))
        os.makedirs(tmp_path / "ref")
        io.append_durable(str(tmp_path / "ref" / "log"), b"0123456789")
        target = str(tmp_path / "crash")
        materialize(io.ops, CrashPoint(0, "append", 4), target)
        assert disk_image(target) == {"log": b"0123"}

    def test_materialize_inflight_leftover_is_invisible(self, tmp_path):
        io = RecordingIO(str(tmp_path / "ref"))
        os.makedirs(tmp_path / "ref")
        io.write_atomic(str(tmp_path / "ref" / "x.bin"), b"0123456789")
        target = str(tmp_path / "crash")
        materialize(io.ops, CrashPoint(0, "inflight", 6), target)
        # The torn temp exists on disk but the logical image is empty.
        assert os.path.exists(os.path.join(target, "x.bin" + TMP_SUFFIX))
        assert disk_image(target) == {}

    @pytest.mark.parametrize("component", COMPONENTS)
    def test_fuzz_gate_component(self, tmp_path, component):
        reports = run_fuzz_gate(
            str(tmp_path), seed=0, components=[component]
        )
        report = reports[component]
        assert report.ok, report.failures[:3]
        assert report.boundary_points >= 4
        assert report.intra_points >= 50

    def test_fuzz_gate_rejects_unknown_component(self, tmp_path):
        with pytest.raises(DurableIoError, match="unknown"):
            run_fuzz_gate(str(tmp_path), components=["hdfs"])


# ---------------------------------------------------------------------------
# End-to-end: the five-round pipeline under storage chaos
# ---------------------------------------------------------------------------
def _tiny_sample():
    from repro.genome import (
        ReadSimulationConfig,
        ReferenceSimulationConfig,
        simulate_donor,
        simulate_reads,
        simulate_reference,
    )

    reference = simulate_reference(
        ReferenceSimulationConfig(
            contig_lengths={"chr1": 3000, "chr2": 2000}, seed=11
        )
    )
    donor = simulate_donor(reference)
    pairs, _ = simulate_reads(
        donor, ReadSimulationConfig(coverage=6.0, seed=12)
    )
    return reference, pairs


class TestPipelineUnderIoChaos:
    def test_enospc_on_primary_completes_via_fallback(self, tmp_path):
        """Acceptance: ENOSPC on the primary spill dir completes the
        five-round pipeline through the fallback dir with
        ``io.fallback_spills > 0`` and byte-identical variants."""
        from repro.align import ReferenceIndex
        from repro.api import PipelineSpec, run_pipeline
        from repro.obs.recorder import ObsConfig

        reference, pairs = _tiny_sample()
        index = ReferenceIndex(reference)

        def spec(policy):
            return PipelineSpec(
                reference=reference, index=index,
                num_fastq_partitions=2, policy=policy,
                obs=ObsConfig(enabled=True),
            )

        clean_primary = str(tmp_path / "clean-primary")
        clean = run_pipeline(
            spec(ExecutionPolicy(io=IoPolicy(
                spill_dirs=(clean_primary,)
            ))),
            pairs,
        )
        clean_lines = [v.to_line() for v in clean.variants]
        assert clean_lines  # the run really called variants

        primary = str(tmp_path / "primary")
        fallback = str(tmp_path / "fallback")
        plan = FaultPlan(
            seed=0,
            events=(Enospc(0, path_glob=os.path.join(primary, "*")),),
        )
        chaos = run_pipeline(
            spec(ExecutionPolicy(
                fault_plan=plan,
                io=IoPolicy(spill_dirs=(primary, fallback)),
            )),
            pairs,
        )
        chaos_lines = [v.to_line() for v in chaos.variants]
        counters = chaos.recorder.metrics.as_dict()["counters"]
        assert counters.get("io.fallback_spills", 0) > 0
        assert counters.get("io.enospc", 0) > 0
        assert chaos_lines == clean_lines
        # Nothing durable ever landed under the full primary dir.
        assert not any(
            files for _, _, files in os.walk(primary)
        )

    def test_transient_eio_during_pipeline_is_absorbed(self, tmp_path):
        from repro.align import ReferenceIndex
        from repro.api import PipelineSpec, run_pipeline
        from repro.obs.recorder import ObsConfig

        reference, pairs = _tiny_sample()
        index = ReferenceIndex(reference)
        primary = str(tmp_path / "spill")

        baseline = run_pipeline(
            PipelineSpec(
                reference=reference, index=index, num_fastq_partitions=2,
                policy=ExecutionPolicy(
                    io=IoPolicy(spill_dirs=(primary + "-clean",))
                ),
            ),
            pairs,
        )
        plan = FaultPlan(seed=0, events=(Eio("write"), Eio("read", nth=2)))
        chaos = run_pipeline(
            PipelineSpec(
                reference=reference, index=index, num_fastq_partitions=2,
                policy=ExecutionPolicy(
                    fault_plan=plan,
                    io=IoPolicy(spill_dirs=(primary,)),
                ),
                obs=ObsConfig(enabled=True),
            ),
            pairs,
        )
        counters = chaos.recorder.metrics.as_dict()["counters"]
        assert counters.get("io.eio", 0) == 2
        assert counters.get("io.retries", 0) >= 2
        assert [v.to_line() for v in chaos.variants] == \
            [v.to_line() for v in baseline.variants]
