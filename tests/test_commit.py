"""Exactly-once commit tests: fencing, leases, the job WAL, zombie
backups, duplicated commits, and driver-kill crash recovery.

The guarantee under test is the engine's exactly-once contract: every
task's side effects are applied once — never zero times, never twice —
under zombie attempts, duplicated commit messages, and a driver that
dies mid-round, with outputs byte-identical to a clean run throughout.
"""

import base64
import dataclasses
import inspect
import io
import os
import pickle
import zlib

import pytest

from repro.api import PipelineSpec
from repro.chaos import (
    CorruptReplica,
    DelayTask,
    DuplicateCommit,
    FaultPlan,
    KillDatanode,
    KillDriver,
    PreemptWorker,
    RaiseInTask,
    ZombieAttempt,
)
from repro.chaos.plan import parse_event
from repro.errors import (
    CommitError,
    DriverKilledError,
    MapReduceError,
    PipelineError,
    ShuffleError,
)
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce import counters as C
from repro.mapreduce.commit import OutputCommitter, RoundJournal, lease_lost
from repro.mapreduce.engine import JobResult, MapReduceEngine
from repro.mapreduce.executors import fork_available
from repro.mapreduce.job import JobSpec, make_splits
from repro.mapreduce.policy import ExecutionPolicy
from repro.mapreduce.task import TaskOutcome
from repro.obs.recorder import ObsConfig, TraceRecorder
from repro.pipeline import parallel
from repro.pipeline.checkpoint import LocalDirectoryBackend
from repro.pipeline.parallel import _STAGES, WAL_ROUND_KEYS, GesallPipeline
from repro.pipeline.wal import FrameLog, JobWal, _frame, _read_frames
from repro.shuffle.segment import decode_segment

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

ALL_EXECUTORS = [
    ("serial", 1),
    pytest.param("pool", 2, marks=needs_fork),
]

NODES = [f"node{i:02d}" for i in range(4)]


def wordcount_job(name="wc"):
    def mapper(line, ctx):
        for word in line.split():
            ctx.emit(word, 1)

    def reducer(word, counts, ctx):
        ctx.emit(word, sum(counts))

    return JobSpec(name, mapper, reducer, num_reducers=2)


LINES = [
    "the quick brown fox",
    "jumps over the lazy dog",
    "the dog barks",
    "quick quick slow",
]

#: 4 splits -> 4 map tasks, plus 2 reducers.
ALL_TASK_IDS = [f"wc-m-{i:05d}" for i in range(4)] + [
    f"wc-r-{i:05d}" for i in range(2)
]


def outcome(**attrs):
    out = TaskOutcome()
    for key, value in attrs.items():
        setattr(out, key, value)
    return out


class FakeFs:
    def __init__(self):
        self.puts = []

    def put(self, path, data, logical_partition=False):
        self.puts.append((path, data, logical_partition))


def clean_outputs(kind="serial", max_workers=1):
    policy = ExecutionPolicy(executor=kind, max_workers=max_workers)
    return MapReduceEngine(nodes=["n1", "n2"], policy=policy).run(
        wordcount_job(), make_splits(LINES)
    ).all_outputs()


# ---------------------------------------------------------------------------
# OutputCommitter unit tests
# ---------------------------------------------------------------------------


class TestOutputCommitter:
    def committer(self, filesystem=None):
        result = JobResult("t")
        return OutputCommitter(result, filesystem), result

    def test_promotes_exactly_once(self):
        committer, result = self.committer()
        out = outcome(attachments=[("table", b"blob")])
        committer.stage("t-m-00000", 0, out)
        assert committer.promote("t-m-00000", 0, out)
        assert result.attachments == {"table": [b"blob"]}
        assert committer.committed == {"t-m-00000": 0}
        assert result.counters.get(C.TASK_COMMITS) == 1
        # A duplicated commit of the same attempt is refused, not applied.
        committer.stage("t-m-00000", 0, out)
        assert not committer.promote("t-m-00000", 0, out)
        assert result.attachments == {"table": [b"blob"]}
        assert result.counters.get(C.FENCED_COMMITS) == 1
        events = result.history.events_of("commit_fenced")
        assert len(events) == 1
        assert events[0]["reason"] == "duplicate"

    def test_stale_epoch_is_fenced(self):
        committer, result = self.committer()
        zombie = outcome(attachments=[("table", b"stale")])
        committer.stage("t-m-00000", 0, zombie)
        assert committer.fence("t-m-00000") == 1
        backup = outcome(attachments=[("table", b"fresh")])
        committer.stage("t-m-00000", 1, backup)
        assert committer.promote("t-m-00000", 1, backup)
        # The zombie's late commit presents the spent epoch-0 token.
        assert not committer.promote("t-m-00000", 0, zombie)
        assert result.attachments == {"table": [b"fresh"]}
        [refused] = result.history.events_of("commit_fenced")
        assert refused["reason"] == "stale_epoch"  # a zombie, not a dup

    def test_fence_before_any_commit_refuses_the_old_lineage(self):
        committer, result = self.committer()
        zombie = outcome()
        committer.stage("t-m-00000", 0, zombie)
        committer.fence("t-m-00000")
        assert not committer.promote("t-m-00000", 0, zombie)
        [refused] = result.history.events_of("commit_fenced")
        assert refused["reason"] == "stale_epoch"
        assert refused["expected"] == 1

    def test_unstaged_promotion_raises(self):
        committer, _ = self.committer()
        with pytest.raises(CommitError, match="never staged"):
            committer.promote("t-m-00000", 0, outcome())

    def test_file_writes_go_through_the_filesystem(self):
        fs = FakeFs()
        committer, _ = self.committer(filesystem=fs)
        out = outcome(file_writes=[("/out/p0", b"data", True)])
        committer.stage("t-m-00000", 0, out)
        assert committer.promote("t-m-00000", 0, out)
        assert fs.puts == [("/out/p0", b"data", True)]

    def test_file_write_without_filesystem_raises(self):
        committer, _ = self.committer(filesystem=None)
        out = outcome(file_writes=[("/out/p0", b"data", False)])
        committer.stage("t-m-00000", 0, out)
        with pytest.raises(MapReduceError, match="no filesystem"):
            committer.promote("t-m-00000", 0, out)

    def test_replay_reapplies_a_journaled_commit(self):
        committer, result = self.committer()
        committer.replay("t-m-00000", 1, outcome(attachments=[("t", 1)]))
        assert committer.committed == {"t-m-00000": 1}
        assert result.attachments == {"t": [1]}
        assert result.counters.get(C.WAL_TASKS_SKIPPED) == 1
        assert len(result.history.events_of("task_replayed")) == 1

    def test_replay_of_a_committed_task_raises(self):
        committer, _ = self.committer()
        out = outcome()
        committer.stage("t-m-00000", 0, out)
        committer.promote("t-m-00000", 0, out)
        with pytest.raises(CommitError, match="refused on replay"):
            committer.replay("t-m-00000", 0, out)


# ---------------------------------------------------------------------------
# The driver's lease monitor: lease_lost unit tests
# ---------------------------------------------------------------------------


class TestLeaseMonitor:
    def test_no_lease_configured_never_expires(self):
        assert lease_lost(
            ExecutionPolicy(), outcome(lease_charged=1e9)
        ) is None

    def test_zombie_flag_wins_over_a_held_lease(self):
        policy = ExecutionPolicy(lease_seconds=100.0)
        out = outcome(lease_charged=1.0, zombie=True)
        assert lease_lost(policy, out) == "zombie"

    def test_charged_runtime_past_the_lease_expires_it(self):
        policy = ExecutionPolicy(lease_seconds=5.0)
        assert lease_lost(policy, outcome(lease_charged=4.0)) is None
        # The boundary: a runtime equal to the lease holds.
        assert lease_lost(policy, outcome(lease_charged=5.0)) is None
        assert lease_lost(
            policy, outcome(lease_charged=5.000001)
        ) == "timeout"


# ---------------------------------------------------------------------------
# JobWal unit tests
# ---------------------------------------------------------------------------


class TestJobWal:
    def wal(self, tmp_path, fingerprint="fp"):
        return JobWal(LocalDirectoryBackend(str(tmp_path)), fingerprint)

    def test_roundtrip(self, tmp_path):
        wal = self.wal(tmp_path)
        wal.begin_round("round1")
        wal.append_commit("round1", "t-m-00000", 0, {"n": 1})
        wal.append_commit("round1", "t-m-00001", 2, {"n": 2})
        recovered = wal.recover_round("round1")
        assert recovered == {
            "t-m-00000": (0, {"n": 1}),
            "t-m-00001": (2, {"n": 2}),
        }

    def test_missing_or_blank_log_recovers_nothing(self, tmp_path):
        wal = self.wal(tmp_path)
        assert wal.recover_round("round1") == {}
        wal.begin_round("round1")
        wal.reset_round("round1")
        assert wal.recover_round("round1") == {}

    def test_header_only_log_recovers_nothing(self, tmp_path):
        wal = self.wal(tmp_path)
        wal.begin_round("round1")
        assert wal.recover_round("round1") == {}

    def test_foreign_fingerprint_is_ignored(self, tmp_path):
        wal = self.wal(tmp_path)
        wal.begin_round("round1")
        wal.append_commit("round1", "t-m-00000", 0, {"n": 1})
        other = self.wal(tmp_path, fingerprint="other-run")
        assert other.recover_round("round1") == {}

    def test_torn_tail_keeps_the_completed_prefix(self, tmp_path):
        wal = self.wal(tmp_path)
        wal.begin_round("round1")
        wal.append_commit("round1", "t-m-00000", 0, {"n": 1})
        log = tmp_path / "wal-round1.log"
        intact = log.read_bytes()
        wal.append_commit("round1", "t-m-00001", 0, {"n": 2})
        full = log.read_bytes()
        # A crash tore the second commit's frame mid-write.
        log.write_bytes(full[: len(intact) + (len(full) - len(intact)) // 2])
        assert wal.recover_round("round1") == {"t-m-00000": (0, {"n": 1})}

    def test_corrupt_frame_stops_recovery(self, tmp_path):
        wal = self.wal(tmp_path)
        wal.begin_round("round1")
        wal.append_commit("round1", "t-m-00000", 0, {"n": 1})
        wal.append_commit("round1", "t-m-00001", 0, {"n": 2})
        log = tmp_path / "wal-round1.log"
        blob = bytearray(log.read_bytes())
        blob[-1] ^= 0xFF  # rot the last commit's payload
        log.write_bytes(bytes(blob))
        assert wal.recover_round("round1") == {"t-m-00000": (0, {"n": 1})}


# ---------------------------------------------------------------------------
# Zombie attempts, fenced backups, duplicated commits (engine level)
# ---------------------------------------------------------------------------


class TestZombieFencing:
    def run_with_plan(self, plan, kind="serial", max_workers=1, **knobs):
        policy = ExecutionPolicy(
            executor=kind, max_workers=max_workers, fault_plan=plan,
            **knobs,
        )
        engine = MapReduceEngine(nodes=["n1", "n2"], policy=policy)
        return engine, engine.run(wordcount_job(), make_splits(LINES))

    @pytest.mark.parametrize("kind,max_workers", ALL_EXECUTORS)
    def test_zombie_is_fenced_and_backup_commits(self, kind, max_workers):
        plan = FaultPlan(events=(ZombieAttempt("wc-m-00000", attempt=1),))
        _, result = self.run_with_plan(plan, kind, max_workers)
        assert result.all_outputs() == clean_outputs()
        assert result.counters.get(C.TASK_COMMITS) == len(ALL_TASK_IDS)
        assert result.counters.get(C.FENCED_COMMITS) == 1
        assert result.counters.get(C.LEASE_EXPIRATIONS) == 1
        assert result.counters.get(C.BACKUP_ATTEMPTS) == 1

    def test_backup_shows_up_in_history(self):
        plan = FaultPlan(events=(ZombieAttempt("wc-r-00001", attempt=1),))
        _, result = self.run_with_plan(plan)
        [backup] = result.history.backup_tasks()
        assert backup.task_id == "wc-r-00001-backup-e1"
        assert backup.backup
        summary = result.history.summary()
        assert summary["backups"] == 1
        assert summary["fenced_commits"] == 1
        [expired] = result.history.events_of("lease_expired")
        assert expired["task"] == "wc-r-00001"
        assert expired["reason"] == "zombie"
        [launched] = result.history.events_of("backup_launched")
        assert launched["epoch"] == 1

    def test_lease_loss_charges_the_node_toward_the_blacklist(self):
        plan = FaultPlan(events=(ZombieAttempt("wc-m-00000", attempt=1),))
        engine, result = self.run_with_plan(plan, blacklist_after=1)
        [expired] = result.history.events_of("lease_expired")
        assert expired["node"] in engine.blacklisted_nodes

    def test_charged_delay_expires_a_real_lease(self):
        # A 60s injected delay is 60s of charged runtime; the 30s lease
        # expires and a fenced backup (epoch 1 sees no chaos events, so
        # it runs clean) takes the commit.
        plan = FaultPlan(events=(
            DelayTask("wc-m-00001", seconds=60.0, attempt=1),
        ))
        _, result = self.run_with_plan(plan, lease_seconds=30.0)
        assert result.all_outputs() == clean_outputs()
        assert result.counters.get(C.LEASE_EXPIRATIONS) == 1
        [expired] = result.history.events_of("lease_expired")
        assert expired["reason"] == "timeout"
        assert set(expired) == {"kind", "task", "node", "reason"}

    def test_exhausted_backups_fail_the_job(self):
        """A lease shorter than any measurable runtime expires every
        attempt, re-executions included: the zombie first attempt and
        both re-executions each count an expiration and charge their own
        node once — the first attempt's n1 and the re-executions' n2 and
        n3 — and the third loss spends the ``task_retries`` budget."""
        plan = FaultPlan(events=(ZombieAttempt("wc-m-00000", attempt=1),))
        policy = ExecutionPolicy(
            fault_plan=plan, lease_seconds=1e-12, task_retries=2,
        )
        recorder = TraceRecorder()
        engine = MapReduceEngine(
            nodes=["n1", "n2", "n3"], policy=policy, recorder=recorder,
        )
        with pytest.raises(MapReduceError, match=(
            r"task wc-m-00000 failed after 3 attempt\(s\): attempt 3 "
            r"lost its lease \(timeout\)"
        )):
            engine.run(wordcount_job(), make_splits(LINES))
        counters = recorder.metrics.as_dict()["counters"]
        assert counters["lease.expired"] == 3
        assert counters["lease.backups_launched"] == 2
        assert engine._node_failures == {"n1": 1, "n2": 1, "n3": 1}

    @needs_fork
    def test_killed_pool_worker_is_fenced_and_backup_commits(self, tmp_path):
        """A pool worker dying mid-task settles through the fenced
        backup path: the dead attempt never presents a commit, the
        backup's epoch-1 commit wins, outputs stay byte-identical."""
        marker = tmp_path / "crashed-once"

        def mapper(line, ctx):
            if line.startswith("the quick") and not marker.exists():
                marker.write_text("dying")
                os._exit(9)
            for word in line.split():
                ctx.emit(word, 1)

        def reducer(word, counts, ctx):
            ctx.emit(word, sum(counts))

        job = JobSpec("wc", mapper, reducer, num_reducers=2)
        with MapReduceEngine(
            nodes=NODES, policy=ExecutionPolicy.pooled(max_workers=2)
        ) as engine:
            result = engine.run(job, make_splits(LINES))
            executor = engine._executor
            assert executor.workers_respawned == 1
        assert result.all_outputs() == clean_outputs()
        assert result.counters.get(C.WORKER_CRASHES) == 1
        assert result.counters.get(C.BACKUP_ATTEMPTS) == 1
        assert result.counters.get(C.TASK_COMMITS) == len(ALL_TASK_IDS)
        # A crash is not a lease loss: the attempt died, it never went
        # silent, so no lease expiration is charged.
        assert C.LEASE_EXPIRATIONS not in result.counters
        [crashed] = result.history.events_of("worker_crashed")
        assert crashed["task"] == "wc-m-00000"
        assert crashed["exitcode"] == 9
        [backup] = result.history.backup_tasks()
        assert backup.task_id == "wc-m-00000-backup-e1"

    def test_duplicate_commit_is_refused(self):
        plan = FaultPlan(events=(DuplicateCommit("wc-r-00000"),))
        _, result = self.run_with_plan(plan)
        assert result.all_outputs() == clean_outputs()
        assert result.counters.get(C.FENCED_COMMITS) == 1
        [refused] = result.history.events_of("commit_fenced")
        assert refused["task"] == "wc-r-00000"
        assert refused["reason"] == "duplicate"

    @pytest.mark.parametrize("kind,max_workers", ALL_EXECUTORS)
    @pytest.mark.parametrize("task_id", ALL_TASK_IDS)
    def test_any_lease_expiry_is_byte_identical(
        self, kind, max_workers, task_id
    ):
        """S3 property: losing any one attempt at any task index, under
        every executor — as a zombie, as a hung task whose charged delay
        outlives the lease, as an attempt that raised or (pool only) as
        a preempted worker — changes nothing: outputs stay
        byte-identical, exactly one attempt commits per task and the one
        re-execution is counted under the loss's reason.  Only a lost
        lease leaves a zombie whose late commit is fenced."""
        job, wave, index = task_id.split("-")
        wave = {"m": "map", "r": "reduce"}[wave]
        attempts = {"map": C.MAP_TASK_ATTEMPTS,
                    "reduce": C.REDUCE_TASK_ATTEMPTS}[wave]
        lease = {C.LEASE_EXPIRATIONS: 1, C.FENCED_COMMITS: 1}
        losses = [(ZombieAttempt(task_id, attempt=1), lease),
                  (DelayTask(task_id, 60.0), {**lease, C.INJECTED_DELAYS: 1}),
                  (RaiseInTask(task_id), {C.INJECTED_FAULTS: 1})]
        if kind == "pool":
            losses.append((PreemptWorker(job, wave, int(index)),
                           {C.WORKER_CRASHES: 1}))
        clean = self.run_with_plan(None, kind, max_workers)[1].counters
        for event, counted in losses:
            _, result = self.run_with_plan(
                FaultPlan(events=(event,)), kind, max_workers,
                lease_seconds=30.0,
            )
            assert result.all_outputs() == clean_outputs()
            assert result.counters.as_dict() == {
                **clean.as_dict(), **counted, C.BACKUP_ATTEMPTS: 1,
                attempts: clean.get(attempts) + 1,
            }, event

    def test_an_attempt_is_an_epoch_the_plan_addresses(self):
        """Every attempt is a fenced epoch the chaos plan can address:
        the zombie first attempt is re-issued as attempt 2, which the
        plan zombifies too, and attempt 3 commits at epoch 2.  Both
        zombies present their late commits, and both are fenced as
        stale."""
        task_id = "wc-m-00001"
        _, result = self.run_with_plan(FaultPlan(events=(
            ZombieAttempt(task_id, attempt=1),
            ZombieAttempt(task_id, attempt=2),
        )), task_retries=2)
        assert result.all_outputs() == clean_outputs()
        assert result.counters.get(C.TASK_COMMITS) == len(ALL_TASK_IDS)
        assert result.counters.get(C.LEASE_EXPIRATIONS) == 2
        assert result.counters.get(C.BACKUP_ATTEMPTS) == 2
        assert result.history.find(task_id).attempts == 3
        assert [(e["epoch"], e["expected"], e["reason"])
                for e in result.history.events_of("commit_fenced")] == [
            (0, 2, "stale_epoch"), (1, 2, "stale_epoch"),
        ]


# ---------------------------------------------------------------------------
# JobSpec.reduce_output: a reduce task writes its own partition
# ---------------------------------------------------------------------------


def render(pairs):
    return "".join(f"{word}\t{count}\n" for word, count in pairs).encode()


def writing_wordcount_job(calls=None, fail_first_call_of=None, **overrides):
    """Wordcount whose reduce tasks write ``/out/part-N.txt`` themselves
    and emit one ``(path, n)``; ``calls`` records every invocation (the
    in-process executors share it with the test)."""
    calls = [] if calls is None else calls

    def write(pairs, ctx):
        calls.append((ctx.task_id, len(pairs)))
        path = f"/out/part-{ctx.task_index:05d}.txt"
        ctx.write_file(path, render(pairs), logical_partition=True)
        first_call = [task for task, _ in calls].count(ctx.task_id) == 1
        if ctx.task_id == fail_first_call_of and first_call:
            raise RuntimeError("writer died after buffering its file")
        ctx.emit(path, len(pairs))

    return dataclasses.replace(
        wordcount_job("wcw"), reduce_output=write, **overrides
    )


class TestReduceOutputHook:
    def run(self, job, kind="serial", max_workers=1, plan=None, **knobs):
        hdfs = Hdfs(list(NODES), replication=2)
        policy = ExecutionPolicy(
            executor=kind, max_workers=max_workers, fault_plan=plan,
            **knobs,
        )
        with MapReduceEngine(
            nodes=hdfs.nodes, policy=policy, filesystem=hdfs
        ) as engine:
            result = engine.run(job, make_splits(LINES))
        # Shuffle segments are gone; what is left is what tasks wrote.
        return result, {f.path: hdfs.get(f.path) for f in hdfs.files()}

    def expected(self):
        """The plain job's pairs per reducer — the path without the hook."""
        result = MapReduceEngine(nodes=list(NODES)).run(
            wordcount_job(), make_splits(LINES)
        )
        assert result.all_outputs() == clean_outputs()
        return result.reduce_outputs

    @pytest.mark.parametrize("kind,max_workers", ALL_EXECUTORS)
    def test_same_outputs_and_bytes_on_every_executor(self, kind, max_workers):
        pairs = self.expected()
        result, files = self.run(writing_wordcount_job(), kind, max_workers)
        assert result.reduce_outputs == {
            index: [(f"/out/part-{index:05d}.txt", len(pairs[index]))]
            for index in pairs
        }
        assert files == {
            f"/out/part-{index:05d}.txt": render(pairs[index])
            for index in pairs
        }
        # The counter still counts the reducer's pairs, not the paths.
        assert result.counters.get(C.REDUCE_OUTPUT_RECORDS) == len(
            clean_outputs()
        )
        assert result.counters.get(C.TASK_COMMITS) == len(ALL_TASK_IDS)

    def test_called_once_per_task_even_when_nothing_was_emitted(self):
        calls = []
        job = writing_wordcount_job(
            calls, partitioner=lambda key, num_reducers: 0
        )
        result, files = self.run(job)
        total = len(clean_outputs())
        assert calls == [("wcw-r-00000", total), ("wcw-r-00001", 0)]
        assert files["/out/part-00001.txt"] == b""
        assert result.reduce_outputs[1] == [("/out/part-00001.txt", 0)]

    def test_retried_attempt_leaves_exactly_one_file(self):
        """Reducer 0's writer dies after buffering its file, reducer 1's
        first attempt takes a plan fault: each retry starts from a fresh
        context, so one file per task lands and nothing collides."""
        calls = []
        plan = FaultPlan(events=(RaiseInTask("wcw-r-00001", attempt=1),))
        result, files = self.run(
            writing_wordcount_job(calls, fail_first_call_of="wcw-r-00000"),
            plan=plan, task_retries=1,
        )
        pairs = self.expected()
        assert files == {
            f"/out/part-{index:05d}.txt": render(pairs[index])
            for index in pairs
        }
        # Once per attempt that reached it: reducer 0 twice, reducer 1
        # once (its first attempt failed before the task body ran).
        assert [task for task, _ in calls] == [
            "wcw-r-00000", "wcw-r-00000", "wcw-r-00001",
        ]
        assert result.counters.get(C.REDUCE_TASK_ATTEMPTS) == 4
        assert result.counters.get(C.TASK_COMMITS) == len(ALL_TASK_IDS)

    @pytest.mark.parametrize("kind,max_workers", ALL_EXECUTORS)
    def test_zombie_attempts_file_never_lands(self, kind, max_workers):
        """Both lineages buffer the same path; were the zombie's write
        applied as well, the second ``put`` would raise ``file exists``."""
        clean, clean_files = self.run(writing_wordcount_job())
        plan = FaultPlan(events=(ZombieAttempt("wcw-r-00000", attempt=1),))
        result, files = self.run(
            writing_wordcount_job(), kind, max_workers, plan=plan
        )
        assert result.all_outputs() == clean.all_outputs()
        assert files == clean_files
        assert result.counters.get(C.FENCED_COMMITS) == 1
        assert result.counters.get(C.BACKUP_ATTEMPTS) == 1
        assert result.counters.get(C.TASK_COMMITS) == len(ALL_TASK_IDS)

    def test_duplicate_commit_does_not_rewrite_the_file(self):
        clean, clean_files = self.run(writing_wordcount_job())
        plan = FaultPlan(events=(DuplicateCommit("wcw-r-00000"),))
        result, files = self.run(writing_wordcount_job(), plan=plan)
        assert result.all_outputs() == clean.all_outputs()
        assert files == clean_files
        assert result.counters.get(C.FENCED_COMMITS) == 1

    def test_validated_at_construction(self):
        def mapper(line, ctx):
            ctx.emit(line, 1)

        with pytest.raises(MapReduceError, match="no reducer"):
            JobSpec("mo", mapper, reduce_output=lambda pairs, ctx: None)
        with pytest.raises(MapReduceError, match="not callable"):
            dataclasses.replace(wordcount_job(), reduce_output="/out")


# ---------------------------------------------------------------------------
# Driver kill + WAL replay (engine level)
# ---------------------------------------------------------------------------


class TestDriverKillReplay:
    def test_interrupted_round_resumes_from_the_wal(self, tmp_path):
        wal = JobWal(LocalDirectoryBackend(str(tmp_path)), "fp")
        plan = FaultPlan(events=(KillDriver("r1", after_commits=3),))
        wal.begin_round("r1")
        journal = RoundJournal(wal, "r1", plan=plan)
        with pytest.raises(DriverKilledError, match="after commit #3"):
            MapReduceEngine(nodes=["n1", "n2"]).run(
                wordcount_job(), make_splits(LINES), journal=journal
            )
        recovered = wal.recover_round("r1")
        assert len(recovered) == 3
        # Resume: recover first, then truncate and replay through the
        # normal commit path (re-journaling as it goes).
        wal.begin_round("r1")
        journal = RoundJournal(wal, "r1", recovered=recovered)
        result = MapReduceEngine(nodes=["n1", "n2"]).run(
            wordcount_job(), make_splits(LINES), journal=journal
        )
        assert result.all_outputs() == clean_outputs()
        assert result.counters.get(C.WAL_TASKS_SKIPPED) == 3
        assert result.counters.get(C.TASK_COMMITS) == len(ALL_TASK_IDS)
        assert len(result.history.events_of("task_replayed")) == 3
        # The finished round's journal is complete again.
        assert len(wal.recover_round("r1")) == len(ALL_TASK_IDS)

    def test_replayed_outcomes_keep_counters_identical(self, tmp_path):
        wal = JobWal(LocalDirectoryBackend(str(tmp_path)), "fp")
        plan = FaultPlan(events=(KillDriver("r1", after_commits=2),))
        wal.begin_round("r1")
        with pytest.raises(DriverKilledError):
            MapReduceEngine(nodes=["n1", "n2"]).run(
                wordcount_job(), make_splits(LINES),
                journal=RoundJournal(wal, "r1", plan=plan),
            )
        recovered = wal.recover_round("r1")
        wal.begin_round("r1")
        resumed = MapReduceEngine(nodes=["n1", "n2"]).run(
            wordcount_job(), make_splits(LINES),
            journal=RoundJournal(wal, "r1", recovered=recovered),
        )
        clean = MapReduceEngine(nodes=["n1", "n2"]).run(
            wordcount_job(), make_splits(LINES)
        )
        for name in (C.MAP_INPUT_RECORDS, C.MAP_OUTPUT_RECORDS,
                     C.REDUCE_INPUT_GROUPS, C.REDUCE_OUTPUT_RECORDS):
            assert resumed.counters.get(name) == clean.counters.get(name)


    def test_killed_then_resumed_run_publishes_the_parent_metrics(
        self, tmp_path
    ):
        """The recorder's counters after a driver kill in the reduce
        wave, and after the resume on the same recorder: a killed driver
        still publishes what it had recorded — the commits, the stored
        segments and the volumes of the one reducer it committed, which
        the resumed run replays and counts again."""
        wal = JobWal(LocalDirectoryBackend(str(tmp_path)), "fp")
        plan = FaultPlan(events=(KillDriver("r1", after_commits=5),))
        recorder = TraceRecorder()

        def counters():
            return {
                name: value for name, value
                in recorder.metrics.as_dict()["counters"].items()
                if "seconds" not in name
            }

        wal.begin_round("r1")
        with pytest.raises(DriverKilledError):
            MapReduceEngine(nodes=["n1", "n2"], recorder=recorder).run(
                wordcount_job(), make_splits(LINES),
                journal=RoundJournal(wal, "r1", plan=plan),
            )
        assert counters() == {
            "commit.promoted": 5,
            "commit.staged": 5,
            "shuffle.bytes_shuffled": 228,
            "shuffle.raw_bytes": 140,
            "shuffle.segment_bytes_stored": 466,
            "shuffle.segments": 8,
        }
        recovered = wal.recover_round("r1")
        wal.begin_round("r1")
        MapReduceEngine(nodes=["n1", "n2"], recorder=recorder).run(
            wordcount_job(), make_splits(LINES),
            journal=RoundJournal(wal, "r1", recovered=recovered),
        )
        assert counters() == {
            "commit.promoted": 11,
            "commit.staged": 11,
            "shuffle.bytes_shuffled": 694,
            "shuffle.raw_bytes": 430,
            "shuffle.segment_bytes_stored": 932,
            "shuffle.segments": 16,
            "wal.tasks_skipped": 5,
        }


# ---------------------------------------------------------------------------
# Crash recovery through the pipeline (KillDriver + checkpoint + WAL)
# ---------------------------------------------------------------------------


class _ParentOutcome:
    """Accepts every slot a parent version's journaled outcome had."""


class _ParentUnpickler(pickle.Unpickler):
    """Reads a parent version's WAL record to show what it journaled,
    whatever slots this version's ``TaskOutcome`` has since dropped."""

    def find_class(self, module, name):
        if (module, name) == ("repro.mapreduce.task", "TaskOutcome"):
            return _ParentOutcome
        return super().find_class(module, name)


def build_pipeline(reference, ref_index, **kwargs):
    return GesallPipeline(PipelineSpec(
        reference, index=ref_index, nodes=NODES,
        num_fastq_partitions=3, num_reducers=2, **kwargs,
    ))


def fingerprint_of(result):
    files = {f.path: result.hdfs.get(f.path) for f in result.hdfs.files()}
    return files, [v.to_line() for v in result.variants]


@pytest.fixture
def v1_salt(monkeypatch):
    """The parent WAL captures below were journaled under the v1
    checkpoint salt: run under it, so their fingerprint matches and only
    the version guard can turn a log away."""
    monkeypatch.setattr(parallel, "_FINGERPRINT_SALT", b"gesall-checkpoint-v1")


def assert_header_alone_refuses(backend, fingerprint, old_header, key):
    """Unloadable records end a replay too, so the version guard is
    checked on its own: ``old_header`` (a parent version's header frame)
    over a record this version journaled and can load recovers nothing.
    Call it while ``backend`` still holds this version's log of ``key``."""
    name = f"wal-{key}.log"
    ours = _read_frames(backend.read(name))
    assert JobWal(backend, fingerprint).recover_round(key)
    backend.write(name, _frame(old_header) + _frame(ours[1]))
    assert JobWal(backend, fingerprint).recover_round(key) == {}


class _AnyOutcome:
    """Stand-in for a journaled ``TaskOutcome`` of any version: it takes
    whatever slots the pickle carries, so a parent version's outcome
    loads for inspection after this version's class lost a slot."""

    def __setstate__(self, state):
        for part in state if isinstance(state, tuple) else (state,):
            self.__dict__.update(part or {})


class _PermissiveUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        if name == "TaskOutcome":
            return _AnyOutcome
        return super().find_class(module, name)


def load_any_record(frame):
    """One journaled record, its outcome loaded as :class:`_AnyOutcome`."""
    return _PermissiveUnpickler(io.BytesIO(frame)).load()


def assert_record_unloadable(frame, *slots):
    """A parent version's journaled record cannot be loaded by this one:
    its outcome carries ``slots``, which this ``TaskOutcome`` lacks."""
    carried = vars(load_any_record(frame)["outcome"])
    assert set(slots) <= set(carried), sorted(carried)
    assert not set(slots) & set(TaskOutcome.__slots__)
    with pytest.raises(AttributeError, match="TaskOutcome"):
        pickle.loads(frame)


class TestPipelineCrashRecovery:
    def test_kill_driver_then_resume_is_byte_identical(
        self, reference, ref_index, pairs, tmp_path
    ):
        some_pairs = pairs[:160]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=2),))
        dying = ExecutionPolicy(fault_plan=plan)
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root, policy=dying
            ).run(some_pairs)
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root,
            obs=ObsConfig(enabled=True),
        ).run(some_pairs, resume=True)
        # Round 1 came from its checkpoint; round 2 was interrupted and
        # replayed its two journaled commits instead of re-running them.
        assert resumed.resumed_rounds == ["round1"]
        assert list(resumed.recovered_tasks) == ["round2"]
        assert len(resumed.recovered_tasks["round2"]) == 2
        assert fingerprint_of(resumed) == fingerprint_of(clean)
        round2 = resumed.rounds.results["round2"]
        assert round2.counters.get(C.WAL_TASKS_SKIPPED) == 2
        assert len(round2.history.events_of("task_replayed")) == 2
        metrics = resumed.recorder.metrics
        assert metrics.counter("wal.rounds_recovered").value == 1
        assert metrics.counter("wal.tasks_skipped").value == 2

    def test_fresh_run_resets_stale_wals(
        self, reference, ref_index, pairs, tmp_path
    ):
        some_pairs = pairs[:160]
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        # A non-resume run must not replay the dead run's journal.
        fresh = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs)
        assert fresh.recovered_tasks == {}
        assert fingerprint_of(fresh) == fingerprint_of(
            build_pipeline(reference, ref_index).run(some_pairs)
        )


    @pytest.mark.usefixtures("v1_salt")
    def test_parent_layout_wal_is_ignored_and_the_round_reruns(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-1 ``wal-round2.log`` (pre-flat-pickle ``SamRecord`` /
        ``Cigar`` layout) must read as "nothing journaled"."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        fingerprint = pickle.loads(
            _read_frames(backend.read("wal-round2.log"))[0]
        )["fingerprint"]
        log = FrameLog(backend, "wal-round2.log", fingerprint)
        assert len(log.replay()) == 1  # this version's own journal replays
        # Swap in the journal the parent commit wrote for the same run.
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 1, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == 2
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert log.replay() == []
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


    @pytest.mark.usefixtures("v1_salt")
    def test_version_2_wal_is_refused_by_version_not_by_unpickling(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-2 ``wal-round2.log`` journals outcomes pickled as
        ``repro.mapreduce.engine._TaskOutcome``, a class path that no
        longer exists: the version guard must turn it away before any
        record is unpickled, and the round re-runs."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        fingerprint = pickle.loads(
            _read_frames(backend.read("wal-round2.log"))[0]
        )["fingerprint"]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2_V2))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 2, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == 2
        # What the guard protects against: the journaled record itself
        # cannot be loaded by this version.
        with pytest.raises((AttributeError, ModuleNotFoundError)):
            pickle.loads(old_frames[1])
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert FrameLog(
            backend, "wal-round2.log", fingerprint
        ).replay() == []
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


    @pytest.mark.usefixtures("v1_salt")
    def test_version_3_wal_with_a_reduce_commit_is_refused(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-3 ``wal-round2.log`` killed *after a reduce commit*
        journals that outcome's ``emitted`` as ``(qname, SamRecord)``
        pairs with no ``file_writes``; replayed into rounds whose reduce
        tasks emit ``(path, count)`` and write their own BAM, the pairs
        would be read as paths and the partition's file would never be
        written.  The version guard must turn the log away whole."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        # 3 map commits + the first reduce commit.
        plan = FaultPlan(events=(KillDriver("round2", after_commits=4),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        frames = _read_frames(backend.read("wal-round2.log"))
        fingerprint = pickle.loads(frames[0])["fingerprint"]
        # This version's reduce commit journals the BAM (and its bloom
        # sidecar), not records.
        ours = pickle.loads(frames[-1])
        assert ours["task"] == "round2-cleaning-r-00000"
        assert ours["outcome"].emitted == [("/round2/part-00000.bam", 12)]
        assert [
            (path, logical) for path, _, logical in ours["outcome"].file_writes
        ] == [("/round2/part-00000.bam", True),
              ("/round2/part-00000.bloom", True)]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2_V3))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 3, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == 5
        theirs = _ParentUnpickler(io.BytesIO(old_frames[-1])).load()
        assert theirs["task"] == "round2-cleaning-r-00000"
        assert theirs["outcome"].file_writes == []
        assert {type(value).__name__ for _, value in
                theirs["outcome"].emitted} == {"SamRecord"}
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert JobWal(backend, fingerprint).recover_round("round2") == {}
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


    @pytest.mark.usefixtures("v1_salt")
    def test_version_4_wal_with_phase_slots_is_refused(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-4 ``wal-round2.log`` journals outcomes that still
        carry the ``phases`` / ``block_decode_seconds`` slots, which
        this version's ``TaskOutcome`` no longer has: the version guard
        turns the log away before any record is unpickled."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        fingerprint = pickle.loads(
            _read_frames(backend.read("wal-round2.log"))[0]
        )["fingerprint"]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2_V4))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 4, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == 2
        assert_record_unloadable(old_frames[1], "phases")
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert JobWal(backend, fingerprint).recover_round("round2") == {}
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


    @pytest.mark.usefixtures("v1_salt")
    def test_version_5_wal_with_combine_slots_is_refused(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-5 ``wal-round2.log`` journals outcomes that still
        carry the ``combine_in`` / ``combine_out`` slots, which this
        version's ``TaskOutcome`` no longer has: the version guard turns
        the log away before any record is unpickled."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        fingerprint = pickle.loads(
            _read_frames(backend.read("wal-round2.log"))[0]
        )["fingerprint"]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2_V5))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 5, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == 2
        with pytest.raises(AttributeError):
            pickle.loads(old_frames[1])
        theirs = _ParentUnpickler(io.BytesIO(old_frames[1])).load()
        assert {"combine_in", "combine_out"} <= set(vars(theirs["outcome"]))
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert JobWal(backend, fingerprint).recover_round("round2") == {}
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


    @pytest.mark.usefixtures("v1_salt")
    def test_version_6_wal_with_gseg1_segments_is_refused(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-6 ``wal-round2.log`` journals a map outcome whose
        segments are ``GSEG1`` frames, which this version's frame reader
        rejects by magic: the version guard turns the log away and the
        round re-runs, byte-identical to a clean run."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        fingerprint = pickle.loads(
            _read_frames(backend.read("wal-round2.log"))[0]
        )["fingerprint"]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2_V6))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 6, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == 2
        outcome = _ParentUnpickler(io.BytesIO(old_frames[1])).load()["outcome"]
        assert outcome.segments and outcome.segments[0][:5] == b"GSEG1"
        with pytest.raises(ShuffleError, match="magic"):
            decode_segment(outcome.segments[0])
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert JobWal(backend, fingerprint).recover_round("round2") == {}
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


    @pytest.mark.usefixtures("v1_salt")
    def test_version_7_wal_with_a_samples_slot_is_refused(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-7 ``wal-round2.log`` journals outcomes that still
        carry the ``samples`` slot, which this version's ``TaskOutcome``
        no longer has: the version guard turns the log away before any
        record is unpickled, and the round re-runs byte-identical."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        fingerprint = pickle.loads(
            _read_frames(backend.read("wal-round2.log"))[0]
        )["fingerprint"]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2_V7))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 7, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == 2
        assert_record_unloadable(old_frames[1], "samples")
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert JobWal(backend, fingerprint).recover_round("round2") == {}
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


    @pytest.mark.usefixtures("v1_salt")
    def test_version_8_wal_with_record_valued_round3_segments_is_refused(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-8 ``wal-round3.log`` journals map outcomes whose
        segments hold ``SamRecord``s.  This version loads them, but its
        line reducer would be handed records where it reads ``str``s:
        the version guard turns the log away, and the round re-runs
        byte-identical."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round3", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        ours = _read_frames(backend.read("wal-round3.log"))
        fingerprint = pickle.loads(ours[0])["fingerprint"]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND3_V8))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 8, "fingerprint": fingerprint, "round": "round3",
        }
        assert len(old_frames) == len(ours) == 2

        def shipped(frame):
            outcome = load_any_record(frame)["outcome"]
            return {type(end).__name__ for segment in outcome.segments
                    for _, (_, *ends) in decode_segment(segment).records
                    for end in ends}

        # Both records load; what their segments ship differs.
        assert shipped(old_frames[1]) == {"SamRecord"}
        assert shipped(ours[1]) == {"str"}
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round3")
        backend.write("wal-round3.log", old)
        assert JobWal(backend, fingerprint).recover_round("round3") == {}
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1", "round2"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


    @pytest.mark.usefixtures("v1_salt")
    def test_version_9_wal_with_record_valued_round2_segments_is_refused(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-9 ``wal-round2.log`` journals map outcomes whose
        segments hold ``(qname, SamRecord)`` pairs.  This version loads
        them, but its FixMateInformation kernel splits ``str`` lines:
        the version guard turns the log away, and the round re-runs
        byte-identical."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        ours = _read_frames(backend.read("wal-round2.log"))
        fingerprint = pickle.loads(ours[0])["fingerprint"]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2_V9))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 9, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == len(ours) == 2

        def shipped(frame):
            outcome = load_any_record(frame)["outcome"]
            return {type(value).__name__ for segment in outcome.segments
                    for _, value in decode_segment(segment).records}

        # Both records load; what their segments ship differs.
        assert shipped(old_frames[1]) == {"SamRecord"}
        assert shipped(ours[1]) == {"str"}
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert JobWal(backend, fingerprint).recover_round("round2") == {}
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


    @pytest.mark.usefixtures("v1_salt")
    def test_version_10_wal_with_timeout_slots_is_refused(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-10 ``wal-round2.log`` journals outcomes that still
        carry the ``timeouts`` and ``heartbeats`` slots, which this
        version's ``TaskOutcome`` no longer has: the version guard turns
        the log away before any record is unpickled, and the round
        re-runs byte-identical."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        fingerprint = pickle.loads(
            _read_frames(backend.read("wal-round2.log"))[0]
        )["fingerprint"]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2_V10))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 10, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == 2
        assert_record_unloadable(old_frames[1], "timeouts", "heartbeats")
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert JobWal(backend, fingerprint).recover_round("round2") == {}
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)

    @pytest.mark.usefixtures("v1_salt")
    def test_version_11_wal_with_attempt_loop_slots_is_refused(
        self, reference, ref_index, pairs, tmp_path
    ):
        """A version-11 ``wal-round2.log`` journals outcomes that still
        carry the in-worker retry loop's tallies (``attempts``,
        ``injected_faults``, ``failures``, ``backoff_seconds``), which
        this version's ``TaskOutcome`` no longer has — a task's attempts
        are its committed epoch + 1: the version guard turns the log
        away before any record is unpickled, and the round re-runs
        byte-identical."""
        some_pairs = pairs[:12]
        clean = build_pipeline(reference, ref_index).run(some_pairs)
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver("round2", after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, checkpoint_dir=root,
                policy=ExecutionPolicy(fault_plan=plan),
            ).run(some_pairs)
        backend = LocalDirectoryBackend(root)
        fingerprint = pickle.loads(
            _read_frames(backend.read("wal-round2.log"))[0]
        )["fingerprint"]
        old = zlib.decompress(base64.b64decode(PARENT_WAL_ROUND2_V11))
        old_frames = _read_frames(old)
        assert pickle.loads(old_frames[0]) == {
            "version": 11, "fingerprint": fingerprint, "round": "round2",
        }
        assert len(old_frames) == 2
        assert_record_unloadable(old_frames[1], "attempts",
                                 "injected_faults", "failures",
                                 "backoff_seconds")
        assert_header_alone_refuses(backend, fingerprint, old_frames[0],
                                    "round2")
        backend.write("wal-round2.log", old)
        assert JobWal(backend, fingerprint).recover_round("round2") == {}
        resumed = build_pipeline(
            reference, ref_index, checkpoint_dir=root
        ).run(some_pairs, resume=True)
        assert resumed.resumed_rounds == ["round1"]
        assert resumed.recovered_tasks == {}
        assert fingerprint_of(resumed) == fingerprint_of(clean)


class TestStageTableConformance:
    """A stage's key is its one name: checkpoint entry, WAL log, HDFS
    directory, round span, ``rounds.results`` entry and chaos address.
    Recalibration on, so all seven declared stages run."""

    PAIRS = 40

    @pytest.fixture(scope="class")
    def clean(self, reference, ref_index, pairs):
        return build_pipeline(
            reference, ref_index, with_recalibration=True
        ).run(pairs[:self.PAIRS])

    def test_the_names_rounds_give_themselves_agree_with_the_table(self):
        keys = [stage.key for stage in _STAGES]
        assert keys == ["round1", "round2", "round3", "round_recal",
                        "round_bqsr", "round4", "round5"]
        assert WAL_ROUND_KEYS == tuple(keys)
        for stage in _STAGES:
            out_dir = inspect.signature(stage.method).parameters.get("out_dir")
            if stage.form == "paths":
                assert out_dir.default == f"/{stage.key}"
            else:
                assert out_dir is None

    @pytest.mark.parametrize("stage", _STAGES, ids=lambda stage: stage.key)
    def test_kill_driver_at_the_key_kills_and_resumes_under_the_key(
        self, stage, clean, reference, ref_index, pairs, tmp_path
    ):
        key = stage.key
        root = str(tmp_path / "ckpt")
        plan = FaultPlan(events=(KillDriver(key, after_commits=1),))
        with pytest.raises(DriverKilledError):
            build_pipeline(
                reference, ref_index, with_recalibration=True,
                checkpoint_dir=root, policy=ExecutionPolicy(fault_plan=plan),
            ).run(pairs[:self.PAIRS])
        resumed = build_pipeline(
            reference, ref_index, with_recalibration=True,
            checkpoint_dir=root, obs=ObsConfig(enabled=True),
        ).run(pairs[:self.PAIRS], resume=True)
        recovered = resumed.recovered_tasks
        assert list(recovered) == [key]
        assert len(recovered[key]) == 1
        assert fingerprint_of(resumed) == fingerprint_of(clean)
        keys = [s.key for s in _STAGES]
        assert resumed.resumed_rounds == keys[:keys.index(key)]
        assert key in resumed.rounds.results
        spans = {span.name for span in resumed.recorder.spans()}
        assert {f"round:{key}", f"checkpoint:save:{key}"} <= spans
        assert bool(resumed.hdfs.list_dir(f"/{key}")) == (
            stage.form == "paths"
        )

    @pytest.mark.parametrize("event", [
        KillDriver("round9"),
        KillDriver("round_print_reads"),
        KillDatanode("node01", at_round="round_bloom"),
        # The recalibration stages are not run by this configuration.
        KillDriver("round_bqsr"),
        CorruptReplica("/round3/part-00000.bam", at_round="round_recal"),
    ], ids=lambda event: f"{event.flag}@{event.at_round}")
    def test_event_addressed_at_no_stage_is_refused_before_round_1(
        self, event, reference, ref_index, pairs, tmp_path
    ):
        root = tmp_path / "ckpt"
        pipeline = build_pipeline(
            reference, ref_index, checkpoint_dir=str(root),
            policy=ExecutionPolicy(fault_plan=FaultPlan(events=(event,))),
        )
        with pytest.raises(PipelineError, match="does not run"):
            pipeline.run(pairs[:12])
        assert not root.exists()

    def test_bloom_prepass_is_a_kill_driver_address_only_when_it_runs(
        self, reference, ref_index, pairs, tmp_path
    ):
        # The bloom pre-pass job is gone (round 2 writes the filter
        # beside its BAM), so "round_bloom" is refused in every mode.
        policy = ExecutionPolicy(
            fault_plan=FaultPlan(events=(KillDriver("round_bloom"),))
        )
        root = tmp_path / "ckpt"
        with pytest.raises(PipelineError, match="does not run"):
            build_pipeline(
                reference, ref_index, policy=policy, checkpoint_dir=str(root),
            ).run(pairs[:12])
        assert not root.exists()
        with pytest.raises(PipelineError, match="does not run"):
            build_pipeline(
                reference, ref_index, policy=policy, markdup_mode="reg",
            ).run(pairs[:12])


#: ``wal-round2.log`` as commit 6310f63 (WAL_VERSION 1) left it after
#: ``KillDriver("round2", after_commits=1)`` on ``pairs[:12]`` with
#: ``build_pipeline``'s shape: header frame + one journaled map outcome
#: whose records pickle as object + ``SamFlags`` + ``Cigar(_ops)``.
#: zlib + base64 of the 3925 raw bytes.
PARENT_WAL_ROUND2 = (
    "eNqVl1tv3MYVx1eOVtpYtio7QY2mFxdF0cYFvLHkRLu8kzu87kJqYW8f8mAsKO6suNHe"
    "THKtukABF0VdFOBbGBQu+gn60I8SIJ8iaF/60pe+xPmf4UrWJbE3pCgOz84Mh7/5nzNz"
    "KpWKm8Rf/uNZ9TOlUh5/KN7P15/wJB1OJ0VnJd8YDCeHPJklw0lW5DXe2D74UIr6RV5N"
    "pvMJ7mvivlPM65XK5sv/f3Hn3+jtf5uvelvNwvSoyG+V9e5GIx5O0Ofd8d17dKAnPptG"
    "cdGp5OvTeRZNx7zIv5/wWTKtj8NZwvvziNf55HA4wQ/Xel109+tFvU+LO38s9sWY+XiY"
    "ZbxfPMIoU3445pMsxcP7rf2NSsV76HjbNKBapbLRpOuTR8dfPFv97O5GOVBUzK89/Hh/"
    "u37v3mJYN8ohDKbJOMzSehqOi/zth+H4AY+mSf/Mq6uPJyHGEq/k1cEoPEyL/J3zTRfW"
    "Ghq7onjSNq8+CUdzXnR4+rw4AFLRUb4axcl2kb81m6bF3r8281VgeEx8qtHwMEwu9b+w"
    "Vpm4n3a+2pvO0uLOSdf8d5jAFQ31ZqIses5GfEI9v5Xyx0Xe71pvPtlJyVum9uUTA3s8"
    "D0d4W9sL2oETeIHX9l3H9QLm2IHjuK7r2S7DYVsty2q1TL1lMVM3GIqWaZi6qWuqqVm6"
    "rmiqZiiqquCQcUqa3FRkVZbk+1IDh9woSH9ADh5XHniA+sDbLtI5mDwvLsx4vLqY0Xg9"
    "/lVcizfKx3iz84IYxluLiYlvAl38TkeN341vLeq81+nnK3vF8+LPhaj7o/jH8U+o2u1O"
    "Jf5p3mfedzi7rAu4XRTo8MC5tFrEHBPAmGdZnldWwR1T4qFYxD/L+w2p0dxtNCVJUSRF"
    "bkoyEKmERNE0VVbBCyA1TdcMlHXDstDYJMZmi7GWaTPXdhyHiX/MdTzH933X93zf9j1M"
    "VNBGuYh/Trq/sr8HQYHbL+Jfzr+B6PY5ovo5otFFop+vXyYa37/A80+1+PbeD1YIqEc4"
    "mPh2QsFIj4yQkEA9xkqAVMZJVosqoRYri8QQ0PAjWgl+hBpWekItugug+OB2O2h7rscg"
    "UddlrucTHN+2W47tkDJbLRtSNVo4bMMwNQPKNC3L0HRVMQ1NUXRV1RUdMyLjglibarOp"
    "NCWccrPZlD46AzRWlsP5m3M4P72IE6TejBPMb7e//OrlS6FQ4dpEkL6eiFgEkRAT0xIO"
    "oSUBdoUU6aeyGtB3hSIJrCVmQWizi/Z4IKxg3S0Vqsi7zQ/x5Y1mQ96VmqqkQKCySpQg"
    "Tx061TXdVE3LsAwUaZ5NnbUYZAqVIiS0IE3Htl2b5sN1bMQLBA3PtYMAYwiCoL0U0J1z"
    "QA9er88Xy+jTJX3eWClxWsJvSXNESOhNGBkxZcSDbN1uWVNo+dtEbX2zqAVOfK/n+oHt"
    "gwBc1bXBInDgxbbtIIzCtV04uG0aUKhhUs+moVu6aeoEXDWINyKDTpOgqDQPsDY0GYFE"
    "gTZ370vS7jmH3y6WAzp/vULdZRT6ghT634VCCQ20SWQWwEp4pDpLeDB5OKDi6pIMiSQg"
    "k56tJeUtkMIvdyWFFCojhkpYUSRZlslxEUo1cQCloilQK1YkAG1RHG1ZhsMMhALmOJAo"
    "poDZUKlY0GzSauC2schh1fPbyyn0/jmgf3m9Qu3qEkBvrkGhO0KhCx5MOC2FRRERBUGh"
    "OyaURk/kuhb9K2uShpigJqaBdct1SNyFgXoDeWvh8H4Q+D4CaNvxPVvEUKd0XbHMMOa3"
    "EEZtdNkCRwNhFEu8aTDTUA1Dpz+EBg3BVNaAXJNpsddoPpoIow3Ez+bubuOcQneK5YD+"
    "/fUKBas3AwX12+3PFwoldkx4sSdQ0MIjYmVXxD+LIqYlyFIQoIpEX4QCIUEKEV0RL+lX"
    "CgAicAq2pU6Zt1DoRxJCZxMKVbDga4reoO0PfFeTyIN1eLUuI4yqugWn17GBogUemymz"
    "RXEV8YBWLwgV5B1I1KdJaQd+4FM88WnNO6vQv50ByusF++HphpqOKl2/lT74z7PVR0W9"
    "4Pn14WQ2z3qJ2CmnRaeWb2Jnf8F0bWE6eJpx7HO3a/laOhuORimlHWuHSBewe8XWdCuN"
    "54PBiPdfNa7km6fGsjlMNxamXhIen7HOwiQbZshmTptjr9+pdSo8v3rEn/YipCVlpnA5"
    "B+hcubQGXzLtCBN/hM++FiVRbxAOR/OkfPn1Ac+iGC/OkmFpqYVIUsazTHzk94aTT3iE"
    "pAWN5qNMVEC+hU84ToY0fuQyG2gQRvFJOpO/nSXhJKWdP6VUIg04TsLZDBlbHQ+HSThG"
    "qnHLDrOwe1LTisRHIukqkwOa1i1BqJdNe4tWxd57W/nN0jpIpuNX9oOtfGM4eTKNQsKI"
    "UV6ZQwZhvjaLwxSj3M+r6QyvouGtI02ajYTxapoBPT4uzPBEeeQwjU8e146nyRFH0lLB"
    "Bn0y7SPrWaMbJV61bDjmEIfg8YpRn4/CpyXEU8Z449WY4zUHPCz5XEd6mfJeFIfJIbJB"
    "z7D/OUbCV8nXfj8dHwx58df83YPRNDpCfxFe2Etxm0AV3oma86sR1Zzw3lCkRhsnjxiS"
    "GNFBGB1NB4PLLck/5vWvAfg98QE="
)

#: The same capture on commit 56f2c2a (WAL_VERSION 2): the journaled map
#: outcome pickles as ``repro.mapreduce.engine._TaskOutcome``.  zlib +
#: base64 of the 3297 raw bytes.
PARENT_WAL_ROUND2_V2 = (
    "eNqVlktvG9cVxylVohhbdmW1iNFm24VbwKwoJyLn/bjzJEEHcNhFFwYxHA7FqfjCzDCOAw"
    "RQEMBA0ekqNwuvuy2677JA0aU/QL9AgW76DZr+zx1SEqLUdWdEzb1n7p2553f/58yp1Wpe"
    "/w+v37vc/0apVccX/FF58GmS5elywXu75d1JujhPslWWLgpeNpJ2a/ShFI95uZ8t1wtc6+"
    "J6ytfNWu3wd5ef/eX3eNrl4fXT9ooov+Dlw2rc43iWRAs88/H88QkdeFKyWsZT3quVB8t1"
    "ES/nCS/fz5JVtmzOo1WWjNdx0kwW5+kCNw6HAzzu4824r/nPv+RPxZqTeVoUyZg/xyrz5H"
    "yeLIocnUf23xu1mv+J67doQWg3/kq/h9Hfppd73/y5US0UA8vDT379tNU8Odks60G1hMky"
    "m0dF3syjOS9/NMySeJmNh5NsOR9O0mQ2zrGIR9OdXlLuxdOsxft/ug9Pdn7Byx1t0xkPrP"
    "99sm3Lf5fRt09ejrt+2A3d0A/9buC5nh8y1wld1/M83/EYDseyLcu2Td22mKkbDE3LNEzd"
    "1DXV1CxdVzRVMxRVVXDIOCVN7iiyKkvyE6mNQ27zL3i5+8zn5Q+e+S2eF/wZf8W/g26692"
    "h61Ht9A4ha7rVOTvp8erAhwvz/4xywAagM0KDDB6DKahEskGPMtyzfr4bgCpY+miDSltqd"
    "s3ZHkhRFUuSOJMNBlRxSNE2VVXgLDJqmawbaumFZmGoSIdNmzDYd5jmu6zLxj3mu7wZB4A"
    "V+EDiBD8xhF21O8tt92seGw/W708P190BpCSgf9OItlDcHPXV6DB5fNfo/2SnHPrnDxNrJ"
    "FUZCYOQSKcNnrAJAbZxktWgQRrGqSQzgNG5ilvCfUMFKPYyiK0kk8LvdsOt7PoNAPI95fk"
    "DOBY5ju45LurBtB0IxbByOYZiaAV2YlmVouqqYhqYouqrqig6iMn6QSkftdJSOhFPudDrS"
    "R1dApg/fjuNnva+3OL5qbHC8Oej+49/ffguFiJggArR68sgiCISImFTOERoSwEBIgW5Vw4"
    "BuIBRBYCxBUWhjgPnoEBawGpBCFPms8yFW3u605TOpo0oKBCKr5CXkoUMnuqabqmkZloEm"
    "7ZKpM5tBJlAJAsqGNFzH8Rzi6bkOog0h53tOGGIFYRh23wHIqQDy+Fofr7f68Br9BzuEwx"
    "K6pz0nD8V+CyMjJoz8IdtgUI0UWvpvorK+X1TAgfX6XhA6ATyA1D0HvoQuosBxXCQRhIaH"
    "AHFMAwoxTHquaeiWbpo6AVMN4oXI0gmiohJHWNuajEBUoI2zJ5J0diNgWvztQNrXCvG2Cn"
    "l90P2XUAi5Bm2QZxuHK+dp1y0RARQhgILfgGRAJACJ9GS9o7yABLo+kxRSiIwcIiEfSrIs"
    "k/CRSjRxAIWiKVAL8imA2JRHbMtwmYFQYq4LiQAhc6ASkY4d0krodZGikbOD7rso5IkAYl"
    "4rxNnfADmu90936CMj/GFC9JQWREYQBMS+M7HT1CPpW/SvGkm7yITXAiMbVHlUXIWBngZy"
    "lgiYIAyDAAmk6wa+I3KIW0lfpEnGAhtpxMEDbXAwkEbwgTENZhqqYej0h9DSkExkDcg0mT"
    "41GvHsII20kT86Z2ftGwo55W8H0r1WyHF9A8TZ774RCiHfmYgCX7hCiVPkioGIf4syhiXI"
    "UBDRQKInQklIgEJsIPIF3aUAEolDsKl0wnyhkI8kpI4OFKLgg6Mpeps+ntC+JlEE6IgKXU"
    "YaUXULQaPj80sfGHyKTZvyCuKJsi+EAnIuJBIQ1G4YhAHFY0A5+1oh3g0gSZOzD66KGzr2"
    "6fcr6Zf/vNx7zps8Ke+li9W62NQtOe81yvuosr5jOtyYRi+LJOf9VqOs56t0NsPNnbJ+jt"
    "JtlVOBdpRP15PJLBlfT66V96+M1XSYHmxMwyx6ccO6irIiLVBZXk1H3dVr9GpJeecieTmM"
    "USJWVdvteqy3e+sbcst0KkzJc7h9GGfxcBKls3VWvfzeJCniKV5cZGllaUQoGOerQjj5w3"
    "TxmyRGAYlJ61khBqD2hQsvspTWj7ryLiZE8XRbWpbvFVm0yKlApPJWVIsvsmi1QvXcROc8"
    "i+Y57jhREQ22I61YOIkCuCpeaVuPBKFhsRxuZvH+T4/K48oqKs0r++iovJsuPl3GEWHEKn"
    "fXo1c8KuuraZRjlU/L/XyFV9HyDlCyrmbCeCcvgB7ORQV6VNOn+XTbrb9YZhdJxssaL/cW"
    "yzGq7DpdqAhuFOk8gTgEj2tG42QWvawgXjHGG+9ME7xmlEQVn3so9fNkGE+j7ByVuW9Y+3"
    "88hj7L+ufL+ShN+G/LH49my/gCz4vxwmGOywKq8LdqLu/ENHKRDNOF2JFtF0sSKxpF8cVy"
    "Mrk9c/2Kj9bN/wDh/QL/"
)

#: ``wal-round2.log`` as commit 1549ecf (WAL_VERSION 3) left it after
#: ``KillDriver("round2", after_commits=4)`` — three map commits and the
#: first *reduce* commit — on the same run: the reduce outcome's
#: ``emitted`` are 12 ``(qname, SamRecord)`` pairs and its
#: ``file_writes`` are empty.  zlib + base64 of the 14092 raw bytes.
PARENT_WAL_ROUND2_V3 = (
    "eNrlWltsJOlVticej9nxXHfFbGaD2EgJmiCtsT121/3y11/XtjyITYXAw8pqt8vTzfim7v"
    "YOC9poYZUVKxU8kEpglCDekEAIgcQDeUgkJDYIRdrAK+INCQSK4AGBkFBYvnP+al/a9kzP"
    "JjvSmmp3d3W5qrv+r75zzvedvyYmJuJ/W/6z6K2LX7Um1PJmdae89HrR63d3d6qVT5SXN7"
    "s794veXq+7M6jKmUJbWF8y2htVebG3u7+D92l+X6z25yYmZn/jj//857+Db3tz9vDbpgat"
    "/oOqvKX2e6W9VbR28J2vbL8yTwu+qdjbbXeqlYny0u7+oL27XVTlC71ir7c7t93a6xUb++"
    "1iTn3J5RxvP1vv9JXqc79W3eMTLra7g0GxUb2GU+wX97eLnUEfH+4Efz8zMZF8PkoW6Gyw"
    "PvNX9LzV+k7nramvfnNGnSV2LGc//4v3Fubm5+tzuqF+f3O3t90a9Of6re2qfH6tV7R3ex"
    "trm73d7bXNbrG10cdJ3OlMrhTlVLvTW6hW/+QqhjH501U56dQfNnLx5IccriXj7H3yUZUb"
    "zSRrZlGWZEkzjaM4yWQUZlEUx3ESxhJLKAIhgsB3AyF915NYFb7nu77r2L4jXNdybMezbN"
    "vCYuJhOKZumbZpmHcNDYupVW9W5YVXk6r8xKvJQtUfVK9W71Qj0HWm7nSurzw6AohdTi3M"
    "z69WnUs1IjJ5ikcuc6CSY4WWBACprYLAAnJSJkIkidoF78AywSoQ0QxNb2i6YViWYZm6YW"
    "KANg3IchzbtDFawOA4ruNh3fWEwKE+IeQHUgZ+KOMwiiLJLzKOkihN0zhN0jRME8CcNbFe"
    "Ef0u3FvFBcfQL3dm908BZYFBeWmlPQTl/Usrducm8Hh7ZvWTk+VGQsORfO40FElEkDQkYk"
    "YipQKA1vGgrYJ2wl5SrRIGGDT+iaN4/AQVttIn7EXvRJE0aTazZhInEgSJYxknKQ0uDcMg"
    "CiPiRRCEIIoXYAk9z3c88MIXwnNc2/I9x7Jc23YtF4iaeIIquq3rlm7gYeq6biwfANK59X"
    "g4PrPylSEcb8/UcLx/qfnP//vBB2AIxwQhQGdPIxIEAkFEmKjBETREgJypQP9SuwG6nBlB"
    "wAhGkbmR43h8IFiAVU4MscyGvoQz13TNbBi6bVggiGnTKEEPFzxxHde3feEJD6t0lXxXBh"
    "I0AUsQUAGoEYVhHBKecRQi2hBySRxmGc4gy7LmGIAsMiCvHPLj0ZAf8czqjUmCQzDv6ZrT"
    "CPl680ZJmEgaD23Lc7Unc+ksUonTSQU4cL5JnGZhihGA6nGIsWQRoiAMIyQRhEaMAAl9Dw"
    "zxfPpe33OF6/suAWZ7hBciyyUQLZtwxFbNMRGIFrjRuGsYjSMBs1A9HhDtkCHxkCGPLjX/"
    "nRlCQwM3aGT1gNXg6aoLjgCKEICCZ040ICQAEvFJjEkvQAJeNwyLGGIihxjIh4ZpmkR8pB"
    "KHF0BhORbYgnwKQALKI4HwIukhlGQUgSKAUIZgCafjkLiSxU2kaOTstDkOQ+4yIP4hQ8KL"
    "NSA3p1cXJ6nI8Hgkk57SAmcERoCvu+QrTZ+I+oJe1J50FSWPmmGUucqj/M4b6NuAnOCASb"
    "MsTZFAmlGahJxDIkV9TpNSpgHSSIgvDICDhzSCAuN70vdsz3PpD6HlIJmYDiBzTCo1DuGp"
    "I41oyB96o6EdYchi9XhAmocMuTldAxJebL7PDKGxS46ChIdCiZNzRc7xLyhjCEaGgoh2JP"
    "Q4lJgCFGI55wv6LwUQJw7GRvFEJsyQZQOpQwdDLBQcx3I1Kp7gvmNQBLiICtdEGrFdgaBx"
    "UX6pwKAU+wHlFcQTZV8QBchFoEhKoDazNEspHlPK2YcMiY8AUsxV8qUDcUPLRXp+wfiZf3"
    "1r6rVqrirKK92dvf1BrVv61cpMeRUSa2TTbL1p/Y1B0a9WF2bK6f5ed2sL/5wsp+9Dt+31"
    "SZ1d73f2Nze3io3DgyfKqwcb1eHYdKPetNZrPTyyda/VG3QHkJUHh0N3rcysTBTlcw+KN9"
    "ba0IdKtZ3UYysXTtSQE5sWeVPxGoY92+611zZb3a39nvrxK5vFoN3BDw96XbVlpgXBuL03"
    "4EFe6+78UtGGgMRB+1sD3gHCF0N42OvS+UNXXsYBrXZnKC3LHxv0Wjt9EoikbVktPuy19v"
    "Ygnefw4X6vtd3Hf8LWoJUP9xRtHiTUrxKvdFmvM0Jrg921+qhq9fb18qbaykrzYPv69fJy"
    "d+f13XaLYMRZXthff6dqldN7nVYfZ3mvvNjfw0/R6V2CZN3b4o3P9QeAHoNrDfCJBH233x"
    "l+nH6423tQ9KpyoiqndnY3oL2n6Y1E8Mygu12AHIzHIUYbxVbrDQXiAcb4xec6BX5mvWgp"
    "fK5A5/eLtXan1bsPZZ548Q9++9vgZzn9K7vb692ierd8YX1rt/0A39fGD6718bYDViRDNp"
    "fPtWnPnWKtu8NXZPgRp8RntN5qP9jd3Dx55P471Tr7kerO37z7X/Aj747tRxY+Uj/y+HgN"
    "/mnUrfwtPX//pa//EdzKe2e4laWndisHVeRrkwfinA3L/QuryyQ3cq4XrJe4ULCmIG3N2Z"
    "MypmRhkbDc4tRYC9GE5URC/1FShL8gV8dTtaXcSiWHignEaBSjnCDZQWkkkUyiLAoDpMIw"
    "CUUY+XEQQYjiEKomPuVKD3YFJYWkmeO5VEJsqiQOzIoFHaprDmq0oUGPcjnRjunzI97ltJ"
    "qyxDXl5mFNuX8BNWUaNeVrk83vqprCKpMkB9VIQkDBxJpD5sMnFxYhVVFmcaGkCIt2EqEE"
    "Tc71mkUsl6KcxXtONWWZrIulaQY0NfSGbri6RdIbMsPGq+9ZLpVTgAFMfFro1Qt8GYTQpH"
    "5IYj7EB5IdSUziLYWkg4PJsjhNYRGP1pTZzpXO1dMAWR71LcXVGpCNa6ttEGVcf5rID/8g"
    "3wLRkTXhXrDA26a0RFkcilhGsGpRJFhrCWIKaa8AXIHIcCR4AoUKtFzHJG0KECFLgairoz"
    "jDtlDt1h1tyTLGhuOIb9m4tjLBcBRXm7+n+EGCQpDQJDkhag8mWIMpXcWSi4QIhxbFTqI0"
    "Fit7lvm1ZxMky1l70ArpFXa+xI9Gg7hNLzoZL1Mnd2vCoCAeaJyu5UGOw9tjgYPzPDL6jh"
    "/Sayh8KNJICriViKKMVGmaSFgXYEuaFCYXxmUMQBqjvuW9mzU/vvT86k+Qr2WZRcmCEMhJ"
    "dpPezBU+tW+jIEpYmhFgrFmFCjPOFcrK5IyLJB1KcFEmkryR+EHcyJoxvAqRJATFkUFi2B"
    "iy7pEIQj+C1IK5lYQERQvlENcJgIzvI64omwA6zzYdKDe4W71B9gWoavCFmtUY9S2PBeSI"
    "b/nS8zUg791s/qNytiwrJWcDVunqAue1ceeESklWpUzl4KXKNqzga1oknIRqkycYZVHvKY"
    "ghS1oDFr1Btssgx0JEoYaObevED0ogjnBsUue+pBeCArYWxlYGZGoDJBBeiB8hMnOapLAs"
    "ZFqyJIvSoxmknLx7JiQaQyIOOTJ3u4bke7dXL3Kx4bjgIiK5vOQqgNju8niYH+xuOUByJd"
    "dF7WA5p9aUEMqpUBpQNGFXTIA0Y5w4pxAaBEaT+KB/wBwJob5lCD8vw4BihGuNT20PWBib"
    "fItjuz43AwCga3KDjKhiIfIMm7xhw1heWh4jZLRR3/K9IRxzt5v/c8S3qMYGU0K1uYgTFD"
    "tcUhNVdGqPl+fK9Au2s4L7ATk3QnIuQrkqU7lqERFy1PvgIqnppqZp1OODZ9Fs9iwumTLu"
    "fLg2GbcAKQRQIL+yrfX9EKEUxsAYwAW0RiRJ4wy2FjBnSZRQDzI7xpDFowwpPqw3sZ6pN5"
    "lYmTnFm5zUXyesyPLJTQ3lTj723mTuDG/y+rP0Jgs/am+yNN2aedbe5B8a37/61/Amfze2"
    "N1n8aOdKfnfqiPvA+tSv0/Nbcz/4C7iPh1Onuw/9qd1HNkx9/3LtuPvAZzVdotqTlMO58H"
    "MdrJsx3IhhiSBEvUud0ridx/1dVg4592vkQScs4VYXVxQukBkpBujKhJxH3EwiJK2U8hiS"
    "mYQQgniW3C8MUAg8O6A+eOBSdfFdAW3JfSzLxApKgmdTL1xDqW2QbEdZQHbVtGOa4QnmQ6"
    "/Nx5ePoMMzSSgNChjlyQQjw82np30b4zgCBnUyQ6mHX8igpWAduLENIeBHPIlElkxAcqMs"
    "QDAINwggskleuoKElIdXSCfYFBuY4AUKhFQqPRtLKDo6t/ioGpw2gWSMeo5Ht+oCWb64+k"
    "X2HHW3TrBISJgGqsKREkhUI5MKpWqEkpxi4ax2kKqesoxSzU4lrtmosiTFBoaBRHDKroP7"
    "tkkKrQxvGlKfDmvkUAUMVwBMsFBzD9LBcxwoB5e7fmRLqRUOVCybuseWo6PcGiYgWULZNY"
    "5PHp2hGBQgnz1UDOWLNSCPbjX/UPXCidTKSiq7qfwG6SnWQRRBHC/s2bltLuvx1xMBrM+l"
    "AqmeE5A8W0Jxkww7nWC1tkxTgVAKED6mgUHBS+Fq22zDMWBX+A60ggMwpMe+lKcZKfQgv6"
    "MkoD54GAdxCMeRxGkI0Z7A/jdJux9zpZ8+rheCR6PZ6W16vt79j79Edvrl07PTwvyH7418"
    "4+Xj2ekzn175PgWhPFSbbMyG+lwpLtae3FDnS6Cmn/K6Nc8zFqrHzMkpHyp7wfOauZqgUo"
    "4mbSYhzdRFMlaKNQqxDiJGAsY3omk66FWYfHBQ0Mwu8Y/8HbhnOTSZazqu4SgK2og9DdwD"
    "8ygvWcvUaH+K7LQwP9oaARqKhN94ufnCB0xC5Uxynn3lUFMd9GQ4/caTMLzXUMPy/JyyQl"
    "Ko6TturQhZ9+zZFDEnVedkaH1tCiHQjxfTtBQFLdujgbsOKOiT7fUD6olA17uCG+6hlDHn"
    "MehW/CrNy8AqxvQECWNqttPzTNl6DBI1i/mpw3J2+XoNCVY4Xf+wVYr7RKKmRTJsySlLoB"
    "oHnKfg1ylTcXsHyTpMoybPRCJZEUUkyXZUMSpkdD4gibB9Fx7Yp+aA47nATrOZJiZhamnk"
    "Ek2twegu6w1tnDxV4/FThwWMYVAFrEYk+egK1/CNY4daXBlN1dOCuh7HAVINkAEgMVcyah"
    "LRgszEE1MoYQ61Fn2aw6TJbix8kwASt2FyxtapDwCPdLfR0EYK2Ie2My8/UzsztTL1xKkW"
    "/aRzMYbzKqOpdXTPhYVz4nH++9rpHsd/lh5n8UftcebXb/zpM/Y41//gi9d/5zY8ztevP9"
    "nj9D6S+8F+uDu7Zv8f3dl154gGKC+sorjU6ufC6s/hpTF/qm9BQbh2p/OTx2/46nyyc/O8"
    "3+v1451bZ9zcBDw+N3KvF+Fxnu/1+izB0XkR47x9JlMUMndHbvsiZM73bV/jYLPI2Dgjd4"
    "ARNuf9DrBxsUlHbgYjbM73zWDj8OYuY/PqyH1hhM15vy9sXGxeG7lFjLA537eI/cIY2OiM"
    "zf3jvVjG5vw2YTvyyS1YgNI73oLt3DgA5Xw1YO90tjs7T6CJwYj86kgzlmhyjpuxSLzjIv"
    "Plka4sF6Vz3ZU9A5viyFTSvROtkNmTrZDZkVYI4uugEzJx2AmZPq0TMnuiE7L6m1dOa4Ws"
    "rlw5rRdy71gT5N7HvVshZk/vVvzn7Ei3YvrjdLdo8Klv/9Yz7Vb8H0b3FAU="
)


# ---------------------------------------------------------------------------
# Satellite regression: segment leak (S1)
# ---------------------------------------------------------------------------


class TestSegmentLeakRegression:
    def test_failure_between_the_waves_leaks_no_segments(self):
        """A chaos-plan validation error fires after the map wave has
        stored its segments and before any reduce runs; cleanup must
        still cover them (the old try/finally only wrapped the reduce
        wave)."""
        from repro.chaos import CorruptSegment

        hdfs = Hdfs(["n1", "n2"], replication=2)
        plan = FaultPlan(events=(CorruptSegment("wc", map_index=99),))
        policy = ExecutionPolicy(fault_plan=plan)
        engine = MapReduceEngine(
            nodes=["n1", "n2"], policy=policy, filesystem=hdfs
        )
        with pytest.raises(MapReduceError, match="no such segment"):
            engine.run(wordcount_job(), make_splits(LINES))
        assert hdfs.list_dir("/shuffle") == []


# ---------------------------------------------------------------------------
# CLI event specs for the new chaos vocabulary
# ---------------------------------------------------------------------------


class TestNewEventSpecs:
    def test_parse_round_trip(self):
        assert parse_event("t-m-00000@2", "zombie") == \
            ZombieAttempt("t-m-00000", attempt=2)
        assert parse_event("t-m-00000", "zombie") == \
            ZombieAttempt("t-m-00000")
        assert parse_event("t-r-00001", "duplicate-commit") == \
            DuplicateCommit("t-r-00001")
        assert parse_event("round2:3", "kill-driver") == \
            KillDriver("round2", after_commits=3)
        assert parse_event("round2", "kill-driver") == KillDriver("round2")

    def test_kill_driver_validation(self):
        with pytest.raises(MapReduceError, match=">= 1"):
            FaultPlan(events=(KillDriver("round2", after_commits=0),))
        with pytest.raises(MapReduceError, match="bad --kill-driver"):
            parse_event("round2:zero", "kill-driver")

    def test_plan_accessors(self):
        plan = FaultPlan(events=(
            ZombieAttempt("t-m-00000", attempt=1),
            DuplicateCommit("t-r-00000"),
            KillDriver("round2", after_commits=2),
        ))
        assert plan.zombie_in("t-m-00000", 1)
        assert not plan.zombie_in("t-m-00000", 2)
        assert plan.duplicate_commit_for("t-r-00000")
        assert not plan.duplicate_commit_for("t-m-00000")
        assert plan.driver_kill("round2").after_commits == 2
        assert plan.driver_kill("round3") is None
        kinds = [e["kind"] for e in plan.as_dicts()]
        assert kinds == ["zombie_attempt", "duplicate_commit", "kill_driver"]


#: The same capture on commit 215929d (WAL_VERSION 4): the journaled map
#: outcome still has ``phases`` and ``block_decode_seconds`` slots.
#: zlib + base64 of the 3294 raw bytes.
PARENT_WAL_ROUND2_V4 = (
    "eNqVlktvG9cVxylXohhLdmU3gZGkuxaFE8CsKMci5/248yQhB3DYRRcGMRwONaz4wswwhg"
    "MYcBDESIHZ5WbhL9F990WX/gBFsi7QTRfdN/2fO6QkRKnjzIiae8/cO3PP7/7PmVOr1byj"
    "B6PfPN/5RqlVxzN+t9z9NMnyyWLOe9vl3ngyP02yZTaZF7xsJO3W8CMpHvFyJ1us5rjWxf"
    "WIr5q12v5Xv/7u2y/xtGf7F0/bLqL8jJd3qnH34mkSzfHMe7N7h3TgSclyEae8Vyt3F6si"
    "XswSXr6dJcts0ZxFyywZreKkWT1kr4/Lx+tBX/MPPucPxYKT2aQokhF/jCXmyeksmRc5On"
    "ftfzRqNf8T12/RatBu/I1+d6K/p8+3v/lro1olBpb7n/zxYat5eLhe063q/eNFNouKvJlH"
    "M17+apAl8SIbDcbZYjYYT5LpKMci7qZbvaTcjtOsxU/+chNubH3Iyy1t3Rn1rZ8+2ablv8"
    "noqycvR10/7IZu6Id+N/Bczw+Z64Su63me73gMh2PZlmXbpm5bzNQNhqZlGqZu6ppqapau"
    "K5qqGYqqKjhknJImdxRZlSX5vtTGIbf5M15ee+Tz8heP/BbPC/6Iv+A/QJdu300Pei8vAV"
    "HL7dbh4QlPd9dEmP8zzj7rg0ofDTp8AKqsFsECOcZ8y/L9agiuYOmjCSJtqd05bnckSVEk"
    "Re5IMhxUySFF01RZhbfAoGm6ZqCtG5aFqSYRMm3GbNNhnuO6LhP/mOf6bhAEXuAHgRP4wB"
    "x20eYkv2sPT7DhcH0v3V/9CJSWgPJ+L95AebXbU9Pb4PFF4+TdrXLkkztMrJ1cYSQERi6R"
    "MnzGKgDUxklWiwZhFKuaxABO4yZmCf8JFazUwyi6kkQCv9sNu77nMwjE85jnB+Rc4Di267"
    "ikC9t2IBTDxuEYhqkZ0IVpWYamq4ppaIqiq6qu6CAq4wepdNROR+lIOOVOpyM9OAeS3nk9"
    "jt/2vt7g+KKxxvFqt/vP/37/PRQiYoII0OrJI4sgECJiUjlHaEgAfSEFulUNA7q+UASBsQ"
    "RFoY0+5qNDWMCqTwpR5OPOR1h5u9OWj6WOKikQiKySl5CHDp3omm6qpmVYBpq0S6bObAaZ"
    "QCUIKBvScB3Hc4in5zqINoSc7zlhiBWEYdh9AyBHAsi9C3283OjDa5zc2iIcltA97Tl5KP"
    "ZbGBkxYeQP2fr9aqTQ0v8TlfXjogIOrNf3gtAJ4AGk7jnwJXQRBY7jIokgNDwEiGMaUIhh"
    "0nNNQ7d009QJmGoQL0SWThAVlTjC2tZkBKICbRzfl6TjSwHT4q8H0r5QiLdRyMvd7r+FQs"
    "g1aIM8WztcOU+7bokIoAgBFPz6JAMiAUikJ+sN5QUk0PWxpJBCZOQQCflQkmWZhI9UookD"
    "KBRNgVqQTwHEpjxiW4bLDIQSc11IBAiZA5WIdOyQVkKvixSNnB1030Qh9wUQ80Ihzs4ayO"
    "36ydEWfWSEP0yIntKCyAiCgNh3JnaaeiR9i/5VI2kXmfBaYGT9Ko+KqzDQ00DOEgEThGEQ"
    "IIF03cB3RA5xK+mLNMlYYCONOHigDQ4G0gg+MKbBTEM1DJ3+EFoakomsAZkm06dGI54dpJ"
    "E28kfn+Lh9SSFH/PVAuhcKuV1fA3F2uq+EQsh3JqLAF65Q4hS5oi/i36KMYQkyFEQ0kOiJ"
    "UBISoBDri3xBdymAROIQbCqdMF8o5IGE1NGBQhR8cDRFb9PHE9rXJIoAHVGhy0gjqm4haH"
    "R8fukDg0+xaVNeQTxR9oVQQM6FRAKC2g2DMKB4DChnXyjEuwQkaXL2/nlxQ8cO/f4g/f5f"
    "z7cf8yZPyhuT+XJVrOuWnPca5U2UWD8w7a9Nw6dFkvOTVqOs58vJdIqbW2X9FHXbMqfq7C"
    "BPV+PxNBldTK6VN8+N1XSYbq1Ngyx6csm6jLJiUqCsPJ+OuqvX6NWS8vpZ8nQQoz6sqrar"
    "9Vjv2pVvyBXTkTAlj+H2fpzFg3E0ma6y6uU3xkkRp3hxkU0qSyNCwThbFsLJX07mf0piFJ"
    "CYtJoWYgAKX7jwJJvQ+lFX7mFCFKeb0rJ8q8iieU4FItW2olp8kkXLJUrnJjqnWTTLcceJ"
    "iqi/GWnFwklUv1XxStt6IAgNisVgPYufvHdQ3q6sotI8tw8Pyr3J/NNFHBFGrPLaaviCR2"
    "V9mUY5Vvmw3MmXeBUtbxcl63IqjNfzAujhXFSgRwX9JE833fqTRXaWZLys8XJ7vhih9q7T"
    "hYrgRjGZJRCH4HHBaJRMo6cVxHPGeOP1NMFrhklU8bmBOj9PBnEaZaeozH2j/Z93fgd9lv"
    "XPFrPhJOF/Lt8eThfxGZ4X44WDHJc5VOFv1Fxej2nkPBlM5mJHNl0sSaxoGMVni/H46szV"
    "Cz5cNf8H84oBpw=="
)

#: The same capture on commit 075d570 (WAL_VERSION 5): the journaled map
#: outcome still has the ``combine_in`` / ``combine_out`` slots.
#: zlib + base64 of the 3252 raw bytes.
PARENT_WAL_ROUND2_V5 = (
    "eNqVlk2P28YZx7Xuvqjetbt2Cxhtrj04Bays1rHE97fhq5R1AFs9FIErcClqxVpvICkbLhD"
    "ARQADBXgpMjn4nFsOueSUe9Cj7+0XCJBLv0GT/zOUdhdx6rjD1XJmOEPO85v/88zTaDT8f3"
    "z+weL5zmdqoy4f89vV3pM0L7LFnPd3qv1xNj9L82WezUteNdNu+/R9ORnxaidfrOa474r7M"
    "V+1Go2DP7N/ffER3vbw4OJt22VcPObVrXrcnWSaxnO8887szhEVvCldLpIJ7zeqvcWqTBaz"
    "lFe/ydNlvmjN4mWejlZJ2qpfsj/A7cP1oE/5u3/j98WC01lWlumIP8ISi/Rsls7LAo3bzr+"
    "bjUbw0AvatBrUm9/Q71b8z8nz7c++btarxMDq4OGf7rdbR0frNd2ovz9e5LO4LFpFPOPVr4"
    "d5mizy0XCcL2bDcZZORwUWcXuy1U+r7WSSt/nJl9dhxtYfeLWlrxujgf3zF9vUgrcZ/frFq"
    "1EviHqRFwVR0At9zw8i5rmR5/m+H7g+Q3Ftx7YdxzIcm1mGyVC1LdMyLEPXLN02DFXXdFPV"
    "NBVFwSXriqQqmiIrd+UuitLlH/PqyoOAV794ELR5UfIH/AX/EbrJ9u3JYf/lJSBatd0+Ojr"
    "hk701ERb8H9eADUBlgAqVAIDqXptggRxjgW0HQT0Ed7AMUAWRrtyVOl1JllVVVhVJVmCgRg"
    "apuq4pGqwFBl03dBN1w7RtTLWIkOUw5lgu813P85j4x3wv8MIw9MMgDN0wAOaohzon+V25f"
    "4INh+n7k4PVT0BpCyjv9JMNlFd7fW1yEzw+aZ78dqsaBWQOE2snUxgJgZFJpIyAsRoA1XFR"
    "r02DMIrVVWIAo/EQs4T9hAq91MIoupNEwqDXi3qBHzAIxPeZH4RkXOi6jud6pAvHcSEU00F"
    "xTdPSTejCsm1TNzTVMnVVNTTNUA0QVfCDVCRNklRJxqVIkiTfOwcyufVmHL/vf7rB8Ulzje"
    "PVXu/b/37/PRQifIII0OrJIpsgECJiUhtHaEgAAyEFelQPA7qBUASBsQVFoY0B5qNBWMBqQ"
    "ApRlY70PlbelbpKR5Y0WYVAFI2shDwM6MTQDUuzbNM2UaVdsgzmMMgEKoFDOZCG57q+Szx9"
    "z4W3weUC340irCCKot5bADkWQO5c6OPlRh9+8+TGFuGwhe5pz8lCsd+ikxETRvZQ32BQjxR"
    "a+l+isn9aVMCB9QZ+GLkhLIDUfRe2RB68wHU9BBG4hg8HcS0TCjEteq9lGrZhWQYB00ziBc"
    "8yCKKqEUf0dnUFjqhCG527sty55DBt/mYg3QuF+BuFvNzr/UcohEyDNsiytcG18bTrtvAA8"
    "hBAwW9AMiASgER6st9SXkACXXdklRSiIIbIiIeyoigkfIQSXRSgUHUVakE8BRCH4ohjmx4z"
    "4UrM8yARIGQuVCLCsUtaifweQjRidth7G4XcFUCsC4W4O2sgN3dPjrfokBH2MCF6CgsiIgg"
    "CYt+Z2GlqkfRt+lePpF1kwmqBkQ3qOCruooPeBnK2cJgwisIQAaTnhYErYohXS1+EScZCB2"
    "HExQsdcDARRnDAWCazTM00DfqDa+kIJooOZLpCR41OPCWEkS7ih9TpdC8p5Ji/GUjvQiE3d"
    "9dA3J3eK6EQsp0JLwiEKRQ4RawYCP+3KWLYggw5EQ0kesKVhATIxQYiXtBTciAROASbWics"
    "EAq5JyN0SFCIigNHV40uHZ7Qvi6TBxjwCkNBGNEMG05j4PilAwZHseVQXIE/UfSFUEDOg0R"
    "CgtqLwigkfwwpZl8oxL8EJG1x9s55ckNlh35/lN/77vn2I97iaXUtmy9X5TpvKXi/WV1Hiv"
    "WjroN11+mzMi34SbtZ7RbLbDrFw61q9wx527Kg7OywmKzG42k6upjcqK6fd9bT0XVj3TXM4"
    "6eXepdxXmYl0srz6ci7+s1+I62uPk6fDRPkh3XW9no+1r/y2hnyWtex6EofweyDJE+G4zib"
    "rvL649fGaZlM8OEyz+qeZoyEcbYshZG/yuZ/SRMkkJi0mpZiABJfmPA0z2j9yCv3MSFOJpv"
    "UsvplmcfzghJEym1Ftvg0j5dLpM4tNM7yeFbgiRuX8WAz0k6Ekch+6+SVtvVQEBqWi+F6Fj"
    "/53WF1s+4VmeZ5/+lhtZ/NnyySmDBilVdWpy94XO0US3yAFrWHRHU5xYLvV1eLEsBhUlyiR"
    "Wl8Vkw2zd2ni/xxmvOqwavt+WKEjHuXbpT6NstslkISgsIFmVE6jZ/V6M7J4otXJyk+c5rG"
    "NZVryO6LdJhM4vwM+Xhgdr7+qrAajWr3r4vZaZbyv1dXE6rN02E2F5w3TXxSfPE0Th4vxuN"
    "hAZXMoZJgo+7VC366av0A83D1bg=="
)

#: The same capture on commit e0f9751 (WAL_VERSION 6): the journaled map
#: outcome's segments are ``GSEG1`` frames, whose CRC skipped the header.
#: zlib + base64 of the 3221 raw bytes.
PARENT_WAL_ROUND2_V6 = (
    "eNqVlktv3NYVx0eONJpYsiM7AYw0XXbhFvBEI9ua4ftx+R5IBZzJIgtjQHE44sTzAsmJ4Q"
    "ABHAQwUIC73Cz8CbrLPtug6NIfoF+gQDfdd9H0fy5nJCFOHYfUiJeH95L3/O7/nHsajYb3"
    "fXb0n+c73ymN+viK3612v0jzYrKY836z2htP5udpvswn85JXrbTbOXsgJSNe7eSL1RzXpr"
    "ge8VW70dg3/vr7h0d424P9y7dtl3HxhFd36n73kmkaz/HOe7N7h3TgTelykWS836h2F6sy"
    "WcxSXn2Qp8t80Z7FyzwdrZK0Xb9kb4DLn9edvuV//Jqfigmns0lZpiP+GFMs0vNZOi8L3N"
    "y1/9FqNPxPXL9Ds0G79Tf63Yn/nj3f/u6HVj1LdKz2P/nstNM+PFzP6Vb9/fEin8Vl0S7i"
    "Ga/eH+ZpsshHw3G+mA3Hk3Q6KjCJu9lWP622kyzv8JPvb8KNrT/xaktb34wG1q+fbNPy36"
    "b36yevRpEfRqEb+qEfBZ7r+SFzndB1Pc/zHY/hcCzbsmzb1G2LmbrB0LRMw9RNXVNNzdJ1"
    "RVM1Q1FVBYeMU9LkniKrsiTfl7o45C7/ilfXHvm8eueR3+FFyR/xF/xn6LLtu9lB/+UVIG"
    "q13Tk8POHZ7poI83/DOWADUBmgQYcPQLXVIlggx5hvWb5fd8EVLH00QaQrdXvH3Z4kKYqk"
    "yD1JhoMqOaRomiqr8BYYNE3XDLR1w7Iw1CRCps2YbTrMc1zXZeIf81zfDYLAC/wgcAIfmM"
    "MIbU7yu3Z6ggWH63vZ/uoXoHQElI/6yQbKq92+mt0Gj29aJx9uVSOf3GFi7uQKIyEwcomU"
    "4TNWA6A2TrJa1Am9WN0kBnAaDzFK+E+oYKU79KIrSSTwoyiMfM9nEIjnMc8PyLnAcWzXcU"
    "kXtu1AKIaNwzEMUzOgC9OyDE1XFdPQFEVXVV3RQVTGD1Lpqb2e0pNwyr1eT3p4ASS782Yc"
    "f+h/u8HxTWuN49Vu9M///vQTFCJiggjQ7MkjiyAQImJSO0doSAADIQV6VHcDuoFQBIGxBE"
    "WhjQHG44awgNWAFKLIx70HmHm315WPpZ4qKRCIrJKXkIcOneiabqqmZVgGmrRKps5sBplA"
    "JQgoG9JwHcdziKfnOog2hJzvOWGIGYRhGL0FkCMB5N6lPl5u9OG1Tm5tEQ5L6J7WnDwU6y"
    "2MjJgw8odsg0HdU2jp/4nK+mVRAQfm63tB6ATwAFL3HPgSuogCx3GRRBAaHgLEMQ0oxDDp"
    "vaahW7pp6gRMNYgXIksniIpKHGHtajICUYE2ju9L0vGVgOnwNwPpXirE2yjk5W70b6EQcg"
    "3aIM/WDtfO06pbIgIoQgAFvwHJgEgAEunJekt5AQl0fSwppBAZOURCPpRkWSbhI5Vo4gAK"
    "RVOgFuRTALEpj9iW4TIDocRcFxIBQuZAJSIdO6SV0IuQopGzg+htFHJfADEvFeLsrIHcbp"
    "4cbdEmI/xhQvSUFkRGEATEujOx0nRH0rfoX92TVpEJrwVGNqjzqLgKA70N5CwRMEEYBgES"
    "SOQGviNyiFtLX6RJxgIbacTBC21wMJBGsMGYBjMN1TB0+kNoaUgmsgZkmkxbjUY8e0gjXe"
    "SP3vFx94pCjvibgUSXCrndXANxdqJXQiHkOxNR4AtXKHGKXDEQ8W9RxrAEGQoi6kj0RCgJ"
    "CVCIDUS+oKcUQCJxCDa1TpgvFPJQQuroQSEKNhxN0bu0eUL7mkQRoCMqdBlpRNUtBI2O7Z"
    "c2GGzFpk15BfFE2RdCATkXEgkIahQGYUDxGFDOvlSIdwVI2ubso4viho4d+n0qffyv59uP"
    "eZun1Y3JfLkq13VLwfut6iZKrJ+Z9tems2dlWvCTTqtqFsvJdIqHW1XzHHXbsqDq7KDIVu"
    "PxNB1dDm5UNy+M9XCYbq1Nwzx+esW6jPNyUqKsvBiOuqvf6jfS6vqT9NkwQX1YV22v12P9"
    "a6/tIa+ZjoQpfQy395M8GY7jyXSV1x+/MU7LJMOHy3xSW1oxCsbZshROvjeZf54mKCAxaD"
    "UtRQcUvnDhaT6h+aOu3MOAOMk2pWX1bpnH84IKRKptRbX4NI+XS5TObdyc5/GswBMnLuPB"
    "pqeVCCdR/dbFKy3rgSA0LBfD9Sh+8ruD6nZtFZXmhf3soNqbzL9YJDFhxCyvrc5e8LjaKZ"
    "b4AE1qF4XqcooJn1bXixLA4VJc4o7K+EmRbW6bTxf5kzTnVYNX2/PFCBV3ky5U+rbKySyF"
    "JASFSzKjdBo/q9FdkMUXr2cpPnOWxjWVG6jui3SYZHF+jnrcN04//zGCKqvml4vZ2STlf6"
    "neO4uTJ4vxeFhABnPIwN/Id/WCn63a/wPa5ehq"
)


#: The same capture on commit dbb67cb (WAL_VERSION 7): the journaled map
#: outcome still has the ``samples`` slot.
#: zlib + base64 of the 3221 raw bytes.
PARENT_WAL_ROUND2_V7 = (
    "eNqVlkuP21QUxzNlHqEzLdOChChbFgWp0cy0JH6/rp8JU6Q2GxZV5HGcSWhesp1WRUIqQq"
    "qE5BXcLrpljVgisYYdUj8AO1Ys+QYt/3OdzIxaKMWejK+P77Xv+d3/OffUajX/wrMrPz3c"
    "eKzWquNLfrXcupdm+Wg25Z2tcnswmh6n2TwbTQte1tPW/tENOenzciObLaa4borrAV80ar"
    "Ud85ODZwO87cbO6dvWizi/y8t3q37XknEaT/HOa5Nre3TgTel8lgx5p1ZuzRZFMpukvHwn"
    "S+fZrDGJ51naXyRpo3rJdheXT5edvuMffsVvigmnk1FRpH1+B1PM0+NJOi1y3Fx1fq/Xas"
    "FtLzig2aBd/5V+zV/uXXm4/vjnejVLdCx3bn92c7+xt7ec06Xq+4NZNomLvJHHE16+3cvS"
    "ZJb1e4NsNukNRum4n2MSV4drnbRcT4bZPj/88SLcWPuIl2v68qbftf/7ZKtW8Dq9Xz552W"
    "8HUTvyoiAK2qHv+UHEPDfyPN/3A9dnOFzbsW3HsQzHZpZhMjRty7QMy9A1S7cNQ9U13VQ1"
    "TcWh4JR1RVIVTZGV63ILh9LiX/Ly3K2Al2/cCvZ5XvBb/BF/Ad1w/epwt/PkDBCtXN/f2z"
    "vkw60lERb8j7PLuqDSRYOOAIAqq02wQI6xwLaDoOqCK1gGaIJIS25JzZYky6oqq4okK3BQ"
    "I4dUXdcUDd4Cg64buom2Ydo2hlpEyHIYcyyX+a7neUz8Y74XeGEY+mEQhm4YAHPURpuT/M"
    "7dPMSCw/Xt4c7iH6DsCyjvd5IVlKdbHW14GTy+rh++t1b2A3KHibmTK4yEwMglUkbAWAWA"
    "2jjJalMn9GJVkxjAaTzEKOE/oYKV7tCLriSRMGi3o3bgBwwC8X3mByE5F7qu47ke6cJxXA"
    "jFdHC4pmnpJnRh2bapG5pqmbqqGppmqAaIKvhBKpImSaok41QkSZI/PgEyfPfVOD7ofLfC"
    "8XV9iePpVvvPZ8+fQyEiJogAzZ48sgkCISImlXOEhgTQFVKgR1U3oOsKRRAYW1AU2uhiPG"
    "4IC1h1SSGq0pRuYOYtqaU0ZUmTVQhE0chLyMOATgzdsDTLNm0TTVoly2AOg0ygEgSUA2l4"
    "ruu7xNP3XEQbQi7w3SjCDKIoar8GkAMB5NqpPp6s9OHXDy+tEQ5b6J7WnDwU6y2MjJgw8o"
    "ds3W7VU2jp30Rl/7OogAPzDfwwckN4AKn7LnyJPESB63pIIggNHwHiWiYUYlr0Xss0bMOy"
    "DAKmmcQLkWUQRFUjjrC2dAWBqEIbzeuy3DwTMPv81UBapwrxVwp5stX+SyiEXIM2yLOlw5"
    "XztOq2iACKEEDBr0syIBKARHqyX1NeQAJdN2WVFKIgh8jIh7KiKCR8pBJdHECh6irUgnwK"
    "IA7lEcc2PWYilJjnQSJAyFyoRKRjl7QS+W2kaOTssP06CrkugFinCnE3lkAubx4erNEmI/"
    "xhQvSUFkRGEATEujOx0nRH0rfpX9WTVpEJrwVG1q3yqLgKA70N5GwRMGEUhSESSNsLA1fk"
    "EK+SvkiTjIUO0oiLFzrgYCKNYIOxTGaZmmka9IfQ0pFMFB3IdIW2Gp14SkgjLeQPqdlsnV"
    "HIAX81kPapQi5vLoG4G+2nQiHkOxNREAhXKHGKXNEV8W9TxrAFGQoi6kj0RCgJCVCIdUW+"
    "oKcUQCJxCDaVTlggFPKxjNQhQSEqNhxdNVq0eUL7ukwRYCAqDAVpRDNsBI2B7Zc2GGzFlk"
    "N5BfFE2RdCATkPEgkJajsKo5DiMaScfaoQ/wyQtMHZ+yfFDR0b9Pv2j/73D9fv8AZPywuj"
    "6XxRLOuWnHfq5UWUWC+YdpamowdFmvPD/Xq5mc9H4zEerpWbx6jb5jlVZ7v5cDEYjNP+6e"
    "BaefHEWA2H6dLS1Mvi+2es8zgrRgXKypPhqLs69U4tLc/fTR/0EtSHVdX2cj3WOffSHvKS"
    "6UCY0jtweyfJkt4gHo0XWfXxC4O0SIb4cJGNKks9RsE4mRfCybdG08/TBAUkBi3GheiAwh"
    "cu3M9GNH/UldsYECfDVWlZvllk8TSnApFqW1Et3s/i+RylcwM3x1k8yfHEjYu4u+ppJ8JJ"
    "VL9V8UrLuisI9YpZbzmKH17ZLS9XVlFpntiPdsvt0fTeLIkJI2Z5bnH0iMflRj7HB2hSWy"
    "hU52NM+GZ5Pi8AHC7FBe6ojB/lw9Xt5v1ZdjfNeFnj5fp01kfFvUkXKn3rxWiSQhKCwimZ"
    "fjqOH1ToTsjii+eHKT5zlMYVlQuo7vO0lwzj7Bj1eGC6/IffoMpy84vZ5GiU8m/Kt47i5O"
    "5sMOjlkMEUMghW8l084keLxt/BWun+"
)


#: ``wal-round3.log`` as commit 1cc0636 (WAL_VERSION 8) left it after
#: ``KillDriver("round3", after_commits=1)`` on the same run: one map
#: outcome whose segments hold ``(tag, SamRecord, ...)`` values.
#: zlib + base64 of the 4925 raw bytes.
PARENT_WAL_ROUND3_V8 = (
    "eNqtWEtvG9cZpWy9askvtYCTAt0UaOEWsSDJNsl5z53XHZKV0zgDFFkEwogciqzEB4bDCC"
    "5QIEVQNwam6CI3C+27MQp02UX/QHded9FdgQRdZdVFN03Pdy9py7Zi2W2H5DzufPO4555z"
    "vu+yUqlE09//a+Pjpc+Nilp+KW6WKx9l+aQ/GorWarnW7Q8Psnyc94eFKFez2vb+Ha3dEe"
    "VSPpoOsV2W29tiulmpbHz53l/dJdztbxvP7rZYpJNDUX5Xxd0apPlhZzq+NRoXtwa3tmjB"
    "zbLxqN0TrUq5MpoW7dEgE+V38mycjzYH6TjPOtN2tqnus5Zg8+4s6DPxo1+Je/Kds0G/KL"
    "KO+BBvOckOBtmwmODgpve7lUqFvx/yHXqhi5XKygP6PfrL4z99vPj5cEW9KALLhUiUi+1e"
    "vi12/3H10W/EQ1GujNO86KdHoryu3qY7ygdpMdmcpANRfnsvz9qjvLPXzUeDvW4/O+pM8E"
    "o3y/X3P7i3vSn7tlUXrUbvAu7YMsvF7a2tXVEuWPQEdLaTsMRn3Pex9n2eJAljOOT4JXTA"
    "OZ3DScZmIQyfhOEaBFO8nyCEJYj3KZRRBHYpmNE9ECnKTiNuNKNGHHMeRjxq8jDkPA7CKP"
    "SD0I+x8QI8w/eZ57rMMT1m265n46nMtZllW4ZtOZahY0c3Tcc0NNOoaZpWrRu1mqHXazWt"
    "VhM0ChfuUfe2RXnhPp578T7fFtNC3Be91ZdA+fUzrIHEwo9Fb20GCrqJLjGJCm34m25e4z"
    "oCpdFsNOJmFPG4wQN8IyxhEAShG/p+wLzQ8zwWMt9zmO8yZnue7TqOawET07YsB2vd1G3T"
    "MoEHVnVNq9fxxa96p4ad6gyUXTxuNvQXdt/Dqrr1EkKSbgs/fcrAYAkMnB9Mlz+l84hYHK"
    "f9/CU4b4tWu/dDXNMye5eA48by7s4CsUsSBXSQFJuzA6zAPrVxogkdJZxRC0uSGRkZnaAL"
    "EuJFQu2JJKVqoLtx4kcCIGPAGDfBqzDmAREsCqNAbkAvQBl7QegFuKHneMxxPM91XNfxXc"
    "d0HJu+puSXrVsGPrppGFjrOgA06zXAWa++GkjJuZ1zOQeQPuvdBDYzkIKl5pN/f/01YAIC"
    "PgGDH3WPSV3RBuChl9iQKqXAFIKEKJ2SGuNzufpSn1xqke7EFa6SdYCprt3VqkSPmm5otT"
    "pEhR3dMA3T0tBp0wanbGjMNm3muJCgx1zXw0h4rgdVMha4gRcGfhgCTWg3jAnoJrQd80aD"
    "Q93N5jkw9apn0a73gznPTm6cIt1Xb81I13vnRSg14lsT4TMoy7d2fwa+oa8KH/IrACFNK5"
    "GS88nNFJ0IWEVHTqzjhKsMoBYZRpGScnR+Rkw5IGiQwgXjoNwm/AwwkIAZGOaHASGDPR6w"
    "gLm+50HFWAhOUM6xLABqS5wNfIG8Dh0bpmbommHV63pNA+m0Ozr87Fy+bZ3LN4349hNgMw"
    "Pp5EbzseQb9Z8RKpxAkobFyMx96cG0JgwYWTvByJQeJSYyV0hmkWwlcFLDEmq6Bal9zjf4"
    "cu0unLlm1My6jr6ho7pOnmWaMCyozLKZa0GSFgDy8XOZC3Uyl4gN6oUcCGKJvCjgfsCjOI"
    "gaIQffmo2wSct5fPvgLL5lm8L77YtJ+Zh+f/h7dYCkfHR2Ur5+9dP/V1LeEq0TJOU/Xnk+"
    "KeOY8g9/gw8RlyfKG6VhMNXK5JAy6QlkCspBaUTJZSj/IGkiQyBpGAYGpq7pyCFESWwtDJ"
    "FlItGAs7BG7NsOMQIjg/HByPieG/gR+C4tFh4bhTyM4ziK4QMBdNHgDcgjPpWUzycsQMnm"
    "WEskVFJWoCTs/I8/3+OvE/3yB6A08d6NEG/Pm6hLIt6Aqhuk8Qj5mcSBvMwIBLijD3x8yV"
    "fHtV3bMsFl2waKlmOYlEUM8lfN0uuEqqbfJi3U9P8hKZ+snPLHx6uvTso7KimfrMz0H63u"
    "XodJkpSVjhOpcZk0ZKPMG77MK+R8iYqUFiA91ZfsURmGdM+5Al15wtwI6EoASSkhihtBTP"
    "aIVYDSr4G8jAInBJSAMAKbAtcJoH8SPFC0mQ2DNGzYgwOTBO10m1zSMHVKUKZZs+CRNQMV"
    "TvU2yr9zTfL8QnBHJeVodW6SK82vlElSsUIpWVok9V0BQuJhbJ5eKRNTLlFeKktYaYBsXi"
    "Or9EMmm5A1qnSczGofmZTrVc2oo4bVKQ2AKRqVHmAPWaRcAA/M0rRsMA0geSRE1DGh7wQ+"
    "ZWMvJCWSUcpkFAVU+zSiJsgLNsfnm+S1VyflJ6dJ98XqNyblbZWUn8z59snq7tvg2zdRJz"
    "mbOglF+RI4tSv5mXCZvbkqkRR+dETwculmTSo/0OGI+7IE9EE7cqY4oKIlJLV6mGWAbaiq"
    "vYDqaIemGYyh8jMNZGeDiAf2wQ51g6YYBuq/uoER0jA+4NzdNwbyDIgoJX8yZ9uTleaXkm"
    "2vSRhCz5eVCBWA0ufkBIzLqRoF0aWJhDhR6VhylPAjUWKyVK3fIbaBb6gFUXpAXtAWeg65"
    "keZQ/7kmlXsOdmnkXNv3MP0g24f1gWxwxEDV15itQN1UAEUB5A7Xx5zmv2IbUnJWXu4Px9"
    "Nilj4norVeXsFk/Lmm5XJ91rT/oMgmYvfty+XyZNw/OsLJhXL5AJP88YTm8dcmvWm3e5R1"
    "nl1cKa88bVSXo+n6rGkvT49PtcoUX/RHw6eXoxhoXWxdzMpLh9mDvfZoOpvfnz1zby28zn"
    "SKonrff3X1SzEZHtL73gt1yAsXn5kano85W8nyAVm53s7be920fzTNFQaXu1nR7qH/Rd5X"
    "LatpUWSDcSGxvtof/jxrF8Cym06PChmw1u0DyeO8TzB+KMo1XJC2e/P/QspvFXk6nFC5JM"
    "obqnY6ztPxOMsnmzg4yNPBBGeCtEiTeSRrS6z7wwP1bwvR65ocqL1itDe7Suz+c73cUK2y"
    "7pq300v1hx+N2ikNJr34dP+hSMulyRj3p3e6NCkw1uhGWoh78u+m/qQ3P1w+HuWHWS7KCn"
    "AbjjqZKJdpQ/8ZrRb9QQY2yp4/Q6OTHaUPFFxP0aTH9DI8Zj9LFRKXj7J0ku21e2l+kHUE"
    "dyIj+jNKznL5F6PBfj8Tj8qr+2n7cNTt7k3AwCEYyGd/kVWmD8X+dPM/5dUNrQ=="
)


#: ``wal-round2.log`` as commit 4b5365e (WAL_VERSION 9) left it after
#: ``KillDriver("round2", after_commits=1)`` on the same run: one map
#: outcome whose segments hold ``(qname, SamRecord)`` values.
#: zlib + base64 of the 3210 raw bytes.
PARENT_WAL_ROUND2_V9 = (
    "eNqVlktvG1UUx52Sh2nSkhakCtiySBG1krTY837dedpKkYo3LCprMh7HpvFDM+NWRapUVK"
    "kS0ogFXBbd8gEQKyR2SLDuB2DHBlaIb0D5nzt2ElEoZSbO3Dlz78w9v/s/555areZPPv9O"
    "fbj2lVqrjgd8p9y4m2b5aDrhnVfLzcFocpRms2w0KXhZT1t7hzfkpM/LtWw6n+C6Lq77fN"
    "6o1bZufOv+/ivednXr9G2rRZzf4eWVqt+15DiNJ3jntfG1XTrwpnQ2TYa8Uys3pvMimY5T"
    "Xr6RpbNs2hjHsyztz5O0Ub1ks4vLB4tOX/Krn/KbYsLpeFQUaZ/fxhTz9GicToocNzvOz/"
    "VaLfjQC/ZpNmjXf6Jf88e7bz1c/er7ejVLdCy3Pvzo5l5jd3cxp0vV9wfTbBwXeSOPx7x8"
    "vZelyTTr9wbZdNwbjNLjfo5J7AxXOmm5mgyzPX7wzUW4sfIuL1f0xU2/a//3yZat4GV6P3"
    "/yst8OonbkRUEUtEPf84OIeW7keb7vB67PcLi2Y9uOYxmOzSzDZGjalmkZlqFrlm4bhqpr"
    "uqlqmopDwSnriqQqmiIr1+UWDqXFH/Dy3K2Al6/cCvZ4XvBb/DH/G7rh6s5wu/PkDBCtXN"
    "3b3T3gw40FERb8j7PLuqDSRYOOAIAqq02wQI6xwLaDoOqCK1gGaIJIS25JzZYky6oqq4ok"
    "K3BQI4dUXdcUDd4Cg64buom2Ydo2hlpEyHIYcyyX+a7neUz8Y74XeGEY+mEQhm4YAHPURp"
    "uT/M7dPMCCw/XN4db8H6DsCShvd5IllKcbHW14GTwe1Q/eXCn7AbnDxNzJFUZCYOQSKSNg"
    "rAJAbZxktakTerGqSQzgNB5ilPCfUMFKd+hFV5JIGLTbUTvwAwaB+D7zg5CcC13X8VyPdO"
    "E4LoRiOjhc07R0E7qwbNvUDU21TF1VDU0zVANEFfwgFUmTJFWScSqSJMnvnwAZXnkxjnc6"
    "Xy5xPKovcDzdaP/257NnUIiICSJAsyePbIJAiIhJ5RyhIQF0hRToUdUN6LpCEQTGFhSFNr"
    "oYjxvCAlZdUoiqNKUbmHlLailNWdJkFQJRNPIS8jCgE0M3LM2yTdtEk1bJMpjDIBOoBAHl"
    "QBqe6/ou8fQ9F9GGkAt8N4owgyiK2i8BZF8AuXaqjydLffj1g0srhMMWuqc1Jw/FegsjIy"
    "aM/CFbt1v1FFr6N1HZ/ywq4MB8Az+M3BAeQOq+C18iD1Hguh6SCELDR4C4lgmFmBa91zIN"
    "27Asg4BpJvFCZBkEUdWII6wtXUEgqtBG87osN88EzB5/MZDWqUL8pUKebLT/EAoh16AN8m"
    "zhcOU8rbotIoAiBFDw65IMiAQgkZ7sl5QXkEDXTVklhSjIITLyoawoCgkfqUQXB1Cougq1"
    "IJ8CiEN5xLFNj5kIJeZ5kAgQMhcqEenYJa1EfhspGjk7bL+MQq4LINapQty1BZDL6wf7K7"
    "TJCH+YED2lBZERBAGx7kysNN2R9G36V/WkVWTCa4GRdas8Kq7CQG8DOVsETBhFYYgE0vbC"
    "wBU5xKukL9IkY6GDNOLihQ44mEgj2GAsk1mmZpoG/SG0dCQTRQcyXaGtRieeEtJIC/lDaj"
    "ZbZxSyz18MpH2qkMvrCyDuWvupUAj5zkQUBMIVSpwiV3RF/NuUMWxBhoKIOhI9EUpCAhRi"
    "XZEv6CkFkEgcgk2lExYIhbwvI3VIUIiKDUdXjRZtntC+LlMEGIgKQ0Ea0QwbQWNg+6UNBl"
    "ux5VBeQTxR9oVQQM6DREKC2o7CKKR4DClnnyrEPwMkbXD29klxQ8ca/b74pf/1w9XbvMHT"
    "8sJoMpsXi7ol5516eREl1t9MWwvT4f0izfnBXr1cz2ej42M8XCnXj1C3zXKqzrbz4XwwOE"
    "77p4Nr5cUTYzUcpksLUy+L752xzuKsGBUoK0+Go+7q1Du1tDx/J73fS1AfVlXb8/VY59xz"
    "e8hzpn1hSm/D7a0kS3qDeHQ8z6qPXxikRTLEh4tsVFnqMQrG8awQTr42mnycJiggMWh+XI"
    "gOKHzhwr1sRPNHXbmJAXEyXJaW5atFFk9yKhCpthXV4r0sns1QOjdwc5TF4xxP3LiIu8ue"
    "diKcRPVbFa+0rNuCUK+Y9haj+MFb2+XlyioqzRP74Xa5OZrcnSYxYcQsz80PH/O4XMtn+A"
    "BN6nxegDL8iAt+U9Tuo3y4vF2/N83upBkva7xcnUz7KLPX6UL1br0YjVPoQLh+iqOfHsf3"
    "K14nOOkzwxSfOUzjCsUFlPR52kuGcXaEIjww7ds77/1Qq5Xrn0zHh6OUf1a+dhgnd6aDQS"
    "/H2k+w9sFSs/PH/HDe+AtW2+Xa"
)


#: ``wal-round2.log`` as commit 4d79c5f (WAL_VERSION 10) left it after
#: ``KillDriver("round2", after_commits=1)`` on the same run: one map
#: outcome that still carries the ``timeouts`` and ``heartbeats`` slots.
#: zlib + base64 of the 3252 raw bytes.
PARENT_WAL_ROUND2_V10 = (
    "eNqVlktv3FQUx6dVEsZN2gaEhAQLtgUpUWYmGb+f18+JUkTrRUEqI8fxJEMyD3k8jYqEVD"
    "YVSF6Bu0d8ANZs2fE1EHs+ABIS/3Odd/riemZ8fXyvfc9v/ufc02g0/M+9P359tvhCbdTt"
    "2+pe+c6TLJ8NJ+Nq+1a5PBiO97N8mg/HRVU2M7G1uymne1W5mE/mY5yX+LldzdcbjZWvKk"
    "24i6c9XDl/2kKRzA6r8oN63Fp6lCVjPHNttLZBDU/KppP0oNpulO9M5kU6GWVV+X6eTfPJ"
    "+iiZ5tnePM3W64csxzh9djLop+qT76r7fMHZaFgU2V71GEucZfujbFzMcHHPWRAajeChF7"
    "RpNU18/qbvv7///PGzhRd/NetVYmC58vCL+631jY2TNf1z8VJobbSE9CBvCR1xSxI2hE8F"
    "/bQb228+2GkveJvR1w+hF0S9yIuCKOiFvucHEfPcyPN83w9cn6G5tmPbjmMZjs0sw2To2p"
    "ZpGZaha5ZuG4aqa7qpapqKpuCQdUVSFU2RlY4soimi8CBQvlQeBK3qeXWFxqPFG43GZSBb"
    "nQtAukRoY+ccCgv+xxGzGGBidKgFYFRbbeIFeIwFth0E9RCcgTNAVxBlUeqKkiyrqqwqkq"
    "zAR418UnVdUzQ4DBK6bugm+oZp25hoESTLYcyxXOa7nucx/sN8L/DCMPTDIAzdMADpqIe+"
    "cH8HUDZeyaZVPVq6zKYlyHKNpiXLF9G0W6IstKWWEJBrjPtBbjHSBSP3SCgBYzUM6uMgq0"
    "2DMIrVXeIBALiJWZwFYYOVrjCKzgIW3+tFvcAPGPTi+8wPQnI0dF3Hcz2SieO40I3poLmm"
    "aekmZGLZtqkbmmqZuqoammaoBugq+EI5kiZJqiTjUCRJkrfeAk7zKpzWpljT4TjO6XBYa4"
    "SH8YAhHuQL+WcTEgJGhGpXCRRJI+YioVv1MICMuVYIk82ZctXEmI8LggRysSCqSlfahB+i"
    "JCpdWdJkFdJRNPIZwjGgIEM3LM2yTdtEl/4xy2AOg4CgH0SbA9F4ruu7RNf3XIQi4jHw3S"
    "jC+6Mo6r0JT/uadtoXtLO5dUk7LUloix2BJBNzkcBzxlHYATcyIsTIO7LFcT2S6+xVgrNf"
    "LjgBqw/8MHJD+IOQ8F14FnmIFtf1kG8QQj4CybVMqMe06KmWadiGZRmETzOJHiLQIKSqRl"
    "RhFXUFAatCN92OLHdrOK3XwWlehXNBOy3pknYAa43wkJtQDXl54nwNgvRg80ihSAIgfGMS"
    "CFEBMFKa/ZbCE6D/rqySdhTkHRlpVFYUhQIE6UfnDVhUXYWOkIYBx6Hc49imx0yEHPM8iA"
    "c4mQv98Czukooiv4fMjlQf9t6onc417XTOtdPZvERna2tT6Gx0hRPvGA8OSiY8j3AeXBGM"
    "a4CuKERs+qlH0j/MOAMOlcV1JuZnbqCngSNiUQijKAyRdnpeGLg883h1iPBEy1joIPm4eJ"
    "wDKiaSD3Ypy2SWqZmmQR+EoI4UpOgAqCu0X+lEV0LyEZF1pG5XrOG0XweneRXOmXY4jgt0"
    "CNYaxxPXKaPOqORMzDMu35ICyjO0DRElCjUaSCR5wHFxUCDGPMfQXQoznmw4p1pBLIB2tm"
    "SkGwnaUbF96aoh0m6MCNFlihMDsWMoSD2aYSO0DOzntF1hb7ccykWIOsrfkBAoehBPSIB7"
    "URiFFLUhZf2X4MnWK/bRWRlEbZG+P/6598uzhcfVepWVt4fj6bzo51k6yfdm1XazvINi7I"
    "pp5cS0+7TIZtVOq1kuzabDoyPcvFEu7aPCm86ojludHcwHg6Ns73xyo7xzZqynw/Tuiamf"
    "J8cXrNMkL4YFCtCz6ajQtpvbjay8dZg97aeoJOv67nrltn3z2i50zdTmpuwx3F5J87Q/SI"
    "ZH87x++e1BVqQHeHGRD2tLM0FpOZoW3Mm7w/HXWYpSE5PmRwUfgBIZLhznQ1o/KtBlTEjS"
    "g9MitBSKPBnPBpN8RFUwr2uP82Q6RZG9jov9PBnNcMdNiiQ+HWmn3EnUyXWZS1XuKifULy"
    "b9k1nVzoer5Xu1dZBPRuf23dVyeTh+MkkTwohV3pzvPq+ScnE2xQtoUbdmBSjDj6So7vMq"
    "fzg7OL1cOp7kh1lelY2qXBhP9lCQL9GJKuNmMRxl0AF3/RzHXnaUPK15neGk1xxkeM1ult"
    "QobqP4n2X99CDJ91GuB6b/253vIcVy6ZvJaHeYVT+Ud3eT9HAyGPRn+O/H+O+DU83On1e7"
    "8/X/AKHInvM="
)


#: ``wal-round2.log`` as commit be75a7e (WAL_VERSION 11) left it after
#: ``KillDriver("round2", after_commits=1)`` on the same run: one map
#: outcome that still carries the in-worker retry loop's ``attempts``,
#: ``injected_faults``, ``failures`` and ``backoff_seconds`` slots.
#: zlib + base64 of the 3224 raw bytes.
PARENT_WAL_ROUND2_V11 = (
    "eNqVlklv20YUx5XAdsTYWVoUKNAeek0L2LAkW9zX4SrDKZDwkBQIDJqmbNXWAoqKkQIF3E"
    "vQAjy1zL3IN+ln6Km3LvceemuBAv2/oXdn69Ayh48zo3k//d+b12g0/L9+/vX3o/kXaqNu"
    "X1f3yhtPs3w6GI+qjcVysT8Y7Wb5JB+MiqpsZmJre01Od6pyPh/PRrgv8Hu7mq00GkvOLy"
    "///hariUtnq80VyXS/Kj+sxy2nB1kywprLw+VValgpm4zTvWqjUd4Yz4p0PMyq8oM8m+Tj"
    "lWEyybOdWZqt1Issxrh9fjzoh+rTb6r7fMPZcFAU2U71BFucZrvDbFRM8XDPmRMajeChF7"
    "RpN038/Umff3/68ZOjuRd/NOtdYmC59PDx/dbK6urxnv45/yi0VltCupe3hI64LgmrwmeC"
    "ftKN7bdf7KQXvMvoq5fQC6Je5EVBFPRC3/ODiHlu5Hm+7weuz9Bc27Ftx7EMx2aWYTJ0bc"
    "u0DMvQNUu3DUPVNd1UNU1FU3DJuiKpiqbISkcW0RRReBAoXygPglb1vLpE49H8tUbjIpD1"
    "zjkgXSK0unkGhQX/44pZDDAxOtQCMKqtNvECPMYC2w6CegjuwBmgK4iyKHVFSZZVVVYVSV"
    "bgo0Y+qbquKRocBgldN3QTfcO0bUy0CJLlMOZYLvNdz/MY/8d8L/DCMPTDIAzdMADpqIe+"
    "cH8TUFZfy6ZVPVq4yKYlyHKNpiXL59G0W6IstKWWEJBrjPtBbjHSBSP3SCgBYzUM6uMiq0"
    "2DMIrVXeIBAHiJWZwFYYOVnjCK7gI23+tFvcAPGPTi+8wPQnI0dF3Hcz2SieO40I3poLmm"
    "aekmZGLZtqkbmmqZuqoammaoBugq+EA5kiZJqiTjUiRJktffAU7zMpzWmljT4TjO6HBYy4"
    "SH8YAhHuQL+WcTEgJGhGpXCRRJI+YioVf1MICMuVYIk82ZctXEmI8HggRysSCqSldagx+i"
    "JCpdWdJkFdJRNPIZwjGgIEM3LM2yTdtEl34xy2AOg4CgH0SbA9F4ruu7RNf3XIQi4jHw3S"
    "jC90dR1HsbnvYV7bTPaWdt/YJ2WpLQFjsCSSbmIoHnjKOwA25kRIiRd2SL43ok19nrBGe/"
    "WnACdh/4YeSG8Ach4bvwLPIQLa7rId8ghHwEkmuZUI9p0aqWadiGZRmETzOJHiLQIKSqRl"
    "RhFXUFAatCN92OLHdrOK03wWlehnNOOy3pgnYAa5nwkJtQDXl57HwNgvRg80ihSAIgfGIS"
    "CFEBMFKa/Y7CE6D/rqySdhTkHRlpVFYUhQIE6UfnDVhUXYWOkIYBx6Hc49imx0yEHPM8iA"
    "c4mQv98Czukooiv4fMjlQf9t6qnc4V7XTOtNNZu0BnfX1N6Kx2hWPvGA8OSiY8j3AeXBGM"
    "a4CeKERs+lePpF+YcQYcKovrTMzv3ECrgSNiUQijKAyRdnpeGLg883h1iPBEy1joIPm4WM"
    "4BFRPJB6eUZTLL1EzToD+EoI4UpOgAqCt0XulEV0LyEZF1pG5XrOG03wSneRnOqXY4jnN0"
    "CNYyxxPXKaPOqORMzDMuP5ICyjN0DBElCjUaSCR5wHFxUCDGPMfQWwoznmw4p1pBLIB21m"
    "WkGwnaUXF86aoh0mmMCNFlihMDsWMoSD2aYSO0DJzndFzhbLccykWIOsrfkBAoehBPSIB7"
    "URiFFLUhZf1X4MlWKvbxaRlEbZ4+3/+28/Jo7km1UmXlrcFoMiu28iwd5zvTaqNZ3kYxds"
    "m0dGzaflZk02qz1SwXppPBwQFeXisXdlHhTaZUx92d7s36/YNs52xyo7x9aqynw/TesWkr"
    "Tw7PWSdJXgwKFKCn01GhbTQ3Gll5cz97tpWikqzru6uV28b1K6fQFVObm7IncHspzdOtfj"
    "I4mOX1l9/qZ0W6hy8u8kFtaSYoLYeTgjt5ZzD6MktRamLS7KDgA1Aiw4XDfED7RwW6iAlJ"
    "undShJZCkSejaX+cD6kK5nXtYZ5MJiiyV/CwmyfDKd64SZHEJyPtlDuJOrkuc6nKvcsJbR"
    "XjreNZ1eZHd8v3a2s/Hw/P7Nt3y8XB6Ok4TQgjdnl9tv28Ssr56QRfQJu6OS1AGX4kRXWf"
    "V/mD6d7J48LhON/P8qpsVOXcaLyDgnyBblQZnxHYyQ6SZzWiU4JY+RYK/Gm2le4l+S5K8s"
    "BcO3o8gdzKha/Gw+1BVn1X3tlO0v1xv781xe87wu8bnOhy9rzanq38B+Frlwk="
)
