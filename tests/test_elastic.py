"""Pool sizing and pool chaos: each wave on ``min(max_workers, its
tasks)`` workers, spot-style worker preemption and cold-start charging.

Resizing keeps the pool's contract: byte-identical outputs under every
resize and every preemption, with the resizes visible as history
events and ``pool.scale.*`` metrics rather than as output differences.
"""

import dataclasses

import pytest

from repro.api import PipelineSpec
from repro.chaos.plan import (
    ColdStart,
    CorruptSegment,
    DuplicateCommit,
    FaultPlan,
    PreemptWorker,
    ZombieAttempt,
)
from repro.errors import MapReduceError
from repro.hdfs.filesystem import Hdfs
from repro.io.policy import IoPolicy
from repro.mapreduce import counters as C
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.executors import (
    JobContext,
    PooledProcessExecutor,
    fork_available,
)
from repro.mapreduce.job import InputSplit, JobSpec, make_splits
from repro.mapreduce.policy import ExecutionPolicy
from repro.obs.recorder import TraceRecorder
from repro.pipeline.parallel import GesallPipeline

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)
pytestmark = needs_fork

NODES = [f"node{i:02d}" for i in range(4)]

LINES = [
    "the quick brown fox",
    "jumps over the lazy dog",
    "the dog barks",
    "quick quick slow",
]


def wordcount_job(name="wc", reducers=2):
    def mapper(line, ctx):
        for word in line.split():
            ctx.emit(word, 1)

    def reducer(word, counts, ctx):
        ctx.emit(word, sum(counts))

    return JobSpec(name, mapper, reducer, num_reducers=reducers)


def clean_outputs():
    return MapReduceEngine(nodes=NODES).run(
        wordcount_job(), make_splits(LINES)
    ).all_outputs()


def _context(num_splits):
    return JobContext(
        job=None,
        policy=ExecutionPolicy.serial(),
        splits=[None] * num_splits,
    )


class TestScalingController:
    def test_rejects_bad_bounds(self):
        with pytest.raises(MapReduceError):
            PooledProcessExecutor(0)

    def test_initial_fork_tracks_first_wave_demand(self):
        executor = PooledProcessExecutor(8)
        try:
            executor.begin_job(_context(3))
            assert len(executor._workers) == 3  # demand, not max
        finally:
            executor.close()

    def test_initial_fork_respects_floor_and_ceiling(self):
        """At least one worker, at most ``max_workers``."""
        executor = PooledProcessExecutor(4)
        try:
            executor.begin_job(_context(0))
            assert len(executor._workers) == 1
            executor.end_job()
            executor.begin_job(_context(40))
            assert len(executor._workers) == 4
        finally:
            executor.close()

    def test_queue_pressure_grows_toward_demand(self):
        """More tasks in the coming wave than live workers: grow to
        them in one step."""
        executor = PooledProcessExecutor(8)
        try:
            executor.begin_job(_context(3))
            assert executor.rebalance(6) == {
                "action": "scale_up", "from_workers": 3, "to_workers": 6,
                "next_tasks": 6,
            }
            assert len(executor._workers) == 6
            assert executor.scale_ups == 1
        finally:
            executor.close()

    def test_idle_slots_are_drained_then_retired(self):
        executor = PooledProcessExecutor(8)
        try:
            executor.begin_job(_context(8))
            decision = executor.rebalance(1)
            assert decision["action"] == "scale_down"
            assert decision["to_workers"] == 1  # the coming demand
            assert executor.workers_retired == 7
            assert executor.scale_downs == 1
        finally:
            executor.close()

    def test_never_grows_past_next_wave_demand(self):
        """Up to the coming wave's tasks, and never past the ceiling."""
        executor = PooledProcessExecutor(4)
        try:
            executor.begin_job(_context(2))
            assert executor.rebalance(3)["to_workers"] == 3
            assert executor.rebalance(40)["to_workers"] == 4
            assert executor.rebalance(40) is None
        finally:
            executor.close()

    def test_engine_records_scaling_decisions(self):
        recorder = TraceRecorder()
        with MapReduceEngine(
            nodes=NODES,
            policy=ExecutionPolicy.pooled(max_workers=4),
            recorder=recorder,
        ) as engine:
            result = engine.run(wordcount_job(), make_splits(LINES))
        assert result.all_outputs() == clean_outputs()
        # 4 maps -> 2 reduces: the pool shrank once.
        [event] = result.history.events_of("pool_scaled")
        assert event["next_tasks"] == 2
        counters = recorder.metrics.as_dict()["counters"]
        assert counters.get("pool.scale.decisions") == 1

    def test_tracing_does_not_change_how_the_pool_scales(self):
        """A traced run measures the program the untraced run is: the
        same ``pool_scaled`` events, job after job."""

        def decisions(recorder):
            with MapReduceEngine(
                nodes=NODES,
                policy=ExecutionPolicy.pooled(max_workers=4),
                recorder=recorder,
            ) as engine:
                return [
                    engine.run(wordcount_job(f"wc{n}", n), make_splits(LINES))
                    .history.events_of("pool_scaled")
                    for n in (1, 4, 2, 3)
                ]

        untraced = decisions(None)
        assert any(untraced)
        assert decisions(TraceRecorder()) == untraced


class TestPreemption:
    def run_preempted(self, events, *, policy_kwargs=None, job=None,
                      splits=None, nodes=NODES):
        plan = FaultPlan(events=tuple(events))
        kwargs = dict(
            executor="pool", max_workers=2, fault_plan=plan,
        )
        kwargs.update(policy_kwargs or {})
        recorder = TraceRecorder()
        with MapReduceEngine(
            nodes=nodes, policy=ExecutionPolicy(**kwargs),
            recorder=recorder,
        ) as engine:
            result = engine.run(
                job or wordcount_job(),
                splits if splits is not None else make_splits(LINES),
            )
            executor = engine._executor
            respawned = executor.workers_respawned
            preemptions = executor.preemptions
        return engine, result, recorder, respawned, preemptions

    def test_preempted_map_task_is_absorbed(self):
        engine, result, recorder, respawned, preemptions = \
            self.run_preempted([PreemptWorker("wc", wave="map", task=0)])
        assert result.all_outputs() == clean_outputs()
        assert preemptions == 1
        assert respawned >= 1
        assert result.counters.get(C.WORKER_CRASHES) == 1
        assert result.counters.get(C.BACKUP_ATTEMPTS) == 1
        [event] = result.history.events_of("worker_preempted")
        assert event["task"] == "wc-m-00000"
        assert event["wave"] == "map"
        [backup] = result.history.backup_tasks()
        assert backup.task_id == "wc-m-00000-backup-e1"
        assert result.history.summary()["backups"] == 1
        counters = recorder.metrics.as_dict()["counters"]
        assert counters.get("chaos.preempt_worker") == 1
        assert counters.get("pool.preemptions") == 1
        assert counters.get("pool.workers_respawned", 0) >= 1

    def test_preempted_reduce_task_is_absorbed(self):
        engine, result, recorder, respawned, preemptions = \
            self.run_preempted(
                [PreemptWorker("wc", wave="reduce", task=1)]
            )
        assert result.all_outputs() == clean_outputs()
        assert preemptions == 1
        [event] = result.history.events_of("worker_preempted")
        assert event["task"] == "wc-r-00001"
        assert event["wave"] == "reduce"

    def test_preemption_under_elastic_executor(self):
        engine, result, recorder, respawned, preemptions = \
            self.run_preempted(
                [PreemptWorker("wc", wave="map", task=1)],
                policy_kwargs={"max_workers": 3},
            )
        assert result.all_outputs() == clean_outputs()
        assert preemptions == 1
        assert respawned >= 1

    @pytest.mark.parametrize("kind", ["serial"])
    @pytest.mark.parametrize(
        "event", [PreemptWorker("wc"), ColdStart(0.25)],
        ids=["preempt", "cold-start"],
    )
    def test_pool_only_chaos_rejected_off_the_pool(self, kind, event):
        """Regression: a plan aimed at pool workers used to be ignored
        without a word off the pool — the chaos run "passed"
        having injected nothing.  Now it is a typed error naming the
        event and the executor."""
        with pytest.raises(MapReduceError) as raised:
            ExecutionPolicy(
                executor=kind, fault_plan=FaultPlan(events=(event,))
            )
        assert type(event).__name__ in str(raised.value)
        assert repr(kind) in str(raised.value)

    def test_out_of_range_preemption_is_ignored(self):
        engine, result, recorder, respawned, preemptions = \
            self.run_preempted([PreemptWorker("wc", wave="map", task=99)])
        assert result.all_outputs() == clean_outputs()
        assert preemptions == 0
        assert respawned == 0
        assert result.history.events_of("worker_preempted") == []

    def test_twice_preempted_node_is_blacklisted_and_rotated_out(self):
        """Satellite regression: when the pool respawns workers for a
        node that keeps getting preempted, the retry/backup candidate
        rotation must honor the blacklist — the twice-preempted node
        is not chosen again."""
        splits = [
            InputSplit(f"s{i}", LINES[i], preferred_node="node01")
            for i in range(len(LINES))
        ]
        engine, result, recorder, respawned, preemptions = \
            self.run_preempted(
                [
                    PreemptWorker("wc", wave="map", task=0),
                    PreemptWorker("wc", wave="map", task=1),
                ],
                policy_kwargs={"blacklist_after": 2},
                splits=splits,
            )
        assert result.all_outputs() == clean_outputs()
        assert preemptions == 2
        assert engine.blacklisted_nodes == {"node01"}
        [event] = result.history.events_of("node_blacklisted")
        assert event["node"] == "node01"
        # Both preempted tasks got fenced backups; the backup launched
        # after the blacklist tripped must have rotated off node01.
        backups = result.history.backup_tasks()
        assert len(backups) == 2
        rotated = result.history.find("wc-m-00001-backup-e1")
        assert rotated.node != "node01"


class TestColdStart:
    def test_cold_start_is_charged_per_fork_never_slept(self):
        plan = FaultPlan(events=(ColdStart(0.25, job="wc"),))
        recorder = TraceRecorder()
        with MapReduceEngine(
            nodes=NODES,
            policy=ExecutionPolicy(
                executor="pool", max_workers=2, fault_plan=plan,
            ),
            recorder=recorder,
        ) as engine:
            result = engine.run(wordcount_job(), make_splits(LINES))
        assert result.all_outputs() == clean_outputs()
        [armed] = result.history.events_of("cold_start_armed")
        assert armed["seconds_per_fork"] == 0.25
        counters = recorder.metrics.as_dict()["counters"]
        # One charge per forked worker.
        assert counters.get("pool.cold_starts") == 2
        assert counters.get("pool.cold_start_seconds") == \
            pytest.approx(0.5)

    def test_cold_start_for_other_job_does_not_fire(self):
        plan = FaultPlan(events=(ColdStart(0.25, job="other-job"),))
        recorder = TraceRecorder()
        with MapReduceEngine(
            nodes=NODES,
            policy=ExecutionPolicy(
                executor="pool", max_workers=2, fault_plan=plan,
            ),
            recorder=recorder,
        ) as engine:
            result = engine.run(wordcount_job(), make_splits(LINES))
        assert result.all_outputs() == clean_outputs()
        counters = recorder.metrics.as_dict()["counters"]
        assert "pool.cold_starts" not in counters
        assert not result.history.events_of("cold_start_armed")

    def test_jobless_cold_start_applies_to_every_job(self):
        plan = FaultPlan(events=(ColdStart(0.1),))
        assert plan.cold_start_for("anything") == pytest.approx(0.1)
        assert plan.cold_start_for("wc") == pytest.approx(0.1)


#: Every (job, wave) a preemption can target in the default five-round
#: pipeline: map waves of all five rounds, reduce waves of the three
#: map+reduce rounds.
PIPELINE_WAVES = [
    ("round1-alignment", "map"),
    ("round2-cleaning", "map"),
    ("round2-cleaning", "reduce"),
    ("round3-markdup-opt", "map"),
    ("round3-markdup-opt", "reduce"),
    ("round4-sort", "map"),
    ("round4-sort", "reduce"),
    ("round5-haplotypecaller", "map"),
]


class TestPipelinePreemptionProperty:
    """Property: preempting a worker at ANY wave of ANY round of the
    five-round pipeline yields byte-identical variants."""

    @pytest.fixture(scope="class")
    def clean_variants(self, reference, ref_index, pairs):
        result = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=4,
            num_reducers=3, policy=ExecutionPolicy.serial(),
        )).run(pairs)
        return [v.to_line() for v in result.variants]

    @pytest.mark.parametrize("job,wave", PIPELINE_WAVES)
    def test_preemption_anywhere_is_byte_identical(
        self, reference, ref_index, pairs, clean_variants, job, wave
    ):
        plan = FaultPlan(events=(PreemptWorker(job, wave=wave, task=0),))
        result = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=4,
            num_reducers=3,
            policy=ExecutionPolicy(
                executor="pool", max_workers=2, fault_plan=plan,
            ),
        )).run(pairs)
        assert [v.to_line() for v in result.variants] == clean_variants
        preempted = [
            event
            for job_result in result.rounds.results.values()
            for event in job_result.history.events_of("worker_preempted")
        ]
        assert len(preempted) == 1
        assert preempted[0]["wave"] == wave


SIX_LINES = LINES + ["a b c d e", "f g h"]


def run_jobs(policy, shapes, traced):
    """Run wordcount jobs of the given (maps, reducers) shapes on one
    engine; report, per job, how the pool resized and what it forked."""
    recorder = TraceRecorder() if traced else None
    jobs = []
    with MapReduceEngine(
        nodes=NODES, policy=policy, recorder=recorder
    ) as engine:
        for index, (maps, reducers) in enumerate(shapes):
            job = wordcount_job(f"wc{index}", reducers)
            splits = make_splits(SIX_LINES[:maps])
            result = engine.run(job, splits)
            serial = MapReduceEngine(nodes=NODES).run(job, splits)
            assert result.all_outputs() == serial.all_outputs()
            assert result.counters.as_dict() == serial.counters.as_dict()
            executor = engine._executor
            jobs.append({
                "scaled": [
                    (e["action"], e["from_workers"], e["to_workers"],
                     e["next_tasks"])
                    for e in result.history.events_of("pool_scaled")
                ],
                "events": [e["kind"] for e in result.history.events],
                "forks": executor.forks,
                "ups": executor.scale_ups,
                "downs": executor.scale_downs,
                "retired": executor.workers_retired,
            })
    pool_metrics = None
    if recorder is not None:
        pool_metrics = {
            name: value
            for name, value in recorder.metrics.as_dict()["counters"].items()
            if name.startswith("pool.") and "seconds" not in name
        }
    return jobs, pool_metrics


class TestFoldEquivalence:
    """What the fixed pool did, kept: a pool whose every wave has at
    least ``max_workers`` tasks (``wgs-pool2``'s shape) never resizes."""

    @pytest.mark.parametrize("traced", [False, True])
    def test_fixed_pool_forks_n_per_job_and_never_scales(self, traced):
        """``pooled(2)``: exactly 2 forks per job, no ``pool_scaled``
        event, no ``pool.scale.*`` metric."""
        jobs, metrics = run_jobs(
            ExecutionPolicy.pooled(2), [(6, 2), (4, 3), (2, 2)], traced
        )
        assert [job["forks"] for job in jobs] == [2, 4, 6]
        assert all(job["events"] == [] for job in jobs)
        assert all(
            (job["ups"], job["downs"], job["retired"]) == (0, 0, 0)
            for job in jobs
        )
        if traced:
            assert metrics == {"pool.forks": 6, "pool.reuse_count": 3}


class TestWaveSizing:
    @pytest.mark.parametrize("traced", [False, True])
    def test_pool_sizes_each_wave_to_its_tasks(self, traced):
        """``pooled(3)`` forks ``min(3, maps)`` workers per job and
        moves to ``min(3, reducers)`` for the reduce wave, in one step,
        traced or not."""
        jobs, metrics = run_jobs(
            ExecutionPolicy.pooled(3), [(6, 2), (4, 1), (2, 3)], traced
        )
        assert [job["scaled"] for job in jobs] == [
            [("scale_down", 3, 2, 2)],
            [("scale_down", 3, 1, 1)],
            [("scale_up", 2, 3, 3)],
        ]
        assert [
            (j["forks"], j["ups"], j["downs"], j["retired"]) for j in jobs
        ] == [(3, 0, 1, 1), (6, 0, 2, 3), (9, 1, 2, 3)]
        if traced:
            assert metrics == {
                "pool.forks": 9,
                "pool.reuse_count": 3,
                "pool.scale.decisions": 3,
                "pool.scale.downs": 2,
                "pool.scale.ups": 1,
                "pool.workers_retired": 3,
            }

    def test_worker_io_reaches_the_job_stats(self, tmp_path):
        """Spill runs are written through each worker's copy of the I/O
        layer; each reply carries its task's counts, so the pool reports
        the serial run's writes.  (Reads differ: the driver reads
        replicas to ship them to the reducers.)"""
        def io_stats(kind):
            policy = ExecutionPolicy(
                executor=kind, max_workers=3,
                io=IoPolicy(spill_dirs=(str(tmp_path / kind),)),
            )
            with MapReduceEngine(nodes=NODES, policy=policy) as engine:
                engine.run(
                    dataclasses.replace(wordcount_job(), io_sort_records=3),
                    make_splits(SIX_LINES),
                )
                stats = engine.io.stats.as_dict()
            return {name: stats[f"io.{name}"] for name in (
                "writes", "fsyncs", "dir_fsyncs", "unlinks", "bytes_written",
            )}

        serial = io_stats("serial")
        assert serial["writes"] > 12  # spill runs, not just segments
        assert io_stats("pool") == serial


class TestComposedExecutionPlaneDrill:
    """One seeded plan, every execution-plane fault at once, on a
    scaling pool over a disk-spill job: worker preemption in both
    waves, cold start, a zombie attempt, a duplicate commit and a
    corrupt segment — byte-identical to the serial run, with every
    recovery counted exactly."""

    PLAN = FaultPlan(seed=14, events=(
        PreemptWorker("drill", wave="map", task=1),
        PreemptWorker("drill", wave="reduce", task=1),
        ColdStart(0.25, job="drill"),
        ZombieAttempt("drill-m-00003"),
        DuplicateCommit("drill-r-00000"),
        CorruptSegment("drill", map_index=2, reducer=1, replica_index=0),
    ))

    @staticmethod
    def drill_job():
        def mapper(line, ctx):
            for word in line.split():
                ctx.emit(word, 1)
            ctx.write_file(f"/drill/{ctx.task_index}", line.encode())
            ctx.attach("lines", line)

        def reducer(word, counts, ctx):
            ctx.emit(word, sum(counts))

        # io_sort_records=3 forces several disk spills per map task.
        return JobSpec("drill", mapper, reducer, num_reducers=2,
                       io_sort_records=3)

    def run_drill(self, spill_dir, traced=False, **policy_kwargs):
        hdfs = Hdfs(NODES, replication=2)
        recorder = TraceRecorder() if traced else None
        policy = ExecutionPolicy(
            io=IoPolicy(spill_dirs=(str(spill_dir),)), **policy_kwargs
        )
        with MapReduceEngine(
            nodes=NODES, policy=policy, filesystem=hdfs, recorder=recorder,
        ) as engine:
            result = engine.run(self.drill_job(), make_splits(SIX_LINES))
        files = {f.path: hdfs.get(f.path) for f in hdfs.files()}
        return result, files, recorder

    @pytest.mark.parametrize("traced", [False, True])
    def test_composed_faults_are_byte_identical_to_serial(
        self, tmp_path, traced
    ):
        serial, serial_files, _ = self.run_drill(tmp_path / "serial")
        result, files, recorder = self.run_drill(
            tmp_path / "pool", traced=traced, executor="pool",
            max_workers=3, fault_plan=self.PLAN,
        )
        assert result.all_outputs() == serial.all_outputs()
        assert result.reduce_outputs == serial.reduce_outputs
        assert result.attachments == serial.attachments
        assert files == serial_files

        # Every counter the faults did not touch equals the serial run's;
        # every recovery is counted exactly.
        expected = serial.counters.as_dict()
        expected.update({
            C.WORKER_CRASHES: 2,
            C.LEASE_EXPIRATIONS: 1,
            C.BACKUP_ATTEMPTS: 3,
            C.FENCED_COMMITS: 2,
            C.SHUFFLE_CRC_FAILURES: 1,
            C.SHUFFLE_FETCH_RETRIES: 1,
            C.MAP_TASK_ATTEMPTS: 6 + 2,
            C.REDUCE_TASK_ATTEMPTS: 2 + 1,
        })
        assert result.counters.as_dict() == expected

        # Three workers for six maps, two for two reducers.
        [scaled] = result.history.events_of("pool_scaled")
        assert (scaled["from_workers"], scaled["to_workers"]) == (3, 2)
        assert [e["kind"] for e in result.history.events] == [
            "cold_start_armed",
            "worker_preempted", "worker_crashed", "backup_launched",
            "lease_expired", "backup_launched", "commit_fenced",
            "segment_corrupted", "pool_scaled",
            "worker_preempted", "commit_fenced", "worker_crashed",
            "backup_launched",
        ]
        if traced:
            # The full registry, measured seconds aside.  The ``io.*``
            # rows include what the workers' spill runs wrote (each
            # reply carries its task's I/O counts), and one worker
            # retires for the two-task reduce wave.
            counters = recorder.metrics.as_dict()["counters"]
            # 3 initial forks + 2 respawns, each charged the cold start.
            assert counters["pool.cold_start_seconds"] == pytest.approx(1.25)
            assert {
                name: counters[name] for name in counters
                if "seconds" not in name
            } == {
                "chaos.corrupt_segment": 1,
                "chaos.duplicate_commit": 1,
                "chaos.preempt_worker": 2,
                "commit.fenced": 2,
                "commit.promoted": 8,
                "commit.staged": 9,
                "io.bytes_read": 2579,
                "io.bytes_written": 1898,
                "io.dir_fsyncs": 35,
                "io.fsyncs": 35,
                "io.reads": 47,
                "io.unlinks": 34,
                "io.writes": 35,
                "lease.backups_launched": 3,
                "lease.expired": 1,
                "pool.cold_starts": 5,
                "pool.forks": 5,
                "pool.preemptions": 2,
                "pool.reuse_count": 4,
                "pool.scale.decisions": 1,
                "pool.scale.downs": 1,
                "pool.worker_crashes": 2,
                "pool.workers_respawned": 2,
                "pool.workers_retired": 1,
                "shuffle.bytes_shuffled": 681,
                "shuffle.crc_failures": 1,
                "shuffle.fetch_retries": 1,
                "shuffle.raw_bytes": 417,
                "shuffle.segment_bytes_stored": 681,
                "shuffle.segments": 12,
            }
