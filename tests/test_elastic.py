"""Pool sizing and pool chaos: the between-wave scaling controller
(``pooled(max, min_workers=floor)``), spot-style worker preemption and
cold-start charging.

A pool with a floor below its ceiling keeps the fixed pool's contract:
byte-identical outputs under every scaling decision and every
preemption, with the controller's moves visible as history events and
``pool.scale.*`` metrics rather than as output differences.  The two
fold-equivalence pins at the bottom were captured on the commit that
still had a separate ``elastic`` executor kind.
"""

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
            PooledProcessExecutor(2, min_workers=3)
        with pytest.raises(MapReduceError):
            PooledProcessExecutor(2, min_workers=0)
        with pytest.raises(MapReduceError):
            PooledProcessExecutor(0)

    def test_initial_fork_tracks_first_wave_demand(self):
        executor = PooledProcessExecutor(8, min_workers=2)
        try:
            executor.begin_job(_context(3))
            assert len(executor._workers) == 3  # demand, not max
        finally:
            executor.close()

    def test_initial_fork_respects_floor_and_ceiling(self):
        executor = PooledProcessExecutor(4, min_workers=2)
        try:
            executor.begin_job(_context(1))
            assert len(executor._workers) == 2  # floor wins
            executor.end_job()
            executor.begin_job(_context(40))
            assert len(executor._workers) == 4  # ceiling wins
        finally:
            executor.close()

    def test_queue_pressure_grows_toward_demand(self):
        """More tasks queued for the coming wave than live workers:
        grow toward them, one or two workers per decision."""
        executor = PooledProcessExecutor(8, min_workers=2)
        try:
            executor.begin_job(_context(3))
            decision = executor.rebalance(8)
            assert decision["action"] == "scale_up"
            assert decision["from_workers"] == 3
            assert decision["to_workers"] == 5  # decision 1 draws 2
            assert len(executor._workers) == 5
            assert executor.scale_ups == 1
        finally:
            executor.close()

    def test_idle_slots_are_drained_then_retired(self):
        executor = PooledProcessExecutor(8, min_workers=2)
        try:
            executor.begin_job(_context(8))
            decision = executor.rebalance(4)
            assert decision["action"] == "scale_down"
            assert decision["to_workers"] == 4  # the coming demand
            assert executor.workers_retired == 4
            assert executor.scale_downs == 1
        finally:
            executor.close()

    def test_never_grows_past_next_wave_demand(self):
        executor = PooledProcessExecutor(8, min_workers=1)
        try:
            executor.begin_job(_context(2))
            decision = executor.rebalance(3)
            # The drawn step says +2, but the coming wave only has 3
            # tasks: paying for more slots could never help.
            assert decision["to_workers"] == 3
        finally:
            executor.close()

    def test_never_retires_below_min_workers(self):
        executor = PooledProcessExecutor(8, min_workers=3)
        try:
            executor.begin_job(_context(8))
            for _ in range(5):
                executor.rebalance(1)
            assert len(executor._workers) == 3
        finally:
            executor.close()

    def test_clock_free_fallback_is_seeded_and_deterministic(self):
        """The controller reads no clock: it steps toward demand by a
        decision-index draw, so two pools make identical moves."""

        def run_decisions():
            executor = PooledProcessExecutor(8, min_workers=1)
            sizes = []
            try:
                executor.begin_job(_context(2))
                for demand in (8, 8, 8, 1, 1, 6):
                    executor.rebalance(demand)
                    sizes.append(len(executor._workers))
            finally:
                executor.close()
            return sizes

        first = run_decisions()
        assert first == run_decisions()
        assert all(1 <= size <= 8 for size in first)
        # The fallback converges on demand, never overshoots it.
        assert first[-1] <= 6

    def test_engine_records_scaling_decisions(self):
        recorder = TraceRecorder()
        with MapReduceEngine(
            nodes=NODES,
            policy=ExecutionPolicy.pooled(max_workers=4, min_workers=1),
            recorder=recorder,
        ) as engine:
            result = engine.run(wordcount_job(), make_splits(LINES))
        assert result.all_outputs() == clean_outputs()
        # 4 maps -> 2 reduces: the controller must have decided once.
        events = result.history.events_of("pool_scaled")
        assert events, "no pool_scaled event recorded"
        assert events[0]["next_tasks"] == 2
        counters = recorder.metrics.as_dict()["counters"]
        assert counters.get("pool.scale.decisions", 0) >= 1

    def test_tracing_does_not_change_how_the_pool_scales(self):
        """A traced run measures the program the untraced run is: the
        same ``pool_scaled`` decisions, job after job."""

        def decisions(recorder):
            with MapReduceEngine(
                nodes=NODES,
                policy=ExecutionPolicy.pooled(max_workers=4, min_workers=1),
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
                policy_kwargs={"max_workers": 3, "min_workers": 1},
            )
        assert result.all_outputs() == clean_outputs()
        assert preemptions == 1
        assert respawned >= 1

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    @pytest.mark.parametrize(
        "event", [PreemptWorker("wc"), ColdStart(0.25)],
        ids=["preempt", "cold-start"],
    )
    def test_pool_only_chaos_rejected_off_the_pool(self, kind, event):
        """Regression: a plan aimed at pool workers used to be ignored
        without a word under serial/thread — the chaos run "passed"
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
    def test_cold_start_is_charged_and_slept_through_the_hook(self):
        sleeps = []
        plan = FaultPlan(events=(ColdStart(0.25, job="wc"),))
        recorder = TraceRecorder()
        with MapReduceEngine(
            nodes=NODES,
            policy=ExecutionPolicy(
                executor="pool", max_workers=2, fault_plan=plan,
                sleep=sleeps.append,
            ),
            recorder=recorder,
        ) as engine:
            result = engine.run(wordcount_job(), make_splits(LINES))
        assert result.all_outputs() == clean_outputs()
        assert sleeps == [0.25, 0.25]  # one charge per forked worker
        [armed] = result.history.events_of("cold_start_armed")
        assert armed["seconds_per_fork"] == 0.25
        counters = recorder.metrics.as_dict()["counters"]
        assert counters.get("pool.cold_starts") == 2
        assert counters.get("pool.cold_start_seconds") == \
            pytest.approx(0.5)

    def test_cold_start_for_other_job_does_not_fire(self):
        sleeps = []
        plan = FaultPlan(events=(ColdStart(0.25, job="other-job"),))
        with MapReduceEngine(
            nodes=NODES,
            policy=ExecutionPolicy(
                executor="pool", max_workers=2, fault_plan=plan,
                sleep=sleeps.append,
            ),
        ) as engine:
            result = engine.run(wordcount_job(), make_splits(LINES))
        assert result.all_outputs() == clean_outputs()
        assert sleeps == []

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
    engine; report, per job, what the pool decided and forked."""
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
                    (e["action"], e["decision"], e["from_workers"],
                     e["to_workers"], e["next_tasks"])
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
    """Pins captured on the parent commit, where ``pool`` and
    ``elastic`` were two executor classes: folding them changed
    neither what a floor-below-ceiling pool decides nor what a fixed
    pool does."""

    def test_pool_with_floor_decides_as_the_elastic_executor_did(self):
        """``pooled(3, min_workers=1)`` == the old ``elastic(3, 1)``:
        same ``pool_scaled`` sequence, same scale counters, same job
        output.  A traced run decides as the untraced one (the old
        executor's traced queue-share rule is gone)."""
        policy = ExecutionPolicy.pooled(3, min_workers=1)
        jobs, _ = run_jobs(policy, [(6, 2), (4, 1), (2, 3)], traced=False)
        assert [job["scaled"] for job in jobs] == [
            [("scale_down", 1, 3, 1, 2)],
            [("scale_down", 2, 3, 1, 1)],
            [("scale_up", 3, 2, 3, 3)],
        ]
        assert [
            (j["forks"], j["ups"], j["downs"], j["retired"]) for j in jobs
        ] == [(3, 0, 1, 2), (6, 0, 2, 4), (9, 1, 2, 4)]

        traced, metrics = run_jobs(policy, [(6, 2), (4, 1)], traced=True)
        assert traced == jobs[:2]
        assert metrics == {
            "pool.forks": 6,
            "pool.reuse_count": 2,
            "pool.scale.decisions": 2,
            "pool.scale.downs": 2,
            "pool.workers_retired": 4,
        }

    @pytest.mark.parametrize("traced", [False, True])
    def test_fixed_pool_forks_n_per_job_and_never_scales(self, traced):
        """``pooled(n)``: exactly ``n`` forks per job whatever the wave
        sizes, no ``pool_scaled`` event, no ``pool.scale.*`` metric."""
        jobs, metrics = run_jobs(
            ExecutionPolicy.pooled(3), [(6, 2), (4, 1), (2, 3)], traced
        )
        assert [job["forks"] for job in jobs] == [3, 6, 9]
        assert all(job["events"] == [] for job in jobs)
        assert all(
            (job["ups"], job["downs"], job["retired"]) == (0, 0, 0)
            for job in jobs
        )
        if traced:
            assert metrics == {"pool.forks": 9, "pool.reuse_count": 3}


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
        sleeps = []
        result, files, recorder = self.run_drill(
            tmp_path / "pool", traced=traced, executor="pool",
            max_workers=3, min_workers=1, fault_plan=self.PLAN,
            sleep=sleeps.append,
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

        # 3 initial forks + 2 respawns, each charged the cold start.
        assert sleeps == [0.25] * 5
        # The seeded policy retires two workers, traced or not.
        [scaled] = result.history.events_of("pool_scaled")
        assert (scaled["from_workers"], scaled["to_workers"]) == (3, 1)
        assert [e["kind"] for e in result.history.events] == [
            "cold_start_armed",
            "worker_preempted", "worker_crashed", "backup_launched",
            "lease_expired", "backup_launched", "commit_fenced",
            "segment_corrupted", "pool_scaled",
            "worker_preempted", "commit_fenced", "worker_crashed",
            "backup_launched",
        ]
        if traced:
            # The full registry as the parent commit (56f2c2a) published
            # it, measured seconds aside: every metric the publish table
            # derives equals what the hand-written sinks wrote.  (Except
            # ``pool.workers_retired``, 1 -> 2: traced runs no longer
            # scale by the measured queue share.)
            counters = recorder.metrics.as_dict()["counters"]
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
                "io.bytes_read": 2090,
                "io.bytes_written": 1409,
                "io.dir_fsyncs": 25,
                "io.fsyncs": 25,
                "io.reads": 37,
                "io.unlinks": 24,
                "io.writes": 25,
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
                "pool.workers_retired": 2,
                "shuffle.bytes_shuffled": 681,
                "shuffle.crc_failures": 1,
                "shuffle.fetch_retries": 1,
                "shuffle.raw_bytes": 417,
                "shuffle.segment_bytes_stored": 681,
                "shuffle.segments": 12,
            }
