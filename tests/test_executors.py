"""Execution plane tests: policies, executors, retries, determinism.

The engine's contract is that the serial and fork-pool executors
produce byte-identical results for every job — and that
injected faults, absorbed by retries, change nothing but the attempt
counters.  These tests pin that contract, first on small synthetic
jobs and then on the full five-round Gesall pipeline.
"""

import dataclasses
import gc
import inspect
import multiprocessing.connection
import os
import sys
import threading
import time

import pytest

from repro.api import PipelineSpec, make_block_splits, run_job
from repro.chaos import FaultPlan, RaiseInTask
from repro.errors import MapReduceError
from repro.hdfs.filesystem import Hdfs
from repro.io.policy import RETRY_BACKOFF, RETRY_BACKOFF_CAP, charged_backoff
from repro.mapreduce import counters as C
from repro.mapreduce.blocks import RecordBlock
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import JobResult, MapReduceEngine
from repro.mapreduce.executors import (
    JobContext,
    PooledProcessExecutor,
    SerialExecutor,
    _reap_orphaned_pools,
    build_executor,
    fork_available,
)
from repro.mapreduce.job import InputSplit, JobSpec, make_splits
from repro.mapreduce.policy import EXECUTOR_KINDS, ExecutionPolicy
from repro.mapreduce import task as task_module
from repro.mapreduce.task import TaskCall, run_map_task, run_reduce_task
from repro.pipeline.parallel import GesallPipeline
from tests import pins

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

ALL_POLICIES = [
    ExecutionPolicy.serial(),
    pytest.param(ExecutionPolicy.pooled(max_workers=2), marks=needs_fork),
    pytest.param(ExecutionPolicy.pooled(max_workers=3), marks=needs_fork),
]
#: "elastic" is a pool that resizes between the waves: three workers
#: for four maps, two for the two reducers.
POLICY_IDS = ["serial", "pool", "elastic"]


def wordcount_job():
    def mapper(line, ctx):
        for word in line.split():
            ctx.emit(word, 1)

    def reducer(word, counts, ctx):
        ctx.emit(word, sum(counts))

    return JobSpec("wordcount", mapper, reducer, num_reducers=2)


LINES = [
    "the quick brown fox",
    "jumps over the lazy dog",
    "the dog barks",
    "quick quick slow",
]


class TestExecutionPolicy:
    def test_rejects_unknown_executor(self):
        with pytest.raises(MapReduceError, match="unknown executor"):
            ExecutionPolicy(executor="gpu")

    @pytest.mark.parametrize("kind", ["process", "elastic", "thread"])
    def test_removed_kinds_rejected_listing_the_two(self, kind):
        assert EXECUTOR_KINDS == ("serial", "pool")
        with pytest.raises(MapReduceError, match="choose one of serial, pool$"):
            ExecutionPolicy(executor=kind)
        for constructor in ("processes", "elastic", "threads"):
            assert not hasattr(ExecutionPolicy, constructor)

    @pytest.mark.parametrize("kind", ["serial"])
    def test_min_workers_rejected_off_the_pool(self, kind):
        with pytest.raises(TypeError, match="min_workers"):
            ExecutionPolicy(executor=kind, min_workers=1)

    def test_the_pool_has_no_floor(self):
        """Each wave sizes the pool, so there is no floor to set."""
        assert len(dataclasses.fields(ExecutionPolicy)) == 7
        with pytest.raises(TypeError, match="min_workers"):
            ExecutionPolicy.pooled(4, min_workers=2)

    def test_rejects_bad_workers_and_retries(self):
        with pytest.raises(MapReduceError):
            ExecutionPolicy(executor="pool", max_workers=0)
        with pytest.raises(MapReduceError):
            ExecutionPolicy(task_retries=-1)

    def test_frozen(self):
        policy = ExecutionPolicy.serial()
        with pytest.raises(Exception):
            policy.executor = "pool"

    def test_resolved_workers(self):
        assert ExecutionPolicy.serial().resolved_workers() == 1
        assert ExecutionPolicy.pooled(max_workers=7).resolved_workers() == 7
        assert ExecutionPolicy.pooled().resolved_workers() >= 1

    def test_default_size_follows_cpu_affinity_not_cpu_count(
        self, monkeypatch
    ):
        """A host pinned to two CPUs gets a two-worker default pool,
        whatever ``os.cpu_count()`` says."""
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        assert ExecutionPolicy.pooled().resolved_workers() == 2

    def test_backoff_is_capped(self):
        delays = [charged_backoff(a) for a in range(1, 10)]
        assert delays == sorted(delays)
        assert delays[0] == RETRY_BACKOFF
        assert max(delays) == RETRY_BACKOFF_CAP


class TestExecutors:
    def test_build_executor_maps_kinds(self):
        assert isinstance(
            build_executor(ExecutionPolicy.serial()), SerialExecutor
        )

    @needs_fork
    def test_build_executor_pool(self):
        executor = build_executor(ExecutionPolicy.pooled(2))
        assert isinstance(executor, PooledProcessExecutor)
        assert executor.max_workers == 2
        executor.close()

    # -- call-protocol conformance: one contract, two executors -------------
    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_results_arrive_in_submission_order(self, kind):
        """Results come back by submission index, whatever finished
        first (later calls are the quicker ones here)."""
        executor = _conformance_executor(kind)
        try:
            executor.begin_job(_conformance_context())
            calls = [_SquareCall(i, delay=0.02 * (5 - i)) for i in range(6)]
            assert executor.run_calls(calls) == [i * i for i in range(6)]
        finally:
            executor.close()

    def test_empty_wave(self):
        executor = SerialExecutor()
        executor.begin_job(_conformance_context())
        assert executor.run_calls([]) == []

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_raising_call_propagates_after_wave_drains(self, kind, tmp_path):
        """The failure surfaces only once nothing from the wave is
        still running, and the executor stays usable afterwards."""
        executor = _conformance_executor(kind)
        try:
            executor.begin_job(_conformance_context())
            siblings = [
                _SquareCall(i, delay=0.05, marker=str(tmp_path / f"done-{i}"))
                for i in range(3)
            ]
            with pytest.raises(ValueError, match="call 3 failed"):
                executor.run_calls(siblings + [_SquareCall(3, fail=True)])
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "done-0", "done-1", "done-2",
            ]
            assert executor.run_calls([_SquareCall(7)]) == [49]
        finally:
            executor.close()

    @pytest.mark.parametrize("kind", EXECUTOR_KINDS)
    def test_lifecycle_is_idempotent(self, kind):
        executor = _conformance_executor(kind)
        with pytest.raises(MapReduceError, match="begin_job"):
            executor.run_calls([_SquareCall(1)])
        executor.end_job()  # nothing begun: a no-op
        executor.begin_job(_conformance_context())
        executor.begin_job(_conformance_context())  # re-begin replaces
        assert executor.run_calls([_SquareCall(3)]) == [9]
        executor.end_job()
        executor.end_job()
        with pytest.raises(MapReduceError, match="begin_job"):
            executor.run_calls([_SquareCall(1)])
        executor.close()
        executor.close()
        # A closed executor can begin a new job (the engine reuses it).
        executor.begin_job(_conformance_context())
        assert executor.run_calls([_SquareCall(4)]) == [16]
        executor.close()


class _SquareCall:
    """Minimal picklable call descriptor for the conformance tests."""

    def __init__(self, n, delay=0.0, marker=None, fail=False):
        self.n = n
        self.delay = delay
        self.marker = marker
        self.fail = fail

    def run(self, context):
        if self.fail:
            raise ValueError(f"call {self.n} failed")
        time.sleep(self.delay)
        if self.marker:
            with open(self.marker, "w") as handle:
                handle.write("done")
        return self.n * self.n


def _conformance_executor(kind):
    if kind == "pool" and not fork_available():
        pytest.skip("fork start method unavailable")
    return build_executor(ExecutionPolicy(executor=kind, max_workers=3))


def _conformance_context():
    return JobContext(job=None, policy=ExecutionPolicy.serial(), splits=[])


class TestEngineAcrossExecutors:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=POLICY_IDS)
    def test_wordcount_identical(self, policy):
        baseline = MapReduceEngine(nodes=["n1", "n2"]).run(
            wordcount_job(), make_splits(LINES)
        )
        with MapReduceEngine(nodes=["n1", "n2"], policy=policy) as engine:
            result = engine.run(wordcount_job(), make_splits(LINES))
        assert result.all_outputs() == baseline.all_outputs()
        assert result.reduce_outputs == baseline.reduce_outputs


class TestRetriesAndFaults:
    #: The attempt the parent's seeded rate draw (rate 0.2, seed 7)
    #: failed on this job, stated as the plan event it amounts to.
    FAULTS = FaultPlan(events=tuple(
        RaiseInTask(task) for task in pins.get("wordcount_failed_attempts")
    ))

    def run_with(self, policy):
        return MapReduceEngine(nodes=["n1"], policy=policy).run(
            wordcount_job(), make_splits(LINES)
        )

    @pytest.mark.parametrize(
        "executor_kind",
        ["serial", pytest.param("pool", marks=needs_fork)],
    )
    def test_injected_faults_are_retried_to_identical_outputs(
        self, executor_kind
    ):
        clean = self.run_with(ExecutionPolicy.serial())
        faulty = self.run_with(
            ExecutionPolicy(
                executor=executor_kind, max_workers=2,
                fault_plan=self.FAULTS, task_retries=8,
            )
        )
        assert faulty.all_outputs() == clean.all_outputs()
        assert faulty.counters.get(C.INJECTED_FAULTS) == 1
        total_tasks = faulty.counters.get(C.TASK_COMMITS)
        assert faulty.history.total_attempts() > total_tasks
        assert faulty.history.retried_tasks()

    def test_attempt_counters_without_faults(self):
        result = self.run_with(ExecutionPolicy.serial())
        assert result.counters.get(C.MAP_TASK_ATTEMPTS) == len(LINES)
        assert result.counters.get(C.REDUCE_TASK_ATTEMPTS) == 2
        assert C.INJECTED_FAULTS not in result.counters

    def test_attempts_recorded_per_task_in_history(self):
        faulty = self.run_with(
            ExecutionPolicy(
                fault_plan=self.FAULTS, task_retries=8,
            )
        )
        by_counter = faulty.counters.get(C.MAP_TASK_ATTEMPTS) + \
            faulty.counters.get(C.REDUCE_TASK_ATTEMPTS)
        assert by_counter == faulty.history.total_attempts()

    def test_exhausted_retries_raise(self):
        def bad_mapper(line, ctx):
            raise ValueError("boom")

        job = JobSpec("doomed", bad_mapper)
        engine = MapReduceEngine(
            nodes=["n1"],
            policy=ExecutionPolicy(task_retries=2),
        )
        with pytest.raises(MapReduceError, match="after 3 attempt"):
            engine.run(job, make_splits(["x"]))


class TestCollectorPausedForAnAttempt:
    """An attempt body runs with the cyclic collector paused, and every
    way out of it leaves the collector as the attempt found it."""

    @staticmethod
    def probe_job(fail_first=False):
        calls = []

        def mapper(line, ctx):
            calls.append(line)
            pause = task_module._collector_paused
            ctx.emit(line, (gc.isenabled(), pause._depth >= 1,
                            pause._was_enabled))
            if fail_first and len(calls) == 1:
                raise ValueError("first attempt fails")

        return JobSpec("gc-probe", mapper)

    @pytest.fixture(autouse=True)
    def collector_enabled_before_and_after(self):
        assert gc.isenabled()
        yield
        gc.enable()

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=POLICY_IDS)
    def test_paused_inside_every_task_and_restored_after_each(self, policy):
        # Four tasks on at most three workers: some worker runs a second
        # task, and finds the collector enabled again (``_was_enabled``)
        # — in a forked pool worker too, whose state the driver never sees.
        result = MapReduceEngine(nodes=["n1"], policy=policy).run(
            self.probe_job(), make_splits(LINES * 2)
        )
        seen = [value for _, value in result.all_outputs()]
        assert seen == [(False, True, True)] * (2 * len(LINES))
        assert gc.isenabled()
        assert task_module._collector_paused._depth == 0

    def test_restored_after_a_raising_body_and_its_retry(self):
        policy = ExecutionPolicy(task_retries=1)
        result = MapReduceEngine(nodes=["n1"], policy=policy).run(
            self.probe_job(fail_first=True), make_splits(["only"])
        )
        assert result.history.total_attempts() == 2
        assert result.all_outputs() == [("only", (False, True, True))]
        assert gc.isenabled()

    def test_restored_after_retries_are_exhausted(self):
        def mapper(line, ctx):
            assert not gc.isenabled()
            raise ValueError("boom")

        engine = MapReduceEngine(
            nodes=["n1"],
            policy=ExecutionPolicy(task_retries=1),
        )
        with pytest.raises(MapReduceError, match="after 2 attempt"):
            engine.run(JobSpec("doomed", mapper), make_splits(["x"]))
        assert gc.isenabled()

    def test_a_collector_the_caller_disabled_stays_disabled(self):
        gc.disable()
        try:
            result = MapReduceEngine(nodes=["n1"]).run(
                self.probe_job(), make_splits(LINES)
            )
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert [value for _, value in result.all_outputs()] == \
            [(False, True, False)] * len(LINES)

    def test_overlapping_thread_attempts_leave_it_enabled(self):
        """Serial jobs side by side on threads, as the job server's
        slots run them; more threads than cores and a short switch
        interval: attempts enter and leave the pause in every
        interleaving."""
        def mapper(line, ctx):
            assert not gc.isenabled()
            ctx.emit(line, sum(range(200)))

        def slot(errors):
            try:
                for _ in range(5):
                    result = MapReduceEngine(nodes=["n1"]).run(
                        JobSpec("gc-stress", mapper),
                        make_splits([f"line{i}" for i in range(8)]),
                    )
                    assert len(result.all_outputs()) == 8
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        errors = []
        slots = [threading.Thread(target=slot, args=(errors,))
                 for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in slots:
                thread.start()
            for thread in slots:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert gc.isenabled()
        assert task_module._collector_paused._depth == 0


class TestTaskProtocol:
    def test_worker_side_task_functions_take_context_and_call(self):
        """One task-call protocol: everything a task needs is on the
        job context or the call descriptor, for both waves."""
        for task in (run_map_task, run_reduce_task):
            assert list(inspect.signature(task).parameters) == [
                "context", "call",
            ]


class TestRecordCounting:
    def test_map_input_records_counts_records_not_splits(self):
        """Regression: MAP_INPUT_RECORDS used to count one per split."""
        job = JobSpec(
            "counted",
            lambda payload, ctx: ctx.set_input_records(len(payload)),
        )
        result = MapReduceEngine(nodes=["n1"]).run(
            job, make_splits([["r1", "r2", "r3"], ["r4"]])
        )
        assert result.counters.get(C.MAP_INPUT_RECORDS) == 4

    def test_default_remains_one_per_split(self):
        job = JobSpec("plain", lambda payload, ctx: None)
        result = MapReduceEngine(nodes=["n1"]).run(
            job, make_splits([["r1", "r2"], ["r3"]])
        )
        assert result.counters.get(C.MAP_INPUT_RECORDS) == 2

    def test_context_override_wins(self):
        def mapper(payload, ctx):
            ctx.set_input_records(len(payload))

        result = MapReduceEngine(nodes=["n1"]).run(
            JobSpec("override", mapper), make_splits([["a", "b"], ["c"]])
        )
        assert result.counters.get(C.MAP_INPUT_RECORDS) == 3

    def test_declared_output_bytes_replace_the_sum_over_values(self):
        def mapper(payload, ctx, declare):
            for word in payload:
                ctx.emit(word, word)
            if declare:
                ctx.set_output_bytes(1000)

        def run(declare):
            spec = JobSpec(
                "sized", lambda payload, ctx: mapper(payload, ctx, declare)
            )
            return MapReduceEngine(nodes=["n1"]).run(
                spec, make_splits([["ab", "c"], ["def"]])
            ).counters.get(C.MAP_OUTPUT_BYTES)

        assert run(declare=False) == (3 + 2) + 4  # str: len + 1
        assert run(declare=True) == 2000


def _block_spec(policy):
    """Word count over block-encoded splits."""

    def mapper(records, ctx):
        for line in records:
            for word in line.split():
                ctx.emit(word, 1)

    def fold(key, values, ctx):
        ctx.emit(key, sum(values))

    return JobSpec(
        name="block-wordcount",
        mapper=mapper,
        reducer=fold,
        num_reducers=2,
        io_sort_records=4,  # force multiple spills per map task
        policy=policy,
    )


def _block_splits():
    return make_block_splits([[line] for line in LINES], prefix="lines")


class TestBlockSplitsAcrossExecutors:
    """Sealed record blocks decode to the same bytes on every executor."""

    @pytest.fixture(scope="class")
    def serial_block_run(self):
        return run_job(
            _block_spec(ExecutionPolicy.serial()), _block_splits()
        )

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=POLICY_IDS)
    def test_block_encoded_outputs_identical(self, policy, serial_block_run):
        result = run_job(_block_spec(policy), _block_splits())
        assert result.all_outputs() == serial_block_run.all_outputs()
        assert result.reduce_outputs == serial_block_run.reduce_outputs

    def test_block_records_counted_not_splits(self, serial_block_run):
        assert serial_block_run.counters.get(C.MAP_INPUT_RECORDS) == len(LINES)

    def test_mapper_receives_decoded_records(self):
        seen = []

        def mapper(records, ctx):
            seen.append(list(records))
            ctx.emit(ctx.task_index, len(records))

        spec = JobSpec(name="decode", mapper=mapper)
        result = run_job(spec, make_block_splits([["a", "b"], ["c"]]))
        assert seen == [["a", "b"], ["c"]]
        assert result.all_outputs() == [(0, 2), (1, 1)]


@needs_fork
class TestPooledExecutorLifecycle:
    def test_pool_reuses_workers_across_jobs(self):
        with MapReduceEngine(
            nodes=["n1", "n2"], policy=ExecutionPolicy.pooled(max_workers=2)
        ) as engine:
            for _ in range(3):
                result = engine.run(wordcount_job(), make_splits(LINES))
            executor = engine._executor
            # One fork pair per job; the reduce wave of every job ran
            # on workers the map wave already warmed.
            assert executor.jobs == 3
            assert executor.forks == 6
            assert executor.waves_reused == 3
            assert executor.workers_respawned == 0
        baseline = MapReduceEngine(nodes=["n1", "n2"]).run(
            wordcount_job(), make_splits(LINES)
        )
        assert result.all_outputs() == baseline.all_outputs()

    def test_a_wave_cut_short_leaves_no_reply_for_the_next_job(
        self, monkeypatch
    ):
        """A wave that raises with a call in flight (interrupted here)
        leaves a worker whose late reply no later job may read as its
        own: the next job lands on a fresh fork and gets its answer."""
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        executor = PooledProcessExecutor(2)
        try:
            executor.begin_job(_conformance_context())
            with monkeypatch.context() as patch:
                patch.setattr(multiprocessing.connection, "wait", interrupted)
                with pytest.raises(KeyboardInterrupt):
                    executor.run_calls([_SquareCall(3, delay=0.2)])
            executor.end_job()
            executor.begin_job(_conformance_context())
            assert executor.forks == 2
            assert executor.run_calls([_SquareCall(5)]) == [25]
        finally:
            executor.close()

    def test_a_call_that_does_not_pickle_raises_and_spares_the_worker(
        self, monkeypatch
    ):
        """A call the pool cannot pickle is the call's fault, not its
        worker's: ``send`` pickles before it writes, so the pipe is as it
        was.  The wave raises a ``MapReduceError`` naming the task, no
        worker is respawned and the next call runs.  ``_replace`` is
        bounded, so a pool that took the failure for a dead worker fails
        here instead of forking without end."""
        replaced = []
        replace = PooledProcessExecutor._replace

        def bounded(self, worker):
            replaced.append(worker)
            if len(replaced) > 3:
                raise RuntimeError("a live worker was respawned 3 times")
            return replace(self, worker)

        monkeypatch.setattr(PooledProcessExecutor, "_replace", bounded)
        executor = PooledProcessExecutor(1)
        try:
            executor.begin_job(_conformance_context())
            unpicklable = TaskCall("map", "t-m-00007", "n0",
                                   store=threading.Lock())
            with pytest.raises(MapReduceError, match=(
                "task t-m-00007 cannot be sent to a pool worker"
            )):
                executor.run_calls([unpicklable])
            assert executor.workers_respawned == 0
            assert executor.run_calls([_SquareCall(5)]) == [25]
        finally:
            executor.close()

    def test_engine_close_is_idempotent_and_reusable(self):
        engine = MapReduceEngine(
            nodes=["n1"], policy=ExecutionPolicy.pooled(max_workers=2)
        )
        first = engine.run(wordcount_job(), make_splits(LINES))
        engine.close()
        engine.close()
        second = engine.run(wordcount_job(), make_splits(LINES))
        engine.close()
        assert first.all_outputs() == second.all_outputs()

    def test_executor_close_is_idempotent(self):
        """Regression: double-close used to re-stop dead workers."""
        executor = PooledProcessExecutor(max_workers=2)
        assert not executor.closed
        executor.close()
        assert executor.closed
        executor.close()  # must be a no-op, not an error
        assert executor.closed

    def test_atexit_guard_reaps_orphaned_pools(self):
        """A pool the driver forgot to close is torn down by the
        atexit guard — no orphaned fork survives interpreter exit."""
        orphan = PooledProcessExecutor(max_workers=1)
        assert not orphan.closed
        _reap_orphaned_pools()
        assert orphan.closed
        # Already-closed pools are skipped, not re-closed.
        _reap_orphaned_pools()
        assert orphan.closed


class TestApiRedesign:
    def test_positional_nodes_rejected(self):
        with pytest.raises(TypeError):
            MapReduceEngine(["n1", "n2"])

    def test_positional_and_keyword_nodes_conflict(self):
        with pytest.raises(TypeError):
            MapReduceEngine(["n1"], nodes=["n2"])

    def test_split_positional_locality_rejected(self):
        with pytest.raises(TypeError):
            InputSplit("s0", "payload", "n1", 64)
        split = InputSplit("s0", "payload", preferred_node="n1",
                           size_bytes=64)
        assert (split.preferred_node, split.size_bytes) == ("n1", 64)

    def test_split_positional_keyword_conflict(self):
        with pytest.raises(TypeError):
            InputSplit("s0", "payload", "n1", preferred_node="n2")

    def test_validate_rejects_reducerless_num_reducers(self):
        job = JobSpec("bad", lambda p, c: None)
        # A frozen spec cannot be mutated into an invalid one; the
        # invalid combination is refused where it is stated.
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.num_reducers = 4
        with pytest.raises(MapReduceError, match="no reducer"):
            dataclasses.replace(job, num_reducers=4)

    def test_validate_rejects_uncallable_mapper(self):
        job = JobSpec("bad2", lambda p, c: None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.mapper = "not-a-function"
        with pytest.raises(MapReduceError, match="mapper is not callable"):
            JobSpec("bad2", "not-a-function")

    def test_counters_is_a_mapping(self):
        from collections.abc import Mapping

        counters = Counters()
        counters.inc("B", 2)
        counters.inc("A", 1)
        assert isinstance(counters, Mapping)
        assert list(counters) == ["A", "B"]
        assert dict(counters.items()) == {"A": 1, "B": 2}
        assert counters["B"] == 2
        assert "A" in counters and len(counters) == 2
        with pytest.raises(KeyError):
            counters["missing"]

    def test_job_result_is_iterable(self):
        result = MapReduceEngine(nodes=["n1"]).run(
            wordcount_job(), make_splits(LINES)
        )
        assert list(result) == result.all_outputs()
        assert len(result) == len(result.all_outputs())

    def test_engine_without_filesystem_rejects_file_writes(self):
        def mapper(payload, ctx):
            ctx.write_file("/out", b"data")

        with pytest.raises(MapReduceError, match="no filesystem"):
            MapReduceEngine(nodes=["n1"]).run(
                JobSpec("writes", mapper), make_splits(["x"])
            )


def pipeline_fingerprint(reference, ref_index, pairs, policy):
    """Run the full five-round pipeline and serialize everything it
    produced: every HDFS file plus the final variant lines."""
    return fingerprint(GesallPipeline(PipelineSpec(
        reference,
        index=ref_index,
        num_fastq_partitions=4,
        num_reducers=3,
        policy=policy,
    )).run(pairs))


def fingerprint(result):
    files = {
        f.path: result.hdfs.get(f.path) for f in result.hdfs.files()
    }
    variants = [v.to_line() for v in result.variants]
    transform = {
        name: (acct.bytes_to_program, acct.bytes_from_program,
               acct.invocations)
        for name, acct in result.rounds.transform.items()
    }
    return files, variants, transform


class TestCrossExecutorDeterminism:
    """The acceptance property: all five Gesall rounds produce
    byte-identical outputs no matter which executor ran them."""

    @pytest.fixture(scope="class")
    def serial_run(self, reference, ref_index, pairs):
        return pipeline_fingerprint(
            reference, ref_index, pairs, ExecutionPolicy.serial()
        )

    @needs_fork
    def test_pool_executor_matches_serial(
        self, reference, ref_index, pairs, serial_run
    ):
        pooled = pipeline_fingerprint(
            reference, ref_index, pairs,
            ExecutionPolicy.pooled(max_workers=2),
        )
        assert pooled == serial_run

    @needs_fork
    def test_elastic_executor_matches_serial(
        self, reference, ref_index, pairs, serial_run
    ):
        """A pool of four, which shrinks to three workers for each
        round's three reducers."""
        elastic = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=4,
            num_reducers=3, policy=ExecutionPolicy.pooled(max_workers=4),
        )).run(pairs)
        assert fingerprint(elastic) == serial_run
        assert any(
            job.history.events_of("pool_scaled")
            for job in elastic.rounds.results.values()
        )

    def test_faulty_run_matches_serial(
        self, reference, ref_index, pairs, serial_run
    ):
        """Injected failures, absorbed by retries, change nothing.
        (Attempts a seeded rate draw — rate 0.2, seed 11 — once failed
        on this pipeline; its third, in the bloom pre-pass job, went
        with that job when round 2 began writing the filter.)"""
        plan = FaultPlan(events=tuple(
            RaiseInTask(task)
            for task in pins.get("pipeline_failed_attempts")
        ))
        faulty = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=4,
            num_reducers=3,
            policy=ExecutionPolicy.pooled(
                max_workers=2, fault_plan=plan, task_retries=10,
            ),
        )).run(pairs)
        assert fingerprint(faulty) == serial_run
        assert sum(
            job.counters.get(C.INJECTED_FAULTS)
            for job in faulty.rounds.results.values()
        ) == len(plan.events)


@needs_fork
def test_process_pool_smoke():
    """Minimal end-to-end check that the fork pool works; run in CI to
    catch platform-specific process-pool regressions."""
    hdfs = Hdfs(["n0", "n1"], replication=1)

    def mapper(payload, ctx):
        ctx.write_file(f"/smoke/{payload}", payload.encode())
        ctx.attach("seen", payload)
        ctx.emit(payload, len(payload))

    with MapReduceEngine(
        nodes=hdfs.nodes,
        policy=ExecutionPolicy.pooled(max_workers=2),
        filesystem=hdfs,
    ) as engine:
        result = engine.run(
            JobSpec("smoke", mapper),
            make_splits(["alpha", "beta", "gamma"]),
        )
    assert [k for k, _ in result.all_outputs()] == ["alpha", "beta", "gamma"]
    assert result.attachments["seen"] == ["alpha", "beta", "gamma"]
    for name in ("alpha", "beta", "gamma"):
        assert hdfs.get(f"/smoke/{name}") == name.encode()
