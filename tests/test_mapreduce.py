"""Unit tests for the MapReduce engine."""

import pathlib
import re

import pytest

import repro
from repro.chaos import DelayTask, FaultPlan, RaiseInTask
from repro.errors import MapReduceError
from repro.mapreduce import counters as C
from repro.mapreduce import engine as engine_module
from repro.mapreduce.counters import Counters
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import (
    InputSplit,
    JobSpec,
    default_partitioner,
    make_splits,
)
from repro.mapreduce.policy import ExecutionPolicy


def word_mapper(payload, ctx):
    for word in payload.split():
        ctx.emit(word, 1)


def sum_reducer(key, values, ctx):
    ctx.emit(key, sum(values))


class TestCounters:
    def test_inc_and_get(self):
        counters = Counters()
        counters.inc("A", 5)
        counters.inc("A")
        assert counters.get("A") == 6
        assert counters.get("missing") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.inc("X", 1)
        b.inc("X", 2)
        b.inc("Y", 3)
        a.merge(b)
        assert a.get("X") == 3 and a.get("Y") == 3


class TestJobSpec:
    def test_invalid_reducers(self):
        with pytest.raises(MapReduceError):
            JobSpec("j", word_mapper, sum_reducer, num_reducers=0)

    def test_map_only_detection(self):
        assert JobSpec("j", word_mapper).is_map_only
        assert not JobSpec("j", word_mapper, sum_reducer).is_map_only

    def test_default_partitioner_stable_and_in_range(self):
        for key in ["a", ("x", 1), 42]:
            p = default_partitioner(key, 7)
            assert 0 <= p < 7
            assert p == default_partitioner(key, 7)

    def test_make_splits(self):
        splits = make_splits(["a", "b"], nodes=["n1", "n2"])
        assert splits[0].preferred_node == "n1"
        assert splits[1].preferred_node == "n2"
        assert splits[0].split_id != splits[1].split_id


class TestEngine:
    def test_wordcount(self):
        engine = MapReduceEngine(nodes=["n1", "n2"])
        job = JobSpec("wc", word_mapper, sum_reducer, num_reducers=3)
        result = engine.run(job, make_splits(["a b a", "b c a"]))
        assert sorted(result.all_outputs()) == [("a", 3), ("b", 2), ("c", 1)]

    def test_output_invariant_to_reducer_count(self):
        engine = MapReduceEngine(nodes=["n1"])
        splits_text = ["the quick brown fox", "jumps over the lazy dog the"]
        baselines = None
        for reducers in (1, 2, 5, 13):
            job = JobSpec("wc", word_mapper, sum_reducer, num_reducers=reducers)
            outputs = sorted(engine.run(job, make_splits(splits_text)).all_outputs())
            if baselines is None:
                baselines = outputs
            assert outputs == baselines

    def test_output_invariant_to_split_boundaries(self):
        engine = MapReduceEngine(nodes=["n1"])
        text = "a b c d e f a b c a b a"
        job = JobSpec("wc", word_mapper, sum_reducer, num_reducers=2)
        one = sorted(engine.run(job, make_splits([text])).all_outputs())
        words = text.split()
        many = sorted(
            engine.run(
                job,
                make_splits([" ".join(words[i : i + 3]) for i in range(0, 12, 3)]),
            ).all_outputs()
        )
        assert one == many

    def test_map_only_job(self):
        engine = MapReduceEngine()
        job = JobSpec("ids", lambda payload, ctx: ctx.emit(payload, None))
        result = engine.run(job, make_splits(["x", "y"]))
        assert [k for k, _ in result.all_outputs()] == ["x", "y"]
        assert result.counters.get(C.SHUFFLED_RECORDS) == 0

    def test_counters_populated(self):
        engine = MapReduceEngine()
        job = JobSpec("wc", word_mapper, sum_reducer, num_reducers=2)
        result = engine.run(job, make_splits(["a b", "c d e"]))
        assert result.counters.get(C.MAP_INPUT_RECORDS) == 2
        assert result.counters.get(C.MAP_OUTPUT_RECORDS) == 5
        assert result.counters.get(C.SHUFFLED_RECORDS) == 5
        assert result.counters.get(C.REDUCE_INPUT_GROUPS) == 5

    def test_reduce_values_arrive_in_map_task_order(self):
        """Hadoop's merge keeps per-mapper segment order: values of one
        key arrive in map-task order, not original input order — the
        mechanism behind parallel MarkDuplicates tie differences."""
        engine = MapReduceEngine()
        observed = {}

        def mapper(payload, ctx):
            for item in payload:
                ctx.emit("key", item)

        def reducer(key, values, ctx):
            observed[key] = list(values)

        job = JobSpec("order", mapper, reducer, num_reducers=1)
        engine.run(job, make_splits([["m0-a", "m0-b"], ["m1-a"]]))
        assert observed["key"] == ["m0-a", "m0-b", "m1-a"]

    def test_history_tracks_tasks(self):
        engine = MapReduceEngine(nodes=["n1", "n2"])
        job = JobSpec("wc", word_mapper, sum_reducer, num_reducers=2)
        result = engine.run(job, make_splits(["a", "b", "c"]))
        assert len(result.history.maps()) == 3
        assert len(result.history.reduces()) == 2
        nodes = {t.node for t in result.history.tasks}
        assert nodes <= {"n1", "n2"}

    def test_no_splits_rejected(self):
        engine = MapReduceEngine()
        with pytest.raises(MapReduceError):
            engine.run(JobSpec("j", word_mapper), [])

    def test_custom_partitioner_respected(self):
        engine = MapReduceEngine()
        job = JobSpec(
            "p", word_mapper, sum_reducer,
            partitioner=lambda key, n: 0, num_reducers=3,
        )
        result = engine.run(job, make_splits(["a b c"]))
        assert result.reduce_outputs[0]
        assert not result.reduce_outputs.get(1)

    def test_spill_accounting(self):
        engine = MapReduceEngine()

        def big_mapper(payload, ctx):
            for i in range(100):
                ctx.emit(i % 7, payload)

        job = JobSpec("spill", big_mapper, sum_reducer, io_sort_records=30)
        result = engine.run(job, make_splits([1]))
        map_task = result.history.maps()[0]
        assert map_task.spills == 4  # ceil(100 / 30)


class TestPublishTable:
    """One definition per count: a fact is recorded once, as a counter
    or a history event, and its run-wide metric is derived from that
    through ``METRIC_OF_COUNTER`` / ``METRIC_OF_EVENT``."""

    SRC = "\n".join(
        path.read_text()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
    )
    COUNTERS = {
        value for name, value in vars(C).items()
        if name.isupper() and isinstance(value, str)
    }

    def test_every_declared_counter_is_incremented_somewhere(self):
        incremented = set(re.findall(r"counters\.inc\(\s*C\.(\w+)", self.SRC))
        incremented |= {
            counter
            for rows in (*engine_module._WAVE_VOLUMES.values(),
                         engine_module._SHUFFLE_MAP_VOLUMES,
                         engine_module._WAVE_INCIDENTS)
            for counter, _ in rows
        } | set(engine_module._WAVE_ATTEMPTS.values())
        assert incremented == self.COUNTERS

    def test_every_publish_row_names_an_existing_fact(self):
        assert set(engine_module.METRIC_OF_COUNTER) <= self.COUNTERS
        event_kinds = set(re.findall(r'add_event\(\s*"(\w+)"', self.SRC))
        assert set(engine_module.METRIC_OF_EVENT) <= event_kinds
        metrics = [*engine_module.METRIC_OF_COUNTER.values(),
                   *engine_module.METRIC_OF_EVENT.values()]
        assert len(set(metrics)) == len(metrics)

    def test_retry_plane_publishes_the_parent_metrics(self):
        """Pinned on the parent commit (56f2c2a), where every one of
        these was a hand-written ``metrics.counter(...)`` beside its
        counter or event: retries, a hung task and blacklisting.  The
        shuffle rows and the charged backoff are those of this
        uncombined job on the one backoff curve.

        The hung reducer loses its lease: one ``lease.expired``; its
        re-execution's commit is staged beside the hung attempt's (7
        staged, 6 promoted) and the hung attempt's late commit is
        fenced.  Every lost attempt is re-executed the one way, under a
        fresh epoch: the map task's two raised attempts and the hung
        reducer launch three re-executions, each charging the backoff
        of its epoch (0.005 + 0.010 + 0.005 s).  Each lost attempt
        charges its node as it is settled — the map task's n1 and n3,
        the reducer's n2 — so three nodes are blacklisted."""
        from repro.obs.recorder import TraceRecorder

        plan = FaultPlan(events=(
            RaiseInTask("rp-m-00000"),
            RaiseInTask("rp-m-00000", attempt=2),
            DelayTask("rp-r-00001", seconds=30.0, attempt=1),
        ))
        policy = ExecutionPolicy(
            task_retries=3, lease_seconds=5.0, blacklist_after=1,
            fault_plan=plan,
        )
        job = JobSpec("rp", word_mapper, sum_reducer, num_reducers=2,
                      io_sort_records=3)
        recorder = TraceRecorder()
        MapReduceEngine(
            nodes=["n1", "n2", "n3"], policy=policy, recorder=recorder
        ).run(job, make_splits([
            "the quick brown fox", "jumps over the lazy dog",
            "the dog barks", "quick quick slow",
        ]))
        assert recorder.metrics.as_dict()["counters"] == {
            "chaos.delays_injected": 1,
            "commit.fenced": 1,
            "commit.promoted": 6,
            "commit.staged": 7,
            "engine.backoff_charged_seconds": 0.02,
            "engine.nodes_blacklisted": 3,
            "lease.backups_launched": 3,
            "lease.expired": 1,
            "shuffle.bytes_shuffled": 466,
            "shuffle.raw_bytes": 290,
            "shuffle.segment_bytes_stored": 466,
            "shuffle.segments": 8,
        }

    def test_the_hung_reducers_late_commit_is_fenced_as_stale(self):
        """The retry-plane run above: the hung reducer's backup commits
        under epoch 1, then the hung attempt presents its epoch-0 token.
        That is a zombie's stale token, whatever committed in between."""
        plan = FaultPlan(events=(
            RaiseInTask("rp-m-00000"),
            RaiseInTask("rp-m-00000", attempt=2),
            DelayTask("rp-r-00001", seconds=30.0, attempt=1),
        ))
        policy = ExecutionPolicy(
            task_retries=3, lease_seconds=5.0, blacklist_after=1,
            fault_plan=plan,
        )
        job = JobSpec("rp", word_mapper, sum_reducer, num_reducers=2,
                      io_sort_records=3)
        result = MapReduceEngine(nodes=["n1", "n2", "n3"], policy=policy).run(
            job, make_splits(["the quick brown fox", "the dog barks"])
        )
        [refused] = result.history.events_of("commit_fenced")
        assert (refused["task"], refused["epoch"], refused["expected"],
                refused["reason"]) == ("rp-r-00001", 0, 1, "stale_epoch")
