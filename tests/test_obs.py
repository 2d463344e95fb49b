"""Tests for the observability layer: spans, metrics, exporters.

Covers the recorder in isolation, the engine's task instrumentation
under both executors (spans from forked workers must stitch back
identically), and the full five-round traced pipeline the ``repro
trace`` subcommand runs.
"""

from __future__ import annotations

import json

import pytest

from repro.api import PipelineSpec
from repro.formats.bam import read_bam
from repro.gdpt.partitioner import split_pairs_contiguously
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.executors import (
    JobContext,
    build_executor,
    fork_available,
)
from repro.mapreduce.history import JobHistory, TaskAttempt
from repro.mapreduce.job import JobSpec, TaskContext, make_splits
from repro.mapreduce.policy import ExecutionPolicy
from repro.mapreduce.task import TaskCall
from repro.obs.analysis import ledger
from repro.obs.export import (
    to_chrome_trace,
    to_jsonl_lines,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_METRICS,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NULL_SPAN,
    ObsConfig,
    Span,
    TraceRecorder,
)
from repro.pipeline.parallel import GesallPipeline
from repro.wrappers.programs import (
    pairs_to_interleaved_text,
    records_to_sam_text,
)
from repro.wrappers.rounds import GesallRounds

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

ALL_POLICIES = [
    ExecutionPolicy.serial(),
    pytest.param(ExecutionPolicy.pooled(max_workers=2), marks=needs_fork),
]


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("reads")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("reads") is counter
        gauge = registry.gauge("depth")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == [0.1, 1.0]
        assert snap["counts"] == [1, 2, 1]  # <=0.1, <=1.0, overflow
        assert snap["count"] == 4
        assert hist.mean == pytest.approx(6.05 / 4)

    def test_histogram_boundary_lands_in_its_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("edge", buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.snapshot()["counts"] == [1, 0, 0]

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_as_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("g").set(7)
        snap = registry.as_dict()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"]["b"] == 2
        assert snap["gauges"]["g"] == 7

    def test_null_metrics_share_one_instrument(self):
        assert NULL_METRICS.counter("x") is NULL_METRICS.counter("y")
        assert NULL_METRICS.counter("x") is NULL_METRICS.histogram("z")
        NULL_METRICS.counter("x").inc(100)
        assert NULL_METRICS.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_gauge_add_is_thread_safe(self):
        import threading

        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        counter = registry.counter("ops")

        def hammer():
            for _ in range(5_000):
                gauge.add(1.0)
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Lost updates under a racy read-modify-write would land short.
        assert gauge.value == 20_000.0
        assert counter.value == 20_000


class TestRecorder:
    def test_span_nesting_depth(self):
        recorder = TraceRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        by_name = {span.name: span for span in recorder.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].start >= by_name["outer"].start
        assert by_name["inner"].end <= by_name["outer"].end

    def test_span_attrs_and_set(self):
        recorder = TraceRecorder()
        with recorder.span("r", category="round", track="driver", a=1) as span:
            span.set(b=2)
        (span,) = recorder.spans()
        assert span.category == "round"
        assert span.track == "driver"
        assert span.attrs == {"a": 1, "b": 2}

    def test_span_records_error_attr(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("nope")
        (span,) = recorder.spans()
        assert span.attrs["error"] == "ValueError"

    def test_ingest_and_totals(self):
        recorder = TraceRecorder()
        base = recorder.epoch
        recorder.ingest([
            Span("map", "phase", base + 0.0, base + 1.0, track="t1"),
            Span("map", "phase", base + 1.0, base + 3.0, track="t2"),
            Span("spill", "phase", base + 3.0, base + 3.5, track="t2"),
        ])
        view = ledger(recorder)
        assert {layer: cells[None] for layer, cells in view["rows"].items()
                } == pytest.approx({"map": 3.0, "spill": 0.5})
        assert view["unaccounted"] == pytest.approx(0.0)
        assert recorder.horizon() == pytest.approx(3.5)

    def test_null_recorder_is_allocation_free(self):
        assert NULL_RECORDER.span("a") is NULL_RECORDER.span("b")
        assert NULL_RECORDER.span("a") is NULL_SPAN
        with NULL_RECORDER.span("a") as span:
            span.set(x=1)
        assert NULL_RECORDER.spans() == []
        assert NULL_RECORDER.horizon() == 0.0

    def test_obs_config_builds_recorders(self):
        assert ObsConfig().build_recorder() is NULL_RECORDER
        assert ObsConfig(enabled=False).build_recorder() is NULL_RECORDER
        recorder = ObsConfig(enabled=True).build_recorder()
        assert recorder.enabled and recorder is not NULL_RECORDER
        assert ObsConfig(enabled=True).build_recorder() is not recorder
        with pytest.raises(Exception):
            ObsConfig().enabled = True  # frozen

    def test_span_pickles_across_fork_boundary(self):
        import pickle

        span = Span("s", "phase", 1.0, 2.0, track="t", depth=1,
                    attrs={"k": 3})
        clone = pickle.loads(pickle.dumps(span))
        assert clone.to_dict() == span.to_dict()


class TestExport:
    def _recorder(self):
        recorder = TraceRecorder()
        with recorder.span("outer", category="round", track="driver"):
            with recorder.span("inner", category="phase", track="driver"):
                pass
        return recorder

    def test_chrome_trace_structure(self):
        trace = to_chrome_trace(self._recorder())
        events = trace["traceEvents"]
        x_events = [e for e in events if e["ph"] == "X"]
        m_events = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in x_events} == {"outer", "inner"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in x_events)
        # One thread_name metadata event per track, plus process_name.
        names = [e["args"]["name"] for e in m_events]
        assert "repro" in names and "driver" in names
        json.dumps(trace)  # must be serializable as-is

    def test_chrome_trace_one_tid_per_track(self):
        recorder = TraceRecorder()
        base = recorder.epoch
        recorder.ingest([
            Span("a", "s", base, base + 1, track="w1"),
            Span("b", "s", base, base + 1, track="w2"),
            Span("c", "s", base, base + 1, track="w1"),
        ])
        x_events = [
            e for e in to_chrome_trace(recorder)["traceEvents"]
            if e["ph"] == "X"
        ]
        tids = {e["name"]: e["tid"] for e in x_events}
        assert tids["a"] == tids["c"] != tids["b"]

    def test_jsonl_round_trip(self):
        lines = to_jsonl_lines(self._recorder())
        records = [json.loads(line) for line in lines]
        spans = [r for r in records if r["type"] == "span"]
        assert {s["name"] for s in spans} == {"outer", "inner"}
        assert records[-1]["type"] == "metrics"
        assert set(records[-1]["metrics"]) == {
            "counters", "gauges", "histograms",
        }

    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(self._recorder(), str(tmp_path / "t.json"))
        with open(path) as handle:
            assert "traceEvents" in json.load(handle)

    def test_empty_recorder_exports(self):
        recorder = TraceRecorder()
        trace = to_chrome_trace(recorder)
        assert [e["ph"] for e in trace["traceEvents"]] == ["M"]
        lines = to_jsonl_lines(recorder)
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "metrics"

    def _dead_worker_recorder(self):
        """A recorder holding a span a dead worker never closed."""
        recorder = TraceRecorder()
        base = recorder.epoch
        recorder.ingest([
            Span("map", "phase", base + 0.0, base + 1.0, track="w0"),
            Span("map", "phase", base + 0.2, None, track="w1"),
        ])
        return recorder

    def test_dead_worker_span_chrome_trace(self):
        trace = to_chrome_trace(self._dead_worker_recorder())
        trace = json.loads(json.dumps(trace))  # must stay serialisable
        incomplete = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["args"].get("incomplete")
        ]
        assert len(incomplete) == 1
        assert incomplete[0]["dur"] == 0.0

    def test_dead_worker_span_jsonl_and_aggregates(self):
        recorder = self._dead_worker_recorder()
        records = [json.loads(line) for line in to_jsonl_lines(recorder)]
        open_spans = [r for r in records
                      if r["type"] == "span" and r["end"] is None]
        assert len(open_spans) == 1
        # The endless span contributes zero duration and its start to
        # the horizon, rather than a TypeError.
        assert recorder.horizon() == pytest.approx(1.0)
        assert ledger(recorder)["rows"]["map"] == pytest.approx({None: 1.0})


def _traced_job():
    def mapper(payload, ctx):
        with ctx.span("chew", items=len(payload)) as span:
            total = sum(payload)
            span.set(total=total)
        for item in payload:
            ctx.emit(item % 3, item)

    def reducer(key, values, ctx):
        ctx.emit(key, sum(values))

    return JobSpec("trace-demo", mapper, reducer, num_reducers=2)


def _run_traced(policy):
    recorder = ObsConfig(enabled=True).build_recorder()
    engine = MapReduceEngine(nodes=["n0", "n1"], policy=policy,
                             recorder=recorder)
    splits = make_splits([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    result = engine.run(_traced_job(), splits)
    return recorder, result


def _inside(span, outer) -> bool:
    return (span.track == outer.track and span.depth == outer.depth + 1
            and outer.start <= span.start and span.end <= outer.end)


class TestEngineTracing:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.executor)
    def test_span_categories_and_stitching(self, policy):
        recorder, result = _run_traced(policy)
        spans = recorder.spans()
        categories = {}
        for span in spans:
            categories[span.category] = categories.get(span.category, 0) + 1
        # 1 job, 2 waves, 3 map tasks, 2 reduce tasks, 3 in-task spans.
        assert categories["job"] == 1
        assert categories["wave"] == 2
        assert categories["map-task"] == 3
        assert categories["reduce-task"] == 2
        assert categories["task"] == 3  # ctx.span("chew") per map task
        assert categories["phase"] >= 3 + 2  # map each; shuffle+ per reduce
        chews = [s for s in spans if s.name == "chew"]
        assert all(s.attrs["total"] in (6, 15, 24) for s in chews)
        # Stitched spans are re-homed onto the worker's track.
        task_tracks = {
            s.track for s in spans if s.category == "map-task"
        }
        assert {s.track for s in chews} <= task_tracks

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.executor)
    def test_measured_phases_and_queue_times(self, policy):
        recorder, result = _run_traced(policy)
        for attempt in result.history.tasks:
            assert attempt.run_seconds > 0.0
            assert attempt.queued_seconds >= 0.0
        spans = recorder.spans()
        task_spans = [s for s in spans if s.category.endswith("-task")]
        for task in task_spans:
            phases = [s.name for s in spans
                      if s.category == "phase" and _inside(s, task)]
            assert phases == (["map", "spill"] if task.category == "map-task"
                              else ["shuffle", "merge", "reduce"]), task
        assert all(s.attrs["queue_wait_ms"] >= 0.0 for s in task_spans)
        assert all(s.attrs["node"] in ("n0", "n1") for s in task_spans)
        hist = recorder.metrics.histogram("task.run_seconds")
        assert hist.count == 5

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.executor)
    def test_export_round_trip_all_executors(self, policy, tmp_path):
        recorder, _ = _run_traced(policy)
        path = write_chrome_trace(recorder, str(tmp_path / "trace.json"))
        with open(path) as handle:
            trace = json.load(handle)
        x_names = sorted(
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        )
        # Span *names* are executor-independent even though timings and
        # worker tracks differ; serial is the reference.
        ref, _ = _run_traced(ExecutionPolicy.serial())
        assert x_names == sorted(s.name for s in ref.spans())

    def test_outputs_identical_traced_or_not(self):
        policy = ExecutionPolicy.serial()
        _, traced = _run_traced(policy)
        engine = MapReduceEngine(nodes=["n0", "n1"], policy=policy)
        splits = make_splits([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        untraced = engine.run(_traced_job(), splits)
        assert traced.all_outputs() == untraced.all_outputs()

    def test_untraced_run_records_nothing(self):
        engine = MapReduceEngine(nodes=["n0", "n1"],
                                 policy=ExecutionPolicy.serial())
        splits = make_splits([[1, 2, 3]])
        result = engine.run(_traced_job(), splits)
        assert engine.recorder is NULL_RECORDER
        assert engine.recorder.spans() == []
        for attempt in result.history.tasks:
            assert attempt.run_seconds == 0.0

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.executor)
    def test_phases_nest_in_tasks_and_sections_in_phases(
        self, policy, reference, ref_index, pairs
    ):
        """One channel: a phase lies inside its task span on the same
        track, every reader / program / writer section inside a phase,
        and an untraced attempt ships no span at all."""
        spans = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=3,
            policy=policy, obs=ObsConfig(enabled=True),
        )).run(pairs[:60]).recorder.spans()
        tasks = [s for s in spans if s.category.endswith("-task")]
        phases = [s for s in spans if s.category == "phase"]
        names = ("hdfs-read", "decode", "transform", "program", "encode")
        sections = [s for s in spans if s.name in names]
        assert {s.name for s in sections} == set(names)
        for section in sections:
            assert sum(_inside(section, phase) for phase in phases) == 1, \
                section
        assert phases
        for phase in phases:
            assert sum(_inside(phase, task) for task in tasks) == 1, phase
            if phase.name == "map":  # a sealed block's or a round BAM's
                assert [s.name for s in sections
                        if _inside(s, phase)].count("decode") == 1, phase

        executor = build_executor(policy)
        job = _traced_job()
        executor.begin_job(JobContext(
            job, policy, make_splits([[1, 2, 3]]), trace=False,
        ))
        try:
            (outcome,) = executor.run_calls([TaskCall("map", "t-m-00000",
                                                      "n0")])
        finally:
            executor.close()
        assert outcome.spans == [] and outcome.started_at is None

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.executor)
    def test_round1_sections_carry_the_bytes_they_hand_on(
        self, policy, reference, aligner, pairs
    ):
        """Round 1's map phase is one Bwa ``program`` call between four
        ``transform`` text conversions, then the ``encode`` of the BAM
        the task writes; each byte count is that of what the step hands
        on."""
        hdfs = Hdfs(["n0", "n1"], replication=1)
        recorder = TraceRecorder()
        rounds = GesallRounds(hdfs, MapReduceEngine(
            nodes=hdfs.nodes, policy=policy, recorder=recorder,
        ), aligner, reference)
        partitions = split_pairs_contiguously(list(pairs[:60]), 3)
        try:
            paths = rounds.round1_alignment(partitions)
        finally:
            rounds.close()
        spans = recorder.spans()
        tasks = sorted((s for s in spans if s.category == "map-task"),
                       key=lambda s: s.name)
        assert len(tasks) == len(partitions) == len(paths)
        for index, (task, path) in enumerate(zip(tasks, paths)):
            assert task.name.endswith(f"-m-{index:05d}")
            (phase,) = [s for s in spans
                        if s.category == "phase" and _inside(s, task)]
            assert phase.name == "map"
            sections = [s for s in spans if _inside(s, phase)]
            names = [s.name for s in sections]
            assert names.count("program") == 1
            assert names.count("transform") == 4
            text = {s.attrs["what"]: s.attrs.get("bytes")
                    for s in sections if s.name == "transform"}
            assert set(text) == {"fastq-render", "fastq-parse",
                                 "sam-render", "sam-parse"}
            assert text["fastq-render"] == len(
                pairs_to_interleaved_text(partitions[index]).encode())
            data = hdfs.get(path)
            header, records = read_bam(data)
            assert text["sam-render"] == len(
                records_to_sam_text(header, records).encode())
            (encode,) = [s for s in sections if s.name == "encode"]
            assert encode.attrs["bytes_out"] == len(data)

    def test_task_context_span_disabled_is_null(self):
        context = TaskContext("t-0", "n0")
        assert context.span("x") is NULL_SPAN
        assert context.spans == []


class TestJobHistoryIndex:
    def test_find_uses_index_first_add_wins(self):
        history = JobHistory("job")
        first = TaskAttempt("m-0", "map", "n0")
        dup = TaskAttempt("m-0", "map", "n1")
        history.add(first)
        history.add(dup)
        assert history.find("m-0") is first
        assert history.find("missing") is None

    def test_summary_excludes_backups_from_primaries(self):
        history = JobHistory("job")
        primary = TaskAttempt("m-0", "map", "n0")
        primary.input_records = 10
        primary.output_records = 8
        primary.attempts = 2
        primary.injected_faults = 1
        backup = TaskAttempt("m-0-backup-e1", "map", "n1")
        backup.backup = True
        backup.input_records = 10
        reduce = TaskAttempt("r-0", "reduce", "n0")
        reduce.run_seconds = 1.5
        for task in (primary, backup, reduce):
            history.add(task)
        summary = history.summary()
        assert summary["tasks"] == 2
        assert summary["maps"] == 1 and summary["reduces"] == 1
        assert summary["input_records"] == 10  # the backup is not counted
        assert summary["backups"] == 1
        assert summary["retried_tasks"] == 1
        # The backup record is one of the primary's two attempts.
        assert summary["total_attempts"] == 3
        assert summary["injected_faults"] == 1
        assert summary["run_seconds"] == pytest.approx(1.5)
        assert summary["nodes"] == 2


@needs_fork
class TestTracedPipelineAcceptance:
    """The ``repro trace`` scenario: five rounds, pool executor."""

    @pytest.fixture(scope="class")
    def traced_run(self, reference, ref_index, pairs):
        pipeline = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=5,
            num_reducers=2,
            policy=ExecutionPolicy.pooled(max_workers=2),
            obs=ObsConfig(enabled=True),
        ))
        return pipeline.run(pairs)

    def test_round_spans_cover_all_rounds(self, traced_run):
        spans = traced_run.recorder.spans()
        rounds = [s for s in spans if s.category == "round"]
        assert len(rounds) >= 5
        names = {s.name for s in rounds}
        assert {"round:round1", "round:round2", "round:round3",
                "round:round4", "round:round5"} <= names
        for span in rounds:
            assert span.attrs["records_in"] >= 0
            assert span.duration > 0.0
        (pipeline_span,) = [s for s in spans if s.category == "pipeline"]
        assert pipeline_span.duration >= max(r.duration for r in rounds)

    def test_task_phase_spans_present(self, traced_run):
        rows = ledger(traced_run.recorder)["rows"]
        assert sum(rows["map"].values()) > 0.0
        assert {"shuffle", "merge", "reduce", "spill"} <= set(rows)

    def test_round_bam_encoding_is_on_the_reduce_tasks_track(self, traced_run):
        """Rounds 2-4 sort, render and frame their BAM in the reduce
        task: one ``encode`` span per reducer, nested in that task's
        span on its worker lane."""
        spans = traced_run.recorder.spans()
        tasks = [s for s in spans if s.category == "reduce-task"
                 and s.name.startswith("round2-")]
        assert sorted(s.name for s in tasks) == [
            "round2-cleaning-r-00000", "round2-cleaning-r-00001",
        ]
        written = dict(traced_run.rounds.results["round2"].all_outputs())
        for task in tasks:
            (encode,) = [
                s for s in spans
                if s.name == "encode" and s.track == task.track
                and task.start <= s.start and s.end <= task.end
            ]
            path = f"/round2/part-{int(task.name[-5:]):05d}.bam"
            assert encode.attrs["records"] == written[path]
            assert encode.attrs["bytes_out"] == len(traced_run.hdfs.get(path))

    def test_chrome_trace_loads(self, traced_run, tmp_path):
        path = write_chrome_trace(
            traced_run.recorder, str(tmp_path / "trace.json")
        )
        with open(path) as handle:
            trace = json.load(handle)
        cats = {e.get("cat") for e in trace["traceEvents"]}
        assert {"pipeline", "round", "job", "wave", "phase"} <= cats

    def test_round_metrics_and_hdfs_counters(self, traced_run):
        counters = traced_run.recorder.metrics.as_dict()["counters"]
        assert counters["round.round1.records_in"] > 0
        assert counters["round.round2.shuffled_bytes"] > 0
        assert counters["hdfs.put.calls"] > 0
        assert counters["hdfs.put.bytes"] > 0
        assert counters["hdfs.get.calls"] > 0

    def test_history_summaries(self, traced_run):
        for key, job_result in traced_run.rounds.results.items():
            summary = job_result.history.summary()
            assert summary["tasks"] > 0, key
            assert summary["run_seconds"] > 0.0, key

    def test_disabled_pipeline_records_nothing(self, reference, ref_index,
                                               pairs):
        pipeline = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=3,
            obs=ObsConfig(enabled=False),
        ))
        result = pipeline.run(pairs[:40])
        assert result.recorder is NULL_RECORDER
        assert result.recorder.spans() == []


class TestSerialTracedPipeline:
    """The ``repro trace`` scenario on the serial executor: queue wait
    that means waiting, and the map phase's first sub-spans."""

    @pytest.fixture(scope="class")
    def traced_run(self, reference, ref_index, pairs):
        return GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=5,
            num_reducers=2, obs=ObsConfig(enabled=True),
        )).run(pairs)

    def test_serial_round1_is_not_queued(self, traced_run):
        """A serial task waits for nothing while the one before it runs,
        so round 1's queue share is noise, not the earlier tasks' run
        time (it read ~75 % when charged from the wave submit)."""
        summary = traced_run.rounds.results["round1"].history.summary()
        assert summary["run_seconds"] > 0.0
        assert summary["queued_seconds"] <= 0.05 * summary["run_seconds"]

    @pytest.mark.parametrize("job", [
        "round2-cleaning", "round3-markdup-opt", "round4-sort",
        "round5-haplotypecaller",
    ])
    def test_map_tasks_carry_read_and_decode_spans(self, traced_run, job):
        spans = traced_run.recorder.spans()
        tasks = [s for s in spans if s.category == "map-task"
                 and s.name.startswith(f"{job}-m-")]
        assert tasks
        for task in tasks:
            inside = [s.name for s in spans if s.category == "task"
                      and s.track == task.track
                      and task.start <= s.start and s.end <= task.end]
            assert inside.count("hdfs-read") == 1, (task.name, inside)
            assert inside.count("decode") == 1, (task.name, inside)

    def test_untraced_reader_spans_are_the_null_span(
        self, reference, ref_index, pairs, monkeypatch
    ):
        opened = []
        span = TaskContext.span

        def recording_span(self, name, *args, **kwargs):
            opened.append((name, span(self, name, *args, **kwargs)))
            return opened[-1][1]

        monkeypatch.setattr(TaskContext, "span", recording_span)
        GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=3,
        )).run(pairs[:60])
        names = {name for name, _ in opened}
        assert {"hdfs-read", "decode"} <= names
        assert all(result is NULL_SPAN for _, result in opened)
