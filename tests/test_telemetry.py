"""Tests for the performance-study telemetry subsystem.

Covers the worker resource sampler, the straggler/utilization
analytics, the HTML report, and the ``repro-genomics trace`` /
``compare`` CLI surface (the rule itself: ``tests/test_compare.py``;
the report model: ``tests/test_report_model.py``) — including the
acceptance scenario: a pool-executor five-round run whose report
carries a per-phase utilization timeline, at least one resource
time-series per worker, and a straggler section.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import PipelineSpec
from repro.cli import main
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.executors import fork_available
from repro.mapreduce.history import JobHistory, TaskAttempt
from repro.mapreduce.job import JobSpec, make_splits
from repro.mapreduce.policy import ExecutionPolicy
from repro.obs.analysis import (
    MAD_THRESHOLD,
    analyze,
    detect_stragglers,
    mad_scores,
    phase_timeline,
    queue_run_decomposition,
    worker_cost,
)
from repro.obs.recorder import ObsConfig, Span, TraceRecorder
from repro.obs.report import build_report, render_html
from repro.obs.sampler import ResourceSampler, take_sample
from repro.pipeline.parallel import GesallPipeline
from tests.test_compare import contract_record, write_records

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ResourceSampler(0.0)
        with pytest.raises(ValueError):
            ResourceSampler(-1.0)

    def test_take_sample_fields(self):
        sample = take_sample()
        assert sample.t > 0.0
        assert sample.cpu_seconds >= 0.0
        assert sample.rss_bytes > 0
        assert sample.read_bytes >= 0
        assert sample.write_bytes >= 0
        assert sample.ctx_switches >= 0

    def test_at_least_two_samples_even_for_instant_tasks(self):
        # Interval far longer than the task: the immediate start sample
        # and the guaranteed stop sample must still both exist.
        sampler = ResourceSampler(60.0).start()
        samples = sampler.stop()
        assert len(samples) >= 2
        assert samples[-1].t >= samples[0].t

    def test_samples_accumulate_over_interval(self):
        with ResourceSampler(0.005) as sampler:
            time.sleep(0.04)
        assert len(sampler.samples) >= 4
        times = [sample.t for sample in sampler.samples]
        assert times == sorted(times)
        # Cumulative counters never decrease.
        cpu = [sample.cpu_seconds for sample in sampler.samples]
        assert cpu == sorted(cpu)

    def test_samples_pickle(self):
        import pickle

        sample = take_sample()
        assert pickle.loads(pickle.dumps(sample)) == sample


class TestMadScores:
    def test_empty_and_uniform(self):
        assert mad_scores([]) == []
        assert mad_scores([2.0, 2.0, 2.0]) == [0.0, 0.0, 0.0]

    def test_outlier_scores_high(self):
        scores = mad_scores([1.0, 1.1, 0.9, 1.0, 8.0])
        assert scores[-1] > MAD_THRESHOLD
        assert all(abs(score) < MAD_THRESHOLD for score in scores[:-1])

    def test_zero_mad_stays_finite(self):
        scores = mad_scores([1.0, 1.0, 1.0, 10.0])
        assert all(score == score and abs(score) != float("inf")
                   for score in scores)  # no NaN, no inf
        assert scores[-1] > MAD_THRESHOLD


def _history_with_straggler():
    history = JobHistory("job")
    for index, run_seconds in enumerate([1.0, 1.05, 0.95, 1.0, 9.0]):
        task = TaskAttempt(f"m-{index}", "map", f"n{index % 2}")
        task.run_seconds = run_seconds
        task.queued_seconds = 0.25
        history.add(task)
    reduce = TaskAttempt("r-0", "reduce", "n0")
    reduce.run_seconds = 2.0
    reduce.queued_seconds = 0.5
    history.add(reduce)
    return history


class TestStragglerDetection:
    def test_detects_the_slow_map(self):
        stragglers = detect_stragglers(_history_with_straggler())
        assert len(stragglers) == 1
        straggler = stragglers[0]
        assert straggler.task_id == "m-4"
        assert straggler.kind == "map"
        assert straggler.run_seconds == pytest.approx(9.0)
        assert straggler.score > MAD_THRESHOLD
        assert straggler.wave_median == pytest.approx(1.0)
        assert straggler.as_dict()["task_id"] == "m-4"

    def test_small_waves_and_untraced_histories_yield_nothing(self):
        history = JobHistory("job")
        for index in range(2):  # < 3 primaries
            task = TaskAttempt(f"m-{index}", "map", "n0")
            task.run_seconds = float(index + 1)
            history.add(task)
        assert detect_stragglers(history) == []
        untraced = JobHistory("job2")
        for index in range(5):  # run_seconds == 0.0 everywhere
            untraced.add(TaskAttempt(f"m-{index}", "map", "n0"))
        assert detect_stragglers(untraced) == []

    def test_backup_attempts_not_scored(self):
        history = _history_with_straggler()
        backup = TaskAttempt("m-4-backup-e1", "map", "n1")
        backup.backup = True
        backup.run_seconds = 50.0
        history.add(backup)
        stragglers = detect_stragglers(history)
        assert {s.task_id for s in stragglers} == {"m-4"}

    def test_queue_run_decomposition(self):
        out = queue_run_decomposition(_history_with_straggler())
        assert out["map"]["tasks"] == 5
        assert out["map"]["queued_seconds"] == pytest.approx(1.25)
        assert out["map"]["run_seconds"] == pytest.approx(13.0)
        assert out["reduce"]["tasks"] == 1
        assert out["total"]["tasks"] == 6
        assert 0.0 < out["total"]["queue_fraction"] < 1.0


class TestTimelinesAndCost:
    def _recorder(self):
        recorder = TraceRecorder()
        base = recorder.epoch
        recorder.ingest([
            Span("map", "phase", base + 0.0, base + 2.0, track="w0"),
            Span("map", "phase", base + 0.0, base + 2.0, track="w1"),
            Span("reduce", "phase", base + 2.0, base + 4.0, track="w0"),
            Span("m-0", "map-task", base + 0.0, base + 2.0, track="w0"),
            Span("m-1", "map-task", base + 0.0, base + 2.0, track="w1"),
            Span("r-0", "reduce-task", base + 2.0, base + 4.0, track="w0"),
        ])
        return recorder

    def test_phase_timeline_counts_concurrency(self):
        timeline = phase_timeline(self._recorder(), samples=8)
        assert timeline["horizon"] == pytest.approx(4.0)
        assert timeline["peak"]["map"] == 2
        assert timeline["peak"]["reduce"] == 1
        # Maps occupy the first half of the horizon, reduces the second.
        assert timeline["phases"]["map"][:4] == [2, 2, 2, 2]
        assert timeline["phases"]["map"][4:] == [0, 0, 0, 0]
        assert timeline["phases"]["reduce"][:4] == [0, 0, 0, 0]

    def test_phase_timeline_empty(self):
        timeline = phase_timeline(TraceRecorder(), samples=8)
        assert timeline["phases"] == {} and timeline["peak"] == {}

    def test_worker_cost_summary(self):
        cost = worker_cost(self._recorder())
        assert cost["workers"] == 2
        assert cost["busy_seconds"] == pytest.approx(6.0)
        # No pool ran: w0 is billed 4s (two tasks back to back), w1 2s.
        assert cost["billed_seconds"] == pytest.approx(6.0)
        assert cost["utilization"] == pytest.approx(1.0)
        assert cost["parallelism"] == pytest.approx(1.5)
        assert cost["static_envelope_seconds"] == pytest.approx(8.0)

    def test_analyze_bundle(self):
        out = analyze(self._recorder(),
                      [("round1", _history_with_straggler())])
        assert out["stragglers"][0]["round"] == "round1"
        assert "round1" in out["queue_run"]
        assert out["worker_cost"]["workers"] == 2
        assert out["phase_timeline"]["peak"]["map"] == 2
        # The whole bundle must survive JSON serialisation (reports,
        # CI artifacts).
        json.dumps(out)


def _sampled_job():
    def mapper(payload, ctx):
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            sum(range(500))
        for item in payload:
            ctx.emit(item % 2, item)

    def reducer(key, values, ctx):
        ctx.emit(key, sum(values))

    return JobSpec("sampled", mapper, reducer, num_reducers=2)


SAMPLED_POLICIES = [
    ExecutionPolicy.serial(),
    pytest.param(ExecutionPolicy.pooled(max_workers=2), marks=needs_fork),
]


class TestEngineSampleIngestion:
    @pytest.mark.parametrize("policy", SAMPLED_POLICIES,
                             ids=lambda p: p.executor)
    def test_samples_become_timeseries(self, policy):
        recorder = ObsConfig(
            enabled=True, sample_interval=0.01
        ).build_recorder()
        engine = MapReduceEngine(nodes=["n0", "n1"], policy=policy,
                                 recorder=recorder)
        splits = make_splits([[1, 2, 3], [4, 5, 6]])
        result = engine.run(_sampled_job(), splits)
        assert sorted(result.all_outputs()) == [(0, 12), (1, 9)]
        series = recorder.metrics.all_timeseries()
        names = {s.name for s in series}
        assert "proc.rss_bytes" in names
        assert "proc.cpu_percent" in names
        rss = [s for s in series if s.name == "proc.rss_bytes"]
        assert all(s.tags.get("worker") for s in rss)
        assert any(len(s) >= 2 for s in rss)
        for s in rss:
            for t, value, tags in s.points():
                assert value > 0
                assert "task" in tags and "phase" in tags
                # Ingestion rebases onto the recorder epoch.
                assert -1.0 < t < recorder.horizon() + 1.0
        assert recorder.metrics.counter("obs.samples_ingested").value > 0

    def test_untraced_run_collects_no_samples(self):
        recorder = ObsConfig(enabled=True).build_recorder()  # interval 0
        engine = MapReduceEngine(
            nodes=["n0"], policy=ExecutionPolicy.serial(),
            recorder=recorder,
        )
        engine.run(_sampled_job(), make_splits([[1, 2]]))
        assert recorder.metrics.all_timeseries() == []


@needs_fork
class TestReportAcceptance:
    """Acceptance: pool executor, five rounds, sampled, HTML report."""

    @pytest.fixture(scope="class")
    def sampled_run(self, reference, ref_index, pairs):
        pipeline = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=5,
            num_reducers=2,
            policy=ExecutionPolicy.pooled(max_workers=2),
            obs=ObsConfig(enabled=True, sample_interval=0.01),
        ))
        return pipeline.run(pairs)

    @pytest.fixture(scope="class")
    def html(self, sampled_run):
        return render_html(build_report(
            sampled_run.recorder, sampled_run.rounds.results,
            {"executor": "pool"},
        ), "acceptance report", sampled_run.recorder)

    def test_report_is_self_contained_html(self, html):
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert 'href="http' not in html and 'src="http' not in html
        assert "acceptance report" in html

    def test_report_has_utilization_timeline(self, sampled_run, html):
        assert "Per-phase utilization" in html
        timeline = phase_timeline(sampled_run.recorder)
        assert timeline["peak"].get("map", 0) >= 1
        for name in timeline["phases"]:
            assert name in html

    def test_report_has_resource_series_per_worker(self, sampled_run,
                                                   html):
        series = sampled_run.recorder.metrics.all_timeseries()
        workers = {s.tags.get("worker") for s in series
                   if s.name == "proc.rss_bytes"}
        # Every pool worker that ran a task long enough to sample shows
        # up; the driver-side serial phases add more.
        assert len(workers) >= 2
        assert "Worker resource sampling" in html
        assert "proc.rss_bytes" in html and "proc.cpu_percent" in html
        assert html.count("<polyline") >= len(workers)

    def test_report_has_straggler_section(self, html):
        assert "Stragglers" in html

    def test_report_has_timeline_svg_and_queue_table(self, html):
        assert "Span timeline" in html
        assert "<svg" in html
        assert "Queue wait vs run time" in html
        assert "round1" in html


class TestCli:
    def _write_benches(self, tmp_path, base_busy, cand_busy):
        return write_records(tmp_path, contract_record(busy=base_busy),
                             contract_record(busy=cand_busy))

    def test_compare_exits_nonzero_on_regression(self, tmp_path,
                                                 capsys):
        base, cand = self._write_benches(tmp_path, 1.0, 1.3)
        assert main(["compare", base, cand]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_compare_passes_identical(self, tmp_path, capsys):
        base, cand = self._write_benches(tmp_path, 1.0, 1.0)
        assert main(["compare", base, cand]) == 0
        assert capsys.readouterr().out.count("inside the bound") == 3

    def test_compare_json_output(self, tmp_path, capsys):
        base, cand = self._write_benches(tmp_path, 1.0, 1.3)
        out_path = tmp_path / "cmp.json"
        assert main(["compare", base, cand,
                     "--json", str(out_path)]) == 1
        payload = json.loads(out_path.read_text())
        assert payload["exit"] == 1
        assert {cell["verdict"] for cell in payload["cells"]} == {
            "REGRESSION", "inside the bound"}

    def test_compare_threshold_flag(self, tmp_path, capsys):
        """Gone: the rule's bounds are BENCHMARK.json's, none is a flag."""
        base, cand = self._write_benches(tmp_path, 1.0, 1.3)
        for flag in (["--threshold", "0.5"], ["--noise-floor", "1"],
                     ["--strict-host"], ["--show-ok"]):
            with pytest.raises(SystemExit):
                main(["compare", base, cand, *flag])

    def test_compare_errors_on_legacy_bench_baseline(self, tmp_path,
                                                     capsys):
        """A committed ``BENCH_*.json`` of the legacy schema is not a
        run of the contract benchmark: a typed error, never a pass."""
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"name": "old", "wall_seconds": 1.0}))
        _, cand = self._write_benches(tmp_path, 1.0, 1.0)
        assert main(["compare", str(stale), cand]) == 2
        assert "not a run.py --out record" in capsys.readouterr().err

    def test_compare_errors_on_pre_v2_candidate(self, tmp_path, capsys):
        base, _ = self._write_benches(tmp_path, 1.0, 1.0)
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"name": "old", "wall_seconds": 1.0}))
        assert main(["compare", base, str(stale)]) == 2
        assert "not a run.py --out record" in capsys.readouterr().err

    def test_compare_errors_on_unparsable_baseline(self, tmp_path,
                                                   capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        _, cand = self._write_benches(tmp_path, 1.0, 1.0)
        assert main(["compare", str(broken), cand]) == 2
        assert capsys.readouterr().err

    @needs_fork
    def test_trace_writes_the_html_report(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["simulate", "--out", str(data),
                     "--length", "4000", "--coverage", "4",
                     "--seed", "5"]) == 0
        assert main(["trace", "--data", str(data),
                     "--trace-out", str(tmp_path / "trace.json"),
                     "--executor", "pool", "--max-workers", "2",
                     "--partitions", "3",
                     "--sample-interval", "0.01"]) == 0
        html = (data / "report.html").read_text()
        assert "Per-phase utilization" in html
        assert "proc.rss_bytes" in html
        assert f"wrote {data / 'report.html'}" in capsys.readouterr().out

    def test_report_is_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--data", "anywhere"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("interval", ["nan", "-1"])
    def test_trace_refuses_a_bad_sample_interval(self, interval, tmp_path,
                                                 capsys):
        assert main(["trace", "--data", str(tmp_path / "missing"),
                     "--sample-interval", interval]) == 2
        assert "sample_interval" in capsys.readouterr().err
