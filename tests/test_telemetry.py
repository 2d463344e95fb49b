"""Tests for the performance-study telemetry subsystem.

Covers the resource readings phase spans carry, the straggler,
utilization and memory analytics, the HTML report, and the
``repro-genomics trace`` / ``compare`` CLI surface (the rule itself:
``tests/test_compare.py``; the report model:
``tests/test_report_model.py``) — including the acceptance scenario: a
pool-executor five-round run whose report carries a per-phase
utilization timeline, a Memory table over every round, and a
straggler section.
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
    memory,
    phase_timeline,
    queue_run_decomposition,
    worker_cost,
)
from repro.obs.recorder import ObsConfig, Span, TraceRecorder
from repro.obs.report import build_report, render_html
from repro.obs import recorder as recorder_module
from repro.obs.sampler import ResourceSample, phase_readings, take_sample
from repro.pipeline.parallel import GesallPipeline
from tests.test_compare import contract_record, write_records

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestSampler:
    def test_take_sample_fields(self):
        sample = take_sample()
        assert sample.cpu_seconds >= 0.0
        assert sample.rss_bytes > 0
        assert sample.hwm_bytes > 0
        assert sample.read_bytes >= 0
        assert sample.write_bytes >= 0

    def test_samples_pickle(self):
        import pickle

        sample = take_sample()
        assert pickle.loads(pickle.dumps(sample)) == sample

    def test_the_peak_is_exact_only_when_the_phase_raised_the_mark(self):
        mib = 1 << 20
        before = ResourceSample(1.0, 40 * mib, 90 * mib, 100, 200)
        # Under the old high-water mark: max(RSS in, RSS out), a bound.
        shrank = phase_readings(before, ResourceSample(
            1.5, 30 * mib, 90 * mib, 150, 260))
        assert shrank == {
            "cpu_s": 0.5, "rss": 30 * mib, "rss_growth": 0,
            "peak": 40 * mib, "peak_exact": False, "hwm": 90 * mib,
            "read_bytes": 50, "write_bytes": 60,
        }
        grew = phase_readings(before, ResourceSample(
            1.5, 50 * mib, 90 * mib, 100, 200))
        assert (grew["peak"], grew["rss_growth"]) == (50 * mib, 10 * mib)
        assert not grew["peak_exact"]
        # The phase raised the mark, so it reached it: exact.
        raised = phase_readings(before, ResourceSample(
            1.5, 45 * mib, 120 * mib, 100, 200))
        assert raised["peak_exact"]
        assert (raised["peak"], raised["rss_growth"]) == (
            120 * mib, 80 * mib)


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

    def test_worker_cost_bills_each_task_by_its_largest_phase_peak(self):
        recorder = self._recorder()
        base = recorder.epoch
        recorder.ingest([Span("m-2", "map-task", base, base + 3.0,
                              track="w2", attrs={"peak": 2 << 30})])
        assert worker_cost(recorder)["gb_seconds"] == pytest.approx(6.0)
        assert worker_cost(self._recorder())["gb_seconds"] == 0.0

    def test_memory_view_per_round_and_phase(self):
        recorder = TraceRecorder()
        base = recorder.epoch
        mib = 1 << 20

        def phase(name, start, end, growth, peak, exact, track="w0"):
            return Span(name, "phase", base + start,
                        None if end is None else base + end, track=track,
                        attrs={"rss_growth": growth * mib,
                               "peak": peak * mib, "peak_exact": exact})

        recorder.ingest([
            Span("round:round2", "round", base, base + 10.0,
                 track="driver"),
            Span("round2:map-wave", "wave", base + 0.5, base + 4.0,
                 track="driver", depth=2, attrs={"rss": 30 * mib}),
            Span("round2:reduce-wave", "wave", base + 4.5, base + 9.0,
                 track="driver", depth=2, attrs={"rss": 33 * mib}),
            phase("map", 1.0, 2.0, 3, 25, False),
            phase("map", 1.0, 3.0, 1, 28, True, track="w1"),
            phase("reduce", 5.0, 6.0, 7, 26, True),
            # A dead worker's phase never closed: skipped.
            phase("reduce", 5.0, None, 500, 900, True, track="w1"),
            # A phase without readings (not taken by this build): skipped.
            Span("reduce", "phase", base + 5.0, base + 7.0, track="w2"),
            # Outside every round.
            phase("map", 11.0, 12.0, 2, 20, False),
        ])
        assert memory(recorder) == [
            {"round": "round2", "phase": "map", "tasks": 2,
             "growth": 3 * mib, "peak": 28 * mib, "bound": "exact",
             "driver": 30 * mib},
            {"round": "round2", "phase": "reduce", "tasks": 1,
             "growth": 7 * mib, "peak": 26 * mib, "bound": "exact",
             "driver": 33 * mib},
            {"round": None, "phase": "map", "tasks": 1, "growth": 2 * mib,
             "peak": 20 * mib, "bound": "lower bound", "driver": None},
        ]
        assert memory(TraceRecorder()) == []

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


#: The readings every closed, traced phase span carries.
READINGS = {"cpu_s", "rss", "rss_growth", "peak", "peak_exact", "hwm",
            "read_bytes", "write_bytes"}


class TestEngineSampleIngestion:
    @pytest.mark.parametrize("policy", SAMPLED_POLICIES,
                             ids=lambda p: p.executor)
    def test_phase_spans_carry_readings(self, policy):
        recorder = ObsConfig(enabled=True).build_recorder()
        engine = MapReduceEngine(nodes=["n0", "n1"], policy=policy,
                                 recorder=recorder)
        splits = make_splits([[1, 2, 3], [4, 5, 6]])
        result = engine.run(_sampled_job(), splits)
        assert sorted(result.all_outputs()) == [(0, 12), (1, 9)]
        spans = recorder.spans()
        phases = [s for s in spans if s.category == "phase"]
        assert {s.name for s in phases} == {
            "map", "spill", "shuffle", "merge", "reduce"}
        for span in phases:
            assert READINGS <= set(span.attrs), span
            attrs = span.attrs
            assert attrs["rss"] > 0 and attrs["hwm"] > 0
            assert attrs["rss_growth"] >= 0 and attrs["cpu_s"] >= 0.0
            assert attrs["peak"] >= attrs["rss"]
            assert attrs["read_bytes"] >= 0 and attrs["write_bytes"] >= 0
        # The maps busy-wait 50 ms: their CPU is read, wherever they ran.
        assert all(s.attrs["cpu_s"] > 0.01 for s in phases
                   if s.name == "map")
        waves = [s for s in spans if s.category == "wave"]
        assert len(waves) == 2 and all(s.attrs["rss"] > 0 for s in waves)
        for task in (s for s in spans if s.category.endswith("-task")):
            assert task.attrs["peak"] == max(
                p.attrs["peak"] for p in phases
                if p.track == task.track and task.start <= p.start
                and p.end <= task.end)
        rows = memory(recorder)
        assert [row["phase"] for row in rows] == [
            "map", "spill", "shuffle", "merge", "reduce"]
        assert all(row["driver"] > 0 for row in rows)

    def test_untraced_run_collects_no_samples(self, monkeypatch):
        calls = []

        def counted():
            calls.append(1)
            return take_sample()

        monkeypatch.setattr(recorder_module, "take_sample", counted)
        engine = MapReduceEngine(nodes=["n0"],
                                 policy=ExecutionPolicy.serial())
        engine.run(_sampled_job(), make_splits([[1, 2]]))
        assert calls == []
        # The counter is live: a traced run of the same job reads.
        MapReduceEngine(
            nodes=["n0"], policy=ExecutionPolicy.serial(),
            recorder=ObsConfig(enabled=True).build_recorder(),
        ).run(_sampled_job(), make_splits([[1, 2]]))
        # Two per phase (one map task's two, two reducers' three each),
        # one per wave.
        assert len(calls) == 2 * (2 + 2 * 3) + 2

    @needs_fork
    def test_untraced_pool_workers_take_no_reading(self, monkeypatch):
        """A reading in a forked worker cannot bump a driver counter, so
        the worker's copy raises instead: the untraced run must not."""
        def refused():
            raise AssertionError("untraced run took a resource reading")

        monkeypatch.setattr(recorder_module, "take_sample", refused)
        engine = MapReduceEngine(nodes=["n0", "n1"],
                                 policy=ExecutionPolicy.pooled(2))
        result = engine.run(_sampled_job(),
                            make_splits([[1, 2, 3], [4, 5, 6]]))
        assert sorted(result.all_outputs()) == [(0, 12), (1, 9)]


@needs_fork
class TestReportAcceptance:
    """Acceptance: pool executor, five rounds, sampled, HTML report."""

    @pytest.fixture(scope="class")
    def sampled_run(self, reference, ref_index, pairs):
        pipeline = GesallPipeline(PipelineSpec(
            reference, index=ref_index, num_fastq_partitions=5,
            num_reducers=2,
            policy=ExecutionPolicy.pooled(max_workers=2),
            obs=ObsConfig(enabled=True),
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

    def test_report_has_memory_for_every_round(self, sampled_run, html):
        rows = memory(sampled_run.recorder)
        assert {row["round"] for row in rows} == {
            "round1", "round2", "round3", "round4", "round5"}
        assert all(row["growth"] >= 0 and row["peak"] > 0 for row in rows)
        assert "<h2>Memory</h2>" in html and "GB·s" in html

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
                     "--partitions", "3"]) == 0
        html = (data / "report.html").read_text()
        assert "Per-phase utilization" in html
        assert "<h2>Memory</h2>" in html
        assert f"wrote {data / 'report.html'}" in capsys.readouterr().out

    def test_report_is_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--data", "anywhere"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("interval", ["nan", "-1"])
    def test_trace_refuses_a_bad_sample_interval(self, interval, tmp_path,
                                                 capsys):
        """The flag is gone: resources ride the phase spans of every
        traced run, so any --sample-interval is refused."""
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--data", str(tmp_path / "missing"),
                  "--sample-interval", interval])
        assert exit_info.value.code == 2
        assert "--sample-interval" in capsys.readouterr().err
