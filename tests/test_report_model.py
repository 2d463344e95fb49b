"""The report model: one ``build_report`` behind three generic walks.

Checks the model, not strings: text, HTML and JSON hold the same
sections and the same cells by construction; the worker count is the
peak number of concurrently running tasks (not the number of pids a
per-job fork leaves behind); empty recorders render and say so.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from repro.api import PipelineSpec
from repro.chaos import FaultPlan, RaiseInTask
from repro.cli import main
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.executors import fork_available
from repro.mapreduce.job import JobSpec, make_splits
from repro.mapreduce.policy import ExecutionPolicy
from repro.obs.analysis import ledger, worker_cost
from repro.obs.recorder import (
    NULL_RECORDER,
    ObsConfig,
    Span,
    TraceRecorder,
)
from repro.obs.report import (
    build_report,
    format_cell,
    render_html,
    render_text,
    report_dict,
)
from repro.pipeline.parallel import GesallPipeline

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

#: The heading ``render_html`` alone adds (an SVG figure, not a table).
FIGURES = {"Span timeline"}

POLICIES = {
    "serial": ExecutionPolicy.serial(),
    "pool2": pytest.param(ExecutionPolicy.pooled(2), marks=needs_fork),
    "chaos": ExecutionPolicy.serial(
        task_retries=4,
        fault_plan=FaultPlan(events=(
            RaiseInTask("round2-cleaning-m-00001"),
            RaiseInTask("round4-sort-r-00000"),
        )),
    ),
}


def traced_run(reference, ref_index, pairs, policy):
    return GesallPipeline(PipelineSpec(
        reference, index=ref_index, num_fastq_partitions=5, num_reducers=2,
        policy=policy, obs=ObsConfig(enabled=True),
    )).run(pairs)


@pytest.fixture(scope="module", params=list(POLICIES.values()),
                ids=list(POLICIES))
def run_and_tables(request, reference, ref_index, pairs):
    result = traced_run(reference, ref_index, pairs, request.param)
    tables = build_report(result.recorder, result.rounds.results,
                          {"executor": request.param.executor})
    return result, tables, request.param


def peak_concurrency(recorder) -> int:
    """Brute force: at each task start, how many task spans cover it."""
    tasks = [s for s in recorder.spans() if s.category.endswith("-task")]
    return max(
        (sum(1 for other in tasks if other.start <= span.start < other.end)
         for span in tasks), default=0,
    )


class TestSameSectionsSameCells:
    def test_titles_agree_across_the_three_renderings(self, run_and_tables):
        result, tables, _ = run_and_tables
        titles = [table.title for table in tables]
        assert len(set(titles)) == len(titles)
        text = render_text(tables)
        assert [line[:-1] for line in text.splitlines()
                if line.endswith(":") and not line.startswith(" ")] == titles
        html = render_html(tables, "t", result.recorder)
        headings = re.findall(r"<h2>(.*?)</h2>", html)
        assert [h for h in headings if h not in FIGURES] == titles
        assert list(report_dict(tables)) == titles
        for core in ("Run", "Rounds", "Ledger",
                     "Per-phase utilization", "Per-round tasks",
                     "Queue wait vs run time", "Memory", "Worker cost",
                     "Stragglers", "HDFS", "Shuffle", "Commit protocol",
                     "Counters"):
            assert core in titles

    def test_memory_rows_and_the_gb_seconds_cell_reach_all_three(
        self, run_and_tables
    ):
        result, tables, _ = run_and_tables
        payload = json.loads(json.dumps(report_dict(tables)))
        memory = payload["Memory"]
        assert {row["round"] for row in memory["rows"]} == {
            "round1", "round2", "round3", "round4", "round5"}
        assert "lower bound" in memory["note"]
        text = render_text(tables)
        html = render_html(tables, "t", result.recorder)
        for row in memory["rows"]:
            assert row["max RSS growth"] >= 0
            assert row["max peak"] > 0 and row["driver RSS at wave start"] > 0
            assert row["peak is"] in ("exact", "lower bound")
            cells = [format_cell(row[name], unit)
                     for name, unit in memory["units"].items()]
            assert " ".join(cells) in re.sub(r" +", " ", text)
            assert "".join(f"<td>{cell}</td>" for cell in cells) in html
        cost = payload["Worker cost"]["rows"][0]
        assert cost["GB·s"] > 0
        assert format_cell(cost["GB·s"]) in text
        assert f"<td>{format_cell(cost['GB·s'])}</td>" in html

    def test_every_numeric_cell_appears_formatted_in_both(
        self, run_and_tables
    ):
        _, tables, _ = run_and_tables
        text = render_text(tables)
        html = render_html(tables, "t")
        payload = json.loads(json.dumps(report_dict(tables)))
        checked = 0
        for title, section in payload.items():
            for row in section["rows"]:
                for name, value in row.items():
                    unit = section["units"][name]
                    if unit == "series" or isinstance(value, str):
                        continue
                    cell = format_cell(value, unit)
                    assert cell in text, (title, name, cell)
                    assert f"<td>{cell}</td>" in html, (title, name, cell)
                    checked += 1
        assert checked > 100

    def test_chaos_run_shows_its_retries_in_the_one_tasks_table(
        self, run_and_tables
    ):
        _, tables, policy = run_and_tables
        by_round = {row["round"]: row for row in
                    report_dict(tables)["Per-round tasks"]["rows"]}
        injected = sum(row["injected"] for row in by_round.values())
        if policy.fault_plan is None:
            assert injected == 0
        else:
            assert by_round["round2"]["injected"] == 1
            assert by_round["round4"]["retried"] == 1
            assert injected == 2

    def test_html_is_script_free_and_keeps_the_headings_ci_greps(
        self, run_and_tables
    ):
        result, tables, _ = run_and_tables
        html = render_html(tables, "acceptance", result.recorder)
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert 'href="http' not in html and 'src="http' not in html
        for needle in ("Per-phase utilization", "Stragglers", "Memory",
                       "<svg"):
            assert needle in html


class TestFormatCell:
    @pytest.mark.parametrize("value,unit,text", [
        (None, "s", "-"), (None, "", "-"),
        (0, "s", "0.000 s"), (0.00042, "s", "420 us"),
        (0.001, "s", "0.001 s"), (1.5, "s", "1.500 s"),
        (0, "B", "0 B"), (1023, "B", "1023 B"), (1024, "B", "1.0 KiB"),
        (3 * 1024 ** 3, "B", "3.0 GiB"), (5000 * 1024 ** 3, "B", "5000.0 GiB"),
        (0, "%", "0.0%"), (0.866, "%", "86.6%"), (1.0, "%", "100.0%"),
        (0, "x", "0.00x"), (1.667, "x", "1.67x"),
        (0, "n", "0"), (3162, "n", "3162"), (12.0, "n", "12"),
        ("pool", "", "pool"), (7, "", "7"), (0.1 + 0.2, "", "0.3"),
    ])
    def test_each_unit_at_its_edges(self, value, unit, text):
        assert format_cell(value, unit) == text

    @pytest.mark.parametrize("value", [0.0, 3.2e-5, 0.0123, 7.25, 1234.5])
    def test_seconds_round_trip(self, value):
        number, suffix = format_cell(value, "s").split()
        scale = {"s": 1.0, "us": 1e-6}[suffix]
        grain = 6e-4 if suffix == "s" else 6e-7  # .3f seconds, whole us
        assert float(number) * scale == pytest.approx(value, abs=grain)

    @pytest.mark.parametrize("value", [0, 512, 1536, 5 * 1024 ** 2,
                                       2 * 1024 ** 3])
    def test_bytes_round_trip(self, value):
        number, suffix = format_cell(value, "B").split()
        scale = {"B": 1, "KiB": 1024, "MiB": 1024 ** 2, "GiB": 1024 ** 3}
        assert float(number) * scale[suffix] == pytest.approx(value, rel=0.05)

    def test_series_renders_as_a_strip(self):
        strip = format_cell([0.0, 1.0, 2.0, 3.0], "series")
        assert len(strip) == 4 and strip[0] != strip[-1]
        assert format_cell([], "series") == ""
        assert len(format_cell([5.0] * 100, "series")) == 25


class TestEmptyRecorders:
    @pytest.mark.parametrize("recorder", [TraceRecorder(), NULL_RECORDER],
                             ids=["no-spans", "null"])
    def test_nothing_recorded_renders_and_says_so(self, recorder):
        tables = build_report(recorder)
        by_title = {table.title: table for table in tables}
        for title, said in (
            ("Rounds", "(no round spans recorded)"),
            ("Ledger", "(no spans recorded)"),
            ("Per-phase utilization", "(no phase spans recorded)"),
            ("Per-round tasks", "(no job histories supplied)"),
            ("Queue wait vs run time", "(no job histories supplied)"),
            ("Worker cost", "(no task spans recorded)"),
            ("Stragglers", "none detected"),
            ("Memory", "(no phase readings recorded)"),
        ):
            assert by_title[title].rows == []
            assert said in by_title[title].note
        text = render_text(tables)
        html = render_html(tables, "empty", recorder)
        for table in tables:
            assert table.title in text and table.title in html
            assert table.note in text
        assert "(no spans recorded)" in html
        json.dumps(report_dict(tables))


class TestWorkerCount:
    """The defect this model was built around: both old roll-ups
    counted distinct worker *pids*, and the pool forked per job.  It
    now forks once per engine, so a clean run's pids are its workers."""

    @needs_fork
    def test_pooled_two_reports_two_workers(self, reference, ref_index,
                                            pairs):
        result = traced_run(reference, ref_index, pairs,
                            ExecutionPolicy.pooled(2))
        recorder = result.recorder
        cost = worker_cost(recorder)
        tracks = {s.track for s in recorder.spans()
                  if s.category.endswith("-task")}
        assert len(tracks) == 2  # one fork set serves every round
        assert cost["workers"] == 2
        assert cost["static_envelope_seconds"] == \
            pytest.approx(2 * recorder.horizon())
        counters = recorder.metrics.as_dict()["counters"]
        assert cost["billed_seconds"] == counters["pool.paid_worker_seconds"]
        assert cost["busy_seconds"] == pytest.approx(sum(
            s.duration for s in recorder.spans()
            if s.category.endswith("-task")
        ))
        # The same number reaches all three renderings.
        tables = build_report(recorder, result.rounds.results)
        row = report_dict(tables)["Worker cost"]["rows"][0]
        assert row["workers"] == 2
        assert row["static envelope"] == cost["static_envelope_seconds"]
        envelope = format_cell(cost["static_envelope_seconds"], "s")
        assert envelope in render_text(tables)
        assert f"<td>{envelope}</td>" in render_html(tables, "t")

    def test_serial_reports_one_worker(self, reference, ref_index, pairs):
        result = traced_run(reference, ref_index, pairs,
                            ExecutionPolicy.serial())
        cost = worker_cost(result.recorder)
        assert cost["workers"] == 1
        assert cost["static_envelope_seconds"] == \
            pytest.approx(result.recorder.horizon())

    @needs_fork
    def test_scaling_pool_reports_its_true_peak(self):
        """The skewed round of ``perf-study elastic``: four maps, one a
        straggler, on a pool of four."""
        def mapper(payload, ctx):
            time.sleep(0.15 if payload.endswith("-00") else 0.01)
            ctx.emit(payload, len(payload))

        recorder = TraceRecorder()
        policy = ExecutionPolicy.pooled(max_workers=4)
        with MapReduceEngine(nodes=["n0", "n1"], policy=policy,
                             recorder=recorder) as engine:
            engine.run(JobSpec("elastic-skew", mapper),
                       make_splits([f"shard-{i:02d}" for i in range(4)]))
        cost = worker_cost(recorder)
        assert cost["workers"] == peak_concurrency(recorder)
        assert 1 <= cost["workers"] <= 4


class TestSyntheticRecorder:
    """The worker-cost section on spans and counters written by hand:
    what a live pool does is up to timing, this is not."""

    @staticmethod
    def recorder(spans, counters=()):
        recorder = TraceRecorder()
        recorder.ingest(
            Span(name, category, recorder.epoch + start,
                 recorder.epoch + end, track=track)
            for name, category, start, end, track in spans
        )
        for name, amount in counters:
            recorder.metrics.counter(name).inc(amount)
        return recorder

    #: Three tasks on three pids, never more than two at once; the
    #: second starts the instant the first ends (no overlap).
    TASKS = (("m0", "map-task", 0.0, 1.0, "pid1"),
             ("m1", "map-task", 1.0, 2.0, "pid2"),
             ("m2", "map-task", 0.5, 1.5, "pid3"))

    def test_workers_is_peak_overlap_not_tracks(self):
        cost = worker_cost(self.recorder(self.TASKS))
        assert cost["workers"] == 2
        assert cost["busy_seconds"] == pytest.approx(3.0)
        assert cost["static_envelope_seconds"] == pytest.approx(4.0)

    def test_scaling_and_chaos_columns_appear_only_when_non_zero(self):
        def cost_columns(counters):
            tables = build_report(self.recorder(self.TASKS, counters))
            [table] = [t for t in tables if t.title == "Worker cost"]
            return table, [name for name, _ in table.columns]

        _, fixed = cost_columns(())
        assert fixed == ["workers", "wall", "busy", "billed", "utilization",
                         "parallelism", "static envelope", "GB·s"]
        table, scaled = cost_columns((("pool.scale.ups", 2),
                                      ("pool.workers_retired", 1),
                                      ("pool.paid_worker_seconds", 3.5)))
        assert scaled == fixed + ["scale-ups", "scale-downs", "retired",
                                  "respawned"]
        [row] = table.records()
        assert (row["scale-ups"], row["scale-downs"], row["retired"]) == \
            (2, 0, 1)
        assert row["billed"] == 3.5
        _, chaos = cost_columns((("pool.preemptions", 1),))
        assert chaos == fixed + ["preemptions", "cold starts",
                                 "cold start charged", "backoff charged"]

    def test_zero_length_phases_have_a_zero_share(self):
        """A coarse clock can stamp every span with no duration: the
        wall is zero, and so is every share, ``unaccounted`` included."""
        recorder = self.recorder((("map", "phase", 0.0, 0.0, "pid1"),
                                  ("sort", "phase", 0.0, 0.0, "pid1")))
        tables = build_report(recorder)
        [table] = [t for t in tables if t.title == "Ledger"]
        rows = table.records()
        assert [row["layer"] for row in rows][-1] == "unaccounted"
        assert {row["share"] for row in rows} == {0.0}
        assert "0.0%" in render_text(tables)
        assert "<td>0.0%</td>" in render_html(tables, "t")
        assert {row["share"] for row in json.loads(json.dumps(
            report_dict(tables)))["Ledger"]["rows"]} == {0.0}


class TestLedger:
    """Self time per layer and round, and what no span covers."""

    @staticmethod
    def recorder(spans):
        recorder = TraceRecorder()
        recorder.ingest(
            Span(name, category, recorder.epoch + start, recorder.epoch + end,
                 track=track, depth=depth)
            for name, category, start, end, track, depth in spans
        )
        return recorder

    def test_self_time_rule_on_nested_and_overlapping_spans(self):
        # Serial: one round, one wave, two tasks back to back, phases
        # and a section nested inside; the first second holds no span.
        nested = self.recorder((
            ("pipeline:p", "pipeline", 1.0, 9.0, "driver", 0),
            ("round:r1", "round", 1.5, 8.5, "driver", 1),
            ("job:j", "job", 2.0, 8.0, "driver", 2),
            ("j:map-wave", "wave", 2.5, 7.5, "driver", 3),
            ("j-m-00000", "map-task", 3.0, 5.0, "main", 0),
            ("map", "phase", 3.25, 4.5, "main", 1),
            ("decode", "task", 3.5, 4.0, "main", 2),
            ("j-m-00001", "map-task", 5.0, 7.0, "main", 0),
            ("map", "phase", 5.0, 7.0, "main", 1),
        ))
        view = ledger(nested)
        assert view["rounds"] == ["r1"]
        totals = {layer: sum(cells.values())
                  for layer, cells in view["rows"].items()}
        assert totals == pytest.approx({
            "pipeline": 1.0, "round": 1.0, "job": 1.0, "wave": 1.0,
            "map-task": 0.75, "map": 2.75, "decode": 0.5,
        })
        assert view["rows"]["pipeline"] == {None: pytest.approx(1.0)}
        assert set(view["rows"]["decode"]) == {"r1"}
        assert view["unaccounted"] == pytest.approx(1.0)
        assert sum(totals.values()) + view["unaccounted"] == \
            pytest.approx(view["wall"]) == pytest.approx(9.0)

        # Pool-like: two tracks overlap inside one wave; the rows count
        # both tasks in full, but unaccounted is still only the time no
        # span covers (0-1 s and 3-4 s).
        pooled = self.recorder((
            ("j:map-wave", "wave", 1.0, 3.0, "driver", 0),
            ("j-m-00000", "map-task", 1.0, 2.5, "pid1", 0),
            ("j-m-00001", "map-task", 1.5, 3.0, "pid2", 0),
            ("late", "chaos", 3.5, 4.0, "driver", 0),
        ))
        view = ledger(pooled)
        assert view["rows"]["wave"] == {None: pytest.approx(0.0)}
        assert view["rows"]["map-task"] == {None: pytest.approx(3.0)}
        assert view["unaccounted"] == pytest.approx(1.5)
        tables = build_report(pooled)
        [table] = [t for t in tables if t.title == "Ledger"]
        assert table.records()[-1]["layer"] == "unaccounted"
        assert table.records()[-1]["share"] == pytest.approx(1.5 / 4.0)

    def test_the_driver_files_its_segment_read_in_the_shuffle_row(self):
        """Between the waves the driver reads every stored segment once,
        under a ``shuffle`` driver span, on the serial executor too; the
        ledger files its self time in the ``shuffle`` row, beside the
        reduce tasks' ``shuffle`` phases."""
        def mapper(line, ctx):
            for word in line.split():
                ctx.emit(word, 1)

        def reducer(word, counts, ctx):
            ctx.emit(word, sum(counts))

        recorder = TraceRecorder()
        MapReduceEngine(nodes=["n0"], recorder=recorder).run(
            JobSpec("wc", mapper, reducer, num_reducers=2),
            make_splits(["a b", "b c"]),
        )
        [read] = [span for span in recorder.spans()
                  if span.track == "driver" and span.category == "shuffle"]
        assert read.name == "wc:segment-read"
        phases = sum(span.duration for span in recorder.spans()
                     if span.category == "phase" and span.name == "shuffle")
        assert ledger(recorder)["rows"]["shuffle"][None] == \
            pytest.approx(read.duration + phases)

    def test_the_serial_ledger_closes_on_the_ci_sample(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "report.json"
        assert main(["simulate", "--out", str(data), "--length", "9000",
                     "--coverage", "8", "--seed", "3"]) == 0
        assert main(["trace", "--data", str(data), "--partitions", "5",
                     "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        wall = report["Run"]["rows"][0]["wall"]
        rows = {row["layer"]: row for row in report["Ledger"]["rows"]}
        assert {"program", "transform", "map", "decode", "encode", "spill",
                "map-task", "pipeline", "unaccounted"} <= set(rows)
        assert "stream" not in rows
        for layer in ("program", "transform", "encode"):
            assert rows[layer]["round1"] > 0.0, layer
        assert abs(sum(row["total"] for row in rows.values()) - wall) <= 1e-6
        assert 0.0 <= rows["unaccounted"]["total"] <= 0.05 * wall


class TestCliSurfaces:
    def test_chaos_report_out_keeps_its_keys(self, tmp_path, capsys):
        """The JSON CI's composed drill asserts on: same top-level keys,
        each derived from the tables the run printed; ``killed_driver``
        is ``None`` when no driver was killed."""
        data = tmp_path / "data"
        assert main(["simulate", "--out", str(data), "--length", "3000",
                     "--coverage", "6", "--seed", "3"]) == 0
        out = tmp_path / "chaos.json"
        assert main(["chaos", "--data", str(data), "--partitions", "2",
                     "--executor", "serial",
                     "--seed", "5", "--report-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"plan", "executor", "chaos_events",
                                "fault_counters", "absorption", "table8",
                                "gate", "resume", "killed_driver"}
        text = capsys.readouterr().out
        for title in ("Table 8 (serial program vs chaos run):",
                      "Chaos events applied:", "Per-round tasks:",
                      "Fault counters:"):
            assert title in text
        assert payload["resume"] is None
        assert payload["killed_driver"] is None
        assert {row["stage"] for row in payload["table8"]} == {
            "Bwa", "Mark Duplicates", "Haplotype Caller"}
        assert set(payload["table8"][0]) == {
            "stage", "d_count", "weighted_d_count", "d_impact"}
        # ``absorption`` is ``JobHistory.summary()`` per round, the data
        # the printed "Per-round tasks" table is built from.
        assert {"round1", "round2", "round3", "round4",
                "round5"} <= set(payload["absorption"])
        for row in payload["absorption"].values():
            assert {"maps", "reduces", "retried_tasks", "injected_faults",
                    "backups", "fenced_commits",
                    "queued_seconds", "run_seconds",
                    "total_attempts"} <= set(row)
            assert "timeouts" not in row
        for name, value in payload["fault_counters"].items():
            assert format_cell(value) in text and name in text

    @needs_fork
    def test_trace_json_reports_as_many_workers_as_max_workers(
        self, tmp_path, capsys
    ):
        data = tmp_path / "data"
        assert main(["simulate", "--out", str(data), "--length", "4000",
                     "--coverage", "5", "--seed", "5"]) == 0
        out = tmp_path / "report.json"
        assert main(["trace", "--data", str(data), "--partitions", "4",
                     "--executor", "pool", "--max-workers", "2",
                     "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["Worker cost"]["rows"][0]["workers"] == 2
        assert report["Run"]["rows"][0]["executor"] == "pool"
        text = capsys.readouterr().out
        for title in report:
            assert f"{title}:" in text
