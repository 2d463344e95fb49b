"""Chaos-harness tests: fault plans, hung-task handling, blacklisting,
and the acceptance scenario — a node kill plus a hung task must not
change a single byte of the five-round pipeline's output.
"""

import json
import time

import pytest

from repro.api import PipelineSpec
from repro.chaos import (
    CorruptReplica,
    DecommissionDatanode,
    DelayTask,
    FaultPlan,
    KillDatanode,
    RaiseInTask,
)
import repro.chaos
from repro.chaos import plan as plan_module
from repro.chaos.plan import ColdStart, PreemptWorker
from repro.chaos.plan import parse_event
from repro.cli import _build_parser, main
from repro.errors import MapReduceError
from repro.io.policy import RETRY_BACKOFF
from repro.mapreduce import counters as C
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.executors import fork_available
from repro.mapreduce.job import JobSpec, make_splits
from repro.mapreduce.policy import ExecutionPolicy
from repro.pipeline.parallel import GesallPipeline

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

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


class TestFaultPlan:
    def test_demo_is_deterministic(self):
        assert FaultPlan.demo(5, NODES) == FaultPlan.demo(5, NODES)
        kill = FaultPlan.demo(5, NODES).events[0]
        assert isinstance(kill, KillDatanode)
        assert kill.node in NODES

    def test_demo_needs_nodes(self):
        with pytest.raises(MapReduceError):
            FaultPlan.demo(0, [])

    def test_rejects_unknown_event_and_negative_delay(self):
        with pytest.raises(MapReduceError, match="unknown fault event"):
            FaultPlan(events=("not-an-event",))
        with pytest.raises(MapReduceError, match=">= 0"):
            FaultPlan(events=(DelayTask("t", seconds=-1.0),))

    def test_event_keying(self):
        plan = FaultPlan(events=(
            KillDatanode("n1", at_round="round3"),
            DelayTask("t-m-00000", 2.0, attempt=1),
            DelayTask("t-m-00000", 3.0, attempt=1),
            RaiseInTask("t-r-00001", attempt=2),
        ))
        assert [e.node for e in plan.storage_events("round3")] == ["n1"]
        assert plan.storage_events("round1") == []
        assert plan.delay_for("t-m-00000", 1) == 5.0
        assert plan.delay_for("t-m-00000", 2) == 0.0
        assert plan.raises_in("t-r-00001", 2)
        assert not plan.raises_in("t-r-00001", 1)

    @pytest.mark.parametrize("flag,spec", [
        ("delay", "t-m-00009:1"), ("fail", "t-r-0001"), ("zombie", "u-m-00000"),
        ("duplicate-commit", "t-x-00000"), ("preempt", "u:map:0"),
        ("cold-start", "0.1@u"), ("corrupt-segment", "u:0:0:0"),
    ])
    def test_an_event_aimed_at_no_task_or_job_is_refused(self, flag, spec):
        task_ids, jobs = {"t-m-00000", "t-r-00001"}, {"t"}
        plan = FaultPlan(events=(parse_event(spec, flag),))
        with pytest.raises(MapReduceError, match="this run does not have"):
            plan.check_addresses(task_ids, jobs)
        FaultPlan(events=(
            parse_event("t-m-00000:1", "delay"), parse_event("t:map:0", "preempt"),
            parse_event("0.1", "cold-start"), parse_event("0.1@t", "cold-start"),
            KillDatanode("n1", at_round="round9"),  # rounds: the pipeline's check
        )).check_addresses(task_ids, jobs)

    def test_plan_rides_inside_a_frozen_policy(self):
        plan = FaultPlan(events=(RaiseInTask("t", attempt=1),))
        policy = ExecutionPolicy(fault_plan=plan, task_retries=1)
        assert policy.fault_plan is plan
        assert hash(plan) == hash(FaultPlan(events=(RaiseInTask("t"),)))

    def test_as_dicts_and_describe(self):
        plan = FaultPlan.demo(5, NODES)
        kinds = [e["kind"] for e in plan.as_dicts()]
        assert kinds == ["kill_datanode", "delay_task"]
        assert "kill_datanode" in plan.describe()


class TestParseEvent:
    def test_all_kinds_round_trip(self):
        assert parse_event("n1@round3", "kill") == \
            KillDatanode("n1", at_round="round3")
        assert parse_event("n2@round2", "decommission") == \
            DecommissionDatanode("n2", at_round="round2")
        assert parse_event("/f@round2:1:1", "corrupt") == CorruptReplica(
            "/f", at_round="round2", block_index=1, replica_index=1
        )
        assert parse_event("/f@round2", "corrupt") == \
            CorruptReplica("/f", at_round="round2")
        assert parse_event("round4-sort-m-00000:30.5@2", "delay") == \
            DelayTask("round4-sort-m-00000", 30.5, attempt=2)
        assert parse_event("t-m-00000:1.5", "delay") == \
            DelayTask("t-m-00000", 1.5, attempt=1)
        assert parse_event("t-r-00001@3", "fail") == \
            RaiseInTask("t-r-00001", attempt=3)
        assert parse_event("t-r-00001", "fail") == RaiseInTask("t-r-00001")
        assert parse_event("round2-cleaning:reduce:1", "preempt") == \
            PreemptWorker("round2-cleaning", wave="reduce", task=1)
        assert parse_event("round1-alignment", "preempt") == \
            PreemptWorker("round1-alignment", wave="map", task=0)
        assert parse_event("0.25@round4-sort", "cold-start") == \
            ColdStart(0.25, job="round4-sort")
        assert parse_event("0.25", "cold-start") == ColdStart(0.25)

    def test_bad_specs_raise(self):
        with pytest.raises(MapReduceError, match="bad --kill"):
            parse_event("no-round-marker", "kill")
        with pytest.raises(MapReduceError, match="bad --delay"):
            parse_event("task-without-seconds", "delay")
        with pytest.raises(MapReduceError, match="unknown event kind"):
            parse_event("x", "meteor")

    def test_bad_specs_name_field_and_grammar(self):
        """Malformed specs must name the bad field and quote the
        accepted grammar, not dump a traceback."""
        with pytest.raises(
            MapReduceError,
            match=r"WAVE must be 'map' or 'reduce'.*"
                  r"expected --preempt JOB\[:WAVE\[:TASK\]\]",
        ):
            parse_event("round1-alignment:sideways", "preempt")
        with pytest.raises(
            MapReduceError,
            match=r"TASK must be an integer, got 'two'.*--preempt",
        ):
            parse_event("round1-alignment:map:two", "preempt")
        with pytest.raises(
            MapReduceError,
            match=r"SECONDS must be a number, got 'slow'.*"
                  r"expected --cold-start SECONDS\[@JOB\]",
        ):
            parse_event("slow", "cold-start")
        with pytest.raises(
            MapReduceError,
            match=r"SECONDS must be a number.*--delay TASK:SECONDS",
        ):
            parse_event("t-m-00000:abc", "delay")
        with pytest.raises(
            MapReduceError,
            match=r"missing '@ROUND'.*--kill NODE@ROUND",
        ):
            parse_event("node01", "kill")
        with pytest.raises(
            MapReduceError,
            match=r"BLOCK must be an integer.*--corrupt PATH@ROUND",
        ):
            parse_event("/f@round2:x", "corrupt")


#: One worked ``--<flag> SPEC`` per declared event, with the event it
#: must parse to.  ``test_every_declared_event_has_an_example`` keeps
#: this in step with the table.
EVENT_EXAMPLES = {
    "kill": ("n1@round3", plan_module.KillDatanode("n1", "round3")),
    "decommission": (
        "n2@round2", plan_module.DecommissionDatanode("n2", "round2")),
    "corrupt": (
        "/round1/part-00000.bam@round2:1:2",
        plan_module.CorruptReplica("/round1/part-00000.bam", "round2", 1, 2)),
    "corrupt-segment": (
        "round2-cleaning:1:2:0",
        plan_module.CorruptSegment("round2-cleaning", 1, 2, 0)),
    "delay": (
        "round4-sort-m-00000:60@2",
        plan_module.DelayTask("round4-sort-m-00000", 60.0, attempt=2)),
    "fail": ("t-r-00001@3", plan_module.RaiseInTask("t-r-00001", 3)),
    "zombie": ("t-m-00000@2", plan_module.ZombieAttempt("t-m-00000", 2)),
    "duplicate-commit": (
        "t-r-00001", plan_module.DuplicateCommit("t-r-00001")),
    "preempt": (
        "round2-cleaning:reduce:1",
        plan_module.PreemptWorker("round2-cleaning", "reduce", 1)),
    "cold-start": (
        "0.25@round4-sort", plan_module.ColdStart(0.25, "round4-sort")),
    "kill-driver": ("round2:3", plan_module.KillDriver("round2", 3)),
    "kill-server": ("4", plan_module.KillServer(4)),
    "torn-write": ("*wal*@13", plan_module.TornWrite("*wal*", 13)),
    "enospc": ("4096@*spill*", plan_module.Enospc(4096, "*spill*")),
    "eio": ("WRITE:3", plan_module.Eio("write", 3)),
    "slow-io": ("0.25@*queue*", plan_module.SlowIo(0.25, "*queue*")),
}


def _subparser(name):
    parser = _build_parser()
    return parser._subparsers._group_actions[0].choices[name]


class TestEventTableConformance:
    """Everything said about an event is derived from its declaration."""

    def test_every_declared_event_has_an_example(self):
        flags = [event.flag for event in plan_module.EVENT_TYPES]
        assert len(flags) == len(set(flags)) == 16
        assert sorted(flags) == sorted(EVENT_EXAMPLES)
        assert plan_module.EVENT_GRAMMARS == {
            event.flag: event.grammar for event in plan_module.EVENT_TYPES
        }

    @pytest.mark.parametrize(
        "event", plan_module.EVENT_TYPES, ids=lambda event: event.flag
    )
    def test_event_is_declared_once_and_derived_everywhere(self, event):
        spec, expected = EVENT_EXAMPLES[event.flag]
        assert type(expected) is event
        # The CLI flag exists where it belongs, spelled by the grammar
        # and documented by the class docstring.
        command = "serve" if event.plane == "server" else "chaos"
        action = _subparser(command)._option_string_actions[f"--{event.flag}"]
        assert action.metavar == event.grammar
        assert event.__doc__.strip().splitlines()[0].rstrip(".") in action.help
        other = _subparser("chaos" if command == "serve" else "serve")
        assert f"--{event.flag}" not in other._option_string_actions
        # The worked example round-trips; a plan accepts the event; the
        # package exports the class; its plane tuple holds it.
        assert parse_event(spec, event.flag) == expected
        assert FaultPlan(events=(expected,)).events == (expected,)
        assert getattr(repro.chaos, event.__name__) is event
        assert event.__name__ in repro.chaos.__all__
        plane = getattr(plan_module, f"{event.plane.upper()}_EVENT_TYPES")
        assert event in plane
        # Pool-plane events inject nothing off the pool: still refused.
        plan = FaultPlan(events=(expected,))
        if event.plane == "pool":
            with pytest.raises(MapReduceError, match="targets pool"):
                ExecutionPolicy(executor="serial", fault_plan=plan)
        else:
            ExecutionPolicy(executor="serial", fault_plan=plan)

    def test_chaos_takes_exactly_the_fifteen_event_flags(self):
        chaos = _subparser("chaos")
        execution = {
            "--executor", "--max-workers", "--task-retries",
            "--shuffle-codec", "--partitions", "--spill-dir",
        }
        own = {"-h", "--help", "--data", "--seed", "--task-timeout",
               "--checkpoint-dir", "--trace-out", "--report-out"}
        flags = set(chaos._option_string_actions) - execution - own
        assert flags == {f"--{flag}" for flag in EVENT_EXAMPLES} - {
            "--kill-server"
        }

    def test_serve_kill_server_parses_through_the_table(self, capsys):
        code = main(["serve", "--state-dir", "unused", "--socket", "unused",
                     "--kill-server", "soon"])
        assert code == 2
        err = capsys.readouterr().err
        assert "STARTS must be an integer, got 'soon'" in err
        assert "expected --kill-server STARTS" in err


class TestPolicyKnobs:
    def test_rejects_bad_timeout_and_blacklist(self):
        with pytest.raises(MapReduceError):
            ExecutionPolicy(task_timeout=0)
        with pytest.raises(MapReduceError):
            ExecutionPolicy(task_timeout=-1.0)
        with pytest.raises(MapReduceError):
            ExecutionPolicy(blacklist_after=0)

    @pytest.mark.parametrize("field", ["task_timeout", "lease_seconds"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_a_non_finite_limit_is_refused(self, field, value):
        """A NaN or infinite limit is never exceeded: detection would be off."""
        with pytest.raises(MapReduceError, match=f"{field} must be None or finite"):
            ExecutionPolicy(**{field: value})
        assert getattr(ExecutionPolicy(**{field: 1}), field) == 1

    def test_backoff_is_charged_not_slept(self):
        """Retry backoff is recorded in the accounting, never slept — a
        retry storm cannot stall the wall clock."""
        from repro.obs.recorder import TraceRecorder

        policy = ExecutionPolicy(
            task_retries=1,
            fault_plan=FaultPlan(events=(RaiseInTask("wc-m-00000"),)),
        )
        recorder = TraceRecorder()
        MapReduceEngine(
            nodes=["n1"], policy=policy, recorder=recorder
        ).run(wordcount_job(), make_splits(LINES))
        counters = recorder.metrics.as_dict()["counters"]
        assert counters["engine.backoff_charged_seconds"] == \
            pytest.approx(RETRY_BACKOFF)


class TestHungTasks:
    def test_hung_task_times_out_and_retries_on_another_node(self):
        from repro.obs.recorder import TraceRecorder

        plan = FaultPlan(events=(
            DelayTask("wc-m-00000", seconds=30.0, attempt=1),
        ))
        policy = ExecutionPolicy(
            task_retries=2, task_timeout=5.0, fault_plan=plan,
        )
        recorder, started = TraceRecorder(), time.perf_counter()
        result = MapReduceEngine(
            nodes=["n1", "n2"], policy=policy, recorder=recorder
        ).run(wordcount_job(), make_splits(LINES))
        assert time.perf_counter() - started < 30.0  # charged, not slept
        clean = MapReduceEngine(nodes=["n1", "n2"]).run(
            wordcount_job(), make_splits(LINES)
        )
        assert result.all_outputs() == clean.all_outputs()
        assert result.counters.get(C.TASK_TIMEOUTS) == 1
        assert result.counters.get(C.INJECTED_DELAYS) == 1
        task = result.history.find("wc-m-00000")
        assert task.attempts == 2
        assert task.timeouts == 1
        assert task.node == "n2"  # first attempt ran (and hung) on n1
        counters = recorder.metrics.as_dict()["counters"]
        assert counters["chaos.delays_injected"] == 1

    def test_timeout_exhausts_retries(self):
        plan = FaultPlan(events=(
            DelayTask("wc-m-00000", 30.0, attempt=1),
            DelayTask("wc-m-00000", 30.0, attempt=2),
        ))
        policy = ExecutionPolicy(
            task_retries=1, task_timeout=5.0,
            fault_plan=plan,
        )
        with pytest.raises(MapReduceError, match="after 2 attempt"):
            MapReduceEngine(nodes=["n1", "n2"], policy=policy).run(
                wordcount_job(), make_splits(LINES)
            )

    def test_injected_raise_is_absorbed_by_retry(self):
        plan = FaultPlan(events=(RaiseInTask("wc-m-00001", attempt=1),))
        policy = ExecutionPolicy(
            task_retries=2, fault_plan=plan,
        )
        result = MapReduceEngine(nodes=["n1", "n2"], policy=policy).run(
            wordcount_job(), make_splits(LINES)
        )
        clean = MapReduceEngine(nodes=["n1", "n2"]).run(
            wordcount_job(), make_splits(LINES)
        )
        assert result.all_outputs() == clean.all_outputs()
        task = result.history.find("wc-m-00001")
        assert task.attempts == 2
        assert task.injected_faults == 1

    @pytest.mark.parametrize(
        "kind", ["serial", pytest.param("pool", marks=needs_fork)]
    )
    def test_plan_faults_identical_across_executors(self, kind):
        plan = FaultPlan(events=(
            DelayTask("wc-m-00000", 30.0, attempt=1),
            RaiseInTask("wc-m-00002", attempt=1),
        ))
        clean = MapReduceEngine(nodes=["n1", "n2"]).run(
            wordcount_job(), make_splits(LINES)
        )
        policy = ExecutionPolicy(
            executor=kind, max_workers=2, task_retries=3,
            task_timeout=5.0, fault_plan=plan,
        )
        result = MapReduceEngine(nodes=["n1", "n2"], policy=policy).run(
            wordcount_job(), make_splits(LINES)
        )
        assert result.all_outputs() == clean.all_outputs()
        assert result.counters.get(C.TASK_TIMEOUTS) == 1
        assert result.counters.get(C.INJECTED_FAULTS) == 1


class TestBlacklist:
    def test_failing_node_is_blacklisted_and_avoided(self):
        plan = FaultPlan(events=(RaiseInTask("wc-m-00000", attempt=1),))
        policy = ExecutionPolicy(
            task_retries=2, blacklist_after=1,
            fault_plan=plan,
        )
        engine = MapReduceEngine(nodes=["n1", "n2"], policy=policy)
        result = engine.run(wordcount_job(), make_splits(LINES))
        # The fault fired on the first candidate node of map task 0.
        assert engine.blacklisted_nodes == {"n1"}
        events = result.history.events_of("node_blacklisted")
        assert len(events) == 1
        assert events[0]["node"] == "n1"
        assert events[0]["failures"] == 1
        # The reduce wave, scheduled after the blacklisting, avoids n1.
        assert {t.node for t in result.history.reduces()} == {"n2"}

    def test_blacklist_persists_across_jobs_on_the_same_engine(self):
        plan = FaultPlan(events=(RaiseInTask("first-m-00000", attempt=1),))
        policy = ExecutionPolicy(
            task_retries=2, blacklist_after=1,
            fault_plan=plan,
        )
        engine = MapReduceEngine(nodes=["n1", "n2"], policy=policy)
        engine.run(wordcount_job("first"), make_splits(LINES))
        assert engine.blacklisted_nodes == {"n1"}
        second = engine.run(wordcount_job("second"), make_splits(LINES))
        assert {t.node for t in second.history.tasks} == {"n2"}

    def test_fully_blacklisted_cluster_still_schedules(self):
        """A cluster that refuses all work is worse than one that
        schedules onto suspect nodes — blacklisting every node falls
        back to the full node list."""
        plan = FaultPlan(events=(RaiseInTask("wc-m-00000", attempt=1),))
        policy = ExecutionPolicy(
            task_retries=2, blacklist_after=1,
            fault_plan=plan,
        )
        engine = MapReduceEngine(nodes=["n1"], policy=policy)
        engine.run(wordcount_job(), make_splits(LINES))
        assert engine.blacklisted_nodes == {"n1"}
        second = engine.run(wordcount_job("again"), make_splits(LINES))
        assert {t.node for t in second.history.tasks} == {"n1"}


def run_pipeline(reference, ref_index, pairs, policy):
    """Full five-round run; returns (result, comparable fingerprint)."""
    result = GesallPipeline(PipelineSpec(
        reference, index=ref_index, nodes=NODES,
        num_fastq_partitions=4, num_reducers=3, policy=policy,
    )).run(pairs)
    files = {f.path: result.hdfs.get(f.path) for f in result.hdfs.files()}
    variants = [v.to_line() for v in result.variants]
    return result, (files, variants)


class TestChaosAcceptance:
    """The ISSUE's acceptance scenario: kill a datanode when round 3
    starts and hang one round-4 task past its timeout — the pipeline
    must finish with output identical to a clean run, under every
    executor."""

    @pytest.fixture(scope="class")
    def clean_run(self, reference, ref_index, pairs):
        _, fingerprint = run_pipeline(
            reference, ref_index, pairs, ExecutionPolicy.serial()
        )
        return fingerprint

    @pytest.mark.parametrize(
        "kind,max_workers",
        [
            ("serial", 1),
            pytest.param("pool", 2, marks=needs_fork),
        ],
    )
    def test_kill_plus_hung_task_changes_nothing(
        self, reference, ref_index, pairs, clean_run, kind, max_workers
    ):
        plan = FaultPlan.demo(seed=5, nodes=NODES)
        policy = ExecutionPolicy(
            executor=kind, max_workers=max_workers, task_retries=3,
            task_timeout=30.0, fault_plan=plan,
        )
        result, fingerprint = run_pipeline(
            reference, ref_index, pairs, policy
        )
        assert fingerprint == clean_run
        # The kill fired at the round-3 boundary and lost no blocks.
        kills = [
            e for e in result.chaos_events if e["kind"] == "kill_datanode"
        ]
        assert len(kills) == 1
        assert kills[0]["round"] == "round3"
        assert kills[0]["lost"] == 0
        # The hung round-4 task timed out once and was retried.
        summary = result.rounds.results["round4"].history.summary()
        assert summary["timeouts"] == 1
        assert summary["retried_tasks"] == 1


def test_chaos_cli_gate_passes(tmp_path, capsys):
    data = tmp_path / "sample"
    assert main([
        "simulate", "--out", str(data), "--length", "3000",
        "--coverage", "6", "--seed", "3",
    ]) == 0
    trace = tmp_path / "chaos-trace.json"
    report = tmp_path / "chaos-report.json"
    rc = main([
        "chaos", "--data", str(data), "--partitions", "2",
        "--executor", "pool", "--max-workers", "2", "--seed", "5",
        "--trace-out", str(trace), "--report-out", str(report),
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "GATE PASSED" in out
    payload = json.loads(report.read_text())
    assert payload["gate"]["equivalent"] is True
    assert payload["gate"]["weighted_d_count"] == 0
    assert payload["plan"]["events"][0]["kind"] == "kill_datanode"
    assert any(
        name.startswith("chaos.") for name in payload["fault_counters"]
    )
    assert json.loads(trace.read_text())["traceEvents"]
