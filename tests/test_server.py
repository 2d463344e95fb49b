"""Tests for the multi-tenant job service (``repro.server``).

The acceptance drill lives in :class:`TestKillResume`: two tenants
with weights 2:1 submitting jobs see a pinned deterministic
fair-share interleaving, an over-quota submission is a typed
rejection, and a server killed mid-queue resumes with no job lost or
duplicated — byte-identical results and identical dispatch order vs
an uninterrupted run.
"""

import base64
import json
import os
import pickle
import select
import socket
import tempfile
import threading
import time
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.plan import FaultPlan, KillServer, parse_event
from repro.errors import (
    AdmissionError,
    JobNotFoundError,
    MapReduceError,
    ServerError,
    ServerKilledError,
)
from repro.pipeline.checkpoint import LocalDirectoryBackend
from repro.pipeline.wal import FrameLog, _read_frames
from repro.server import (
    AdmissionController,
    DurableJobQueue,
    FairShareScheduler,
    JobServer,
    ServerConfig,
    TenantPolicy,
)
from repro.server.protocol import (
    build_runnable,
    wordcount_payload,
    wordcount_reduce,
)
from repro.server.queue import QueuedJob

needs_af_unix = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="unix sockets unavailable"
)

LINES = [
    "the quick brown fox",
    "jumps over the lazy dog",
    "the dog barks twice",
]

WEIGHTED = (
    TenantPolicy("a", weight=2.0),
    TenantPolicy("b", weight=1.0),
)


def make_server(state_dir, plan=None, hold=True, slots=1, tenants=WEIGHTED,
                **kwargs):
    server = JobServer(ServerConfig(
        state_dir=state_dir, total_slots=slots, tenants=tenants,
        hold=hold, fault_plan=plan, **kwargs,
    ))
    server.open()
    return server


def submit_batch(server, per_tenant=6):
    for index in range(per_tenant):
        for tenant in ("a", "b"):
            server.submit(
                tenant, wordcount_payload(LINES),
                job_id=f"{tenant}{index}",
            )


def dispatch_order(server):
    jobs = server.jobs_snapshot()["jobs"]
    started = [j for j in jobs if j["start_seq"]]
    return [j["job_id"] for j in sorted(started,
                                        key=lambda j: j["start_seq"])]


class TestFrameLog:
    def test_reset_append_replay(self, tmp_path):
        backend = LocalDirectoryBackend(str(tmp_path))
        log = FrameLog(backend, "q.log", "fp")
        log.reset()
        log.append({"n": 1})
        log.append({"n": 2})
        assert FrameLog(backend, "q.log", "fp").replay() == [
            {"n": 1}, {"n": 2}
        ]

    def test_foreign_fingerprint_replays_empty(self, tmp_path):
        backend = LocalDirectoryBackend(str(tmp_path))
        log = FrameLog(backend, "q.log", "fp")
        log.reset()
        log.append({"n": 1})
        assert FrameLog(backend, "q.log", "other").replay() == []

    def test_torn_tail_tolerated(self, tmp_path):
        backend = LocalDirectoryBackend(str(tmp_path))
        log = FrameLog(backend, "q.log", "fp")
        log.reset()
        log.append({"n": 1})
        backend.append("q.log", b"\x00\x00\x01\xffgarbage")
        assert log.replay() == [{"n": 1}]

    def test_missing_log_replays_empty(self, tmp_path):
        backend = LocalDirectoryBackend(str(tmp_path))
        assert FrameLog(backend, "absent.log", "fp").replay() == []


#: ``queue.log`` as commit 56f2c2a (WAL_VERSION 2) left it after one
#: wordcount job ran to completion: header, submit, start, done.
#: zlib + base64 of the 612 raw bytes.
PARENT_QUEUE_LOG_V2 = (
    "eNplkKtOA0EUhpdeKReFADkS06ZYEAhCEAWFIyFkunNapt3ObOdCKQlJFWrk8BYkOJ4ADI"
    "LwGggCAoXizO6Khq46c+acf/b7oig6fP59JbPq/W6Uf7d+29WvQGkuhe+U3GqPiz6oVHFh"
    "vNtSkCrZHMiuBoVTzbEFC82rHW9buPwzXT95wbCPubDKkAvmXU3b7ohjRA2XLzh2SrSNJw"
    "OChuQl6l09pdNEUuazPTNNwbvGRCoWSxtmqgkXoP053m6YSyBjy+Mh6So5EaQnr73bHNhR"
    "qonEPyNhIKE3U8Jk3+fzWJEuVUNNzITH4MGtpFQZbpBVB9hlBczGCI8H6yqx1MYf7X/nMK"
    "7GYESRpbPkVnKaCw1jPGbse28Pgy9kby+yV7XBZ/6jN7LufMT7bunsEyNeFiMqTApYkKdA"
    "28T4gxku2WIp2KlmlBh7h49nfvK6HFx0SqEKvvL7zFleV4KwogwSi4nMc5GAHn2nHLq5w9"
    "CFlndrKeUMYWIpmEZpp49Px7Mosq0/QhDcPw=="
)


class TestDurableJobQueue:
    def _queue(self, tmp_path):
        return DurableJobQueue(LocalDirectoryBackend(str(tmp_path)))

    def test_submit_and_terminal_states_survive_reopen(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.open()
        job = queue.submit("j1", "a", {"type": "x"}, 1.0, 1)
        queue.mark_started(job)
        queue.mark_done(job, pickle.dumps([1, 2]), 0.5)
        job2 = queue.submit("j2", "a", {"type": "x"}, 1.0, 1)
        queue.mark_started(job2)
        queue.mark_failed(job2, "boom")

        reopened = self._queue(tmp_path)
        assert reopened.open() == []
        assert reopened.get("j1").state == "done"
        assert pickle.loads(reopened.get("j1").result_blob) == [1, 2]
        assert reopened.get("j2").state == "failed"
        assert reopened.get("j2").error == "boom"

    def test_inflight_job_readmitted_as_pending(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.open()
        job = queue.submit("j1", "a", {"type": "x"}, 2.0, 1)
        queue.mark_started(job)

        reopened = self._queue(tmp_path)
        readmitted = reopened.open()
        assert [j.job_id for j in readmitted] == ["j1"]
        back = reopened.get("j1")
        assert back.state == "pending"
        assert back.resubmitted
        assert back.start_seq == 0
        assert back.cost == 2.0

    def test_compaction_heals_torn_tail(self, tmp_path):
        backend = LocalDirectoryBackend(str(tmp_path))
        queue = DurableJobQueue(backend)
        queue.open()
        queue.submit("j1", "a", {"type": "x"}, 1.0, 1)
        backend.append("queue.log", b"torn-frame-bytes")

        reopened = DurableJobQueue(backend)
        reopened.open()
        # Appends after the (healed) recovery must be replayable.
        reopened.submit("j2", "a", {"type": "x"}, 1.0, 1)
        third = DurableJobQueue(backend)
        third.open()
        assert sorted(third.jobs) == ["j1", "j2"]

    def test_version_2_queue_log_replays_empty(self, tmp_path):
        """The queue journal rides the ``FrameLog`` header, so the WAL
        version bump turns a parent-written ``queue.log`` away too:
        nothing is re-admitted and the log is usable afterwards."""
        backend = LocalDirectoryBackend(str(tmp_path))
        old = zlib.decompress(base64.b64decode(PARENT_QUEUE_LOG_V2))
        header, *records = map(pickle.loads, _read_frames(old))
        assert header == {
            "version": 2, "fingerprint": "repro-jobserver-queue-v1",
        }
        assert [r["kind"] for r in records] == ["submit", "start", "done"]
        backend.write("queue.log", old)
        queue = DurableJobQueue(backend)
        assert queue.open() == []
        assert queue.jobs == {}
        queue.submit("j1", "a", {"type": "x"}, 1.0, 1)
        reopened = DurableJobQueue(backend)
        reopened.open()
        assert list(reopened.jobs) == ["j1"]

    def test_duplicate_job_id_rejected(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.open()
        queue.submit("j1", "a", {"type": "x"}, 1.0, 1)
        with pytest.raises(ServerError, match="duplicate job id"):
            queue.submit("j1", "b", {"type": "x"}, 1.0, 1)

    def test_unknown_job_id(self, tmp_path):
        queue = self._queue(tmp_path)
        queue.open()
        with pytest.raises(JobNotFoundError):
            queue.get("nope")


class TestTenantPolicy:
    def test_bad_name_rejected(self):
        with pytest.raises(ServerError, match="bad tenant name"):
            TenantPolicy(name="a.b")

    def test_bad_weight_rejected(self):
        with pytest.raises(ServerError, match="weight must be > 0"):
            TenantPolicy(name="a", weight=0.0)


class TestAdmission:
    def test_queued_jobs_quota(self):
        control = AdmissionController((TenantPolicy("a", max_queued=2),))
        control.check_submit("a", 1.0, {"a": 1}, {}, 1)
        with pytest.raises(AdmissionError) as excinfo:
            control.check_submit("a", 1.0, {"a": 2}, {}, 2)
        exc = excinfo.value
        assert exc.tenant == "a"
        assert exc.reason == "queued_jobs"
        assert exc.limit == 2
        assert exc.observed == 3

    def test_cost_units_quota_counts_committed_cost(self):
        control = AdmissionController(
            (TenantPolicy("a", max_cost_units=5.0),)
        )
        control.check_submit("a", 2.0, {}, {"a": 3.0}, 0)
        with pytest.raises(AdmissionError) as excinfo:
            control.check_submit("a", 2.5, {}, {"a": 3.0}, 0)
        assert excinfo.value.reason == "cost_units"

    def test_total_backstop(self):
        control = AdmissionController(max_queued_total=1)
        with pytest.raises(AdmissionError) as excinfo:
            control.check_submit("a", 1.0, {}, {}, 1)
        assert excinfo.value.reason == "total_queued"

    def test_unknown_tenant_minted_from_default(self):
        control = AdmissionController(
            default=TenantPolicy("default", max_queued=1)
        )
        policy = control.policy("newcomer")
        assert policy.name == "newcomer"
        assert policy.max_queued == 1

    def test_bad_tenant_name_is_admission_error(self):
        control = AdmissionController()
        with pytest.raises(AdmissionError) as excinfo:
            control.check_submit("no/slash", 1.0, {}, {}, 0)
        assert excinfo.value.reason == "bad_tenant"


class TestFairShareScheduler:
    def _job(self, job_id, tenant, cost=1.0, demand=1, seq=0):
        return QueuedJob(job_id, tenant, {}, cost, demand, seq)

    def test_min_share_beats_weighted_share(self):
        control = AdmissionController((
            TenantPolicy("a", weight=1.0),
            TenantPolicy("b", weight=1.0, min_share=1),
        ))
        sched = FairShareScheduler(4, control)
        sched.charged["a"] = 0.0
        sched.charged["b"] = 100.0
        pending = {"a": [self._job("a0", "a")], "b": [self._job("b0", "b")]}
        assert sched.pick(pending).job_id == "b0"

    def test_demand_too_large_skipped(self):
        control = AdmissionController()
        sched = FairShareScheduler(2, control)
        pending = {
            "a": [self._job("a0", "a", demand=3)],
            "b": [self._job("b0", "b", demand=1)],
        }
        assert sched.pick(pending).job_id == "b0"

    def test_ties_break_lexicographically(self):
        control = AdmissionController()
        sched = FairShareScheduler(2, control)
        pending = {"z": [self._job("z0", "z")], "m": [self._job("m0", "m")]}
        assert sched.pick(pending).job_id == "m0"


class TestFairShareInterleaving:
    def test_pinned_2_to_1_dispatch_order(self, tmp_path):
        """Weights 2:1, six jobs each, one slot: the dispatch sequence
        is pinned — charge-at-dispatch makes it independent of job
        runtimes and thread timing."""
        server = make_server(str(tmp_path))
        submit_batch(server, per_tenant=6)
        server.start_dispatch()
        server.drain()
        server.close()
        order = dispatch_order(server)
        tenants = [job_id[0] for job_id in order]
        assert tenants == list("abaabaababbb")
        # FIFO within each tenant.
        assert [j for j in order if j.startswith("a")] == [
            f"a{i}" for i in range(6)
        ]
        assert [j for j in order if j.startswith("b")] == [
            f"b{i}" for i in range(6)
        ]

    def test_results_and_counters(self, tmp_path):
        server = make_server(str(tmp_path))
        submit_batch(server, per_tenant=2)
        server.start_dispatch()
        server.drain()
        server.close()
        expected = sorted([
            ("barks", 1), ("brown", 1), ("dog", 2), ("fox", 1),
            ("jumps", 1), ("lazy", 1), ("over", 1), ("quick", 1),
            ("the", 3), ("twice", 1),
        ])
        assert server.result("a0") == expected
        counters = server.counters()
        assert counters["server.admitted"] == 4
        assert counters["server.completed"] == 4
        assert counters["server.tenant.a.paid_worker_seconds"] > 0
        assert counters["server.tenant.b.completed"] == 2


class TestAdmissionInServer:
    def test_over_quota_is_typed_not_queued(self, tmp_path):
        server = make_server(
            str(tmp_path),
            tenants=(TenantPolicy("a", max_cost_units=3.0),),
        )
        for _ in range(3):
            server.submit("a", wordcount_payload(LINES))
        with pytest.raises(AdmissionError) as excinfo:
            server.submit("a", wordcount_payload(LINES))
        server.close()
        exc = excinfo.value
        assert (exc.reason, exc.limit, exc.observed) == (
            "cost_units", 3.0, 4.0
        )
        assert server.counters()["server.rejected"] == 1
        assert server.counters()["server.tenant.a.rejected"] == 1
        assert len(server.jobs_snapshot()["jobs"]) == 3

    @pytest.mark.parametrize("cost", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_a_non_finite_cost_is_refused_and_the_budget_holds(
        self, tmp_path, cost
    ):
        """A NaN cost passed ``cost <= 0`` and made the committed sum
        NaN, so ``committed + cost > budget`` never tripped again, even
        after a restart replayed the journal."""
        tenants = (TenantPolicy("a", max_cost_units=3.0),)
        server = make_server(str(tmp_path), tenants=tenants)
        with pytest.raises(AdmissionError) as excinfo:
            server.submit("a", wordcount_payload(LINES), cost=cost)
        assert excinfo.value.reason == "bad_cost"
        for _ in range(3):
            server.submit("a", wordcount_payload(LINES))
        server.close()
        reopened = make_server(str(tmp_path), tenants=tenants)
        with pytest.raises(AdmissionError) as excinfo:
            reopened.submit("a", wordcount_payload(LINES))
        reopened.close()
        assert excinfo.value.reason == "cost_units"
        assert len(reopened.jobs_snapshot()["jobs"]) == 3

    @pytest.mark.parametrize("field", ["weight", "max_cost_units"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_a_non_finite_policy_is_refused(self, field, value):
        with pytest.raises(ServerError, match=f"{field} must be > 0"):
            TenantPolicy("a", **{field: value})

    def test_the_daemon_refuses_a_json_nan_cost(self, tmp_path):
        from repro.server.daemon import JobServerDaemon

        server = make_server(str(tmp_path))
        daemon = JobServerDaemon(server, str(tmp_path / "unbound.sock"))
        request = json.loads(
            '{"op": "submit", "tenant": "a", "cost": NaN, "payload": '
            + json.dumps(wordcount_payload(LINES)) + "}"
        )
        reply = daemon.handle(request)
        server.close()
        assert reply["error"]["type"] == "AdmissionError"
        assert reply["error"]["reason"] == "bad_cost"
        assert server.queue.jobs == {}

    @pytest.mark.parametrize("flags", [
        ["--tenant", "a:nan"], ["--tenant", "a:inf"],
        ["--tenant-budget", "nan"],
    ], ids=["weight-nan", "weight-inf", "budget-nan"])
    def test_serve_refuses_a_non_finite_policy(self, tmp_path, capsys, flags):
        from repro.cli import main

        code = main(["serve", "--state-dir", str(tmp_path / "state"),
                     "--socket", str(tmp_path / "s.sock"), *flags])
        assert code == 2
        assert "must be > 0 and finite" in capsys.readouterr().err

    def test_bad_payload_rejected_at_submit(self, tmp_path):
        server = make_server(str(tmp_path))
        with pytest.raises(ServerError, match="non-empty 'lines'"):
            server.submit("a", {"type": "wordcount", "lines": []})
        # No payload type carries code: a pickled spec is just unknown.
        with pytest.raises(ServerError, match="unknown job payload type"):
            server.submit("a", {"type": "pickled", "spec": "", "splits": ""})
        server.close()

    @pytest.mark.parametrize(
        "job_id", ["/../../../escape", 7, "a0\n"], ids=["traversal", "int", "newline"]
    )
    def test_job_id_outside_the_tenant_rule_rejected(self, tmp_path, job_id):
        # A pipeline job checkpoints at <state_dir>/ckpt-<job_id>; this
        # id would put that three levels up, at tmp_path/escape.
        state_dir = tmp_path / "srv" / "state"
        server = make_server(str(state_dir), hold=False)
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(ServerError, match="job id"):
            server.submit("a", {"type": "pipeline", "data": str(tmp_path)},
                          job_id=job_id)
        server.close()
        assert server.queue.jobs == {}
        assert sorted(os.listdir(tmp_path)) == before
        reopened = make_server(str(state_dir))
        assert reopened.queue.jobs == {}
        reopened.close()

    @pytest.mark.parametrize("kind", ["wordcount", "pipeline"])
    @pytest.mark.parametrize("field", ["partitions", "reducers"])
    @pytest.mark.parametrize("value", [0, -3, 2.7, True, "x"],
                             ids=["zero", "negative", "float", "bool", "str"])
    def test_a_count_that_is_no_positive_int_is_refused(
        self, tmp_path, kind, field, value
    ):
        payload = {"type": kind, "lines": LINES, "data": str(tmp_path),
                   field: value}
        server = make_server(str(tmp_path / "state"))
        with pytest.raises(ServerError, match=f"'{field}' must be an integer"):
            server.submit("a", payload)
        assert server.queue.jobs == {}
        server.submit("a", {**payload, field: 1})
        server.close()

    @pytest.mark.parametrize("lines", [[1, 2], ["a", None], "a b"],
                             ids=["ints", "none", "str"])
    def test_wordcount_lines_must_be_strings(self, tmp_path, lines):
        server = make_server(str(tmp_path))
        with pytest.raises(ServerError, match="'lines' list of strings"):
            server.submit("a", {"type": "wordcount", "lines": lines})
        server.submit("a", {"type": "wordcount", "lines": ["a"]})
        server.close()

    @pytest.mark.parametrize("demand", [0, 1.5, True, "1"],
                             ids=["zero", "float", "bool", "str"])
    def test_a_demand_that_is_no_slot_count_is_refused(self, tmp_path, demand):
        server = make_server(str(tmp_path), slots=2)
        with pytest.raises(ServerError, match="slot budget"):
            server.submit("a", wordcount_payload(LINES), demand=demand)
        assert server.queue.jobs == {}
        assert server.submit("a", wordcount_payload(LINES), demand=1).demand == 1
        server.close()

    @pytest.mark.parametrize("request_fields", [
        {"demand": 1.5}, {"demand": True},
        {"payload": {"type": "wordcount", "lines": ["a"], "partitions": 0}},
        {"payload": {"type": "wordcount", "lines": ["a"], "reducers": 0}},
        {"payload": {"type": "wordcount", "lines": [1, 2]}},
        {"payload": {"type": "wordcount", "lines": ["a"], "partitions": "x"}},
    ], ids=["demand-float", "demand-bool", "partitions-0", "reducers-0",
            "lines-ints", "partitions-str"])
    def test_the_daemon_refuses_a_job_it_could_never_run(
        self, tmp_path, request_fields
    ):
        from repro.server.daemon import JobServerDaemon

        server = make_server(str(tmp_path))
        daemon = JobServerDaemon(server, str(tmp_path / "unbound.sock"))
        request = {"op": "submit", "tenant": "a",
                   "payload": wordcount_payload(["a"]), **request_fields}
        reply = daemon.handle(request)
        assert reply["error"]["type"] == "ServerError", reply
        assert server.queue.jobs == {}
        assert "job_id" in daemon.handle(
            {"op": "submit", "tenant": "a", "demand": 1,
             "payload": wordcount_payload(["a"], partitions=1, reducers=1)})
        server.close()

    def test_demand_above_slots_rejected(self, tmp_path):
        server = make_server(str(tmp_path), slots=2)
        with pytest.raises(ServerError, match="slot budget"):
            server.submit("a", wordcount_payload(LINES), demand=3)
        server.close()

    def test_failed_job_is_terminal_not_fatal(self, tmp_path):
        server = make_server(str(tmp_path / "state"))
        # A directory passes payload validation, but holds no sample for
        # the job to read — the job fails, the server lives.
        os.mkdir(tmp_path / "empty")
        server.submit("a", {"type": "pipeline", "data": str(tmp_path / "empty")},
                      job_id="bad")
        server.submit("a", wordcount_payload(LINES), job_id="good")
        server.start_dispatch()
        server.drain()
        server.close()
        assert server.queue.get("bad").state == "failed"
        assert server.queue.get("good").state == "done"
        with pytest.raises(ServerError, match="failed"):
            server.result("bad")


class TestCancel:
    def test_cancel_pending_job(self, tmp_path):
        server = make_server(str(tmp_path))
        server.submit("a", wordcount_payload(LINES), job_id="a0")
        assert server.cancel("a0") == "cancelled"
        server.start_dispatch()
        server.drain()
        server.close()
        assert server.queue.get("a0").state == "cancelled"

    def test_cancel_terminal_job_is_noop(self, tmp_path):
        server = make_server(str(tmp_path), hold=False)
        server.submit("a", wordcount_payload(LINES), job_id="a0")
        server.drain()
        assert server.cancel("a0") == "done"
        server.close()

    def test_cancelled_job_survives_restart(self, tmp_path):
        server = make_server(str(tmp_path))
        server.submit("a", wordcount_payload(LINES), job_id="a0")
        server.cancel("a0")
        server.close()
        reopened = make_server(str(tmp_path))
        assert reopened.queue.get("a0").state == "cancelled"
        reopened.close()


class TestKillResume:
    """The acceptance drill: killed mid-queue, resumed, byte-identical."""

    def test_kill_mid_queue_resumes_without_loss_or_duplication(
        self, tmp_path
    ):
        baseline_dir = str(tmp_path / "baseline")
        killed_dir = str(tmp_path / "killed")

        # Uninterrupted run: 3 jobs per tenant, weights 2:1.
        baseline = make_server(baseline_dir)
        submit_batch(baseline, per_tenant=3)
        baseline.start_dispatch()
        baseline.drain()
        baseline.close()
        base_order = dispatch_order(baseline)
        assert [j[0] for j in base_order] == list("abaabb")
        base_blobs = {
            job_id: baseline.queue.get(job_id).result_blob
            for job_id in base_order
        }

        # Killed run: same submissions, crash after the 3rd dispatch.
        plan = FaultPlan(events=(KillServer(after_starts=3),))
        killed = make_server(killed_dir, plan=plan)
        submit_batch(killed, per_tenant=3)
        killed.start_dispatch()
        with pytest.raises(ServerKilledError, match="journaled but "
                                                    "never run"):
            killed.drain()
        killed.close()
        assert killed.queue.counts()["done"] == 2

        # Restart over the same state dir: the in-flight job is
        # re-admitted, nothing is lost, nothing re-runs.
        resumed = make_server(killed_dir, hold=False)
        resumed.drain()
        resumed.close()
        order = dispatch_order(resumed)
        assert order == base_order
        assert resumed.queue.counts()["done"] == 6
        blobs = {
            job_id: resumed.queue.get(job_id).result_blob
            for job_id in order
        }
        assert blobs == base_blobs  # byte-identical results
        starts = [resumed.queue.get(j).start_seq for j in order]
        assert len(set(starts)) == 6  # no duplicated dispatch
        assert resumed.counters()["server.resumed"] == 1

    def test_kill_server_event_validation(self):
        with pytest.raises(MapReduceError, match="after_starts"):
            FaultPlan(events=(KillServer(after_starts=0),))

    def test_parse_kill_server_spec(self):
        event = parse_event("4", "kill-server")
        assert event == KillServer(after_starts=4)
        with pytest.raises(MapReduceError, match="STARTS"):
            parse_event("soon", "kill-server")


@needs_af_unix
class TestDaemonRoundTrip:
    @pytest.fixture()
    def served(self, tmp_path):
        from repro.server.daemon import JobServerDaemon

        # Socket paths have a ~100 char limit; tmp_path can exceed it.
        sock_dir = tempfile.mkdtemp(prefix="repro-srv-")
        socket_path = os.path.join(sock_dir, "s.sock")
        server = JobServer(ServerConfig(
            state_dir=str(tmp_path / "state"), total_slots=1,
            tenants=(TenantPolicy("a", weight=2.0, max_queued=4),),
        ))
        server.open()
        daemon = JobServerDaemon(server, socket_path)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        yield server, socket_path
        daemon.request_shutdown()
        thread.join(timeout=5)
        server.close()

    def _client(self, socket_path):
        from repro.server.client import JobClient

        client = JobClient(socket_path, timeout=10.0)
        client.wait_ready()
        return client

    def test_submit_jobs_result_cancel(self, served):
        _, socket_path = served
        client = self._client(socket_path)
        job_id = client.submit("a", wordcount_payload(["x y x"]))
        snapshot = client.wait_idle()
        assert snapshot["counts"]["done"] == 1
        assert client.result(job_id) == [["x", 2], ["y", 1]]
        with pytest.raises(JobNotFoundError):
            client.cancel("missing")
        stats = client.stats()
        assert stats["tenants"]["a"]["completed"] == 1

    def test_admission_error_keeps_fields_over_the_wire(self, served):
        _, socket_path = served
        client = self._client(socket_path)
        for _ in range(4):
            client.submit("a", wordcount_payload(["x"]))
        client.wait_idle()
        # max_queued=4 counts only live jobs; exhaust with held cost.
        with pytest.raises(AdmissionError) as excinfo:
            client.submit("a", wordcount_payload(["x"]), cost=-1.0)
        assert excinfo.value.reason == "bad_cost"

    @pytest.mark.parametrize("flags", [
        ["--partitions", "0"], ["--reducers", "0"], ["--demand", "0"],
    ], ids=["partitions", "reducers", "demand"])
    def test_submit_exits_2_for_a_job_it_could_never_run(
        self, served, capsys, flags
    ):
        from repro.cli import main

        server, socket_path = served
        self._client(socket_path)
        command = ["submit", "--socket", socket_path, "--tenant", "a",
                   "--text", "x y"]
        assert main(command + flags) == 2
        assert "error:" in capsys.readouterr().err
        assert server.queue.jobs == {}
        assert main(command + [flags[0], "1"]) == 0

    def test_unknown_op_is_typed(self, served):
        _, socket_path = served
        client = self._client(socket_path)
        with pytest.raises(ServerError, match="unknown op"):
            client._request({"op": "bogus"})

    def test_an_oversized_request_line_is_refused_and_the_daemon_lives(
        self, served
    ):
        """A line with no newline is read only up to the bound: a typed
        error comes back, that connection closes, the next one works."""
        from repro.server.daemon import MAX_REQUEST_BYTES

        _, socket_path = served
        client = self._client(socket_path)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(socket_path)
            sock.sendall(b"x" * MAX_REQUEST_BYTES)
            reply = sock.makefile("rb").readline()
            assert sock.recv(1) == b""  # closed by the daemon
        error = json.loads(reply)["error"]
        assert error["type"] == "ServerError"
        assert "longer than" in error["message"]
        assert client.ping()

    @staticmethod
    def _exchange(socket_path, lines):
        """Send raw request lines on one connection, then half-close;
        returns the parsed reply lines."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(socket_path)
            sock.sendall(b"".join(line + b"\n" for line in lines))
            sock.shutdown(socket.SHUT_WR)
            replies = sock.makefile("rb").read().splitlines()
        return [json.loads(reply) for reply in replies]

    @staticmethod
    def _journal(server):
        from repro.server.queue import QUEUE_FINGERPRINT

        return FrameLog(LocalDirectoryBackend(server.config.state_dir),
                        "queue.log", QUEUE_FINGERPRINT).replay()

    @staticmethod
    def _handlers_done(timeout=10.0):
        """Wait for every connection handler thread to return."""
        deadline = time.monotonic() + timeout
        while any("process_request" in thread.name
                  for thread in threading.enumerate()):
            assert time.monotonic() < deadline, "a handler never returned"
            time.sleep(0.01)

    def test_seeded_malformed_lines_get_typed_errors_only(
        self, served, capfd
    ):
        """Truncated JSON, non-objects, invalid UTF-8, NUL bytes and
        wrong-typed submit fields, 120 seeded lines on one connection:
        each gets one typed error line, nothing is journaled, and the
        next connection's ping and submit work."""
        import random

        server, socket_path = served
        client = self._client(socket_path)
        rng = random.Random(3803)
        submit = {"op": "submit", "tenant": "a",
                  "payload": wordcount_payload(["x y"])}
        valid = json.dumps(submit).encode()

        def spliced(junk):
            at = rng.randrange(len(valid) + 1)
            return valid[:at] + junk + valid[at:]

        makers = [
            lambda: valid[:rng.randrange(1, len(valid))],
            lambda: rng.choice([b"[]", b"1", b'"ping"', b"null", b"true",
                                b'[{"op": "ping"}]']),
            lambda: spliced(rng.choice([b"\xff", b"\xc3", b"\x80",
                                        b"\xed\xa0\x80"])),
            lambda: spliced(b"\x00"),
            lambda: json.dumps(dict(submit, cost=rng.choice(
                ["1", "abc", [1], {"n": 1}, True, None]))).encode(),
            lambda: json.dumps(dict(submit, job_id=rng.choice(
                [123, ["a"], {"id": "a"}, True, 1.5, ""]))).encode(),
            lambda: json.dumps(dict(submit, demand=rng.choice(
                ["1", 1.5, True, [1], None, 0]))).encode(),
        ]
        lines = [rng.choice(makers)() for _ in range(120)]
        replies = self._exchange(socket_path, lines)
        assert len(replies) == len(lines)
        for line, reply in zip(lines, replies):
            assert set(reply) == {"error"}, line
            assert reply["error"]["type"] in ("ServerError",
                                              "AdmissionError"), line
        assert server.queue.jobs == {}
        assert not any(r["kind"] == "submit" for r in self._journal(server))
        assert client.ping()
        job_id = client.submit("a", wordcount_payload(["x y"]))
        assert list(server.queue.jobs) == [job_id]
        self._handlers_done()
        assert "Traceback" not in capfd.readouterr().err

    def test_vanished_clients_end_only_their_connection(self, served, capfd):
        """A client that disconnects mid-line, and ones that close before
        reading their replies, cost the daemon nothing: no traceback, and
        a fresh connection's ping and submit work."""
        server, socket_path = served
        client = self._client(socket_path)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(socket_path)
            sock.sendall(b'{"op": "submit", "tenant": "a", "payl')
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(socket_path)
            sock.sendall(b'{"op": "ping"}\n' * 2000)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(socket_path)
            sock.sendall(b'{"op": "ping"}\n')
            # The reply has arrived; closing unread resets the daemon's
            # next read.
            select.select([sock], [], [], 10.0)
        self._handlers_done()
        assert client.ping()
        job_id = client.submit("a", wordcount_payload(["x y"]))
        assert list(server.queue.jobs) == [job_id]
        self._handlers_done()
        assert "Traceback" not in capfd.readouterr().err

    def test_concurrent_submit_and_cancel_journal_each_job_once(
        self, served
    ):
        """Two connections race one id at a time: one submits while the
        other cancels, then the other way round.  The first submit wins,
        the late one is a typed duplicate error, a cancel that beats the
        submit is a typed not-found, and the journal holds one submit
        record per id."""
        from repro.server.client import JobClient

        server, socket_path = served
        self._client(socket_path)
        ids = [f"race-{index}" for index in range(4)]
        barrier = threading.Barrier(2, timeout=10.0)
        replies = {}

        def race(side):
            mine = JobClient(socket_path, timeout=10.0)
            for job_id in ids:
                for op in (("submit", "cancel"), ("cancel", "submit"))[side]:
                    barrier.wait()
                    try:
                        if op == "submit":
                            mine.submit("a", wordcount_payload(["x"]),
                                        job_id=job_id)
                            reply = "ok"
                        else:
                            reply = mine.cancel(job_id)
                    except Exception as exc:  # noqa: BLE001 — typed below
                        reply = type(exc).__name__
                    replies[side, job_id, op] = reply

        threads = [threading.Thread(target=race, args=(side,))
                   for side in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(replies) == 2 * 2 * len(ids)
        for job_id in ids:
            assert replies[0, job_id, "submit"] == "ok"
            assert replies[1, job_id, "submit"] == "ServerError"
            assert replies[1, job_id, "cancel"] in (
                "JobNotFoundError", "cancelled", "running", "done"), job_id
            assert replies[0, job_id, "cancel"] in (
                "cancelled", "running", "done"), job_id
        journal = self._journal(server)
        for job_id in ids:
            kinds = [r["kind"] for r in journal if r["job_id"] == job_id]
            assert kinds.count("submit") == 1, (job_id, kinds)
            assert kinds.count("cancel") <= 1, (job_id, kinds)
        client = self._client(socket_path)
        client.wait_idle()
        assert client.ping()

    def test_jobs_start_is_answered_before_the_kill_it_releases(
        self, tmp_path, capsys
    ):
        """``serve --hold --kill-server 1``, one job, ``jobs --start``:
        the daemon replies before it dispatches, so the dispatch that
        kills it cannot eat the reply — the client exits 0 without
        listing, the server exits 7."""
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.cli import main
        from repro.server.daemon import KILLED_EXIT_CODE

        socket_path = os.path.join(
            tempfile.mkdtemp(prefix="repro-srv-"), "s.sock"
        )
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--state-dir", str(tmp_path / "state"), "--socket", socket_path,
             "--hold", "--kill-server", "1"],
            env=env, stdout=subprocess.DEVNULL,
        )
        try:
            self._client(socket_path).submit("a", wordcount_payload(["x y"]))
            capsys.readouterr()
            assert main(["jobs", "--socket", socket_path, "--start"]) == 0
            assert capsys.readouterr().out == ""
            assert server.wait(timeout=30) == KILLED_EXIT_CODE
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()


class TestConcurrentEngines:
    """Two serial engines in one process, interleaved on threads as the
    job server's slots run them, must match their baselines byte for
    byte."""

    def _spec_and_splits(self, name, lines):
        from repro.api import JobSpec, make_block_splits
        from repro.mapreduce.policy import ExecutionPolicy
        from repro.server.protocol import wordcount_map, wordcount_reduce

        spec = JobSpec(
            name=name, mapper=wordcount_map, reducer=wordcount_reduce,
            num_reducers=2, policy=ExecutionPolicy.serial(),
        )
        splits = make_block_splits(
            [lines[::2], lines[1::2]], prefix=name
        )
        return spec, splits

    def test_interleaved_run_job_byte_identical_vs_serial(self):
        from repro.api import run_job
        from repro.mapreduce.engine import MapReduceEngine

        corpus = {
            "job-x": LINES * 4,
            "job-y": ["alpha beta", "beta gamma delta", "alpha"] * 4,
        }
        baselines = {}
        for name, lines in corpus.items():
            spec, splits = self._spec_and_splits(name, lines)
            baselines[name] = pickle.dumps(
                sorted(run_job(spec, splits).all_outputs())
            )

        barrier = threading.Barrier(2)
        outputs = {}
        errors = []

        def work(name, lines):
            try:
                spec, splits = self._spec_and_splits(name, lines)
                engine = MapReduceEngine(policy=spec.policy)
                barrier.wait(timeout=10)
                try:
                    result = run_job(spec, splits, engine=engine)
                    outputs[name] = pickle.dumps(
                        sorted(result.all_outputs())
                    )
                finally:
                    engine.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(name, lines))
            for name, lines in corpus.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert outputs == baselines


def per_occurrence_map(records, ctx):
    """The textbook mapper: one ``(word, 1)`` per occurrence."""
    for line in records:
        for word in line.split():
            ctx.emit(word, 1)


_WORDS = st.sampled_from(["the", "dog", "a", "x1", "Straße", "naïve", "日本語"])
_SEPARATORS = st.sampled_from(["", " ", "\t", "  ", " \t "])


@st.composite
def wordcount_lines(draw):
    """Lines of repeated words: leading, trailing and doubled blanks and
    tabs, empty and whitespace-only lines (a word with no separator
    after it runs into the next one)."""
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        words = draw(st.lists(_WORDS, max_size=8))
        blanks = draw(st.lists(_SEPARATORS, min_size=len(words) + 1,
                               max_size=len(words) + 1))
        lines.append(blanks[0] + "".join(
            word + blank for word, blank in zip(words, blanks[1:])
        ))
    return lines


class TestBuiltinWordcount:
    """The builtin job counts in its mapper: same result as counting
    every occurrence, one shuffled record per distinct word of a split."""

    @settings(max_examples=60, deadline=None)
    @given(lines=wordcount_lines(), partitions=st.integers(1, 4),
           reducers=st.integers(1, 4))
    def test_result_equals_counter_and_per_occurrence_job(
            self, lines, partitions, reducers):
        from repro.api import JobSpec, make_block_splits, run_job
        from repro.mapreduce.policy import ExecutionPolicy

        result = build_runnable("wc", wordcount_payload(
            lines, partitions=partitions, reducers=reducers,
        ), tempfile.gettempdir())()
        words = [word for line in lines for word in line.split()]
        assert result == sorted(Counter(words).items())
        spec = JobSpec(
            name="occurrences", mapper=per_occurrence_map,
            reducer=wordcount_reduce, num_reducers=reducers,
            policy=ExecutionPolicy.serial(),
        )
        splits = make_block_splits(
            [lines[i::partitions] for i in range(partitions)],
            prefix="occurrences",
        )
        assert result == sorted(run_job(spec, splits).all_outputs())

    def test_map_output_records_are_distinct_words_per_split(
            self, tmp_path, monkeypatch):
        import repro.api

        run_job, results = repro.api.run_job, []

        def recording_run_job(spec, splits, **kwargs):
            results.append(run_job(spec, splits, **kwargs))
            return results[-1]

        monkeypatch.setattr(repro.api, "run_job", recording_run_job)
        lines = LINES * 4 + ["the the the", "dog\tdog", "", "  "]
        served = build_runnable("wc", wordcount_payload(
            lines, partitions=3, reducers=2,
        ), str(tmp_path))()
        assert dict(served)["the"] == 4 * 3 + 3

        (result,) = results
        chunk = -(-len(lines) // 3)
        splits = [lines[i:i + chunk] for i in range(0, len(lines), chunk)]
        distinct = [len({word for line in split for word in line.split()})
                    for split in splits]
        assert [(task.input_records, task.output_records)
                for task in result.history.maps()] == [
            (len(split), count) for split, count in zip(splits, distinct)
        ]
        assert result.counters["MAP_OUTPUT_RECORDS"] == sum(distinct)
        assert result.counters["SHUFFLED_RECORDS"] == sum(distinct)
        assert sum(distinct) < sum(len(line.split()) for line in lines)


class TestTenantObservability:
    def test_tenant_summary_parses_server_counters(self):
        from repro.obs.analysis import tenant_summary

        counters = {
            "server.tenant.a.admitted": 3,
            "server.tenant.a.paid_worker_seconds": 1.5,
            "server.tenant.b.rejected": 1,
            "server.admitted": 3,
            "pool.paid_worker_seconds": 9.0,
        }
        summary = tenant_summary(counters)
        assert sorted(summary) == ["a", "b"]
        assert summary["a"]["admitted"] == 3
        assert summary["a"]["paid_worker_seconds"] == 1.5
        assert summary["a"]["rejected"] == 0.0
        assert summary["b"]["rejected"] == 1

    def test_report_grows_tenant_section(self, tmp_path):
        from repro.obs.report import build_report, render_html

        server = make_server(str(tmp_path), hold=False)
        server.submit("a", wordcount_payload(LINES))
        server.drain()
        server.close()
        html = render_html(build_report(server.recorder), "jobs",
                           server.recorder)
        assert "<h2>Tenants</h2>" in html
        assert "<td>a</td>" in html

    def test_trace_spans_carry_tenant_track(self, tmp_path):
        server = make_server(str(tmp_path), hold=False)
        server.submit("a", wordcount_payload(LINES), job_id="a0")
        server.drain()
        server.close()
        spans = [s for s in server.recorder.spans()
                 if s.category == "server-job"]
        assert len(spans) == 1
        assert spans[0].track == "tenant/a"
        assert spans[0].attrs["start_seq"] == 1


class TestElasticPolicyValidation:
    def test_explicit_ceiling_raises_the_cap(self):
        """The default ceiling is min(32, CPUs); an explicit one may
        exceed it."""
        from repro.mapreduce.policy import ExecutionPolicy

        assert ExecutionPolicy.pooled(max_workers=64).resolved_workers() == 64
