"""The in-process job server: queue + admission + fair-share + slots.

:class:`JobServer` is the daemon's engine room and is fully usable
without a socket (tests and the bench drive it directly):

* ``submit`` admits a payload through
  :class:`~repro.server.admission.AdmissionController` (typed reject,
  never a hang), journals it in the
  :class:`~repro.server.queue.DurableJobQueue`, and kicks the
  dispatcher;
* the dispatcher fills free slots with the
  :class:`~repro.server.scheduler.FairShareScheduler`'s deterministic
  pick, journaling a ``start`` record *before* handing the job to the
  shared thread pool (slots = ``ServerConfig.total_slots``);
* completions journal ``done``/``failed`` with the pickled result,
  release slots, and dispatch again.

Dispatch *order* is deterministic (charges are made at dispatch;
completion timing only affects when slots free up, and with the
default single-slot budget not even that).  A chaos
:class:`~repro.chaos.plan.KillServer` event stops the server
immediately after the Nth ``start`` record is journaled — the
dispatched job never runs, mirroring a process crash with work in
flight — and a fresh ``JobServer.open`` over the same state directory
re-admits every non-terminal job.
"""

from __future__ import annotations

import pickle
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.plan import FaultPlan
from repro.errors import ServerError, ServerKilledError
from repro.obs.recorder import ObsConfig, Span
from repro.pipeline.checkpoint import LocalDirectoryBackend
from repro.server.admission import (
    AdmissionController,
    TenantPolicy,
    valid_tenant_name,
)
from repro.server.protocol import build_runnable, is_count
from repro.server.queue import DurableJobQueue, QueuedJob
from repro.server.scheduler import FairShareScheduler


@dataclass(frozen=True)
class ServerConfig:
    """Frozen description of one job-server instance."""

    #: Durable root: queue journal + per-job pipeline checkpoints.
    state_dir: str
    #: Shared executor budget, in slots (concurrent job demand).
    total_slots: int = 1
    #: Registered tenants; unknown tenants mint the default policy.
    tenants: Tuple[TenantPolicy, ...] = ()
    #: Quota defaults applied to unregistered tenants.
    default_max_queued: Optional[int] = None
    default_max_cost_units: Optional[float] = None
    #: Server-wide live-job backstop.
    max_queued_total: Optional[int] = None
    #: Dispatch only when :meth:`JobServer.start_dispatch` is called —
    #: lets a client enqueue a full batch before scheduling begins.
    hold: bool = False
    #: Chaos plan; only :class:`~repro.chaos.plan.KillServer` applies.
    fault_plan: Optional[FaultPlan] = None
    obs: ObsConfig = field(default_factory=lambda: ObsConfig(enabled=True))


class JobServer:
    """One multi-tenant job service over one durable state directory."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.backend = LocalDirectoryBackend(config.state_dir)
        self.queue = DurableJobQueue(self.backend)
        default = TenantPolicy(
            name="default",
            max_queued=config.default_max_queued,
            max_cost_units=config.default_max_cost_units,
        )
        self.admission = AdmissionController(
            config.tenants, default=default,
            max_queued_total=config.max_queued_total,
        )
        self.scheduler = FairShareScheduler(
            config.total_slots, self.admission
        )
        self.recorder = config.obs.build_recorder()
        self._metrics = self.recorder.metrics
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._holding = config.hold
        self._killed: Optional[ServerKilledError] = None
        self._closed = False
        #: Daemon hook: called (outside retry paths) when chaos kills
        #: the server, so the process can die crash-style.
        self.on_killed = None
        self._job_started_at: Dict[str, float] = {}

    # -- lifecycle -----------------------------------------------------------
    def open(self) -> List[QueuedJob]:
        """Recover the durable queue; returns re-admitted jobs."""
        with self._lock:
            readmitted = self.queue.open()
            terminal = [j for j in self.queue.jobs.values() if j.terminal]
            self.scheduler.restore_charges(terminal)
            for job in self.queue.jobs.values():
                # Re-mint tenant policies so restarted servers report
                # every tenant the journal has seen.
                self.admission.policy(job.tenant)
            if readmitted:
                self._count("server.resumed", len(readmitted))
            self._refresh_gauges()
            if not self._holding:
                self._dispatch_locked()
        return readmitted

    def start_dispatch(self) -> None:
        """Release a held server (``ServerConfig.hold``)."""
        with self._lock:
            self._holding = False
            self._dispatch_locked()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- metrics helpers -----------------------------------------------------
    def _count(self, name: str, amount: float = 1) -> None:
        self._metrics.counter(name).inc(amount)

    def _tenant_count(self, tenant: str, metric: str,
                      amount: float = 1) -> None:
        self._metrics.counter(f"server.tenant.{tenant}.{metric}").inc(amount)

    def _refresh_gauges(self) -> None:
        counts = self.queue.counts()
        self._metrics.gauge("server.queued").set(counts["pending"])
        self._metrics.gauge("server.running").set(counts["running"])

    # -- submission ----------------------------------------------------------
    def submit(self, tenant: str, payload: Any, cost: float = 1.0,
               demand: int = 1, job_id: Optional[str] = None) -> QueuedJob:
        """Admit one job; raises AdmissionError/ServerError on refusal."""
        with self._lock:
            if self._closed:
                raise ServerError("server is closed")
            # An explicit id names files under the state directory (a
            # pipeline job's checkpoints), so it takes the tenant rule.
            if job_id is not None and not valid_tenant_name(job_id):
                raise ServerError(
                    f"job id {job_id!r} must match [A-Za-z0-9_-]+"
                )
            if not is_count(demand) or demand > self.config.total_slots:
                raise ServerError(
                    f"job demand {demand!r} must be an integer slot count "
                    f"within the server's {self.config.total_slots} slot budget"
                )
            live: Dict[str, int] = {}
            committed: Dict[str, float] = {}
            total_live = 0
            for job in self.queue.jobs.values():
                if not job.terminal:
                    live[job.tenant] = live.get(job.tenant, 0) + 1
                    total_live += 1
                committed[job.tenant] = (
                    committed.get(job.tenant, 0.0) + job.cost
                )
            try:
                self.admission.check_submit(
                    tenant, cost, live, committed, total_live
                )
            except ServerError:
                self._count("server.rejected")
                if valid_tenant_name(tenant):
                    self._tenant_count(tenant, "rejected")
                raise
            job_id = job_id or f"{tenant}-{self.queue._submit_seq + 1:05d}"
            # Validate the payload now: a submission the server could
            # never run must be a typed submit-time error.
            build_runnable(job_id, payload, self.config.state_dir)
            job = self.queue.submit(job_id, tenant, payload, cost, demand)
            self._count("server.admitted")
            self._tenant_count(tenant, "admitted")
            self._refresh_gauges()
            if not self._holding:
                self._dispatch_locked()
            return job

    # -- dispatch ------------------------------------------------------------
    def _dispatch_locked(self) -> None:
        """Fill free slots with the scheduler's deterministic picks."""
        if self._killed is not None or self._closed:
            return
        kill = (
            self.config.fault_plan.server_kill()
            if self.config.fault_plan else None
        )
        while True:
            job = self.scheduler.pick(self.queue.pending_by_tenant())
            if job is None:
                break
            start_seq = self.queue.mark_started(job)
            self.scheduler.charge(job)
            self._count("server.started")
            self._tenant_count(job.tenant, "charged_units", job.cost)
            self._refresh_gauges()
            if kill is not None and start_seq >= kill.after_starts:
                # The start record is journaled; the process dies
                # before the job runs — recovery must re-admit it.
                self._killed = ServerKilledError(
                    f"KillServer fired after {start_seq} dispatched "
                    f"job(s); {job.job_id!r} journaled but never run"
                )
                self._cond.notify_all()
                if self.on_killed is not None:
                    self.on_killed(self._killed)
                return
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.total_slots,
                    thread_name_prefix="jobserver",
                )
            self._job_started_at[job.job_id] = time.perf_counter()
            self._pool.submit(self._execute, job)

    def _execute(self, job: QueuedJob) -> None:
        started = self._job_started_at.pop(job.job_id, time.perf_counter())
        try:
            runnable = build_runnable(
                job.job_id, job.payload, self.config.state_dir
            )
            result = runnable()
            blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            error = None
        except Exception as exc:  # noqa: BLE001 — job bodies are arbitrary
            blob = b""
            error = f"{type(exc).__name__}: {exc}"
        finished = time.perf_counter()
        paid = (finished - started) * job.demand
        with self._lock:
            if error is None:
                self.queue.mark_done(job, blob, paid)
                self._count("server.completed")
                self._tenant_count(job.tenant, "completed")
            else:
                self.queue.mark_failed(job, error)
                self._count("server.failed")
                self._tenant_count(job.tenant, "failed")
            self._tenant_count(job.tenant, "paid_worker_seconds", paid)
            self._count("server.paid_worker_seconds", paid)
            self.scheduler.release(job)
            self._refresh_gauges()
            self.recorder.ingest([
                Span(
                    name=job.job_id,
                    category="server-job",
                    start=started,
                    end=finished,
                    track=f"tenant/{job.tenant}",
                    attrs={
                        "tenant": job.tenant,
                        "cost": job.cost,
                        "demand": job.demand,
                        "start_seq": job.start_seq,
                        "state": job.state,
                    },
                )
            ])
            self._dispatch_locked()
            self._cond.notify_all()

    # -- queries -------------------------------------------------------------
    def cancel(self, job_id: str) -> str:
        """Cancel a pending job; running/terminal jobs are left alone.

        Returns the job's state after the call — ``"cancelled"`` on
        success, the unchanged state otherwise (the NDJSON surface
        relays it; cancelling a running job is not supported, matching
        a crash-only process model).
        """
        with self._lock:
            job = self.queue.get(job_id)
            if job.state == "pending":
                self.queue.mark_cancelled(job)
                self._count("server.cancelled")
                self._tenant_count(job.tenant, "cancelled")
                self._refresh_gauges()
            return job.state

    def result(self, job_id: str) -> Any:
        """A done job's unpickled result (survives server restarts)."""
        with self._lock:
            job = self.queue.get(job_id)
            if job.state == "failed":
                raise ServerError(
                    f"job {job_id!r} failed: {job.error}"
                )
            if job.state != "done":
                raise ServerError(
                    f"job {job_id!r} is {job.state}, not done"
                )
            return pickle.loads(job.result_blob)

    def jobs_snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "jobs": [job.as_dict() for job in self.queue.jobs.values()],
                "tenants": self.scheduler.tenant_snapshot(),
                "counts": self.queue.counts(),
                "slots": {
                    "total": self.config.total_slots,
                    "used": self.scheduler.used_slots(),
                },
            }

    def counters(self) -> Dict[str, float]:
        return dict(self._metrics.as_dict()["counters"])

    # -- synchronisation -----------------------------------------------------
    def drain(self, timeout: float = 120.0) -> None:
        """Block until the queue is idle; raises if chaos killed us."""
        deadline = time.monotonic() + timeout
        with self._cond:
            self._dispatch_locked()
            while True:
                if self._killed is not None:
                    raise self._killed
                counts = self.queue.counts()
                if counts["pending"] == 0 and counts["running"] == 0:
                    return
                if self._holding and counts["running"] == 0:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServerError(
                        f"drain timed out after {timeout}s with "
                        f"{counts['pending']} pending / "
                        f"{counts['running']} running"
                    )
                self._cond.wait(min(remaining, 0.5))

    @property
    def killed(self) -> Optional[ServerKilledError]:
        return self._killed

    def __repr__(self) -> str:
        counts = self.queue.counts()
        return (f"JobServer({self.config.state_dir!r}, "
                f"{counts['pending']} pending, "
                f"{counts['running']} running)")
