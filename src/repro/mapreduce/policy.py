"""Execution policy: how the in-process MR engine runs its tasks.

The functional engine used to hard-code sequential execution.  The
policy object makes executor choice a first-class, frozen configuration
value — the same knob the paper turns when it compares thread counts
and slot counts per node (sections 4.2-4.4) — so callers stop
constructing engines ad hoc:

* ``executor`` — ``"serial"`` (the reference: one task at a time in
  the driver) or ``"pool"`` (persistent fork-based worker pool: real
  CPU parallelism, forks once per job, reuses workers across waves,
  survives worker crashes via fenced backups).
* ``max_workers`` — bounded worker slots, the in-process analogue of
  map/reduce slots per node.  The pool runs each wave on
  ``min(max_workers, tasks in the wave)`` workers.
* ``task_retries`` — per-task re-execution with capped exponential
  backoff (:func:`~repro.io.policy.charged_backoff`), Hadoop's
  ``mapreduce.map.maxattempts``.  The backoff is *charged* to the
  attempt (recorded, deterministic) rather than slept, so retry storms
  under preemption neither hot-loop in the accounting nor stall the
  wall clock.
* ``task_timeout`` — hung-task detection: an attempt whose charged
  runtime (measured wall time plus any chaos-injected delay) exceeds
  the timeout is declared hung and retried, Hadoop's
  ``mapreduce.task.timeout``.
* ``blacklist_after`` — per-node failure-count blacklist: a node that
  accumulates this many task-attempt failures stops receiving new
  tasks (``yarn.nodemanager`` health blacklisting).
* ``lease_seconds`` — liveness lease: an attempt whose longest
  progress-heartbeat gap (charged the same way ``task_timeout``
  charges injected delays) exceeds the lease is declared *lost* by the
  driver's ``LeaseMonitor``; a fenced backup attempt commits in its
  place and the lost attempt's late commit is refused.
* ``backup_attempts`` — how many fenced backup attempts the driver
  launches for a task whose lease expired before giving up.
* ``fault_plan`` — a frozen :class:`~repro.chaos.plan.FaultPlan` of
  targeted chaos events (kill node N at round R, delay task T, raise
  in task U) — the one way to make an attempt fail on purpose.  Events
  aimed at pool workers (preemption, cold start) are rejected on
  executors that have none rather than silently injecting nothing.
* ``io`` — a frozen :class:`~repro.io.policy.IoPolicy` configuring the
  durable-I/O layer (transient-retry budget, per-op timeout, spill
  directories with ENOSPC fallback, replica shedding); ``None`` means
  the default contract.  A fault plan carrying I/O events (torn
  writes, ENOSPC, EIO, slow I/O) is injected below this layer's retry
  loop.

Fault decisions depend only on a plan's explicit ``(task_id, attempt)``
addressing, so they are identical no matter which executor runs the
task, in which order, or in which process.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

from repro.chaos.plan import POOL_EVENT_TYPES, FaultPlan
from repro.errors import MapReduceError
from repro.io.policy import DEFAULT_IO_POLICY, IoPolicy

#: Executor kinds accepted by :class:`ExecutionPolicy`.
EXECUTOR_KINDS = ("serial", "pool")


def default_workers() -> int:
    """Default worker-slot count: the CPUs this process may run on.

    ``os.cpu_count()`` ignores CPU affinity and cgroup pinning, so on a
    pinned host a pool sized from it over-forks; the affinity mask is
    what the scheduler will actually grant.  Capped at 32.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(32, cpus)


def _positive_or_none(seconds: Optional[float]) -> bool:
    """``None`` or a finite number of seconds above 0: a NaN or infinite
    limit is never exceeded, so it would switch detection off."""
    return seconds is None or (math.isfinite(seconds) and seconds > 0)


class InjectedTaskFault(MapReduceError):
    """A configured, deterministic task failure (fault injection)."""


@dataclass(frozen=True)
class ExecutionPolicy:
    """Frozen description of how MapReduce tasks are executed."""

    executor: str = "serial"
    max_workers: Optional[int] = None
    task_retries: int = 0
    task_timeout: Optional[float] = None
    blacklist_after: Optional[int] = None
    lease_seconds: Optional[float] = None
    backup_attempts: int = 1
    fault_plan: Optional[FaultPlan] = None
    io: Optional[IoPolicy] = None

    def __post_init__(self):
        if self.executor not in EXECUTOR_KINDS:
            raise MapReduceError(
                f"unknown executor {self.executor!r}; "
                f"choose one of {', '.join(EXECUTOR_KINDS)}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise MapReduceError("max_workers must be >= 1")
        if self.task_retries < 0:
            raise MapReduceError("task_retries must be >= 0")
        if not _positive_or_none(self.task_timeout):
            raise MapReduceError(
                f"task_timeout must be None or finite and > 0, "
                f"got {self.task_timeout!r}"
            )
        if self.blacklist_after is not None and self.blacklist_after < 1:
            raise MapReduceError("blacklist_after must be >= 1")
        if not _positive_or_none(self.lease_seconds):
            raise MapReduceError(
                f"lease_seconds must be None or finite and > 0, "
                f"got {self.lease_seconds!r}"
            )
        if self.backup_attempts < 1:
            raise MapReduceError("backup_attempts must be >= 1")
        if self.fault_plan is not None and self.executor != "pool":
            for event in self.fault_plan.events:
                if isinstance(event, POOL_EVENT_TYPES):
                    raise MapReduceError(
                        f"chaos event {type(event).__name__} targets pool "
                        f"workers but executor={self.executor!r} has none; "
                        "it would inject nothing (use executor='pool')"
                    )

    # -- convenience constructors -----------------------------------------
    @classmethod
    def serial(cls, **kwargs) -> "ExecutionPolicy":
        return cls(executor="serial", **kwargs)

    @classmethod
    def pooled(
        cls, max_workers: Optional[int] = None, **kwargs
    ) -> "ExecutionPolicy":
        """Persistent fork pool: fork once per job, reuse across waves."""
        return cls(executor="pool", max_workers=max_workers, **kwargs)

    # -- derived values ----------------------------------------------------
    def resolved_workers(self) -> int:
        """Worker slot count after applying defaults."""
        if self.executor == "serial":
            return 1
        if self.max_workers is not None:
            return self.max_workers
        return default_workers()

    def resolved_io(self) -> IoPolicy:
        """The durable-I/O policy after applying the default contract."""
        return self.io if self.io is not None else DEFAULT_IO_POLICY
