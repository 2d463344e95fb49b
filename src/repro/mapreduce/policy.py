"""Execution policy: how the in-process MR engine runs its tasks.

The functional engine used to hard-code sequential execution.  The
policy object makes executor choice a first-class, frozen configuration
value — the same knob the paper turns when it compares thread counts
and slot counts per node (sections 4.2-4.4) — so callers stop
constructing engines ad hoc:

* ``executor`` — ``"serial"`` (the reference: one task at a time in
  the driver) or ``"pool"`` (persistent fork-based worker pool: real
  CPU parallelism, forks once per engine, reuses workers across jobs,
  survives worker crashes by re-executing their tasks).
* ``max_workers`` — bounded worker slots, the in-process analogue of
  map/reduce slots per node.  The pool runs each wave on
  ``min(max_workers, tasks in the wave)`` workers.
* ``task_retries`` — the one re-execution budget, Hadoop's
  ``mapreduce.map.maxattempts`` less one.  An attempt is an epoch: one
  that raised, lost its pool worker or lost its lease is fenced by the
  driver and re-issued as attempt ``epoch + 1`` on another node, at
  most ``task_retries`` times (default 1).  Each re-execution charges
  the capped exponential backoff
  (:func:`~repro.io.policy.charged_backoff`) — recorded,
  deterministic, never slept — so retry storms under preemption
  neither hot-loop in the accounting nor stall the wall clock.
* ``blacklist_after`` — per-node failure-count blacklist: a node that
  accumulates this many task-attempt failures stops receiving new
  tasks (``yarn.nodemanager`` health blacklisting).
* ``lease_seconds`` — hung-task detection, Hadoop's
  ``mapreduce.task.timeout``: an attempt whose charged runtime
  (measured wall time plus any chaos-injected delay, never slept)
  exceeds the lease is declared *lost* by the driver
  (:func:`~repro.mapreduce.commit.lease_lost`) and re-executed like
  any lost attempt; the lost attempt's late commit is refused.
* ``fault_plan`` — a frozen :class:`~repro.chaos.plan.FaultPlan` of
  targeted chaos events (kill node N at round R, delay task T, raise
  in attempt K of task U) — the one way to make an attempt fail on
  purpose.  Events aimed at pool workers (preemption, cold start) are
  rejected on executors that have none rather than silently injecting
  nothing.
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


class InjectedTaskFault(MapReduceError):
    """A configured, deterministic task failure (fault injection)."""


@dataclass(frozen=True)
class ExecutionPolicy:
    """Frozen description of how MapReduce tasks are executed."""

    executor: str = "serial"
    max_workers: Optional[int] = None
    task_retries: int = 1
    blacklist_after: Optional[int] = None
    lease_seconds: Optional[float] = None
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
        if self.blacklist_after is not None and self.blacklist_after < 1:
            raise MapReduceError("blacklist_after must be >= 1")
        lease = self.lease_seconds
        # A NaN or infinite lease is never exceeded: detection would be off.
        if lease is not None and not (math.isfinite(lease) and lease > 0):
            raise MapReduceError(
                f"lease_seconds must be None or finite and > 0, "
                f"got {lease!r}"
            )
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
        """Persistent fork pool: fork once per engine, reuse across jobs."""
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
