"""Frozen durable-I/O policy: retries, timeouts, degraded-mode routing.

The I/O analogue of :class:`~repro.mapreduce.policy.ExecutionPolicy`:
one immutable value describing how the :mod:`repro.io` layer behaves
under dirty disks, carried inside the execution policy so it crosses
the fork boundary with the rest of the job configuration.

* ``retries`` — transient errors (EIO, EAGAIN, EINTR, short reads) are
  retried with the same capped-exponential *charged* backoff as task
  retries (:func:`charged_backoff`): the delay is recorded in
  ``io.backoff_charged_seconds``, never slept, and depends only on the
  attempt number so it is identical under every executor.
* ``op_timeout`` — ceiling on one operation's *charged* latency
  (injected slow-I/O seconds); an op charged past it raises
  :class:`~repro.errors.IoTimeoutError`.  Deterministic by
  construction — the wall clock is never consulted.
* ``spill_dirs`` — ordered spill directories.  The first is the
  primary; ENOSPC on it degrades the write to the next directory
  (counted in ``io.fallback_spills``) instead of failing the task.
* ``segment_replicas`` / ``min_replicas`` — how many copies the disk
  segment store writes per shuffle segment, and how few it will accept
  before failing the job: when every directory is full, replicas are
  *shed* down to ``min_replicas`` (counted in ``io.replicas_shed``)
  before a :class:`~repro.errors.StorageFullError` is raised.
* ``fsync`` — the durability contract switch.  On (the default) every
  atomic write is fsynced before the rename and its directory after;
  the crash fuzz turns it off (a simulated kill decides what survived).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import DurableIoError


#: The retry curve's first delay and its ceiling, in seconds.
RETRY_BACKOFF = 0.005
RETRY_BACKOFF_CAP = 0.1


def charged_backoff(attempt: int) -> float:
    """The one retry curve:
    ``min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * 2 ** (attempt - 1))``.

    It depends only on the attempt number, so it is identical in any
    process, under any executor.  Task retries (``ExecutionPolicy``)
    and I/O retries (:class:`IoPolicy`) both *charge* this delay —
    record it, never sleep it — so backoff shapes the cost accounting
    without stalling the wall clock.
    """
    return min(RETRY_BACKOFF_CAP, RETRY_BACKOFF * 2 ** (attempt - 1))


@dataclass(frozen=True)
class IoPolicy:
    """Frozen description of how durable I/O behaves under faults."""

    retries: int = 2
    op_timeout: float = 0.0
    spill_dirs: Tuple[str, ...] = ()
    segment_replicas: int = 2
    min_replicas: int = 1
    fsync: bool = True

    def __post_init__(self):
        if self.retries < 0:
            raise DurableIoError("retries must be >= 0")
        if not (math.isfinite(self.op_timeout) and self.op_timeout >= 0):
            raise DurableIoError(
                f"op_timeout must be finite and >= 0 (0 disables it), "
                f"got {self.op_timeout!r}"
            )
        if isinstance(self.spill_dirs, list):
            object.__setattr__(self, "spill_dirs", tuple(self.spill_dirs))
        if any(not d for d in self.spill_dirs):
            raise DurableIoError("spill_dirs entries must be non-empty")
        if self.segment_replicas < 1:
            raise DurableIoError("segment_replicas must be >= 1")
        if not 1 <= self.min_replicas <= self.segment_replicas:
            raise DurableIoError(
                "min_replicas must be within [1, segment_replicas] "
                f"({self.min_replicas} vs {self.segment_replicas})"
            )


#: The default contract: durable, 2 transient retries, no spill dirs.
DEFAULT_IO_POLICY = IoPolicy()
