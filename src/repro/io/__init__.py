"""repro.io — the crash-consistent durable-I/O layer.

Public surface:

* :class:`~repro.io.policy.IoPolicy` — frozen retry/timeout/spill
  policy, carried inside ``ExecutionPolicy.io``.
* :class:`~repro.io.layer.LocalIO` / :class:`~repro.io.layer.IoStats`
  — the durability contract (atomic writes, durable appends,
  idempotent unlink) plus its counters.
* :class:`~repro.io.faults.FaultIO` / :func:`~repro.io.faults.build_io`
  — seeded fault injection below the retry loop.
* :mod:`repro.io.crashfuzz` — the crash-consistency fuzz harness
  (imported directly, not re-exported: it pulls in every durable
  component).
"""

from repro.io.layer import IoStats, LocalIO, TRANSIENT_ERRNOS
from repro.io.policy import DEFAULT_IO_POLICY, IoPolicy
from repro.io.faults import FaultIO, ShortRead, build_io

__all__ = [
    "DEFAULT_IO_POLICY",
    "FaultIO",
    "IoPolicy",
    "IoStats",
    "LocalIO",
    "ShortRead",
    "TRANSIENT_ERRNOS",
    "build_io",
]
