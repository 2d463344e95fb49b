"""Hadoop-style job counters."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Iterator, Tuple

# Standard counter names used by the engine.
MAP_INPUT_RECORDS = "MAP_INPUT_RECORDS"
MAP_OUTPUT_RECORDS = "MAP_OUTPUT_RECORDS"
MAP_OUTPUT_BYTES = "MAP_OUTPUT_BYTES"
SPILLED_RECORDS = "SPILLED_RECORDS"
SHUFFLED_RECORDS = "SHUFFLED_RECORDS"
SHUFFLED_BYTES = "SHUFFLED_BYTES"

# Shuffle-service counters.  SHUFFLED_BYTES measures the framed,
# post-compression segment bytes reducers actually fetch;
# SHUFFLE_RAW_BYTES is the same data before compression, so
# SHUFFLE_RAW_BYTES / SHUFFLED_BYTES is the codec's measured ratio.
SHUFFLE_SEGMENTS = "SHUFFLE_SEGMENTS"
SHUFFLE_RAW_BYTES = "SHUFFLE_RAW_BYTES"
SHUFFLE_CRC_FAILURES = "SHUFFLE_CRC_FAILURES"
SHUFFLE_FETCH_RETRIES = "SHUFFLE_FETCH_RETRIES"
REDUCE_INPUT_GROUPS = "REDUCE_INPUT_GROUPS"
REDUCE_INPUT_RECORDS = "REDUCE_INPUT_RECORDS"
REDUCE_OUTPUT_RECORDS = "REDUCE_OUTPUT_RECORDS"

# Execution-plane counters (retries, fault injection).
MAP_TASK_ATTEMPTS = "MAP_TASK_ATTEMPTS"
REDUCE_TASK_ATTEMPTS = "REDUCE_TASK_ATTEMPTS"
INJECTED_FAULTS = "INJECTED_FAULTS"
INJECTED_DELAYS = "INJECTED_DELAYS"

# Commit-protocol counters (exactly-once task commits).  TASK_COMMITS
# counts promoted attempts (exactly one per task); FENCED_COMMITS
# counts refused promotions (zombies and duplicated commit RPCs);
# WAL_TASKS_SKIPPED counts tasks a resumed run replayed from the job
# WAL instead of re-executing.
TASK_COMMITS = "TASK_COMMITS"
FENCED_COMMITS = "FENCED_COMMITS"
LEASE_EXPIRATIONS = "LEASE_EXPIRATIONS"
BACKUP_ATTEMPTS = "BACKUP_ATTEMPTS"
WAL_TASKS_SKIPPED = "WAL_TASKS_SKIPPED"
# Pool-executor crash tolerance: workers that died mid-task and were
# settled through the fenced-backup path.
WORKER_CRASHES = "WORKER_CRASHES"


class Counters:
    """A named-counter map with merge support.

    Implements the read side of the ``Mapping`` protocol (iteration is
    sorted by name), so benches and reports can treat a ``Counters`` as
    a plain dict instead of reaching into private state.
    """

    def __init__(self):
        self._values: Dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str, default: int = 0) -> int:
        return self._values.get(name, default)

    def merge(self, other: "Counters") -> None:
        for name, value in other._values.items():
            self.inc(name, value)

    # -- Mapping protocol ---------------------------------------------------
    def __getitem__(self, name: str) -> int:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def keys(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def values(self) -> Iterator[int]:
        return (value for _, value in self.items())

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._values.items()))

    def as_dict(self) -> Dict[str, int]:
        return dict(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"Counters({inner})"


Mapping.register(Counters)
