"""Reduce-skew detection.

The paper's cleaning rounds are dominated by their shuffles, and a
skewed key distribution turns one reducer into the straggler that sets
round wall-clock (§5's load-balance discussion).
:class:`SkewReport` / :func:`detect_skew` are built from the per-task
partition tallies every :class:`~repro.shuffle.spill.SpillBuffer`
ships back: which partitions are *hot* (records > :data:`SKEW_FACTOR`
× the mean) and which keys make them hot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

#: A reduce partition is *hot* when it holds more than this many times
#: the mean partition's records.
SKEW_FACTOR = 2.0

#: How many of each partition's heaviest keys a map task reports.
TRACK_KEYS = 3


class SkewReport:
    """Post-job view of how evenly the shuffle spread its records."""

    def __init__(
        self,
        partition_records: List[int],
        heavy_keys: Dict[int, List[Tuple[Any, int]]],
    ):
        #: Total shuffled records per reduce partition.
        self.partition_records = partition_records
        #: Per partition: heaviest keys as (key, count), heaviest first.
        self.heavy_keys = heavy_keys
        total = sum(partition_records)
        self.mean_records = (
            total / len(partition_records) if partition_records else 0.0
        )
        #: Partitions holding more than ``SKEW_FACTOR`` × the mean.
        self.hot_partitions = [
            index
            for index, count in enumerate(partition_records)
            if total and count > SKEW_FACTOR * self.mean_records
        ]

    @property
    def is_skewed(self) -> bool:
        return bool(self.hot_partitions)

    @property
    def imbalance(self) -> float:
        """max/mean partition load; 1.0 is perfectly balanced."""
        if not self.partition_records or self.mean_records == 0:
            return 1.0
        return max(self.partition_records) / self.mean_records

    def describe(self) -> List[str]:
        lines = [
            f"partitions: {len(self.partition_records)}  "
            f"records: {sum(self.partition_records)}  "
            f"imbalance (max/mean): {self.imbalance:.2f}"
        ]
        for index in self.hot_partitions:
            keys = ", ".join(
                f"{key!r}×{count}"
                for key, count in self.heavy_keys.get(index, [])[:3]
            )
            lines.append(
                f"  hot partition {index}: "
                f"{self.partition_records[index]} records"
                + (f" (heavy keys: {keys})" if keys else "")
            )
        if not self.hot_partitions:
            lines.append(
                f"  no partition above {SKEW_FACTOR:.1f}x the mean"
            )
        return lines


def detect_skew(
    task_partition_records: Sequence[Sequence[int]],
    task_key_counts: Sequence[Sequence[List[Tuple[Any, int]]]],
) -> SkewReport:
    """Fold per-map-task spill tallies into one :class:`SkewReport`.

    Key tallies are merged per partition and re-ranked; ties break on
    the key's repr so the report is identical across executors.
    """
    if not task_partition_records:
        return SkewReport([], {})
    num_partitions = len(task_partition_records[0])
    totals = [0] * num_partitions
    merged: List[Dict[Any, int]] = [{} for _ in range(num_partitions)]
    for task_index, per_partition in enumerate(task_partition_records):
        for partition, count in enumerate(per_partition):
            totals[partition] += count
        if task_index < len(task_key_counts) and task_key_counts[task_index]:
            for partition, ranked in enumerate(task_key_counts[task_index]):
                tally = merged[partition]
                for key, count in ranked:
                    tally[key] = tally.get(key, 0) + count
    heavy: Dict[int, List[Tuple[Any, int]]] = {}
    for partition, tally in enumerate(merged):
        if tally:
            ranked = sorted(
                tally.items(), key=lambda kc: (-kc[1], repr(kc[0]))
            )
            heavy[partition] = ranked[:TRACK_KEYS]
    return SkewReport(totals, heavy)
