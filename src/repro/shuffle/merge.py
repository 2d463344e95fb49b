"""Stable merge of pre-sorted runs.

Given runs each already sorted by ``key``, :func:`merge_sorted_runs_list`
returns exactly ``sorted(chain(*runs), key=key)`` — the same objects in
the same order: ascending key, equal keys in run order, and within a
run in input order.  It serves the map-side spill merge and the
reduce-side segment merge, and *is* that stable sort: Timsort finds
each presorted run and gallops through the merges in C.

The tie-break is load-bearing: the MapReduce engine's determinism
contract says a reducer sees equal-keyed values in map-task order, and
the engine hands over runs in exactly that order.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, List, Sequence, TypeVar

T = TypeVar("T")


def merge_sorted_runs_list(
    runs: Sequence[List[T]],
    key: Callable[[T], Any],
) -> List[T]:
    """Merge in-memory runs already sorted by ``key``; a single
    non-empty run is returned as-is (the same list, not a copy)."""
    runs = [run for run in runs if run]
    if len(runs) == 1:
        return runs[0]
    merged = list(chain.from_iterable(runs))
    merged.sort(key=key)  # stable
    return merged
