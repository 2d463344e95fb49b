"""Stable merge of pre-sorted runs: one ordering contract, two forms.

Given runs each already sorted by ``key``, both forms yield exactly
``sorted(chain(*runs), key=key)`` — the same objects in the same order:
ascending key, equal keys in run order, and within a run in input
order.  :func:`merge_sorted_runs` is lazy (``heapq.merge``, stable in
iterable order), for runs streamed from disk by
:class:`repro.cleaning.sort.ExternalMergeSorter`;
:func:`merge_sorted_runs_list` is eager, for the in-memory map-side
spill merge and reduce-side segment merge, and *is* that stable sort:
Timsort finds each presorted run and gallops through the merges in C.

The tie-break is load-bearing: the MapReduce engine's determinism
contract says a reducer sees equal-keyed values in map-task order, and
the engine hands over runs in exactly that order.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, List, Sequence, TypeVar

T = TypeVar("T")


def merge_sorted_runs(
    runs: Sequence[Iterable[T]],
    key: Callable[[T], Any],
) -> Iterator[T]:
    """Lazily merge runs already sorted by ``key`` into one sorted stream."""
    return heapq.merge(*runs, key=key)


def merge_sorted_runs_list(
    runs: Sequence[List[T]],
    key: Callable[[T], Any],
) -> List[T]:
    """Eagerly merge in-memory runs already sorted by ``key``; a single
    non-empty run is returned as-is (the same list, not a copy)."""
    runs = [run for run in runs if run]
    if len(runs) == 1:
        return runs[0]
    merged = list(chain.from_iterable(runs))
    merged.sort(key=key)  # stable
    return merged
