"""Map-side sort-spill-merge buffer.

One :class:`SpillBuffer` lives inside each map task.  Each emitted
``(key, value)`` record is routed once, straight into its partition's
list; when the buffer holds ``spill_records`` of them
(``mapreduce.task.io.sort.mb`` in record units) the buffer *spills*:
each partition's list is stably sorted by the job's record key and
frozen as one run.  ``finish`` spills the remainder and merges every
run's slice of each partition into one sorted, framed, compressed
segment per reducer; an output that never filled the buffer is one run,
sorted and encoded straight from memory.  A run spilled to disk is a
segment frame too (``raw`` codec): a damaged run file fails the task
with :class:`~repro.errors.ShuffleCorruptionError`, never feeds it
wrong records.

Ordering contract (the one :mod:`repro.shuffle.merge` states): runs are
spilled in emit order and merging them is a stable sort over their
concatenation, so the merged segment is byte-for-byte what one stable
sort over the task's full output would produce, however many runs it
was spilled in and whether they sat in memory or on disk.

The buffer also feeds the skew detector for free: at each spill it
counts records per partition and (optionally) tallies their keys,
shipping the totals back in the task outcome.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Callable, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ShuffleCorruptionError, ShuffleError, StorageFullError
from repro.shuffle.codec import Codec, get_codec
from repro.shuffle.keys import KEY_OF, record_key
from repro.shuffle.merge import merge_sorted_runs_list
from repro.shuffle.segment import (
    EncodedSegment,
    KeyValue,
    decode_segment,
    encode_segment,
)

#: Spill runs are framed uncompressed: they never leave the map task.
_RUN_CODEC = get_codec("raw")


class SpillResult(NamedTuple):
    """Everything a finished map-side shuffle hands the task outcome."""

    #: One encoded segment per reduce partition, in partition order.
    segments: List[EncodedSegment]
    #: Number of sorted runs written (>=1, even for empty output).
    spills: int
    #: Records this task routed to each partition.
    partition_records: List[int]
    #: Per partition: the task's heaviest keys as (key, count),
    #: heaviest first; empty when key tracking is off.
    key_counts: List[List[Tuple[Any, int]]]


class SpillBuffer:
    """Bounded sort buffer producing per-reducer merged segments."""

    def __init__(
        self,
        num_partitions: int,
        partitioner: Callable[[Any, int], int],
        sort_key: Optional[Callable[[Any], Any]],
        spill_records: int,
        track_keys: int = 0,
        spill_io: Optional[Any] = None,
        spill_dirs: Tuple[str, ...] = (),
        spill_prefix: str = "run",
    ):
        if spill_records < 1:
            raise ShuffleError("spill_records must be >= 1")
        if spill_io is not None and not spill_dirs:
            raise ShuffleError("spill_io needs at least one spill dir")
        self._num_partitions = num_partitions
        self._partitioner = partitioner
        #: The one ordering every sort and merge below uses (over whole
        #: records; ``sort_key=None`` is natural key order).
        self._record_key = record_key(sort_key)
        self._spill_records = spill_records
        self._track_keys = track_keys
        #: Durable-I/O layer for real spill-to-disk; None keeps runs in
        #: memory (the original behaviour, still the default).
        self._spill_io = spill_io
        self._spill_dirs = tuple(spill_dirs)
        self._spill_prefix = spill_prefix
        #: The in-memory buffer: per partition, the emitted records in
        #: emit order; ``_room`` more fit before the next spill.
        self._pending: List[List[KeyValue]] = [
            [] for _ in range(num_partitions)
        ]
        self._room = spill_records
        #: Frozen runs in spill order: a per-partition list of sorted
        #: records or, once on disk, the path finish() reads it back from.
        self._runs: List[Any] = []
        #: Totals over the runs frozen so far.
        self.partition_records = [0] * num_partitions
        self._key_tallies = [Counter() for _ in range(num_partitions)]

    def add(self, key: Any, value: Any) -> None:
        """Route one record."""
        self.add_all(((key, value),))

    def add_all(self, records: Iterable[KeyValue]) -> None:
        """Route records, in order, each into its partition's list.

        The record tuple itself is stored, so each should be its own
        tuple, as ``emit`` makes them: one routed twice would be pickled
        once and back-referenced — other segment bytes, same contents.
        """
        partitioner, count = self._partitioner, self._num_partitions
        pending, room = self._pending, self._room
        try:
            for record in records:
                partition = partitioner(record[0], count)
                # Checked before indexing: -1 must not land in the last list.
                if not 0 <= partition < count:
                    raise ShuffleError(
                        f"partitioner placed key {record[0]!r} in partition "
                        f"{partition}, outside [0, {count})"
                    )
                pending[partition].append(record)
                room -= 1
                if not room:
                    self._spill()
                    pending, room = self._pending, self._spill_records
        finally:
            self._room = room

    def _spill(self, to_disk: bool = True) -> None:
        """Freeze the buffer as one run of per-partition sorted slices."""
        run = self._pending
        self._pending = [[] for _ in range(self._num_partitions)]
        for index, slice_ in enumerate(run):
            self.partition_records[index] += len(slice_)
            if self._track_keys:
                self._tally(self._key_tallies[index], slice_)
            slice_.sort(key=self._record_key)  # stable
        path = None
        if to_disk and self._spill_io is not None:
            path = self._write_run_to_disk(len(self._runs), run)
        # A run durable on disk drops its in-memory copy.
        self._runs.append(path or run)

    @staticmethod
    def _tally(tally: Counter, slice_: List[KeyValue]) -> None:
        """Count one slice's keys in emit order (a C loop)."""
        keys = map(KEY_OF, slice_)
        while True:
            try:
                tally.update(keys)
                return
            except TypeError:
                pass  # unhashable key: placed, not tracked; ``keys`` is past it

    def _write_run_to_disk(
        self, run_index: int, run: List[List[KeyValue]]
    ) -> Optional[str]:
        """Persist one sorted run; returns its path, or None.

        Walks the spill directories in order: ENOSPC on the primary
        degrades the run to the next directory (counted in
        ``io.fallback_spills``).  When *every* directory is full the
        run stays in memory — degraded further, but the task still
        completes — rather than failing the map task over intermediate
        data that has an in-memory home anyway.
        """
        payload = encode_segment(run, _RUN_CODEC).blob
        name = os.path.join(
            "mapspill", f"{self._spill_prefix}-run{run_index:03d}.spill"
        )
        for dir_index, root in enumerate(self._spill_dirs):
            target = os.path.join(root, name)
            try:
                self._spill_io.write_atomic(target, payload)
            except StorageFullError:
                continue
            if dir_index > 0:
                self._spill_io.stats.fallback_spills += 1
            return target
        return None

    def _materialized_runs(self) -> List[List[List[KeyValue]]]:
        """All runs, disk-spilled ones read back (and their files freed)."""
        runs: List[List[List[KeyValue]]] = []
        for run in self._runs:
            if isinstance(run, str):  # the path of a run spilled to disk
                data = self._spill_io.read_bytes(run)
                if data is None:
                    raise ShuffleError(f"spilled run missing: {run}")
                self._spill_io.unlink(run)
                try:
                    run = decode_segment(data).records
                except ShuffleError as exc:
                    # This task wrote the frame: any damage is rot.
                    raise ShuffleCorruptionError(
                        f"spilled run {run} is damaged: {exc}"
                    ) from None
            runs.append(run)
        return runs

    def finish(self, codec: Codec) -> SpillResult:
        """Spill the tail, merge runs, and encode one segment/reducer."""
        if self._room < self._spill_records:
            # A tail that is the task's only run is encoded from memory,
            # not written out and read straight back (Hadoop renames a
            # lone spill to file.out); after an overflow it is a run
            # like the others.
            self._spill(to_disk=bool(self._runs))
        # Even an empty map output counts as one (empty) spill file,
        # matching Hadoop's SPILLED file accounting.
        spills = max(1, len(self._runs))
        runs = self._materialized_runs()
        segments = []
        for partition in range(self._num_partitions):
            merged = merge_sorted_runs_list(
                [run[partition] for run in runs], key=self._record_key
            )
            segments.append(encode_segment(merged, codec))
        # Deterministic heaviest-first order: count desc, then the key's
        # repr (value-determined for canonical key types).
        key_counts = [
            sorted(tally.items(), key=lambda kc: (-kc[1], repr(kc[0])))
            [: self._track_keys]
            for tally in self._key_tallies
        ]
        return SpillResult(
            segments, spills, list(self.partition_records), key_counts
        )
