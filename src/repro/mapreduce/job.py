"""Job definitions for the in-process MapReduce engine.

A job is a mapper (and optional reducer) over input splits.  Splits
carry a *preferred node* so the engine can honour data locality as the
logical block placement policy intends.
"""

from __future__ import annotations

import dataclasses
import operator
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import MapReduceError
from repro.mapreduce.policy import ExecutionPolicy
from repro.obs.metrics import NULL_METRICS
from repro.obs.recorder import NULL_SPAN, ActiveSpan, Span
from repro.shuffle.config import DEFAULT_SHUFFLE, ShuffleConfig
from repro.shuffle.keys import stable_hash_partition

KeyValue = Tuple[Any, Any]


class InputSplit:
    """One unit of map-task input.

    ``preferred_node`` and ``size_bytes`` are keyword-only so call
    sites stay self-describing (matching ``MapReduceEngine(nodes=...)``).
    """

    __slots__ = ("split_id", "payload", "preferred_node", "size_bytes")

    def __init__(self, split_id: str, payload: Any, *,
                 preferred_node: Optional[str] = None, size_bytes: int = 0):
        self.split_id = split_id
        #: Opaque payload handed to the record reader / mapper.
        self.payload = payload
        self.preferred_node = preferred_node
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return f"InputSplit({self.split_id}, node={self.preferred_node})"


#: The partitioner of a job that names none: stable hash partitioning; a
#: non-canonical key raises ``PartitioningError`` (:mod:`repro.shuffle.keys`).
default_partitioner = stable_hash_partition


class TaskContext:
    """Per-task emit surface handed to mappers and reducers.

    Besides key/value emission, the context is the *only* sanctioned
    side-effect channel: file writes and named attachments are buffered
    here and applied by the engine in task-index order after the task
    completes.  That is what keeps tasks pure functions of their input
    — a retried attempt replaces its predecessor's buffered effects
    wholesale, and a task forked into another process ships its effects
    back with its outputs instead of mutating a copied filesystem.
    """

    def __init__(self, task_id: str, node: str, traced: bool = False,
                 task_index: int = -1, metrics: Any = NULL_METRICS):
        self.task_id = task_id
        self.node = node
        #: The job's metrics registry, for counters task code bumps
        #: (HDFS reads of a round's input); pool replies carry them.
        self.metrics = metrics
        #: This task's index within its wave (map index or reducer
        #: index), so mappers over sealed record blocks can name their
        #: outputs without the split smuggling an index in its payload.
        self.task_index = task_index
        self.emitted: List[KeyValue] = []
        #: Buffered file writes: (path, data, logical_partition).
        self.files: List[Tuple[str, bytes, bool]] = []
        #: Named values returned to the job driver, in attach order.
        self.attachments: List[Tuple[str, Any]] = []
        #: Mapper-reported input record count (overrides the split count).
        self.input_records: Optional[int] = None
        #: Mapper-reported size of what it emitted (overrides re-summing
        #: the built-in estimator over the emitted values).
        self.output_bytes: Optional[int] = None
        #: Whether ``span()`` records (set by the engine from ObsConfig).
        self.traced = traced
        #: Buffered spans, stitched into the driver recorder on success.
        self.spans: List[Span] = []
        #: Spans open around the current one; untraced, no span opens.
        self._open: Optional[List[ActiveSpan]] = [] if traced else None

    def emit(self, key: Any, value: Any) -> None:
        self.emitted.append((key, value))

    def write_file(self, path: str, data: bytes,
                   logical_partition: bool = False) -> None:
        """Buffer a file write; the engine applies it on task success."""
        self.files.append((path, data, logical_partition))

    def attach(self, name: str, value: Any) -> None:
        """Return a named value to the driver alongside the outputs."""
        self.attachments.append((name, value))

    def attachment(self, name: str, factory: Callable[[], Any]) -> Any:
        """Get-or-create this task's named attachment (one per task)."""
        for key, value in self.attachments:
            if key == name:
                return value
        value = factory()
        self.attachments.append((name, value))
        return value

    def span(self, name: str, category: str = "task", **attrs: Any):
        """Open a buffered span around a section of task work.

        Task code may run in a forked worker, so the span cannot reach
        the driver's recorder: it is buffered in ``spans`` and travels
        back inside the task outcome (the side-effect discipline of
        ``write_file``/``attach``).  The shared null span unless the
        job runs under an enabled recorder.
        """
        if not self.traced:
            return NULL_SPAN
        return ActiveSpan(self, name, category, self.task_id, attrs)

    # The owner side of ActiveSpan: a span records itself here.
    def now(self) -> float:
        return time.perf_counter()

    def _open_stack(self) -> List[ActiveSpan]:
        return self._open

    def _append(self, span: Span) -> None:
        self.spans.append(span)

    def set_input_records(self, count: int) -> None:
        """Report how many records this task's split actually held."""
        self.input_records = count

    def set_output_bytes(self, size: int) -> None:
        """Report a map task's output bytes when the mapper already
        knows them (it just sized the very values it emits)."""
        self.output_bytes = size


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """The one description of a MapReduce job: a frozen value.

    Built by the caller, validated and default-resolved once here at
    construction, and read as-is by :class:`~repro.mapreduce.engine.
    MapReduceEngine`, the executors' ``JobContext`` and
    :func:`repro.api.run_job` — there is no second, engine-facing copy
    to drift from it.  ``dataclasses.replace`` derives variants.

    Parameters
    ----------
    name:
        Display name ("round1-alignment").
    mapper:
        ``mapper(split_payload, context)`` — invoked once per split,
        matching how Gesall wraps whole programs around logical
        partitions.  Emits key/value pairs via ``context.emit``.
    reducer:
        Optional ``reducer(key, values, context)``.  Absent => map-only
        job and the map outputs are the job outputs.  Reduce input
        arrives in key order; to partition on one part of a key and
        sort on the rest, emit a composite key and pass a partitioner
        that reads its first field.
    partitioner:
        ``f(key, num_reducers) -> int``; ``None`` resolves to
        :func:`default_partitioner`.
    num_reducers:
        Reducer count (map-only jobs take the default 1).
    io_sort_records:
        Map-side sort buffer capacity in records; exceeding it spills
        a sorted run (mapreduce.task.io.sort.mb analogue).
    shuffle:
        :class:`~repro.shuffle.config.ShuffleConfig` for the job's
        shuffle byte plane (codec, fetch retries);
        ``None`` resolves to the shared uncompressed config.
    policy, nodes:
        How and where the job runs when :func:`repro.api.run_job` has
        to build its own engine; an engine passed in uses its own.
    reduce_output:
        Optional ``reduce_output(pairs, context)`` — the reduce task's
        output format, called once per attempt after the last group
        (also when the task emitted nothing) with every pair the
        reducer emitted and the same context; what *it* emits replaces
        the pairs as the task's output.  It gives a reduce task what a
        map-only mapper has — a place that sees the whole partition —
        so the partition is sorted, encoded and ``write_file``-d in
        the worker instead of shipped to the driver as records.
    """

    name: str
    mapper: Callable[[Any, TaskContext], None]
    reducer: Optional[Callable[[Any, List[Any], TaskContext], None]] = None
    partitioner: Optional[Callable[[Any, int], int]] = None
    num_reducers: int = 1
    io_sort_records: int = 100_000
    shuffle: Optional[ShuffleConfig] = None
    policy: Optional[ExecutionPolicy] = None
    nodes: Optional[Tuple[str, ...]] = None
    reduce_output: Optional[Callable[[List[KeyValue], TaskContext], None]] = None

    def __post_init__(self):
        for field, default in (
            ("partitioner", default_partitioner),
            ("shuffle", DEFAULT_SHUFFLE),
        ):
            if getattr(self, field) is None:
                object.__setattr__(self, field, default)
        # A job that would fail mid-run (e.g. reducers requested but no
        # reducer supplied) fails here, before any task runs — and being
        # frozen, it cannot be mutated into such a job afterwards.
        if self.num_reducers < 1:
            raise MapReduceError("num_reducers must be >= 1")
        if self.io_sort_records < 1:
            raise MapReduceError("io_sort_records must be >= 1")
        if not callable(self.mapper):
            raise MapReduceError(f"job {self.name}: mapper is not callable")
        if self.reducer is None and self.num_reducers != 1:
            raise MapReduceError(
                f"job {self.name}: num_reducers={self.num_reducers} "
                "requested but no reducer supplied (map-only jobs take "
                "the default num_reducers=1)"
            )
        if self.reducer is not None and not callable(self.reducer):
            raise MapReduceError(f"job {self.name}: reducer is not callable")
        if self.reduce_output is not None:
            if not callable(self.reduce_output):
                raise MapReduceError(
                    f"job {self.name}: reduce_output is not callable"
                )
            if self.reducer is None:
                raise MapReduceError(
                    f"job {self.name}: reduce_output supplied but no "
                    "reducer (a map-only mapper already sees its whole split)"
                )
        if not callable(self.partitioner):
            raise MapReduceError(f"job {self.name}: partitioner is not callable")
        if not isinstance(self.shuffle, ShuffleConfig):
            raise MapReduceError(
                f"job {self.name}: shuffle must be a ShuffleConfig, "
                f"got {type(self.shuffle).__name__}"
            )

    @property
    def is_map_only(self) -> bool:
        return self.reducer is None


#: Sizing rule per value type: a cache of a pure function of the type,
#: filled in as types are first seen (so bounded by the types emitted).
_SIZERS: Dict[type, Callable[[Any], int]] = {}


def _default_value_size(value: Any) -> int:
    """Approximate serialized size of a value for byte accounting."""
    kind = type(value)
    sizer = _SIZERS.get(kind)
    if sizer is None:
        if callable(getattr(kind, "line_bytes", None)):
            sizer = operator.methodcaller("line_bytes")
        elif issubclass(kind, (bytes, bytearray)):
            sizer = len
        elif issubclass(kind, str):
            sizer = lambda text: len(text) + 1
        elif issubclass(kind, (list, tuple)):
            sizer = lambda items: sum(map(_default_value_size, items))
        else:
            sizer = lambda other: len(repr(other))
        _SIZERS[kind] = sizer
    return sizer(value)


def make_splits(
    payloads: Iterable[Any],
    prefix: str = "split",
    nodes: Optional[List[str]] = None,
    sizes: Optional[List[int]] = None,
) -> List[InputSplit]:
    """Convenience: wrap payloads into numbered splits."""
    splits = []
    for index, payload in enumerate(payloads):
        node = nodes[index % len(nodes)] if nodes else None
        size = sizes[index] if sizes else 0
        splits.append(
            InputSplit(f"{prefix}-{index:05d}", payload,
                       preferred_node=node, size_bytes=size)
        )
    return splits
