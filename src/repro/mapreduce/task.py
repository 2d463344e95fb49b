"""What runs in a worker: one task attempt, from call to outcome.

The driver (:mod:`repro.mapreduce.engine`) describes every task attempt
as a :class:`TaskCall` and hands it to an executor; the driver or the
forked worker the executor picks runs ``call.run(context)`` against the
job's :class:`~repro.mapreduce.executors.JobContext` and ships back a
picklable :class:`TaskOutcome`, or an :class:`AttemptFailed` marker when
the attempt raised.  A call is exactly one attempt, number
``epoch + 1``: re-running a task is the driver's job, under a fresh
fencing epoch.  Map and reduce share the descriptor, the attempt's
chaos-plan checks and the outcome; they differ only in the task
function the call's ``kind`` selects.

Nothing here touches driver state: a task is a pure function of its
split (or fetched segments) plus the job spec, and everything it wants
applied — outputs, file writes, attachments, telemetry — travels back
inside the outcome.
"""

from __future__ import annotations

import gc
import threading
import time
import traceback
from itertools import groupby
from typing import Any, List, Optional, Tuple

from repro.mapreduce.blocks import RecordBlock
from repro.mapreduce.history import TaskAttempt
from repro.mapreduce.job import KeyValue, TaskContext, _default_value_size
from repro.mapreduce.policy import InjectedTaskFault
from repro.obs.recorder import Span
from repro.shuffle.codec import get_codec
from repro.shuffle.keys import KEY_OF, VALUE_OF
from repro.shuffle.merge import merge_sorted_runs_list
from repro.shuffle.skew import TRACK_KEYS
from repro.shuffle.spill import SpillBuffer


class TaskOutcome:
    """Picklable result of one attempt (crosses the fork boundary intact)."""

    __slots__ = (
        "emitted", "segments", "input_records", "output_records",
        "output_bytes", "spills", "groups", "shuffled_records",
        "shuffled_bytes", "shuffle_raw_bytes", "partition_records",
        "key_counts", "crc_failures", "fetch_retries", "file_writes",
        "attachments", "spans", "started_at", "finished_at",
        "worker", "node", "injected_delays", "lease_charged", "zombie",
    )

    def __init__(self):
        self.emitted: List[KeyValue] = []
        #: Map tasks: one framed segment blob per reduce partition.
        self.segments: Optional[List[bytes]] = None
        self.input_records = 0
        self.output_records = 0
        self.output_bytes = 0
        self.spills = 0
        self.groups = 0
        self.shuffled_records = 0
        self.shuffled_bytes = 0
        #: Pre-compression bytes of the segments this task fetched.
        self.shuffle_raw_bytes = 0
        #: Map tasks: records routed to each reduce partition.
        self.partition_records: Optional[List[int]] = None
        #: Map tasks: per-partition heaviest keys for the skew detector.
        self.key_counts: Optional[List[List[Tuple[Any, int]]]] = None
        #: Reduce tasks: fetch attempts that failed the segment CRC.
        self.crc_failures = 0
        #: Reduce tasks: extra fetch attempts past the first.
        self.fetch_retries = 0
        self.file_writes: List[Tuple[str, bytes, bool]] = []
        self.attachments: List[Tuple[str, Any]] = []
        #: Node that ran this attempt.
        self.node = ""
        #: 1 when the chaos plan charged this attempt a delay.
        self.injected_delays = 0
        #: Charged runtime the lease covers: measured wall time plus
        #: injected delays (charged, never slept).
        self.lease_charged = 0.0
        #: Chaos-marked zombie: the driver already considers this
        #: attempt's lease lost; its commit must be fenced.
        self.zombie = False
        #: Spans buffered by the task context when traced — its phases,
        #: with their resource readings, and the sections task code
        #: wrapped — stitched by the parent.
        self.spans: List[Span] = []
        #: Run-time stamps set by the executor's tracing wrapper.
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.worker = ""


class AttemptFailed:
    """Marker result: the attempt raised.

    Not an exception — it comes back in the task's result slot, as a
    dead pool worker's ``WorkerCrash`` does, and the driver settles it
    like every other lost attempt.  The error and its traceback travel
    as text, so the marker crosses the fork boundary whether or not the
    exception pickles.
    """

    __slots__ = ("reason", "error", "traceback", "injected")

    def __init__(self, exc: Exception):
        #: The exception's class name, the node's blacklist reason.
        self.reason = type(exc).__name__
        self.error = str(exc)
        self.traceback = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__
        ))
        #: A chaos-plan fault (counted in ``INJECTED_FAULTS``).
        self.injected = isinstance(exc, InjectedTaskFault)

    def __repr__(self) -> str:
        return f"AttemptFailed({self.reason}: {self.error})"


def attempt_from_outcome(
    task_id: str, kind: str, outcome: TaskOutcome, attempts: int = 1,
    backup: bool = False,
) -> TaskAttempt:
    """The job-history record of one settled attempt, primary or backup;
    a primary's ``attempts`` is its committed epoch + 1."""
    task = TaskAttempt(task_id, kind, outcome.node)
    task.backup = backup
    task.input_records = outcome.input_records
    task.output_records = outcome.output_records
    task.attempts = attempts
    task.spills = outcome.spills
    return task


class TaskCall:
    """Call descriptor for one task attempt, map or reduce.

    The job's half of a task — its spec, its input splits, the spill
    I/O layer — lives in the ``JobContext`` a pooled worker holds (from
    its fork image, or sent once per job), so a map call is the same few
    bytes (task id, node, fencing epoch) whether it runs in-process or
    crosses a pipe.  ``node`` is where the driver placed this attempt
    and ``epoch`` the fencing token it presents; it is attempt
    ``epoch + 1``, the number the chaos plan's task events address.

    A reduce call additionally names where the attempt fetches its
    segments: ``paths`` is this reducer's segment from every mapper, in
    map-task order, and ``store`` the read-only :class:`SegmentStore`
    holding the replica chains the driver read for them.  It pickles
    with the call, so the task runs the same way on every executor —
    same CRC verification, same replica failover, same counters,
    byte-identical output.
    """

    __slots__ = ("kind", "task_id", "node", "epoch", "store", "paths")

    def __init__(self, kind: str, task_id: str, node: str,
                 epoch: int = 0, store: Any = None,
                 paths: Optional[List[str]] = None):
        self.kind = kind  # "map" | "reduce"
        self.task_id = task_id
        self.node = node
        self.epoch = epoch
        self.store = store
        self.paths = paths

    @property
    def index(self) -> int:
        """The task's index within its wave (split or reducer index)."""
        return int(self.task_id.rsplit("-", 1)[-1])

    def with_epoch(self, epoch: int, node: str) -> "TaskCall":
        """The same task's next attempt: a fresh token, and a node the
        driver placed against the *current* blacklist."""
        return TaskCall(
            self.kind, self.task_id, node, epoch, self.store, self.paths,
        )

    def run(self, context: Any) -> Any:
        """Run this one attempt; a :class:`TaskOutcome`, or
        :class:`AttemptFailed` if it raised.

        The chaos plan's raise, delay and zombie events for attempt
        ``epoch + 1`` apply here.  A delay is charged to the measured
        runtime (``lease_charged``) without sleeping through it, so the
        driver's lease check trips — or doesn't — identically under
        the serial and forked engines.
        """
        task_id, attempt = self.task_id, self.epoch + 1
        plan = context.policy.fault_plan
        try:
            if plan is not None and plan.raises_in(task_id, attempt):
                raise InjectedTaskFault(
                    f"chaos plan fault: {task_id} attempt {attempt}"
                )
            started = time.perf_counter()
            with _collector_paused:
                outcome = _TASKS[self.kind](context, self)
            outcome.lease_charged = time.perf_counter() - started
        except Exception as exc:
            return AttemptFailed(exc)
        outcome.node = self.node
        if plan is not None:
            charged = plan.delay_for(task_id, attempt)
            outcome.injected_delays = int(charged > 0)
            outcome.lease_charged += charged
            outcome.zombie = plan.zombie_in(task_id, attempt)
        return outcome


class _CollectorPause:
    """The cyclic collector is off while any attempt body runs.

    A task body builds 10^4-10^5 acyclic records that every generation
    sweep re-walks for nothing; reference counting frees them as before
    and cycles wait for the collector to resume.  The job server's slot
    threads run serial jobs side by side, so attempts overlap: the first
    one in disables and the last one out restores the state the first
    one found.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()


_collector_paused = _CollectorPause()


def _seal(outcome: TaskOutcome, context: TaskContext) -> None:
    """Move the context's buffered effects and telemetry into the outcome."""
    outcome.output_records = len(context.emitted)
    outcome.file_writes = context.files
    outcome.attachments = context.attachments
    outcome.spans = context.spans


def run_map_task(context: Any, call: TaskCall) -> TaskOutcome:
    """One complete map task: the ``map`` phase, then ``spill``.

    A split whose payload is a sealed :class:`RecordBlock` is decoded
    exactly once, here, inside whatever worker the executor placed the
    task on, as a ``decode`` span in the ``map`` phase.  Phases are
    context spans like any other (the measured counterpart of the
    simulator's Fig 7 phases): recorded when the job is traced, the null
    span otherwise.
    """
    job = context.job
    task = TaskContext(call.task_id, call.node, traced=context.trace,
                       task_index=call.index, metrics=context.metrics)
    outcome = TaskOutcome()
    payload = context.splits[call.index].payload
    block = isinstance(payload, RecordBlock)
    with task.span("map", "phase"):
        if block:
            with task.span("decode"):
                payload = payload.decode()
        job.mapper(payload, task)
    if task.input_records is not None:
        outcome.input_records = int(task.input_records)
    else:
        outcome.input_records = len(payload) if block else 1
    if task.output_bytes is not None:
        outcome.output_bytes = int(task.output_bytes)
    else:
        outcome.output_bytes = sum(
            _default_value_size(v) for _, v in task.emitted
        )
    if job.is_map_only:
        outcome.emitted = task.emitted
    else:
        # Sort-spill-merge into one framed segment per reducer.  Runs
        # go to disk, with ENOSPC fallback routing, when the job
        # context carries an I/O layer (spill directories configured).
        with task.span("spill", "phase"):
            buffer = SpillBuffer(
                job.num_reducers, job.partitioner, None,
                job.io_sort_records, track_keys=TRACK_KEYS,
                spill_io=context.io,
                spill_dirs=context.policy.resolved_io().spill_dirs,
                spill_prefix=f"{call.task_id}-e{call.epoch}",
            )
            buffer.add_all(task.emitted)
            spilled = buffer.finish(get_codec(job.shuffle.codec))
        outcome.spills = spilled.spills
        outcome.segments = [seg.blob for seg in spilled.segments]
        outcome.partition_records = spilled.partition_records
        outcome.key_counts = spilled.key_counts
    _seal(outcome, task)
    return outcome


def run_reduce_task(context: Any, call: TaskCall) -> TaskOutcome:
    """One complete reduce task: ``shuffle``, ``merge``, ``reduce`` phases.

    Fetches this reducer's segment from every mapper in map-task order
    (which is why reduce-side value order differs from the serial
    program's input order).  Every fetch is CRC-verified end-to-end and
    refetched from another replica on corruption, up to the job's
    ``shuffle.fetch_retries``.  A job's ``reduce_output`` runs once per
    attempt after the last group, inside the ``reduce`` phase, and
    replaces the emitted pairs as the task's output; ``output_records``
    still counts the pairs.
    """
    job = context.job
    task = TaskContext(call.task_id, call.node, traced=context.trace,
                       task_index=call.index, metrics=context.metrics)
    outcome = TaskOutcome()
    runs: List[List[KeyValue]] = []
    with task.span("shuffle", "phase"):
        for path in call.paths:
            fetch = call.store.fetch(
                path, retries=job.shuffle.fetch_retries
            )
            segment = fetch.segment
            runs.append(segment.records)
            outcome.shuffled_records += segment.record_count
            outcome.shuffled_bytes += segment.blob_bytes
            outcome.shuffle_raw_bytes += segment.raw_bytes
            outcome.crc_failures += fetch.crc_failures
            outcome.fetch_retries += fetch.refetches
    # Merge: a stable sort over the concatenated pre-sorted segments
    # keeps map-task arrival order within a key, like Hadoop's merge.
    with task.span("merge", "phase"):
        fetched = merge_sorted_runs_list(runs, key=KEY_OF)
    with task.span("reduce", "phase"):
        for key, group in groupby(fetched, KEY_OF):
            job.reducer(key, list(map(VALUE_OF, group)), task)
            outcome.groups += 1
        pairs = task.emitted
        if job.reduce_output is not None:
            # The job's output format sees the whole partition here,
            # in the worker; what it emits (and writes) is the task's
            # output, so the pairs never cross to the driver.
            task.emitted = []
            job.reduce_output(pairs, task)
    outcome.input_records = len(fetched)
    outcome.emitted = task.emitted
    _seal(outcome, task)
    outcome.output_records = len(pairs)
    return outcome


_TASKS = {"map": run_map_task, "reduce": run_reduce_task}
