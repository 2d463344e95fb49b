"""What runs in a worker: one task attempt, from call to outcome.

The driver (:mod:`repro.mapreduce.engine`) describes every task attempt
as a :class:`TaskCall` and hands it to an executor; the driver or the
forked worker the executor picks runs ``call.run(context)`` against the
job's :class:`~repro.mapreduce.executors.JobContext` and ships back a
picklable :class:`TaskOutcome`.  Map and reduce share the descriptor,
the attempt loop (:func:`run_attempts`: placement rotation, chaos-plan
faults, hung-task detection, charged backoff) and the outcome; they
differ only in the task function the call's ``kind`` selects.

Nothing here touches driver state: a task is a pure function of its
split (or fetched segments) plus the job spec, and everything it wants
applied — outputs, file writes, attachments, telemetry — travels back
inside the outcome.
"""

from __future__ import annotations

import gc
import threading
import time
from itertools import groupby
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import MapReduceError, TaskTimeoutError
from repro.io.policy import charged_backoff
from repro.mapreduce.blocks import RecordBlock
from repro.mapreduce.history import TaskAttempt
from repro.mapreduce.job import KeyValue, TaskContext, _default_value_size
from repro.mapreduce.policy import ExecutionPolicy, InjectedTaskFault
from repro.obs.recorder import Span
from repro.shuffle.codec import get_codec
from repro.shuffle.keys import KEY_OF, VALUE_OF
from repro.shuffle.merge import merge_sorted_runs_list
from repro.shuffle.skew import TRACK_KEYS
from repro.shuffle.spill import SpillBuffer


class TaskOutcome:
    """Picklable result of one task (crosses the fork boundary intact)."""

    __slots__ = (
        "emitted", "segments", "input_records", "output_records",
        "output_bytes", "spills", "groups", "shuffled_records",
        "shuffled_bytes", "shuffle_raw_bytes", "partition_records",
        "key_counts", "crc_failures", "fetch_retries",
        "attempts", "injected_faults", "file_writes",
        "attachments", "spans", "samples", "started_at",
        "finished_at",
        "worker", "node", "timeouts", "injected_delays", "failures",
        "heartbeats", "lease_charged", "zombie", "backoff_seconds",
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
        self.attempts = 1
        self.injected_faults = 0
        self.file_writes: List[Tuple[str, bytes, bool]] = []
        self.attachments: List[Tuple[str, Any]] = []
        #: Node that ran the successful attempt (retries may move).
        self.node = ""
        #: Attempts discarded as hung by the policy's ``task_timeout``.
        self.timeouts = 0
        #: Chaos-plan delay injections charged to this task's attempts.
        self.injected_delays = 0
        #: Retry backoff charged (never slept) between failed attempts
        #: — deterministic seconds from ``charged_backoff``.
        self.backoff_seconds = 0.0
        #: ``(node, exception_name)`` per failed attempt, for the
        #: engine's per-node blacklist accounting.
        self.failures: List[Tuple[str, str]] = []
        #: Progress-heartbeat offsets relative to the attempt's start,
        #: read by the driver's LeaseMonitor.
        self.heartbeats: List[float] = []
        #: Charged runtime the lease covers: measured wall time plus
        #: injected delays, mirroring the ``task_timeout`` charge.
        self.lease_charged = 0.0
        #: Chaos-marked zombie: the driver already considers this
        #: attempt's lease lost; its commit must be fenced.
        self.zombie = False
        #: Spans buffered by the task context when traced — its phases
        #: and the sections task code wrapped — stitched by the parent.
        self.spans: List[Span] = []
        #: Worker resource samples taken over the attempt (sampling
        #: runs only when the recorder asks for it; None otherwise).
        self.samples: Optional[List[Any]] = None
        #: Run-time stamps set by the executor's tracing wrapper.
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.worker = ""


def attempt_from_outcome(
    task_id: str, kind: str, outcome: TaskOutcome, node: str = "",
    backup: bool = False,
) -> TaskAttempt:
    """The job-history record of one settled attempt, primary or backup.

    ``node`` is the placement fallback for an outcome that never ran
    (a crashed worker's synthesized zombie carries no node of its own).
    """
    task = TaskAttempt(task_id, kind, outcome.node or node)
    task.backup = backup
    task.input_records = outcome.input_records
    task.output_records = outcome.output_records
    task.attempts = outcome.attempts
    task.injected_faults = outcome.injected_faults
    task.timeouts = outcome.timeouts
    task.spills = outcome.spills
    return task


class TaskCall:
    """Call descriptor for one task attempt, map or reduce.

    The unpicklable half of a task — the job spec's closures, the input
    splits, the spill I/O layer — lives in the ``JobContext`` pooled
    workers inherit through their fork image, so a map call is the same
    few bytes (task id, placement candidates, fencing epoch) whether it
    runs in-process or crosses a pipe.

    A reduce call additionally names where the attempt fetches its
    segments: ``paths`` is this reducer's segment from every mapper, in
    map-task order, and ``store`` the :class:`SegmentStore` serving
    them.  In-process executors get the driver's live store — nothing
    is copied.  Pooled workers forked before any segment existed, so
    for them the driver snapshots each segment's replica chain into a
    read-only store that pickles with the call; the worker runs the
    ordinary reduce task against it — same CRC verification, same
    replica failover, same counters, byte-identical output.
    """

    __slots__ = ("kind", "task_id", "candidates", "epoch", "store", "paths")

    def __init__(self, kind: str, task_id: str, candidates: List[str],
                 epoch: int = 0, store: Any = None,
                 paths: Optional[List[str]] = None):
        self.kind = kind  # "map" | "reduce"
        self.task_id = task_id
        #: Placement candidates, primary first; retries rotate through.
        self.candidates = candidates
        #: Commit fencing token the attempt will present.
        self.epoch = epoch
        self.store = store
        self.paths = paths

    @property
    def index(self) -> int:
        """The task's index within its wave (split or reducer index)."""
        return int(self.task_id.rsplit("-", 1)[-1])

    def with_epoch(self, epoch: int, candidates: List[str]) -> "TaskCall":
        """The same task as a fenced backup: a fresh token, and fresh
        placement resolved against the *current* blacklist (the wave's
        own lists predate any mid-job blacklisting)."""
        return TaskCall(
            self.kind, self.task_id, candidates, epoch, self.store,
            self.paths,
        )

    def run(self, context: Any) -> TaskOutcome:
        return _TASKS[self.kind](context, self)


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


def run_attempts(
    body: Callable[[str], TaskOutcome],
    policy: ExecutionPolicy,
    call: TaskCall,
) -> TaskOutcome:
    """Execute a task body with fault injection, retry, and backoff.

    Runs wherever the executor put the task (possibly a forked worker);
    the attempt/fault tallies travel back inside the outcome.

    Attempt *k* runs on ``candidates[(k-1) % len(candidates)]``: the
    preferred node first, then a rotation through the remaining
    schedulable nodes, so a retry lands on a different node whenever
    one exists.  The candidate list is fixed by the parent before
    submission, keeping placement deterministic across executors.

    Hung-task detection charges any chaos-plan delay to the attempt's
    measured runtime without sleeping through it, so a ``task_timeout``
    trips — or doesn't — identically under the serial and forked
    engines.

    Retry backoff is *charged, never slept*: each failed attempt adds
    ``charged_backoff`` (the capped exponential curve) to the
    outcome's ``backoff_seconds``, so a preemption storm of retries
    shapes the cost accounting without hot-looping the wall clock.

    Chaos-plan task events target only epoch 0: a fenced backup models
    a fresh worker the plan never aimed at, so a zombified task cannot
    re-zombie its own backup forever.
    """
    task_id, candidates = call.task_id, call.candidates
    attempt = 0
    faults = 0
    timeouts = 0
    delays = 0
    backoff = 0.0
    failures: List[Tuple[str, str]] = []
    plan = policy.fault_plan if call.epoch == 0 else None
    while True:
        attempt += 1
        node = candidates[(attempt - 1) % len(candidates)]
        try:
            if plan is not None and plan.raises_in(task_id, attempt):
                faults += 1
                raise InjectedTaskFault(
                    f"chaos plan fault: {task_id} attempt {attempt}"
                )
            started = time.perf_counter()
            with _collector_paused:
                outcome = body(node)
            elapsed = time.perf_counter() - started
            charged = plan.delay_for(task_id, attempt) if plan else 0.0
            if charged > 0:
                delays += 1
            if (
                policy.task_timeout is not None
                and elapsed + charged > policy.task_timeout
            ):
                timeouts += 1
                raise TaskTimeoutError(
                    f"task {task_id} attempt {attempt} hung on {node}: "
                    f"{elapsed + charged:.3f}s charged > "
                    f"{policy.task_timeout}s timeout"
                )
            outcome.attempts = attempt
            outcome.injected_faults = faults
            outcome.timeouts = timeouts
            outcome.injected_delays = delays
            outcome.backoff_seconds = backoff
            outcome.node = node
            outcome.failures = failures
            outcome.lease_charged = elapsed + charged
            if plan is not None and plan.zombie_in(task_id, attempt):
                outcome.zombie = True
            return outcome
        except Exception as exc:
            failures.append((node, type(exc).__name__))
            if attempt > policy.task_retries:
                raise MapReduceError(
                    f"task {task_id} failed after {attempt} attempt(s): {exc}"
                ) from exc
            backoff += charged_backoff(attempt)


def _seal(outcome: TaskOutcome, context: TaskContext, t_start: float) -> None:
    """Move the context's buffered effects and telemetry into the outcome."""
    outcome.output_records = len(context.emitted)
    outcome.file_writes = context.files
    outcome.attachments = context.attachments
    outcome.heartbeats = [
        max(0.0, stamp - t_start) for stamp in context.heartbeats
    ]
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
    job, traced = context.job, context.trace
    split = context.splits[call.index]

    def body(node: str) -> TaskOutcome:
        # Always read (traced or not): heartbeat stamps are converted
        # to offsets from this origin for the lease monitor.
        t_start = time.perf_counter()
        task = TaskContext(
            call.task_id, node, traced=traced, task_index=call.index
        )
        outcome = TaskOutcome()
        payload = split.payload
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
        _seal(outcome, task, t_start)
        return outcome

    return run_attempts(body, context.policy, call)


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
    job, traced = context.job, context.trace

    def body(node: str) -> TaskOutcome:
        # Always read: the heartbeat origin for the lease monitor.
        t_start = time.perf_counter()
        task = TaskContext(
            call.task_id, node, traced=traced, task_index=call.index
        )
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
        _seal(outcome, task, t_start)
        outcome.output_records = len(pairs)
        return outcome

    return run_attempts(body, context.policy, call)


_TASKS = {"map": run_map_task, "reduce": run_reduce_task}
