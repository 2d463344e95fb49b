"""The in-process MapReduce runtime.

Executes a :class:`~repro.mapreduce.job.JobSpec` over input splits with
full sort-spill-merge shuffle semantics.  Every task attempt is a call
descriptor (:class:`_MapCall` / :class:`_ReduceCall`) run against the
job's context on a pluggable
:class:`~repro.mapreduce.executors.TaskExecutor` chosen by the engine's
:class:`~repro.mapreduce.policy.ExecutionPolicy` — serially, on a
bounded thread pool, or on a persistent fork-based worker pool — with
per-task retry, optional fault injection, and speculative re-execution
of straggler stubs.

Determinism is the engine's core contract (the paper's §3.2 argument,
enforced here): every task is a pure function of its split plus the
job spec, task outputs are collected by task index, shuffles merge in
map-task order regardless of completion order, and side effects (file
writes, attachments) are buffered in the task context and applied by
the parent in task-index order.  The three executors therefore produce
byte-identical :class:`JobResult`\\ s.
"""

from __future__ import annotations

import functools
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.plan import CorruptSegment
from repro.errors import MapReduceError, TaskTimeoutError
from repro.mapreduce import counters as C
from repro.mapreduce.blocks import RecordBlock
from repro.mapreduce.commit import LeaseMonitor, OutputCommitter, RoundJournal
from repro.mapreduce.counters import Counters
from repro.mapreduce.executors import (
    JobContext,
    TaskExecutor,
    WorkerCrash,
    build_executor,
)
from repro.mapreduce.history import JobHistory, TaskAttempt
from repro.mapreduce.job import InputSplit, JobSpec, KeyValue, TaskContext
from repro.mapreduce.policy import ExecutionPolicy, InjectedTaskFault
from repro.obs.recorder import NULL_RECORDER, Span
from repro.shuffle.codec import get_codec
from repro.shuffle.merge import merge_sorted_runs_list
from repro.shuffle.segment import segment_path
from repro.shuffle.skew import SkewReport, detect_skew
from repro.shuffle.spill import SpillBuffer
from repro.shuffle.store import (
    DiskSegmentBackend,
    SegmentStore,
    ShippedReplicaBackend,
)


class JobResult:
    """Everything a round hands to the next round (or the report)."""

    def __init__(self, job_name: str):
        self.job_name = job_name
        #: Map-only jobs: outputs per map task, in task order.
        self.map_outputs: List[List[KeyValue]] = []
        #: Jobs with reducers: outputs per reducer index.
        self.reduce_outputs: Dict[int, List[KeyValue]] = {}
        #: Named values attached by tasks, in task-index order.
        self.attachments: Dict[str, List[Any]] = {}
        self.counters = Counters()
        self.history = JobHistory(job_name)
        #: Shuffle skew report (jobs with reducers only).
        self.skew: Optional[SkewReport] = None

    def all_outputs(self) -> List[KeyValue]:
        """Concatenated outputs (map-task order or reducer order)."""
        if self.reduce_outputs:
            combined: List[KeyValue] = []
            for index in sorted(self.reduce_outputs):
                combined.extend(self.reduce_outputs[index])
            return combined
        return [kv for task in self.map_outputs for kv in task]

    def all_values(self) -> List[Any]:
        return [value for _, value in self.all_outputs()]

    def __iter__(self):
        """Iterate over the job's output key/value pairs."""
        return iter(self.all_outputs())

    def __len__(self) -> int:
        return len(self.all_outputs())

    def __repr__(self) -> str:
        return f"JobResult({self.job_name}, {self.counters})"


class _TaskOutcome:
    """Picklable result of one task (crosses the fork boundary intact)."""

    __slots__ = (
        "emitted", "segments", "input_records", "output_records",
        "output_bytes", "spills", "groups", "shuffled_records",
        "shuffled_bytes", "shuffle_raw_bytes", "partition_records",
        "key_counts", "crc_failures", "fetch_retries",
        "attempts", "injected_faults", "file_writes",
        "attachments", "phases", "spans", "samples", "started_at",
        "finished_at",
        "worker", "node", "timeouts", "injected_delays", "failures",
        "heartbeats", "lease_charged", "zombie",
        "block_decode_seconds", "combine_in", "combine_out",
        "backoff_seconds",
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
        #: — deterministic seconds from ``policy.retry_delay``.
        self.backoff_seconds = 0.0
        #: ``(node, exception_name)`` per failed attempt, for the
        #: engine's per-node blacklist accounting.
        self.failures: List[Tuple[str, str]] = []
        #: Measured phase boundaries {name: (start, end)} when traced,
        #: as raw perf_counter readings (system-wide monotonic clock).
        self.phases: Optional[Dict[str, Tuple[float, float]]] = None
        #: Progress-heartbeat offsets relative to the attempt's start,
        #: read by the driver's LeaseMonitor.
        self.heartbeats: List[float] = []
        #: Charged runtime the lease covers: measured wall time plus
        #: injected delays, mirroring the ``task_timeout`` charge.
        self.lease_charged = 0.0
        #: Chaos-marked zombie: the driver already considers this
        #: attempt's lease lost; its commit must be fenced.
        self.zombie = False
        #: Seconds spent decoding a sealed RecordBlock split (0.0 for
        #: plain payloads) — the one-time cost block encoding pays.
        self.block_decode_seconds = 0.0
        #: Map-side combiner records in/out (cumulative over passes).
        self.combine_in = 0
        self.combine_out = 0
        #: Spans buffered by the task context, stitched by the parent.
        self.spans: List[Span] = []
        #: Worker resource samples taken over the attempt (sampling
        #: runs only when the recorder asks for it; None otherwise).
        self.samples: Optional[List[Any]] = None
        #: Run-time stamps set by the executor's tracing wrapper.
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.worker = ""


def _identity(key: Any) -> Any:
    return key


def _run_attempts(
    body: Callable[[str], _TaskOutcome],
    policy: ExecutionPolicy,
    task_id: str,
    candidates: List[str],
    epoch: int = 0,
) -> _TaskOutcome:
    """Execute a task body with fault injection, retry, and backoff.

    Runs wherever the executor put the task (possibly a forked worker);
    the attempt/fault tallies travel back inside the outcome.

    Attempt *k* runs on ``candidates[(k-1) % len(candidates)]``: the
    preferred node first, then a rotation through the remaining
    schedulable nodes, so a retry lands on a different node whenever
    one exists.  The candidate list is fixed by the parent before
    submission, keeping placement deterministic across executors.

    Hung-task detection charges any chaos-plan delay to the attempt's
    measured runtime (the delay itself is slept through the policy's
    injectable ``sleep`` hook), so a ``task_timeout`` trips — or
    doesn't — identically under the serial, threaded, and forked
    engines and under a fake clock.

    Retry backoff is *charged, never slept*: each failed attempt adds
    ``policy.retry_delay`` (seeded exponential curve plus deterministic
    jitter) to the outcome's ``backoff_seconds``, so a preemption storm
    of retries shapes the cost accounting without hot-looping the wall
    clock.  Backup epochs key the jitter on ``task_id@eN`` so a fenced
    lineage de-synchronises from the one it replaced.

    ``epoch`` is the commit fencing token the attempt will present.
    Chaos-plan task events target only epoch 0: a fenced backup models
    a fresh worker the plan never aimed at, so a zombified task cannot
    re-zombie its own backup forever.
    """
    attempt = 0
    faults = 0
    timeouts = 0
    delays = 0
    backoff = 0.0
    failures: List[Tuple[str, str]] = []
    plan = policy.fault_plan if epoch == 0 else None
    backoff_key = task_id if epoch == 0 else f"{task_id}@e{epoch}"
    while True:
        attempt += 1
        node = candidates[(attempt - 1) % len(candidates)]
        try:
            if policy.injects_fault(task_id, attempt):
                faults += 1
                raise InjectedTaskFault(
                    f"injected fault: {task_id} attempt {attempt}"
                )
            if plan is not None and plan.raises_in(task_id, attempt):
                faults += 1
                raise InjectedTaskFault(
                    f"chaos plan fault: {task_id} attempt {attempt}"
                )
            started = time.perf_counter()
            outcome = body(node)
            elapsed = time.perf_counter() - started
            charged = plan.delay_for(task_id, attempt) if plan else 0.0
            if charged > 0:
                delays += 1
                policy.sleep(charged)
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
            backoff += policy.retry_delay(backoff_key, attempt)


def _execute_map_task(
    job: JobSpec,
    split: InputSplit,
    candidates: List[str],
    task_id: str,
    policy: ExecutionPolicy,
    traced: bool = False,
    epoch: int = 0,
    override_candidates: Optional[List[str]] = None,
    io: Optional[Any] = None,
) -> _TaskOutcome:
    """One complete map task: block decode, map, spill (sort + combine).

    A split whose payload is a sealed :class:`RecordBlock` is decoded
    exactly once, here, inside whatever worker the executor placed the
    task on — the decode cost is measured into the outcome so the
    driver can publish ``map.block_decode_seconds``.  The job's
    combiner (if any) runs *inside* the :class:`SpillBuffer`, so
    segments are sealed already pre-aggregated.

    With ``traced`` on, phase boundaries (map / spill) are measured
    with ``perf_counter`` and returned in the outcome so the parent can
    stitch real wall-clock phases into the job history — the measured
    counterpart of the simulator's Fig 7 phases.
    """

    def body(node: str) -> _TaskOutcome:
        clock = time.perf_counter
        # Always measured (not only when traced): heartbeat stamps are
        # converted to offsets from this origin for the lease monitor.
        t_start = clock()
        payload = split.payload
        block_records = None
        decode_seconds = 0.0
        if isinstance(payload, RecordBlock):
            t_decode = clock()
            block_records = payload.decode()
            decode_seconds = clock() - t_decode
        context = TaskContext(
            task_id, node, traced=traced,
            task_index=int(task_id.rsplit("-", 1)[-1]),
        )
        job.mapper(
            block_records if block_records is not None else payload,
            context,
        )
        t_map_end = clock() if traced else 0.0
        outcome = _TaskOutcome()
        outcome.block_decode_seconds = decode_seconds
        outcome.heartbeats = [
            max(0.0, stamp - t_start) for stamp in context.heartbeats
        ]
        if traced:
            outcome.phases = {"map": (t_start, t_map_end)}
            outcome.spans = context.spans
        if context.input_records is not None:
            outcome.input_records = int(context.input_records)
        elif block_records is not None:
            outcome.input_records = len(block_records)
        elif job.record_counter is not None:
            outcome.input_records = int(job.record_counter(payload))
        else:
            outcome.input_records = 1
        outcome.output_records = len(context.emitted)
        outcome.output_bytes = sum(
            job.value_size(v) for _, v in context.emitted
        )
        outcome.file_writes = context.files
        outcome.attachments = context.attachments
        if job.is_map_only:
            outcome.emitted = context.emitted
            return outcome
        # Sort-spill-merge: every io_sort_records-full buffer spills one
        # sorted run (combined in place when the job has a combiner);
        # finish() merges the runs into one framed, compressed,
        # CRC-checksummed segment per reducer.
        io_policy = policy.resolved_io()
        buffer = SpillBuffer(
            job.num_reducers, job.partitioner, job.sort_key or _identity,
            job.io_sort_records, track_keys=job.shuffle.track_keys,
            combiner=job.combiner,
            # Real spill-to-disk through the durable-I/O layer when the
            # policy configures spill directories (with ENOSPC fallback
            # routing); in-memory runs otherwise, as before.
            spill_io=io if io_policy.spill_dirs else None,
            spill_dirs=io_policy.spill_dirs,
            spill_prefix=f"{task_id}-e{epoch}",
        )
        for key, value in context.emitted:
            buffer.add(key, value)
        spilled = buffer.finish(get_codec(job.shuffle.codec))
        outcome.spills = spilled.spills
        outcome.segments = [seg.blob for seg in spilled.segments]
        outcome.partition_records = spilled.partition_records
        outcome.key_counts = spilled.key_counts
        outcome.combine_in = spilled.combine_in
        outcome.combine_out = spilled.combine_out
        if traced:
            outcome.phases["spill"] = (t_map_end, clock())
        return outcome

    # Backup attempts re-resolve placement against the *current*
    # blacklist (see MapReduceEngine._run_backup); the wave's list
    # serves every epoch-0 attempt.
    chosen = override_candidates or candidates
    return _run_attempts(body, policy, task_id, chosen, epoch)


def _execute_reduce_task(
    job: JobSpec,
    store: SegmentStore,
    paths: List[str],
    candidates: List[str],
    task_id: str,
    policy: ExecutionPolicy,
    traced: bool = False,
    epoch: int = 0,
    override_candidates: Optional[List[str]] = None,
) -> _TaskOutcome:
    """One complete reduce task: shuffle fetch, merge, group, reduce.

    ``paths`` names this reducer's segment from every mapper, in
    map-task order (which is why reduce-side value order differs from
    the serial program's input order).  Every fetch is CRC-verified
    end-to-end and refetched from another replica on corruption, up to
    the job's ``shuffle.fetch_retries``.  With ``traced`` on, the
    shuffle / merge / reduce phase boundaries are measured and shipped
    back in the outcome.
    """

    def body(node: str) -> _TaskOutcome:
        clock = time.perf_counter
        # Always measured: the heartbeat origin for the lease monitor.
        t_start = clock()
        outcome = _TaskOutcome()
        runs: List[List[KeyValue]] = []
        for path in paths:
            fetch = store.fetch(path, retries=job.shuffle.fetch_retries)
            segment = fetch.segment
            runs.append(segment.records)
            outcome.shuffled_records += segment.record_count
            outcome.shuffled_bytes += segment.blob_bytes
            outcome.shuffle_raw_bytes += segment.raw_bytes
            outcome.crc_failures += fetch.crc_failures
            outcome.fetch_retries += fetch.refetches
        t_fetch_end = clock() if traced else 0.0
        # Merge: a stable k-way merge of the pre-sorted segments keeps
        # map-task arrival order within a key — byte-identical to a
        # stable sort over their concatenation, like Hadoop's merge.
        sort_key = job.sort_key or _identity
        fetched = merge_sorted_runs_list(
            runs, key=lambda kv: sort_key(kv[0])
        )
        t_merge_end = clock() if traced else 0.0

        context = TaskContext(
            task_id, node, traced=traced,
            task_index=int(task_id.rsplit("-", 1)[-1]),
        )
        cursor = 0
        while cursor < len(fetched):
            key = fetched[cursor][0]
            values = []
            while cursor < len(fetched) and fetched[cursor][0] == key:
                values.append(fetched[cursor][1])
                cursor += 1
            job.reducer(key, values, context)
            outcome.groups += 1
        outcome.input_records = len(fetched)
        outcome.output_records = len(context.emitted)
        outcome.emitted = context.emitted
        outcome.file_writes = context.files
        outcome.attachments = context.attachments
        outcome.heartbeats = [
            max(0.0, stamp - t_start) for stamp in context.heartbeats
        ]
        if traced:
            outcome.phases = {
                "shuffle": (t_start, t_fetch_end),
                "merge": (t_fetch_end, t_merge_end),
                "reduce": (t_merge_end, clock()),
            }
            outcome.spans = context.spans
        return outcome

    chosen = override_candidates or candidates
    return _run_attempts(body, policy, task_id, chosen, epoch)


class _MapCall:
    """Call descriptor for one map task attempt.

    The task body (a closure over the job, split, and policy — not
    picklable) lives in ``JobContext.map_bodies``, which pooled workers
    inherit through their fork image; this descriptor carries only the
    index into that table plus the commit fencing epoch, so it is the
    same few bytes whether it is run in-process or sent down a pipe.
    """

    __slots__ = ("index", "epoch", "candidates")

    def __init__(self, index: int, epoch: int = 0,
                 candidates: Optional[List[str]] = None):
        self.index = index
        self.epoch = epoch
        #: Fresh placement candidates for backup epochs (None keeps
        #: the wave's list); lets fenced re-executions honor a
        #: blacklist that grew after the wave was built.
        self.candidates = candidates

    def with_epoch(self, epoch: int,
                   candidates: Optional[List[str]] = None) -> "_MapCall":
        return _MapCall(self.index, epoch, candidates)

    def run(self, context: JobContext) -> _TaskOutcome:
        return context.map_bodies[self.index](self.epoch, self.candidates)


class _ReduceCall:
    """Call descriptor for one reduce task attempt.

    ``store`` is where the attempt fetches its segments.  In-process
    executors get the driver's live :class:`SegmentStore` — nothing is
    copied.  Pooled workers forked before any segment existed, so for
    them the driver snapshots each segment's replica chain into a
    read-only store that pickles with the call; the worker runs the
    ordinary reduce task against it — same CRC verification, same
    replica failover, same counters, byte-identical output.
    """

    __slots__ = ("store", "paths", "candidates", "task_id", "traced",
                 "epoch", "override_candidates")

    def __init__(self, store, paths, candidates, task_id, traced,
                 epoch: int = 0,
                 override_candidates: Optional[List[str]] = None):
        self.store: SegmentStore = store
        self.paths: List[str] = paths
        self.candidates: List[str] = candidates
        self.task_id = task_id
        self.traced = traced
        self.epoch = epoch
        #: Fresh placement for backup epochs (see _MapCall.candidates).
        self.override_candidates = override_candidates

    def with_epoch(self, epoch: int,
                   candidates: Optional[List[str]] = None) -> "_ReduceCall":
        return _ReduceCall(
            self.store, self.paths, self.candidates, self.task_id,
            self.traced, epoch, candidates,
        )

    def run(self, context: JobContext) -> _TaskOutcome:
        return _execute_reduce_task(
            context.job, self.store, self.paths, self.candidates,
            self.task_id, context.policy, self.traced, self.epoch,
            self.override_candidates,
        )


class MapReduceEngine:
    """Runs jobs over a named set of worker nodes.

    Parameters
    ----------
    nodes:
        Worker node names.
    policy:
        :class:`ExecutionPolicy` selecting the task executor, worker
        slots, retries, speculation, and fault injection.  Defaults to
        serial execution.
    filesystem:
        Object with an ``hdfs``-style ``put(path, data,
        logical_partition=...)`` used to apply file writes buffered by
        tasks via ``context.write_file``.
    recorder:
        :class:`~repro.obs.recorder.TraceRecorder` receiving job, wave
        and per-task phase spans.  Defaults to the shared null recorder
        (tracing off, no allocations on the task hot path).
    lease_monitor:
        :class:`~repro.mapreduce.commit.LeaseMonitor` deciding when a
        task attempt's liveness lease is lost.  Defaults to a monitor
        over this engine's policy with the real monotonic clock; tests
        inject one with a fake clock.
    """

    def __init__(
        self,
        *,
        nodes: Optional[List[str]] = None,
        policy: Optional[ExecutionPolicy] = None,
        filesystem: Optional[Any] = None,
        recorder: Optional[Any] = None,
        lease_monitor: Optional[LeaseMonitor] = None,
        io: Optional[Any] = None,
    ):
        self.nodes = list(nodes) if nodes else ["localhost"]
        self.policy = policy or ExecutionPolicy()
        self.filesystem = filesystem
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.lease = lease_monitor or LeaseMonitor(self.policy)
        #: Failed task attempts per node, accumulated across jobs (the
        #: engine outlives a single round in the Gesall pipeline).
        self._node_failures: Dict[str, int] = {}
        #: Nodes that crossed ``policy.blacklist_after`` failures and
        #: no longer receive new tasks.
        self.blacklisted_nodes: set = set()
        #: Cached executor, reused across every job this engine runs —
        #: how the persistent pool survives from round to round.
        self._executor: Optional[TaskExecutor] = None
        #: Pool lifetime stats already published to metrics (delta base).
        self._pool_stats_seen: Dict[str, float] = {}
        #: Shared durable-I/O layer (built lazily from the policy when
        #: the first disk artifact needs it; the pipeline passes one in
        #: so checkpoints, WAL and spills share a single stats bag).
        self.io = io
        #: I/O lifetime stats already published to metrics (delta base).
        self._io_stats_seen: Dict[str, float] = {}

    def close(self) -> None:
        """Release executor resources (pool workers, for one).

        Safe to call repeatedly; the engine remains usable — the next
        ``run`` builds a fresh executor.
        """
        executor = self._executor
        self._executor = None
        self._pool_stats_seen = {}
        if executor is not None:
            executor.close()

    def __enter__(self) -> "MapReduceEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- placement ----------------------------------------------------------
    def _schedulable_nodes(self) -> List[str]:
        """Nodes eligible for new tasks (blacklist-filtered).

        Falls back to the full node list when everything is
        blacklisted — a cluster that refuses all work is worse than one
        that retries on suspect nodes.
        """
        nodes = [n for n in self.nodes if n not in self.blacklisted_nodes]
        return nodes or list(self.nodes)

    def _candidate_nodes(self, preferred: Optional[str], index: int) -> List[str]:
        """Placement candidates for one task, primary first.

        Retries walk this list, so attempt 2 lands on a different node
        whenever more than one is schedulable.
        """
        schedulable = self._schedulable_nodes()
        if preferred and preferred not in self.blacklisted_nodes:
            primary = preferred
        else:
            primary = schedulable[index % len(schedulable)]
        return [primary] + [n for n in schedulable if n != primary]

    def _update_fault_accounting(
        self, result: JobResult, outcomes: List[_TaskOutcome]
    ) -> None:
        """Absorb a wave's failure telemetry (driver-side, post-wave).

        Feeds timeout/delay counters and the per-node failure tallies
        that drive blacklisting.  Runs after the wave completes, so
        every executor observes the same blacklist state for a given
        wave regardless of intra-wave scheduling order.
        """
        metrics = self.recorder.metrics
        for outcome in outcomes:
            if outcome.timeouts:
                result.counters.inc(C.TASK_TIMEOUTS, outcome.timeouts)
                metrics.counter("engine.task_timeouts").inc(outcome.timeouts)
            if outcome.injected_delays:
                result.counters.inc(C.INJECTED_DELAYS, outcome.injected_delays)
                metrics.counter("chaos.delays_injected").inc(
                    outcome.injected_delays
                )
            if outcome.backoff_seconds:
                metrics.counter("engine.backoff_charged_seconds").inc(
                    round(outcome.backoff_seconds, 6)
                )
            for node, reason in outcome.failures:
                if reason in ("WorkerCrashed", "LeaseExpired"):
                    # Charged at settle time (_charge_node_failure), so
                    # the blacklist is already current when the fenced
                    # backup picked its node; counting here again would
                    # double-charge.
                    continue
                self._charge_node_failure(result, node, reason)

    def _charge_node_failure(
        self, result: JobResult, node: str, reason: str
    ) -> None:
        """Charge one failed attempt to a node and blacklist on threshold.

        Crash and lease failures are charged the moment the driver
        settles them — *before* the fenced backup resolves its
        placement — so a node whose pool worker keeps getting preempted
        crosses ``blacklist_after`` mid-job and the respawned worker's
        backup attempts stop landing on it.
        """
        if not node:
            return
        count = self._node_failures.get(node, 0) + 1
        self._node_failures[node] = count
        threshold = self.policy.blacklist_after
        if (
            threshold is not None
            and count >= threshold
            and node not in self.blacklisted_nodes
        ):
            self.blacklisted_nodes.add(node)
            result.history.add_event(
                "node_blacklisted", node=node, failures=count,
                last_error=reason,
            )
            self.recorder.metrics.counter("engine.nodes_blacklisted").inc()

    # -- public API ---------------------------------------------------------
    def run(
        self,
        job: JobSpec,
        splits: List[InputSplit],
        journal: Optional[RoundJournal] = None,
    ) -> JobResult:
        """Run one job; with ``journal``, commits are WAL-journaled.

        Task side effects flow through an :class:`OutputCommitter`:
        every attempt stages its buffered effects and the driver
        promotes exactly one attempt per task (epoch-fenced, so zombie
        and duplicate commits are refused).  A journal additionally
        records each promotion and carries the commits recovered from
        an interrupted run, which are replayed instead of re-executed.
        """
        if not splits:
            raise MapReduceError(f"job {job.name} has no input splits")
        if self._executor is None:
            # Built once and cached: the pool executor keeps expensive
            # state (forked workers) worth reusing across rounds.
            self._executor = build_executor(self.policy)
        executor = self._executor
        result = JobResult(job.name)
        committer = OutputCommitter(
            result, self.filesystem, recorder=self.recorder, journal=journal,
        )
        recovered = journal.recovered if journal is not None else {}
        try:
            with self.recorder.span(
                f"job:{job.name}", category="job", track="driver",
                splits=len(splits), executor=self.policy.executor,
            ):
                map_outcomes = self._run_maps(
                    job, splits, result, executor, committer, recovered
                )
                if job.is_map_only:
                    return result
                io_policy = self.policy.resolved_io()
                if io_policy.spill_dirs:
                    # Real replica files on the configured spill
                    # directories, with ENOSPC fallback routing and
                    # replica shedding through the durable-I/O layer.
                    store = SegmentStore(
                        DiskSegmentBackend.from_policy(
                            self._io_layer(), io_policy
                        )
                    )
                else:
                    store = SegmentStore.for_filesystem(self.filesystem)
                stored: List[str] = []
                try:
                    paths = self._store_segments(
                        job, map_outcomes, store, result, stored
                    )
                    self._apply_segment_events(job, store, paths, result)
                    self._run_reduces(
                        job, store, paths, result, executor, committer,
                        recovered,
                    )
                finally:
                    # Hadoop-style cleanup: intermediate shuffle data does
                    # not outlive the job (and must not leak into the
                    # filesystem state later rounds fingerprint).  The
                    # ``stored`` accumulator covers failures anywhere past
                    # segment storage — including chaos-plan validation
                    # between the waves — not just reduce-wave crashes.
                    store.delete_all(stored)
        finally:
            executor.end_job()
            if executor.pooled:
                self._publish_pool_stats(executor)
            self._publish_io_stats()
        return result

    def _io_layer(self) -> Any:
        """The engine's durable-I/O layer, built from the policy once.

        A fault plan carrying I/O events selects the fault-injecting
        layer; plans and policies without I/O configuration get the
        plain durable contract.
        """
        if self.io is None:
            from repro.io.faults import build_io

            self.io = build_io(self.policy)
        return self.io

    def _publish_io_stats(self) -> None:
        """Publish the I/O layer's lifetime counters as metric deltas.

        Same delta discipline as :meth:`_publish_pool_stats`: the stats
        bag accumulates across jobs (and is shared with the pipeline's
        checkpoint/WAL traffic), so each publish emits only what
        happened since the last one.
        """
        if self.io is None:
            return
        metrics = self.recorder.metrics
        current = self.io.stats.as_dict()
        seen = self._io_stats_seen
        self._io_stats_seen = current
        for name, value in current.items():
            delta = value - seen.get(name, 0)
            if delta > 0:
                metrics.counter(name).inc(delta)

    def _publish_pool_stats(self, executor: TaskExecutor) -> None:
        """Publish the pool's lifetime accounting as metric deltas.

        The paid/busy split feeds the trace report's cost model:
        ``pool.paid_worker_seconds`` is what a cluster bill charges for
        the slots (cold-start charge included), against which the
        analysis layer's busy worker-seconds measure utilization.
        """
        metrics = self.recorder.metrics
        current: Dict[str, float] = {
            "pool.forks": executor.forks,
            "pool.reuse_count": executor.waves_reused,
            "pool.workers_respawned": executor.workers_respawned,
            "pool.preemptions": executor.preemptions,
            "pool.cold_starts": executor.cold_starts,
            "pool.cold_start_seconds": round(
                executor.cold_start_charged, 6
            ),
            "pool.paid_worker_seconds": round(
                executor.paid_worker_seconds(), 6
            ),
            "pool.workers_retired": executor.workers_retired,
            "pool.scale.ups": executor.scale_ups,
            "pool.scale.downs": executor.scale_downs,
        }
        seen = self._pool_stats_seen
        self._pool_stats_seen = current
        for name, value in current.items():
            delta = value - seen.get(name, 0)
            if delta > 0:
                metrics.counter(name).inc(delta)

    # -- map phase --------------------------------------------------------------
    def _run_maps(
        self,
        job: JobSpec,
        splits: List[InputSplit],
        result: JobResult,
        executor: TaskExecutor,
        committer: OutputCommitter,
        recovered: Dict[str, Tuple[int, _TaskOutcome]],
    ) -> List[_TaskOutcome]:
        """Run all map tasks on the executor.

        Returns the map outcomes in task order; for jobs with reducers
        each carries one encoded shuffle segment per reduce partition —
        the file each mapper leaves for the shuffle.
        """
        traced = self.recorder.enabled and self.recorder.trace_tasks
        # Map tasks spill runs to disk through the shared I/O layer
        # only when spill directories are configured; the in-memory
        # path stays allocation-free.
        task_io = (
            self._io_layer() if self.policy.resolved_io().spill_dirs
            else None
        )
        placements: List[Tuple[str, str]] = []
        bodies = []
        for index, split in enumerate(splits):
            candidates = self._candidate_nodes(split.preferred_node, index)
            task_id = f"{job.name}-m-{index:05d}"
            placements.append((task_id, candidates[0]))
            bodies.append(
                functools.partial(
                    _execute_map_task, job, split, candidates, task_id,
                    self.policy, traced, io=task_io,
                )
            )
        # The pool forks the job's workers here, with every map body in
        # the image; the in-process executors just keep the reference.
        recorder = self.recorder
        executor.begin_job(
            JobContext(
                job, self.policy, bodies, recorder.enabled,
                recorder.sample_interval if recorder.enabled else 0.0,
            )
        )
        calls = [_MapCall(index) for index in range(len(bodies))]
        outcomes, submitted = self._execute_wave(
            job, "map", calls, placements, result, executor, committer,
            recovered,
        )

        metrics = self.recorder.metrics
        decode_seconds = 0.0
        combine_in = 0
        combine_out = 0
        for (task_id, node), outcome in zip(placements, outcomes):
            task = TaskAttempt(task_id, "map", outcome.node or node)
            task.input_records = outcome.input_records
            task.output_records = outcome.output_records
            task.attempts = outcome.attempts
            task.injected_faults = outcome.injected_faults
            task.timeouts = outcome.timeouts
            task.spills = outcome.spills
            self._ingest_task_trace(task, outcome, submitted)
            result.counters.inc(C.MAP_INPUT_RECORDS, outcome.input_records)
            result.counters.inc(C.MAP_OUTPUT_RECORDS, outcome.output_records)
            result.counters.inc(C.MAP_OUTPUT_BYTES, outcome.output_bytes)
            self._absorb_attempts(result, outcome, C.MAP_TASK_ATTEMPTS)
            decode_seconds += outcome.block_decode_seconds
            combine_in += outcome.combine_in
            combine_out += outcome.combine_out
            if job.is_map_only:
                result.map_outputs.append(outcome.emitted)
            else:
                result.counters.inc(C.SPILLED_RECORDS, outcome.output_records)
            result.history.add(task)
        if decode_seconds > 0.0:
            metrics.counter("map.block_decode_seconds").inc(
                round(decode_seconds, 6)
            )
        if combine_in:
            result.counters.inc(C.COMBINE_INPUT_RECORDS, combine_in)
            result.counters.inc(C.COMBINE_OUTPUT_RECORDS, combine_out)
            metrics.counter("combine.records_in").inc(combine_in)
            metrics.counter("combine.records_out").inc(combine_out)
        if not job.is_map_only:
            result.skew = detect_skew(
                [o.partition_records for o in outcomes],
                [o.key_counts for o in outcomes],
                skew_factor=job.shuffle.skew_factor,
                track_keys=job.shuffle.track_keys,
            )
        return outcomes

    # -- shuffle segment plane ----------------------------------------------
    def _store_segments(
        self,
        job: JobSpec,
        outcomes: List[_TaskOutcome],
        store: SegmentStore,
        result: JobResult,
        stored: List[str],
    ) -> List[List[str]]:
        """Persist every map task's segments, in task-index order.

        Returns the segment path matrix indexed ``[map][reducer]``.
        Writes happen driver-side after the map wave (the task-side
        blobs crossed the executor boundary inside the outcomes), so
        placement and replication are deterministic across executors.
        Every stored path is appended to ``stored`` as it lands, so the
        caller's cleanup covers partial storage too.
        """
        metrics = self.recorder.metrics
        paths: List[List[str]] = []
        stored_bytes = 0
        for map_index, outcome in enumerate(outcomes):
            per_map: List[str] = []
            for reducer, blob in enumerate(outcome.segments):
                path = segment_path(job.name, map_index, reducer)
                store.put(path, blob)
                stored.append(path)
                stored_bytes += len(blob)
                per_map.append(path)
            paths.append(per_map)
        segments = sum(len(per_map) for per_map in paths)
        result.counters.inc(C.SHUFFLE_SEGMENTS, segments)
        metrics.counter("shuffle.segments").inc(segments)
        metrics.counter("shuffle.segment_bytes_stored").inc(stored_bytes)
        return paths

    def _apply_segment_events(
        self,
        job: JobSpec,
        store: SegmentStore,
        paths: List[List[str]],
        result: JobResult,
    ) -> None:
        """Fire the chaos plan's segment corruptions for this job.

        Runs between the waves — after the segments exist, before any
        reducer fetches them — mirroring how the pipeline applies
        storage events at round boundaries.
        """
        plan = self.policy.fault_plan
        if plan is None:
            return
        for event in plan.segment_events(job.name):
            if not (
                0 <= event.map_index < len(paths)
                and 0 <= event.reducer < len(paths[event.map_index])
            ):
                raise MapReduceError(
                    f"chaos plan corrupts segment "
                    f"({event.map_index}, {event.reducer}) but job "
                    f"{job.name} has no such segment"
                )
            path = paths[event.map_index][event.reducer]
            victim = store.corrupt(path, event.replica_index)
            result.history.add_event(
                "segment_corrupted", path=path, replica=victim,
            )
            self.recorder.metrics.counter("chaos.corrupt_segment").inc()

    # -- shuffle + reduce phase ---------------------------------------------------
    def _run_reduces(
        self,
        job: JobSpec,
        store: SegmentStore,
        paths: List[List[str]],
        result: JobResult,
        executor: TaskExecutor,
        committer: OutputCommitter,
        recovered: Dict[str, Tuple[int, _TaskOutcome]],
    ) -> None:
        traced = self.recorder.enabled and self.recorder.trace_tasks
        snapshots: Optional[Dict[str, List[bytes]]] = None
        if executor.pooled:
            # The drain point between the waves: every pool worker is
            # idle, so this is where the pool rescales.  Its workers
            # forked before any segment existed, so the driver then
            # snapshots every replica chain a worker-side fetch could
            # read and ships the sealed blobs inside the calls.
            # In-process executors fetch from the live store instead —
            # nothing is copied.
            self._rebalance_pool(job, result, executor)
            attempts = job.shuffle.fetch_retries + 1
            snapshots = {
                path: store.snapshot(path, attempts)
                for per_map in paths for path in per_map
            }
        placements = []
        calls: List[_ReduceCall] = []
        for reducer_index in range(job.num_reducers):
            candidates = self._candidate_nodes(None, reducer_index)
            task_id = f"{job.name}-r-{reducer_index:05d}"
            placements.append((task_id, candidates[0]))
            # Shuffle input: this reducer's segment from every mapper,
            # in map-task order.
            reducer_paths = [per_map[reducer_index] for per_map in paths]
            task_store = store
            if snapshots is not None:
                task_store = SegmentStore(
                    ShippedReplicaBackend(
                        {p: snapshots[p] for p in reducer_paths}
                    )
                )
            calls.append(
                _ReduceCall(
                    task_store, reducer_paths, candidates, task_id, traced,
                )
            )
        outcomes, submitted = self._execute_wave(
            job, "reduce", calls, placements, result, executor, committer,
            recovered,
        )

        for reducer_index, ((task_id, node), outcome) in enumerate(
            zip(placements, outcomes)
        ):
            task = TaskAttempt(task_id, "reduce", outcome.node or node)
            task.input_records = outcome.input_records
            task.output_records = outcome.output_records
            task.attempts = outcome.attempts
            task.injected_faults = outcome.injected_faults
            task.timeouts = outcome.timeouts
            self._ingest_task_trace(task, outcome, submitted)
            result.counters.inc(C.SHUFFLED_RECORDS, outcome.shuffled_records)
            result.counters.inc(C.SHUFFLED_BYTES, outcome.shuffled_bytes)
            result.counters.inc(C.SHUFFLE_RAW_BYTES, outcome.shuffle_raw_bytes)
            if outcome.crc_failures:
                result.counters.inc(
                    C.SHUFFLE_CRC_FAILURES, outcome.crc_failures
                )
            if outcome.fetch_retries:
                result.counters.inc(
                    C.SHUFFLE_FETCH_RETRIES, outcome.fetch_retries
                )
            result.counters.inc(C.REDUCE_INPUT_GROUPS, outcome.groups)
            result.counters.inc(C.REDUCE_INPUT_RECORDS, outcome.input_records)
            result.counters.inc(
                C.REDUCE_OUTPUT_RECORDS, outcome.output_records
            )
            self._absorb_attempts(result, outcome, C.REDUCE_TASK_ATTEMPTS)
            result.reduce_outputs[reducer_index] = outcome.emitted
            result.history.add(task)
        metrics = self.recorder.metrics
        metrics.counter("shuffle.bytes_shuffled").inc(
            result.counters.get(C.SHUFFLED_BYTES)
        )
        metrics.counter("shuffle.raw_bytes").inc(
            result.counters.get(C.SHUFFLE_RAW_BYTES)
        )
        crc_failures = result.counters.get(C.SHUFFLE_CRC_FAILURES)
        if crc_failures:
            metrics.counter("shuffle.crc_failures").inc(crc_failures)
        fetch_retries = result.counters.get(C.SHUFFLE_FETCH_RETRIES)
        if fetch_retries:
            metrics.counter("shuffle.fetch_retries").inc(fetch_retries)

    # -- trace stitching --------------------------------------------------------
    def _ingest_task_trace(
        self, task: TaskAttempt, outcome: _TaskOutcome, submitted: float
    ) -> None:
        """Stitch one task's measured telemetry into the recorder.

        Converts the outcome's raw perf_counter phase boundaries into
        epoch-relative wall-clock phases on the :class:`TaskAttempt`
        (the same ``phases`` dict the simulator fills with modelled
        times), emits task/phase spans on the worker's track, and feeds
        the queue-wait / run-time histograms.
        """
        if outcome.started_at is None or not self.recorder.enabled:
            return
        recorder = self.recorder
        epoch = recorder.epoch
        queue_wait = max(0.0, outcome.started_at - submitted)
        run_time = outcome.finished_at - outcome.started_at
        track = outcome.worker or task.task_id
        spans = [
            Span(
                task.task_id, f"{task.kind}-task",
                outcome.started_at, outcome.finished_at, track=track,
                attrs={
                    "node": task.node,
                    "attempts": outcome.attempts,
                    "queue_wait_ms": round(queue_wait * 1e3, 3),
                    "input_records": outcome.input_records,
                    "output_records": outcome.output_records,
                },
            )
        ]
        task.queued_seconds = queue_wait
        task.run_seconds = run_time
        if outcome.phases:
            task.phases = {
                name: (start - epoch, end - epoch)
                for name, (start, end) in outcome.phases.items()
            }
            for name, (start, end) in outcome.phases.items():
                spans.append(
                    Span(name, "phase", start, end, track=track, depth=1,
                         attrs={"task": task.task_id})
                )
        for span in outcome.spans:
            # Context spans carry the task id as track; re-home them on
            # the worker lane, nested under the task + phase spans.
            span.track = track
            span.depth += 2
        recorder.ingest(spans + outcome.spans)
        recorder.metrics.histogram("task.queue_wait_seconds").observe(
            queue_wait
        )
        recorder.metrics.histogram("task.run_seconds").observe(run_time)
        if outcome.samples:
            self._ingest_samples(task, outcome, track)

    def _ingest_samples(
        self, task: TaskAttempt, outcome: _TaskOutcome, track: str
    ) -> None:
        """Stitch an attempt's worker resource samples into the store.

        The raw samples are cumulative process counters taken inside
        the worker; the driver differences consecutive pairs into rates
        and lands them in per-worker :class:`TimeSeries` tagged, per
        point, with the task and the phase active at sample time — the
        (worker, task, phase) key the paper's Fig 7/10 plots pivot on.
        RSS is instantaneous and kept as-is.
        """
        metrics = self.recorder.metrics
        epoch = self.recorder.epoch
        boundaries = sorted(
            (start, end, name)
            for name, (start, end) in (outcome.phases or {}).items()
        )

        def phase_at(t: float) -> str:
            for start, end, name in boundaries:
                if start <= t < end:
                    return name
            return ""

        cpu = metrics.timeseries("proc.cpu_percent", worker=track)
        rss = metrics.timeseries("proc.rss_bytes", worker=track)
        read = metrics.timeseries("proc.read_bytes_per_s", worker=track)
        write = metrics.timeseries("proc.write_bytes_per_s", worker=track)
        ctx = metrics.timeseries("proc.ctx_switches_per_s", worker=track)
        samples = outcome.samples
        first = samples[0]
        rss.append(
            first.t - epoch, first.rss_bytes,
            {"task": task.task_id, "phase": phase_at(first.t)},
        )
        prev = first
        for sample in samples[1:]:
            dt = max(sample.t - prev.t, 1e-9)
            tags = {"task": task.task_id, "phase": phase_at(sample.t)}
            t = sample.t - epoch
            cpu.append(
                t, 100.0 * (sample.cpu_seconds - prev.cpu_seconds) / dt,
                tags,
            )
            rss.append(t, sample.rss_bytes, tags)
            read.append(t, (sample.read_bytes - prev.read_bytes) / dt, tags)
            write.append(
                t, (sample.write_bytes - prev.write_bytes) / dt, tags
            )
            ctx.append(
                t, (sample.ctx_switches - prev.ctx_switches) / dt, tags
            )
            prev = sample
        metrics.counter("obs.samples_ingested").inc(len(samples))

    # -- outcome absorption -----------------------------------------------------
    def _absorb_attempts(
        self, result: JobResult, outcome: _TaskOutcome, counter: str
    ) -> None:
        result.counters.inc(counter, outcome.attempts)
        if outcome.injected_faults:
            result.counters.inc(C.INJECTED_FAULTS, outcome.injected_faults)

    # -- wave execution + commit settlement ---------------------------------------
    def _execute_wave(
        self,
        job: JobSpec,
        kind: str,
        calls: List[Any],
        placements: List[Tuple[str, str]],
        result: JobResult,
        executor: TaskExecutor,
        committer: OutputCommitter,
        recovered: Dict[str, Tuple[int, _TaskOutcome]],
    ) -> Tuple[List[_TaskOutcome], float]:
        """Run one wave of tasks and settle every task's commit.

        ``calls[i]`` is task *i*'s call descriptor at epoch 0, the
        primary attempt; fenced backups rebind it to a higher epoch via
        ``with_epoch``.  Tasks whose commits were recovered from the
        WAL are not re-executed — their journaled outcomes are replayed
        through the committer and merged back in at their task index,
        so the bookkeeping loops (counters, history, outputs) see
        exactly what a clean run would.
        """
        live = [
            i for i, (task_id, _) in enumerate(placements)
            if task_id not in recovered
        ]
        with self.recorder.span(
            f"{job.name}:{kind}-wave", category="wave", track="driver",
            tasks=len(placements), recovered=len(placements) - len(live),
        ):
            plan = self.policy.fault_plan
            if executor.pooled and plan is not None:
                # Pool-worker chaos.  Cold start was read from the plan
                # by the pool as it forked the job's workers; the map
                # wave records that it is in force.
                if kind == "map" and executor.cold_start_seconds > 0:
                    result.history.add_event(
                        "cold_start_armed", job=job.name,
                        seconds_per_fork=executor.cold_start_seconds,
                    )
                # Arm spot preemptions: seq indexes the wave's dispatch
                # order over live (non-recovered) tasks, so the same
                # plan kills the same logical work under any resume
                # state.  Out-of-range seqs are ignored (a resumed wave
                # may dispatch fewer tasks than the clean run).
                for event in plan.preemptions_for(job.name, kind):
                    if 0 <= event.task < len(live):
                        executor.preempt_task(event.task)
                        result.history.add_event(
                            "worker_preempted",
                            task=placements[live[event.task]][0],
                            wave=kind,
                        )
                        self.recorder.metrics.counter(
                            "chaos.preempt_worker"
                        ).inc()
            submitted = time.perf_counter()
            ran = executor.run_calls([calls[i] for i in live])
            outcomes: List[Optional[_TaskOutcome]] = [None] * len(placements)
            for index, outcome in zip(live, ran):
                outcomes[index] = outcome
            self._speculate(
                live, calls, outcomes, executor, result, kind, placements,
            )
            outcomes = self._settle_wave(
                kind, calls, placements, outcomes, result, executor,
                committer, recovered,
            )
        self._update_fault_accounting(result, outcomes)
        return outcomes, submitted

    def _rebalance_pool(
        self, job: JobSpec, result: JobResult, executor: TaskExecutor
    ) -> None:
        """Between-wave scaling decision for the pool.

        Runs after the map wave settles and before the reduce wave is
        built — the drain point where every pool worker is idle.  With
        tracing on, the settled map wave's queue-wait share (the
        queue/run split ``repro.obs.analysis.queue_run_decomposition``
        reports) steers the controller; untraced runs fall back to the
        executor's seeded clock-free policy.  A fixed pool holds its
        size whatever it is told.  Every decision lands in JobHistory
        (``pool_scaled``) and the ``pool.scale.*`` metrics.
        """
        queue_fraction = None
        if self.recorder.enabled:
            from repro.obs.analysis import queue_run_decomposition

            wave = queue_run_decomposition(result.history)["map"]
            if wave["queued_seconds"] + wave["run_seconds"] > 0:
                queue_fraction = wave["queue_fraction"]
        decision = executor.rebalance(job.num_reducers, queue_fraction)
        if decision is None:
            return
        result.history.add_event("pool_scaled", **decision)
        metrics = self.recorder.metrics
        metrics.counter("pool.scale.decisions").inc()
        metrics.gauge("pool.scale.workers").set(decision["to_workers"])

    def _settle_wave(
        self,
        kind: str,
        calls: List[Any],
        placements: List[Tuple[str, str]],
        outcomes: List[Optional[_TaskOutcome]],
        result: JobResult,
        executor: TaskExecutor,
        committer: OutputCommitter,
        recovered: Dict[str, Tuple[int, _TaskOutcome]],
    ) -> List[_TaskOutcome]:
        """Stage and promote one attempt per task, in task-index order.

        The exactly-once gate: attempts whose lease held are promoted
        directly; lost leases — and pool workers that died mid-task —
        get fenced backup attempts (the zombie's late commit bounces
        off the fence); chaos-plan duplicate-commit events re-present
        an already-committed attempt and must be refused.  Replays
        recovered commits instead of anything else for tasks the WAL
        already settled.
        """
        plan = self.policy.fault_plan
        final: List[_TaskOutcome] = list(outcomes)
        for index, (task_id, node) in enumerate(placements):
            if task_id in recovered:
                epoch, outcome = recovered[task_id]
                # The outcome's run-time stamps belong to the dead
                # driver's clock; never stitch them into this trace.
                outcome.started_at = None
                outcome.finished_at = None
                committer.replay(task_id, epoch, outcome)
                final[index] = outcome
                continue
            outcome = outcomes[index]
            if isinstance(outcome, WorkerCrash):
                final[index] = self._settle_worker_crash(
                    kind, calls[index], task_id, node, outcome, result,
                    executor, committer, index,
                )
            else:
                committer.stage(task_id, 0, outcome)
                verdict = self.lease.verdict(outcome)
                if verdict is None:
                    committer.promote(task_id, 0, outcome)
                else:
                    final[index] = self._run_backup(
                        kind, calls[index], task_id, outcome, result,
                        executor, committer, verdict, index,
                    )
            if plan is not None and plan.duplicate_commit_for(task_id):
                # A duplicated commit RPC: the winning attempt presents
                # its (already-spent) token again and must be refused.
                self.recorder.metrics.counter("chaos.duplicate_commit").inc()
                committer.promote(
                    task_id, committer.committed[task_id], final[index]
                )
        return final

    def _settle_worker_crash(
        self,
        kind: str,
        call: Any,
        task_id: str,
        node: str,
        crash: WorkerCrash,
        result: JobResult,
        executor: TaskExecutor,
        committer: OutputCommitter,
        index: int,
    ) -> _TaskOutcome:
        """Recover a task whose pool worker died mid-flight.

        The crashed attempt produced no outcome and can never commit
        (the process is gone), so nothing is staged for epoch 0; a
        synthesized zombie carries the crash into the normal
        fenced-backup path.  The placement node is charged *now* —
        before the backup resolves its candidates — so a node whose
        workers keep getting preempted is blacklisted in time for the
        respawned pool to stop choosing it.
        """
        result.counters.inc(C.WORKER_CRASHES)
        self.recorder.metrics.counter("pool.worker_crashes").inc()
        result.history.add_event(
            "worker_crashed", task=task_id, node=node, pid=crash.pid,
            exitcode=crash.exitcode,
        )
        self._charge_node_failure(result, node, "WorkerCrashed")
        zombie = _TaskOutcome()
        zombie.node = node
        zombie.attempts = 1
        zombie.failures = [(node, "WorkerCrashed")]
        return self._run_backup(
            kind, call, task_id, zombie, result, executor, committer,
            "worker_crashed", index, crashed=True,
        )

    def _run_backup(
        self,
        kind: str,
        call: Any,
        task_id: str,
        zombie: _TaskOutcome,
        result: JobResult,
        executor: TaskExecutor,
        committer: OutputCommitter,
        reason: str,
        index: int,
        crashed: bool = False,
    ) -> _TaskOutcome:
        """Re-execute a lost task under a fresh fencing token.

        Up to ``policy.backup_attempts`` fenced re-executions; the
        first whose lease holds commits, after which the original
        zombie's late commit is presented and refused (a crashed worker
        presents nothing — it is dead).  Each backup epoch re-resolves
        its placement candidates against the *current* blacklist (the
        wave's own lists predate any mid-job blacklisting), so a
        twice-preempted node is never chosen again once it crosses
        ``blacklist_after``.  The abandoned lineage's telemetry is
        folded into the winning outcome so wave bookkeeping (attempt
        counters, node blacklist) still sees every attempt that
        actually ran.
        """
        if not crashed:
            result.counters.inc(C.LEASE_EXPIRATIONS)
            self.recorder.metrics.counter("lease.expired").inc()
            result.history.add_event(
                "lease_expired", task=task_id, node=zombie.node,
                reason=reason, at=round(self.lease.clock(), 6),
            )
            # A lost lease charges the node like a crash, so repeat
            # offenders cross the same blacklist threshold.
            zombie.failures = list(zombie.failures) + [
                (zombie.node, "LeaseExpired")
            ]
            self._charge_node_failure(result, zombie.node, "LeaseExpired")
        predecessor = zombie
        for _ in range(self.policy.backup_attempts):
            epoch = committer.fence(task_id)
            result.counters.inc(C.BACKUP_ATTEMPTS)
            self.recorder.metrics.counter("lease.backups_launched").inc()
            result.history.add_event(
                "backup_launched", task=task_id, epoch=epoch,
            )
            # Fresh, blacklist-aware placement for this epoch; rotating
            # the index by the epoch keeps repeated backups off the
            # node that just failed even before it is blacklisted.
            candidates = self._candidate_nodes(None, index + epoch)
            with self.recorder.span(
                f"{task_id}-backup", category="backup", track="driver",
                kind=kind, epoch=epoch,
            ):
                backup = executor.run_calls(
                    [call.with_epoch(epoch, candidates)]
                )[0]
            if isinstance(backup, WorkerCrash):
                # The backup's worker died too; fence again and retry
                # until the attempt budget runs out.
                result.counters.inc(C.WORKER_CRASHES)
                self.recorder.metrics.counter("pool.worker_crashes").inc()
                result.history.add_event(
                    "worker_crashed", task=task_id, node=candidates[0],
                    pid=backup.pid, exitcode=backup.exitcode,
                )
                self._charge_node_failure(
                    result, candidates[0], "WorkerCrashed"
                )
                continue
            attempt = TaskAttempt(
                f"{task_id}-backup-e{epoch}", kind, backup.node
            )
            attempt.backup = True
            attempt.input_records = backup.input_records
            attempt.output_records = backup.output_records
            attempt.attempts = backup.attempts
            result.history.add(attempt)
            # Fold the abandoned lineage's telemetry into the backup so
            # the wave bookkeeping counts every attempt exactly once.
            backup.attempts += predecessor.attempts
            backup.injected_faults += predecessor.injected_faults
            backup.timeouts += predecessor.timeouts
            backup.injected_delays += predecessor.injected_delays
            backup.backoff_seconds += predecessor.backoff_seconds
            backup.failures = list(predecessor.failures) + list(
                backup.failures
            )
            committer.stage(task_id, epoch, backup)
            if self.lease.verdict(backup) is None:
                committer.promote(task_id, epoch, backup)
                if not crashed:
                    # The zombie finishes late and presents its stale
                    # token; the fence refuses it (counted, never
                    # applied).
                    committer.promote(task_id, 0, zombie)
                return backup
            predecessor = backup
        if crashed:
            raise MapReduceError(
                f"task {task_id} lost its worker and all "
                f"{self.policy.backup_attempts} backup attempt(s) were "
                "lost too"
            )
        raise MapReduceError(
            f"task {task_id} lost its lease and all "
            f"{self.policy.backup_attempts} backup attempt(s) lost "
            "theirs too"
        )

    # -- speculative execution ----------------------------------------------------
    def _speculate(
        self,
        live: List[int],
        calls: List[Any],
        outcomes: List[Optional[_TaskOutcome]],
        executor: TaskExecutor,
        result: JobResult,
        kind: str,
        placements: List[Tuple[str, str]],
    ) -> None:
        """Speculatively re-execute one audited straggler stub.

        In-process tasks have no genuine stragglers, so the stub
        re-runs a seeded draw over the wave's live tasks (recovered
        tasks never re-run) and cross-checks it against the primary
        attempt — turning speculation into a built-in determinism
        audit: a divergent duplicate means a task was not a pure
        function of its split and would break the serial/parallel
        equivalence the paper's §3.2 relies on.  The audited index
        depends only on ``(fault_seed, kind, wave identity)``, so it is
        identical across executors but varies with the policy seed
        instead of always sparing every task but the last.

        Traced runs first consult the MAD straggler analytics over the
        wave's measured attempt durations (see
        :func:`repro.obs.analysis.mad_scores`): a genuine duration
        outlier becomes the audited task — speculation re-runs the task
        a Hadoop speculator would — and is published as
        ``obs.straggler.*`` metrics.  Untraced runs, and traced waves
        with no outlier, keep the seeded draw, preserving the
        cross-executor determinism of the audited index.
        """
        if not self.policy.speculative or executor.kind == "serial":
            return
        if not live:
            return
        straggler = self._pick_straggler(live, outcomes, kind, placements)
        primary = outcomes[straggler]
        if isinstance(primary, WorkerCrash):
            # The primary is headed for a fenced backup; there is
            # nothing to audit against.
            return
        task_id, node = placements[straggler]
        with self.recorder.span(
            f"{task_id}-speculative", category="speculation",
            track="driver", kind=kind,
        ):
            duplicate = executor.run_calls([calls[straggler]])[0]
        if isinstance(duplicate, WorkerCrash):
            result.history.add_event(
                "speculative_worker_crashed", task=task_id,
                pid=duplicate.pid, exitcode=duplicate.exitcode,
            )
            return
        result.counters.inc(C.SPECULATIVE_ATTEMPTS, 1)
        attempt = TaskAttempt(f"{task_id}-speculative", kind, node)
        attempt.speculative = True
        attempt.input_records = duplicate.input_records
        attempt.output_records = duplicate.output_records
        result.history.add(attempt)
        primary_keys = [key for key, _ in primary.emitted]
        duplicate_keys = [key for key, _ in duplicate.emitted]
        if (
            primary_keys != duplicate_keys
            or primary.output_records != duplicate.output_records
        ):
            raise MapReduceError(
                f"speculative {kind} attempt diverged from the primary "
                f"(task index {straggler}); task is not deterministic"
            )

    def _pick_straggler(
        self,
        live: List[int],
        outcomes: List[Optional[_TaskOutcome]],
        kind: str,
        placements: List[Tuple[str, str]],
    ) -> int:
        """The wave's audited task index (see :meth:`_speculate`)."""
        durations: List[float] = []
        for index in live:
            outcome = outcomes[index]
            started = getattr(outcome, "started_at", None)
            if started is None:
                durations = []
                break
            durations.append(outcome.finished_at - started)
        # MAD needs a population to estimate spread from; tiny waves
        # stay on the seeded draw.
        if len(durations) == len(live) and len(live) >= 3:
            from repro.obs.analysis import MAD_THRESHOLD, mad_scores

            scores = mad_scores(durations)
            best = max(range(len(live)), key=lambda i: scores[i])
            if scores[best] >= MAD_THRESHOLD:
                metrics = self.recorder.metrics
                metrics.counter("obs.straggler.detected").inc()
                metrics.counter(f"obs.straggler.{kind}_waves").inc()
                metrics.gauge("obs.straggler.max_score").set(
                    round(scores[best], 3)
                )
                metrics.gauge("obs.straggler.run_seconds").set(
                    round(durations[best], 6)
                )
                return live[best]
        draw = zlib.crc32(
            f"{self.policy.fault_seed}|{kind}|{placements[0][0]}|"
            f"{len(live)}".encode()
        )
        return live[draw % len(live)]
