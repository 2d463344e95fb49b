"""The in-process MapReduce runtime: the driver side.

Executes a :class:`~repro.mapreduce.job.JobSpec` over input splits with
full sort-spill-merge shuffle semantics.  This module owns the job
lifecycle — placement and the node blacklist, the two waves, commit
settlement and the re-execution of lost attempts, each under a fresh
fencing epoch.  What runs *inside* a task attempt lives in
:mod:`repro.mapreduce.task`: the driver describes each attempt as a
:class:`~repro.mapreduce.task.TaskCall` and runs it against the job's
context on a pluggable
:class:`~repro.mapreduce.executors.TaskExecutor` chosen by the engine's
:class:`~repro.mapreduce.policy.ExecutionPolicy` — serially, or on a
persistent fork-based worker pool.

Determinism is the engine's core contract (the paper's §3.2 argument,
enforced here): every task is a pure function of its split plus the
job spec, task outputs are collected by task index, shuffles merge in
map-task order regardless of completion order, and side effects (file
writes, attachments) are buffered in the task context and applied by
the parent in task-index order.  Both executors therefore produce
byte-identical :class:`JobResult`\\ s.

Every fact of a run is recorded once — a :class:`JobResult` counter or
a ``JobHistory`` event — and the run-wide recorder metrics are derived
from those when the run ends, through the one publish table below
(:data:`METRIC_OF_COUNTER` / :data:`METRIC_OF_EVENT`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import DriverKilledError, MapReduceError
from repro.io.policy import charged_backoff
from repro.mapreduce import counters as C
from repro.mapreduce.commit import OutputCommitter, RoundJournal, lease_lost
from repro.mapreduce.counters import Counters
from repro.mapreduce.executors import (
    JobContext,
    TaskExecutor,
    WorkerCrash,
    build_executor,
)
from repro.mapreduce.history import JobHistory
from repro.mapreduce.job import InputSplit, JobSpec, KeyValue
from repro.mapreduce.policy import ExecutionPolicy
from repro.mapreduce.task import (
    AttemptFailed,
    TaskCall,
    TaskOutcome,
    attempt_from_outcome,
)
from repro.obs.ingest import ingest_task
from repro.obs.recorder import NULL_RECORDER
from repro.shuffle.segment import segment_path
from repro.shuffle.skew import SkewReport, detect_skew
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

    def __iter__(self):
        """Iterate over the job's output key/value pairs."""
        return iter(self.all_outputs())

    def __len__(self) -> int:
        return len(self.all_outputs())

    def __repr__(self) -> str:
        return f"JobResult({self.job_name}, {self.counters})"


#: Post-wave accounting, per wave kind: ``(counter, outcome attribute)``
#: summed over every settled task of the wave, zeros included.
_WAVE_VOLUMES = {
    "map": (
        (C.MAP_INPUT_RECORDS, "input_records"),
        (C.MAP_OUTPUT_RECORDS, "output_records"),
        (C.MAP_OUTPUT_BYTES, "output_bytes"),
    ),
    "reduce": (
        (C.SHUFFLED_RECORDS, "shuffled_records"),
        (C.SHUFFLED_BYTES, "shuffled_bytes"),
        (C.SHUFFLE_RAW_BYTES, "shuffle_raw_bytes"),
        (C.REDUCE_INPUT_GROUPS, "groups"),
        (C.REDUCE_INPUT_RECORDS, "input_records"),
        (C.REDUCE_OUTPUT_RECORDS, "output_records"),
    ),
}

#: Attempts per wave kind: each task's committed epoch + 1, summed.
_WAVE_ATTEMPTS = {"map": C.MAP_TASK_ATTEMPTS, "reduce": C.REDUCE_TASK_ATTEMPTS}

#: A map wave that feeds a shuffle also counts its output as spilled.
_SHUFFLE_MAP_VOLUMES = ((C.SPILLED_RECORDS, "output_records"),)

#: Counted only when they happened (a clean run carries none of these
#: names), whichever wave the task belongs to.  A lost attempt's delay
#: is counted when it is settled.
_WAVE_INCIDENTS = (
    (C.INJECTED_DELAYS, "injected_delays"),
    (C.SHUFFLE_CRC_FAILURES, "crc_failures"),
    (C.SHUFFLE_FETCH_RETRIES, "fetch_retries"),
)

#: The publish table: the one route from a recorded fact to a run-wide
#: recorder metric.  An engine or committer site increments the counter
#: (or adds the event) and nothing else; :meth:`MapReduceEngine._publish`
#: derives the metric when the run ends, so each count has a single
#: definition.  A counter that is absent from a result publishes nothing.
METRIC_OF_COUNTER = {
    C.INJECTED_DELAYS: "chaos.delays_injected",
    C.SHUFFLE_SEGMENTS: "shuffle.segments",
    C.SHUFFLED_BYTES: "shuffle.bytes_shuffled",
    C.SHUFFLE_RAW_BYTES: "shuffle.raw_bytes",
    C.SHUFFLE_CRC_FAILURES: "shuffle.crc_failures",
    C.SHUFFLE_FETCH_RETRIES: "shuffle.fetch_retries",
    C.TASK_COMMITS: "commit.promoted",
    C.FENCED_COMMITS: "commit.fenced",
    C.LEASE_EXPIRATIONS: "lease.expired",
    C.BACKUP_ATTEMPTS: "lease.backups_launched",
    C.WAL_TASKS_SKIPPED: "wal.tasks_skipped",
    C.WORKER_CRASHES: "pool.worker_crashes",
}

#: Same table, for facts recorded as ``JobHistory`` events: one metric
#: increment per event of the kind.
METRIC_OF_EVENT = {
    "node_blacklisted": "engine.nodes_blacklisted",
    "segment_corrupted": "chaos.corrupt_segment",
    "worker_preempted": "chaos.preempt_worker",
    "pool_scaled": "pool.scale.decisions",
}


class MapReduceEngine:
    """Runs jobs over a named set of worker nodes.

    Parameters
    ----------
    nodes:
        Worker node names.
    policy:
        :class:`ExecutionPolicy` selecting the task executor, worker
        slots, retries, leases and the chaos plan.  Defaults to serial
        execution.
    filesystem:
        Object with an ``hdfs``-style ``put(path, data,
        logical_partition=...)`` used to apply file writes buffered by
        tasks via ``context.write_file``.
    recorder:
        :class:`~repro.obs.recorder.TraceRecorder` receiving job, wave
        and per-task phase spans.  Defaults to the shared null recorder
        (tracing off, no allocations on the task hot path).
    """

    def __init__(
        self,
        *,
        nodes: Optional[List[str]] = None,
        policy: Optional[ExecutionPolicy] = None,
        filesystem: Optional[Any] = None,
        recorder: Optional[Any] = None,
        io: Optional[Any] = None,
    ):
        self.nodes = list(nodes) if nodes else ["localhost"]
        self.policy = policy or ExecutionPolicy()
        self.filesystem = filesystem
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Failed task attempts per node, accumulated across jobs (the
        #: engine outlives a single round in the Gesall pipeline).
        self._node_failures: Dict[str, int] = {}
        #: Nodes that crossed ``policy.blacklist_after`` failures and
        #: no longer receive new tasks.
        self.blacklisted_nodes: set = set()
        #: Cached executor, reused across every job this engine runs —
        #: how the persistent pool survives from round to round.
        self._executor: Optional[TaskExecutor] = None
        #: Shared durable-I/O layer (built lazily from the policy when
        #: the first disk artifact needs it; the pipeline passes one in
        #: so checkpoints, WAL and spills share a single stats bag).
        self.io = io
        #: Pool and I/O lifetime stats already published to metrics,
        #: by metric name (the delta base).
        self._stats_seen: Dict[str, float] = {}

    def close(self) -> None:
        """Release executor resources (pool workers, for one).

        Safe to call repeatedly; the engine remains usable — the next
        ``run`` builds a fresh executor.
        """
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.close()
            # Bill workers' lifetimes to here; the next restarts at 0.
            self._publish_stats(executor.stats())
            for name in executor.stats():
                self._stats_seen.pop(name, None)

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

    def _place(self, preferred: Optional[str], index: int) -> str:
        """The node for one attempt: its split's preferred node unless
        that is blacklisted, else the ``index``-th schedulable node (a
        re-execution rotates ``index`` by its epoch, so it lands off the
        node that just failed whenever another is schedulable)."""
        if preferred and preferred not in self.blacklisted_nodes:
            return preferred
        schedulable = self._schedulable_nodes()
        return schedulable[index % len(schedulable)]

    def _charge_node_failure(
        self, result: JobResult, node: str, reason: str
    ) -> None:
        """Charge one lost attempt to a node and blacklist on threshold.

        Charged the moment the driver settles the attempt — *before*
        the re-execution is placed — so a node whose attempts keep
        getting lost crosses ``blacklist_after`` mid-job and the task's
        next attempt stops landing on it.
        """
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
        recorder = self.recorder
        result = JobResult(job.name)
        committer = OutputCommitter(
            result, self.filesystem, recorder=recorder, journal=journal,
        )
        recovered = journal.recovered if journal is not None else {}
        io_policy = self.policy.resolved_io()
        try:
            with recorder.span(
                f"job:{job.name}", category="job", track="driver",
                splits=len(splits), executor=self.policy.executor,
            ):
                # The pool hands the job to its live workers (or forks
                # them with the context in the image); the serial
                # executor just keeps the reference.  Map tasks spill
                # runs to disk through the shared I/O layer only when
                # spill directories are configured; the in-memory path
                # stays allocation-free.
                self._record_resize(result, executor.begin_job(JobContext(
                    job, self.policy, splits,
                    trace=recorder.enabled,
                    io=self._io_layer() if io_policy.spill_dirs else None,
                    metrics=recorder.metrics,
                )))
                map_outcomes = self._run_wave(job, [
                    TaskCall(
                        "map", f"{job.name}-m-{index:05d}",
                        self._place(split.preferred_node, index),
                    )
                    for index, split in enumerate(splits)
                ], result, executor, committer, recovered)
                if job.is_map_only:
                    result.map_outputs = [o.emitted for o in map_outcomes]
                    return result
                result.skew = detect_skew(
                    [o.partition_records for o in map_outcomes],
                    [o.key_counts for o in map_outcomes],
                )
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
                    # The store (and the WAL, journaled at promotion)
                    # holds them now; the committer and the journal share
                    # these outcomes, so no second copy outlives storage.
                    for outcome in map_outcomes:
                        outcome.segments = None
                    self._apply_segment_events(job, store, paths, result)
                    reduce_outcomes = self._run_wave(
                        job,
                        self._reduce_calls(job, store, paths, result, executor),
                        result, executor, committer, recovered,
                    )
                    result.reduce_outputs = {
                        index: outcome.emitted
                        for index, outcome in enumerate(reduce_outcomes)
                    }
                finally:
                    # Hadoop-style cleanup: intermediate shuffle data does
                    # not outlive the job (and must not leak into the
                    # filesystem state later rounds fingerprint).  The
                    # ``stored`` accumulator covers failures anywhere past
                    # segment storage — including chaos-plan validation
                    # between the waves — not just reduce-wave crashes.
                    store.delete_all(stored)
        except DriverKilledError as exc:
            # The interrupted job's record rides the error out, so a
            # report can show what the killed driver absorbed.
            exc.job_result = result
            raise
        finally:
            executor.end_job()
            # In the ``finally`` so a killed driver still publishes
            # what it had recorded when it died.
            self._publish(result, executor)
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

    def _publish(self, result: JobResult, executor: TaskExecutor) -> None:
        """Derive the run-wide recorder metrics from one job's record.

        Counters and events go through the publish table.  The pool's
        and the I/O layer's stats bags accumulate across jobs (the I/O
        one is shared with the pipeline's checkpoint/WAL traffic), so
        they are published as deltas: each call emits only what
        happened since the last one.
        """
        if not self.recorder.enabled:
            return
        metrics = self.recorder.metrics
        for counter, metric in METRIC_OF_COUNTER.items():
            if counter in result.counters:
                metrics.counter(metric).inc(result.counters[counter])
        for kind, metric in METRIC_OF_EVENT.items():
            count = len(result.history.events_of(kind))
            if count:
                metrics.counter(metric).inc(count)
        stats = executor.stats()
        if self.io is not None:
            stats.update(self.io.stats.as_dict())
        self._publish_stats(stats)

    def _publish_stats(self, stats: Dict[str, float]) -> None:
        """Publish what lifetime stats gained since the last call."""
        if not self.recorder.enabled:
            return
        for name, value in stats.items():
            delta = value - self._stats_seen.get(name, 0)
            if delta > 0:
                self.recorder.metrics.counter(name).inc(delta)
        self._stats_seen.update(stats)

    # -- shuffle segment plane ----------------------------------------------
    def _store_segments(
        self,
        job: JobSpec,
        outcomes: List[TaskOutcome],
        store: SegmentStore,
        result: JobResult,
        stored: List[str],
    ) -> List[List[str]]:
        """Persist every map task's segments, one store call per task,
        in task-index order.

        Returns the segment path matrix indexed ``[map][reducer]``.
        Writes happen driver-side after the map wave (the task-side
        blobs crossed the executor boundary inside the outcomes), so
        placement and replication are deterministic across executors.
        A task's paths join ``stored`` before its put, so the caller's
        cleanup covers a put that landed only part of its replicas.
        """
        paths: List[List[str]] = []
        stored_bytes = 0
        for map_index, outcome in enumerate(outcomes):
            per_map = [
                segment_path(job.name, map_index, reducer)
                for reducer in range(len(outcome.segments))
            ]
            stored.extend(per_map)
            store.put_map(per_map, outcome.segments)
            stored_bytes += sum(map(len, outcome.segments))
            paths.append(per_map)
        result.counters.inc(
            C.SHUFFLE_SEGMENTS, sum(len(per_map) for per_map in paths)
        )
        self.recorder.metrics.counter("shuffle.segment_bytes_stored").inc(
            stored_bytes
        )
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

    def _record_resize(self, result: JobResult, decision) -> None:
        """Record one pool resize (``None``: the pool kept its size)."""
        if decision is not None:
            result.history.add_event("pool_scaled", **decision)
            self.recorder.metrics.gauge("pool.scale.workers").set(
                decision["to_workers"]
            )

    def _reduce_calls(
        self,
        job: JobSpec,
        store: SegmentStore,
        paths: List[List[str]],
        result: JobResult,
        executor: TaskExecutor,
    ) -> List[TaskCall]:
        """The reduce wave's call descriptors, one per reducer.

        Built at the drain point between the waves, where every pool
        worker is idle, so a pool first resizes for the reduce wave.
        The size reads only the wave's task count, never the trace, so
        tracing cannot change how the pool scales; every resize lands
        in JobHistory (``pool_scaled``) and the ``pool.scale.*``
        metrics.  Then the driver reads each segment's replica chain up
        to the first copy that verifies — the one read of the shuffle's
        stored bytes, one map task per store call — and every call
        carries its reducer's chains in a read-only store, whichever
        executor runs it.
        """
        self._record_resize(result, executor.rebalance(job.num_reducers))
        attempts = job.shuffle.fetch_retries + 1
        with self.recorder.span(
            f"{job.name}:segment-read", category="shuffle", track="driver",
        ):
            chains: Dict[str, List[bytes]] = {}
            for per_map in paths:
                chains.update(store.snapshot(per_map, attempts))
        calls: List[TaskCall] = []
        for reducer_index in range(job.num_reducers):
            # Shuffle input: this reducer's segment from every mapper,
            # in map-task order.
            reducer_paths = [per_map[reducer_index] for per_map in paths]
            calls.append(TaskCall(
                "reduce", f"{job.name}-r-{reducer_index:05d}",
                self._place(None, reducer_index),
                store=SegmentStore(ShippedReplicaBackend(
                    {path: chains[path] for path in reducer_paths}
                )),
                paths=reducer_paths,
            ))
        return calls

    # -- wave execution + commit settlement ---------------------------------------
    def _run_wave(
        self,
        job: JobSpec,
        calls: List[TaskCall],
        result: JobResult,
        executor: TaskExecutor,
        committer: OutputCommitter,
        recovered: Dict[str, Tuple[int, TaskOutcome]],
    ) -> List[TaskOutcome]:
        """Run one wave of tasks, settle every commit, do the accounting.

        ``calls[i]`` is task *i*'s first attempt, at epoch 0; a lost
        attempt's re-execution rebinds it to a higher epoch via
        ``with_epoch``.  Tasks whose commits were recovered from the
        WAL are not re-executed — their journaled outcomes are replayed
        through the committer and merged back in at their task index,
        so the accounting (counters, history, outputs) sees exactly
        what a clean run would.  Returns the outcomes in task order;
        for the map wave of a job with reducers each carries one
        encoded shuffle segment per reduce partition — the file each
        mapper leaves for the shuffle.
        """
        kind = calls[0].kind
        live = [
            i for i, call in enumerate(calls)
            if call.task_id not in recovered
        ]
        # Injected faults each task's lost attempts absorbed.
        faults: Dict[str, int] = {}
        with self.recorder.span(
            f"{job.name}:{kind}-wave", category="wave", track="driver",
            tasks=len(calls), recovered=len(calls) - len(live),
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
                            task=calls[live[event.task]].task_id,
                            wave=kind,
                        )
            submitted = time.perf_counter()
            ran = iter(executor.run_calls([calls[i] for i in live]))
            killed = None
            try:
                self._settle_wave(
                    calls, ran, faults, result, executor, committer,
                    recovered,
                )
            except DriverKilledError as exc:
                # The driver dies mid-wave, after a journaled commit: the
                # tasks it committed so far are part of its record, as
                # they are of the resumed run that replays them.
                killed = exc
                calls = [c for c in calls if c.task_id in committer.promoted]
        self._account_wave(job, calls, committer, faults, submitted, result,
                           sequential=not executor.pooled)
        if killed is not None:
            raise killed
        return [committer.promoted[call.task_id] for call in calls]

    def _account_wave(
        self,
        job: JobSpec,
        calls: List[TaskCall],
        committer: OutputCommitter,
        faults: Dict[str, int],
        submitted: float,
        result: JobResult,
        sequential: bool,
    ) -> None:
        """Absorb one settled wave into counters, history and telemetry.

        The one post-wave bookkeeping routine, driven by the per-kind
        tables above, over each task's committed outcome; a task's
        attempts are its committed epoch + 1.  A task's queue wait runs
        from ``submitted`` (the wave submit) to its start; on a
        ``sequential`` (serial) executor, from when the task before it
        finished.
        """
        kind = calls[0].kind
        outcomes = [committer.promoted[call.task_id] for call in calls]
        attempts = 0
        ready = submitted
        for call, outcome in zip(calls, outcomes):
            task = attempt_from_outcome(
                call.task_id, kind, outcome,
                committer.committed[call.task_id] + 1,
            )
            task.injected_faults = faults.get(call.task_id, 0)
            attempts += task.attempts
            ingest_task(self.recorder, task, outcome, ready)
            if sequential and outcome.finished_at is not None:
                ready = max(ready, outcome.finished_at)
            result.history.add(task)
        result.counters.inc(_WAVE_ATTEMPTS[kind], attempts)

        def total(attr: str):
            return sum(getattr(outcome, attr) for outcome in outcomes)

        volumes = _WAVE_VOLUMES[kind]
        if kind == "map" and not job.is_map_only:
            volumes += _SHUFFLE_MAP_VOLUMES
        for counter, attr in volumes:
            result.counters.inc(counter, total(attr))
        for counter, attr in _WAVE_INCIDENTS:
            happened = total(attr)
            if happened:
                result.counters.inc(counter, happened)

    def _settle_wave(
        self,
        calls: List[TaskCall],
        ran: Iterator[Any],
        faults: Dict[str, int],
        result: JobResult,
        executor: TaskExecutor,
        committer: OutputCommitter,
        recovered: Dict[str, Tuple[int, TaskOutcome]],
    ) -> None:
        """Commit exactly one attempt per task, in task-index order.

        Replays recovered commits instead of anything else for tasks
        the WAL already settled; settles every other task's first
        attempt, the next of ``ran``, through :meth:`_settle_task`.
        Chaos-plan duplicate-commit events then re-present the committed
        attempt, which must be refused.  Each task's settled outcome is
        the one ``committer.promoted`` holds.
        """
        plan = self.policy.fault_plan
        for call in calls:
            task_id = call.task_id
            if task_id in recovered:
                epoch, outcome = recovered[task_id]
                # The outcome's run-time stamps belong to the dead
                # driver's clock; never stitch them into this trace.
                outcome.started_at = None
                outcome.finished_at = None
                committer.replay(task_id, epoch, outcome)
                continue
            self._settle_task(
                call, next(ran), faults, result, executor, committer,
            )
            if plan is not None and plan.duplicate_commit_for(task_id):
                # A duplicated commit RPC: the winning attempt presents
                # its (already-spent) token again and must be refused.
                self.recorder.metrics.counter("chaos.duplicate_commit").inc()
                committer.promote(
                    task_id, committer.committed[task_id],
                    committer.promoted[task_id],
                )

    def _settle_task(
        self,
        call: TaskCall,
        attempt: Any,
        faults: Dict[str, int],
        result: JobResult,
        executor: TaskExecutor,
        committer: OutputCommitter,
    ) -> None:
        """Commit one task, re-executing each lost attempt.

        The one re-execution loop.  An attempt is lost when it raised,
        its pool worker died or its lease was lost; :meth:`_lost` counts
        it under its reason and charges its node.  The driver then
        fences the task and issues attempt ``epoch + 1`` on a node
        placed against the *current* blacklist, charging one
        ``charged_backoff`` (recorded, never slept), until an attempt
        commits or ``policy.task_retries`` re-executions are spent.
        Every lease-lost attempt is a zombie still running: once the
        task commits, each presents its late commit, which the fence
        refuses.
        """
        task_id = call.task_id
        zombies: List[Tuple[int, TaskOutcome]] = []
        while True:
            if isinstance(attempt, TaskOutcome):
                committer.stage(task_id, call.epoch, attempt)
            cause = self._lost(result, call, attempt, faults)
            if cause is None:
                committer.promote(task_id, call.epoch, attempt)
                for epoch, zombie in zombies:
                    committer.promote(task_id, epoch, zombie)
                return
            if isinstance(attempt, TaskOutcome):
                zombies.append((call.epoch, attempt))
            if call.epoch >= self.policy.task_retries:
                error = MapReduceError(
                    f"task {task_id} failed after {call.epoch + 1} "
                    f"attempt(s): attempt {call.epoch + 1} {cause}"
                )
                if isinstance(attempt, AttemptFailed):
                    # The attempt's own traceback, wherever it ran.
                    raise error from MapReduceError(attempt.traceback)
                raise error
            epoch = committer.fence(task_id)
            result.counters.inc(C.BACKUP_ATTEMPTS)
            result.history.add_event(
                "backup_launched", task=task_id, epoch=epoch,
            )
            self.recorder.metrics.counter(
                "engine.backoff_charged_seconds"
            ).inc(charged_backoff(epoch))
            call = call.with_epoch(
                epoch, self._place(None, call.index + epoch)
            )
            with self.recorder.span(
                f"{task_id}-backup", category="backup", track="driver",
                kind=call.kind, epoch=epoch,
            ):
                attempt = executor.run_calls([call])[0]
            if isinstance(attempt, TaskOutcome):
                result.history.add(attempt_from_outcome(
                    f"{task_id}-backup-e{epoch}", call.kind, attempt,
                    backup=True,
                ))

    def _lost(
        self,
        result: JobResult,
        call: TaskCall,
        attempt: Any,
        faults: Dict[str, int],
    ) -> Optional[str]:
        """Why this attempt is lost, or ``None`` if it may commit.

        A lost attempt is counted under its reason — a dead worker in
        ``WORKER_CRASHES``, a chaos-plan raise in ``INJECTED_FAULTS``, a
        lost lease in ``LEASE_EXPIRATIONS`` — and charged to its node.
        """
        task_id, node = call.task_id, call.node
        if isinstance(attempt, WorkerCrash):
            result.counters.inc(C.WORKER_CRASHES)
            result.history.add_event(
                "worker_crashed", task=task_id, node=node, pid=attempt.pid,
                exitcode=attempt.exitcode,
            )
            reason = "WorkerCrashed"
            cause = f"lost its worker (exit code {attempt.exitcode})"
        elif isinstance(attempt, AttemptFailed):
            if attempt.injected:
                result.counters.inc(C.INJECTED_FAULTS)
                faults[task_id] = faults.get(task_id, 0) + 1
            reason = attempt.reason
            cause = f"raised {reason}: {attempt.error}"
        else:
            why = lease_lost(self.policy, attempt)
            if why is None:
                return None
            result.counters.inc(C.LEASE_EXPIRATIONS)
            if attempt.injected_delays:
                result.counters.inc(C.INJECTED_DELAYS)
            result.history.add_event(
                "lease_expired", task=task_id, node=node, reason=why,
            )
            reason, cause = "LeaseExpired", f"lost its lease ({why})"
        self._charge_node_failure(result, node, reason)
        return cause
