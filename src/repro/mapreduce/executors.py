"""Pluggable task executors for the in-process MR engine.

Two executors, one call protocol.  A task attempt reaches a worker
exactly one way: as a small *call descriptor* (``call.run(context)``)
run against the job's :class:`JobContext`.  Every executor implements

``begin_job(context)`` / ``run_calls(calls)`` / ``end_job()`` / ``close()``

and returns a wave's results *by submission index*, whatever the
completion order.  The engine's determinism guarantee rests on that
contract: outputs are collected by index and shuffles merge in
map-task order, so every executor produces byte-identical job results.

``SerialExecutor``
    The reference implementation: one call at a time, in order, in the
    driver process.
``PooledProcessExecutor``
    Real CPU parallelism on workers forked once, at the pool's first
    job, that live until ``close()``; a later job reaches them as its
    pickled :class:`JobContext` (see the class).  Each wave runs on
    ``min(max_workers, tasks in the wave)`` workers.  Only picklable
    descriptors cross the pipes going in, and picklable outcomes coming
    back.  A worker that dies mid-task is detected by its broken pipe,
    reported to the engine as a :class:`WorkerCrash` marker, and
    replaced by a fresh fork; the engine re-executes the task as it
    does any lost attempt.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time
import weakref
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import MapReduceError
from repro.mapreduce.policy import ExecutionPolicy
from repro.obs.metrics import NULL_METRICS


class JobContext:
    """Everything a call descriptor needs to run one task of a job.

    In-process executors hand it to ``call.run`` directly.  The pool
    hands it to the workers it forks as a process argument, which the
    ``fork`` start method inherits rather than pickles, and sends it
    pickled to live workers: the job, policy, splits and trace flag; a
    worker keeps its fork's I/O layer and registry, the engine's.
    """

    __slots__ = ("job", "policy", "splits", "trace", "io", "metrics")

    def __init__(self, job, policy, splits, trace: bool = False,
                 io: Any = None, metrics: Any = NULL_METRICS):
        self.job = job
        self.policy = policy
        #: The job's input splits; map task *i* reads ``splits[i]``.
        self.splits: Sequence[Any] = splits
        #: When true (the engine's recorder is enabled), outcomes are
        #: stamped with run time and worker identity, and task contexts
        #: buffer their spans: phases, with their resource readings,
        #: and the sections task code wraps.
        self.trace = trace
        #: Durable-I/O layer map tasks spill runs through; ``None``
        #: (no spill directories configured) keeps runs in memory.
        self.io = io
        #: The recorder's metrics registry, whose counters task code
        #: bumps (HDFS reads of a round's input, for one).
        self.metrics = metrics

    def __reduce__(self):
        return JobContext, (self.job, self.policy, self.splits, self.trace)


def _description(context: JobContext) -> Optional[bytes]:
    """The job as one message, or ``None`` if it does not pickle."""
    try:
        return pickle.dumps(context, pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return None


def _run_call(call: Any, context: JobContext) -> Any:
    """Run one call descriptor, stamping its outcome when traced.

    Executes wherever the executor put the task — a forked worker for
    the pool — so the stamps travel back inside the pickled outcome.
    ``time.perf_counter`` is a system-wide monotonic clock, so
    worker-side readings compare directly against the driver's
    wave-submit timestamp (queue wait = started - submitted).
    """
    if not context.trace:
        return call.run(context)
    started = time.perf_counter()
    outcome = call.run(context)
    finished = time.perf_counter()
    if hasattr(outcome, "started_at"):
        outcome.started_at = started
        outcome.finished_at = finished
        outcome.worker = (
            f"pid{os.getpid()}/{threading.current_thread().name}"
        )
    return outcome


def fork_available() -> bool:
    """Whether this platform can fork (required by the pool executor)."""
    return "fork" in multiprocessing.get_all_start_methods()


class TaskExecutor(ABC):
    """Runs waves of call descriptors; results come back by index."""

    #: Matches ``ExecutionPolicy.executor``.
    kind: str = "abstract"
    #: True when tasks run in other processes: pool chaos applies and
    #: ``pool.*`` stats exist.
    pooled: bool = False
    _context: Optional[JobContext] = None

    def begin_job(self, context: JobContext) -> Optional[Dict[str, Any]]:
        """Bind the job every subsequent :meth:`run_calls` runs against;
        returns how the workers were resized for its map wave, if they were."""
        self._context = context
        return None

    def end_job(self) -> None:
        """Release the job (idempotent)."""
        self._context = None

    def close(self) -> None:
        """Release executor resources (idempotent)."""
        self.end_job()

    def stats(self) -> Dict[str, float]:
        """Lifetime accounting by metric name (the pool has some)."""
        return {}

    def rebalance(self, next_tasks: int) -> Optional[Dict[str, Any]]:
        """Size the workers for the coming wave; ``None``: nothing changed."""
        return None

    def _job_context(self) -> JobContext:
        if self._context is None:
            raise MapReduceError(
                f"{self.kind} executor has no job context; begin_job() first"
            )
        return self._context

    @abstractmethod
    def run_calls(self, calls: Sequence[Any]) -> List[Any]:
        """Run one wave of calls; return results by submission index.

        A call that raises propagates to the caller once nothing from
        the wave is still running.  A task call does not raise: its
        failure comes back as an ``AttemptFailed`` marker.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(TaskExecutor):
    """One call at a time, in submission order — the reference."""

    kind = "serial"

    def run_calls(self, calls: Sequence[Any]) -> List[Any]:
        context = self._job_context()
        return [_run_call(call, context) for call in calls]


class WorkerCrash:
    """Marker result: the pool worker running this task died mid-flight.

    Not an exception — the engine receives it in the task's result slot
    and settles it like any lost attempt, so a SIGKILLed worker costs
    one re-execution, not the job.
    """

    __slots__ = ("task_index", "exitcode", "pid")

    def __init__(self, task_index: int, exitcode: Optional[int],
                 pid: Optional[int]):
        self.task_index = task_index
        self.exitcode = exitcode
        self.pid = pid

    def __repr__(self) -> str:
        return (
            f"WorkerCrash(task={self.task_index}, pid={self.pid}, "
            f"exitcode={self.exitcode})"
        )


class _PoolTaskError:
    """Internal slot marker: the task raised; deferred until the wave
    drains so crashes and successes elsewhere are still collected."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


def _worker_counts(context: JobContext) -> Tuple[Dict, Dict]:
    """What this process has counted so far: the job's I/O-layer stats
    and the recorder's counters."""
    stats = context.io.stats if context.io is not None else None
    io = {name: getattr(stats, name) for name in stats.FIELDS} if stats else {}
    return io, context.metrics.counter_values()


def _deltas(now: Dict[str, float], seen: Dict[str, float]) -> Dict:
    return {name: value - seen.get(name, 0)
            for name, value in now.items() if value != seen.get(name, 0)}


def _pool_worker_main(conn, context: JobContext) -> None:
    """Entry point of one persistent pool worker, forked with the
    current job's context.

    Serves ``(seq, call)`` requests until told to stop (``None``) or
    the driver goes away (EOF); a :class:`JobContext` switches it to the
    next job.  Every reply is ``(seq, ok, payload, io, counters)``; an
    unpicklable payload is downgraded to a picklable error rather than
    killing the worker.  ``io`` and ``counters`` are what the task added
    to the I/O stats and to the recorder's counters (spill runs, HDFS
    reads), which the worker's copies of the I/O layer and registry hold
    and the driver cannot see otherwise.
    """
    seen = _worker_counts(context)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        if isinstance(message, JobContext):
            message.io, message.metrics = context.io, context.metrics
            context = message
            continue
        seq, call = message
        try:
            reply = (seq, True, _run_call(call, context))
        except BaseException as exc:  # must answer, whatever happened
            reply = (seq, False, exc)
        now = _worker_counts(context)
        counts = tuple(map(_deltas, now, seen))
        seen = now
        try:
            conn.send(reply + counts)
        except Exception:
            detail = (
                "task outcome failed to pickle" if reply[1]
                else f"task raised unpicklable "
                     f"{type(reply[2]).__name__}: {reply[2]}"
            )
            try:
                conn.send((seq, False, MapReduceError(detail)) + counts)
            except Exception:
                os._exit(1)
    try:
        conn.close()
    finally:
        os._exit(0)


class _PoolWorker:
    """One live pool worker: its process and the driver end of its pipe."""

    __slots__ = ("process", "conn", "started")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: ``perf_counter`` at fork — the start of this worker's paid
        #: lifetime (accumulated when the worker stops or is replaced).
        self.started = time.perf_counter()


def _terminate_pool_processes(workers: List[_PoolWorker]) -> None:
    """GC backstop: kill any workers an unclosed pool left running."""
    for worker in list(workers):
        try:
            if worker.process.is_alive():
                worker.process.terminate()
        except Exception:
            pass


#: Pools that have not been closed yet.  The atexit guard below reaps
#: them, so a driver that exits without ``close()`` cannot leave
#: orphaned fork children behind (the weakref.finalize backstop only
#: fires if the pool object is garbage-collected first).
_LIVE_POOLS: "weakref.WeakSet[PooledProcessExecutor]" = weakref.WeakSet()


def _reap_orphaned_pools() -> None:
    """atexit guard: close every pool a driver abandoned un-closed."""
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


atexit.register(_reap_orphaned_pools)


class PooledProcessExecutor(TaskExecutor):
    """Persistent fork-based worker pool — forks once per engine.

    Workers fork at the first :meth:`begin_job` with that job's context
    in memory, are fed every task — both waves and each re-execution —
    over per-worker pipes, and live until :meth:`close`; the engine
    caches the executor, so a pipeline runs all its rounds on one fork
    set.  A later job reaches them as its pickled :class:`JobContext`.
    A fresh fork set replaces them only for a job whose context does not
    pickle, or one the fault plan cold-starts (it lands on new workers).
    A worker that dies mid-task surfaces as a :class:`WorkerCrash` in
    its result slot and is replaced by a fresh fork; the engine fences
    and re-runs the lost task.

    **Sizing.**  Every wave runs on ``min(max_workers, tasks in the
    wave)`` workers: :meth:`begin_job` forks or rebalances to that many
    for the map wave, and the engine calls :meth:`rebalance` with the
    reduce wave's task count at the drain point between the waves,
    where every worker is idle, so retiring one loses no work.  The rule
    reads no clock, so a traced run scales exactly as the untraced run
    it measures.
    """

    kind = "pool"
    pooled = True

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise MapReduceError(
                "PooledProcessExecutor needs max_workers >= 1"
            )
        if not fork_available():
            raise MapReduceError(
                "the pool executor requires the fork start method, "
                "unavailable on this platform; use executor='serial'"
            )
        self.max_workers = max_workers
        #: Mutated in place (never rebound) so the GC finalizer sees
        #: the live worker set.
        self._workers: List[_PoolWorker] = []
        self._fresh = False
        #: A wave's calls are out (still, if it raised): fork afresh.
        self._in_flight = False
        self._closed = False
        #: Cold-start chaos, read from the job's fault plan at
        #: :meth:`begin_job`: a charged spawn delay applied to every
        #: fork, never slept.
        self.cold_start_seconds = 0.0
        #: Wave-task sequence numbers armed for spot-style preemption:
        #: the worker dispatched the seq-th call is SIGKILLed right
        #: after the send.  Cleared when the wave drains.
        self._pending_preemptions: Set[int] = set()
        #: Lifetime accounting, published through :meth:`stats`.
        self.forks = 0
        self.jobs = 0
        self.waves_reused = 0
        self.workers_respawned = 0
        self.preemptions = 0
        self.cold_starts = 0
        self.cold_start_charged = 0.0
        self.scale_ups = 0
        self.scale_downs = 0
        self.workers_retired = 0
        self._paid_seconds = 0.0
        self._finalizer = weakref.finalize(
            self, _terminate_pool_processes, self._workers
        )
        _LIVE_POOLS.add(self)

    # -- lifecycle ----------------------------------------------------------
    def _sized(self, tasks: int) -> int:
        return min(self.max_workers, max(tasks, 1))

    def begin_job(self, context: JobContext) -> Optional[Dict[str, Any]]:
        """Send the job to the live workers and :meth:`rebalance` them to
        its map wave — or, when none are live, the job does not pickle or
        the fault plan cold-starts it, fork the wave's workers afresh."""
        self._closed = False
        _LIVE_POOLS.add(self)
        self._context = context
        self.jobs += 1
        plan = context.policy.fault_plan
        self.cold_start_seconds = (
            plan.cold_start_for(context.job.name) if plan is not None else 0.0
        )
        message = None
        if self._workers and not (self.cold_start_seconds or self._in_flight):
            message = _description(context)
        self._fresh = message is None
        if self._fresh:
            self._retire(len(self._workers))
            self._in_flight = False
            self._spawn(self._sized(len(context.splits)))
            return None
        for worker in list(self._workers):
            try:
                worker.conn.send_bytes(message)
            except OSError:
                self._replace(worker)  # died while idle: no task lost
        return self.rebalance(len(context.splits))

    def end_job(self) -> None:
        """Release the job; its workers stay for the next one."""
        self._context = None
        self._pending_preemptions.clear()

    def close(self) -> None:
        """Idempotent teardown: safe to call any number of times, and
        called for you by the atexit guard if the driver forgot."""
        if self._closed:
            return
        self._closed = True
        self._retire(len(self._workers))
        self.end_job()
        _LIVE_POOLS.discard(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def _spawn(self, count: int) -> None:
        mp = multiprocessing.get_context("fork")
        context = self._job_context()
        for _ in range(count):
            parent_conn, child_conn = mp.Pipe()
            # ``start`` drops the process's reference to its arguments
            # after the fork; the child keeps its inherited copy.
            process = mp.Process(
                target=_pool_worker_main, args=(child_conn, context),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(_PoolWorker(process, parent_conn))
            self.forks += 1
            if self.cold_start_seconds > 0:
                # Spot-style cold start: every fork pays a charged
                # spawn delay, so scale-up is never free.
                self.cold_starts += 1
                self.cold_start_charged += self.cold_start_seconds

    def _reap(self, worker: _PoolWorker, kill: bool = False) -> None:
        """Tear one worker down and bank its paid lifetime.

        The worker was already asked to stop (or, with ``kill``, is
        known broken and gets no chance to linger).
        """
        if kill and worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5)
        try:
            worker.conn.close()
        except Exception:
            pass
        self._paid_seconds += time.perf_counter() - worker.started

    def _retire(self, count: int) -> None:
        """Ask the newest ``count`` workers to stop, then reap them.

        Called between waves, before fresh forks and at close: idle
        workers lose no work; one a cut-short wave left busy finishes.
        """
        retiring = [self._workers.pop() for _ in range(count)]
        for worker in retiring:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        for worker in retiring:
            self._reap(worker)

    def _replace(self, worker: _PoolWorker) -> _PoolWorker:
        """Swap a dead worker for a fresh fork of the current job."""
        self._workers.remove(worker)
        self._reap(worker, kill=True)
        self._spawn(1)
        self.workers_respawned += 1
        return self._workers[-1]

    # -- scaling controller -------------------------------------------------
    def rebalance(self, next_tasks: int) -> Optional[Dict[str, Any]]:
        """Size the pool for the coming wave, in one step.

        Returns a record of what changed (for JobHistory events and
        ``pool.scale.*`` metrics) or ``None`` when the pool already
        had the coming wave's size.
        """
        if not self._workers:
            return None
        live = len(self._workers)
        target = self._sized(next_tasks)
        if target == live:
            return None
        if target > live:
            self._spawn(target - live)
            self.scale_ups += 1
            action = "scale_up"
        else:
            self._retire(live - target)
            self.workers_retired += live - target
            self.scale_downs += 1
            action = "scale_down"
        return {
            "action": action,
            "from_workers": live,
            "to_workers": len(self._workers),
            "next_tasks": next_tasks,
        }

    # -- cost accounting ----------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Lifetime accounting under the ``pool.*`` metric names.

        The paid/busy split feeds the trace report's cost model:
        ``pool.paid_worker_seconds`` is what a cluster bill charges for
        the slots (cold-start charge included), against which the
        analysis layer's busy worker-seconds measure utilization.
        """
        return {
            "pool.forks": self.forks,
            "pool.reuse_count": self.waves_reused,
            "pool.workers_respawned": self.workers_respawned,
            "pool.preemptions": self.preemptions,
            "pool.cold_starts": self.cold_starts,
            "pool.cold_start_seconds": round(self.cold_start_charged, 6),
            "pool.paid_worker_seconds": round(
                self.paid_worker_seconds(), 6
            ),
            "pool.workers_retired": self.workers_retired,
            "pool.scale.ups": self.scale_ups,
            "pool.scale.downs": self.scale_downs,
        }

    def paid_worker_seconds(self) -> float:
        """Worker-lifetime seconds paid so far, live workers included,
        plus the charged cold-start spawn latency.

        The "paid" side of the cost model: what a cluster bill would
        charge for keeping these slots alive, whether or not they ran
        tasks.  Compare against the busy worker-seconds measured by
        ``repro.obs.analysis.worker_cost``.
        """
        now = time.perf_counter()
        live = sum(now - worker.started for worker in self._workers)
        return self._paid_seconds + live + self.cold_start_charged

    # -- chaos hooks --------------------------------------------------------
    def preempt_task(self, seq: int) -> None:
        """Arm a spot-style preemption for the coming wave.

        The worker that is dispatched the wave's ``seq``-th call is
        SIGKILLed immediately after the send — the driver then observes
        an EOF'd pipe mid-task, respawns the slot and the engine
        re-executes the task.  One-shot: the armed seq is consumed by
        the kill and any leftovers are cleared when the wave drains, so
        re-executions are not re-preempted.
        """
        self._pending_preemptions.add(seq)

    # -- dispatch -----------------------------------------------------------
    def run_calls(self, calls: Sequence[Any]) -> List[Any]:
        """Run one wave of call descriptors on the persistent workers.

        Results come back by submission index.  A slot whose worker
        died holds a :class:`WorkerCrash`; a slot whose call raised, or
        did not pickle, re-raises after the wave drains (the
        first-failure-propagates contract without abandoning sibling
        results).
        """
        context = self._job_context()
        if not calls:
            return []
        if self._fresh:
            self._fresh = False
        else:
            self.waves_reused += 1
        results: List[Any] = [None] * len(calls)
        pending = deque(enumerate(calls))
        idle = list(self._workers)
        busy: Dict[_PoolWorker, int] = {}
        completed = 0
        self._in_flight = True
        while completed < len(calls):
            while idle and pending:
                seq, call = pending.popleft()
                worker = idle.pop()
                preempted = seq in self._pending_preemptions
                if preempted:
                    # Spot preemption: the instance vanishes right as
                    # it picks up the task.  Kill *before* the send so
                    # the worker can never answer — crash attribution
                    # stays on the armed task no matter how fast it
                    # would have run.  The recv below hits EOF and the
                    # slot settles as a WorkerCrash.
                    self._pending_preemptions.discard(seq)
                    self.preemptions += 1
                    try:
                        worker.process.kill()
                    except Exception:
                        pass
                try:
                    worker.conn.send((seq, call))
                except OSError:
                    if not preempted:
                        # Died while idle: replace silently and
                        # re-queue — no task was lost.
                        idle.append(self._replace(worker))
                        pending.appendleft((seq, call))
                        continue
                except (pickle.PicklingError, AttributeError,
                        TypeError) as exc:
                    # ``send`` pickles before it writes: the call does
                    # not pickle, and the worker and its pipe are as
                    # they were.
                    name = getattr(call, "task_id", f"call {seq}")
                    results[seq] = _PoolTaskError(MapReduceError(
                        f"task {name} cannot be sent to a pool worker: "
                        f"{type(exc).__name__}: {exc}"
                    ))
                    idle.append(worker)
                    completed += 1
                    continue
                busy[worker] = seq
            if not busy:
                continue  # every call left was refused unsent
            by_conn = {worker.conn: worker for worker in busy}
            for conn in multiprocessing.connection.wait(list(by_conn)):
                worker = by_conn[conn]
                seq = busy.pop(worker)
                try:
                    got, ok, payload, io, counters = conn.recv()
                except (EOFError, OSError):
                    # Died mid-task: the task's result is a crash
                    # marker the engine settles by re-executing it.
                    worker.process.join(timeout=5)
                    results[seq] = WorkerCrash(
                        seq, worker.process.exitcode, worker.process.pid
                    )
                    idle.append(self._replace(worker))
                    completed += 1
                    continue
                if got != seq:
                    raise MapReduceError(
                        f"pool worker answered task {got}, expected {seq}"
                    )
                for name, value in io.items():
                    stats = context.io.stats
                    setattr(stats, name, getattr(stats, name) + value)
                for name, value in counters.items():
                    context.metrics.counter(name).inc(value)
                results[seq] = payload if ok else _PoolTaskError(payload)
                idle.append(worker)
                completed += 1
        self._in_flight = False
        # Preemptions armed beyond this wave's task count must not
        # leak into the next wave (or into re-executions).
        self._pending_preemptions.clear()
        for value in results:
            if isinstance(value, _PoolTaskError):
                raise value.error
        return results

    def __repr__(self) -> str:
        return (
            f"PooledProcessExecutor(max_workers={self.max_workers}, "
            f"live={len(self._workers)})"
        )


def build_executor(policy: ExecutionPolicy) -> TaskExecutor:
    """Instantiate the executor an :class:`ExecutionPolicy` asks for."""
    if policy.executor == "serial":
        return SerialExecutor()
    if policy.executor == "pool":
        return PooledProcessExecutor(policy.resolved_workers())
    raise MapReduceError(f"unknown executor kind {policy.executor!r}")
