"""Crash-consistency fuzzing for every durable component.

The headline gate of the durable-I/O layer: for each component that
persists state through :mod:`repro.io` — the generic
:class:`~repro.pipeline.wal.FrameLog`, the per-round
:class:`~repro.pipeline.wal.JobWal`, the server's
:class:`~repro.server.queue.DurableJobQueue`, the round
:class:`~repro.pipeline.checkpoint.CheckpointStore`, and the
:class:`~repro.shuffle.store.DiskSegmentBackend` — run a canonical
workload, record every durable effect, and then *kill* the workload at
every interesting instant:

* after every completed durable operation (every frame boundary);
* mid-append, truncating the frame at seeded intra-frame byte offsets
  (the torn tail a power cut leaves);
* mid-atomic-write, leaving a partial ``.inflight`` temp file next to
  the old content (the leftover a crashed rename protocol leaves).

Each crash point is *materialized* as a real on-disk state in a fresh
directory, the component's own recovery protocol runs against it, the
interrupted workload is completed, and the result is compared against
the uninterrupted run.  The comparison is byte-identical for the
journals, checkpoints and segments; the job queue is compared
semantically (its global dispatch counter legitimately advances past
orphaned start records — see ``_queue_summary``).

The harness never injects I/O *faults* — that is
:class:`~repro.io.faults.FaultIO`'s job; here the only adversary is
the kill switch, and the property under test is that recovery from any
reachable half-written state converges on the uninterrupted outcome
without raising and without resurrecting uncommitted records.

This module deliberately is not imported by :mod:`repro.io`'s package
``__init__`` — it imports the components it fuzzes, which import
:mod:`repro.io.layer`, and eager package-level imports would cycle.
"""

from __future__ import annotations

import os
import random
import shutil
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import DurableIoError
from repro.io.layer import TMP_SUFFIX, LocalIO
from repro.io.policy import IoPolicy

#: Components the gate covers, in fuzzing order.
COMPONENTS = ("framelog", "jobwal", "queue", "checkpoint", "segments")

#: Intra-frame cut points generated per durable append (seeded).
DEFAULT_APPEND_CUTS = 20

#: Partial-temp-file leftovers generated per atomic write (seeded).
DEFAULT_WRITE_CUTS = 10


class CrashFuzzError(DurableIoError):
    """The fuzz harness itself was misused (not a recovery failure)."""


class Op:
    """One recorded durable effect, with paths relative to the root."""

    __slots__ = ("kind", "path", "data")

    def __init__(self, kind: str, path: str, data: bytes = b""):
        self.kind = kind  # "write" | "append" | "unlink"
        self.path = path
        self.data = data

    def __repr__(self) -> str:
        return f"Op({self.kind}, {self.path!r}, {len(self.data)}B)"


class RecordingIO(LocalIO):
    """A LocalIO that journals every durable effect it performs.

    The recorded op list is the crash surface: every prefix of it —
    plus every partial final op — is a state a kill could leave behind.
    Paths are recorded relative to ``record_root`` so the same ops can
    be replayed into a different directory.
    """

    def __init__(self, record_root: str, policy: Optional[IoPolicy] = None):
        super().__init__(policy=policy)
        self.record_root = record_root
        self.ops: List[Op] = []

    def _rel(self, path: str) -> str:
        return os.path.relpath(path, self.record_root)

    def write_atomic(self, path: str, data: bytes) -> None:
        super().write_atomic(path, data)
        self.ops.append(Op("write", self._rel(path), data))

    def append_durable(self, path: str, data: bytes) -> None:
        super().append_durable(path, data)
        self.ops.append(Op("append", self._rel(path), data))

    def unlink(self, path: str) -> None:
        super().unlink(path)
        self.ops.append(Op("unlink", self._rel(path)))


class CrashPoint:
    """One materializable kill instant.

    ``ops_done`` full operations have landed; ``partial`` describes
    what (if anything) of the *next* op hit the disk:

    * ``None`` — clean boundary between operations;
    * ``"append"`` — the next append landed only its first ``cut``
      bytes (a torn tail);
    * ``"inflight"`` — the next atomic write left ``cut`` bytes in its
      ``.inflight`` temp file, the rename never happened.
    """

    __slots__ = ("ops_done", "partial", "cut")

    def __init__(self, ops_done: int, partial: Optional[str] = None,
                 cut: int = 0):
        self.ops_done = ops_done
        self.partial = partial
        self.cut = cut

    def describe(self) -> str:
        if self.partial is None:
            return f"after op {self.ops_done}"
        return (f"after op {self.ops_done} + {self.partial} cut at byte "
                f"{self.cut} of op {self.ops_done}")


def _seeded_cuts(rng: random.Random, length: int, count: int) -> List[int]:
    """``count`` distinct interior offsets of a ``length``-byte payload."""
    if length <= 1:
        return []
    interior = range(1, length)
    if len(interior) <= count:
        return list(interior)
    return sorted(rng.sample(interior, count))


def crash_points(
    ops: List[Op],
    seed: int = 0,
    append_cuts: int = DEFAULT_APPEND_CUTS,
    write_cuts: int = DEFAULT_WRITE_CUTS,
) -> List[CrashPoint]:
    """Every boundary plus seeded intra-op cuts for the op list."""
    rng = random.Random(seed)
    points: List[CrashPoint] = []
    for index in range(len(ops) + 1):
        points.append(CrashPoint(index))
    for index, op in enumerate(ops):
        if op.kind == "append":
            for cut in _seeded_cuts(rng, len(op.data), append_cuts):
                points.append(CrashPoint(index, "append", cut))
        elif op.kind == "write":
            for cut in _seeded_cuts(rng, len(op.data), write_cuts):
                points.append(CrashPoint(index, "inflight", cut))
    return points


def materialize(ops: List[Op], point: CrashPoint, root: str) -> None:
    """Build the on-disk state the kill at ``point`` leaves in ``root``."""
    os.makedirs(root, exist_ok=True)
    for op in ops[: point.ops_done]:
        _apply_full(op, root)
    if point.partial is None:
        return
    op = ops[point.ops_done]
    torn = op.data[: point.cut]
    if point.partial == "append":
        target = os.path.join(root, op.path)
        os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
        with open(target, "ab") as handle:
            handle.write(torn)
    elif point.partial == "inflight":
        target = os.path.join(root, op.path) + TMP_SUFFIX
        os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
        with open(target, "wb") as handle:
            handle.write(torn)
    else:
        raise CrashFuzzError(f"unknown partial kind {point.partial!r}")


def _apply_full(op: Op, root: str) -> None:
    target = os.path.join(root, op.path)
    if op.kind == "unlink":
        if os.path.exists(target):
            os.unlink(target)
        return
    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    mode = "wb" if op.kind == "write" else "ab"
    with open(target, mode) as handle:
        handle.write(op.data)


def disk_image(root: str) -> Dict[str, bytes]:
    """Logical durable content: every file except ``.inflight`` temps.

    A crashed atomic write may leave a partial temp file; the rename
    protocol guarantees no reader ever opens it, so the *logical* image
    a recovery must reproduce excludes them.
    """
    image: Dict[str, bytes] = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(TMP_SUFFIX):
                continue
            full = os.path.join(dirpath, name)
            with open(full, "rb") as handle:
                image[os.path.relpath(full, root)] = handle.read()
    return image


class FuzzTarget:
    """One durable component's canonical workload + recovery protocol."""

    def __init__(
        self,
        name: str,
        workload: Callable[[Any, str], None],
        recover: Callable[[Any, str], None],
        summarize: Optional[Callable[[Any, str], Any]] = None,
    ):
        self.name = name
        #: Runs the full uninterrupted workload against (io, root).
        self.workload = workload
        #: Recovers a crashed state and completes the workload.
        self.recover = recover
        #: Canonical final-state summary; None = raw disk image.
        self.summarize = summarize

    def summary(self, io: Any, root: str) -> Any:
        if self.summarize is not None:
            return self.summarize(io, root)
        return disk_image(root)


class FuzzReport:
    """Outcome of fuzzing one component across every crash point."""

    __slots__ = ("component", "boundary_points", "intra_points", "failures")

    def __init__(self, component: str):
        self.component = component
        self.boundary_points = 0
        self.intra_points = 0
        self.failures: List[str] = []

    @property
    def points(self) -> int:
        return self.boundary_points + self.intra_points

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "points": self.points,
            "boundary_points": self.boundary_points,
            "intra_points": self.intra_points,
            "failures": list(self.failures[:10]),
            "ok": self.ok,
        }


#: Fsync is pointless under a simulated kill (materialization decides
#: what survived); skipping it keeps thousands of crash points fast.
_FUZZ_POLICY = IoPolicy(fsync=False)


def fuzz_component(
    target: FuzzTarget,
    base_dir: str,
    seed: int = 0,
    append_cuts: int = DEFAULT_APPEND_CUTS,
    write_cuts: int = DEFAULT_WRITE_CUTS,
) -> FuzzReport:
    """Fuzz one component: every crash point must recover convergently."""
    report = FuzzReport(target.name)
    ref_root = os.path.join(base_dir, f"{target.name}-ref")
    recorder = RecordingIO(ref_root, policy=_FUZZ_POLICY)
    os.makedirs(ref_root, exist_ok=True)
    target.workload(recorder, ref_root)
    reference = target.summary(LocalIO(policy=_FUZZ_POLICY), ref_root)
    if not recorder.ops:
        raise CrashFuzzError(
            f"{target.name} workload recorded no durable operations"
        )
    scratch = os.path.join(base_dir, f"{target.name}-crash")
    for point in crash_points(recorder.ops, seed=seed,
                              append_cuts=append_cuts,
                              write_cuts=write_cuts):
        if point.partial is None:
            report.boundary_points += 1
        else:
            report.intra_points += 1
        if os.path.isdir(scratch):
            shutil.rmtree(scratch)
        materialize(recorder.ops, point, scratch)
        io = LocalIO(policy=_FUZZ_POLICY)
        try:
            target.recover(io, scratch)
        except Exception as exc:  # recovery must never raise
            report.failures.append(
                f"{point.describe()}: recovery raised "
                f"{type(exc).__name__}: {exc}"
            )
            continue
        recovered = target.summary(io, scratch)
        if recovered != reference:
            report.failures.append(
                f"{point.describe()}: recovered state diverges from the "
                "uninterrupted run"
            )
    if os.path.isdir(scratch):
        shutil.rmtree(scratch)
    return report


# ---------------------------------------------------------------------------
# Component workloads.  Each is small but exercises the component's full
# durable vocabulary: creation, appends, atomic rewrites, deletes.
# ---------------------------------------------------------------------------

_FRAMELOG_FINGERPRINT = "crashfuzz-framelog-v1"
_FRAMELOG_RECORDS = [
    {"kind": "alpha", "round": 1, "blob": b"a" * 40},
    {"kind": "beta", "round": 2, "blob": b"b" * 64},
    {"kind": "gamma", "round": 3, "blob": b"c" * 24},
]


def _framelog_backend(io: Any, root: str) -> Any:
    from repro.pipeline.checkpoint import LocalDirectoryBackend

    return LocalDirectoryBackend(root, io=io)


def _framelog_log(io: Any, root: str) -> Any:
    from repro.pipeline.wal import FrameLog

    return FrameLog(_framelog_backend(io, root), "fuzz.log",
                    _FRAMELOG_FINGERPRINT)


def _framelog_workload(io: Any, root: str) -> None:
    log = _framelog_log(io, root)
    log.reset()
    for record in _FRAMELOG_RECORDS:
        log.append(record)


def _framelog_recover(io: Any, root: str) -> None:
    """Replay the prefix, heal the tail, re-append what is missing."""
    log = _framelog_log(io, root)
    recovered = log.replay()
    if recovered != _FRAMELOG_RECORDS[: len(recovered)]:
        raise CrashFuzzError(
            "FrameLog replay resurrected records that were never "
            f"durably appended: {recovered!r}"
        )
    # The atomic rewrite heals any torn tail; appends then continue.
    log.rewrite(recovered)
    for record in _FRAMELOG_RECORDS[len(recovered):]:
        log.append(record)


_JOBWAL_FINGERPRINT = "crashfuzz-jobwal-v1"
_JOBWAL_ROUND = "round-02-dedup"
_JOBWAL_COMMITS = [
    ("map-000", 1, {"records": 120, "spills": 2}),
    ("map-001", 1, {"records": 98, "spills": 1}),
    ("map-002", 2, {"records": 140, "spills": 3}),
]


def _jobwal_wal(io: Any, root: str) -> Any:
    from repro.pipeline.wal import JobWal

    return JobWal(_framelog_backend(io, root), _JOBWAL_FINGERPRINT)


def _jobwal_workload(io: Any, root: str) -> None:
    wal = _jobwal_wal(io, root)
    wal.begin_round(_JOBWAL_ROUND)
    for task_id, epoch, outcome in _JOBWAL_COMMITS:
        wal.append_commit(_JOBWAL_ROUND, task_id, epoch, outcome)


def _jobwal_recover(io: Any, root: str) -> None:
    """The driver's resume protocol: recover, re-begin, re-commit.

    Journaled commits re-append through the normal commit path (the
    round restarts with a fresh header), un-journaled tasks re-run —
    which in this canonical workload reproduces the same outcome.
    """
    wal = _jobwal_wal(io, root)
    recovered = wal.recover_round(_JOBWAL_ROUND)
    wal.begin_round(_JOBWAL_ROUND)
    for task_id, epoch, outcome in _JOBWAL_COMMITS:
        if task_id in recovered:
            old_epoch, old_outcome = recovered[task_id]
            if (old_epoch, old_outcome) != (epoch, outcome):
                raise CrashFuzzError(
                    f"JobWal resurrected a commit for {task_id} that "
                    "does not match any durable append"
                )
            wal.append_commit(_JOBWAL_ROUND, task_id, old_epoch, old_outcome)
        else:
            wal.append_commit(_JOBWAL_ROUND, task_id, epoch, outcome)


_QUEUE_STEPS: Tuple[Tuple[Any, ...], ...] = (
    ("submit", "job-1", "acme", {"pipeline": "wordcount"}, 2.0, 1),
    ("submit", "job-2", "umbrella", {"pipeline": "dedup"}, 1.0, 2),
    ("start", "job-1"),
    ("done", "job-1", b"pickled-result-1", 0.25),
    ("submit", "job-3", "acme", {"pipeline": "sort"}, 3.0, 1),
    ("start", "job-2"),
    ("failed", "job-2", "reducer exploded"),
)


def _queue_open(io: Any, root: str) -> Any:
    from repro.server.queue import DurableJobQueue

    queue = DurableJobQueue(_framelog_backend(io, root))
    queue.open()
    return queue


def _queue_apply(queue: Any, step: Tuple[Any, ...]) -> None:
    kind = step[0]
    if kind == "submit":
        queue.submit(*step[1:])
    elif kind == "start":
        queue.mark_started(queue.get(step[1]))
    elif kind == "done":
        queue.mark_done(queue.get(step[1]), step[2], step[3])
    elif kind == "failed":
        queue.mark_failed(queue.get(step[1]), step[2])


def _queue_workload(io: Any, root: str) -> None:
    queue = _queue_open(io, root)
    for step in _QUEUE_STEPS:
        _queue_apply(queue, step)


def _queue_recover(io: Any, root: str) -> None:
    """Server restart: open() compacts + re-admits, then idempotently
    re-drive every step whose effect did not survive the crash."""
    queue = _queue_open(io, root)
    for step in _QUEUE_STEPS:
        kind = step[0]
        if kind == "submit":
            if step[1] in queue.jobs:
                continue
        else:
            job = queue.jobs.get(step[1])
            if job is None:
                raise CrashFuzzError(
                    f"queue recovery lost the submit record for {step[1]}"
                )
            if kind == "start":
                # Re-admission turned an orphaned start back into
                # pending; a journaled terminal state covers the start.
                if job.state != "pending":
                    continue
            elif job.terminal:
                continue
            elif job.state == "pending":
                # The terminal record died with the crash; the re-run
                # passes through dispatch again first.
                queue.mark_started(job)
        _queue_apply(queue, step)


def _queue_summary(io: Any, root: str) -> Any:
    """Semantic job table, not bytes.

    The global ``start_seq`` counter legitimately differs: recovery
    drops a crashed job's orphaned start record but never reuses its
    sequence number (re-dispatch must fence the old attempt), so the
    re-run's dispatch numbers sit above the uninterrupted run's.
    Everything observable about a job's outcome must still converge.
    """
    queue = _queue_open(io, root)
    return {
        job_id: (job.tenant, job.state, job.result_blob, job.error,
                 job.cost, job.demand, job.submit_seq)
        for job_id, job in queue.jobs.items()
    }


_CKPT_FINGERPRINT = "crashfuzz-checkpoint-v1"
_CKPT_ROUNDS = [
    (
        "round-01-align",
        [("/out/r1/part-0", b"aligned-reads-0" * 8, False),
         ("/out/r1/part-1", b"aligned-reads-1" * 8, True)],
        {"paths": ["/out/r1/part-0", "/out/r1/part-1"]},
        {"stats": b"r1-stats-blob"},
    ),
    (
        "round-02-dedup",
        [("/out/r2/part-0", b"deduped-reads-0" * 8, False)],
        {"paths": ["/out/r2/part-0"]},
        {"stats": b"r2-stats-blob"},
    ),
]


def _ckpt_store(io: Any, root: str) -> Any:
    from repro.pipeline.checkpoint import CheckpointStore

    return CheckpointStore.local(root, io=io)


def _ckpt_workload(io: Any, root: str) -> None:
    store = _ckpt_store(io, root)
    store.begin(_CKPT_FINGERPRINT)
    for key, files, extras, blobs in _CKPT_ROUNDS:
        store.save_round(key, files, extras=extras, blobs=blobs)


def _ckpt_recover(io: Any, root: str) -> None:
    """Resume: the manifest names the completed prefix; re-save the rest.

    The manifest is written last in ``save_round``, so a crash
    mid-save leaves the round out of the manifest and the re-save
    overwrites its half-landed blobs with identical bytes.
    """
    store = _ckpt_store(io, root)
    done = store.begin(_CKPT_FINGERPRINT, resume=True)
    keys = [key for key, _f, _e, _b in _CKPT_ROUNDS]
    if done != keys[: len(done)]:
        raise CrashFuzzError(
            f"checkpoint resume reported non-prefix rounds: {done!r}"
        )
    for key, files, extras, blobs in _CKPT_ROUNDS:
        if key not in done:
            store.save_round(key, files, extras=extras, blobs=blobs)


#: Three map tasks' outputs, each stored as one map file per replica.
_MAP_OUTPUTS = [
    ([f"/shuffle/job-f00d/map-00{m}/seg-{r}.bin" for r in range(2)],
     [f"segment-{m}-{r}".encode() * (9 + 5 * m - 3 * r) for r in range(2)])
    for m in range(3)
]


def _segments_backend(io: Any, root: str) -> Any:
    from repro.shuffle.store import DiskSegmentBackend

    dirs = (os.path.join(root, "spill-a"), os.path.join(root, "spill-b"))
    return DiskSegmentBackend(io, dirs, replicas=2, min_replicas=1)


def _segments_workload(io: Any, root: str) -> None:
    backend = _segments_backend(io, root)
    for paths, blobs in _MAP_OUTPUTS:
        backend.put_map(paths, blobs)


def _segments_recover(io: Any, root: str) -> None:
    """Shuffle recovery: re-put every map task's output (idempotent,
    same bytes).

    Atomic replica writes mean a crashed put left each map file either
    complete or absent — never torn — so the re-put converges on the
    uninterrupted layout byte for byte.
    """
    _segments_workload(io, root)


def _targets() -> Dict[str, FuzzTarget]:
    return {
        "framelog": FuzzTarget(
            "framelog", _framelog_workload, _framelog_recover),
        "jobwal": FuzzTarget("jobwal", _jobwal_workload, _jobwal_recover),
        "queue": FuzzTarget(
            "queue", _queue_workload, _queue_recover,
            summarize=_queue_summary),
        "checkpoint": FuzzTarget(
            "checkpoint", _ckpt_workload, _ckpt_recover),
        "segments": FuzzTarget(
            "segments", _segments_workload, _segments_recover),
    }


def run_fuzz_gate(
    base_dir: str,
    seed: int = 0,
    components: Optional[List[str]] = None,
    append_cuts: int = DEFAULT_APPEND_CUTS,
    write_cuts: int = DEFAULT_WRITE_CUTS,
) -> Dict[str, FuzzReport]:
    """Fuzz every requested component; returns per-component reports.

    The gate *passes* when every report's ``ok`` is true; callers (the
    ``crashfuzz`` CLI command and CI's ``crashfs-smoke`` job) decide
    how to surface a failure.
    """
    registry = _targets()
    chosen = list(components) if components else list(COMPONENTS)
    for name in chosen:
        if name not in registry:
            raise CrashFuzzError(
                f"unknown crashfuzz component {name!r}; "
                f"choose from {', '.join(COMPONENTS)}"
            )
    reports: Dict[str, FuzzReport] = {}
    for name in chosen:
        component_dir = os.path.join(base_dir, name)
        os.makedirs(component_dir, exist_ok=True)
        reports[name] = fuzz_component(
            registry[name], component_dir, seed=seed,
            append_cuts=append_cuts, write_cuts=write_cuts,
        )
    return reports
