"""Frozen, seeded fault plans — the chaos-harness vocabulary.

A :class:`FaultPlan` is an immutable list of fault events.  Each event
class declares itself once — its CLI ``flag``, the spec ``grammar`` the
flag takes, the ``plane`` that applies it, and its own validation — and
:data:`EVENT_TYPES` is the table everything else is derived from.  The
planes, in the order a run meets them: **storage** (the driver, when
the stage named by ``at_round`` is about to start), **segment**
(between a job's map and reduce waves), **task** (inside the engine's
attempt loop, keyed purely on ``(task_id, attempt)``), **commit** (the
driver at commit time: a duplicated commit must bounce off the
committer's fencing check, a killed driver must resume from the job
WAL), **pool** (the execution plane: a SIGKILLed worker, a charged
spawn delay), **io** (inside :mod:`repro.io`, below its retry loop)
and **server** (the job server at dispatch time).

Every keying scheme is independent of executor kind, scheduling
order, and process identity, so a plan injects *identical* faults
under the serial and forked engines.  A plan is the one
way to make an attempt fail on purpose; its failures are absorbed by
the engine's ordinary retry loop.

Injected delays are *charged* to the attempt (added to its measured
runtime before the ``task_timeout`` check), never slept, so timeout
drills are deterministic and need no real-time waits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
import re
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple
import zlib

from repro.errors import MapReduceError

#: Every event class, in declaration order (filled by :func:`_event`).
_DECLARED: List[type] = []


def _event(flag: str, grammar: str, plane: str):
    """Declare one fault event: a frozen dataclass that describes itself.

    ``flag`` is its CLI spelling (``--<flag>``), ``grammar`` the spec
    the flag takes — one token per dataclass field, in field order —
    and ``plane`` the layer that applies it.  The class docstring's
    first line is the flag's ``--help`` text; ``__post_init__`` holds
    the event's own validation.
    """
    def declare(cls):
        cls.flag, cls.grammar, cls.plane = flag, grammar, plane
        # Report / counter name: the class name in snake case.
        cls.kind = re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).lower()
        cls = dataclass(frozen=True)(cls)
        _DECLARED.append(cls)
        return cls
    return declare


def _require(event: Any, ok: Any, what: str) -> None:
    if not ok:
        raise MapReduceError(f"{type(event).__name__} {what}")


@_event("kill", "NODE@ROUND", "storage")
class KillDatanode:
    """Abruptly kill datanode NODE when stage ROUND (``at_round``) starts.

    Replicas on the node become unreadable immediately; re-replication
    restores the replication factor from surviving healthy replicas.
    """

    node: str
    at_round: str


@_event("decommission", "NODE@ROUND", "storage")
class DecommissionDatanode:
    """Gracefully drain datanode NODE when stage ROUND (``at_round``) starts.

    Its replicas are copied onto surviving nodes *before* the node
    stops serving, so no redundancy is lost at any instant.
    """

    node: str
    at_round: str


@_event("corrupt", "PATH@ROUND[:BLOCK[:REPLICA]]", "storage")
class CorruptReplica:
    """Flip bits in one replica of one block of PATH when stage ROUND starts.

    Reads detect the damage by CRC32 checksum, fail over to a healthy
    replica, and surface the event as a ``repro.obs`` counter; only
    losing *every* replica raises ``BlockLostError``.
    """

    path: str
    at_round: str
    block_index: int = 0
    replica_index: int = 0


@_event("corrupt-segment", "JOB[:MAP[:REDUCER[:REPLICA]]]", "segment")
class CorruptSegment:
    """Rot one replica of one of JOB's shuffle segments between its waves.

    Fires in the driver after the named job's map wave has stored its
    segments and before any reducer fetches them.  The reducer's fetch
    detects the damage by the segment's end-to-end CRC32 and refetches
    from another replica — the shuffle-layer analogue of
    :class:`CorruptReplica`.
    """

    job: str
    map_index: int = 0
    reducer: int = 0
    replica_index: int = 0


@_event("delay", "TASK:SECONDS[@ATTEMPT]", "task")
class DelayTask:
    """Charge SECONDS of extra runtime to one attempt of TASK.

    With a ``task_timeout`` below ``seconds`` the attempt is declared
    hung and retried; the delay is charged deterministically, never
    slept, so the timeout trips under every executor.
    """

    task_id: str
    seconds: float
    attempt: int = 1

    def __post_init__(self):
        _require(self, self.seconds >= 0, "seconds must be >= 0")


@_event("fail", "TASK[@ATTEMPT]", "task")
class RaiseInTask:
    """Raise an injected fault inside one attempt of TASK."""

    task_id: str
    attempt: int = 1


@_event("zombie", "TASK[@ATTEMPT]", "task")
class ZombieAttempt:
    """Declare one attempt's lease lost *after* it completes its work.

    Models the classic zombie worker: the task finishes and tries to
    commit, but the driver stopped hearing from it and already launched
    a fenced backup.  The attempt's outcome is marked, the driver's
    ``LeaseMonitor`` declares it lost, and its late commit must be
    refused by the stale fencing token (counted in ``commit.fenced``).
    Only addresses the primary lineage (epoch 0) — a backup attempt is
    a fresh worker the plan does not target.
    """

    task_id: str
    attempt: int = 1


@_event("duplicate-commit", "TASK", "commit")
class DuplicateCommit:
    """Replay one task's commit after it has already been promoted.

    Models a duplicated commit RPC (retry of an acked message).  The
    committer must refuse the second promotion — the output is applied
    exactly once — and count the refusal in ``commit.fenced``.
    """

    task_id: str


@_event("preempt", "JOB[:WAVE[:TASK]]", "pool")
class PreemptWorker:
    """Spot-style SIGKILL of a live pool worker mid-task (pool executor only).

    Fires inside the pool executor's dispatch loop during the named
    job's ``wave`` (``"map"`` or ``"reduce"``): the worker that picks
    up the wave's ``task``-th call is killed right after dispatch, so
    the driver observes an EOF'd pipe mid-wave.  The crash is absorbed
    by the exactly-once path — fence the epoch, launch a fenced backup
    attempt, respawn the worker slot — and the preempted node is
    charged a failure toward ``blacklist_after``.  Keying on
    ``(job, wave, task)`` is executor-order independent, so the same
    plan preempts the same logical work under every schedule.
    """

    job: str
    wave: str = "map"
    task: int = 0

    def __post_init__(self):
        if not self.wave:  # "JOB::TASK" leaves WAVE empty: the default wave
            object.__setattr__(self, "wave", "map")
        _require(
            self, self.wave in ("map", "reduce"),
            f"WAVE must be 'map' or 'reduce', got {self.wave!r}",
        )
        _require(self, self.task >= 0, "task must be >= 0")


@_event("cold-start", "SECONDS[@JOB]", "pool")
class ColdStart:
    """Charge SECONDS of spawn latency to every pool fork (of JOB, or all).

    Models cold-start on elastic/preemptible capacity: each worker the
    pool forks for the named job (or for every job when ``job`` is
    empty) is charged ``seconds`` of deterministic spawn delay — never
    slept, accounted in ``pool.cold_start_seconds`` — so autoscaling
    decisions pay a price for growing the pool.
    """

    seconds: float
    job: str = ""

    def __post_init__(self):
        _require(self, self.seconds >= 0, "seconds must be >= 0")


@_event("kill-driver", "ROUND[:COMMITS]", "commit")
class KillDriver:
    """Kill the driver after COMMITS (default 1) journaled commits of ROUND.

    Raises :class:`~repro.errors.DriverKilledError` immediately after
    the ``after_commits``-th task commit of ``at_round`` has been
    appended to the job WAL, so a resumed run must replay exactly that
    many tasks and re-run only the rest of the round.
    """

    at_round: str
    after_commits: int = 1

    def __post_init__(self):
        _require(self, self.after_commits >= 1, "after_commits must be >= 1")


@_event("kill-server", "STARTS", "server")
class KillServer:
    """Kill the job server after STARTS journaled job dispatches.

    The server-level sibling of :class:`KillDriver`: raises
    :class:`~repro.errors.ServerKilledError` immediately after the
    ``after_starts``-th start record has been appended to the durable
    submission queue — the dispatched job never runs, the process dies
    with running work unfinished — so a restarted server must re-admit
    exactly the non-terminal jobs and lose none.
    """

    after_starts: int = 1

    def __post_init__(self):
        _require(self, self.after_starts >= 1, "after_starts must be >= 1")


@_event("torn-write", "PATH_GLOB@BYTE", "io")
class TornWrite:
    """Tear the next durable write matching PATH_GLOB at byte BYTE.

    Fires in the :class:`~repro.io.faults.FaultIO` layer: the first
    write (atomic or append) whose logical path matches ``path_glob``
    persists only its first ``at_byte`` bytes and then fails with EIO —
    a power-cut mid-write.  Atomic writes leave the torn bytes in the
    temp file (the destination never changes); durable appends heal the
    torn tail by truncating back before the retry, so the CRC framing
    above never sees the damage.  Fires once.
    """

    path_glob: str
    at_byte: int = 0

    def __post_init__(self):
        _require(self, self.path_glob, "PATH_GLOB must be non-empty")
        _require(self, self.at_byte >= 0, "at_byte must be >= 0")


@_event("enospc", "AFTER_BYTES[@PATH_GLOB]", "io")
class Enospc:
    """Fail matching writes with ENOSPC once AFTER_BYTES bytes have landed.

    Models a filling disk: writes whose logical path matches
    ``path_glob`` draw from a cumulative budget of ``after_bytes``;
    the write that would exceed it — and every matching write after —
    raises ENOSPC.  ENOSPC is not transient, so the spill router's
    fallback directories (``IoPolicy.spill_dirs``) are what absorb it.
    """

    after_bytes: int
    path_glob: str = "*"

    def __post_init__(self):
        _require(self, self.after_bytes >= 0, "after_bytes must be >= 0")
        _require(self, self.path_glob, "PATH_GLOB must be non-empty")


@_event("eio", "READ|WRITE[:NTH]", "io")
class Eio:
    """Fail the NTH matching read or write with a transient EIO (default: 1st).

    ``mode`` is ``"read"`` or ``"write"``; ``nth`` counts matching
    operations through the I/O layer (1-based).  Fires once — the
    retried operation succeeds, so a single transient EIO must be
    absorbed by ``IoPolicy.retries`` without surfacing to the caller.
    """

    mode: str
    nth: int = 1
    path_glob: str = "*"

    def __post_init__(self):
        mode = self.mode.lower()  # the flag spells it READ|WRITE
        _require(
            self, mode in ("read", "write"),
            f"mode must be READ or WRITE, got {self.mode!r}",
        )
        object.__setattr__(self, "mode", mode)
        _require(self, self.nth >= 1, "nth must be >= 1")
        _require(self, self.path_glob, "PATH_GLOB must be non-empty")


@_event("slow-io", "SECONDS[@PATH_GLOB]", "io")
class SlowIo:
    """Charge SECONDS of latency to every matching I/O operation.

    The charge is deterministic and *charged* (recorded in
    ``io.slow_seconds``), never slept — the same discipline as
    :class:`DelayTask` — and it feeds ``IoPolicy.op_timeout``: an
    operation charged past the timeout raises a typed
    :class:`~repro.errors.IoTimeoutError`.
    """

    seconds: float
    path_glob: str = "*"

    def __post_init__(self):
        _require(self, self.seconds >= 0, "seconds must be >= 0")
        _require(self, self.path_glob, "PATH_GLOB must be non-empty")


#: The event table: every declared event class, in CLI order.
EVENT_TYPES = tuple(_DECLARED)


def _plane(name: str) -> Tuple[type, ...]:
    return tuple(cls for cls in EVENT_TYPES if cls.plane == name)


#: Events applied by the driver against HDFS at a round boundary.
STORAGE_EVENT_TYPES = _plane("storage")
#: Events applied by the engine between a job's map and reduce waves.
SEGMENT_EVENT_TYPES = _plane("segment")
#: Events applied inside the engine's task-attempt loop.
TASK_EVENT_TYPES = _plane("task")
#: Events applied by the driver at task-commit time.
COMMIT_EVENT_TYPES = _plane("commit")
#: Events applied by the job server at dispatch time.
SERVER_EVENT_TYPES = _plane("server")
#: Events applied at the execution plane (pool workers).
POOL_EVENT_TYPES = _plane("pool")
#: Events applied inside the durable-I/O layer (repro.io).
IO_EVENT_TYPES = _plane("io")
_BY_FLAG = {cls.flag: cls for cls in EVENT_TYPES}
#: Accepted spec grammar per flag — quoted verbatim in parse errors so
#: a malformed CLI flag names what was expected.
EVENT_GRAMMARS = {flag: cls.grammar for flag, cls in _BY_FLAG.items()}


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded schedule of fault events.

    ``seed`` identifies the plan (and feeds the :meth:`demo`
    constructor's deterministic choices); ``events`` is the full event
    tuple.  The plan is hashable and picklable, so it rides inside a
    frozen ``ExecutionPolicy`` across the fork boundary.
    """

    seed: int = 0
    events: Tuple[Any, ...] = ()

    def __post_init__(self):
        for event in self.events:
            if not isinstance(event, EVENT_TYPES):
                raise MapReduceError(
                    f"unknown fault event type {type(event).__name__!r}"
                )

    # -- lookups, one per place an event is applied ----------------------------
    def _of(self, types: Any, **where: Any) -> List[Any]:
        """Events of ``types`` whose fields equal ``where``, in plan order."""
        return [
            event for event in self.events
            if isinstance(event, types)
            and all(getattr(event, k) == v for k, v in where.items())
        ]

    def storage_events(self, round_key: str) -> List[Any]:
        """Storage events scheduled for the start of one round."""
        return self._of(STORAGE_EVENT_TYPES, at_round=round_key)

    def segment_events(self, job_name: str) -> List["CorruptSegment"]:
        """Segment corruptions scheduled between one job's waves."""
        return self._of(CorruptSegment, job=job_name)

    def delay_for(self, task_id: str, attempt: int) -> float:
        """Total injected delay charged to one task attempt."""
        return sum(
            event.seconds
            for event in self._of(DelayTask, task_id=task_id, attempt=attempt)
        )

    def raises_in(self, task_id: str, attempt: int) -> bool:
        """Whether the plan fails this task attempt outright."""
        return bool(self._of(RaiseInTask, task_id=task_id, attempt=attempt))

    def zombie_in(self, task_id: str, attempt: int) -> bool:
        """Whether this attempt completes with its lease already lost."""
        return bool(self._of(ZombieAttempt, task_id=task_id, attempt=attempt))

    def duplicate_commit_for(self, task_id: str) -> bool:
        """Whether the plan replays this task's commit after promotion."""
        return bool(self._of(DuplicateCommit, task_id=task_id))

    def driver_kill(self, round_key: str) -> Optional["KillDriver"]:
        """The driver-kill event scheduled inside one round, if any."""
        return next(iter(self._of(KillDriver, at_round=round_key)), None)

    def server_kill(self) -> Optional["KillServer"]:
        """The server-kill event, if the plan schedules one."""
        return next(iter(self._of(KillServer)), None)

    def preemptions_for(
        self, job_name: str, wave: str
    ) -> List["PreemptWorker"]:
        """Worker preemptions scheduled for one wave of one job."""
        return self._of(PreemptWorker, job=job_name, wave=wave)

    def cold_start_for(self, job_name: str) -> float:
        """Spawn delay charged to each worker fork during one job."""
        return sum(
            event.seconds for event in self._of(ColdStart)
            if event.job in ("", job_name)
        )

    def io_events(self) -> List[Any]:
        """Durable-I/O fault events, in plan order."""
        return self._of(IO_EVENT_TYPES)

    def touches_io(self) -> bool:
        return bool(self._of(IO_EVENT_TYPES))

    def check_addresses(self, task_ids: Set[str], jobs: Set[str]) -> None:
        """Refuse an event naming a task or job the run does not have.

        Such an event would inject nothing and the drill would "pass".
        ``task_ids`` and ``jobs`` come from a clean run of the same
        configuration; an empty ``ColdStart`` job means every job.
        """
        for event in self.events:
            for field, known in (("task_id", task_ids), ("job", jobs)):
                name = getattr(event, field, None)
                if name is None or name in known:
                    continue
                if isinstance(event, ColdStart) and not name:
                    continue  # every job
                from difflib import get_close_matches  # only on this error path

                near = get_close_matches(name, sorted(known), n=3, cutoff=0)
                raise MapReduceError(
                    f"chaos event {type(event).__name__} names {field} "
                    f"{name!r}, which this run does not have; it would "
                    f"inject nothing (nearest: {', '.join(near)})"
                )

    # -- reporting ----------------------------------------------------------
    def as_dicts(self) -> List[Dict[str, Any]]:
        """JSON-ready event list (for chaos reports and CI artifacts)."""
        return [{"kind": e.kind, **asdict(e)} for e in self.events]

    def describe(self) -> str:
        lines = [f"FaultPlan(seed={self.seed}, {len(self.events)} events)"]
        for entry in self.as_dicts():
            kind = entry.pop("kind")
            details = ", ".join(f"{k}={v}" for k, v in entry.items())
            lines.append(f"  - {kind}: {details}")
        return "\n".join(lines)

    # -- canonical seeded plan ----------------------------------------------
    @classmethod
    def demo(
        cls,
        seed: int,
        nodes: Sequence[str],
        kill_round: str = "round3",
        delay_task: str = "round4-sort-m-00000",
        delay_seconds: float = 60.0,
    ) -> "FaultPlan":
        """The acceptance scenario: one node kill plus one hung task.

        The victim datanode is drawn deterministically from ``seed``,
        so two runs with the same seed (in any process, under any
        executor) kill the same node during ``kill_round`` and time out
        the same ``delay_task`` attempt.
        """
        if not nodes:
            raise MapReduceError("FaultPlan.demo needs at least one node")
        victim = nodes[zlib.crc32(f"chaos|{seed}".encode()) % len(nodes)]
        return cls(
            seed=seed,
            events=(
                KillDatanode(victim, at_round=kill_round),
                DelayTask(delay_task, seconds=delay_seconds, attempt=1),
            ),
        )


#: One grammar token: ``[`` when optional, its separator, its NAME.
_TOKEN = re.compile(r"(\[?)([@:]?)([A-Z_|]+)")
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}


def _split_spec(tokens: List[Tuple[str, str, str]], spec: str) -> List[str]:
    """Cut ``spec`` into one text per leading grammar token.

    The spec is cut once at its last ``@`` (when the grammar has one),
    then each side on ``:``; the first field of a side keeps any
    surplus separators, so task ids and paths may contain them.
    Optional trailing tokens the spec leaves out get no text.
    """
    at = next((i for i, t in enumerate(tokens) if t[1] == "@"), len(tokens))
    sides = [(tokens[:at], spec)]
    if at < len(tokens):
        if "@" in spec:
            left, right = spec.rsplit("@", 1)
            sides = [(tokens[:at], left), (tokens[at:], right)]
        elif not tokens[at][0]:
            raise ValueError(f"missing '@{tokens[at][2]}'")
    texts: List[str] = []
    for side, text in sides:
        parts = text.rsplit(":", len(side) - 1)
        if len(parts) < len(side) and not side[len(parts)][0]:
            raise ValueError(f"missing ':{side[len(parts)][2]}'")
        texts += parts
    return texts


def parse_event(spec: str, kind: str) -> Any:
    """Parse one CLI event spec (``--<kind> <spec>``) into a fault event.

    ``kind`` is an event's ``flag``; the spec follows that event's
    ``grammar`` (``repro-genomics chaos --help`` lists them all).  A
    malformed spec raises :class:`~repro.errors.MapReduceError` naming
    the bad field and the accepted grammar — never a raw traceback.
    """
    cls = _BY_FLAG.get(kind)
    if cls is None:
        raise MapReduceError(f"unknown event kind {kind!r}")
    tokens = _TOKEN.findall(cls.grammar)
    try:
        values = {}
        for (_, _, name), field, text in zip(
            tokens, fields(cls), _split_spec(tokens, spec)
        ):
            convert, noun = _NUMBERS.get(field.type, (str, ""))
            try:
                values[field.name] = convert(text)
            except ValueError:
                raise ValueError(
                    f"{name} must be {noun}, got {text!r}"
                ) from None
        return cls(**values)
    except (ValueError, MapReduceError) as exc:
        raise MapReduceError(
            f"bad --{kind} event spec {spec!r}: {exc}; "
            f"expected --{kind} {cls.grammar}"
        ) from exc
