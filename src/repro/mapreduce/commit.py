"""Exactly-once task commits: staging, promotion, fencing, leases.

The engine's determinism contract (serial ≡ parallel outputs, the
paper's §3.2 argument) only holds if every task's side effects are
applied *exactly once*.  This module is the commit boundary that
guarantees it:

* Every attempt's buffered effects (file writes, attachments — the
  ``TaskContext`` side-effect channel) land in an attempt-scoped
  *staging area* keyed ``(task_id, epoch)``.
* The driver *promotes* exactly one attempt per task.  Promotion
  checks an epoch **fencing token**: a zombie attempt — one whose
  lease the driver already declared lost — arrives with a stale epoch
  and is refused, as is a duplicated commit of an already-committed
  task.  Refusals are counted (``FENCED_COMMITS``) and recorded as
  ``commit_fenced`` history events, never applied.
* Promotion is atomic per attempt from the pipeline's point of view: a
  failure mid-apply leaves the task uncommitted and unjournaled, so a
  recovering driver re-runs it from scratch instead of resuming from a
  half-applied output (the failure mode the old ``_absorb_effects``
  path could not exclude).

Liveness is lease-based, Hadoop's one hung-task rule
(``mapreduce.task.timeout``): :func:`lease_lost` declares an attempt
lost when its *charged* runtime (measured wall time plus chaos-injected
delays, never slept) exceeds the policy's ``lease_seconds``, or when a
chaos ``ZombieAttempt`` marked it.  The engine then settles it like
any lost attempt: it charges the node a failure and re-issues the task
under a fresh fencing epoch.

:class:`RoundJournal` binds one engine run to the pipeline's job WAL
(:mod:`repro.pipeline.wal`): every promotion is journaled, and a
resumed run *replays* journaled commits through this same committer
instead of re-executing their tasks.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import CommitError, DriverKilledError, MapReduceError
from repro.mapreduce import counters as C
from repro.obs.recorder import NULL_RECORDER


def lease_lost(policy: Any, outcome: Any) -> Optional[str]:
    """Why this attempt's lease is lost, or ``None`` if it held.

    Reads only what the executor shipped back — the zombie mark and
    the charged runtime — so the verdict is identical under the serial
    and forked engines.  A runtime equal to the lease holds.
    """
    if outcome.zombie:
        return "zombie"
    lease = policy.lease_seconds
    if lease is not None and outcome.lease_charged > lease:
        return "timeout"
    return None


class OutputCommitter:
    """Applies exactly one attempt's side effects per task.

    The staging → promote → fence lifecycle:

    1. ``stage(task, epoch, outcome)`` — the attempt's buffered
       effects land in the attempt-scoped staging area; nothing is
       visible yet.
    2. ``promote(task, epoch, outcome)`` — the driver applies the
       staged effects iff the task is uncommitted *and* the attempt
       presents the task's current fencing token.  A stale token
       (zombie) or an already-committed task (duplicate) is refused
       and counted instead.
    3. ``fence(task)`` — bumps the token before the driver re-issues
       the task, so the abandoned attempt can never commit later.
    """

    def __init__(
        self,
        result: Any,
        filesystem: Any,
        recorder: Any = NULL_RECORDER,
        journal: Optional["RoundJournal"] = None,
    ):
        self.result = result
        self.filesystem = filesystem
        self.recorder = recorder
        self.journal = journal
        #: Fencing token each task's next promotion must present.
        self._epochs: Dict[str, int] = {}
        #: task_id -> epoch of the attempt that committed.
        self.committed: Dict[str, int] = {}
        #: task_id -> the outcome of the attempt that committed.
        self.promoted: Dict[str, Any] = {}
        #: Attempt-scoped staging area: (task_id, epoch) -> outcome.
        self._staged: Dict[Tuple[str, int], Any] = {}

    def expected_epoch(self, task_id: str) -> int:
        return self._epochs.get(task_id, 0)

    def stage(self, task_id: str, epoch: int, outcome: Any) -> None:
        """Land one attempt's buffered effects in the staging area."""
        self._staged[(task_id, epoch)] = outcome
        self.recorder.metrics.counter("commit.staged").inc()

    def fence(self, task_id: str) -> int:
        """Invalidate the task's current lineage; returns the new epoch."""
        epoch = self.expected_epoch(task_id) + 1
        self._epochs[task_id] = epoch
        return epoch

    def promote(self, task_id: str, epoch: int, outcome: Any) -> bool:
        """Atomically apply one staged attempt's effects.

        Returns ``False`` — counting the refusal in ``FENCED_COMMITS``
        and recording a ``commit_fenced`` history event — when the
        task is already committed or the attempt presents a stale
        fencing token.  A successful promotion journals the commit (if
        a journal is attached) so a restarted driver replays it
        instead of re-running the task.
        """
        if task_id in self.committed or epoch != self.expected_epoch(task_id):
            # A stale token is a zombie's whether or not a backup has
            # committed since; only the current token can be a duplicate.
            reason = (
                "stale_epoch" if epoch != self.expected_epoch(task_id)
                else "duplicate"
            )
            self.result.counters.inc(C.FENCED_COMMITS)
            self.result.history.add_event(
                "commit_fenced", task=task_id, epoch=epoch,
                expected=self.expected_epoch(task_id), reason=reason,
            )
            return False
        if (task_id, epoch) not in self._staged:
            raise CommitError(
                f"promotion of {task_id} epoch {epoch} was never staged"
            )
        for path, data, logical in outcome.file_writes:
            if self.filesystem is None:
                raise MapReduceError(
                    f"task {task_id} wrote {path} but the engine has no "
                    "filesystem attached"
                )
            self.filesystem.put(path, data, logical_partition=logical)
        for name, value in outcome.attachments:
            self.result.attachments.setdefault(name, []).append(value)
        self.committed[task_id] = epoch
        self.promoted[task_id] = outcome
        del self._staged[(task_id, epoch)]
        self.result.counters.inc(C.TASK_COMMITS)
        if self.journal is not None:
            self.journal.record_commit(task_id, epoch, outcome)
        return True

    def replay(self, task_id: str, epoch: int, outcome: Any) -> None:
        """Re-apply a commit recovered from the WAL (resume path).

        The recorded epoch becomes the task's expected token (the
        interrupted run may have committed a backup), the effects are
        re-applied through the normal promotion path — re-journaling
        the commit into the freshly begun log — and the skipped
        re-execution is counted in ``WAL_TASKS_SKIPPED``.
        """
        self._epochs[task_id] = epoch
        self.stage(task_id, epoch, outcome)
        if not self.promote(task_id, epoch, outcome):
            raise CommitError(
                f"journaled commit for {task_id} (epoch {epoch}) was "
                "refused on replay"
            )
        self.result.counters.inc(C.WAL_TASKS_SKIPPED)
        self.result.history.add_event(
            "task_replayed", task=task_id, epoch=epoch,
        )


class RoundJournal:
    """Binds one engine run to the job WAL for its pipeline round.

    Carries the commits recovered from an interrupted run (the engine
    replays them instead of re-executing their tasks) and appends every
    new promotion to the log.  The chaos plan's ``KillDriver`` event
    hooks in here: the driver dies *after* the triggering commit is
    journaled, which is exactly what makes the crash recoverable.
    """

    def __init__(
        self,
        wal: Any,
        round_key: str,
        recovered: Optional[Dict[str, Tuple[int, Any]]] = None,
        plan: Any = None,
    ):
        self.wal = wal
        self.round_key = round_key
        #: task_id -> (epoch, outcome) recovered from the previous log.
        self.recovered: Dict[str, Tuple[int, Any]] = dict(recovered or {})
        self.plan = plan
        #: Commits journaled by this run of the round.
        self.commits = 0

    def record_commit(self, task_id: str, epoch: int, outcome: Any) -> None:
        self.wal.append_commit(self.round_key, task_id, epoch, outcome)
        self.commits += 1
        if self.plan is not None:
            kill = self.plan.driver_kill(self.round_key)
            if kill is not None and self.commits == kill.after_commits:
                raise DriverKilledError(
                    f"chaos plan killed the driver after commit "
                    f"#{self.commits} of {self.round_key} (task {task_id} "
                    "is journaled; the rest of the round is recoverable "
                    "from the WAL)"
                )
