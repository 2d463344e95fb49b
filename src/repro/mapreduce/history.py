"""Job history: one record per settled task attempt.

The engine records each attempt's counts, spills, node assignment and
retries; a traced run adds its measured queue wait and run time.  Where
the time went inside an attempt is not kept here: its phases and
sections are spans in the run's recorder (:mod:`repro.obs.ingest`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class TaskAttempt:
    """One map or reduce task attempt."""

    def __init__(self, task_id: str, kind: str, node: str):
        self.task_id = task_id
        self.kind = kind  # "map" | "reduce"
        self.node = node
        self.input_records = 0
        self.output_records = 0
        self.spills = 0
        #: Execution attempts this task needed (1 = succeeded first
        #: try): its committed epoch + 1.
        self.attempts = 1
        #: Injected faults its lost attempts absorbed.
        self.injected_faults = 0
        #: True for a re-execution's record, under a fenced epoch.
        self.backup = False
        #: Measured seconds spent waiting for a worker slot (traced runs).
        self.queued_seconds = 0.0
        #: Measured seconds the final attempt ran (traced runs).
        self.run_seconds = 0.0

    def __repr__(self) -> str:
        retries = f", attempts={self.attempts}" if self.attempts > 1 else ""
        return (
            f"TaskAttempt({self.task_id}, {self.kind} on {self.node}, "
            f"in={self.input_records}, out={self.output_records}{retries})"
        )


class JobHistory:
    """All task attempts of one job, in execution order."""

    def __init__(self, job_name: str):
        self.job_name = job_name
        self.tasks: List[TaskAttempt] = []
        #: Task-id index maintained by :meth:`add`; first add wins, so
        #: :meth:`find` keeps its historical first-match semantics.
        self._by_id: Dict[str, TaskAttempt] = {}
        #: Cluster-level events (``node_blacklisted``, checkpoint
        #: restores, ...) in occurrence order, as plain dicts.
        self.events: List[Dict[str, Any]] = []

    def add(self, task: TaskAttempt) -> None:
        self.tasks.append(task)
        self._by_id.setdefault(task.task_id, task)

    def add_event(self, kind: str, **attrs: Any) -> Dict[str, Any]:
        """Record one cluster-level event (e.g. ``node_blacklisted``)."""
        event = {"kind": kind, **attrs}
        self.events.append(event)
        return event

    def events_of(self, kind: str) -> List[Dict[str, Any]]:
        return [event for event in self.events if event["kind"] == kind]

    def maps(self) -> List[TaskAttempt]:
        return [task for task in self.tasks if task.kind == "map"]

    def reduces(self) -> List[TaskAttempt]:
        return [task for task in self.tasks if task.kind == "reduce"]

    def by_node(self) -> Dict[str, List[TaskAttempt]]:
        grouped: Dict[str, List[TaskAttempt]] = {}
        for task in self.tasks:
            grouped.setdefault(task.node, []).append(task)
        return grouped

    def total_attempts(self) -> int:
        """Execution attempts across every task (re-executions included,
        once: a backup record is one of its task's attempts)."""
        return sum(task.attempts for task in self.tasks if not task.backup)

    def retried_tasks(self) -> List[TaskAttempt]:
        """Tasks that needed more than one attempt."""
        return [task for task in self.tasks if task.attempts > 1]

    def find(self, task_id: str) -> Optional[TaskAttempt]:
        return self._by_id.get(task_id)

    def backup_tasks(self) -> List[TaskAttempt]:
        """The records of re-executions, one per fenced epoch that ran."""
        return [task for task in self.tasks if task.backup]

    def summary(self) -> Dict[str, Any]:
        """Roll-up totals consumed by ``repro trace`` and reports."""
        primaries = [task for task in self.tasks if not task.backup]
        maps = [task for task in primaries if task.kind == "map"]
        reduces = [task for task in primaries if task.kind == "reduce"]
        return {
            "job": self.job_name,
            "tasks": len(primaries),
            "maps": len(maps),
            "reduces": len(reduces),
            "input_records": sum(t.input_records for t in primaries),
            "output_records": sum(t.output_records for t in primaries),
            "spills": sum(t.spills for t in primaries),
            "total_attempts": self.total_attempts(),
            "retried_tasks": len(self.retried_tasks()),
            "injected_faults": sum(t.injected_faults for t in primaries),
            "events": len(self.events),
            "backups": len(self.backup_tasks()),
            "fenced_commits": len(self.events_of("commit_fenced")),
            "nodes": len(self.by_node()),
            "queued_seconds": sum(t.queued_seconds for t in primaries),
            "run_seconds": sum(t.run_seconds for t in primaries),
        }

    def __repr__(self) -> str:
        return (
            f"JobHistory({self.job_name}: {len(self.maps())} maps, "
            f"{len(self.reduces())} reduces)"
        )
