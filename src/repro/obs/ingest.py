"""Stitching worker-side task telemetry into the driver's recorder.

A task attempt measures itself wherever the executor ran it — run-time
stamps and buffered context spans (its phases, with their resource
readings, and the sections task code wrapped) — and ships the raw
``perf_counter`` readings back inside its outcome (see
:mod:`repro.mapreduce.task`).  The driver calls :func:`ingest_task`
once per settled task to put the task span and its context spans on
the worker's track, and to feed the queue-wait / run-time histograms.
"""

from __future__ import annotations

from typing import Any

from repro.obs.recorder import Span


def ingest_task(recorder: Any, task: Any, outcome: Any,
                submitted: float) -> None:
    """Stitch one task's measured telemetry into the recorder.

    Emits the task span, carrying its largest phase ``peak`` RSS when
    the phases took readings, re-homes the attempt's context spans on
    the worker's track one level under it, stamps queue wait and run
    time on the ``TaskAttempt`` and feeds their histograms.  ``submitted``
    is the driver's reading, on the same system-wide clock, of when the
    task became runnable.  A no-op for outcomes that carry no stamps:
    untraced runs, and commits replayed from the WAL (their stamps
    belong to a dead driver's clock).
    """
    if outcome.started_at is None or not recorder.enabled:
        return
    queue_wait = max(0.0, outcome.started_at - submitted)
    run_time = outcome.finished_at - outcome.started_at
    track = outcome.worker or task.task_id
    task_span = Span(
        task.task_id, f"{task.kind}-task",
        outcome.started_at, outcome.finished_at, track=track,
        attrs={
            "node": task.node,
            "attempts": task.attempts,
            "queue_wait_ms": round(queue_wait * 1e3, 3),
            "input_records": outcome.input_records,
            "output_records": outcome.output_records,
        },
    )
    peaks = [span.attrs["peak"] for span in outcome.spans
             if "peak" in span.attrs]
    if peaks:
        task_span.attrs["peak"] = max(peaks)
    task.queued_seconds = queue_wait
    task.run_seconds = run_time
    for span in outcome.spans:
        # Context spans carry the task id as track; re-home them on
        # the worker lane, nested under the task span.
        span.track = track
        span.depth += 1
    recorder.ingest([task_span] + outcome.spans)
    recorder.metrics.histogram("task.queue_wait_seconds").observe(queue_wait)
    recorder.metrics.histogram("task.run_seconds").observe(run_time)
