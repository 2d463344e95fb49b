"""Stitching worker-side task telemetry into the driver's recorder.

A task attempt measures itself wherever the executor ran it — run-time
stamps, buffered context spans (its phases and the sections task code
wrapped), resource samples — and ships the raw ``perf_counter``
readings back inside its outcome (see :mod:`repro.mapreduce.task`).
The driver calls :func:`ingest_task` once per settled task to put the
task span and its context spans on the worker's track, and to feed the
queue-wait / run-time histograms and the per-worker ``proc.*`` time
series.
"""

from __future__ import annotations

from typing import Any

from repro.obs.recorder import Span


def ingest_task(recorder: Any, task: Any, outcome: Any,
                submitted: float) -> None:
    """Stitch one task's measured telemetry into the recorder.

    Emits the task span, re-homes the attempt's context spans on the
    worker's track one level under it, stamps queue wait and run time
    on the ``TaskAttempt`` and feeds their histograms.  ``submitted``
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
            "attempts": outcome.attempts,
            "queue_wait_ms": round(queue_wait * 1e3, 3),
            "input_records": outcome.input_records,
            "output_records": outcome.output_records,
        },
    )
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
    if outcome.samples:
        _ingest_samples(recorder, task, outcome, track)


def _ingest_samples(recorder: Any, task: Any, outcome: Any,
                    track: str) -> None:
    """Stitch an attempt's worker resource samples into the store.

    The raw samples are cumulative process counters taken inside the
    worker; the driver differences consecutive pairs into rates and
    lands them in per-worker :class:`TimeSeries` tagged, per point,
    with the task and the phase active at sample time — the (worker,
    task, phase) key the paper's Fig 7/10 plots pivot on.  RSS is
    instantaneous and kept as-is.
    """
    metrics = recorder.metrics
    epoch = recorder.epoch
    phases = [span for span in outcome.spans if span.category == "phase"]

    def phase_at(t: float) -> str:
        for span in phases:
            if span.start <= t < span.end:
                return span.name
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
            t, 100.0 * (sample.cpu_seconds - prev.cpu_seconds) / dt, tags
        )
        rss.append(t, sample.rss_bytes, tags)
        read.append(t, (sample.read_bytes - prev.read_bytes) / dt, tags)
        write.append(t, (sample.write_bytes - prev.write_bytes) / dt, tags)
        ctx.append(t, (sample.ctx_switches - prev.ctx_switches) / dt, tags)
        prev = sample
    metrics.counter("obs.samples_ingested").inc(len(samples))
