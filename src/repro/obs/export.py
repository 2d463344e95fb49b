"""Exporters for recorded traces.

Three targets:

* Chrome ``trace_event`` JSON (``chrome://tracing`` / Perfetto): one
  "X" complete event per span, with one rendering lane per track —
  load ``trace.json`` and the run reads like the paper's Fig 7 task
  timeline.
* JSONL: one JSON object per span plus a trailing metrics snapshot,
  for ad-hoc analysis with ``jq``/pandas.
* Terminal timeline: per-category concurrency strips over the shared
  :data:`repro.cluster.monitor.RAMP`, so a *real* run renders exactly
  like the simulator's Fig 7/Fig 10 strip charts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.monitor import render_ramp


def to_chrome_trace(recorder) -> Dict[str, Any]:
    """Convert a recorder's spans to the Chrome trace_event format."""
    spans = recorder.spans()
    epoch = recorder.epoch
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = [
        {
            "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": "repro"},
        }
    ]
    span_events: List[Dict[str, Any]] = []
    for span in spans:
        tid = tids.setdefault(span.track, len(tids) + 1)
        args = span.attrs
        if span.end is None:
            # Dead-worker span: never closed.  Export it zero-length
            # and flagged, so the trace stays loadable.
            args = dict(args)
            args["incomplete"] = True
        span_events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                # trace_event timestamps are microseconds.
                "ts": round((span.start - epoch) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": args,
            }
        )
    for track, tid in tids.items():
        events.append(
            {
                "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                "args": {"name": track},
            }
        )
    events.extend(span_events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder, path: str) -> str:
    """Write ``trace.json``; returns the path for convenience."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(recorder), handle)
        handle.write("\n")
    return path


def to_jsonl_lines(recorder) -> List[str]:
    """One JSON object per span, plus a final metrics snapshot line."""
    epoch = recorder.epoch
    lines = []
    for span in recorder.spans():
        record = span.to_dict(epoch)
        record["type"] = "span"
        lines.append(json.dumps(record, sort_keys=True, default=str))
    lines.append(
        json.dumps(
            {"type": "metrics", "metrics": recorder.metrics.as_dict()},
            sort_keys=True,
        )
    )
    return lines


def write_jsonl(recorder, path: str) -> str:
    with open(path, "w") as handle:
        for line in to_jsonl_lines(recorder):
            handle.write(line)
            handle.write("\n")
    return path


def concurrency_samples(
    intervals: Sequence[tuple], horizon: float, samples: int
) -> List[int]:
    """Active-interval count at ``samples`` evenly spaced instants."""
    counts = []
    for index in range(samples):
        t = horizon * (index + 0.5) / samples
        counts.append(sum(1 for start, end in intervals if start <= t < end))
    return counts


def render_timeline(
    recorder, width: int = 60,
    categories: Optional[Sequence[str]] = None,
) -> str:
    """Fig 7-style terminal timeline: one concurrency strip per category.

    Each row samples how many spans of that category are simultaneously
    active, normalised by the row's peak concurrency, and renders the
    result on the monitor strip-chart ramp.
    """
    spans = recorder.spans()
    horizon = recorder.horizon()
    if not spans or horizon <= 0 or width < 1:
        return "(no spans recorded)"
    epoch = recorder.epoch
    by_category: Dict[str, List[tuple]] = {}
    order: List[str] = []
    for span in spans:
        if categories is not None and span.category not in categories:
            continue
        if span.category not in by_category:
            by_category[span.category] = []
            order.append(span.category)
        # A dead-worker span never closed; draw it to the horizon.
        end = span.end - epoch if span.end is not None else horizon
        by_category[span.category].append((span.start - epoch, end))
    lines = [
        f"{'category':<12s}|{'concurrency over time':<{width}s}| "
        f"spans  peak  total"
    ]
    for category in order:
        intervals = by_category[category]
        counts = concurrency_samples(intervals, horizon, width)
        peak = max(max(counts), 1)
        strip = render_ramp([count / peak for count in counts])
        total = sum(end - start for start, end in intervals)
        lines.append(
            f"{category:<12s}|{strip}| {len(intervals):>5d} {peak:>5d} "
            f"{total:>6.2f}s"
        )
    lines.append(f"(horizon {horizon:.3f}s, {width} samples per strip)")
    return "\n".join(lines)
