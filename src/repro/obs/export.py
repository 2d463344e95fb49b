"""Exporters for recorded traces.

Two targets:

* Chrome ``trace_event`` JSON (``chrome://tracing`` / Perfetto): one
  "X" complete event per span, with one rendering lane per track —
  load ``trace.json`` and the run reads like the paper's Fig 7 task
  timeline.
* JSONL: one JSON object per span plus a trailing metrics snapshot,
  for ad-hoc analysis with ``jq``/pandas.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List


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
