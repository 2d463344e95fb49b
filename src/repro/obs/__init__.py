"""Observability: spans, metrics, resource readings, analytics, reporters.

The real-execution counterpart of the cluster simulator's utilization
traces — see DESIGN.md section "Observability".  Beyond span recording
and scalar metrics this package carries the performance-study
telemetry subsystem: the resource readings traced phase spans carry
(:mod:`.sampler`), straggler/utilization/memory analytics
(:mod:`.analysis`), the report model
with its text / HTML / JSON renderers (:mod:`.report`), and the
contract benchmark's regression rule (:mod:`.compare`).
"""

from repro.obs.analysis import (
    MAD_THRESHOLD,
    Straggler,
    analyze,
    detect_stragglers,
    ledger,
    mad_scores,
    memory,
    phase_timeline,
    queue_run_decomposition,
    worker_cost,
)
from repro.obs.compare import compare_runs, load_run
from repro.obs.export import (
    to_chrome_trace,
    to_jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NULL_SPAN,
    NullRecorder,
    ObsConfig,
    Span,
    TraceRecorder,
)
from repro.obs.report import (
    Table,
    build_report,
    format_cell,
    render_html,
    render_text,
    report_dict,
)
from repro.obs.sampler import ResourceSample, phase_readings, take_sample

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MAD_THRESHOLD",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_RECORDER",
    "NULL_SPAN",
    "NullMetrics",
    "NullRecorder",
    "ObsConfig",
    "ResourceSample",
    "Span",
    "Straggler",
    "Table",
    "TraceRecorder",
    "analyze",
    "build_report",
    "compare_runs",
    "detect_stragglers",
    "format_cell",
    "ledger",
    "load_run",
    "mad_scores",
    "memory",
    "phase_readings",
    "phase_timeline",
    "queue_run_decomposition",
    "render_html",
    "render_text",
    "report_dict",
    "take_sample",
    "to_chrome_trace",
    "to_jsonl_lines",
    "worker_cost",
    "write_chrome_trace",
    "write_jsonl",
]
