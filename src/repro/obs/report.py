"""Self-contained HTML performance report.

Renders one traced run — spans, phase totals, straggler analytics,
worker cost, and the resource sampler's time-series — into a single
HTML file with inline SVG (no external assets, no scripts), so the
artifact a CI job uploads opens anywhere and diffs cleanly.

Sections mirror the paper's figures: a per-track span timeline (Fig 7
task progress), per-phase utilization strips (Fig 10), a straggler
table, and per-worker resource sparklines (the continuous-observation
methodology the study is built on).
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.analysis import (
    MAD_THRESHOLD,
    analyze,
    phase_timeline,
    resource_series,
    worker_cost_summary,
)

#: Fixed category palette; unknown categories hash into it.
_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_CATEGORY_COLORS = {
    "job": "#4e79a7",
    "round": "#b07aa1",
    "wave": "#9c755f",
    "phase": "#59a14f",
    "map-task": "#f28e2b",
    "reduce-task": "#e15759",
    "backup": "#ff9da7",
}


def _color(category: str) -> str:
    color = _CATEGORY_COLORS.get(category)
    if color is None:
        color = _PALETTE[hash(category) % len(_PALETTE)]
    return color


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    return f"{seconds * 1e3:.1f} ms"


def _fmt_bytes(count: float) -> str:
    count = float(count or 0)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.0f} {unit}" if unit == "B" \
                else f"{count:.1f} {unit}"
        count /= 1024
    return f"{count:.1f} GiB"


def _timeline_svg(recorder, width: int = 900, lane_height: int = 14,
                  max_lanes: int = 80) -> str:
    """Per-track span timeline as one inline SVG (Fig 7 shape)."""
    spans = recorder.spans()
    horizon = recorder.horizon()
    if not spans or horizon <= 0:
        return "<p>(no spans recorded)</p>"
    epoch = recorder.epoch
    lanes: Dict[str, int] = {}
    for span in spans:
        if span.track not in lanes:
            lanes[span.track] = len(lanes)
    dropped = 0
    if len(lanes) > max_lanes:
        keep = dict(list(lanes.items())[:max_lanes])
        dropped = len(lanes) - max_lanes
        lanes = keep
    label_width = 180
    height = len(lanes) * lane_height + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{label_width + width + 10}" height="{height}" '
        f'font-family="monospace" font-size="10">'
    ]
    for track, lane in lanes.items():
        y = lane * lane_height
        parts.append(
            f'<text x="2" y="{y + lane_height - 3}" '
            f'fill="#555">{_esc(track[:28])}</text>'
        )
        parts.append(
            f'<line x1="{label_width}" y1="{y + lane_height}" '
            f'x2="{label_width + width}" y2="{y + lane_height}" '
            f'stroke="#eee"/>'
        )
    for span in spans:
        lane = lanes.get(span.track)
        if lane is None:
            continue
        x = label_width + (span.start - epoch) / horizon * width
        w = max(span.duration / horizon * width, 0.5)
        y = lane * lane_height + 1
        title = (
            f"{span.name} [{span.category}] "
            f"{_fmt_seconds(span.duration)}"
        )
        parts.append(
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
            f'height="{lane_height - 3}" fill="{_color(span.category)}" '
            f'fill-opacity="0.85"><title>{_esc(title)}</title></rect>'
        )
    axis_y = len(lanes) * lane_height + 12
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = label_width + frac * width
        parts.append(
            f'<text x="{x:.0f}" y="{axis_y}" fill="#888" '
            f'text-anchor="middle">{horizon * frac:.2f}s</text>'
        )
    parts.append("</svg>")
    if dropped:
        parts.append(f"<p>({dropped} additional tracks not shown)</p>")
    legend = " ".join(
        f'<span style="color:{_color(c)}">&#9632; {_esc(c)}</span>'
        for c in sorted({span.category for span in spans})
    )
    return f"{''.join(parts)}<p>{legend}</p>"


def _utilization_svg(timeline: Dict[str, Any], width: int = 900,
                     row_height: int = 22) -> str:
    """Per-phase concurrency strips (the Fig 10 utilization view)."""
    phases = timeline.get("phases") or {}
    if not phases:
        return "<p>(no phase spans recorded)</p>"
    samples = timeline["samples"]
    cell = width / samples
    height = len(phases) * row_height + 16
    label_width = 90
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{label_width + width + 10}" height="{height}" '
        f'font-family="monospace" font-size="10">'
    ]
    for row, (name, counts) in enumerate(sorted(phases.items())):
        peak = max(max(counts), 1)
        y = row * row_height
        parts.append(
            f'<text x="2" y="{y + row_height - 8}" fill="#555">'
            f'{_esc(name)} (peak {peak})</text>'
        )
        for index, count in enumerate(counts):
            if count <= 0:
                continue
            opacity = 0.15 + 0.85 * (count / peak)
            parts.append(
                f'<rect x="{label_width + index * cell:.2f}" y="{y + 2}" '
                f'width="{cell:.2f}" height="{row_height - 6}" '
                f'fill="#4e79a7" fill-opacity="{opacity:.2f}">'
                f'<title>{_esc(name)}: {count} active</title></rect>'
            )
    axis_y = len(phases) * row_height + 12
    horizon = timeline["horizon"]
    for frac in (0.0, 0.5, 1.0):
        x = label_width + frac * width
        parts.append(
            f'<text x="{x:.0f}" y="{axis_y}" fill="#888" '
            f'text-anchor="middle">{horizon * frac:.2f}s</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _sparkline(values: List[float], width: int = 220,
               height: int = 28) -> str:
    """One series as a tiny inline SVG polyline."""
    if not values:
        return "<span>(empty)</span>"
    top = max(values)
    bottom = min(values)
    spread = (top - bottom) or 1.0
    step = width / max(len(values) - 1, 1)
    points = " ".join(
        f"{index * step:.1f},"
        f"{height - 2 - (value - bottom) / spread * (height - 4):.1f}"
        for index, value in enumerate(values)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}"><polyline points="{points}" fill="none" '
        f'stroke="#4e79a7" stroke-width="1.2"/></svg>'
    )


def _series_value_label(name: str, value: float) -> str:
    if "bytes" in name and "per_s" not in name:
        return _fmt_bytes(value)
    if "percent" in name:
        return f"{value:.0f}%"
    if "per_s" in name:
        return f"{value:,.0f}/s"
    return f"{value:g}"


def render_html_report(
    recorder,
    histories: Optional[Iterable[Tuple[str, Any]]] = None,
    title: str = "repro performance report",
    threshold: float = MAD_THRESHOLD,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> str:
    """The whole report as one self-contained HTML string."""
    histories = list(histories or [])
    bundle = analyze(recorder, histories, threshold)
    cost = bundle["worker_cost"]
    started = (
        time.strftime("%Y-%m-%d %H:%M:%S",
                      time.localtime(recorder.wall_epoch))
        if recorder.wall_epoch else "(untraced)"
    )
    meta_rows = {
        "captured": started,
        "wall": _fmt_seconds(recorder.horizon()),
        "spans": len(recorder.spans()),
        "workers seen": cost["worker_count"],
        "busy worker-seconds": f"{cost['busy_worker_seconds']:.3f}",
        "paid worker-seconds": f"{cost['paid_worker_seconds']:.3f}",
        "worker utilization": f"{cost['utilization'] * 100:.1f}%",
        "effective parallelism": f"{cost['parallelism']:.2f}x",
    }
    meta_rows.update(extra_meta or {})

    out: List[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title>",
        "<style>",
        "body{font-family:system-ui,sans-serif;margin:24px;color:#222}",
        "h1{font-size:20px}h2{font-size:16px;margin-top:28px;"
        "border-bottom:1px solid #ddd;padding-bottom:4px}",
        "table{border-collapse:collapse;font-size:13px}",
        "td,th{border:1px solid #ddd;padding:3px 8px;text-align:right}",
        "th{background:#f5f5f5}td:first-child,th:first-child"
        "{text-align:left}",
        ".meta td{border:none;padding:1px 12px 1px 0;text-align:left}",
        ".ok{color:#2a7}.bad{color:#c33}",
        "</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        "<table class='meta'>",
    ]
    for key, value in meta_rows.items():
        out.append(f"<tr><td>{_esc(key)}</td><td><b>{_esc(value)}</b>"
                   "</td></tr>")
    out.append("</table>")

    out.append("<h2>Span timeline</h2>")
    out.append(_timeline_svg(recorder))

    out.append("<h2>Per-phase utilization</h2>")
    out.append(_utilization_svg(bundle["phase_timeline"]))

    phase_totals = recorder.phase_totals()
    out.append("<h2>Phase totals</h2>")
    if phase_totals:
        grand = sum(phase_totals.values()) or 1.0
        out.append("<table><tr><th>phase</th><th>total</th>"
                   "<th>share</th></tr>")
        for name, total in sorted(phase_totals.items(),
                                  key=lambda item: -item[1]):
            out.append(
                f"<tr><td>{_esc(name)}</td>"
                f"<td>{_fmt_seconds(total)}</td>"
                f"<td>{total / grand * 100:.1f}%</td></tr>"
            )
        out.append("</table>")
    else:
        out.append("<p>(no phase spans recorded)</p>")

    out.append("<h2>Queue wait vs run time</h2>")
    if bundle["queue_run"]:
        out.append(
            "<table><tr><th>round</th><th>wave</th><th>tasks</th>"
            "<th>queued</th><th>run</th><th>queue share</th></tr>"
        )
        for label, decomposition in bundle["queue_run"].items():
            for kind in ("map", "reduce"):
                row = decomposition[kind]
                if not row["tasks"]:
                    continue
                out.append(
                    f"<tr><td>{_esc(label)}</td><td>{kind}</td>"
                    f"<td>{row['tasks']}</td>"
                    f"<td>{_fmt_seconds(row['queued_seconds'])}</td>"
                    f"<td>{_fmt_seconds(row['run_seconds'])}</td>"
                    f"<td>{row['queue_fraction'] * 100:.1f}%</td></tr>"
                )
        out.append("</table>")
    else:
        out.append("<p>(no job histories supplied)</p>")

    out.append("<h2>Stragglers</h2>")
    stragglers = bundle["stragglers"]
    if stragglers:
        out.append(
            "<table><tr><th>task</th><th>round</th><th>kind</th>"
            "<th>node</th><th>run</th><th>wave median</th>"
            "<th>MAD score</th></tr>"
        )
        for entry in stragglers:
            out.append(
                f"<tr><td>{_esc(entry['task_id'])}</td>"
                f"<td>{_esc(entry.get('round', ''))}</td>"
                f"<td>{_esc(entry['kind'])}</td>"
                f"<td>{_esc(entry['node'])}</td>"
                f"<td>{_fmt_seconds(entry['run_seconds'])}</td>"
                f"<td>{_fmt_seconds(entry['wave_median'])}</td>"
                f"<td class='bad'>{entry['score']:.1f}</td></tr>"
            )
        out.append("</table>")
    else:
        out.append(
            f"<p class='ok'>none detected "
            f"(MAD threshold {threshold:g})</p>"
        )

    out.append("<h2>Worker resource sampling</h2>")
    grouped = resource_series(recorder)
    if grouped:
        for name, series_list in sorted(grouped.items()):
            out.append(f"<h3>{_esc(name)}</h3><table>")
            out.append("<tr><th>worker</th><th>sparkline</th>"
                       "<th>samples</th><th>min</th><th>max</th></tr>")
            for series in series_list:
                values = series.values()
                worker = series.tags.get("worker", "?")
                low = min(values) if values else 0.0
                high = max(values) if values else 0.0
                out.append(
                    f"<tr><td>{_esc(worker)}</td>"
                    f"<td>{_sparkline(values)}</td>"
                    f"<td>{len(values)}</td>"
                    f"<td>{_esc(_series_value_label(name, low))}</td>"
                    f"<td>{_esc(_series_value_label(name, high))}</td>"
                    "</tr>"
                )
            out.append("</table>")
    else:
        out.append(
            "<p>(sampler off — run with a sample interval, e.g. "
            "<code>repro-genomics report --sample-interval 0.02</code>)"
            "</p>"
        )

    counters = recorder.metrics.as_dict()["counters"]
    tenants = bundle.get("tenants") or {}
    if tenants:
        out.append("<h2>Tenants</h2>")
        out.append(
            "<table><tr><th>tenant</th><th>admitted</th>"
            "<th>rejected</th><th>completed</th><th>failed</th>"
            "<th>charged units</th><th>paid worker-seconds</th></tr>"
        )
        for name, entry in tenants.items():
            out.append(
                f"<tr><td>{_esc(name)}</td>"
                f"<td>{entry.get('admitted', 0):.0f}</td>"
                f"<td>{entry.get('rejected', 0):.0f}</td>"
                f"<td>{entry.get('completed', 0):.0f}</td>"
                f"<td>{entry.get('failed', 0):.0f}</td>"
                f"<td>{entry.get('charged_units', 0):.2f}</td>"
                f"<td>{_fmt_seconds(entry.get('paid_worker_seconds', 0))}"
                "</td></tr>"
            )
        out.append("</table>")

    if counters:
        out.append("<h2>Counters</h2><table>")
        out.append("<tr><th>name</th><th>value</th></tr>")
        for name, value in sorted(counters.items()):
            out.append(f"<tr><td>{_esc(name)}</td>"
                       f"<td>{_esc(value)}</td></tr>")
        out.append("</table>")

    out.append("</body></html>")
    return "\n".join(out)


def write_html_report(recorder, path: str, **kwargs: Any) -> str:
    """Render and write the report; returns the path."""
    with open(path, "w") as handle:
        handle.write(render_html_report(recorder, **kwargs))
        handle.write("\n")
    return path
