"""One report model behind ``trace`` / ``report`` / ``chaos``.

A report is data: :func:`build_report` turns one traced run — spans
with their resource readings, task histories, counters — into a list
of :class:`Table` (title, named columns with a unit each, rows of plain
values, a note), and every section is built there exactly once.  Three
generic walks render it through one :func:`format_cell`:
:func:`render_text` for the terminal, :func:`render_html` for the
self-contained page a CI job uploads (inline SVG, no external assets,
no scripts — it alone adds the span timeline, the paper's Fig 7 shape;
the per-phase utilization strips of Fig 10 are a table of ``series``
cells like any other) and :func:`report_dict` for JSON.  The text and HTML reports therefore hold
the same sections by construction, and the next section anyone needs is
one function here, not two.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.cluster.monitor import render_ramp
from repro.metrics.perf import format_duration
from repro.obs.analysis import MAD_THRESHOLD, analyze


class Table(NamedTuple):
    """One report section: ``columns`` are ``(name, unit)`` pairs, the
    unit one of ``s``, ``hms`` (seconds in the paper's hours / minutes /
    seconds), ``B``, ``%`` (a fraction), ``x``, ``n`` (a count),
    ``series`` (a list of samples) or ``""`` (text or a raw number)."""

    title: str
    columns: Tuple[Tuple[str, str], ...]
    rows: List[tuple]
    note: str = ""

    def records(self) -> List[Dict[str, Any]]:
        """Rows as dicts keyed by column name."""
        names = [name for name, _ in self.columns]
        return [dict(zip(names, row)) for row in self.rows]


def parse_columns(spec: str) -> List[Tuple[str, str, str]]:
    """``name[:unit][=key]`` columns separated by ``|`` as (name, unit,
    key) triples; the key a record is read by defaults to the name."""
    triples = []
    for column in spec.split("|"):
        head, _, key = column.partition("=")
        name, _, unit = head.partition(":")
        triples.append((name, unit, key or name))
    return triples


def table_of(title: str, spec: str, records: Iterable[Mapping[str, Any]],
             empty: str = "(none)", missing: Any = None) -> Table:
    """A table over dict records, its columns declared by ``spec`` (see
    :func:`parse_columns`); ``empty`` is the note an empty table carries and
    ``missing`` the cell of a key a record lacks (0 for counters)."""
    columns = parse_columns(spec)
    rows = [tuple(record.get(key, missing) for _, _, key in columns)
            for record in records]
    return Table(title, tuple((name, unit) for name, unit, _ in columns),
                 rows, "" if rows else empty)


def format_seconds(seconds: float) -> str:
    if 0 < abs(seconds) < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    return f"{seconds:.3f} s"


def format_bytes(count: float) -> str:
    count = float(count)
    for unit in ("B", "KiB", "MiB"):
        if abs(count) < 1024:
            return f"{count:.0f} B" if unit == "B" else f"{count:.1f} {unit}"
        count /= 1024
    return f"{count:.1f} GiB"


def format_cell(value: Any, unit: str = "") -> str:
    """The one place a cell's value becomes text."""
    if value is None:
        return "-"
    if unit == "s":
        return format_seconds(value)
    if unit == "hms":
        return format_duration(value)
    if unit == "B":
        return format_bytes(value)
    if unit == "%":
        return f"{value * 100:.1f}%"
    if unit == "x":
        return f"{value:.2f}x"
    if unit == "n":
        return f"{value:.0f}"
    if unit == "series":
        low = min(value, default=0.0)
        spread = (max(value, default=0.0) - low) or 1.0
        return render_ramp([(sample - low) / spread for sample
                            in value[::max(1, len(value) // 24)]])
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# -- the model ---------------------------------------------------------------
_COST = ("workers:n|wall:s=wall_seconds|busy:s=busy_seconds"
         "|billed:s=billed_seconds|utilization:%|parallelism:x"
         "|static envelope:s=static_envelope_seconds|GB·s=gb_seconds")
#: Worker-cost columns shown only when one of the group is non-zero.
_COST_GROUPS = (
    "scale-ups:n=pool.scale.ups|scale-downs:n=pool.scale.downs"
    "|retired:n=pool.workers_retired|respawned:n=pool.workers_respawned",
    "preemptions:n=pool.preemptions|cold starts:n=pool.cold_starts"
    "|cold start charged:s=pool.cold_start_seconds"
    "|backoff charged:s=engine.backoff_charged_seconds",
)
#: One-row sections read straight off a counter family; each appears
#: when one of its counters is non-zero.
_COUNTER_SECTIONS = (
    ("Commit protocol", "promoted:n=commit.promoted|fenced:n=commit.fenced"
                        "|leases expired:n=lease.expired"
                        "|backups:n=lease.backups_launched"
                        "|wal replays:n=wal.tasks_skipped"),
    ("I/O", "atomic writes:n=io.writes|written:B=io.bytes_written"
            "|durable appends:n=io.appends|fsyncs:n=io.fsyncs"
            "|dir fsyncs:n=io.dir_fsyncs|retries:n=io.retries"
            "|fallback spills:n=io.fallback_spills"
            "|replicas shed:n=io.replicas_shed"),
    ("Shuffle", "segments:n=shuffle.segments"
                "|shuffled:B=shuffle.bytes_shuffled|raw:B=shuffle.raw_bytes"
                "|ratio:x|crc failures:n=shuffle.crc_failures"
                "|fetch retries:n=shuffle.fetch_retries"),
)


def build_report(
    recorder,
    results: Optional[Mapping[str, Any]] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> List[Table]:
    """Every section of one run's report, each built once.

    ``results`` maps a round label to its job result (anything with a
    ``history`` and a ``skew``); ``meta`` adds columns to the ``Run``
    table.  Sections that read one counter family (HDFS, shuffle,
    commit, I/O, tenants) appear when that family counted something;
    the others always do and say when they are empty.
    """
    results = dict(results or {})
    meta = dict(meta or {})
    views = analyze(
        recorder, [(label, job.history) for label, job in results.items()]
    )
    counters = recorder.metrics.as_dict().get("counters", {})
    spans = recorder.spans()
    captured = (
        time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(recorder.wall_epoch))
        if recorder.wall_epoch else "(untraced)"
    )
    cost = views["worker_cost"]
    cost_spec = "|".join([_COST] + [
        group for group in _COST_GROUPS
        if any(counters.get(key) for _, _, key in parse_columns(group))
    ])
    tables = [
        Table("Run",
              (("captured", ""), ("wall", "s"), ("spans", "n"),
               *((key, "") for key in meta)),
              [(captured, recorder.horizon(), len(spans), *meta.values())]),
        table_of("Rounds",
                 "round=name|wall:s|recs in:n=records_in"
                 "|recs out:n=records_out|shuffled:B=shuffled_bytes",
                 ({"name": span.name, "wall": span.duration, **span.attrs}
                  for span in spans if span.category == "round"),
                 "(no round spans recorded)"),
        ledger_table(views["ledger"]),
        table_of("Per-phase utilization", "phase|peak:n|active tasks:series",
                 ({"phase": name, "peak": max(counts), "active tasks": counts}
                  for name, counts
                  in sorted(views["phase_timeline"]["phases"].items())),
                 "(no phase spans recorded)"),
        tasks_table(results),
        table_of("Queue wait vs run time",
                 "round|wave|tasks:n|queued:s=queued_seconds"
                 "|run:s=run_seconds|queue share:%=queue_fraction",
                 ({"round": label, "wave": kind, **wave}
                  for label, split in views["queue_run"].items()
                  for kind, wave in split.items()
                  if kind != "total" and wave["tasks"]),
                 "(no job histories supplied)"),
        memory_table(views["memory"]),
        table_of("Worker cost", cost_spec,
                 [{**counters, **cost}] if cost["workers"] else [],
                 "(no task spans recorded)", missing=0),
        table_of("Stragglers",
                 "task=task_id|round|kind|node|run:s=run_seconds"
                 "|wave median:s=wave_median|MAD score=score",
                 views["stragglers"],
                 f"none detected (MAD score < {MAD_THRESHOLD:g} in every "
                 "wave)"),
    ]
    hdfs_ops = [op for op in ("put", "get", "delete")
                if counters.get(f"hdfs.{op}.calls")]
    if hdfs_ops:
        tables.append(Table(
            "HDFS", (("op", ""), ("calls", "n"), ("bytes", "B")),
            [(op, counters[f"hdfs.{op}.calls"],
              counters.get(f"hdfs.{op}.bytes")) for op in hdfs_ops],
        ))
    shuffled = counters.get("shuffle.bytes_shuffled", 0)
    ratio = counters.get("shuffle.raw_bytes", 0) / shuffled if shuffled else 1.0
    for title, spec in _COUNTER_SECTIONS:
        if any(counters.get(key) for _, _, key in parse_columns(spec)):
            tables.append(table_of(title, spec, [{**counters, "ratio": ratio}],
                                   missing=0))
    skewed = [
        (label, job.skew.imbalance, len(job.skew.partition_records),
         "** skewed" if job.skew.is_skewed else "")
        for label, job in results.items()
        if job.skew is not None and job.skew.partition_records
    ]
    if skewed:
        tables.append(Table(
            "Shuffle skew", (("round", ""), ("imbalance", "x"),
                             ("partitions", "n"), ("hot", "")), skewed,
        ))
    if views["tenants"]:
        tables.append(tenants_table(views["tenants"]))
    if counters:
        tables.append(Table("Counters", (("name", ""), ("value", "")),
                            sorted(counters.items())))
    return tables


def ledger_table(view: Mapping[str, Any]) -> Table:
    """The time ledger (``analysis.ledger``): self seconds per layer
    and round, ``—`` above the rounds, heaviest layer first, and last
    the ``unaccounted`` time no span covers."""
    rounds, wall = view["rounds"], view["wall"]

    def row(layer: str, cells: Mapping[Any, float]) -> tuple:
        total = sum(cells.values())
        return (layer, *(cells.get(key) for key in rounds), cells.get(None),
                total, total / wall if wall > 0 else 0.0)

    rows = [row(layer, cells) for layer, cells in sorted(
        view["rows"].items(), key=lambda item: -sum(item[1].values()))]
    if rows:
        rows.append(row("unaccounted", {None: view["unaccounted"]}))
    return Table(
        "Ledger",
        (("layer", ""), *((key, "s") for key in rounds), ("—", "s"),
         ("total", "s"), ("share", "%")),
        rows, "" if rows else "(no spans recorded)",
    )


def memory_table(rows: List[Mapping[str, Any]]) -> Table:
    """What held the memory (``analysis.memory``), round × phase."""
    table = table_of(
        "Memory",
        "round|phase|tasks:n|max RSS growth:B=growth|max peak:B=peak"
        "|peak is=bound|driver RSS at wave start:B=driver",
        rows, "(no phase readings recorded)",
    )
    return table._replace(note=table.note or (
        "growth: a phase's peak above its RSS at entry; a peak is exact "
        "when the phase raised its process's high-water mark, else "
        "max(RSS in, RSS out), a lower bound"))


def tasks_table(results: Mapping[str, Any]) -> Table:
    """Per-round task counts: what ``trace`` reads for where a round's
    time went and ``chaos`` for how each round absorbed its faults."""
    return table_of(
        "Per-round tasks",
        "round|maps:n|reduces:n|retried:n=retried_tasks"
        "|injected:n=injected_faults|backups:n|fenced:n=fenced_commits"
        "|queue:s=queued_seconds|run:s=run_seconds",
        ({"round": label, **job.history.summary()}
         for label, job in results.items()),
        "(no job histories supplied)",
    )


def tenants_table(tenants: Mapping[str, Mapping[str, float]]) -> Table:
    """Per-tenant totals of the job server (``tenant_summary``'s shape)."""
    return table_of(
        "Tenants",
        "tenant|admitted:n|rejected:n|completed:n|failed:n"
        "|charged units=charged_units|paid:s=paid_worker_seconds",
        ({"tenant": name, **entry} for name, entry in tenants.items()),
    )


def diagnosis_table(report, title: str = "Table 8") -> Table:
    """The error-diagnosis rows ``diagnose`` and ``chaos`` print."""
    return table_of(title, "stage|d_count:n|weighted_d_count|d_impact",
                    (vars(row) for row in report.rows))


#: Counter families a chaos run's "Fault counters" table lists.
_FAULT_COUNTERS = (
    "chaos.", "engine.", "hdfs.read.failovers", "hdfs.read.corrupt_replicas",
    "hdfs.rereplicated.", "hdfs.blocks.lost", "hdfs.datanodes.",
    "checkpoint.", "shuffle.crc_failures", "shuffle.fetch_retries",
    "commit.", "lease.", "wal.", "pool.", "io.",
)


def chaos_tables(events: Iterable[Mapping[str, Any]],
                 counters: Mapping[str, float],
                 recovered: Optional[Mapping[str, List[str]]]) -> List[Table]:
    """What a chaos run adds: the events applied, the counters that
    absorbed them and, after a driver kill, the tasks a resume replayed."""
    tables = [
        table_of("Chaos events applied", "kind|details",
                 ({"kind": event["kind"], "details": ", ".join(
                     f"{key}={value}" for key, value in event.items()
                     if key != "kind")} for event in events)),
        Table("Fault counters", (("name", ""), ("value", "")),
              sorted(item for item in counters.items()
                     if item[0].startswith(_FAULT_COUNTERS))),
    ]
    if recovered is not None:
        tables.append(table_of(
            "Crash recovery", "round|tasks:n=count|replayed from the WAL=ids",
            ({"round": key, "count": len(tasks), "ids": ", ".join(tasks)}
             for key, tasks in sorted(recovered.items())),
            "(no journaled task commit was replayed)",
        ))
    return tables


def jobs_tables(snapshot: Mapping[str, Any],
                tenant_stats: Mapping[str, Any]) -> List[Table]:
    """A job server's queue and tenant shares (``jobs``)."""
    return [
        table_of("Jobs",
                 "job=job_id|tenant|state|start=start_seq|cost"
                 "|paid:s=paid_seconds",
                 sorted(snapshot["jobs"], key=lambda job: (
                     job["start_seq"] or 1 << 30, job["submit_seq"]))),
        table_of("Tenant shares",
                 "tenant|weight|min:n=min_share|charged=charged_units"
                 "|running:n=running_slots|admitted:n|rejected:n",
                 ({"tenant": name, "admitted": 0, "rejected": 0, **entry,
                   **tenant_stats.get(name, {})}
                  for name, entry in snapshot["tenants"].items())),
    ]


# -- the three walks ----------------------------------------------------------
def render_text(tables: Iterable[Table]) -> str:
    """Every table as aligned text: strings left, numbers right."""
    lines: List[str] = []
    for table in tables:
        lines += ["", f"{table.title}:"]
        if table.rows:
            units = [unit for _, unit in table.columns]
            grid = [[name for name, _ in table.columns]] + [
                [format_cell(value, unit) for value, unit in zip(row, units)]
                for row in table.rows
            ]
            widths = [max(map(len, column)) for column in zip(*grid)]
            left = [all(isinstance(value, str) for value in column)
                    for column in zip(*table.rows)]
            for line in grid:
                lines.append("  " + "  ".join(
                    cell.ljust(width) if to_left else cell.rjust(width)
                    for cell, width, to_left in zip(line, widths, left)
                ).rstrip())
        if table.note:
            lines.append(f"  {table.note}")
    return "\n".join(lines[1:])


def report_dict(tables: Iterable[Table]) -> Dict[str, Any]:
    """The report as JSON-ready data, keyed by section title."""
    return {
        table.title: {"units": dict(table.columns),
                      "rows": table.records(), "note": table.note}
        for table in tables
    }


_STYLE = (
    "body{font-family:system-ui,sans-serif;margin:24px;color:#222}"
    "h1{font-size:20px}h2{font-size:16px;margin-top:28px;"
    "border-bottom:1px solid #ddd;padding-bottom:4px}"
    "table{border-collapse:collapse;font-size:13px}"
    "td,th{border:1px solid #ddd;padding:3px 8px;text-align:right}"
    "th{background:#f5f5f5}td:first-child,th:first-child{text-align:left}"
)


def render_html(tables: Iterable[Table], title: str, recorder=None) -> str:
    """The report as one self-contained HTML string; given the recorder,
    the span timeline comes first."""
    out = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if recorder is not None:
        out += ["<h2>Span timeline</h2>", _timeline_svg(recorder)]
    for table in tables:
        out.append(f"<h2>{_esc(table.title)}</h2>")
        if table.rows:
            out.append("<table><tr>" + "".join(
                f"<th>{_esc(name)}</th>" for name, _ in table.columns
            ) + "</tr>")
            for row in table.rows:
                out.append("<tr>" + "".join(
                    "<td>" + (_sparkline(value) if unit == "series"
                              else _esc(format_cell(value, unit))) + "</td>"
                    for value, (_, unit) in zip(row, table.columns)
                ) + "</tr>")
            out.append("</table>")
        if table.note:
            out.append(f"<p>{_esc(table.note)}</p>")
    out.append("</body></html>")
    return "\n".join(out)


# -- HTML-only figures --------------------------------------------------------
_CATEGORY_COLORS = {
    "job": "#4e79a7", "round": "#b07aa1", "wave": "#9c755f",
    "phase": "#59a14f", "map-task": "#f28e2b", "reduce-task": "#e15759",
    "backup": "#ff9da7",
}


def _color(category: str) -> str:
    return _CATEGORY_COLORS.get(category, "#bab0ac")


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _timeline_svg(recorder, width: int = 900, lane_height: int = 14,
                  max_lanes: int = 80, label_width: int = 180) -> str:
    """Per-track span timeline as one inline SVG (Fig 7 shape)."""
    spans = recorder.spans()
    horizon = recorder.horizon()
    if not spans or horizon <= 0:
        return "<p>(no spans recorded)</p>"
    tracks = list(dict.fromkeys(span.track for span in spans))
    lanes = {track: lane for lane, track in enumerate(tracks[:max_lanes])}
    body = []
    for track, lane in lanes.items():
        y = (lane + 1) * lane_height
        body.append(
            f'<text x="2" y="{y - 3}" fill="#555">{_esc(track[:28])}</text>'
            f'<line x1="{label_width}" y1="{y}" x2="{label_width + width}" '
            f'y2="{y}" stroke="#eee"/>'
        )
    for span in spans:
        if span.track not in lanes:
            continue
        x = label_width + (span.start - recorder.epoch) / horizon * width
        title = (f"{span.name} [{span.category}] "
                 f"{format_seconds(span.duration)}")
        body.append(
            f'<rect x="{x:.2f}" y="{lanes[span.track] * lane_height + 1}" '
            f'width="{max(span.duration / horizon * width, 0.5):.2f}" '
            f'height="{lane_height - 3}" fill="{_color(span.category)}" '
            f'fill-opacity="0.85"><title>{_esc(title)}</title></rect>'
        )
    height = len(lanes) * lane_height + 20
    body += [
        f'<text x="{label_width + frac * width:.0f}" y="{height - 4}" '
        f'fill="#888" text-anchor="middle">{horizon * frac:.2f}s</text>'
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    out = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{label_width + width + 10}" height="{height}" '
        f'font-family="monospace" font-size="10">{"".join(body)}</svg>'
    )
    if len(tracks) > len(lanes):
        out += (f"<p>({len(tracks) - len(lanes)} additional tracks not "
                "shown)</p>")
    legend = " ".join(
        f'<span style="color:{_color(c)}">&#9632; {_esc(c)}</span>'
        for c in sorted({span.category for span in spans})
    )
    return f"{out}<p>{legend}</p>"


def _sparkline(values: List[float], width: int = 220,
               height: int = 28) -> str:
    """One series as a tiny inline SVG polyline."""
    if not values:
        return "<span>(empty)</span>"
    bottom = min(values)
    spread = (max(values) - bottom) or 1.0
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
