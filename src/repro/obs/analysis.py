"""Straggler & utilization analytics over recorded telemetry.

Pure, read-only functions from :class:`~repro.mapreduce.history.JobHistory`
/ :class:`~repro.obs.recorder.TraceRecorder` state to the derived views
the paper's performance study is built from — MAD straggler detection,
the queue-wait vs run-time split, the per-round time ledger (Fig 5b /
6a), per-phase utilization timelines (Fig 7 / Fig 10), the memory view
over the phases' resource readings, the worker-cost roll-up and the
job server's per-tenant totals.  :func:`analyze`
bundles them for the report model.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, List, NamedTuple, Sequence


#: Robust z-score above which an attempt counts as a straggler.  3.5 is
#: the standard cut-off for the modified z-score (Iglewicz & Hoaglin).
MAD_THRESHOLD = 3.5

#: Consistency constant making the MAD comparable to a standard
#: deviation under normality (0.6745 = Φ⁻¹(0.75)).
_MAD_SCALE = 0.6745


def mad_scores(values: Sequence[float]) -> List[float]:
    """Modified z-scores: 0.6745 * (x - median) / MAD, one per value.

    Positive scores mean slower than the wave's median.  A zero MAD
    (half the wave or more has identical durations) falls back to a
    tiny floor so genuinely identical values score 0 while any
    deviation still registers as large — without manufacturing
    infinities that poison downstream JSON.
    """
    if not values:
        return []
    center = median(values)
    mad = median([abs(value - center) for value in values])
    spread = max(mad, 1e-9)
    return [_MAD_SCALE * (value - center) / spread for value in values]


class Straggler(NamedTuple):
    """One detected straggler attempt."""

    task_id: str
    kind: str
    node: str
    run_seconds: float
    score: float
    wave_median: float

    def as_dict(self) -> Dict[str, Any]:
        return self._asdict()


def detect_stragglers(history) -> List[Straggler]:
    """MAD outliers among one job's primary attempts, per wave.

    Maps and reduces are scored separately (they are different
    populations — a reduce is not slow because it outlasts a map), over
    the measured ``run_seconds`` traced runs stamp onto each
    :class:`TaskAttempt`.  Untraced histories have no durations and
    yield no stragglers.  Sorted slowest-relative first.
    """
    found: List[Straggler] = []
    for wave in (history.maps(), history.reduces()):
        primaries = [
            task for task in wave
            if not task.backup and task.run_seconds > 0.0
        ]
        if len(primaries) < 3:
            continue
        durations = [task.run_seconds for task in primaries]
        scores = mad_scores(durations)
        wave_median = median(durations)
        for task, score in zip(primaries, scores):
            if score >= MAD_THRESHOLD:
                found.append(
                    Straggler(task.task_id, task.kind, task.node,
                              task.run_seconds, score, wave_median)
                )
    found.sort(key=lambda s: -s.score)
    return found


def queue_run_decomposition(history) -> Dict[str, Dict[str, float]]:
    """Summed queue-wait vs run-time seconds, per wave kind.

    The scheduling-overhead decomposition: ``queued`` is time a task
    spent waiting for a worker slot after wave submission, ``run`` is
    time its winning attempt executed.  Keys: ``map`` / ``reduce`` /
    ``total``.
    """
    def split(tasks) -> Dict[str, float]:
        queued = sum(task.queued_seconds for task in tasks)
        run = sum(task.run_seconds for task in tasks)
        return {
            "tasks": len(tasks),
            "queued_seconds": queued,
            "run_seconds": run,
            "queue_fraction": queued / (queued + run)
            if (queued + run) > 0 else 0.0,
        }

    maps = [task for task in history.maps() if not task.backup]
    reduces = [task for task in history.reduces() if not task.backup]
    return {"map": split(maps), "reduce": split(reduces),
            "total": split(maps + reduces)}


def concurrency_samples(
    intervals: Sequence[tuple], horizon: float, samples: int
) -> List[int]:
    """Active-interval count at ``samples`` evenly spaced instants."""
    counts = []
    for index in range(samples):
        t = horizon * (index + 0.5) / samples
        counts.append(sum(1 for start, end in intervals if start <= t < end))
    return counts


def phase_timeline(recorder, samples: int = 60) -> Dict[str, Any]:
    """Per-phase concurrency over the run — the Fig 7/10 utilization view.

    Samples, at ``samples`` evenly spaced instants across the recorded
    horizon, how many spans of each phase name (map, spill, shuffle,
    merge, reduce, ...) are simultaneously active.  Returns::

        {"horizon": seconds,
         "samples": N,
         "phases": {name: [count, ...]},   # len N each
         "peak": {name: peak_concurrency}}
    """
    horizon = recorder.horizon()
    epoch = recorder.epoch
    by_name: Dict[str, List[tuple]] = {}
    for span in recorder.spans():
        if span.category != "phase":
            continue
        # Dead-worker spans never closed; count them to the horizon.
        end = span.end - epoch if span.end is not None else horizon
        by_name.setdefault(span.name, []).append(
            (span.start - epoch, end)
        )
    if horizon <= 0 or samples < 1:
        by_name = {}
    phases = {name: concurrency_samples(intervals, horizon, samples)
              for name, intervals in by_name.items()}
    return {"horizon": horizon, "samples": samples, "phases": phases,
            "peak": {name: max(counts) for name, counts in phases.items()}}


def _holds(outer, inner) -> bool:
    return outer.start <= inner.start and inner.end <= outer.end


def _covered(intervals) -> float:
    """Seconds covered by the union of ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def ledger(recorder) -> Dict[str, Any]:
    """Where the wall time went: self seconds per layer and round.

    A span's *self time* is its duration minus the union of the spans
    nested directly in it: a driver span's children are the driver
    spans one depth below it, a wave's (or a backup's) the task spans
    it holds, a task's its phases, a phase's its sections.  Rows are
    layers: phases and sections (category ``task``) by name, the rest
    by category.  Columns are the round span holding a span (``None``
    above the rounds).  ``unaccounted`` is the wall minus the union of
    every span, so where spans nest (the serial executor) the rows plus
    ``unaccounted`` are the wall.  A dead worker's unclosed span covers
    nothing.  Returns ``{"wall": s, "rounds": [round, ...], "rows":
    {layer: {round: s}}, "unaccounted": s}``.
    """
    # Outer before inner: a parent starts first, or ends last on a tie.
    spans = sorted(
        (span for span in recorder.spans() if span.end is not None),
        key=lambda span: (span.start, -span.end, span.depth),
    )
    #: Per track, the latest span seen at each depth: the open chain.
    levels: Dict[str, Dict[int, Any]] = {}
    children: Dict[int, List[tuple]] = {}
    round_of: Dict[int, Any] = {}
    for span in spans:
        if span.depth == 0 and span.category.endswith("-task"):
            # On the worker's track; its parent is the innermost driver
            # span holding it: its wave, or the backup that re-ran it.
            holders = [outer for outer in levels.get("driver", {}).values()
                       if _holds(outer, span)]
            parent = max(holders, key=lambda outer: outer.depth, default=None)
        else:
            parent = levels.get(span.track, {}).get(span.depth - 1)
            if parent is not None and not _holds(parent, span):
                parent = None
        levels.setdefault(span.track, {})[span.depth] = span
        if parent is not None:
            children.setdefault(id(parent), []).append((span.start, span.end))
        round_of[id(span)] = (
            span.name.split(":", 1)[-1] if span.category == "round"
            else None if parent is None else round_of[id(parent)]
        )
    rows: Dict[str, Dict[Any, float]] = {}
    for span in spans:
        cells = rows.setdefault(
            span.name if span.category in ("phase", "task") else span.category,
            {},
        )
        key = round_of[id(span)]
        cells[key] = cells.get(key, 0.0) + span.duration - _covered(
            children.get(id(span), ())
        )
    wall = recorder.horizon()
    return {
        "wall": wall,
        "rounds": list(dict.fromkeys(
            round_of[id(span)] for span in spans if span.category == "round"
        )),
        "rows": rows,
        "unaccounted": wall - _covered((s.start, s.end) for s in spans),
    }


def memory(recorder) -> List[Dict[str, Any]]:
    """What held the memory: one row per round and phase name.

    Reads the resource readings closed ``phase`` spans carry
    (:func:`repro.obs.sampler.phase_readings`); a dead worker's unclosed
    span, or one without readings, is skipped.  Each row has ``tasks``
    (phase spans read), ``growth`` (the largest RSS growth), ``peak``
    (the largest peak) with ``bound`` saying whether that peak is
    ``exact`` or a ``lower bound``, and ``driver``: the driver's RSS at
    the start of the wave holding the phase (the largest, when the
    round ran that wave more than once).  A phase's round is the round
    span holding it (``None`` outside the rounds); rows come in the
    order their first phase started.
    """
    spans = [span for span in recorder.spans() if span.end is not None]
    rounds = [span for span in spans if span.category == "round"]
    waves = [span for span in spans
             if span.category == "wave" and "rss" in span.attrs]
    rows: Dict[tuple, Dict[str, Any]] = {}
    for span in spans:
        if span.category != "phase" or "peak" not in span.attrs:
            continue
        label = next((r.name.split(":", 1)[-1] for r in rounds
                      if _holds(r, span)), None)
        row = rows.setdefault((label, span.name), {
            "round": label, "phase": span.name, "tasks": 0, "growth": 0,
            "peak": 0, "bound": "lower bound", "driver": None,
        })
        row["tasks"] += 1
        row["growth"] = max(row["growth"], span.attrs["rss_growth"])
        if span.attrs["peak"] > row["peak"]:
            row["peak"] = span.attrs["peak"]
            row["bound"] = ("exact" if span.attrs["peak_exact"]
                            else "lower bound")
        for wave in waves:
            if _holds(wave, span):
                row["driver"] = max(row["driver"] or 0, wave.attrs["rss"])
    return list(rows.values())


def worker_cost(recorder) -> Dict[str, Any]:
    """Worker-seconds against wall clock — the FaaS cost question.

    One roll-up of what a run's workers did and what they cost:

    * ``workers`` — the peak number of ``*-task`` spans running at once.
      Not the number of distinct tracks: respawns, scale-ups and jobs
      put on fresh forks add pids that never all run at once;
    * ``busy_seconds`` — task execution actually performed;
    * ``billed_seconds`` — what an elastic / preemptible cluster bill
      charges: ``pool.paid_worker_seconds`` (full worker lifetimes plus
      the charged cold-start latency) when a pool ran, else each
      track's first-task-start to last-task-end window;
    * ``utilization`` — busy over billed, the figure an autoscaler is
      trying to raise; ``parallelism`` — busy over wall;
    * ``static_envelope_seconds`` — what a fixed pool of ``workers``
      would have paid over the same wall clock, the baseline the
      scaling controller must beat;
    * ``gb_seconds`` — the FaaS bill's memory × time: each task span's
      duration times its largest phase ``peak`` RSS, in GiB, summed
      (0 for tasks whose phases took no readings);

    The pool's scale decisions, respawns, preemptions, cold starts and
    charged backoff are counters already; the report reads them there.
    """
    windows: Dict[str, List[float]] = {}
    edges: List[tuple] = []
    busy = gb_seconds = 0.0
    for span in recorder.spans():
        if not span.category.endswith("-task"):
            continue
        end = span.end if span.end is not None else span.start
        busy += span.duration
        gb_seconds += span.duration * span.attrs.get("peak", 0) / 2 ** 30
        edges += [(span.start, 1), (end, -1)]
        window = windows.setdefault(span.track, [span.start, end])
        window[0] = min(window[0], span.start)
        window[1] = max(window[1], end)
    workers = running = 0
    for _, step in sorted(edges):  # an end sorts before a start at a tie
        running += step
        workers = max(workers, running)
    counters = recorder.metrics.as_dict().get("counters", {})
    billed = counters.get("pool.paid_worker_seconds", 0.0) or sum(
        last - first for first, last in windows.values()
    )
    wall = recorder.horizon()
    return {
        "workers": workers,
        "wall_seconds": wall,
        "busy_seconds": busy,
        "billed_seconds": billed,
        "utilization": busy / billed if billed > 0 else 0.0,
        "parallelism": busy / wall if wall > 0 else 0.0,
        "static_envelope_seconds": workers * wall,
        "gb_seconds": gb_seconds,
    }


#: Per-tenant counter suffixes the job server emits
#: (``server.tenant.<t>.<metric>``), in report column order.
TENANT_METRICS = (
    "admitted", "rejected", "completed", "failed", "cancelled",
    "charged_units", "paid_worker_seconds",
)


def tenant_summary(counters: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Per-tenant roll-up of the job server's dotted counters.

    Parses every ``server.tenant.<tenant>.<metric>`` counter (tenant
    names are admission-validated to ``[A-Za-z0-9_-]+``, so the split
    is unambiguous) into ``{tenant: {metric: value}}`` with every
    known metric zero-filled — the shape the HTML report's Tenants
    table and the ``stats`` protocol op serve.
    """
    tenants: Dict[str, Dict[str, float]] = {}
    prefix = "server.tenant."
    for name, value in counters.items():
        if not name.startswith(prefix):
            continue
        tenant, _, metric = name[len(prefix):].partition(".")
        if not tenant or not metric:
            continue
        entry = tenants.setdefault(
            tenant, {m: 0.0 for m in TENANT_METRICS}
        )
        entry[metric] = value
    return {tenant: tenants[tenant] for tenant in sorted(tenants)}


def analyze(recorder, histories=()) -> Dict[str, Any]:
    """Every analytic view of one run, for the report model.

    ``histories`` is an iterable of (label, JobHistory); straggler and
    queue/run views are computed per history and merged.
    """
    histories = list(histories)
    stragglers = [
        dict(straggler.as_dict(), round=label)
        for label, history in histories
        for straggler in detect_stragglers(history)
    ]
    return {
        "stragglers": sorted(stragglers, key=lambda s: -s["score"]),
        "queue_run": {label: queue_run_decomposition(history)
                      for label, history in histories},
        "ledger": ledger(recorder),
        "phase_timeline": phase_timeline(recorder),
        "memory": memory(recorder),
        "worker_cost": worker_cost(recorder),
        "tenants": tenant_summary(
            recorder.metrics.as_dict().get("counters", {})
        ),
    }
