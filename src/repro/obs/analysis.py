"""Straggler & utilization analytics over recorded telemetry.

Pure functions from :class:`~repro.mapreduce.history.JobHistory` /
:class:`~repro.obs.recorder.TraceRecorder` state to the derived views
the paper's performance study is built from:

* **Straggler detection** — per-wave attempt-duration outliers using
  the median absolute deviation (MAD), the robust spread estimate that
  survives the very outliers it is hunting (a mean/stddev z-score gets
  dragged toward a straggler and stops seeing it).
* **Queue-wait vs run-time decomposition** — where a task's wall time
  actually went, per wave kind (the paper's scheduling-overhead story).
* **Per-phase utilization timelines** — how many map/spill/shuffle/
  merge/reduce phases are simultaneously active over the run, the data
  behind Fig 7's task progress and Fig 10's utilization strips.
* **Worker-seconds cost summary** — busy time vs paid time per worker,
  the quantity serverless cost models (PAPERS.md, FaaS variant
  calling) price runs by.

Everything here is read-only and allocation-light; nothing mutates the
recorder or history.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

#: Robust z-score above which an attempt counts as a straggler.  3.5 is
#: the standard cut-off for the modified z-score (Iglewicz & Hoaglin).
MAD_THRESHOLD = 3.5

#: Consistency constant making the MAD comparable to a standard
#: deviation under normality (0.6745 = Φ⁻¹(0.75)).
_MAD_SCALE = 0.6745


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0
    middle = count // 2
    if count % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


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
    center = _median(values)
    mad = _median([abs(value - center) for value in values])
    spread = max(mad, 1e-9)
    return [_MAD_SCALE * (value - center) / spread for value in values]


class Straggler:
    """One detected straggler attempt."""

    __slots__ = ("task_id", "kind", "node", "run_seconds", "score",
                 "wave_median")

    def __init__(self, task_id: str, kind: str, node: str,
                 run_seconds: float, score: float, wave_median: float):
        self.task_id = task_id
        self.kind = kind
        self.node = node
        self.run_seconds = run_seconds
        self.score = score
        self.wave_median = wave_median

    def as_dict(self) -> Dict[str, Any]:
        return {
            "task_id": self.task_id,
            "kind": self.kind,
            "node": self.node,
            "run_seconds": round(self.run_seconds, 6),
            "score": round(self.score, 3),
            "wave_median": round(self.wave_median, 6),
        }

    def __repr__(self) -> str:
        return (
            f"Straggler({self.task_id} on {self.node}, "
            f"{self.run_seconds:.3f}s, score {self.score:.1f})"
        )


def detect_stragglers(
    history, threshold: float = MAD_THRESHOLD
) -> List[Straggler]:
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
        median = _median(durations)
        for task, score in zip(primaries, scores):
            if score >= threshold:
                found.append(
                    Straggler(task.task_id, task.kind, task.node,
                              task.run_seconds, score, median)
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
    out: Dict[str, Dict[str, float]] = {}
    for kind, wave in (("map", history.maps()),
                       ("reduce", history.reduces())):
        primaries = [task for task in wave if not task.backup]
        queued = sum(task.queued_seconds for task in primaries)
        run = sum(task.run_seconds for task in primaries)
        out[kind] = {
            "tasks": len(primaries),
            "queued_seconds": queued,
            "run_seconds": run,
            "queue_fraction": queued / (queued + run)
            if (queued + run) > 0 else 0.0,
        }
    out["total"] = {
        "tasks": out["map"]["tasks"] + out["reduce"]["tasks"],
        "queued_seconds": out["map"]["queued_seconds"]
        + out["reduce"]["queued_seconds"],
        "run_seconds": out["map"]["run_seconds"]
        + out["reduce"]["run_seconds"],
    }
    total = (out["total"]["queued_seconds"] + out["total"]["run_seconds"])
    out["total"]["queue_fraction"] = (
        out["total"]["queued_seconds"] / total if total > 0 else 0.0
    )
    return out


def phase_timeline(
    recorder, samples: int = 60,
    category: str = "phase",
) -> Dict[str, Any]:
    """Per-phase concurrency over the run — the Fig 7/10 utilization view.

    Samples, at ``samples`` evenly spaced instants across the recorded
    horizon, how many spans of each phase name (map, spill, shuffle,
    merge, reduce, ...) are simultaneously active.  Returns::

        {"horizon": seconds,
         "samples": N,
         "phases": {name: [count, ...]},   # len N each
         "peak": {name: peak_concurrency}}
    """
    spans = recorder.spans()
    horizon = recorder.horizon()
    epoch = recorder.epoch
    by_name: Dict[str, List[tuple]] = {}
    for span in spans:
        if span.category != category:
            continue
        # Dead-worker spans never closed; count them to the horizon.
        end = span.end - epoch if span.end is not None else horizon
        by_name.setdefault(span.name, []).append(
            (span.start - epoch, end)
        )
    if not by_name or horizon <= 0 or samples < 1:
        return {"horizon": horizon, "samples": samples, "phases": {},
                "peak": {}}
    phases: Dict[str, List[int]] = {}
    peak: Dict[str, int] = {}
    for name, intervals in by_name.items():
        counts = []
        for index in range(samples):
            t = horizon * (index + 0.5) / samples
            counts.append(
                sum(1 for start, end in intervals if start <= t < end)
            )
        phases[name] = counts
        peak[name] = max(counts) if counts else 0
    return {"horizon": horizon, "samples": samples, "phases": phases,
            "peak": peak}


def worker_cost_summary(recorder) -> Dict[str, Any]:
    """Worker-seconds cost roll-up over the recorded task spans.

    ``busy_seconds`` sums task-span durations per worker track;
    ``paid_seconds`` charges each worker from its first task start to
    its last task end (the serverless billing window); utilization is
    their ratio.  The quantities the FaaS cost model (PAPERS.md) needs
    to price a run.
    """
    per_worker: Dict[str, Dict[str, float]] = {}
    for span in recorder.spans():
        if not span.category.endswith("-task"):
            continue
        end = span.end if span.end is not None else span.start
        entry = per_worker.setdefault(
            span.track,
            {"busy_seconds": 0.0, "tasks": 0,
             "first": span.start, "last": end},
        )
        entry["busy_seconds"] += span.duration
        entry["tasks"] += 1
        entry["first"] = min(entry["first"], span.start)
        entry["last"] = max(entry["last"], end)
    workers = {}
    busy_total = 0.0
    paid_total = 0.0
    for track, entry in sorted(per_worker.items()):
        paid = entry["last"] - entry["first"]
        busy = entry["busy_seconds"]
        busy_total += busy
        paid_total += paid
        workers[track] = {
            "tasks": int(entry["tasks"]),
            "busy_seconds": busy,
            "paid_seconds": paid,
            "utilization": busy / paid if paid > 0 else 0.0,
        }
    wall = recorder.horizon()
    return {
        "workers": workers,
        "worker_count": len(workers),
        "busy_worker_seconds": busy_total,
        "paid_worker_seconds": paid_total,
        "wall_seconds": wall,
        "utilization": busy_total / paid_total if paid_total > 0 else 0.0,
        "parallelism": busy_total / wall if wall > 0 else 0.0,
    }


def cost_model(recorder) -> Dict[str, Any]:
    """Worker-seconds vs wall-clock cost model — the FaaS cost question.

    Combines the span-derived busy/paid roll-up of
    :func:`worker_cost_summary` with the pool executor's own billing
    counters (``pool.paid_worker_seconds`` includes full worker
    lifetimes plus the charged cold-start latency, not just the
    first-task-to-last-task window spans can see):

    * ``billed_worker_seconds`` — what an elastic/preemptible cluster
      bill charges: full worker lifetimes + cold-start charge (falls
      back to the span-window estimate when no pool ran);
    * ``busy_worker_seconds`` — task execution actually performed;
    * ``billed_utilization`` — busy over billed, the figure an
      autoscaler is trying to raise;
    * ``static_envelope_seconds`` — what a fixed pool of the observed
      peak worker count would have paid over the same wall clock, the
      baseline the elastic controller must beat;
    * scaling/chaos context: scale decisions, respawns, preemptions,
      cold starts and their charged seconds, charged retry backoff.
    """
    summary = worker_cost_summary(recorder)
    counters = recorder.metrics.as_dict().get("counters", {})
    billed = counters.get("pool.paid_worker_seconds", 0.0)
    if billed <= 0.0:
        billed = summary["paid_worker_seconds"]
    busy = summary["busy_worker_seconds"]
    wall = summary["wall_seconds"]
    peak_workers = summary["worker_count"]
    return {
        "wall_seconds": wall,
        "busy_worker_seconds": busy,
        "billed_worker_seconds": billed,
        "billed_utilization": busy / billed if billed > 0 else 0.0,
        "static_envelope_seconds": peak_workers * wall,
        "peak_workers": peak_workers,
        "scale_ups": counters.get("pool.scale.ups", 0),
        "scale_downs": counters.get("pool.scale.downs", 0),
        "workers_retired": counters.get("pool.workers_retired", 0),
        "workers_respawned": counters.get("pool.workers_respawned", 0),
        "preemptions": counters.get("pool.preemptions", 0),
        "cold_starts": counters.get("pool.cold_starts", 0),
        "cold_start_seconds": counters.get("pool.cold_start_seconds", 0.0),
        "backoff_charged_seconds": counters.get(
            "engine.backoff_charged_seconds", 0.0
        ),
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


def resource_series(recorder) -> Dict[str, List]:
    """The sampler's time-series grouped by metric name.

    Returns ``{name: [TimeSeries, ...]}`` for every ``proc.*`` series
    in the registry, each list ordered by worker tag — the shape the
    report's sparkline section iterates.
    """
    grouped: Dict[str, List] = {}
    for series in recorder.metrics.all_timeseries():
        if series.name.startswith("proc."):
            grouped.setdefault(series.name, []).append(series)
    return grouped


def analyze(recorder, histories=None,
            threshold: float = MAD_THRESHOLD) -> Dict[str, Any]:
    """One-call bundle of every analytic view, for trace/report CLIs.

    ``histories`` is an iterable of (label, JobHistory); straggler and
    queue/run views are computed per history and merged.
    """
    stragglers: List[Dict[str, Any]] = []
    decomposition: Dict[str, Any] = {}
    for label, history in (histories or []):
        for straggler in detect_stragglers(history, threshold):
            entry = straggler.as_dict()
            entry["round"] = label
            stragglers.append(entry)
        decomposition[label] = queue_run_decomposition(history)
    return {
        "stragglers": sorted(stragglers, key=lambda s: -s["score"]),
        "queue_run": decomposition,
        "phase_timeline": phase_timeline(recorder),
        "worker_cost": worker_cost_summary(recorder),
        "cost_model": cost_model(recorder),
        "tenants": tenant_summary(
            recorder.metrics.as_dict().get("counters", {})
        ),
    }
