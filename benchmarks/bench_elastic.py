"""Scaling pool vs fixed pool: the cost-model wall.

One executor, two sizings: ``pooled(8)`` (static — floor at the
ceiling) against ``pooled(8, min_workers=2)`` (elastic — the pool
rescales between waves).  Two scenarios, together the scaling
controller's regression gate:

* A *clean* round: 16 evenly-sized stall tasks feeding 4 reducers.
  The elastic pool forks to demand, runs the same waves, and scales
  down to the reduce-wave demand between waves.  The wall-clock gate
  is a bounded-overhead one — elastic must stay within a small factor
  of the static pool, because the scaling controller only acts at
  wave boundaries and must never cost a wave.
* A *skewed* round: 4 map tasks, one of them a straggler.  The static
  pool forks ``max_workers`` slots up front and pays for all of them
  while the straggler finishes; the elastic pool forks only to task
  demand.  The gate is strict: elastic paid-worker-seconds <= static
  paid-worker-seconds, the "don't pay for idle slots" claim stated as
  an assertion over the engine's own ``pool.paid_worker_seconds``
  counter.

Both scenarios assert byte-identical outputs against the serial
reference first — the cost model is only interesting if correctness
is untouched.
"""

from __future__ import annotations

import os
import time

from benchlib import report, report_json

from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobSpec, make_splits
from repro.mapreduce.policy import ExecutionPolicy
from repro.obs.recorder import TraceRecorder

NODES = [f"n{i}" for i in range(4)]
MAX_WORKERS = 8
MIN_WORKERS = 2

CLEAN_TASKS = 16
CLEAN_STALL = 0.02

SKEW_TASKS = 4
SKEW_STRAGGLER = 0.15
SKEW_FAST = 0.01


def _clean_job():
    def mapper(payload, ctx):
        time.sleep(CLEAN_STALL)
        ctx.emit(len(payload) % 4, payload)

    def reducer(key, values, ctx):
        ctx.emit(key, sorted(values))

    conf = JobSpec("elastic-clean", mapper, reducer, num_reducers=4)
    splits = make_splits([f"partition-{i:02d}" for i in range(CLEAN_TASKS)])
    return conf, splits


def _skewed_job():
    def mapper(payload, ctx):
        stall = SKEW_STRAGGLER if payload.endswith("-00") else SKEW_FAST
        time.sleep(stall)
        ctx.emit(payload, len(payload))

    conf = JobSpec("elastic-skew", mapper)
    splits = make_splits([f"shard-{i:02d}" for i in range(SKEW_TASKS)])
    return conf, splits


def _run(policy, job_factory):
    conf, splits = job_factory()
    recorder = TraceRecorder()
    start = time.perf_counter()
    with MapReduceEngine(nodes=NODES, policy=policy,
                         recorder=recorder) as engine:
        result = engine.run(conf, splits)
    wall = time.perf_counter() - start
    counters = recorder.metrics.as_dict()["counters"]
    return wall, sorted(result.all_outputs()), counters


POLICIES = (
    ("serial", ExecutionPolicy.serial()),
    (f"pool@{MAX_WORKERS}",
     ExecutionPolicy.pooled(max_workers=MAX_WORKERS)),
    (f"pool@{MIN_WORKERS}..{MAX_WORKERS}",
     ExecutionPolicy.pooled(max_workers=MAX_WORKERS,
                            min_workers=MIN_WORKERS)),
)


def _run_scenario(job_factory):
    walls, outputs, counters = {}, {}, {}
    for name, policy in POLICIES:
        walls[name], outputs[name], counters[name] = _run(
            policy, job_factory
        )
    return walls, outputs, counters


def test_elastic_clean_bounded_overhead():
    """Clean round: elastic must not cost a wave vs the static pool."""
    walls, outputs, counters = _run_scenario(_clean_job)
    static = f"pool@{MAX_WORKERS}"
    elastic = f"pool@{MIN_WORKERS}..{MAX_WORKERS}"
    assert outputs[static] == outputs["serial"]
    assert outputs[elastic] == outputs["serial"]
    # Between-wave scaling only: the elastic pool must track the
    # static pool's wall clock to within a small constant factor.
    assert walls[elastic] <= walls[static] * 3.0 + 0.5, (
        f"elastic {walls[elastic]:.3f}s vs static {walls[static]:.3f}s"
    )
    # The reduce wave needs 4 slots, not 8: the controller retires.
    assert counters[elastic].get("pool.scale.downs", 0) >= 1
    assert counters[elastic].get("pool.workers_retired", 0) >= 1
    report(
        "elastic_clean",
        "\n".join([
            f"Clean round, {CLEAN_TASKS} x {CLEAN_STALL:.2f}s maps -> "
            f"4 reducers, {os.cpu_count()} host cores:",
            *(
                f"  {name:<18s}{walls[name]:>8.3f} s   paid "
                f"{counters[name].get('pool.paid_worker_seconds', 0.0):>8.3f}"
                " worker-s"
                for name, _ in POLICIES
            ),
        ]),
    )


def test_elastic_skewed_paid_seconds():
    """Skewed round: elastic pays no more worker-seconds than static."""
    walls, outputs, counters = _run_scenario(_skewed_job)
    static = f"pool@{MAX_WORKERS}"
    elastic = f"pool@{MIN_WORKERS}..{MAX_WORKERS}"
    assert outputs[static] == outputs["serial"]
    assert outputs[elastic] == outputs["serial"]
    static_paid = counters[static].get("pool.paid_worker_seconds", 0.0)
    elastic_paid = counters[elastic].get("pool.paid_worker_seconds", 0.0)
    assert static_paid > 0.0 and elastic_paid > 0.0
    # The static pool forks MAX_WORKERS slots for SKEW_TASKS tasks and
    # pays for every idle one while the straggler runs; the elastic
    # pool forks to task demand.
    assert elastic_paid <= static_paid, (
        f"elastic paid {elastic_paid:.3f} worker-s vs "
        f"static {static_paid:.3f} worker-s"
    )
    report(
        "elastic_skew",
        "\n".join([
            f"Skewed round, {SKEW_TASKS} maps (1 x {SKEW_STRAGGLER:.2f}s "
            f"straggler + {SKEW_TASKS - 1} x {SKEW_FAST:.2f}s):",
            *(
                f"  {name:<18s}{walls[name]:>8.3f} s   paid "
                f"{counters[name].get('pool.paid_worker_seconds', 0.0):>8.3f}"
                " worker-s"
                for name, _ in POLICIES
            ),
        ]),
    )
    report_json(
        "elastic",
        wall_seconds=walls[static],
        params={
            "max_workers": MAX_WORKERS,
            "min_workers": MIN_WORKERS,
            "clean_tasks": CLEAN_TASKS,
            "skew_tasks": SKEW_TASKS,
            "host_cores": os.cpu_count(),
        },
        counters={
            "skew.wall_seconds.static": round(walls[static], 6),
            "skew.wall_seconds.elastic": round(walls[elastic], 6),
            "skew.paid_worker_seconds.static": round(static_paid, 6),
            "skew.paid_worker_seconds.elastic": round(elastic_paid, 6),
        },
    )
