#!/usr/bin/env python3
"""End-to-end benchmark of the Gesall reproduction (see README.md here).

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR]
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --repeat-check

One workload runs in one process: set-up, one discarded warm-up, then
timed iterations until they add up to ``--seconds`` (at least five),
each over fresh disk state with a ``gc.collect()`` in between, every
output checked; set-up is repeated between iterations and its median
reported.  Times are busy seconds divided by the host's pace while
they were taken (``harness.HostClock``), so they compare across runs on
a shared host; raw seconds are printed beside them.  With ``--trace``
the same process instead makes the separate traced run and the layer
probes that yield the per-layer numbers.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
Without ``--workload`` each of the four runs in a process of its own.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # Never fall back to a copy of the package installed elsewhere.
    sys.exit(f"no src/repro under {ROOT}: nothing to benchmark")
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import (  # noqa: E402
    HostClock,
    Tracer,
    cpu_seconds,
    host_info,
    peak_rss_mb,
    pin_to_one_cpu,
    summarize,
)
from workloads import SMOKE_SCALE, build_workloads  # noqa: E402

#: Scratch state lives inside the checkout (the driver forbids writes
#: elsewhere) under one directory that is removed at exit.
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")
DEFAULT_SECONDS = 16
MIN_ITERATIONS = 5


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Timing(NamedTuple):
    """One timed interval: raw wall and CPU seconds, and the host pace."""

    wall: float
    cpu: float
    pace: float


def timed(clock: HostClock, call: Callable[[], Any]) -> Tuple[Any, Timing]:
    cpu_before = cpu_seconds()
    start = time.perf_counter()
    result = call()
    end = time.perf_counter()
    return result, Timing(end - start, cpu_seconds() - cpu_before,
                          clock.pace(start, end))


def run_timed(workload, seed: int, seconds: float, smoke: bool,
              work_root: str, clock: HostClock) -> Dict[str, Any]:
    """The end-to-end run: tracing off, medians over timed iterations.

    ``busy_s`` and ``setup_s`` are *busy seconds at nominal host
    speed*.  Busy: where all the work happens in this process, its CPU
    seconds, so time blocked on the shared disk (fsync latency here
    moves 50-fold for minutes) is left out; with pool workers, wall
    seconds.  Nominal speed: each sample is divided by the host pace
    measured *during* it (``HostClock``).  Raw wall and CPU seconds
    and the paces are kept beside them.

    Set-up is repeated *between* the timed iterations (at least three
    times, more while it is cheap) rather than back to back at the
    start, so its median spans the same stretch of host time as the
    iterations do and one noisy second cannot move all of its samples.
    """
    scale = SMOKE_SCALE if smoke else 1.0
    min_iterations = 2 if smoke else MIN_ITERATIONS

    def set_up():
        gc.collect()
        return timed(clock, lambda: workload.setup(seed, scale))

    state, timing = set_up()
    setups = [timing]

    warm_dir = os.path.join(work_root, "warmup")
    os.makedirs(warm_dir)
    workload.warmup(state, warm_dir)
    shutil.rmtree(warm_dir)

    untraced = Tracer(enabled=False)
    iterations: List[Timing] = []
    observations: List[Dict[str, Any]] = []
    failures: List[str] = []
    attempted = failed = 0
    measured = 0.0
    iteration = 0
    while iteration < min_iterations or measured < seconds:
        iter_dir = os.path.join(work_root, f"iter{iteration:03d}")
        os.makedirs(iter_dir)
        gc.collect()
        operations = workload.operations(state)
        attempted += operations
        start = time.perf_counter()
        try:
            outcome, timing = timed(
                clock, lambda: workload.iterate(state, iter_dir, untraced)
            )
            iterations.append(timing)
            found = workload.check(state, outcome)
            observations.append(workload.observe(state, outcome))
            del outcome
        except Exception:  # noqa: BLE001 — an operation that raises failed
            found = [f"{workload.name}: iteration {iteration} raised\n"
                     + traceback.format_exc()] * operations
        measured += time.perf_counter() - start
        failed += min(operations, len(found))
        failures.extend(found[:3])
        shutil.rmtree(iter_dir, ignore_errors=True)
        iteration += 1
        if not smoke and len(setups) < 9 and (
            len(setups) < 3 or sum(t.wall for t in setups) < 6.0
        ):
            # The old state is dropped first so two never coexist
            # (peak_rss_mb must not depend on this repetition).
            pinned = workload.pinned(state)
            state = None
            state, timing = set_up()
            vars(state).update(pinned)
            setups.append(timing)

    samples = {
        "busy_s": [(t.cpu if workload.single_process else t.wall) / t.pace
                   for t in iterations],
        "setup_s": [t.cpu / t.pace for t in setups],  # always in-process
        "wall_raw_s": [t.wall for t in iterations],
        "cpu_raw_s": [t.cpu for t in iterations],
        "host_pace": [t.pace for t in iterations],
        "setup_raw_s": [t.wall for t in setups],
    }
    values = {
        name: statistics.median(data) if data else float("nan")
        for name, data in samples.items()
    }
    values["peak_rss_mb"] = peak_rss_mb()
    extras = workload.extras(observations) if observations else {}
    extras["error_rate"] = failed / attempted
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "scale": scale, "host": host_info(), "sizes": workload.sizes(state),
        "attempted": attempted, "failed": failed, "failures": failures,
        "samples": samples,
        "summary": {name: summarize(data)
                    for name, data in samples.items() if data},
        "values": values, "extras": extras,
    }


def print_report(record: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  scale={record['scale']}"
          f"{'  TRACED' if record.get('traced') else ''}")
    print("host: " + "  ".join(
        f"{key}={value}" for key, value in record["host"].items()))
    print("sizes: " + "  ".join(
        f"{key}={value}" for key, value in record["sizes"].items()))
    for name, value in record["values"].items():
        line = f"  {name:<34} {value:>14.6g} {units.get(name, '')}"
        summary = record.get("summary", {}).get(name)
        if summary:
            line += ("   n={n} min={min:.4g} q1={q1:.4g} "
                     "median={median:.4g} q3={q3:.4g} "
                     "max={max:.4g}").format(**summary)
        print(line)
    for name, value in record.get("extras", {}).items():
        print(f"  {name:<34} {value:>14.6g}")
    print(f"  operations: attempted={record['attempted']} "
          f"failed={record['failed']}")
    for failure in record["failures"]:
        print("  FAILED: " + failure)


def run_one(args, contract: Dict[str, Any]) -> int:
    workloads = build_workloads()
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    # A terminated run still closes its pool engines and removes its
    # scratch tree: turn SIGTERM into an exit the ``finally`` blocks see.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(TMP_PARENT, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="e2e-", dir=TMP_PARENT)
    # Anything the package itself puts in a temp directory lands in
    # the same tree (forked pool workers inherit the setting).
    tempfile.tempdir = work_root
    try:
        workload = workloads[args.workload]
        if workload.single_process and not args.trace:
            pin_to_one_cpu()  # before the clock thread exists: it inherits
        with HostClock() as clock:
            if args.trace:
                from layers import run_traced

                record, tracer = run_traced(
                    workloads, workload, args.seed, args.seconds, args.smoke,
                    work_root, clock,
                )
                section = "per_layer"
            else:
                record = run_timed(
                    workload, args.seed, args.seconds, args.smoke, work_root,
                    clock,
                )
                tracer = None
                section = "end_to_end"
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # another run is using it

    units = {m["name"]: m["unit"] for m in contract[section]}
    missing = sorted(set(units) - set(record["values"]))
    if missing:
        raise SystemExit(f"metrics missing from the run: {missing}")
    print_report(record, units)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        stem = f"{record['workload']}{'-trace' if args.trace else ''}"
        with open(os.path.join(args.out, f"{stem}.json"), "w") as handle:
            json.dump(record, handle, indent=1, default=str)
        if tracer is not None:
            tracer.write(os.path.join(args.out, "trace.json"))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["values"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if record["failed"] == 0 else 1


def child_command(args, workload: str) -> List[str]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.out:
        command += ["--out", args.out]
    return command


def run_child(command: List[str], echo: bool) -> Dict[str, Any]:
    """Run one workload in a fresh process; returns its last-line JSON."""
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    result["exit"] = done.returncode
    return result


def run_all(args, contract: Dict[str, Any]) -> int:
    status = 0
    for entry in contract["workloads"]:
        result = run_child(child_command(args, entry["name"]), echo=True)
        if result["exit"] != 0 or not result["correct"]:
            status = 1
    return status


def repeat_check(args, contract: Dict[str, Any]) -> int:
    """Two sets of timed runs in fresh processes, compared to the bounds."""
    args.trace = 0  # the bounds are on the end-to-end metrics only
    status = 0
    rows = []
    for entry in contract["workloads"]:
        command = child_command(args, entry["name"])
        first = run_child(command, echo=False)
        second = run_child(command, echo=False)
        for metric in contract["end_to_end"]:
            name = metric["name"]
            try:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
            except KeyError:
                rows.append((entry["name"], name, "-", "-", "-",
                             metric["bound"], "UNRESOLVED"))
                status = 1
                continue
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "OK" if abs(worse) <= metric["bound"] else "UNRESOLVED"
            if verdict != "OK" or not (first["correct"] and second["correct"]):
                status = 1
            rows.append((entry["name"], name, f"{a:.4f}", f"{b:.4f}",
                         f"{worse:+.1%}", metric["bound"], verdict))
    print("| workload | metric | run 1 | run 2 | worse by | bound | |")
    print("|---|---|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(str(cell) for cell in row) + " |")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed iterations run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="make the traced run + layer probes instead")
    parser.add_argument("--out", help="also write result JSON (and "
                        "trace.json) into this directory")
    parser.add_argument("--smoke", action="store_true",
                        help="quarter size, 1 + 2 iterations, checks on")
    parser.add_argument("--repeat-check", action="store_true",
                        help="two sets of runs compared against the bounds")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0
    contract = load_contract()
    if args.repeat_check:
        return repeat_check(args, contract)
    if args.workload is None:
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
