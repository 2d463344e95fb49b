#!/usr/bin/env python3
"""Rounds 2-4 at 1x / 4x / 8x the contract sample: cost per round vs reads.

    python3 benchmarks/bench_rounds_scale.py [--seed N] [--iterations K]
        [--scales 1,4,8] [--out PATH]
    python3 benchmarks/bench_rounds_scale.py --smoke     # 1x and 2x, once

The first measured row of ROADMAP 3(a), beside the frozen contract
benchmark and editing none of it: the sample is
``CleanDurableWorkload.setup(seed, scale)`` from ``benchmarks/e2e`` and
one iteration is that workload's own durable ``iterate`` (disk spill,
zlib-1 shuffle, WAL, checkpoints, serial executor), every output checked
with its own ``check``.  Per round the script reports process CPU
seconds divided by the host pace during that round (``harness.HostClock``
— busy seconds at nominal host speed, the contract benchmark's unit) as
min / quartiles / median over the iterations, the cost ratio of each
scale step, and ``ru_maxrss``.  It reports; it claims nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(HERE, "e2e"))

from harness import (  # noqa: E402
    HostClock,
    host_info,
    pin_to_one_cpu,
    summarize,
)
from workloads import CleanDurableWorkload  # noqa: E402

SCHEMA_VERSION = 2
ROUNDS = ("round2", "round3", "round4")
DEFAULT_OUT = os.path.join(HERE, "results", "BENCH_rounds_scale.json")
#: The contract benchmark's scratch parent (git-ignored).
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")


class RoundClock:
    """Stands in for the workload's tracer: per span name, the wall
    interval and the process CPU seconds spent inside it."""

    def __init__(self) -> None:
        #: span name -> (wall start, wall end, CPU seconds inside)
        self.edges: Dict[str, Tuple[float, float, float]] = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        cpu_before = time.process_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.edges[name] = (
                start, time.perf_counter(), time.process_time() - cpu_before
            )


def measure_scale(workload, seed: int, scale: float, iterations: int,
                  work_root: str, clock: HostClock) -> Dict[str, Any]:
    state = workload.setup(seed, scale)
    samples: Dict[str, List[float]] = {key: [] for key in ROUNDS}
    for index in range(iterations + 1):  # the first one is a warm-up
        work_dir = os.path.join(work_root, f"x{scale:g}-{index}")
        os.makedirs(work_dir)
        gc.collect()
        tracer = RoundClock()
        outcome = workload.iterate(state, work_dir, tracer)
        failures = workload.check(state, outcome)
        if failures:
            raise SystemExit("; ".join(failures))
        shutil.rmtree(work_dir)
        if index == 0:
            continue
        for key in ROUNDS:
            start, end, cpu = tracer.edges[f"wrappers.clean_{key}"]
            samples[key].append(cpu / clock.pace(start, end))
    return {
        "scale": scale,
        "pairs": state.pairs,
        "records": state.expected["records"],
        "rounds_busy_s": {key: summarize(samples[key]) for key in ROUNDS},
        "ru_maxrss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def step_ratios(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Median cost ratio per round for each step between adjacent scales."""
    steps = []
    for low, high in zip(rows, rows[1:]):
        steps.append({
            "from_scale": low["scale"], "to_scale": high["scale"],
            "records_ratio": high["records"] / low["records"],
            "cost_ratio": {
                key: high["rounds_busy_s"][key]["median"]
                / low["rounds_busy_s"][key]["median"]
                for key in ROUNDS
            },
        })
    return steps


def print_table(record: Dict[str, Any]) -> None:
    print(f"seed {record['seed']}, {record['iterations']} iteration(s) per "
          f"scale, busy s at nominal host speed: median [q1-q3] min")
    for row in record["rows"]:
        cells = "  ".join(
            "{}: {median:.3f} [{q1:.3f}-{q3:.3f}] {min:.3f}".format(
                key, **row["rounds_busy_s"][key])
            for key in ROUNDS
        )
        print(f"{row['scale']:>4g}x {row['records']:>6} records  {cells}  "
              f"rss {row['ru_maxrss_mb']:.1f} MiB")
    for step in record["steps"]:
        cells = "  ".join(f"{key}: {step['cost_ratio'][key]:.2f}x"
                          for key in ROUNDS)
        print(f"{step['from_scale']:g}x -> {step['to_scale']:g}x "
              f"({step['records_ratio']:.2f}x records)  {cells}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--scales", default="1,4,8")
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true",
                        help="1x and 2x, one iteration each")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scales, args.iterations = "1,2", 1
    scales = [float(text) for text in args.scales.split(",")]

    os.makedirs(TMP_PARENT, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="scale-", dir=TMP_PARENT)
    workload = CleanDurableWorkload()
    pin_to_one_cpu()  # before the clock thread exists: it inherits
    try:
        with HostClock() as clock:
            # Smallest first: ``ru_maxrss`` is a high-water mark, so each
            # row's reading belongs to the largest scale run so far.
            rows = [
                measure_scale(workload, args.seed, scale, args.iterations,
                              work_root, clock)
                for scale in sorted(scales)
            ]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP_PARENT)  # unless another run is using it
    record = {
        "schema_version": SCHEMA_VERSION,
        "name": "rounds_scale",
        "host": host_info(),
        "seed": args.seed,
        "iterations": args.iterations,
        "workload": workload.name,
        "rows": rows,
        "steps": step_ratios(rows),
    }
    print_table(record)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
