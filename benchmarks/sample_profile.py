#!/usr/bin/env python3
"""Where one contract workload's CPU goes, by statistical sampling.

    python3 benchmarks/sample_profile.py --workload wgs-serial
        [--seed N] [--iterations K] [--out PATH] [--smoke]

Beside the frozen contract benchmark and editing none of it: set-up,
warm-up and ``iterate`` are the named workload's own, untraced.  A
``signal.setitimer(ITIMER_PROF)`` timer interrupts the process as its
CPU time passes and the handler notes the Python stack it lands in:
*self* is the innermost frame, *cumulative* every distinct
``module:function`` on the stack.  Time inside a C call (zlib,
``sorted``, ``bytes.translate``) is charged to the Python frame that
made it.  Unlike ``cProfile`` nothing is hooked per call, so a function
of 200 000 cheap Python-level steps is not inflated against one long
C call — the shares are what a stopwatch would see.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(HERE, "e2e"))

from harness import Tracer, host_info  # noqa: E402
from workloads import SMOKE_SCALE, build_workloads  # noqa: E402

SCHEMA_VERSION = 2
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")
#: Asked of the kernel, which delivers ITIMER_PROF on its own scheduler
#: ticks (4 ms at HZ=250) whatever is asked; the JSON records the
#: interval measured, CPU seconds / samples.
REQUESTED_INTERVAL_S = 0.001
#: Rows kept per table: the hottest self entries, and every function
#: on the stack in at least this share of the samples.
TOP_SELF = 25
MIN_CUMULATIVE_SHARE = 0.02


def sample_iterations(workload, state, iterations: int, work_root: str):
    """``(CPU seconds, self counts, cumulative counts)`` of the iterations."""
    self_counts: collections.Counter = collections.Counter()
    cumulative: collections.Counter = collections.Counter()

    def on_tick(signum, frame) -> None:
        stack = []
        while frame is not None:
            stack.append(f"{frame.f_globals.get('__name__', '?')}:"
                         f"{frame.f_code.co_name}")
            frame = frame.f_back
        self_counts[stack[0]] += 1
        cumulative.update(set(stack))

    untraced = Tracer(enabled=False)
    cpu_s = 0.0
    previous = signal.signal(signal.SIGPROF, on_tick)
    try:
        for index in range(iterations):
            work_dir = os.path.join(work_root, f"iter{index:03d}")
            os.makedirs(work_dir)
            gc.collect()
            started = time.process_time()
            signal.setitimer(signal.ITIMER_PROF, REQUESTED_INTERVAL_S,
                             REQUESTED_INTERVAL_S)
            try:
                outcome = workload.iterate(state, work_dir, untraced)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
            cpu_s += time.process_time() - started
            failures = workload.check(state, outcome)
            if failures:
                raise SystemExit("\n".join(failures))
            shutil.rmtree(work_dir, ignore_errors=True)
    finally:
        signal.signal(signal.SIGPROF, previous)
    return cpu_s, self_counts, cumulative


def shares(counts: collections.Counter, samples: int, top=None,
           min_share: float = 0.0):
    return [
        {"function": key, "samples": count,
         "share": round(count / samples, 4)}
        for key, count in counts.most_common(top)
        if count >= min_share * samples
    ]


def main(argv=None) -> int:
    workloads = build_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=None,
                        help="default 8; 4 with --smoke (one quarter-size "
                             "iteration is under 50 kernel ticks)")
    parser.add_argument("--out", default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="quarter-size sample")
    args = parser.parse_args(argv)
    iterations = args.iterations or (4 if args.smoke else 8)
    out = args.out or os.path.join(
        HERE, "results", f"BENCH_profile_{args.workload}.json"
    )
    workload = workloads[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0

    os.makedirs(TMP_PARENT, exist_ok=True)  # git-ignored, shared with run.py
    with tempfile.TemporaryDirectory(prefix="profile-",
                                     dir=TMP_PARENT) as work_root:
        state = workload.setup(args.seed, scale)
        warm_dir = os.path.join(work_root, "warmup")
        os.makedirs(warm_dir)
        workload.warmup(state, warm_dir)
        cpu_s, self_counts, cumulative = sample_iterations(
            workload, state, iterations, work_root
        )
    samples = sum(self_counts.values())
    record = {
        "schema_version": SCHEMA_VERSION,
        "name": f"profile_{args.workload}",
        "host": host_info(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale,
        "iterations": iterations,
        "cpu_s": round(cpu_s, 3),
        "interval_ms": round(1000.0 * cpu_s / samples, 3),
        "samples": samples,
        "self": shares(self_counts, samples, top=TOP_SELF),
        "cumulative": shares(cumulative, samples,
                             min_share=MIN_CUMULATIVE_SHARE),
    }
    for title in ("self", "cumulative"):
        print(f"{title} (of {samples} samples over {cpu_s:.2f} CPU s, "
              f"{iterations} iteration(s) of {args.workload}, "
              f"seed {args.seed})")
        for row in record[title]:
            print(f"  {100 * row['share']:5.1f} %  {row['function']}")
    with open(out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
