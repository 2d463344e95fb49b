#!/usr/bin/env python3
"""The perf trajectory, one row per measured commit, beside the frozen
contract benchmark.

    python3 benchmarks/trajectory.py [--seed N] [--seconds S]
    python3 benchmarks/trajectory.py --smoke --dry-run

Runs ``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T
--out DIR`` unmodified, once per workload of ``BENCHMARK.json`` (imports
nothing from ``benchmarks/e2e`` and edits nothing there), and appends
one row to the committed ``benchmarks/TRAJECTORY.jsonl``: commit, date,
host, seed, seconds and, per workload, ``attempted`` / ``failed`` and
every end-to-end metric — as the record's own ``summary`` quartiles
(n / q1 / median / q3 over the timed iterations) where the record
sampled it (``busy_s``, ``setup_s``), as its bare value where it did
not (``peak_rss_mb``).

``repro-genomics compare benchmarks/TRAJECTORY.jsonl@<commit> ...``
reads a row (the latest one of that commit) exactly as it reads a
``run.py --out`` file; both go through ``repro.obs.compare.record_entry``.
Rows marked ``"source": "EXPERIMENTS.md"`` were back-filled from the
tables written down before this file existed and hold medians only, so
they compare as UNRESOLVED — the honest answer.

``--smoke`` is the CI form: the first workload only and ``run.py
--smoke`` (quarter size), which times two iterations — too few for
quartiles — so the workload runs ``SMOKE_RUNS`` times and each metric
holds the quartiles of the runs' medians.  Such a row says ``"runs":
3`` (so do the two rows assembled from PR 24's ten alternating pairs,
``"runs": 10``), and ``compare`` will not set a spread across runs
beside a spread across one run's iterations: UNRESOLVED.  ``--dry-run``
prints the row and appends nothing.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.obs.compare import load_contract, record_entry  # noqa: E402

TRAJECTORY = os.path.join(HERE, "TRAJECTORY.jsonl")
RUN_PY = os.path.join(HERE, "e2e", "run.py")
#: Scratch for the records, inside the checkout like the benchmark's own.
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")
#: ``run.py --smoke`` times two iterations; quartiles need three samples.
SMOKE_RUNS = 3


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """n / q1 / median / q3, the way the benchmark summarises samples."""
    ordered = sorted(values)
    q1 = q3 = ordered[0]
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"n": len(ordered), "q1": q1,
            "median": statistics.median(ordered), "q3": q3}


def workload_entry(records: List[Dict[str, Any]],
                   contract: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's row entry from its records: a single record's own
    entry, or the quartiles over several runs' medians."""
    entries = [record_entry(record, contract) for record in records]
    if len(entries) == 1:
        return entries[0]
    merged = {key: sum(entry[key] for entry in entries)
              for key in ("attempted", "failed")}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        merged[name] = quartiles([
            value["median"] if isinstance(value, dict) else value
            for value in (entry[name] for entry in entries)
        ])
    return merged


def build_row(records: Dict[str, List[Dict[str, Any]]],
              contract: Dict[str, Any], commit: str) -> Dict[str, Any]:
    """The row for ``records`` (workload -> its runs' records)."""
    first = next(iter(records.values()))[0]
    return {
        "commit": commit,
        "date": datetime.date.today().isoformat(),
        "host": first["host"], "seed": first["seed"],
        "seconds": first["seconds"], "scale": first["scale"],
        "runs": len(next(iter(records.values()))),
        "workloads": {name: workload_entry(runs, contract)
                      for name, runs in records.items()},
    }


def head_commit() -> str:
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--short=7", "HEAD"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    dirty = subprocess.run(
        ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    return done.stdout.strip() + ("+dirty" if dirty else "")


def measure(workloads: List[str], seed: int, seconds: float, runs: int,
            smoke: bool) -> Dict[str, List[Dict[str, Any]]]:
    """``runs`` records per workload, one ``run.py`` process each."""
    os.makedirs(TMP_PARENT, exist_ok=True)
    out_root = tempfile.mkdtemp(prefix="trajectory-", dir=TMP_PARENT)
    records: Dict[str, List[Dict[str, Any]]] = {}
    try:
        for index in range(runs):
            for name in workloads:
                out = os.path.join(out_root, f"run{index}")
                command = [sys.executable, RUN_PY, "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--out", out]
                if smoke:
                    command.append("--smoke")
                subprocess.run(command, check=True, stdout=sys.stderr)
                with open(os.path.join(out, f"{name}.json")) as handle:
                    records.setdefault(name, []).append(json.load(handle))
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass  # a benchmark run is using it
    return records


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run.py --seconds (default: the contract's "
                             "run_seconds)")
    parser.add_argument("--smoke", action="store_true",
                        help="first workload only, run.py --smoke, "
                             f"{SMOKE_RUNS} runs")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the row, append nothing")
    args = parser.parse_args(argv)
    contract = load_contract()
    workloads = [entry["name"] for entry in contract["workloads"]]
    seconds = (args.seconds if args.seconds is not None
               else contract["run_seconds"])
    if args.smoke:
        workloads = workloads[:1]
    records = measure(workloads, args.seed, seconds,
                      SMOKE_RUNS if args.smoke else 1, args.smoke)
    line = json.dumps(build_row(records, contract, head_commit()))
    print(line)
    if not args.dry_run:
        with open(TRAJECTORY, "a") as handle:
            handle.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
