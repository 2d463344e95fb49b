"""One regression rule over the contract benchmark's own record.

``repro-genomics compare BASELINE CANDIDATE`` reads two *runs* of
``benchmarks/e2e/run.py`` — a record file written by ``run.py --out``
(one workload), or a row of ``benchmarks/TRAJECTORY.jsonl`` addressed
as ``PATH@COMMIT`` (every workload) — and judges each workload × end-
to-end metric by the rule ``benchmarks/e2e/README.md`` states ("How to
state a claim"), with the metrics, their direction and their bounds
read from ``BENCHMARK.json``:

* worse by more than the bound **and** by more than the baseline's
  inter-quartile range: ``REGRESSION``; better likewise: ``IMPROVED``;
* otherwise ``inside the bound``;
* a spread (IQR over median, either side) wider than the bound,
  quartiles from fewer than three samples, a metric one side lacks,
  hosts that differ, or quartiles over several runs' medians (a row's
  ``"runs"`` > 1) beside quartiles over one run's iterations:
  ``UNRESOLVED`` — never a silent pass;
* a metric a run gives one value for and no samples (``peak_rss_mb`` in
  a record file) is judged on its bound alone;
* a run with ``failed > 0``, or a file that is not a run, is a typed
  error: its timings are not measurements.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.errors import FormatError
from repro.obs.report import Table, table_of

#: ``BENCHMARK.json`` sits at the root of the checkout this package is
#: run from (``src/repro/obs`` is three levels below it).
CONTRACT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), *[os.pardir] * 3,
    "BENCHMARK.json",
)


def load_contract(path: str = CONTRACT_PATH) -> Dict[str, Any]:
    """The benchmark contract: workloads, end-to-end metrics, bounds."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise FormatError(f"no benchmark contract at {path} (compare runs "
                          f"from a checkout): {exc}") from exc


def record_entry(record: Dict[str, Any],
                 contract: Dict[str, Any]) -> Dict[str, Any]:
    """One ``run.py --out`` record as a run's per-workload entry: each
    end-to-end metric's ``summary`` (n / q1 / median / q3) where the
    record sampled it, its bare value where it did not."""
    try:
        entry = {"attempted": record["attempted"], "failed": record["failed"]}
        for metric in contract["end_to_end"]:
            name = metric["name"]
            summary = record["summary"].get(name)
            entry[name] = (
                {key: summary[key] for key in ("n", "q1", "median", "q3")}
                if summary else record["values"][name]
            )
    except (KeyError, TypeError, AttributeError) as exc:
        raise FormatError(
            f"{record.get('workload')}: not a run.py --out record "
            f"(missing {exc})"
        ) from exc
    return entry


def load_run(spec: str, contract: Dict[str, Any]) -> Dict[str, Any]:
    """``FILE`` or ``TRAJECTORY.jsonl@COMMIT`` as ``{label, host,
    workloads: {name: entry}}``; anything else is a :class:`FormatError`."""
    path, _, commit = spec.partition("@")
    try:
        with open(path) as handle:
            texts = handle.read().splitlines() if commit else [handle.read()]
        rows = [json.loads(text) for text in texts if text.strip()]
    except (OSError, ValueError) as exc:
        raise FormatError(f"{path}: cannot read a run: {exc}") from exc
    if commit:
        rows = [row for row in rows if isinstance(row, dict)
                and str(row.get("commit", "")).startswith(commit)]
        if not rows:
            raise FormatError(f"{path}: no row for commit {commit!r}")
        run = dict(rows[-1], label=spec)  # the latest row wins
    else:
        record = rows[0]
        if not isinstance(record, dict) or "workload" not in record:
            raise FormatError(f"{path}: not a run.py --out record")
        run = {"label": spec, "host": record.get("host"), "workloads": {
            record["workload"]: record_entry(record, contract)}}
    workloads = run.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise FormatError(f"{spec}: a run without workloads")
    for name, entry in workloads.items():
        if not isinstance(entry, dict) or entry.get("failed", 0):
            raise FormatError(
                f"{spec}: workload {name} reports failed operations; "
                "its timings are not measurements"
            )
    return run


def _median(value: Any) -> Optional[float]:
    return value.get("median") if isinstance(value, dict) else value


def _unsteady(value: Any, bound: float) -> Optional[str]:
    """Why a sampled metric cannot be judged, or ``None`` when it can."""
    if not isinstance(value, dict):
        return None  # one value, no samples: the bound alone decides
    if "q1" not in value or "q3" not in value:
        return "a median without quartiles"
    if value.get("n", 0) < 3:
        return f"quartiles from n={value.get('n', 0)} < 3"
    if (value["q3"] - value["q1"]) > bound * abs(value["median"]):
        return "spread wider than the bound"
    return None


def judge(base: Any, cand: Any, metric: Dict[str, Any]) -> Dict[str, Any]:
    """One cell: baseline and candidate medians, how much worse the
    candidate is (a fraction of the baseline; negative is better), and
    the verdict with its reason."""
    bound = metric["bound"]
    cell = {"base": _median(base), "cand": _median(cand), "bound": bound,
            "worse": None, "iqr": None}
    reason = (
        "metric missing" if cell["base"] is None or cell["cand"] is None
        else "baseline is zero" if not cell["base"]
        else _unsteady(base, bound) or _unsteady(cand, bound)
    )
    if reason:
        return dict(cell, verdict="UNRESOLVED", reason=reason)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    delta = sign * (cell["cand"] - cell["base"])
    cell["worse"] = delta / abs(cell["base"])
    cell["iqr"] = base["q3"] - base["q1"] if isinstance(base, dict) else 0.0
    if abs(cell["worse"]) > bound and abs(delta) > cell["iqr"]:
        return dict(cell, verdict="REGRESSION" if delta > 0 else "IMPROVED",
                    reason="beyond the bound" + (
                        " and the baseline's IQR" if isinstance(base, dict)
                        else " (one value a side)"))
    return dict(cell, verdict="inside the bound", reason="")


def compare_runs(base: Dict[str, Any], cand: Dict[str, Any],
                 contract: Dict[str, Any]) -> Dict[str, Any]:
    """Every workload either run holds × every end-to-end metric."""
    unlike = None
    if base.get("host") != cand.get("host") or not base.get("host"):
        unlike = "hosts differ"
    elif (base.get("runs", 1) > 1) != (cand.get("runs", 1) > 1):
        unlike = "spread across runs beside spread across iterations"
    cells: List[Dict[str, Any]] = []
    for workload in dict.fromkeys([*base["workloads"], *cand["workloads"]]):
        for metric in contract["end_to_end"]:
            name = metric["name"]
            cell = judge(base["workloads"].get(workload, {}).get(name),
                         cand["workloads"].get(workload, {}).get(name),
                         metric)
            if unlike:
                cell.update(verdict="UNRESOLVED", reason=unlike)
            cells.append(dict(cell, workload=workload, metric=name))
    verdicts = {cell["verdict"] for cell in cells}
    return {
        "baseline": base["label"], "candidate": cand["label"],
        "cells": cells,
        # 1 a regression, 3 nothing worse but something undecidable.
        "exit": 1 if "REGRESSION" in verdicts
        else 3 if "UNRESOLVED" in verdicts else 0,
    }


def comparison_table(result: Dict[str, Any]) -> Table:
    """The cells as one report table (``worse by`` reads negative when
    the candidate is better)."""
    return table_of(
        f"{result['baseline']} -> {result['candidate']}",
        "workload|metric|baseline=base|candidate=cand|worse by:%=worse"
        "|bound:%|baseline IQR=iqr|verdict|why=reason",
        result["cells"],
    )
