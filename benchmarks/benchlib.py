"""Shared helpers for the benchmark harness (importable module)."""

from __future__ import annotations

import json
import os
import platform
from typing import Any, Dict, Optional

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Version of the BENCH_*.json schema.  v2 added ``schema_version``
#: and the ``host`` block (cpu_count / platform / python), so timing
#: JSON can never again be compared across hosts without noticing.
BENCH_SCHEMA_VERSION = 2


def host_info() -> Dict[str, Any]:
    """The host facts every timing result must carry to be comparable."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def report(name: str, text: str) -> None:
    """Print one experiment's regenerated table (``pytest -s`` shows it).

    The committed record is the ``BENCH_<name>.json`` that
    :func:`report_json` writes; the table is for reading a run.
    """
    print(f"\n--- {name} ---\n{text}")


def bench_seconds(benchmark) -> float:
    """Mean wall seconds measured by a pytest-benchmark fixture.

    Valid only after the fixture has run its callable; returns 0.0 for
    fixtures that never timed anything (keeps report_json callable from
    tests that were skipped into a plain function call).
    """
    try:
        return float(benchmark.stats.stats.mean)
    except AttributeError:
        return 0.0


def report_json(
    name: str,
    wall_seconds: float,
    params: Optional[Dict[str, Any]] = None,
    counters: Optional[Dict[str, Any]] = None,
) -> str:
    """Write one experiment's machine-readable result.

    Lands next to the text tables as ``BENCH_<name>.json`` with a fixed
    schema — {schema_version, name, host, params, wall_seconds,
    counters} — so CI can diff runs without scraping the human tables.
    The ``host`` block records the real core count and interpreter, so
    a timing claim is never divorced from the machine that made it.
    Returns the path written.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "host": host_info(),
        "params": params or {},
        "wall_seconds": round(float(wall_seconds), 6),
        "counters": counters or {},
    }
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
