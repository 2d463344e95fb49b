"""One registry for every paper figure, whichever plane produces it.

:data:`FIGURES` maps a name to a :class:`Figure`: ``build(**params) ->
[Table]`` (:mod:`repro.obs.report` tables), its params, its claims (named
predicates over its rows) and its plane.  ``simulated`` entries are the
cost model's (:mod:`repro.cluster.figures`); ``functional`` ones run this
package on a seeded sample and ``measured`` ones are timed on the running
host (:mod:`repro.studies`).  Only a measured record carries ``host``, and
only it is never pinned.  Importing this module or either entry module
loads every entry, in plane order.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro.errors import ReproError
from repro.obs.report import Table, parse_columns, report_dict

PLANES = ("simulated", "functional", "measured")


class Figure(NamedTuple):
    build: Callable[..., List[Table]]
    params: Dict[str, Any]
    #: (name, predicate over one ``{first cell: record}`` per table)
    claims: Tuple[Tuple[str, Callable[[List[Dict]], bool]], ...]
    plane: str


FIGURES: Dict[str, Figure] = {}


def figure(plane: str, name: str, params: Dict[str, Any], *claims):
    """Register the decorated ``build`` as figure ``name``."""
    def register(build):
        FIGURES[name] = Figure(build, params, claims, plane)
        # Plane order, whichever entry module is imported first.
        for key in sorted(FIGURES, key=lambda key: PLANES.index(FIGURES[key].plane)):
            FIGURES[key] = FIGURES.pop(key)
        return build
    return register


def table(title: str, spec: str, rows: List[tuple], note: str = "") -> Table:
    """A table of tuple rows, its columns declared as for ``table_of``."""
    return Table(title, tuple((name, unit) for name, unit, _ in parse_columns(spec)),
                 rows, note)


def column(rows: Dict[Any, Dict[str, Any]], name: str) -> List[Any]:
    return [record[name] for record in rows.values()]


def ordered(values: List[float], falling: bool = False) -> bool:
    return values == sorted(values, reverse=falling)


def run_figure(name: str) -> Tuple[List[Table], Dict[str, bool]]:
    """One figure's tables and ``{claim: holds}``."""
    if name not in FIGURES:
        raise ReproError(f"unknown figure {name!r}; choose from "
                         f"{', '.join(FIGURES)} or all")
    entry = FIGURES[name]
    tables = entry.build(**entry.params)
    rows = [{row[0]: record for row, record in zip(t.rows, t.records())}
            for t in tables]
    return tables, {claim: bool(check(rows)) for claim, check in entry.claims}


def figure_record(name: str, tables: List[Table],
                  claims: Dict[str, bool]) -> Dict[str, Any]:
    """``BENCH_<name>.json``, floats at ten significant digits: Python 3.12's
    compensated ``sum`` may move a value's last bit, never its tenth digit."""
    entry = FIGURES[name]
    tables = [t._replace(rows=[
        tuple(float(f"{v:.10g}") if isinstance(v, float) else v for v in row)
        for row in t.rows]) for t in tables]
    record = {"schema_version": 2, "name": name, "plane": entry.plane,
              "params": entry.params, "tables": report_dict(tables),
              "claims": claims}
    if entry.plane == "measured":
        record["host"] = {"cpu_count": os.cpu_count(),
                          "platform": platform.platform(),
                          "python": platform.python_version()}
    return record


# The entry modules register their figures when imported.
import repro.cluster.figures  # noqa: E402,F401
import repro.studies  # noqa: E402,F401
