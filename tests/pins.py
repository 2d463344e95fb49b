"""Golden values of the shared datasets, kept in one file.

``pins.json`` holds every byte- or count-exact expectation an
output-changing PR has to move: the round-1 SAM and round-5 VCF digests,
the raw bytes of every file rounds 2-4 leave behind, the data-transform
byte totals, the quickstart accounting totals, and the task attempts a
seeded fault draw once failed.  A test reads an input with :func:`get`
and states an expectation with :func:`check`.

``python -m pytest tests/test_rounds_integration.py --recapture`` (a
``conftest.py`` option) turns every :func:`check` the session reaches
into a capture: the file is rewritten with what the code produced and
the diff is printed, so a deliberate re-pin is one command and one
reviewable diff.  Pins no selected test checks are left as they were.
"""

from __future__ import annotations

import difflib
import json
import os
from typing import Any, Dict, Optional

PATH = os.path.join(os.path.dirname(__file__), "pins.json")


class Pins:
    """The pinned values, and what a ``--recapture`` session saw instead."""

    def __init__(self, path: str = PATH):
        self.path = path
        self.recapture = False
        self._values: Optional[Dict[str, Any]] = None
        self._seen: Dict[str, Any] = {}

    @property
    def values(self) -> Dict[str, Any]:
        if self._values is None:
            with open(self.path) as handle:
                self._values = json.load(handle)
        return self._values

    def get(self, name: str) -> Any:
        return self.values[name]

    def check(self, name: str, actual: Any) -> None:
        """Assert ``actual`` is the pinned value, key order included
        (tuples compare as lists)."""
        actual = json.loads(json.dumps(actual))
        if self.recapture:
            self._seen[name] = actual
            return
        pinned = self.values[name]
        assert actual == pinned, f"pin {name!r} moved"
        assert json.dumps(actual) == json.dumps(pinned), \
            f"pin {name!r}: key order moved"

    def write(self) -> str:
        """Rewrite the file with what was captured; returns the diff."""
        before = _render(self.values)
        after = _render({**self.values, **self._seen})
        with open(self.path, "w") as handle:
            handle.write(after)
        return "".join(difflib.unified_diff(
            before.splitlines(True), after.splitlines(True),
            "pins.json (before)", "pins.json (recaptured)",
        )) or "pins.json: nothing moved\n"


def _render(values: Dict[str, Any]) -> str:
    """One pin per line, so a re-pin's diff is one line per moved value."""
    blocks = []
    for name, value in values.items():
        if isinstance(value, dict):
            body = ",\n".join(
                f"  {json.dumps(key)}: {json.dumps(item)}"
                for key, item in value.items()
            )
            blocks.append(f" {json.dumps(name)}: {{\n{body}\n }}")
        else:
            blocks.append(f" {json.dumps(name)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


PINS = Pins()
get = PINS.get
check = PINS.check
