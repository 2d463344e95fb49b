"""Performance metrics of section 4.1.

(1) wall-clock time, (2) speedup vs the state-of-the-art single-node
program, (3) resource efficiency = speedup / cores used, and
(4) serial slot time = sum over tasks of wall-clock x cores requested
(accrued by the simulator, ``RoundResult.serial_slot_seconds``).
"""

from __future__ import annotations

from typing import List

from repro.errors import SimulationError


def speedup(single_node_seconds: float, parallel_seconds: float) -> float:
    """Speedup over the single-node program."""
    if parallel_seconds <= 0:
        raise SimulationError("parallel time must be positive")
    return single_node_seconds / parallel_seconds


def resource_efficiency(speedup_value: float, cores_used: int) -> float:
    """How effectively the extra cores were used (1.0 = perfectly)."""
    if cores_used <= 0:
        raise SimulationError("cores_used must be positive")
    return speedup_value / cores_used


class PerfRow:
    """One row of a Table 5/6-style performance table."""

    def __init__(self, label: str, wall_seconds: float,
                 single_node_seconds: float, cores_used: int,
                 slot_seconds: float = 0.0):
        self.label = label
        self.wall_seconds = wall_seconds
        self.single_node_seconds = single_node_seconds
        self.cores_used = cores_used
        self.slot_seconds = slot_seconds

    @property
    def speedup(self) -> float:
        return speedup(self.single_node_seconds, self.wall_seconds)

    @property
    def resource_efficiency(self) -> float:
        return resource_efficiency(self.speedup, self.cores_used)

    def formatted(self) -> str:
        return (
            f"{self.label:<28s} wall={format_duration(self.wall_seconds):>12s} "
            f"speedup={self.speedup:6.2f} "
            f"efficiency={self.resource_efficiency:6.3f}"
        )

    def __repr__(self) -> str:
        return f"PerfRow({self.formatted()})"


def format_duration(seconds: float) -> str:
    """Render seconds as the paper does: '1 hrs, 27 mins, 36 sec'.

    Sub-second durations (traced task phases are often milliseconds)
    render in the unit that keeps digits visible instead of collapsing
    to '0 sec'; negative durations (clock skew in merged traces) keep
    their sign rather than underflowing ``divmod``.
    """
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if 0 < seconds < 0.9995:
        millis = seconds * 1e3
        if millis < 0.9995:
            return f"{seconds * 1e6:.0f} us"
        return f"{millis:.0f} ms"
    seconds = int(round(seconds))
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    parts: List[str] = []
    if hours:
        parts.append(f"{hours} hrs")
    if minutes or hours:
        parts.append(f"{minutes} mins")
    parts.append(f"{secs} sec")
    return ", ".join(parts)
