"""sar-style rendering of simulator utilization traces (Figs 7, 10).

The paper's profiling used ``sar`` per data node; this module renders
the simulator's :class:`~repro.cluster.fluid.UtilizationTrace` the same
way — fixed-interval samples plus ASCII strip charts — so the disk
utilization plots of Fig 10(a-c) can be eyeballed from a terminal.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.cluster.fluid import UtilizationTrace

#: Ten-level intensity ramp shared by every strip-chart renderer:
#: :func:`render_strip_chart`'s simulated disk utilization here, and the
#: text sparkline of a ``series`` cell in :func:`repro.obs.report.format_cell`.
RAMP = " .:-=+*#%@"


def render_ramp(values: Sequence[float]) -> str:
    """Map 0..1 intensities onto the shared ASCII ramp, one char each."""
    chars = []
    top = len(RAMP) - 1
    for value in values:
        clamped = 0.0 if value < 0.0 else min(1.0, value)
        chars.append(RAMP[min(top, int(clamped * top + 0.5))])
    return "".join(chars)


def sample_utilization(
    trace: UtilizationTrace, resource_name: str, horizon: float,
    samples: int = 60,
) -> List[Tuple[float, float]]:
    """(time, utilization) at ``samples`` evenly spaced instants."""
    if samples < 1 or horizon <= 0:
        return []
    intervals = trace.series(resource_name)
    points = []
    for index in range(samples):
        t = horizon * (index + 0.5) / samples
        value = 0.0
        for t0, t1, fraction in intervals:
            if t0 <= t < t1:
                value = fraction
                break
        points.append((t, value))
    return points


def render_strip_chart(
    trace: UtilizationTrace, resource_name: str, horizon: float,
    width: int = 60,
) -> str:
    """One-line ASCII utilization strip: ' .:-=+*#%@' for 0-100%."""
    samples = sample_utilization(trace, resource_name, horizon, width)
    return render_ramp([value for _, value in samples])
