"""Metrics registry: counters, gauges, histograms with fixed buckets.

The driver-side half of the observability layer.  Counters and gauges
are plain named numbers; histograms bucket observations against a fixed
boundary list (Prometheus-style cumulative-le semantics, but stored as
per-bucket counts so the terminal report can print a distribution
without a scrape pipeline).

Thread safety: every mutation takes the instrument's lock, so updates
from jobs running side by side on the job server's slot threads
interleave safely.  Instruments are driver-side state — task code
running in a forked worker mutates a copy-on-write clone that is thrown
away; task-side telemetry must travel back through the task outcome
(see :mod:`repro.mapreduce.task`), exactly like Hadoop task counters.

The null variants are shared singletons whose mutators are no-ops, so
a disabled recorder adds one method call and zero allocations per
instrument touch.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Optional, Sequence, Tuple

#: Default histogram boundaries, in seconds: micro-task to whole-round.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0,
)


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named value that goes up and down (last write wins)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket distribution of observed values.

    ``buckets`` are upper bounds; an observation lands in the first
    bucket whose bound is >= the value, or the overflow bucket.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.name = name
        self.buckets = bounds
        #: One count per bound plus the overflow (+inf) bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # bisect_left gives the first bound >= value, so a value exactly
        # equal to any boundary — the last one included — lands in that
        # bound's bucket; only value > buckets[-1] overflows.
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.total += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "buckets": list(self.buckets),
                "counts": list(self.counts),
                "sum": self.total,
                "count": self.count,
            }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:g})"


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, buckets or DEFAULT_BUCKETS
                )
            return instrument

    def counter_values(self) -> Dict[str, float]:
        """Every counter's current value, by name."""
        with self._lock:
            counters = dict(self._counters)
        return {name: counter.value for name, counter in counters.items()}

    def as_dict(self) -> Dict[str, Any]:
        """Snapshot of every instrument, sorted by name.

        Counter/gauge ``.value`` reads are single attribute loads of a
        value only ever rebound under the instrument lock, so reading
        them without it cannot observe a torn update; histogram
        snapshots take their own locks.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "histograms": {
                name: histograms[name].snapshot()
                for name in sorted(histograms)
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, "
            f"{len(self._histograms)} histograms)"
        )


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = ""
    value = 0
    total = 0.0
    count = 0
    mean = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Registry stand-in whose instruments all discard their updates."""

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def counter_values(self) -> Dict[str, float]:
        return {}

    def as_dict(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()
