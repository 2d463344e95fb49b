"""Measurement plumbing shared by the workloads and the layer probes.

Nothing here knows about genomics: a span tracer kept in memory, the
host-speed clock the end-to-end times are divided by, the order
statistics every result is reported with (never a mean), process
resource readings, and the repeat-until-budget timer the probes use.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple


class Tracer:
    """In-memory span recorder: name, start, end, parent.

    The benchmark records spans *around* its calls into the package's
    public functions; nothing inside ``repro`` is instrumented.  A
    disabled tracer hands out a shared no-op context, so the same
    driver code serves the timed (untraced) and the traced run.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, name: str) -> float:
        """Total seconds spent in spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] = (
                    children.get(span["parent"], 0.0)
                    + span["end"] - span["start"]
                )
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - children.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans,
                       "self_seconds": self.self_times()}, handle, indent=1)


#: Thread CPU seconds one calibration unit costs at the *nominal* host
#: speed (this class of host in its usual state).  Only a scale: it
#: makes a normalised second read like a second.
NOMINAL_UNIT_S = 0.0006


def _calibration_unit() -> int:
    """A fixed piece of interpreter work: dict, integer, string ops."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(2500):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        acc += key ^ (acc >> 3)
    return acc + len("".join(map(chr, range(65, 91))).lower().split("m"))


class HostClock:
    """How fast the host is right now, sampled while the workload runs.

    A shared host changes speed by tens of percent in phases lasting
    from a second to minutes, CPU seconds inflating like wall seconds,
    so the same iteration reads 1.6 s or 2.6 s depending on when it
    ran.  One thread per CPU this process may use, pinned to it, wakes
    every ``PERIOD_S`` *during* the timed work, runs one fixed unit of
    interpreter work and records the CPU time it was charged for it.
    ``pace(start, end)`` is the mean of those samples over an interval
    relative to ``NOMINAL_UNIT_S``: 1.0 on the nominal host, 1.3 when
    everything costs 30 % more.  A time divided by the pace of its own
    interval is in *seconds at nominal host speed* and compares across
    runs.

    The samples must interleave with the work at a finer grain than
    the host's phases (a reference loop timed before or after each
    iteration does not cancel them; tried, it adds noise) and be taken
    on the CPUs the work is on (the vCPUs change speed independently
    of each other; see ``pin_to_one_cpu``).  A unit costs about 0.6 ms
    every 25 ms, under 3 % of a core.
    """

    PERIOD_S = 0.025
    #: The workloads never run more than two workers; on a larger host
    #: the clock does not grow with the CPU count.
    MAX_CPUS = 4

    def __init__(self) -> None:
        self._halt = threading.Event()
        #: ``(perf_counter at the sample, thread CPU seconds of the unit)``
        self.samples: List[Tuple[float, float]] = [self._sample()]
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,),
                             name=f"host-clock-{cpu}", daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))[-self.MAX_CPUS:]
        ]

    @staticmethod
    def _sample() -> Tuple[float, float]:
        now = time.perf_counter()
        before = time.thread_time()
        _calibration_unit()
        return now, time.thread_time() - before

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # 0: the calling thread only
        while not self._halt.wait(self.PERIOD_S):
            self.samples.append(self._sample())

    def __enter__(self) -> "HostClock":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._halt.set()
        for thread in self._threads:
            thread.join()

    def pace(self, start: float, end: float) -> float:
        """Mean unit cost over ``[start, end]`` ÷ the nominal cost."""
        inside = [cost for when, cost in self.samples if start <= when <= end]
        if not inside:  # an interval shorter than one period
            middle = (start + end) / 2.0
            inside = [min(self.samples,
                          key=lambda sample: abs(sample[0] - middle))[1]]
        return statistics.fmean(inside) / NOMINAL_UNIT_S


def pin_to_one_cpu() -> None:
    """Keep this thread, and every thread and process it starts, on one CPU.

    The vCPUs of a shared host change speed independently of each
    other, so a ``HostClock`` that samples both reads half of its
    samples on the CPU a single-threaded workload is *not* on.  Pinned,
    the clock measures exactly the CPU the work runs on (set-up of
    ``clean-durable``, alternating runs: ± 10 % unpinned, ± 3 % pinned).
    Call it before creating the clock.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """min / quartiles / median / max of one metric's samples."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {
        "n": len(ordered),
        "min": ordered[0],
        "q1": q1,
        "median": statistics.median(ordered),
        "q3": q3,
        "max": ordered[-1],
    }


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the sample at or above the fraction)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(fraction * len(ordered) + 0.999999) - 1))
    return ordered[rank]


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


#: What the launcher left in ``RUSAGE_CHILDREN`` before the benchmark
#: started anything (a ``python3`` shim script reaps helpers and then
#: ``exec``s the interpreter, which inherits them): not ours to report.
_LAUNCHER_CHILD_KIB = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb() -> float:
    """``ru_maxrss`` of self plus the largest reaped child, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if child_kib > _LAUNCHER_CHILD_KIB:
        kib += child_kib
    return kib / 1024.0


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def time_call(fn: Callable[[], Any]) -> float:
    """Wall seconds of one call (the result is dropped after timing)."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def median_seconds(fn: Callable[[], Any], budget_s: float,
                   min_reps: int = 3, max_reps: int = 25) -> float:
    """Median wall seconds of ``fn`` over repeats filling ``budget_s``.

    One untimed call comes first so imports, caches and lazily built
    tables are not billed to the first sample.
    """
    fn()
    gc.collect()
    samples: List[float] = []
    spent = 0.0
    while len(samples) < min_reps or (
        spent < budget_s and len(samples) < max_reps
    ):
        elapsed = time_call(fn)
        samples.append(elapsed)
        spent += elapsed
    return statistics.median(samples)
