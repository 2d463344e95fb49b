"""Worker resource sampler: the continuous-observation half of obs.

The paper's methodology is not just end-to-end timings — its Fig 7/10
arguments rest on *watching* CPU and disk behaviour over a run.  This
module is the measured counterpart: a low-overhead sampler that runs
inside whatever worker the executor placed a task on (the serial
driver, a pool thread, a forked process) and records CPU%, RSS,
read/write bytes, and context switches on a configurable interval.

Sources, best first:

* ``/proc/self/statm`` / ``/proc/self/io`` — Linux, free to read, give
  RSS and real storage-side byte counts.
* ``resource.getrusage(RUSAGE_SELF)`` — portable fallback; ``ru_maxrss``
  stands in for RSS and ``ru_inblock``/``ru_oublock`` (512-byte units)
  for IO bytes.  CPU time and context switches always come from
  ``getrusage`` — they are exact counters, not sampled estimates.

Samples are tiny named tuples, so a task's whole series pickles cheaply
inside its outcome and crosses the executor's pipe exactly like spans
do.  The sampling thread is a daemon that takes one sample immediately,
one per interval, and one final sample at stop — every task yields at
least two points, so per-worker sparklines exist even for tasks far
shorter than the interval.

Timestamps are raw ``time.perf_counter()`` readings (the system-wide
monotonic clock shared with :mod:`repro.obs.recorder`), so driver-side
ingestion only subtracts the recorder epoch.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, NamedTuple, Optional, Tuple

try:
    import resource
except ImportError:  # non-POSIX: degrade to zero-cost stubs
    resource = None

#: Kernel block-accounting unit behind ``ru_inblock``/``ru_oublock``.
_RUSAGE_BLOCK_BYTES = 512

_PAGE_SIZE = 4096
if hasattr(os, "sysconf"):
    try:
        _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") or 4096
    except (ValueError, OSError):
        pass


class ResourceSample(NamedTuple):
    """One instant of a worker's resource state (monotonic raw counters).

    ``cpu_seconds`` / ``read_bytes`` / ``write_bytes`` / ``ctx_switches``
    are cumulative process totals; consumers difference consecutive
    samples to get rates.  ``rss_bytes`` is instantaneous.
    """

    t: float
    cpu_seconds: float
    rss_bytes: int
    read_bytes: int
    write_bytes: int
    ctx_switches: int


def _read_proc_statm_rss() -> Optional[int]:
    try:
        with open("/proc/self/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def _read_proc_io() -> Optional[Tuple[int, int]]:
    try:
        with open("/proc/self/io", "rb") as handle:
            raw = handle.read()
        stats = {}
        for line in raw.splitlines():
            key, _, value = line.partition(b":")
            stats[key] = int(value)
        return stats[b"read_bytes"], stats[b"write_bytes"]
    except (OSError, KeyError, ValueError):
        return None


def take_sample(clock=time.perf_counter) -> ResourceSample:
    """One sample of the current process, cheapest sources available."""
    t = clock()
    cpu_seconds = 0.0
    ctx_switches = 0
    rusage_rss = 0
    rusage_read = 0
    rusage_write = 0
    if resource is not None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu_seconds = usage.ru_utime + usage.ru_stime
        ctx_switches = usage.ru_nvcsw + usage.ru_nivcsw
        # ru_maxrss is KiB on Linux; a high-water mark, not the current
        # RSS, but the best portable stand-in when /proc is absent.
        rusage_rss = usage.ru_maxrss * 1024
        rusage_read = usage.ru_inblock * _RUSAGE_BLOCK_BYTES
        rusage_write = usage.ru_oublock * _RUSAGE_BLOCK_BYTES
    rss = _read_proc_statm_rss()
    if rss is None:
        rss = rusage_rss
    io = _read_proc_io()
    if io is None:
        io = (rusage_read, rusage_write)
    return ResourceSample(t, cpu_seconds, rss, io[0], io[1], ctx_switches)


class ResourceSampler:
    """Samples the current process on an interval until stopped.

    Designed for one task attempt: ``start()`` takes an immediate
    sample and launches a daemon thread; ``stop()`` joins it and takes
    a guaranteed final sample.  Use as a context manager::

        with ResourceSampler(0.05) as sampler:
            run_the_task()
        outcome.samples = sampler.samples

    The overhead budget is two clock reads plus one ``getrusage`` and
    two small ``/proc`` reads per interval — microseconds against the
    millisecond-scale intervals anyone configures.
    """

    def __init__(self, interval: float, clock=time.perf_counter):
        if interval <= 0:
            raise ValueError(f"sampler interval must be > 0, got {interval}")
        self.interval = interval
        self.clock = clock
        self.samples: List[ResourceSample] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ResourceSampler":
        self.samples.append(take_sample(self.clock))
        self._thread = threading.Thread(
            target=self._run, name="obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.samples.append(take_sample(self.clock))

    def stop(self) -> List[ResourceSample]:
        """Stop sampling; returns the samples with a final reading."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.samples.append(take_sample(self.clock))
        return self.samples

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
