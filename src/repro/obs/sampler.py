"""Resource readings: what a traced phase span records beside its time.

The paper's methodology is not just end-to-end timings — its partition
size argument (Table 4, Appendix B.1) is about task buffers that spill
when memory runs out.  Every traced ``phase`` span therefore takes one
:func:`take_sample` at entry and one at exit, and records what
:func:`phase_readings` derives from the pair as span attributes; each
driver ``wave`` span records the driver's RSS at entry.  The readings
ride back in task outcomes with the spans, so there is no second
channel.  Untraced runs open no span and take no reading.

Sources, best first:

* ``/proc/self/statm`` / ``/proc/self/io`` — Linux, free to read, give
  RSS and real storage-side byte counts.
* ``resource.getrusage(RUSAGE_SELF)`` — CPU time and the process
  high-water mark ``ru_maxrss``; ``ru_maxrss`` also stands in for RSS
  and ``ru_inblock``/``ru_oublock`` (512-byte units) for I/O bytes
  where ``/proc`` is absent.

Nothing here writes ``/proc/self/clear_refs``: the high-water mark is
never reset, so a phase's peak is exact only when the phase raised it.
A forked pool worker starts with its high-water mark at its RSS at
fork, so its phases raise it far more often than the driver's do.
"""

from __future__ import annotations

import os
from typing import Any, Dict, NamedTuple, Optional, Tuple

try:
    import resource
except ImportError:  # non-POSIX: degrade to zero readings
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
    """One instant of the current process's resource state.

    ``cpu_seconds`` / ``read_bytes`` / ``write_bytes`` are cumulative
    process totals and ``hwm_bytes`` the process's RSS high-water mark
    so far; consumers difference two samples.  ``rss_bytes`` is
    instantaneous.
    """

    cpu_seconds: float
    rss_bytes: int
    hwm_bytes: int
    read_bytes: int
    write_bytes: int


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


def take_sample() -> ResourceSample:
    """One sample of the current process, cheapest sources available."""
    cpu_seconds = 0.0
    hwm = 0
    rusage_read = 0
    rusage_write = 0
    if resource is not None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu_seconds = usage.ru_utime + usage.ru_stime
        # ru_maxrss is KiB on Linux.
        hwm = usage.ru_maxrss * 1024
        rusage_read = usage.ru_inblock * _RUSAGE_BLOCK_BYTES
        rusage_write = usage.ru_oublock * _RUSAGE_BLOCK_BYTES
    rss = _read_proc_statm_rss()
    if rss is None:
        rss = hwm
    io = _read_proc_io()
    if io is None:
        io = (rusage_read, rusage_write)
    return ResourceSample(cpu_seconds, rss, hwm, io[0], io[1])


def phase_readings(before: ResourceSample,
                   after: ResourceSample) -> Dict[str, Any]:
    """The span attributes of a phase bracketed by two samples.

    ``peak`` is the phase's highest RSS: exact (``peak_exact``) when the
    phase raised the process high-water mark, which it then reached
    inside the phase; otherwise ``max(RSS in, RSS out)``, a lower bound.
    ``rss_growth`` is the peak above the RSS at entry, so never negative.
    """
    exact = after.hwm_bytes > before.hwm_bytes
    peak = max(before.rss_bytes, after.rss_bytes,
               after.hwm_bytes if exact else 0)
    return {
        "cpu_s": after.cpu_seconds - before.cpu_seconds,
        "rss": after.rss_bytes,
        "rss_growth": peak - before.rss_bytes,
        "peak": peak,
        "peak_exact": exact,
        "hwm": after.hwm_bytes,
        "read_bytes": after.read_bytes - before.read_bytes,
        "write_bytes": after.write_bytes - before.write_bytes,
    }
