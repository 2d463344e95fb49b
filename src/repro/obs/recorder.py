"""Span recording: the tracing half of the observability layer.

A :class:`Span` is one named, categorised interval on a *track* (a
worker process/thread, the driver, or a task id) with free-form
attributes.  The :class:`TraceRecorder` collects finished spans from
any thread under a lock; spans produced inside forked task workers are
buffered in the task outcome / :class:`~repro.mapreduce.job.TaskContext`
side-effect channel and stitched back by the parent via
:meth:`TraceRecorder.ingest`.

Timestamps are raw ``time.perf_counter()`` readings.  On every platform
we support, ``perf_counter`` is a system-wide monotonic clock, so
readings taken inside a forked worker are directly comparable with the
parent's and exporters only need to subtract the recorder's ``epoch``.

A ``phase`` span also records the resource readings of
:mod:`repro.obs.sampler` (CPU, RSS, peak, I/O over the phase) and a
``wave`` span the driver's RSS at entry.

The disabled path is a shared :data:`NULL_RECORDER` whose ``span()``
returns one preallocated no-op context manager, as does an untraced
task context's, so instrumented code can stay in place
unconditionally: it records nothing, reads no clock and takes no
resource reading.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.sampler import phase_readings, take_sample


class Span:
    """One finished interval: name, category, [start, end), attributes."""

    __slots__ = ("name", "category", "start", "end", "track", "depth", "attrs")

    def __init__(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        track: str = "",
        depth: int = 0,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.category = category
        #: Raw perf_counter readings; subtract the recorder epoch to plot.
        self.start = start
        self.end = end
        #: Rendering lane (worker "pid/thread", "driver", or a task id).
        self.track = track
        #: Nesting level within the track at record time.
        self.depth = depth
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        # A span stitched in from a dead worker may have no end time
        # (the process was gone before it could close); report zero
        # duration rather than poisoning every aggregate with None.
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self, epoch: float = 0.0) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cat": self.category,
            "start": self.start - epoch,
            "end": self.end - epoch if self.end is not None else None,
            "track": self.track,
            "depth": self.depth,
            "attrs": self.attrs,
        }

    # Spans cross the fork boundary inside pickled task outcomes.
    def __getstate__(self):
        return (self.name, self.category, self.start, self.end, self.track,
                self.depth, self.attrs)

    def __setstate__(self, state):
        (self.name, self.category, self.start, self.end, self.track,
         self.depth, self.attrs) = state

    def __repr__(self) -> str:
        return (
            f"Span({self.name}, {self.category}, "
            f"{self.duration * 1e3:.3f} ms on {self.track!r})"
        )


class ActiveSpan:
    """Context manager for one in-flight span.

    Its owner records it: a :class:`TraceRecorder`, or a task's
    :class:`~repro.mapreduce.job.TaskContext`, which buffers it for the
    driver.  An owner provides ``now()``, ``_open_stack()`` (the spans
    open around this one, for its depth), ``_append(span)`` and, for a
    span opened without a track, ``_default_track()``.

    A ``phase`` span samples its process inside its bounds at entry and
    at exit and records :func:`~repro.obs.sampler.phase_readings`; a
    ``wave`` span records its process's RSS at entry as ``rss``.
    """

    __slots__ = ("_owner", "name", "category", "track", "attrs", "start",
                 "_entry")

    def __init__(self, owner: Any, name: str, category: str,
                 track: Optional[str], attrs: Dict[str, Any]):
        self._owner = owner
        self.name = name
        self.category = category
        self.track = track
        self.attrs = attrs
        self.start = 0.0
        self._entry = None

    def set(self, **attrs: Any) -> None:
        """Attach attributes while the span is still open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "ActiveSpan":
        self._owner._open_stack().append(self)
        self.start = self._owner.now()
        if self.category == "phase":
            self._entry = take_sample()
        elif self.category == "wave":
            self.attrs["rss"] = take_sample().rss_bytes
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._entry is not None:
            self.attrs.update(phase_readings(self._entry, take_sample()))
        owner = self._owner
        end = owner.now()
        stack = owner._open_stack()
        depth = max(0, len(stack) - 1)
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        owner._append(
            Span(
                self.name, self.category, self.start, end,
                track=self.track or owner._default_track(),
                depth=depth, attrs=self.attrs,
            )
        )
        return False


class _NullSpan:
    """Shared do-nothing span for the disabled recorder."""

    __slots__ = ()
    name = ""
    category = ""
    start = 0.0
    end = 0.0
    duration = 0.0

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Collects spans and metrics for one run.

    Thread-safe: spans finish under a lock, nesting depth is tracked
    per thread.  Process-safe by construction: forked workers never
    touch the recorder — their spans ride back in pickled task
    outcomes and are stitched in with :meth:`ingest`.
    """

    enabled = True

    def __init__(self):
        self.epoch = time.perf_counter()
        #: Wall-clock instant matching ``epoch``, for report headers.
        self.wall_epoch = time.time()
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()

    # -- recording -----------------------------------------------------------
    def now(self) -> float:
        return time.perf_counter()

    def span(self, name: str, category: str = "span",
             track: Optional[str] = None, **attrs: Any) -> ActiveSpan:
        """Open a nested span; use as a context manager."""
        return ActiveSpan(self, name, category, track, attrs)

    def ingest(self, spans: Iterable[Span]) -> None:
        """Stitch in spans recorded elsewhere (e.g. a forked worker)."""
        with self._lock:
            self._spans.extend(spans)

    def _append(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- reading -------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Snapshot of finished spans, ordered by start time."""
        with self._lock:
            spans = list(self._spans)
        spans.sort(
            key=lambda span: (
                span.start, span.end if span.end is not None else span.start
            )
        )
        return spans

    def horizon(self) -> float:
        """Seconds from epoch to the latest span end (0 when empty).

        Endless spans (ingested from a dead worker) contribute their
        start time, so they can never stretch the horizon to None.
        """
        with self._lock:
            if not self._spans:
                return 0.0
            return max(
                span.end if span.end is not None else span.start
                for span in self._spans
            ) - self.epoch

    # -- internals -----------------------------------------------------------
    def _open_stack(self) -> List[ActiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _default_track(self) -> str:
        return f"pid{os.getpid()}/{threading.current_thread().name}"

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._spans)
        return f"TraceRecorder({count} spans)"


class NullRecorder:
    """Recorder stand-in for disabled observability.

    Every operation is a no-op against shared singletons; the hot path
    pays one attribute load and one method call, with no allocation.
    """

    enabled = False
    epoch = 0.0
    wall_epoch = 0.0
    metrics = NULL_METRICS

    __slots__ = ()

    def now(self) -> float:
        return 0.0

    def span(self, name: str, category: str = "span",
             track: Optional[str] = None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def ingest(self, spans: Iterable[Span]) -> None:
        pass

    def spans(self) -> List[Span]:
        return []

    def horizon(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NullRecorder()"


NULL_RECORDER = NullRecorder()


@dataclass(frozen=True)
class ObsConfig:
    """Frozen observability configuration, the ExecutionPolicy sibling.

    ``enabled`` turns the whole layer on: driver spans, and in every
    task attempt its phases, with their resource readings, and the
    sections task code wraps.
    """

    enabled: bool = False

    def build_recorder(self):
        """A fresh recorder per run, or the shared null recorder."""
        if not self.enabled:
            return NULL_RECORDER
        return TraceRecorder()
