"""Hadoop Streaming emulation (paper section 3.3 / Appendix A.1, Fig 8).

External programs coded in C (Bwa, SamToBam) run outside the JVM; data
reaches them as text over pipes and returns as bytes.  We model the
pipe stages explicitly so the bytes crossing each boundary — the
data-transformation overhead of Fig 6(a) — are measurable.
"""

from __future__ import annotations

from typing import List, Sequence


class ExternalProgram:
    """Interface of a wrapped native program.

    Subclasses implement :meth:`process`, consuming the full stdin byte
    stream and returning the stdout byte stream (our in-process
    stand-in for a forked C binary).
    """

    name = "external"

    def process(self, stdin: bytes) -> bytes:
        raise NotImplementedError


class PipeStats:
    """Bytes that crossed each pipe of a streaming task."""

    def __init__(self):
        self.bytes_in: List[int] = []
        self.bytes_out: List[int] = []
        self.programs: List[str] = []

    def __repr__(self) -> str:
        stages = ", ".join(
            f"{name}({bin_}B->{bout}B)"
            for name, bin_, bout in zip(self.programs, self.bytes_in, self.bytes_out)
        )
        return f"PipeStats({stages})"


class StreamingPipeline:
    """A chain of external programs connected by pipe buffers.

    Round 1 pipes two programs together inside one map task:
    multi-threaded Bwa followed by single-threaded SamToBam (Fig 8).
    """

    def __init__(self, programs: Sequence[ExternalProgram]):
        self.programs = list(programs)
        self.stats = PipeStats()

    def run(self, stdin: bytes) -> bytes:
        """Feed ``stdin`` through every program in order."""
        stats = PipeStats()
        data = stdin
        for program in self.programs:
            stats.programs.append(program.name)
            stats.bytes_in.append(len(data))
            data = program.process(data)
            stats.bytes_out.append(len(data))
        self.stats = stats
        return data
