"""Thread-scaling model of the multi-threaded Bwa program (Fig 5c).

The paper's profiling found two scalability limiters in native Bwa:

* a synchronisation point in the file read-and-parse function — whose
  cost depends on the kernel readahead buffer (128 KB default vs the
  64 MB the authors configured); and
* a barrier: computation threads wait for all others before issuing a
  common read-and-parse request.

We model speedup at ``n`` threads as::

    S(n) = n / (1 + serial_fraction * (n - 1) + barrier_cost * (n - 1))

an Amdahl term for the serialized read+parse plus a linear barrier
penalty that grows with thread count.  The readahead buffer size sets
``serial_fraction``.  This is the model Hadoop's process-thread
hierarchy sidesteps by running many few-threaded mappers, which is why
Gesall reaches super-linear speedup over the 24-thread baseline.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError

KB = 1024
MB = 1024 * 1024

#: Serial fraction at the kernel-default 128 KB readahead.
_SERIAL_FRACTION_DEFAULT = 0.040
#: Serial fraction once readahead is raised to 64 MB (prefetch keeps up).
_SERIAL_FRACTION_LARGE = 0.008
#: Per-thread barrier cost (threads waiting on the common read request).
_BARRIER_COST = 0.0045


class BwaThreadModel:
    """Speedup and efficiency of multi-threaded Bwa on one node."""

    def __init__(self, readahead_bytes: int = 128 * KB,
                 barrier_cost: float = _BARRIER_COST):
        if readahead_bytes <= 0:
            raise SimulationError("readahead must be positive")
        self.readahead_bytes = readahead_bytes
        self.barrier_cost = barrier_cost
        self.serial_fraction = self._serial_fraction(readahead_bytes)

    @staticmethod
    def _serial_fraction(readahead_bytes: int) -> float:
        """Interpolate the serialized-I/O fraction from the readahead.

        Log-linear between the two measured operating points; clamped
        outside them.
        """
        low, high = 128 * KB, 64 * MB
        if readahead_bytes <= low:
            return _SERIAL_FRACTION_DEFAULT
        if readahead_bytes >= high:
            return _SERIAL_FRACTION_LARGE
        t = (math.log(readahead_bytes) - math.log(low)) / (
            math.log(high) - math.log(low)
        )
        return (
            _SERIAL_FRACTION_DEFAULT
            + t * (_SERIAL_FRACTION_LARGE - _SERIAL_FRACTION_DEFAULT)
        )

    def speedup(self, threads: int) -> float:
        """Speedup of ``threads``-threaded Bwa over single-threaded."""
        if threads < 1:
            raise SimulationError("threads must be >= 1")
        denominator = (
            1.0
            + self.serial_fraction * (threads - 1)
            + self.barrier_cost * (threads - 1)
        )
        return threads / denominator

    def efficiency(self, threads: int) -> float:
        """Per-thread efficiency (speedup / threads)."""
        return self.speedup(threads) / threads

    def __repr__(self) -> str:
        return (
            f"BwaThreadModel(readahead={self.readahead_bytes}B, "
            f"serial={self.serial_fraction:.4f})"
        )


def process_thread_configurations(total_threads: int):
    """All (processes, threads-per-process) splits of a node's threads.

    The search space of section 4.3: the Hadoop process-thread
    hierarchy lets Gesall pick many single- or few-threaded mappers
    instead of one wide process.
    """
    configs = []
    for threads_per_process in range(1, total_threads + 1):
        if total_threads % threads_per_process == 0:
            configs.append(
                (total_threads // threads_per_process, threads_per_process)
            )
    return configs


def node_throughput(processes: int, threads_per_process: int,
                    model: BwaThreadModel) -> float:
    """Aggregate single-thread-equivalents delivered by one node.

    Independent processes scale linearly (no shared synchronisation);
    within a process the thread model applies.
    """
    return processes * model.speedup(threads_per_process)
