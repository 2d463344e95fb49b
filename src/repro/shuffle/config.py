"""Frozen configuration of the shuffle service.

Mirrors :class:`~repro.mapreduce.policy.ExecutionPolicy`: one immutable
value object that rides inside a :class:`~repro.mapreduce.job.JobSpec`
(and across the fork boundary) and fully determines how map output
becomes reduce input.  The map-side run size stays on the job
(``JobSpec.io_sort_records``, Hadoop's ``io.sort.mb`` analogue); this
object owns the byte plane: codec and fetch retries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShuffleError
from repro.shuffle.codec import CODEC_NAMES


@dataclass(frozen=True)
class ShuffleConfig:
    """Frozen description of the shuffle byte plane.

    Parameters
    ----------
    codec:
        Segment compression: ``raw``, ``zlib-1`` or ``zlib-6``
        (``mapreduce.map.output.compress.codec``).
    fetch_retries:
        Extra reducer-side fetch attempts when a segment fails its
        end-to-end CRC32 check.  Block-level replica failover happens
        below this layer in HDFS; this guards the read path itself.
    """

    codec: str = "raw"
    fetch_retries: int = 2

    def __post_init__(self):
        if self.codec not in CODEC_NAMES:
            raise ShuffleError(
                f"unknown shuffle codec {self.codec!r}; "
                f"choose one of {', '.join(CODEC_NAMES)}"
            )
        if self.fetch_retries < 0:
            raise ShuffleError("fetch_retries must be >= 0")


#: Shared default so ``JobSpec`` need not allocate one per job.
DEFAULT_SHUFFLE = ShuffleConfig()
