"""The shuffle service: real bytes between the map and reduce waves.

Map output is sorted and spilled in bounded runs
(:class:`~repro.shuffle.spill.SpillBuffer`), merged into framed,
compressed, CRC32-checksummed per-reducer segments
(:mod:`~repro.shuffle.segment`, :mod:`~repro.shuffle.codec`), stored
between waves (:class:`~repro.shuffle.store.SegmentStore`) and fetched
back by reducers with end-to-end verification and replica failover.
:mod:`~repro.shuffle.skew` adds a reduce-skew detector.  All of it is
configured by one frozen
:class:`~repro.shuffle.config.ShuffleConfig` on the job.
"""

from repro.shuffle.codec import CODEC_NAMES, Codec, get_codec
from repro.shuffle.config import DEFAULT_SHUFFLE, ShuffleConfig
from repro.shuffle.keys import (
    CANONICAL_KEY_TYPES,
    canonical_key_bytes,
    stable_hash_partition,
)
from repro.shuffle.merge import merge_sorted_runs_list
from repro.shuffle.segment import (
    EncodedSegment,
    decode_segment,
    encode_segment,
    segment_path,
)
from repro.shuffle.skew import SkewReport, detect_skew
from repro.shuffle.spill import SpillBuffer, SpillResult
from repro.shuffle.store import (
    FetchResult,
    HdfsSegmentBackend,
    LocalSegmentBackend,
    SegmentStore,
)

__all__ = [
    "CANONICAL_KEY_TYPES",
    "CODEC_NAMES",
    "Codec",
    "DEFAULT_SHUFFLE",
    "EncodedSegment",
    "FetchResult",
    "HdfsSegmentBackend",
    "LocalSegmentBackend",
    "SegmentStore",
    "ShuffleConfig",
    "SkewReport",
    "SpillBuffer",
    "SpillResult",
    "canonical_key_bytes",
    "decode_segment",
    "detect_skew",
    "encode_segment",
    "get_codec",
    "merge_sorted_runs_list",
    "segment_path",
    "stable_hash_partition",
]
