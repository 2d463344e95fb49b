"""Framed, checksummed shuffle segments — the wire format.

A *segment* is one map task's sorted output for one reduce partition,
serialized to real bytes: a fixed header (magic, codec id, record
count, pre/post-compression payload sizes, CRC32) followed by the
compressed pickle of the key/value list.  Framing gives the shuffle an
end-to-end integrity check that composes with — but does not rely on —
the HDFS block-level replica checksums: a segment read back through any
path is verified against the CRC the mapper computed when it wrote it.

Byte accounting falls out of the frame for free: ``raw_bytes`` is the
pre-compression payload size and ``len(blob)`` the bytes that actually
cross the (simulated) network, which is what ``SHUFFLED_BYTES`` now
measures.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, List, Tuple

from repro.errors import ShuffleCorruptionError, ShuffleError
from repro.shuffle.codec import Codec, codec_for_id, CODEC_IDS

KeyValue = Tuple[Any, Any]

#: Frame magic: Gesall SEGment, format version 1.
MAGIC = b"GSEG1"
_HEADER = struct.Struct(">5sBIIII")
HEADER_BYTES = _HEADER.size

#: Pickle protocol pinned for cross-version byte stability.
PICKLE_PROTOCOL = 4


class EncodedSegment:
    """One encoded segment plus its accounting."""

    __slots__ = ("blob", "records", "raw_bytes")

    def __init__(self, blob: bytes, records: int, raw_bytes: int):
        #: The full frame (header + compressed payload).
        self.blob = blob
        self.records = records
        #: Pre-compression payload size.
        self.raw_bytes = raw_bytes

    def __repr__(self) -> str:
        return (
            f"EncodedSegment({self.records} records, "
            f"{self.raw_bytes}B -> {len(self.blob)}B)"
        )


def encode_segment(records: List[KeyValue], codec: Codec) -> EncodedSegment:
    """Frame one sorted run of key/value pairs for one reducer."""
    payload = pickle.dumps(records, protocol=PICKLE_PROTOCOL)
    packed = codec.compress(payload)
    header = _HEADER.pack(
        MAGIC, CODEC_IDS[codec.name], len(records), len(payload),
        len(packed), zlib.crc32(packed),
    )
    return EncodedSegment(header + packed, len(records), len(payload))


class DecodedSegment:
    """The records and accounting recovered from one verified frame."""

    __slots__ = ("records", "record_count", "raw_bytes", "blob_bytes",
                 "codec_name")

    def __init__(self, records, record_count, raw_bytes, blob_bytes,
                 codec_name):
        self.records: List[KeyValue] = records
        self.record_count = record_count
        self.raw_bytes = raw_bytes
        self.blob_bytes = blob_bytes
        self.codec_name = codec_name


def decode_segment(blob: bytes) -> DecodedSegment:
    """Verify and decode one segment frame.

    Raises :class:`ShuffleCorruptionError` when the frame is truncated
    or its payload fails the CRC32 check, and :class:`ShuffleError`
    for a malformed header — corruption is retryable (another replica
    may be clean), malformation is not.
    """
    if len(blob) < HEADER_BYTES:
        raise ShuffleCorruptionError(
            f"segment truncated: {len(blob)} bytes < {HEADER_BYTES}-byte "
            "header"
        )
    magic, codec_id, count, raw_len, packed_len, crc = _HEADER.unpack(
        blob[:HEADER_BYTES]
    )
    if magic != MAGIC:
        raise ShuffleError(f"bad segment magic {magic!r}")
    packed = blob[HEADER_BYTES:]
    if len(packed) != packed_len:
        raise ShuffleCorruptionError(
            f"segment payload is {len(packed)} bytes, header says "
            f"{packed_len}"
        )
    if zlib.crc32(packed) != crc:
        raise ShuffleCorruptionError(
            "segment payload failed its CRC32 check"
        )
    codec = codec_for_id(codec_id)
    payload = codec.decompress(packed)
    if len(payload) != raw_len:
        raise ShuffleCorruptionError(
            f"segment decompressed to {len(payload)} bytes, header says "
            f"{raw_len}"
        )
    records = pickle.loads(payload)
    if len(records) != count:
        raise ShuffleCorruptionError(
            f"segment holds {len(records)} records, header says {count}"
        )
    return DecodedSegment(records, count, raw_len, len(blob), codec.name)


def segment_path(job_name: str, map_index: int, reducer: int) -> str:
    """Canonical HDFS path of one segment."""
    return (
        f"/shuffle/{job_name}/map-{map_index:05d}/seg-{reducer:05d}.bin"
    )
