"""Framed, checksummed record lists — the one sealed-list format.

A frame is a record list serialized to real bytes: a fixed header
(magic, codec id, record count, pre/post-compression payload sizes,
CRC32) and the compressed pickle of the list.  The CRC covers the
header before it and the payload, so one checksum pass judges a stored
copy without decoding it (:func:`verify_segment`).  Every sealed record
list is this frame: a shuffle *segment* (one map task's sorted output
for one reducer), a map task's spill *run* on disk
(:mod:`repro.shuffle.spill`) and a
:class:`~repro.mapreduce.blocks.RecordBlock` (a split's records, sealed
on the driver and decoded once in the worker).

A frame read back through any path is verified against the CRC its
writer computed — an end-to-end check that composes with, but does not
rely on, the storage layer's own checksums.  ``raw_bytes`` is the
pre-compression payload size and ``len(blob)`` the bytes that cross
the (simulated) network, which ``SHUFFLED_BYTES`` measures.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, List, NamedTuple, Tuple

from repro.errors import ShuffleCorruptionError, ShuffleError
from repro.shuffle.codec import Codec, codec_for_id, CODEC_IDS

KeyValue = Tuple[Any, Any]

#: Frame magic: Gesall SEGment, format version 2 (the CRC covers the
#: header; version 1's covered only the payload).
MAGIC = b"GSEG2"
_HEADER = struct.Struct(">5sBIIII")
HEADER_BYTES = _HEADER.size
#: The CRC is the header's last field; it covers every byte before it
#: and the payload after it.
_CRC_OFFSET = HEADER_BYTES - 4

#: Pickle protocol pinned for cross-version byte stability.
PICKLE_PROTOCOL = 4


class EncodedSegment(NamedTuple):
    """One encoded frame plus its accounting."""

    #: The full frame (header + compressed payload).
    blob: bytes
    records: int
    #: Pre-compression payload size.
    raw_bytes: int


def encode_segment(records: List[Any], codec: Codec) -> EncodedSegment:
    """Frame one sorted record list (one reducer's run of pairs)."""
    payload = pickle.dumps(records, protocol=PICKLE_PROTOCOL)
    packed = codec.compress(payload)
    head = _HEADER.pack(
        MAGIC, CODEC_IDS[codec.name], len(records), len(payload),
        len(packed), 0,
    )[:_CRC_OFFSET]
    crc = zlib.crc32(packed, zlib.crc32(head))
    return EncodedSegment(
        head + crc.to_bytes(4, "big") + packed, len(records), len(payload)
    )


class DecodedSegment(NamedTuple):
    """The records and accounting recovered from one verified frame."""

    records: List[Any]
    record_count: int
    raw_bytes: int
    blob_bytes: int
    codec_name: str


def segment_header(blob: bytes) -> Tuple[int, int, int, int, int]:
    """``(codec_id, count, raw_len, packed_len, crc)`` of a frame.

    Reads the header only: raises :class:`ShuffleCorruptionError` when
    the blob is shorter than a header and :class:`ShuffleError` for a
    wrong magic.  Nothing here is verified yet.
    """
    if len(blob) < HEADER_BYTES:
        raise ShuffleCorruptionError(
            f"segment truncated: {len(blob)} bytes < {HEADER_BYTES}-byte "
            "header"
        )
    magic, *fields = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ShuffleError(f"bad segment magic {magic!r}")
    return tuple(fields)


def verify_segment(blob: bytes) -> Tuple[int, int, int, memoryview]:
    """Check a frame's length and CRC without decoding it.

    Returns ``(codec_id, count, raw_len, payload)``, the payload a view
    into ``blob`` (never copied).  Raises
    :class:`ShuffleCorruptionError` when the frame is truncated or
    fails the CRC32 check, and :class:`ShuffleError` for a wrong magic
    — corruption is retryable (another replica may be clean),
    malformation is not.
    """
    codec_id, count, raw_len, packed_len, crc = segment_header(blob)
    view = memoryview(blob)
    packed = view[HEADER_BYTES:]
    if len(packed) != packed_len:
        raise ShuffleCorruptionError(
            f"segment payload is {len(packed)} bytes, header says "
            f"{packed_len}"
        )
    if zlib.crc32(packed, zlib.crc32(view[:_CRC_OFFSET])) != crc:
        raise ShuffleCorruptionError("segment failed its CRC32 check")
    return codec_id, count, raw_len, packed


def decode_segment(blob: bytes) -> DecodedSegment:
    """Verify and decode one frame (errors as :func:`verify_segment`)."""
    codec_id, count, raw_len, packed = verify_segment(blob)
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
