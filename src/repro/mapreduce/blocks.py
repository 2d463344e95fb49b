"""Chunked record blocks — sealed byte payloads for map splits.

Per-record Python dispatch is the hot-path tax the executor-scaling
bench kept measuring: a split holding a list of live objects is walked
record by record on the driver, pickled record by record across the
fork boundary, and re-walked inside the worker.  A
:class:`RecordBlock` seals a split's records *once* into a framed,
checksummed byte blob (the same frame discipline as shuffle segments:
magic, record count, payload size, CRC32, pickled payload).  The block
crosses executors as one opaque ``bytes`` value and is decoded exactly
once inside the worker that runs the task — the coarse-grained
partition processing the GATK-Spark evaluation credits for its wins.

The engine treats a block-payload split specially: the mapper receives
the decoded record list, ``MAP_INPUT_RECORDS`` defaults to the block's
record count, and a traced run records the one-time decode as a
``decode`` span inside the task's ``map`` phase.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, List, Optional, Sequence

from repro.errors import ShuffleCorruptionError, ShuffleError

#: Frame magic: Gesall record BLocK, format version 1.
MAGIC = b"GBLK1"
_HEADER = struct.Struct(">5sIII")
HEADER_BYTES = _HEADER.size

#: Pinned for cross-version byte stability (matches shuffle segments).
PICKLE_PROTOCOL = 4


class RecordBlock:
    """One split's records, sealed as a framed, CRC-checked byte blob.

    Encode once on the driver, ship as bytes, decode once in the
    worker.  ``len(block)`` / ``block.count`` report the record count
    without decoding (it lives in the frame header).
    """

    __slots__ = ("blob", "count", "raw_bytes")

    def __init__(self, records: Optional[Sequence[Any]] = None, *,
                 blob: Optional[bytes] = None):
        if (records is None) == (blob is None):
            raise ShuffleError(
                "RecordBlock takes either records to encode or a sealed "
                "blob, not both"
            )
        if blob is None:
            payload = pickle.dumps(list(records), protocol=PICKLE_PROTOCOL)
            header = _HEADER.pack(
                MAGIC, len(records), len(payload), zlib.crc32(payload)
            )
            blob = header + payload
        count, raw_bytes = _verify_header(blob)
        #: The full frame (header + pickled payload).
        self.blob = blob
        #: Record count, readable without decoding the payload.
        self.count = count
        #: Payload size in bytes.
        self.raw_bytes = raw_bytes

    def decode(self) -> List[Any]:
        """Verify the frame and materialize the record list (once)."""
        payload = memoryview(self.blob)[HEADER_BYTES:]
        if len(payload) != self.raw_bytes:
            raise ShuffleCorruptionError(
                f"record block payload is {len(payload)} bytes, header "
                f"says {self.raw_bytes}"
            )
        crc = _HEADER.unpack(self.blob[:HEADER_BYTES])[3]
        if zlib.crc32(payload) != crc:
            raise ShuffleCorruptionError(
                "record block payload failed its CRC32 check"
            )
        records = pickle.loads(payload)
        if len(records) != self.count:
            raise ShuffleCorruptionError(
                f"record block holds {len(records)} records, header says "
                f"{self.count}"
            )
        return records

    def __len__(self) -> int:
        return self.count

    def __reduce__(self):
        # Pickle as the sealed frame; never re-pickle the live records.
        return (_from_blob, (self.blob,))

    def __repr__(self) -> str:
        return f"RecordBlock({self.count} records, {len(self.blob)}B)"


def _from_blob(blob: bytes) -> "RecordBlock":
    return RecordBlock(blob=blob)


def _verify_header(blob: bytes):
    if len(blob) < HEADER_BYTES:
        raise ShuffleCorruptionError(
            f"record block truncated: {len(blob)} bytes < "
            f"{HEADER_BYTES}-byte header"
        )
    magic, count, raw_bytes, _crc = _HEADER.unpack(blob[:HEADER_BYTES])
    if magic != MAGIC:
        raise ShuffleError(f"bad record block magic {magic!r}")
    return count, raw_bytes
