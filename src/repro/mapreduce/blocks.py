"""Chunked record blocks — sealed byte payloads for map splits.

A split holding live objects is walked record by record on the driver,
pickled record by record across the fork boundary and re-walked in the
worker.  A :class:`RecordBlock` seals a split's records *once* into the
shuffle's segment frame (:mod:`repro.shuffle.segment`, ``raw`` codec),
crosses executors as one opaque ``bytes`` value and is decoded exactly
once inside the worker that runs the task — the coarse-grained
partition processing the GATK-Spark evaluation credits for its wins.
The mapper receives the decoded list, ``MAP_INPUT_RECORDS`` defaults to
the block's record count, and a traced run records the decode as a
``decode`` span inside the task's ``map`` phase.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.errors import ShuffleError
from repro.shuffle.codec import get_codec
from repro.shuffle.segment import decode_segment, encode_segment, segment_header

_RAW = get_codec("raw")


class RecordBlock:
    """One split's records, sealed as a segment frame.

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
            blob = encode_segment(list(records), _RAW).blob
        _codec, count, raw_bytes = segment_header(blob)[:3]
        #: The full frame (header + pickled payload).
        self.blob = blob
        #: Record count, readable without decoding the payload.
        self.count = count
        #: Payload size in bytes.
        self.raw_bytes = raw_bytes

    def decode(self) -> List[Any]:
        """Verify the frame and materialize the record list (once)."""
        return decode_segment(self.blob).records

    def __len__(self) -> int:
        return self.count

    def __reduce__(self):
        # Pickle as the sealed frame; never re-pickle the live records.
        return (_from_blob, (self.blob,))

    def __repr__(self) -> str:
        return f"RecordBlock({self.count} records, {len(self.blob)}B)"


def _from_blob(blob: bytes) -> "RecordBlock":
    return RecordBlock(blob=blob)
