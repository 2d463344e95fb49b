"""Distributed storage of BAM files (paper section 3.1, feature 1 & 2).

Uploading a BAM byte stream to HDFS splits it into fixed-size blocks;
the last BAM chunk in a block may span the block boundary.  The
:class:`BamBlockRecordReader` here is Gesall's custom ``RecordReader``:
each reader owns the chunks *starting* in its block and follows a
spanning chunk's tail into the next block, so every record is read
exactly once and no reader needs the whole file.

Logical partitions are separate BAM files placed wholly on one node by
the :class:`~repro.hdfs.placement.LogicalBlockPlacementPolicy`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, List, Optional, Tuple

from repro.errors import BamError, HdfsError
from repro.formats.bam import (
    FRAME_MAGIC,
    MAGIC,
    _FRAME_HEADER,
    _decode_records,
    bam_bytes,
)
from repro.formats.sam import SamHeader, SamRecord
from repro.hdfs.filesystem import Hdfs

#: Upper bound on a sane chunk payload, used to validate scanned frames.
_MAX_RAW_LEN = 32 * 1024 * 1024


def upload_bam(
    hdfs: Hdfs,
    path: str,
    header: SamHeader,
    records: List[SamRecord],
    logical_partition: bool = False,
    chunk_bytes: int = 64 * 1024,
    block_size: Optional[int] = None,
) -> None:
    """Serialize and upload a BAM file to HDFS."""
    data = bam_bytes(header, records, chunk_bytes)
    hdfs.put(path, data, logical_partition=logical_partition, block_size=block_size)


def read_bam_header(hdfs: Hdfs, path: str) -> SamHeader:
    """Fetch the header from the first chunk of the file."""
    head = hdfs.read_from(path, 0, len(MAGIC) + _FRAME_HEADER.size)
    if head[: len(MAGIC)] != MAGIC:
        raise BamError(f"{path} is not a BAM file")
    magic, raw_len, comp_len = _FRAME_HEADER.unpack_from(head, len(MAGIC))
    if magic != FRAME_MAGIC:
        raise BamError(f"{path}: corrupt header frame")
    payload = hdfs.read_from(
        path, len(MAGIC) + _FRAME_HEADER.size, comp_len
    )
    text = zlib.decompress(payload).decode()
    if len(text.encode()) != raw_len:
        raise BamError(f"{path}: header length mismatch")
    return SamHeader.from_text(text)


class BamBlockRecordReader:
    """Read the records of the chunks starting inside one HDFS block.

    Parameters
    ----------
    hdfs, path:
        The file to read.
    block_index:
        Which block this reader (mapper) owns.

    The reader scans its block for valid chunk-frame starts (validated
    by header sanity and a successful decompression), reading spanning
    tails from beyond the block via :meth:`Hdfs.read_from`.
    """

    def __init__(self, hdfs: Hdfs, path: str, block_index: int):
        self.hdfs = hdfs
        self.path = path
        self.block_index = block_index
        offsets = hdfs.block_offsets(path)
        blocks = hdfs.blocks_of(path)
        if not 0 <= block_index < len(blocks):
            raise HdfsError(
                f"{path} has {len(blocks)} blocks, no index {block_index}"
            )
        self.block_start = offsets[block_index]
        self.block_end = self.block_start + blocks[block_index].size
        self.file_size = offsets[-1] + blocks[-1].size

    def __iter__(self) -> Iterator[SamRecord]:
        for _, payload in self.frames():
            yield from _decode_records(payload)

    def records(self) -> List[SamRecord]:
        return list(iter(self))

    def frames(self) -> Iterator[Tuple[int, bytes]]:
        """Yield (offset, payload) of every data frame starting here."""
        position = self.block_start
        if self.block_index == 0:
            position += len(MAGIC)
            header_frame = self._try_frame(position)
            if header_frame is None:
                raise BamError(f"{self.path}: corrupt header frame")
            position = header_frame[0]  # skip past header frame
        else:
            position = self._scan_for_frame(position)
            if position is None:
                return
        while position is not None and position < self.block_end:
            result = self._try_frame(position)
            if result is None:
                raise BamError(
                    f"{self.path}: corrupt frame at offset {position}"
                )
            next_position, payload = result
            yield position, payload
            position = next_position

    # -- internals ---------------------------------------------------------
    def _try_frame(self, offset: int) -> Optional[Tuple[int, bytes]]:
        """Parse and decompress the frame at ``offset``; None if invalid.

        Returns ``(offset_after_frame, payload)``.
        """
        head = self.hdfs.read_from(self.path, offset, _FRAME_HEADER.size)
        if len(head) < _FRAME_HEADER.size:
            return None
        try:
            magic, raw_len, comp_len = _FRAME_HEADER.unpack(head)
        except struct.error:
            return None
        if magic != FRAME_MAGIC:
            return None
        if not 0 <= raw_len <= _MAX_RAW_LEN or not 0 <= comp_len <= raw_len + 1024:
            return None
        body = self.hdfs.read_from(
            self.path, offset + _FRAME_HEADER.size, comp_len
        )
        if len(body) < comp_len:
            return None
        try:
            payload = zlib.decompress(body)
        except zlib.error:
            return None
        if len(payload) != raw_len:
            return None
        return offset + _FRAME_HEADER.size + comp_len, payload

    def _scan_for_frame(self, start: int) -> Optional[int]:
        """Find the first valid frame start at-or-after ``start``."""
        window = self.hdfs.read_from(
            self.path, start, (self.block_end - start) + 4096
        )
        cursor = 0
        while True:
            found = window.find(FRAME_MAGIC, cursor)
            if found < 0 or start + found >= self.block_end:
                return None
            candidate = start + found
            if self._try_frame(candidate) is not None:
                return candidate
            cursor = found + 1


def read_distributed_bam(hdfs: Hdfs, path: str) -> Tuple[SamHeader, List[SamRecord]]:
    """Read a whole distributed BAM via per-block readers.

    Equivalent to concatenating every block reader's output in block
    order; used by tests to prove the reader covers each record exactly
    once.
    """
    header = read_bam_header(hdfs, path)
    records: List[SamRecord] = []
    for block_index in range(len(hdfs.blocks_of(path))):
        reader = BamBlockRecordReader(hdfs, path, block_index)
        records.extend(reader.records())
    return header, records
