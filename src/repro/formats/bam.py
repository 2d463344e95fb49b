"""A BAM-style binary container: compressed, chunked, indexable.

Mirrors how the paper describes BAM construction (section 3.1): the
writer takes a bounded amount of SAM text, converts the contained
records, compresses them into one variable-length chunk, and appends the
chunk to the file.  Chunks are self-contained (whole records), but when
the byte stream is split into fixed-size HDFS blocks a chunk may span a
block boundary; each round reads a logical partition whole.

Byte layout::

    MAGIC
    frame*            where frame = FRAME_MAGIC | u32 raw_len | u32 comp_len | zlib payload

The first frame always holds the header text; every later frame holds a
batch of newline-joined SAM record lines.
"""

from __future__ import annotations

import struct
import zlib
from itertools import islice
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import BamError
from repro.formats.sam import SamHeader, SamRecord, split_line

MAGIC = b"RBAM1\n"
FRAME_MAGIC = b"CHNK"
_FRAME_HEADER = struct.Struct("<4sII")

#: Default target for uncompressed bytes per chunk (BGZF uses 64 KiB).
DEFAULT_CHUNK_BYTES = 64 * 1024

#: Deflate level of a chunk frame.  A round's BAMs are read once by the
#: next round, so frames are packed fast, not small (GATK4 made the same
#: trade when it dropped its default from 5 to 2).
FRAME_DEFLATE_LEVEL = 1


def _compress_frame(payload: bytes) -> bytes:
    compressed = zlib.compress(payload, FRAME_DEFLATE_LEVEL)
    return _FRAME_HEADER.pack(FRAME_MAGIC, len(payload), len(compressed)) + compressed


def encode_bam_lines(
    header: SamHeader,
    lines: Iterable[str],
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Tuple[bytes, int, List[Tuple[int, str]]]:
    """Frame a header and SAM record lines into a complete BAM byte
    stream; also returns the lines' SAM-text size (``len(line) + 1``
    each, ``SamRecord.line_bytes()``'s unit) and each non-empty data
    frame's ``(offset, first line)``, so no caller re-reads either."""
    if chunk_bytes <= 0:
        raise BamError("chunk_bytes must be positive")
    parts = [MAGIC, _compress_frame(header.to_text().encode())]
    offset = len(parts[0]) + len(parts[1])
    heads: List[Tuple[int, str]] = []
    batch: List[str] = []
    batch_size = text_size = 0

    def frame() -> None:
        nonlocal offset
        text = "\n".join(batch)
        if text:
            heads.append((offset, batch[0]))
        parts.append(_compress_frame(text.encode()))
        offset += len(parts[-1])

    for line in lines:
        batch.append(line)
        batch_size += len(line) + 1
        if batch_size >= chunk_bytes:
            frame()
            text_size += batch_size
            batch = []
            batch_size = 0
    if batch:
        frame()
    return b"".join(parts), text_size + batch_size, heads


def encode_bam(header: SamHeader, records: Iterable[SamRecord],
               chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> Tuple[bytes, int]:
    """:func:`encode_bam_lines` over ``to_line``s, without the heads."""
    return encode_bam_lines(header, map(SamRecord.to_line, records),
                            chunk_bytes)[:2]


def bam_bytes(
    header: SamHeader,
    records: Iterable[SamRecord],
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> bytes:
    """:func:`encode_bam` without the size."""
    return encode_bam(header, records, chunk_bytes)[0]


def iter_frames(data: bytes, offset: int = 0) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(frame_offset, decompressed_payload)`` for each chunk frame.

    ``offset`` may point at the file magic (which is skipped) or directly
    at a frame boundary.
    """
    position = offset
    if data[position : position + len(MAGIC)] == MAGIC:
        position += len(MAGIC)
    end = len(data)
    while position < end:
        if end - position < _FRAME_HEADER.size:
            raise BamError("truncated BAM frame header")
        magic, raw_len, comp_len = _FRAME_HEADER.unpack_from(data, position)
        if magic != FRAME_MAGIC:
            raise BamError(f"bad frame magic at offset {position}")
        start = position + _FRAME_HEADER.size
        if start + comp_len > end:
            raise BamError("truncated BAM frame payload")
        try:
            payload = zlib.decompress(data[start : start + comp_len])
        except zlib.error as exc:
            raise BamError(
                f"corrupt BAM frame at offset {position}: {exc}"
            ) from exc
        if len(payload) != raw_len:
            raise BamError("frame length mismatch after decompression")
        yield position, payload
        position = start + comp_len


def decode_bam_lines(data: bytes) -> Tuple[SamHeader, List[str], int]:
    """Parse a complete BAM byte stream into header, SAM record lines
    and their SAM-text size, which the frames state: a frame's text is
    its lines joined by newlines, so ``len(text) + 1`` sums ``len(line)
    + 1`` — characters, ``SamRecord.line_bytes()``'s unit, not bytes."""
    if data[: len(MAGIC)] != MAGIC:
        raise BamError("missing BAM magic")
    header: Optional[SamHeader] = None
    lines: List[str] = []
    text_size = 0
    for _, payload in iter_frames(data):
        if header is None:
            header = SamHeader.from_text(payload.decode())
        elif payload:
            text = payload.decode()
            lines.extend(text.split("\n"))
            text_size += len(text) + 1
    if header is None:
        raise BamError("BAM stream has no header frame")
    return header, lines, text_size


def decode_bam(data: bytes) -> Tuple[SamHeader, List[SamRecord], int]:
    """:func:`decode_bam_lines` with each line parsed into a record."""
    header, lines, text_size = decode_bam_lines(data)
    return header, list(map(SamRecord.from_line, lines)), text_size


def read_bam(data: bytes) -> Tuple[SamHeader, List[SamRecord]]:
    """:func:`decode_bam` without the size."""
    return decode_bam(data)[:2]


class BamLinearIndex:
    """Linear index over a coordinate-sorted BAM byte stream.

    Maps each chunk to the leftmost record position it contains so that
    range queries (e.g. Haplotype Caller on one chromosome partition,
    Round 4 of the pipeline) can seek to the first relevant chunk.
    """

    def __init__(self, entries: List[Tuple[str, int, int]]):
        #: ``(rname, first_pos, frame_offset)`` per data chunk, file order.
        self.entries = list(entries)

    @classmethod
    def build(cls, data: bytes) -> "BamLinearIndex":
        # Past the header frame, only each chunk's leftmost record is
        # indexed: parse one line per chunk, not every record.
        return cls.of_heads(
            (offset, payload.partition(b"\n")[0].decode())
            for offset, payload in islice(iter_frames(data), 1, None)
            if payload
        )

    @classmethod
    def of_heads(cls, heads: Iterable[Tuple[int, str]]) -> "BamLinearIndex":
        """The index of ``(offset, first line)`` frame heads, as
        :func:`encode_bam_lines` returns them."""
        return cls([(*split_line(line)[2:4], offset) for offset, line in heads])

    def first_chunk_at_or_after(self, rname: str, pos: int) -> Optional[int]:
        """Offset of the last chunk whose first record is <= (rname, pos).

        Returns the best seek point for a scan that must observe every
        record overlapping ``pos``; ``None`` if the contig is absent.
        """
        best: Optional[int] = None
        for entry_rname, entry_pos, offset in self.entries:
            if entry_rname != rname:
                continue
            if entry_pos <= pos:
                best = offset
            elif best is None:
                best = offset
                break
            else:
                break
        return best

    def chunk_count(self) -> int:
        return len(self.entries)

    def to_bytes(self) -> bytes:
        lines = [f"{rname}\t{pos}\t{offset}" for rname, pos, offset in self.entries]
        return ("\n".join(lines)).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BamLinearIndex":
        entries = []
        try:
            text = data.decode()
            for line in text.split("\n") if text else ():
                rname, pos, offset = line.split("\t")
                entries.append((rname, int(pos), int(offset)))
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise BamError(f"malformed BAM index: {exc}") from exc
        return cls(entries)
