"""The data transformations around wrapped programs (Fig 6a).

Round 1 hands its FASTQ partition to Bwa as interleaved FASTQ text and
takes SAM text back for SamToBam (the Hadoop Streaming hand-off, Fig 8):
the four text conversions here are those pipes.  Rounds 2 and 3 run
field kernels in place of the Java-style programs and count, in
:class:`DataTransformAccounting`, the bytes the programs are handed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.formats.fastq import FastqRecord, ReadPair
from repro.formats.sam import SamHeader, SamRecord, decode_quals
from repro.errors import FormatError


def pairs_to_interleaved_text(pairs: List[ReadPair]) -> str:
    """Serialize read pairs as interleaved FASTQ text."""
    chunks = []
    for fwd, rev in pairs:
        chunks.append(fwd.to_text())
        chunks.append(rev.to_text())
    return "".join(chunks)


def interleaved_text_to_pairs(text: str) -> List[ReadPair]:
    """Parse interleaved FASTQ text back into read pairs."""
    lines = [line for line in text.split("\n") if line]
    if len(lines) % 8 != 0:
        raise FormatError("interleaved FASTQ must hold whole pairs")
    pairs: List[ReadPair] = []
    for start in range(0, len(lines), 8):
        fwd = _fastq_from_lines(lines[start : start + 4])
        rev = _fastq_from_lines(lines[start + 4 : start + 8])
        pairs.append((fwd, rev))
    return pairs


def _fastq_from_lines(lines: List[str]) -> FastqRecord:
    if not lines[0].startswith("@") or not lines[2].startswith("+"):
        raise FormatError("malformed FASTQ block")
    return FastqRecord(lines[0][1:], lines[1], decode_quals(lines[3]))


def records_to_sam_text(header: SamHeader, records: List[SamRecord]) -> str:
    """Render a header and its records as SAM text (what Bwa writes)."""
    body = "\n".join(record.to_line() for record in records)
    return header.to_text() + body + "\n"


def sam_text_to_records(text: str) -> Tuple[SamHeader, List[SamRecord]]:
    """Parse SAM text back into its header and records (what SamToBam
    reads)."""
    header_lines: List[str] = []
    records: List[SamRecord] = []
    for line in text.split("\n"):
        if not line:
            continue
        if line.startswith("@"):
            header_lines.append(line)
        else:
            records.append(SamRecord.from_line(line))
    return SamHeader.from_text("\n".join(header_lines)), records


def _text_size(records: List[SamRecord]) -> int:
    return sum(record.line_bytes() for record in records)


class DataTransformAccounting:
    """Bytes copied between Hadoop objects and in-memory BAM files.

    Each wrapped Java program pays a copy-and-convert cost on both its
    input and its output (Fig 6a, 12-49% of task time); this counter
    makes that cost observable in the functional engine so the
    simulator's fractions are grounded in real byte counts.
    """

    def __init__(self):
        self.bytes_to_program = 0
        self.bytes_from_program = 0
        self.invocations = 0

    def record_input(self, records: List[SamRecord],
                     size: Optional[int] = None) -> int:
        """Count one program call fed ``records``; returns their size.

        ``size`` is the records' SAM-text size when the caller already
        holds it (the BAM reader decoded them, or the previous program's
        output was just sized); otherwise it is summed here.
        """
        size = _text_size(records) if size is None else size
        self.bytes_to_program += size
        self.invocations += 1
        return size

    def record_output(self, records: List[SamRecord],
                      size: Optional[int] = None) -> int:
        """Count what a program handed back (``size`` as above)."""
        size = _text_size(records) if size is None else size
        self.bytes_from_program += size
        return size

    def merge(self, other: "DataTransformAccounting") -> None:
        self.bytes_to_program += other.bytes_to_program
        self.bytes_from_program += other.bytes_from_program
        self.invocations += other.invocations

    @property
    def total_bytes(self) -> int:
        return self.bytes_to_program + self.bytes_from_program

    def __repr__(self) -> str:
        return (
            f"DataTransformAccounting(in={self.bytes_to_program}B, "
            f"out={self.bytes_from_program}B, calls={self.invocations})"
        )


def run_wrapped_chain(
    programs,
    header: SamHeader,
    records: List[SamRecord],
    accounting: DataTransformAccounting,
    input_size: Optional[int] = None,
) -> Tuple[SamHeader, List[SamRecord], int]:
    """Run wrapped programs back to back with transform accounting.

    Each intermediate in-memory BAM is sized once — program *k*'s output
    is program *k+1*'s input.  ``input_size`` is the first input's size
    when the caller knows it; the last output's size is returned.
    """
    size = input_size
    for program in programs:
        accounting.record_input(records, size)
        header, records = program.run(header, records)
        size = accounting.record_output(records)
    return header, records, size


def run_wrapped(
    program,
    header: SamHeader,
    records: List[SamRecord],
    accounting: Optional[DataTransformAccounting] = None,
):
    """Invoke a wrapped Java-style program with transform accounting."""
    if accounting is None:
        return program.run(header, records)
    return run_wrapped_chain([program], header, records, accounting)[:2]
