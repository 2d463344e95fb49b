"""FASTQ records: the sequencer's output (primary analysis).

Paired-end data arrives as two files sorted by read name — one for the
forward reads and one for the reverse reads — which Gesall merges into a
single *interleaved* file of read pairs before splitting it into logical
partitions (paper section 3.2, "Alignment").
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, List, Tuple

from repro.errors import FormatError
from repro.formats.sam import decode_quals, encode_quals


class FastqRecord:
    """One short read: name, base calls and per-base quality scores."""

    __slots__ = ("name", "sequence", "qualities")

    def __init__(self, name: str, sequence: str, qualities: List[int]):
        if len(sequence) != len(qualities):
            raise FormatError(
                f"read {name!r}: {len(sequence)} bases but "
                f"{len(qualities)} quality scores"
            )
        self.name = name
        self.sequence = sequence
        self.qualities = list(qualities)

    def to_text(self) -> str:
        return f"@{self.name}\n{self.sequence}\n+\n{encode_quals(self.qualities)}\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FastqRecord):
            return NotImplemented
        return (
            self.name == other.name
            and self.sequence == other.sequence
            and self.qualities == other.qualities
        )

    def __repr__(self) -> str:
        return f"FastqRecord({self.name!r}, {len(self.sequence)}bp)"


ReadPair = Tuple[FastqRecord, FastqRecord]


def write_fastq(path: str, records: Iterable[FastqRecord]) -> None:
    """Write reads to a FASTQ text file."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(record.to_text())


def read_fastq(path: str) -> Iterator[FastqRecord]:
    """Stream reads from a FASTQ text file."""
    with open(path) as handle:
        while True:
            name_line = handle.readline()
            if not name_line:
                return
            seq = handle.readline().rstrip("\n")
            plus = handle.readline()
            qual = handle.readline().rstrip("\n")
            if not name_line.startswith("@") or not plus.startswith("+"):
                raise FormatError("malformed FASTQ record")
            yield FastqRecord(name_line[1:].rstrip("\n"), seq, decode_quals(qual))


def interleave(
    forward: Iterable[FastqRecord], reverse: Iterable[FastqRecord]
) -> Iterator[ReadPair]:
    """Merge the two sorted per-strand files into read pairs.

    Both inputs must be in the same read-name order (the sequencer
    guarantee the paper relies on).  Raises :class:`FormatError` on a
    name mismatch or unequal file lengths.
    """
    forward_iter = iter(forward)
    reverse_iter = iter(reverse)
    while True:
        fwd = next(forward_iter, None)
        rev = next(reverse_iter, None)
        if fwd is None and rev is None:
            return
        if fwd is None or rev is None:
            raise FormatError("forward/reverse FASTQ files have unequal lengths")
        if _pair_key(fwd.name) != _pair_key(rev.name):
            raise FormatError(
                f"read name mismatch: {fwd.name!r} vs {rev.name!r}"
            )
        yield fwd, rev


def read_sample(data_dir: str):
    """Load a simulated sample directory: ``(reference, read pairs)``.

    The layout ``repro-genomics simulate`` writes — ``reference.fa``
    plus the per-strand ``reads_1.fastq`` / ``reads_2.fastq``.
    """
    # Imported here: repro.genome.simulate imports this module.
    from repro.genome.reference import read_fasta

    reference = read_fasta(os.path.join(data_dir, "reference.fa"))
    forward = read_fastq(os.path.join(data_dir, "reads_1.fastq"))
    reverse = read_fastq(os.path.join(data_dir, "reads_2.fastq"))
    return reference, list(interleave(forward, reverse))


def _pair_key(name: str) -> str:
    """Read name with the /1 or /2 mate suffix stripped."""
    if name.endswith("/1") or name.endswith("/2"):
        return name[:-2]
    return name
