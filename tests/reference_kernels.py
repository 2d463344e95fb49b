"""Reference kernels: the pre-fast-path bodies, kept as test oracles.

``build_pileup`` (with ``_indel_after``) and ``call_over_full_pileup``
are verbatim copies of what ``repro.variants.pileup`` and
``HaplotypeCallerLite.call`` shipped before the kernel fast path.  They
are slow on purpose and live in ``tests/`` only: the differential tests
in ``test_kernel_oracles.py`` require the shipped kernels to return
exactly what these return.  (The Smith-Waterman body of that time is
not here: its traceback was wrong, and ``test_kernel_oracles.py`` holds
an independent full-matrix oracle for the kernel instead.)

``cigar_parse`` / ``cigar_str`` / ``sam_to_line`` / ``sam_from_line``
are the bodies of ``Cigar.parse``, ``Cigar.__str__``,
``SamRecord.to_line`` and ``SamRecord.from_line`` from before the
data-transformation fast path, as free functions.

``merge_sorted_runs`` / ``merge_sorted_runs_list``, ``SpillBuffer`` and
``_default_value_size`` are the bodies from before the per-record
engine and shuffle fast path.

``bam_index_entries`` is the body of ``BamLinearIndex.build`` from
before it stopped decoding every record of every chunk.

``mark_duplicate_group`` is round 3's reduce side from before it moved
SAM lines: the duplicate decisions on copies of the shuffled records.
``markdup_keys_for_pair`` and ``build_partial_position_bloom`` are the
record keying and bloom bodies from before they shared one body with
rounds 2 and 3's line forms.

``pileup_activity`` (with ``_passing_blocks`` / ``_indel_after_block``),
``seed_read``, ``vote`` and ``ungapped_alignment`` are the per-base /
per-hit bodies from before the per-read paths.

All of these are *refactoring guards* — the code's own past, pinned so
a rewrite cannot move a byte — not independent oracles.
"""

from __future__ import annotations

import heapq
import os
import re
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.align.sw import MATCH, MISMATCH, LocalAlignment
from repro.cleaning.duplicates import fragment_key, pair_key, pair_score
from repro.errors import CigarError, FormatError, ShuffleError, StorageFullError
from repro.formats import flags as F
from repro.formats.bam import iter_frames
from repro.formats.cigar import Cigar
from repro.formats.sam import SamRecord, decode_quals
from repro.gdpt.bloom import BloomFilter
from repro.gdpt.partitioner import (
    PAIR_VALUE,
    PARTIAL_VALUE,
    PASSTHROUGH_VALUE,
    SHADOW_VALUE,
)
from repro.genome.regions import GenomicInterval
from repro.recal.covariates import aligned_pairs
from repro.shuffle.codec import Codec, get_codec
from repro.shuffle.segment import KeyValue, decode_segment, encode_segment
from repro.shuffle.spill import SpillResult
from repro.variants.genotyper import call_column
from repro.variants.pileup import (
    PileupColumn,
    PileupConfig,
    PileupEntry,
    record_passes,
)


def _indel_after(record: SamRecord, read_offset: int, ref_pos: int,
                 reference) -> Optional[Tuple[str, str]]:
    """Detect an I or D operation starting immediately after this base."""
    read_cursor = 0
    ref_cursor = record.pos
    ops = list(record.cigar)
    for index, (length, op) in enumerate(ops):
        if op in ("M", "=", "X"):
            end_read = read_cursor + length - 1
            end_ref = ref_cursor + length - 1
            if read_offset == end_read and ref_pos == end_ref and index + 1 < len(ops):
                next_len, next_op = ops[index + 1]
                if next_op == "I":
                    inserted = record.seq[end_read + 1 : end_read + 1 + next_len]
                    ref_base = reference.base_at(record.rname, ref_pos)
                    return (ref_base, ref_base + inserted)
                if next_op == "D":
                    contig_len = reference.contig_length(record.rname)
                    if ref_pos + next_len <= contig_len:
                        ref_allele = reference.fetch(
                            record.rname, ref_pos, ref_pos + next_len + 1
                        )
                        return (ref_allele, ref_allele[0])
            read_cursor += length
            ref_cursor += length
        elif op in ("I", "S"):
            read_cursor += length
        elif op in ("D", "N"):
            ref_cursor += length
    return None


def build_pileup(
    records: Iterable[SamRecord],
    reference,
    interval: Optional[GenomicInterval] = None,
    config: Optional[PileupConfig] = None,
) -> Iterator[PileupColumn]:
    """Yield pileup columns in coordinate order.

    ``interval`` restricts the output columns (reads overlapping the
    interval still contribute from outside it).
    """
    config = config or PileupConfig()
    columns: Dict[Tuple[str, int], List[PileupEntry]] = {}
    for record in records:
        if not record_passes(record, config):
            continue
        if interval is not None and record.rname != interval.contig:
            continue
        quals = record.base_qualities()
        for read_offset, ref_pos in aligned_pairs(record):
            if interval is not None and not (
                interval.start <= ref_pos < interval.end
            ):
                continue
            if read_offset >= len(quals):
                continue
            quality = quals[read_offset]
            if quality < config.min_base_quality:
                continue
            indel = _indel_after(record, read_offset, ref_pos, reference)
            entry = PileupEntry(
                record=record,
                read_offset=read_offset,
                base=record.seq[read_offset],
                quality=quality,
                mapq=record.mapq,
                reverse=record.flags.is_reverse,
                indel=indel,
            )
            columns.setdefault((record.rname, ref_pos), []).append(entry)
    contig_order: Dict[str, int] = {}
    for contig, _ in columns:
        if contig not in contig_order:
            contig_order[contig] = len(contig_order)
    for (contig, pos) in sorted(
        columns, key=lambda key: (contig_order[key[0]], key[1])
    ):
        yield PileupColumn(contig, pos, columns[(contig, pos)])


def call_over_full_pileup(caller, records, interval=None, emit_interval=None):
    """``HaplotypeCallerLite.call`` as it was: every column materialised.

    Verbatim body of the pre-fast-path method, with ``self`` spelled
    ``caller`` and the reference :func:`build_pileup` above.
    """
    records = list(records)
    records = caller._downsample(records, interval)
    columns = list(
        build_pileup(records, caller.reference, interval,
                     caller.config.genotyper.pileup)
    )
    windows = caller.active_windows(columns)
    calls = []
    columns_by_pos = {
        (column.contig, column.pos): column for column in columns
    }
    for window in windows:
        for pos in range(window.start, window.end):
            column = columns_by_pos.get((window.contig, pos))
            if column is None:
                continue
            for call in call_column(column, caller.reference,
                                    caller.config.genotyper):
                if emit_interval is not None and not emit_interval.contains(
                    call.chrom, call.pos
                ):
                    continue
                calls.append(call)
    return calls


_CIGAR_TOKEN = re.compile(r"(\d+)([MIDNSHP=X])")


def cigar_parse(text: str) -> Cigar:
    """Parse the SAM textual representation (``'*'`` means empty)."""
    if text == "*" or text == "":
        return Cigar([])
    ops = []
    consumed = 0
    for match in _CIGAR_TOKEN.finditer(text):
        ops.append((int(match.group(1)), match.group(2)))
        consumed += len(match.group(0))
    if consumed != len(text):
        raise CigarError(f"malformed CIGAR string {text!r}")
    return Cigar(ops)


def cigar_str(cigar: Cigar) -> str:
    if not cigar._ops:
        return "*"
    return "".join(f"{length}{op}" for length, op in cigar._ops)


def sam_to_line(record: SamRecord) -> str:
    """Serialize to one SAM text line (no trailing newline)."""
    fields = [
        record.qname,
        str(int(record.flags)),
        record.rname,
        str(record.pos),
        str(record.mapq),
        cigar_str(record.cigar),
        record.rnext,
        str(record.pnext),
        str(record.tlen),
        record.seq,
        record.qual,
    ]
    for key in sorted(record.tags):
        fields.append(f"{key}:Z:{record.tags[key]}")
    return "\t".join(fields)


def sam_from_line(line: str) -> SamRecord:
    """Parse one SAM text line."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) < 11:
        raise FormatError(f"SAM line has {len(fields)} fields, expected >= 11")
    tags: Dict[str, str] = {}
    for raw in fields[11:]:
        parts = raw.split(":", 2)
        if len(parts) != 3:
            raise FormatError(f"malformed SAM tag {raw!r}")
        tags[parts[0]] = parts[2]
    return SamRecord(
        qname=fields[0],
        flags=F.SamFlags(int(fields[1])),
        rname=fields[2],
        pos=int(fields[3]),
        mapq=int(fields[4]),
        cigar=cigar_parse(fields[5]),
        rnext=fields[6],
        pnext=int(fields[7]),
        tlen=int(fields[8]),
        seq=fields[9],
        qual=fields[10],
        tags=tags,
    )


# ---------------------------------------------------------------------------
# Per-record engine and shuffle: the bodies before the fast path
# ---------------------------------------------------------------------------
# Refactoring guards, not independent oracles: ``merge_sorted_runs`` /
# ``merge_sorted_runs_list`` (``repro.shuffle.merge``), ``SpillBuffer``
# (``repro.shuffle.spill``) and ``_default_value_size``
# (``repro.mapreduce.job``) exactly as shipped before the per-record
# fast path.  ``test_shuffle_oracles.py`` requires the shipped code to
# produce the same bytes, counts and sizes.
T = TypeVar("T")


def merge_sorted_runs(
    runs: Sequence[Iterable[T]],
    key: Callable[[T], Any],
) -> Iterator[T]:
    """Merge runs already sorted by ``key`` into one sorted stream.

    Equal keys preserve run order, and within a run, input order —
    identical to a stable sort over the concatenation of the runs,
    without materializing it.
    """

    def decorated(run: Iterable[T], run_index: int):
        for seq, item in enumerate(run):
            yield (key(item), run_index, seq), item

    streams = [decorated(run, index) for index, run in enumerate(runs)]
    for _, item in heapq.merge(*streams, key=lambda pair: pair[0]):
        yield item


def merge_sorted_runs_list(
    runs: Sequence[Sequence[T]],
    key: Callable[[T], Any],
) -> List[T]:
    """Eager form of :func:`merge_sorted_runs`."""
    return list(merge_sorted_runs(runs, key))


class SpillBuffer:
    """Bounded sort buffer producing per-reducer merged segments."""

    def __init__(
        self,
        num_partitions: int,
        partitioner: Callable[[Any, int], int],
        sort_key: Callable[[Any], Any],
        spill_records: int,
        track_keys: int = 0,
        spill_io: Optional[Any] = None,
        spill_dirs: Tuple[str, ...] = (),
        spill_prefix: str = "run",
    ):
        if spill_records < 1:
            raise ShuffleError("spill_records must be >= 1")
        if spill_io is not None and not spill_dirs:
            raise ShuffleError("spill_io needs at least one spill dir")
        self._num_partitions = num_partitions
        self._partitioner = partitioner
        self._sort_key = sort_key
        self._spill_records = spill_records
        self._track_keys = track_keys
        #: Durable-I/O layer for real spill-to-disk; None keeps runs in
        #: memory (the original behaviour, still the default).
        self._spill_io = spill_io
        self._spill_dirs = tuple(spill_dirs)
        self._spill_prefix = spill_prefix
        #: Disk path per run (index-aligned with _runs; None = in memory).
        self._run_files: List[Optional[str]] = []
        #: Current in-memory buffer: (partition, key, value) in emit order.
        self._buffer: List[Tuple[int, Any, Any]] = []
        #: Frozen runs: each is a per-partition list of sorted records.
        #: A run spilled to disk is replaced by None until finish()
        #: reads it back.
        self._runs: List[Optional[List[List[KeyValue]]]] = []
        self.partition_records = [0] * num_partitions
        self._key_tallies: Optional[List[Counter]] = (
            [Counter() for _ in range(num_partitions)] if track_keys else None
        )

    def add(self, key: Any, value: Any) -> None:
        partition = self._partitioner(key, self._num_partitions)
        if not 0 <= partition < self._num_partitions:
            raise ShuffleError(
                f"partitioner placed key {key!r} in partition {partition}, "
                f"outside [0, {self._num_partitions})"
            )
        self._buffer.append((partition, key, value))
        self.partition_records[partition] += 1
        if self._key_tallies is not None:
            try:
                self._key_tallies[partition][key] += 1
            except TypeError:
                pass  # unhashable key: placement works, tracking doesn't
        if len(self._buffer) >= self._spill_records:
            self._spill()

    def _spill(self) -> None:
        """Freeze the buffer as one run of per-partition sorted slices."""
        run: List[List[KeyValue]] = [[] for _ in range(self._num_partitions)]
        for partition, key, value in self._buffer:
            run[partition].append((key, value))
        sort_key = self._sort_key
        for slice_ in run:
            slice_.sort(key=lambda kv: sort_key(kv[0]))  # stable
        if self._spill_io is not None:
            path = self._write_run_to_disk(len(self._runs), run)
            if path is not None:
                # Run is durable on disk; drop the in-memory copy (the
                # point of spilling) and read it back at merge time.
                self._runs.append(None)
                self._run_files.append(path)
                self._buffer = []
                return
        self._runs.append(run)
        self._run_files.append(None)
        self._buffer = []

    def _write_run_to_disk(
        self, run_index: int, run: List[List[KeyValue]]
    ) -> Optional[str]:
        """Persist one sorted run; returns its path, or None.

        Walks the spill directories in order: ENOSPC on the primary
        degrades the run to the next directory (counted in
        ``io.fallback_spills``).  When *every* directory is full the
        run stays in memory — degraded further, but the task still
        completes — rather than failing the map task over intermediate
        data that has an in-memory home anyway.
        """
        # Runs are segment frames (raw codec) since spill runs got a CRC.
        payload = encode_segment(run, get_codec("raw")).blob
        name = os.path.join(
            "mapspill", f"{self._spill_prefix}-run{run_index:03d}.spill"
        )
        for dir_index, root in enumerate(self._spill_dirs):
            target = os.path.join(root, name)
            try:
                self._spill_io.write_atomic(target, payload)
            except StorageFullError:
                continue
            if dir_index > 0:
                self._spill_io.stats.fallback_spills += 1
            return target
        return None

    def _materialized_runs(self) -> List[List[List[KeyValue]]]:
        """All runs, disk-spilled ones read back (and their files freed)."""
        runs: List[List[List[KeyValue]]] = []
        for run, path in zip(self._runs, self._run_files):
            if run is not None:
                runs.append(run)
                continue
            data = self._spill_io.read_bytes(path)
            if data is None:
                raise ShuffleError(f"spilled run missing: {path}")
            runs.append(decode_segment(data).records)
            self._spill_io.unlink(path)
        return runs

    def finish(self, codec: Codec) -> SpillResult:
        """Spill the tail, merge runs, and encode one segment/reducer."""
        if self._buffer:
            self._spill()
        # Even an empty map output counts as one (empty) spill file,
        # matching Hadoop's SPILLED file accounting.
        spills = max(1, len(self._runs))
        runs = self._materialized_runs()
        sort_key = self._sort_key
        segments = []
        for partition in range(self._num_partitions):
            merged = merge_sorted_runs_list(
                [run[partition] for run in runs],
                key=lambda kv: sort_key(kv[0]),
            )
            segments.append(encode_segment(merged, codec))
        key_counts: List[List[Tuple[Any, int]]] = []
        for partition in range(self._num_partitions):
            if self._key_tallies is None:
                key_counts.append([])
                continue
            tally = self._key_tallies[partition]
            # Deterministic heaviest-first order: count desc, then the
            # key's repr (value-determined for canonical key types).
            ranked = sorted(
                tally.items(), key=lambda kc: (-kc[1], repr(kc[0]))
            )
            key_counts.append(ranked[: self._track_keys])
        return SpillResult(
            segments, spills, list(self.partition_records), key_counts
        )


def _default_value_size(value: Any) -> int:
    """Approximate serialized size of a value for byte accounting."""
    line_bytes = getattr(value, "line_bytes", None)
    if callable(line_bytes):
        return line_bytes()
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value) + 1
    if isinstance(value, (list, tuple)):
        return sum(_default_value_size(item) for item in value)
    return len(repr(value))


def sum_of_base_qualities(qual: str, minimum: int) -> int:
    """Refactoring guard: ``SamRecord.sum_of_base_qualities`` as shipped
    before it became one ``bytes.translate`` — decode, filter, add."""
    return sum(q for q in decode_quals(qual) if q >= minimum)


def mark_duplicate_group(key: Tuple, values: List[Tuple]) -> List[SamRecord]:
    """Reduce side of :class:`MarkDupKeying`: duplicate decisions for
    one shuffled group, on copies of its records."""
    out: List[SamRecord] = []
    if key[0] == "P":
        pairs = [
            (end1.copy(), end2.copy())
            for tag, end1, end2 in values
            if tag == PAIR_VALUE
        ]
        if pairs:
            best = max(
                range(len(pairs)), key=lambda i: pair_score(*pairs[i])
            )
            for index, (end1, end2) in enumerate(pairs):
                end1.set_duplicate(index != best)
                end2.set_duplicate(index != best)
                out += (end1, end2)
        return out
    if key[0] == "F":
        partials = [
            (value[1].copy(), value[2].copy())
            for value in values if value[0] == PARTIAL_VALUE
        ]
        if not partials:
            return out  # only shadows arrived: nothing to emit
        if any(value[0] == SHADOW_VALUE for value in values):
            survivor = None  # a complete pair occupies this position
        else:
            survivor = max(
                range(len(partials)),
                key=lambda i: partials[i][0].sum_of_base_qualities(),
            )
        for index, (mapped, unmapped) in enumerate(partials):
            mapped.set_duplicate(index != survivor)
            out += (mapped, unmapped)
        return out
    # Passthrough: both-unmapped pairs.
    for tag, end1, end2 in values:
        if tag == PASSTHROUGH_VALUE:
            out += (end1.copy(), end2.copy())
    return out


def markdup_keys_for_pair(keying, end1: SamRecord, end2: SamRecord
                          ) -> List[Tuple[Tuple, Tuple]]:
    """``MarkDupKeying.keys_for_pair`` (``self`` spelled ``keying``) as
    shipped before it shared one body with the line form."""
    mapped1 = not end1.flags.is_unmapped
    mapped2 = not end2.flags.is_unmapped
    if mapped1 and mapped2:
        emissions: List[Tuple[Tuple, Tuple]] = [
            (("P", pair_key(end1, end2)), (PAIR_VALUE, end1, end2))
        ]
        for end in (end1, end2):
            fkey = fragment_key(end)
            if keying.mode == "opt" and (fkey[0], fkey[1]) not in keying.bloom:
                continue
            if fkey in keying._shadow_sent:
                continue
            keying._shadow_sent.add(fkey)
            emissions.append((("F", fkey), (SHADOW_VALUE, end)))
        return emissions
    if mapped1 or mapped2:
        mapped = end1 if mapped1 else end2
        unmapped = end2 if mapped1 else end1
        return [
            (("F", fragment_key(mapped)), (PARTIAL_VALUE, mapped, unmapped))
        ]
    return [(("U", end1.qname), (PASSTHROUGH_VALUE, end1, end2))]


def build_partial_position_bloom(
    pairs: Iterable[Tuple[SamRecord, SamRecord]],
    num_bits: int = 1 << 16,
) -> BloomFilter:
    """The MarkDup_opt pre-pass as shipped before it took a ``fragment``
    function: record 5' positions of partial matches."""
    bloom = BloomFilter(num_bits=num_bits)
    for end1, end2 in pairs:
        mapped1 = not end1.flags.is_unmapped
        mapped2 = not end2.flags.is_unmapped
        if mapped1 == mapped2:
            continue
        mapped = end1 if mapped1 else end2
        bloom.add((mapped.rname, mapped.unclipped_five_prime))
    return bloom


def bam_index_entries(data: bytes) -> List[Tuple[str, int, int]]:
    """``(rname, first_pos, frame_offset)`` per data chunk, decoding
    every record of every chunk to look at the first."""
    entries: List[Tuple[str, int, int]] = []
    first = True
    for offset, payload in iter_frames(data):
        if first:
            first = False  # header frame
            continue
        text = payload.decode()
        records = (
            [SamRecord.from_line(line) for line in text.split("\n")]
            if text else []
        )
        if records:
            entries.append((records[0].rname, records[0].pos, offset))
    return entries


# ---------------------------------------------------------------------------
# Per read, not per base: the bodies before the block-edge / one-lookup paths
# ---------------------------------------------------------------------------
# The parent's body — a refactoring guard, not an oracle: what
# ``pileup_activity`` (with the ``_passing_blocks`` that handed it decoded
# QUAL lists and the block-level ``_indel_after``, here
# ``_indel_after_block``), ``ReferenceIndex.seed_read``,
# ``BwaMemLite._vote`` and ``ungapped_alignment`` shipped before they
# stopped working per base / per hit.  ``self`` is spelled ``index`` /
# ``aligner``.  ``test_per_read_kernels.py`` requires the shipped code to
# return exactly what these return.


def _indel_after_block(record: SamRecord, end_read: int, end_ref: int,
                       following: Optional[Tuple[int, str]],
                       reference) -> Optional[Tuple[str, str]]:
    """The I or D that starts right after a block's last base, if any."""
    if following is None:
        return None
    next_len, next_op = following
    if next_op == "I":
        inserted = record.seq[end_read + 1 : end_read + 1 + next_len]
        ref_base = reference.base_at(record.rname, end_ref)
        return (ref_base, ref_base + inserted)
    if next_op == "D" and end_ref + next_len <= reference.contig_length(record.rname):
        ref_allele = reference.fetch(record.rname, end_ref, end_ref + next_len + 1)
        return (ref_allele, ref_allele[0])
    return None


def _passing_blocks(records: Iterable[SamRecord],
                    interval: Optional[GenomicInterval],
                    config: PileupConfig) -> Iterator[tuple]:
    """Walk each passing read's CIGAR once, one item per M/=/X block."""
    for record in records:
        if not record_passes(record, config):
            continue
        if interval is not None and record.rname != interval.contig:
            continue
        quals = record.base_qualities()
        ops = record.cigar.ops
        read_cursor = 0
        ref_cursor = record.pos
        for index, (length, op) in enumerate(ops):
            if op in "M=X":
                lo = 0
                hi = min(length, len(quals) - read_cursor)
                if interval is not None:
                    lo = max(lo, interval.start - ref_cursor)
                    hi = min(hi, interval.end - ref_cursor)
                if lo < hi:
                    following = ops[index + 1] if index + 1 < len(ops) else None
                    yield (record, quals, read_cursor, ref_cursor, lo, hi,
                           length, following)
                read_cursor += length
                ref_cursor += length
            elif op in "IS":
                read_cursor += length
            elif op in "DN":
                ref_cursor += length


def pileup_activity(
    records: Iterable[SamRecord],
    reference,
    interval: Optional[GenomicInterval] = None,
    config: Optional[PileupConfig] = None,
) -> Iterator[Tuple[str, int, int, int]]:
    """Yield ``(contig, pos, depth, disagreeing)`` per pileup column."""
    config = config or PileupConfig()
    min_quality = config.min_base_quality
    # contig (first-seen order) -> position -> [depth, disagreeing]
    counts: Dict[str, Dict[int, List[int]]] = {}
    for record, quals, read_start, ref_start, lo, hi, length, following in (
        _passing_blocks(records, interval, config)
    ):
        rname = record.rname
        seq = record.seq
        ref_seq = reference.fetch(rname, ref_start + lo, ref_start + hi)
        contig_counts = counts.get(rname)
        for k in range(lo, hi):
            read_offset = read_start + k
            if quals[read_offset] < min_quality:
                continue
            ref_pos = ref_start + k
            if contig_counts is None:
                contig_counts = counts[rname] = {}
            count = contig_counts.get(ref_pos)
            if count is None:
                count = contig_counts[ref_pos] = [0, 0]
            count[0] += 1
            if seq[read_offset] != ref_seq[k - lo] or (
                k == length - 1
                and _indel_after_block(record, read_offset, ref_pos, following,
                                       reference) is not None
            ):
                count[1] += 1
    for contig, contig_counts in counts.items():
        for pos in sorted(contig_counts):
            depth, disagreeing = contig_counts[pos]
            yield contig, pos, depth, disagreeing


def seed_read(index, read: str, stride: int = 7) -> Iterator[Tuple[int, Tuple[str, int]]]:
    """Yield ``(read_offset, hit)`` for seeds sampled across the read."""
    k = index.k
    for offset in range(0, max(1, len(read) - k + 1), stride):
        kmer = read[offset : offset + k]
        if len(kmer) < k:
            break
        for hit in index.lookup(kmer):
            yield offset, hit


def vote(aligner, read: str) -> List[Tuple[str, int]]:
    """Seed voting: cluster seed hits by (contig, diagonal)."""
    votes: Dict[Tuple[str, int], int] = {}
    for offset, (contig, hit_pos) in seed_read(
        aligner.index, read, aligner.config.seed_stride
    ):
        anchor = hit_pos - offset
        if anchor < 1:
            continue
        votes[(contig, anchor)] = votes.get((contig, anchor), 0) + 1
    # Merge anchors within a small indel-sized fuzz onto the
    # best-voted representative.
    merged: Dict[Tuple[str, int], int] = {}
    for (contig, anchor), count in sorted(
        votes.items(), key=lambda item: (-item[1], item[0])
    ):
        placed = False
        for (m_contig, m_anchor) in list(merged):
            if m_contig == contig and abs(m_anchor - anchor) <= 8:
                merged[(m_contig, m_anchor)] += count
                placed = True
                break
        if not placed:
            merged[(contig, anchor)] = count
    ranked = [
        key
        for key, count in sorted(
            merged.items(), key=lambda item: (-item[1], item[0])
        )
        if count >= aligner.config.min_seed_votes
    ]
    return ranked[: aligner.config.max_candidates * 2]


def ungapped_alignment(
    read: str, window: str, offset: int, max_mismatches: int
) -> Optional[LocalAlignment]:
    """Score ``read`` against ``window[offset:]`` without gaps."""
    read_len = len(read)
    if offset < 0 or offset + read_len > len(window):
        return None
    mismatches = 0
    segment = window[offset : offset + read_len]
    for read_base, ref_base in zip(read, segment):
        if read_base != ref_base:
            mismatches += 1
            if mismatches > max_mismatches:
                return None
    score = (read_len - mismatches) * MATCH + mismatches * MISMATCH
    return LocalAlignment(score, Cigar([(read_len, "M")]), offset, mismatches)
