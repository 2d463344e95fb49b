"""Genome Data Parallel Toolkit: logical partitioning schemes.

The three scheme families of paper section 3.2:

1. **Group partitioning** — data grouped by a logical condition (read
   name for Bwa/FixMateInfo, covariate for BaseRecalibrator).
2. **Compound group partitioning** — two correlated grouping conditions
   satisfied simultaneously (MarkDuplicates: by the pair's two 5'
   unclipped ends *and* by each read's own 5' unclipped end).
3. **Range partitioning** — reads as intervals over the reference,
   non-overlapping (Unified Genotyper by chromosome) or overlapping
   (Haplotype Caller's greedy sequential segmentation).
"""

from __future__ import annotations

import struct
import zlib
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PartitioningError, PipelineError
from repro.cleaning.duplicates import fragment_key
from repro.formats.cigar import unclipped_five_prime
from repro.formats.flags import DUPLICATE, REVERSE, UNMAPPED, SamFlags
from repro.formats.sam import SamHeader, SamRecord
from repro.formats.sam import _DEFAULT_SCORE_TABLE, _qual_bytes
from repro.gdpt.bloom import BloomFilter
from repro.genome.regions import GenomicInterval, tile_contig
from repro.shuffle.keys import stable_hash_partition


# ---------------------------------------------------------------------------
# 1. Group partitioning
# ---------------------------------------------------------------------------

def read_name_key(record: SamRecord) -> str:
    """The grouping key for Bwa / FixMateInfo / MarkDuplicates input."""
    return record.qname


class GroupPartitioner:
    """Partition items so that no logical group is split.

    ``key_fn`` maps an item to its group key; all items sharing a key
    land in the same partition (stable hash of the key's canonical byte
    encoding).  Keys must be canonical
    (:data:`repro.shuffle.keys.CANONICAL_KEY_TYPES`): hashing ``repr``
    would silently scatter a group across partitions whenever a key's
    repr embeds process-dependent state (the default ``object.__repr__``
    embeds ``id()``), so non-canonical keys raise
    :class:`PartitioningError` at the first item instead.
    """

    def __init__(self, key_fn: Callable[[Any], Any], num_partitions: int):
        if num_partitions < 1:
            raise PartitioningError("num_partitions must be >= 1")
        self.key_fn = key_fn
        self.num_partitions = num_partitions

    def partition_of(self, item: Any) -> int:
        return stable_hash_partition(self.key_fn(item), self.num_partitions)

    def split(self, items: Iterable[Any]) -> List[List[Any]]:
        partitions: List[List[Any]] = [[] for _ in range(self.num_partitions)]
        for item in items:
            partitions[self.partition_of(item)].append(item)
        return partitions


def split_pairs_contiguously(
    pairs: Sequence[Any], num_partitions: int
) -> List[List[Any]]:
    """Contiguous group-preserving split of an already-grouped stream.

    This is how the interleaved FASTQ file is cut into logical
    partitions for Bwa: pairs stay whole, order is preserved, partition
    sizes are balanced.
    """
    if num_partitions < 1:
        raise PartitioningError("num_partitions must be >= 1")
    total = len(pairs)
    partitions: List[List[Any]] = []
    start = 0
    for index in range(num_partitions):
        end = start + (total - start) // (num_partitions - index)
        partitions.append(list(pairs[start:end]))
        start = end
    return partitions


def verify_group_partitioning(
    partitions: Sequence[Sequence[Any]], key_fn: Callable[[Any], Any]
) -> None:
    """Raise :class:`PartitioningError` if any group spans partitions."""
    seen: Dict[Any, int] = {}
    for index, partition in enumerate(partitions):
        for item in partition:
            key = key_fn(item)
            owner = seen.setdefault(key, index)
            if owner != index:
                raise PartitioningError(
                    f"group {key!r} split across partitions {owner} and {index}"
                )


# ---------------------------------------------------------------------------
# 2. Compound group partitioning (MarkDuplicates)
# ---------------------------------------------------------------------------

#: Tag constants for shuffled MarkDuplicates values.
PAIR_VALUE = "pair"
PARTIAL_VALUE = "partial"
SHADOW_VALUE = "shadow"
PASSTHROUGH_VALUE = "passthrough"

#: The two MarkDuplicates keying variants of Table 5.
MARKDUP_MODES = ("reg", "opt")


class MarkDupKeying:
    """Map-side keying for parallel MarkDuplicates.

    ``mode='reg'`` always emits a shadow read of each complete pair
    under both fragment keys (shuffling ~1.9x the input);
    ``mode='opt'`` consults a bloom filter of partial-matching 5'
    positions and emits shadows only where they might matter (~1.03x).
    """

    def __init__(self, mode: str = "opt", bloom: Optional[BloomFilter] = None):
        if mode not in MARKDUP_MODES:
            raise PartitioningError(f"unknown MarkDuplicates mode {mode!r}")
        if mode == "opt" and bloom is None:
            raise PartitioningError("opt mode requires a bloom filter")
        self.mode = mode
        self.bloom = bloom
        #: Map-side filter state: one shadow per 5' position per mapper.
        self._shadow_sent: set = set()

    def reset(self) -> None:
        """Clear per-mapper state (call at map-task start)."""
        self._shadow_sent = set()

    def keys_for_pair(
        self, end1: SamRecord, end2: SamRecord
    ) -> List[Tuple[Tuple, Tuple]]:
        """Emit (key, value) pairs for one read pair.

        The mapper must see both reads together — i.e. its input must be
        grouped by read name, which is why Round 3 consumes Round 2's
        logically partitioned output.
        """
        return self._keys(end1, end2, _record_fragment(end1),
                          _record_fragment(end2), end1.qname)

    def keys_for_lines(self, end1: Tuple[list, str],
                       end2: Tuple[list, str]) -> List[Tuple[Tuple, Tuple]]:
        """:meth:`keys_for_pair` of ``(split_line(line), line)`` ends;
        values carry the lines."""
        (fields1, line1), (fields2, line2) = end1, end2
        return self._keys(line1, line2, fields_fragment(fields1),
                          fields_fragment(fields2), fields1[0])

    def _keys(self, end1, end2, key1, key2, qname):
        """A pair's emissions from its ends' fragment keys (None: unmapped)."""
        if key1 is not None and key2 is not None:
            low, high = sorted([key1, key2])  # pair_key's order
            emissions: List[Tuple[Tuple, Tuple]] = [
                (("P", (low, high)), (PAIR_VALUE, end1, end2))
            ]
            for end, fkey in ((end1, key1), (end2, key2)):
                if self.mode == "opt" and (fkey[0], fkey[1]) not in self.bloom:
                    continue
                if fkey in self._shadow_sent:
                    continue
                self._shadow_sent.add(fkey)
                emissions.append((("F", fkey), (SHADOW_VALUE, end)))
            return emissions
        if key1 is not None:
            return [(("F", key1), (PARTIAL_VALUE, end1, end2))]
        if key2 is not None:
            return [(("F", key2), (PARTIAL_VALUE, end2, end1))]
        return [(("U", qname), (PASSTHROUGH_VALUE, end1, end2))]


def _record_fragment(record: SamRecord) -> Optional[Tuple[str, int, bool]]:
    return None if record.flags.is_unmapped else fragment_key(record)


def fields_fragment(fields: list) -> Optional[Tuple[str, int, bool]]:
    """``_record_fragment`` of a :func:`split_line` read."""
    reverse = bool(fields[1] & REVERSE)
    return None if fields[1] & UNMAPPED else (
        fields[2], unclipped_five_prime(fields[3], fields[5], reverse), reverse)


#: ``canonical_key_bytes`` pieces of :class:`MarkDupKeying`'s keys.
_U32 = struct.Struct(">I").pack
_TUPLE2, _TUPLE3 = b"t:" + _U32(2), b"t:" + _U32(3)
_STRAND_BYTES = {False: _U32(3) + b"b:0", True: _U32(3) + b"b:1"}
_KIND_HEADS = {kind: _TUPLE2 + _U32(3) + b"s:" + kind.encode() for kind in "PF"}
_FRAGMENT_TYPES = [str, int, bool]


def _fragment_bytes(fragment: Any) -> Optional[bytes]:
    """``canonical_key_bytes`` of a ``(str, int, bool)`` tuple, or None."""
    if type(fragment) is tuple and [*map(type, fragment)] == _FRAGMENT_TYPES:
        name, position = fragment[0].encode(), b"i:%d" % fragment[1]
        return b"".join((_TUPLE3, _U32(len(name) + 2), b"s:", name, _U32(
            len(position)), position, _STRAND_BYTES[fragment[2]]))
    return None


def markdup_partition(key: Any, num_partitions: int) -> int:
    """:func:`stable_hash_partition` of a MarkDuplicates key: the same
    ``crc32`` of the same canonical bytes, built flat for the
    ``("P", (fragment, fragment))`` and ``("F", fragment)`` shapes."""
    body = None
    if type(key) is tuple and len(key) == 2 and key[0] in ("P", "F"):
        kind, value = key
        if kind == "F":
            body = _fragment_bytes(value)
        elif type(value) is tuple and len(value) == 2:
            first, second = map(_fragment_bytes, value)
            if first is not None and second is not None:
                body = b"".join((_TUPLE2, _U32(len(first)), first,
                                 _U32(len(second)), second))
    if body is None:
        return stable_hash_partition(key, num_partitions)
    return zlib.crc32(b"".join((_KIND_HEADS[kind], _U32(len(body)), body))
                      ) % num_partitions


def records_by_pair(
    records: Iterable[Any], name: Callable[[Any], str] = attrgetter("qname"),
) -> List[Tuple[Any, Any]]:
    """Pair up a read-name-grouped stream (a round-2 partition) of
    records, or of anything ``name`` reads a read name from."""
    open_reads: Dict[str, Any] = {}
    pairs: List[Tuple[Any, Any]] = []
    for record in records:
        qname = name(record)
        mate = open_reads.pop(qname, None)
        if mate is None:
            open_reads[qname] = record
        else:
            pairs.append((mate, record))
    if open_reads:
        raise PipelineError(
            f"{len(open_reads)} reads missing mates in a read-name partition"
        )
    return pairs


def _line_score(line: str) -> int:
    """The line's record's ``sum_of_base_qualities()``, from QUAL alone."""
    return sum(_qual_bytes(line.split("\t", 11)[10]).translate(_DEFAULT_SCORE_TABLE))


def _with_duplicate(line: str, on: bool) -> str:
    """The line with FLAG (field 1) rewritten as ``SamFlags.with_bit(
    DUPLICATE, on)`` would."""
    qname, flag, rest = line.split("\t", 2)
    flag = int(flag)
    flag = SamFlags(flag | DUPLICATE if on else flag & ~DUPLICATE).value
    return f"{qname}\t{flag}\t{rest}"


def mark_duplicate_lines(key: Tuple, values: List[Tuple]) -> List[str]:
    """Reduce side of :class:`MarkDupKeying` over the SAM lines round 3
    ships: one decision per group, from QUAL sums, written into FLAG; no
    record is built.  Each line is its record's ``to_line()`` wherever
    ``from_line(line).to_line() == line``, as on every round-2 line."""
    if key[0] == "U":  # both-unmapped pairs pass through
        return [line for tag, *lines in values
                if tag == PASSTHROUGH_VALUE for line in lines]
    if key[0] == "P":
        pairs = [value[1:] for value in values if value[0] == PAIR_VALUE]
        best = max(range(len(pairs)), default=None, key=lambda i: (
            _line_score(pairs[i][0]) + _line_score(pairs[i][1])))
        return [_with_duplicate(line, index != best)
                for index, pair in enumerate(pairs) for line in pair]
    partials = [value[1:] for value in values if value[0] == PARTIAL_VALUE]
    survivor = None  # a complete pair's shadow occupies this position
    if not any(value[0] == SHADOW_VALUE for value in values):
        survivor = max(range(len(partials)), default=None,
                       key=lambda i: _line_score(partials[i][0]))
    return [line for index, (mapped, unmapped) in enumerate(partials)
            for line in (_with_duplicate(mapped, index != survivor), unmapped)]


def build_partial_position_bloom(
    pairs: Iterable[Tuple[Any, Any]],
    num_bits: int = 1 << 16,
    *, fragment: Callable[[Any], Optional[Tuple]] = _record_fragment,
) -> BloomFilter:
    """The MarkDup_opt pre-pass: record 5' positions of partial matches
    (pairs of records, or of whatever ``fragment`` keys, such as
    :func:`fields_fragment`)."""
    bloom = BloomFilter(num_bits=num_bits)
    for end1, end2 in pairs:
        key1, key2 = fragment(end1), fragment(end2)
        if (key1 is None) != (key2 is None):
            rname, five_prime, _ = key1 or key2
            bloom.add((rname, five_prime))
    return bloom


# ---------------------------------------------------------------------------
# 3. Range partitioning
# ---------------------------------------------------------------------------

class RangePartitioner:
    """Non-overlapping contig-level range partitioning.

    The scheme NYGC bioinformaticians accept for Unified Genotyper /
    Haplotype Caller: one partition per chromosome, hence at most 23
    parallel tasks on a human genome — the degree-of-parallelism cliff
    of section 4.4.
    """

    def __init__(self, header: SamHeader):
        self.contigs = header.sequence_names()
        #: RNAME -> its contig's header index; None outside the header.
        self.contig_index = {n: i for i, n in enumerate(self.contigs)}.get

    @property
    def num_partitions(self) -> int:
        return len(self.contigs)

    def partition_of(self, record: SamRecord) -> Optional[int]:
        """Partition index, or None for unplaced (unmapped) records."""
        return self.contig_index(record.rname)

    def split(self, records: Iterable[SamRecord]) -> List[List[SamRecord]]:
        partitions: List[List[SamRecord]] = [[] for _ in self.contigs]
        for record in records:
            index = self.partition_of(record)
            if index is not None:
                partitions[index].append(record)
        return partitions


class OverlappingRangePartitioner:
    """Fine-grained segments with a safety overlap (Haplotype Caller).

    Each partition is a core segment expanded by ``overlap`` on both
    sides; reads overlapping two expanded segments are *replicated*
    into both (paper: "The reads that overlap with two partitions are
    replicated").  Downstream callers analyse the padded interval but
    emit only calls inside the core, so a window near a boundary is
    computed from complete evidence as long as ``overlap`` >=
    :func:`repro.variants.haplotype.required_overlap`.
    """

    def __init__(self, header: SamHeader, segment_length: int, overlap: int):
        if segment_length <= 0:
            raise PartitioningError("segment_length must be positive")
        if overlap < 0:
            raise PartitioningError("overlap must be non-negative")
        self.segment_length = segment_length
        self.overlap = overlap
        self.cores: List[GenomicInterval] = []
        for name, length in header.sequences:
            self.cores.extend(tile_contig(name, length, segment_length, overlap=0))
        self.padded: List[GenomicInterval] = [
            core.expanded(overlap) for core in self.cores
        ]

    @property
    def num_partitions(self) -> int:
        return len(self.cores)

    def partitions_of(self, record: SamRecord) -> List[int]:
        """Indices of every padded segment the record overlaps."""
        if record.flags.is_unmapped:
            return []
        span = GenomicInterval(record.rname, record.pos, record.reference_end + 1)
        return [
            index
            for index, padded in enumerate(self.padded)
            if padded.overlaps(span)
        ]

    def split(self, records: Iterable[SamRecord]) -> List[List[SamRecord]]:
        partitions: List[List[SamRecord]] = [[] for _ in self.cores]
        for record in records:
            for index in self.partitions_of(record):
                partitions[index].append(record)
        return partitions

    def replication_factor(self, records: Sequence[SamRecord]) -> float:
        """Shuffle blow-up: replicated copies / input records."""
        mapped = [r for r in records if not r.flags.is_unmapped]
        if not mapped:
            return 0.0
        copies = sum(len(self.partitions_of(r)) for r in mapped)
        return copies / len(mapped)
