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

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PartitioningError, PipelineError
from repro.cleaning.duplicates import fragment_key, pair_key
from repro.formats.flags import DUPLICATE, SamFlags
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
        mapped1 = not end1.flags.is_unmapped
        mapped2 = not end2.flags.is_unmapped
        if mapped1 and mapped2:
            emissions: List[Tuple[Tuple, Tuple]] = [
                (("P", pair_key(end1, end2)), (PAIR_VALUE, end1, end2))
            ]
            for end in (end1, end2):
                fkey = fragment_key(end)
                if self.mode == "opt" and (fkey[0], fkey[1]) not in self.bloom:
                    continue
                if fkey in self._shadow_sent:
                    continue
                self._shadow_sent.add(fkey)
                emissions.append((("F", fkey), (SHADOW_VALUE, end)))
            return emissions
        if mapped1 or mapped2:
            mapped = end1 if mapped1 else end2
            unmapped = end2 if mapped1 else end1
            return [
                (("F", fragment_key(mapped)), (PARTIAL_VALUE, mapped, unmapped))
            ]
        return [(("U", end1.qname), (PASSTHROUGH_VALUE, end1, end2))]


def records_by_pair(
    records: Iterable[SamRecord],
) -> List[Tuple[SamRecord, SamRecord]]:
    """Pair up a read-name-grouped record stream (a round-2 partition)."""
    open_reads: Dict[str, SamRecord] = {}
    pairs: List[Tuple[SamRecord, SamRecord]] = []
    for record in records:
        mate = open_reads.pop(record.qname, None)
        if mate is None:
            open_reads[record.qname] = record
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
    pairs: Iterable[Tuple[SamRecord, SamRecord]],
    num_bits: int = 1 << 16,
) -> BloomFilter:
    """The MarkDup_opt pre-pass: record 5' positions of partial matches."""
    bloom = BloomFilter(num_bits=num_bits)
    for end1, end2 in pairs:
        mapped1 = not end1.flags.is_unmapped
        mapped2 = not end2.flags.is_unmapped
        if mapped1 == mapped2:
            continue
        mapped = end1 if mapped1 else end2
        bloom.add((mapped.rname, mapped.unclipped_five_prime))
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
