"""Property-based tests (hypothesis) for core invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import flags as F
from repro.formats.bam import bam_bytes, read_bam
from repro.formats.cigar import Cigar, unclipped_five_prime
from repro.formats.sam import SamHeader, SamRecord, decode_quals, encode_quals
from repro.gdpt.bloom import BloomFilter
from repro.gdpt.partitioner import (
    GroupPartitioner,
    split_pairs_contiguously,
    verify_group_partitioning,
)
from repro.genome.reference import reverse_complement
from repro.genome.regions import tile_contig
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobSpec, make_splits

# -- strategies -------------------------------------------------------------

cigar_ops = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=50),
        st.sampled_from("MIDS"),
    ),
    min_size=1,
    max_size=6,
)


def normalise_ops(ops):
    """Make ops a plausible CIGAR: clips only at the ends, has an M."""
    middle = [(length, op) for length, op in ops if op != "S"]
    if not any(op == "M" for _, op in middle):
        middle.append((10, "M"))
    lead = [(3, "S")] if len(ops) % 2 else []
    trail = [(2, "S")] if len(ops) % 3 else []
    return lead + middle + trail


@st.composite
def cigars(draw):
    return Cigar(normalise_ops(draw(cigar_ops)))


@st.composite
def sam_records(draw, index):
    pos = draw(st.integers(min_value=1, max_value=5000))
    cigar = draw(cigars())
    read_len = cigar.query_length()
    seq = "".join(draw(st.sampled_from("ACGT")) for _ in range(read_len))
    quals = [draw(st.integers(min_value=2, max_value=41)) for _ in range(read_len)]
    flag_bits = draw(st.sampled_from([0, F.REVERSE, F.PAIRED | F.FIRST_IN_PAIR]))
    return SamRecord(
        f"read{index:05d}", F.SamFlags(flag_bits), "chr1", pos, 60, cigar,
        seq=seq, qual=encode_quals(quals),
    )


# -- CIGAR properties ----------------------------------------------------------

@given(cigar_ops)
def test_cigar_text_roundtrip(ops):
    cigar = Cigar(normalise_ops(ops))
    assert Cigar.parse(str(cigar)) == cigar


@given(cigar_ops)
def test_cigar_lengths_consistent(ops):
    cigar = Cigar(normalise_ops(ops))
    total = sum(length for length, op in cigar if op in "MIS")
    assert cigar.query_length() == total
    assert cigar.reference_length() >= 0


@given(cigar_ops, st.integers(min_value=100, max_value=10000))
def test_unclipped_five_prime_clipping_invariance(ops, pos):
    """Clipping k leading bases and shifting POS by k leaves the
    forward-strand 5' unclipped end unchanged — the exact invariant
    MarkDuplicates relies on."""
    cigar = Cigar(normalise_ops(ops))
    clip = cigar.leading_clip()
    stripped = Cigar([(l, o) for l, o in cigar if o != "S"] or [(1, "M")])
    assert unclipped_five_prime(pos, cigar, False) == unclipped_five_prime(
        pos - clip, stripped, False
    )


# -- sequence properties -----------------------------------------------------

@given(st.text(alphabet="ACGTN", min_size=0, max_size=200))
def test_reverse_complement_involution(seq):
    assert reverse_complement(reverse_complement(seq)) == seq


@given(st.lists(st.integers(min_value=0, max_value=93), max_size=150))
def test_quality_encoding_roundtrip(quals):
    if quals == [9]:
        # A single Q9 base encodes as "*", which the SAM spec reserves
        # for "qualities absent" — a genuine ambiguity in the format.
        return
    assert decode_quals(encode_quals(quals)) == quals


# -- BAM round-trip over HDFS for arbitrary geometry ---------------------------

@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=200, max_value=3000),
    st.integers(min_value=150, max_value=2000),
    st.integers(min_value=0, max_value=2 ** 31),
)
@settings(max_examples=25, deadline=None)
def test_bam_hdfs_roundtrip_any_geometry(n_records, chunk_bytes, block_size,
                                         seed):
    rng = random.Random(seed)
    header = SamHeader(sequences=[("chr1", 100000)])
    records = [
        SamRecord(
            f"r{i:05d}", F.SamFlags(0), "chr1", rng.randrange(1, 9000), 60,
            Cigar.parse("30M"), seq="ACGTACGTAC" * 3,
            qual=encode_quals([30] * 30),
        )
        for i in range(n_records)
    ]
    data = bam_bytes(header, records, chunk_bytes)
    assert read_bam(data)[1] == records
    hdfs = Hdfs(["n0", "n1"], replication=1, block_size=block_size)
    hdfs.put("/f.bam", data)
    assert hdfs.get("/f.bam") == data
    _, got = read_bam(hdfs.get("/f.bam"))
    assert got == records


# -- partitioner properties --------------------------------------------------

@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=20),
)
def test_group_partitioner_never_splits_groups(group_ids, n_partitions):
    items = [(gid, i) for i, gid in enumerate(group_ids)]
    partitioner = GroupPartitioner(lambda item: item[0], n_partitions)
    partitions = partitioner.split(items)
    verify_group_partitioning(partitions, lambda item: item[0])
    assert sum(len(p) for p in partitions) == len(items)


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=40),
)
def test_contiguous_split_is_a_partition(n_items, n_parts):
    items = list(range(n_items))
    parts = split_pairs_contiguously(items, n_parts)
    assert [x for p in parts for x in p] == items
    if n_items >= n_parts:
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


@given(
    st.integers(min_value=10, max_value=5000),
    st.integers(min_value=5, max_value=500),
    st.integers(min_value=0, max_value=120),
)
def test_tiling_covers_every_position(length, segment, overlap):
    if overlap >= segment:
        overlap = segment - 1
    tiles = tile_contig("c", length, segment, overlap)
    # Every position in [1, length] lies in some tile: sweep the tiles by
    # start and require each to begin at or before the covered frontier
    # (linear, so a 5 kb contig in 5 bp tiles stays within the deadline).
    frontier = 1
    for t in sorted(tiles, key=lambda t: t.start):
        assert t.start <= frontier, f"position {frontier} is in no tile"
        frontier = max(frontier, t.end)
    assert frontier >= length + 1, f"position {frontier} is in no tile"
    # Core starts are non-decreasing and tiles never exceed the contig+1.
    assert all(t.end <= length + 1 for t in tiles)


# -- bloom filter: no false negatives ------------------------------------------

@given(st.lists(st.integers(), max_size=300))
def test_bloom_no_false_negatives(items):
    bloom = BloomFilter(num_bits=1 << 13)
    bloom.update(items)
    assert all(item in bloom for item in items)


# -- MapReduce output independent of parallelism --------------------------------

@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=30), max_size=20),
        min_size=1, max_size=10,
    ),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=40, deadline=None)
def test_mapreduce_equals_sequential_groupby(split_payloads, n_reducers):
    def mapper(payload, ctx):
        for value in payload:
            ctx.emit(value % 5, value)

    def reducer(key, values, ctx):
        ctx.emit(key, sorted(values))

    engine = MapReduceEngine(nodes=["n1", "n2"])
    job = JobSpec("group", mapper, reducer, num_reducers=n_reducers)
    outputs = dict(engine.run(job, make_splits(split_payloads)).all_outputs())

    expected = {}
    for payload in split_payloads:
        for value in payload:
            expected.setdefault(value % 5, []).append(value)
    expected = {k: sorted(v) for k, v in expected.items()}
    assert outputs == expected
