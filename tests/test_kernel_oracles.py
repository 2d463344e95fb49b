"""Differential tests: the fast kernels against their scalar oracles.

``tests/reference_kernels.py`` holds the bodies the fast paths
replaced.  Everything here asserts *identical* results — score, CIGAR,
offset and mismatch count for Smith-Waterman; contig, position and
every entry field in entry order for the pileup; calls in call order
for the Haplotype Caller — because the pipeline's output bytes must not
move.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.sw import banded_local_alignment
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.sam import SamRecord, encode_quals
from repro.genome.reference import ReferenceGenome
from repro.genome.regions import GenomicInterval
from repro.variants.haplotype import HaplotypeCallerConfig, HaplotypeCallerLite
from repro.variants.pileup import PileupConfig, build_pileup, pileup_activity

from tests import reference_kernels as oracle

BANDS = (0, 1, 12)


# -- Smith-Waterman -----------------------------------------------------------
def sw_result(alignment):
    if alignment is None:
        return None
    return (alignment.score, str(alignment.cigar), alignment.ref_offset,
            alignment.mismatches)


def assert_same_alignment(read, window, band):
    assert sw_result(banded_local_alignment(read, window, band)) == sw_result(
        oracle.banded_local_alignment(read, window, band)
    ), (read, window, band)


def gapped_pair(rng):
    """A read and a window derived from it by SNPs, indels and pads."""
    read = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 110)))
    body = []
    for base in read:
        draw = rng.random()
        if draw < 0.03:
            continue  # deleted from the window: an insertion in the read
        if draw < 0.06:
            body.append(rng.choice("ACGT"))  # extra window base: a deletion
        body.append(rng.choice("ACGT") if draw < 0.10 else base)
    left, right = (
        "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 16)))
        for _ in range(2)
    )
    window = left + "".join(body) + right
    if rng.random() < 0.1:  # a window shorter than the read, maybe empty
        window = window[: rng.randint(0, len(read) - 1)]
    return read, window


class TestBandedLocalAgainstOracle:
    def test_three_thousand_seeded_gapped_pairs(self):
        rng = random.Random(20170514)
        gapped = 0
        for index in range(3000):
            read, window = gapped_pair(rng)
            band = BANDS[index % len(BANDS)]
            assert_same_alignment(read, window, band)
            result = banded_local_alignment(read, window, band)
            if result and any(op in "ID" for _, op in result.cigar):
                gapped += 1
        assert gapped > 300  # the inputs do reach the gap states

    @pytest.mark.parametrize("band", BANDS)
    def test_empty_and_degenerate_inputs(self, band):
        for read, window in [("", ""), ("", "ACGT"), ("ACGT", ""), ("A", "A"),
                             ("A", "C"), ("ACGT" * 20, "ACG"),
                             ("ACGT" * 20, "T" * 150)]:
            assert_same_alignment(read, window, band)

    @settings(max_examples=200, deadline=None)
    @given(
        read=st.text(alphabet="ACGT", min_size=0, max_size=110),
        edits=st.lists(
            st.tuples(st.integers(0, 140), st.sampled_from("sid"),
                      st.sampled_from("ACGT")),
            max_size=8,
        ),
        left=st.text(alphabet="ACGT", max_size=16),
        right=st.text(alphabet="ACGT", max_size=16),
        cut=st.one_of(st.none(), st.integers(0, 110)),
        band=st.sampled_from(BANDS),
    )
    def test_property_identical_to_oracle(self, read, edits, left, right,
                                          cut, band):
        body = list(read)
        for position, kind, base in edits:
            if not body:
                break
            position %= len(body)
            if kind == "s":
                body[position] = base
            elif kind == "i":
                body.insert(position, base)
            else:
                del body[position]
        window = left + "".join(body) + right
        if cut is not None:
            window = window[:cut]
        assert_same_alignment(read, window, band)


# -- pileup -----------------------------------------------------------------
CONTIGS = {"chrA": 400, "chrB": 300}


def random_reference(rng):
    return ReferenceGenome({
        name: "".join(rng.choice("ACGT") for _ in range(length))
        for name, length in CONTIGS.items()
    })


def random_cigar(rng):
    """M/=/X blocks joined by I, D or N, with optional H and S clips."""
    ops = []
    if rng.random() < 0.2:
        ops.append((rng.randint(1, 3), "H"))
    if rng.random() < 0.4:
        ops.append((rng.randint(1, 6), "S"))
    for block in range(rng.randint(1, 4)):
        if block:
            ops.append((rng.randint(1, 4), rng.choice("IIDDN")))
        ops.append((rng.randint(1, 25), rng.choice("MMM=X")))
    if rng.random() < 0.4:
        ops.append((rng.randint(1, 6), "S"))
    return Cigar(ops)


def planted_donor(rng, reference):
    """The reference with a SNP planted every 30-50 positions."""
    contigs = {}
    for name in CONTIGS:
        seq = list(reference.fetch(name, 1, CONTIGS[name] + 1))
        position = rng.randint(5, 30)
        while position < len(seq):
            seq[position] = rng.choice("ACGT".replace(seq[position], ""))
            position += rng.randint(30, 50)
        contigs[name] = "".join(seq)
    return ReferenceGenome(contigs)


def simulated_bam(rng, reference, count=160):
    """Records with indels, clips, duplicates, low MAPQ and low quality.

    Aligned bases come from a donor with planted SNPs plus 2 % noise.
    """
    donor = planted_donor(rng, reference)
    records = []
    for index in range(count):
        cigar = random_cigar(rng)
        rname = rng.choice(list(CONTIGS))
        span = cigar.reference_length()
        pos = rng.randint(1, CONTIGS[rname] - span - 6)
        seq, cursor = [], pos
        for length, op in cigar:
            if op in "M=X":
                seq.extend(donor.fetch(rname, cursor, cursor + length))
            elif op in "IS":
                seq.extend(rng.choice("ACGT") for _ in range(length))
            if op in "M=XDN":
                cursor += length
        for offset in range(len(seq)):
            if rng.random() < 0.02:
                seq[offset] = rng.choice("ACGT")
        bits = rng.choice([0, F.REVERSE, F.DUPLICATE, F.SECONDARY, F.UNMAPPED,
                           0, F.REVERSE, 0])
        quals = [rng.choice([2, 5, 6, 20, 35, 40]) for _ in seq]
        qual = "*" if rng.random() < 0.05 else encode_quals(quals)
        records.append(SamRecord(
            f"r{index}", F.SamFlags(bits), rname, pos,
            rng.choice([0, 12, 13, 30, 60]), cigar,
            seq="".join(seq), qual=qual,
        ))
    return records


def columns_signature(columns):
    return [
        (column.contig, column.pos, [
            (id(entry.record), entry.read_offset, entry.base, entry.quality,
             entry.mapq, entry.reverse, entry.indel)
            for entry in column.entries
        ])
        for column in columns
    ]


PILEUP_CASES = [
    (None, None),
    (GenomicInterval("chrA", 50, 200), None),
    (GenomicInterval("chrB", 1, 40), PileupConfig(min_mapq=0)),
    (None, PileupConfig(include_duplicates=True, min_base_quality=0)),
    (GenomicInterval("chrB", 120, 301), PileupConfig(min_base_quality=21)),
]


class TestPileupAgainstOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("interval,config", PILEUP_CASES)
    def test_columns_and_entries_identical(self, seed, interval, config):
        rng = random.Random(seed)
        reference = random_reference(rng)
        records = simulated_bam(rng, reference)
        expected = list(oracle.build_pileup(records, reference, interval,
                                            config))
        assert expected
        if interval is None:
            assert any(entry.indel for column in expected
                       for entry in column.entries)
        assert columns_signature(
            build_pileup(records, reference, interval, config)
        ) == columns_signature(expected)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("interval,config", PILEUP_CASES)
    def test_activity_counters_match_the_columns(self, seed, interval, config):
        rng = random.Random(seed)
        reference = random_reference(rng)
        records = simulated_bam(rng, reference)
        expected = [
            (column.contig, column.pos, column.depth, sum(
                1 for entry in column.entries
                if entry.indel is not None
                or entry.base != reference.base_at(column.contig, column.pos)
            ))
            for column in oracle.build_pileup(records, reference, interval,
                                              config)
        ]
        assert list(
            pileup_activity(records, reference, interval, config)
        ) == expected

    def test_wanted_positions_select_whole_columns(self):
        rng = random.Random(11)
        reference = random_reference(rng)
        records = simulated_bam(rng, reference)
        wanted = {"chrA": set(range(90, 140)) | {7, 399}, "chrC": {5}}
        expected = [
            column for column in oracle.build_pileup(records, reference)
            if column.pos in wanted.get(column.contig, ())
        ]
        assert expected
        assert columns_signature(
            build_pileup(records, reference, wanted=wanted)
        ) == columns_signature(expected)

    def test_aligned_reads_of_the_shared_dataset(self, aligned, reference):
        interval = GenomicInterval("chr1", 2000, 5000)
        assert columns_signature(
            build_pileup(aligned, reference, interval)
        ) == columns_signature(
            oracle.build_pileup(aligned, reference, interval)
        )


# -- Haplotype Caller: lazy pileup vs every column materialised ---------------
def call_lines(calls):
    return [call.to_line() for call in calls]


class TestLazyHaplotypeCaller:
    def test_calls_and_order_on_the_shared_dataset(self, aligned, reference):
        caller = HaplotypeCallerLite(reference)
        lazy = caller.call(aligned)
        assert lazy
        assert call_lines(lazy) == call_lines(
            oracle.call_over_full_pileup(caller, aligned)
        )

    def test_interval_and_emit_interval(self, aligned, reference):
        caller = HaplotypeCallerLite(reference)
        interval = GenomicInterval("chr2", 1500, 5200)
        emit = GenomicInterval("chr2", 2000, 4700)
        full = oracle.call_over_full_pileup(caller, aligned, interval, emit)
        assert full
        assert len(full) < len(
            oracle.call_over_full_pileup(caller, aligned, interval)
        )
        assert call_lines(caller.call(aligned, interval, emit)) == call_lines(
            full
        )

    def test_downsampling_path(self, aligned, reference):
        config = HaplotypeCallerConfig(downsample_depth=4, seed=5)
        caller = HaplotypeCallerLite(reference, config)
        assert len(caller._downsample(list(aligned), None)) < len(aligned)
        assert call_lines(caller.call(aligned)) == call_lines(
            oracle.call_over_full_pileup(caller, aligned)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bams_with_short_overlapping_windows(self, seed):
        rng = random.Random(100 + seed)
        reference = random_reference(rng)
        records = simulated_bam(rng, reference, count=700)
        config = HaplotypeCallerConfig(min_window=30, max_window=40)
        caller = HaplotypeCallerLite(reference, config)
        expected = oracle.call_over_full_pileup(caller, records)
        assert len(expected) > 5
        assert call_lines(caller.call(records)) == call_lines(expected)
