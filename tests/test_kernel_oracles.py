"""Differential tests: the fast kernels against their scalar oracles.

``tests/reference_kernels.py`` holds the bodies the fast paths
replaced.  Everything checked against them asserts *identical* results
— contig, position and every entry field in entry order for the
pileup; calls in call order for the Haplotype Caller — because the
pipeline's output bytes must not move.  Smith-Waterman is checked
against an oracle that is not its past: ``full_matrix_best`` below.
"""

import copy
import itertools
import pickle
import random
import re
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    PipelineSpec,
    ReadSimulationConfig,
    ReferenceSimulationConfig,
    run_pipeline,
    simulate_donor,
    simulate_reads,
    simulate_reference,
)
from repro.align.sw import banded_local_alignment
from repro.cleaning import AddOrReplaceReadGroups, CleanSam, pair_score
from repro.cleaning.clean_sam import clean_lines
from repro.cleaning.fix_mate import FixMateInformation, fix_mate_fields
from repro.cleaning.duplicates import mark_duplicates_in_place
from repro.errors import CigarError, FormatError
from repro.formats import cigar as cigar_module
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.bam import bam_bytes, decode_bam, encode_bam, read_bam
from repro.formats.sam import (
    SamHeader, SamRecord, decode_quals, encode_quals, join_fields, split_line,
)
from repro.gdpt.bloom import BloomFilter
from repro.gdpt.partitioner import (
    MarkDupKeying, build_partial_position_bloom, fields_fragment,
    mark_duplicate_lines, markdup_partition, records_by_pair,
)
from repro.genome.reference import ReferenceGenome
from repro.genome.regions import GenomicInterval
from repro.hdfs.bam_storage import upload_bam
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce import counters as C
from repro.mapreduce.engine import MapReduceEngine
from repro.shuffle.keys import canonical_key_bytes, stable_hash_partition
from repro.variants.haplotype import HaplotypeCallerConfig, HaplotypeCallerLite
from repro.variants.pileup import PileupConfig, build_pileup, pileup_activity
from repro.wrappers.rounds import GesallRounds
from repro.wrappers.programs import (
    DataTransformAccounting,
    run_wrapped,
    run_wrapped_chain,
)

from tests import pins
from tests import reference_kernels as oracle

BANDS = (0, 1, 12)


# -- Smith-Waterman -----------------------------------------------------------
def sw_result(alignment):
    if alignment is None:
        return None
    return (alignment.score, str(alignment.cigar), alignment.ref_offset,
            alignment.mismatches)


def full_matrix_best(read, window, band, diagonal):
    """``(score, i, j)`` of the best banded affine local alignment.

    An independent oracle (nothing of ``repro``, scores spelled out):
    plain H / E / F tables over every cell, H = 0 and E = F = -inf
    outside the band, best = first strictly greater in row-major order.
    """
    n, m = len(read), len(window)
    d_lo, d_hi = (0, max(0, m - n)) if diagonal is None else (diagonal, diagonal)
    minus_inf = float("-inf")
    H = [[0] * (m + 1) for _ in range(n + 1)]
    E = [[minus_inf] * (m + 1) for _ in range(n + 1)]
    F = [[minus_inf] * (m + 1) for _ in range(n + 1)]
    best = (0, 0, 0)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if not d_lo - band <= j - i <= d_hi + band:
                continue
            E[i][j] = max(E[i - 1][j] - 1, H[i - 1][j] - 6)
            F[i][j] = max(F[i][j - 1] - 1, H[i][j - 1] - 6)
            diag = H[i - 1][j - 1] + (1 if read[i - 1] == window[j - 1] else -4)
            H[i][j] = max(0, diag, E[i][j], F[i][j])
            if H[i][j] > best[0]:
                best = (H[i][j], i, j)
    return best


def walk_cigar(read, window, alignment):
    """``(affine re-score, mismatches, read bases, window bases)`` of
    the CIGAR: +1 / -4 per aligned pair, -6 for a gap's first base and
    -1 for each further one."""
    score = mismatches = 0
    query, ref = 0, alignment.ref_offset
    for length, op in alignment.cigar:
        if op == "M":
            differing = sum(
                read[query + k] != window[ref + k] for k in range(length)
            )
            score += length - 5 * differing
            mismatches += differing
        elif op in "ID":
            score -= 5 + length
        else:
            assert op == "S", op
        query += length if op in "MIS" else 0
        ref += length if op in "MD" else 0
    return score, mismatches, query, ref - alignment.ref_offset


def assert_alignment_is_optimal(read, window, band, diagonal):
    """Everything the kernel promises, against the full-matrix oracle."""
    case = (read, window, band, diagonal)
    result = banded_local_alignment(read, window, band, diagonal)
    if diagonal is None:  # the three-argument form is the same call
        assert sw_result(banded_local_alignment(read, window, band)) == \
            sw_result(result), case
    best_score, best_i, best_j = full_matrix_best(read, window, band, diagonal)
    if result is None:
        assert best_score <= 0, case
        return None
    assert result.score == best_score > 0, case
    score, mismatches, query, span = walk_cigar(read, window, result)
    assert score == result.score, case
    assert mismatches == result.mismatches, case
    assert query == len(read), case
    assert result.ref_offset + span <= len(window), case
    aligned = [(length, op) for length, op in result.cigar if op != "S"]
    assert aligned[0][1] == aligned[-1][1] == "M", case
    end_clip = sum(length for length, op in list(result.cigar)[1:] if op == "S")
    assert (len(read) - end_clip, result.ref_offset + span) == (best_i, best_j), case
    return result


def gapped_pair(rng):
    """A read carrying 1-3 indels of 1-6 bases and 0-4 substitutions,
    and the window it came from: 16 bases of padding either side,
    sometimes clipped (a contig end) or overhung by the read."""
    segment = [rng.choice("ACGT") for _ in range(rng.randint(30, 110))]
    read = list(segment)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(5, max(6, len(read) - 6))
        size = rng.randint(1, 6)
        if rng.random() < 0.5:
            del read[at : at + size]
        else:
            read[at:at] = [rng.choice("ACGT") for _ in range(size)]
    for _ in range(rng.randint(0, 4)):
        at = rng.randrange(len(read))
        read[at] = rng.choice("ACGT".replace(read[at], ""))
    left, right = (
        "".join(rng.choice("ACGT") for _ in range(16)) for _ in range(2)
    )
    window = left + "".join(segment) + right
    draw = rng.random()
    if draw < 0.15:  # clipped on the left: the seed diagonal is below 16
        window = window[rng.randint(1, 16) :]
    elif draw < 0.30:
        window = window[: -rng.randint(1, 16)]
    elif draw < 0.35:  # the read overhangs the window
        window = window[rng.randint(17, 40) :]
    elif draw < 0.40:
        window = window[: -rng.randint(17, 40)]
    return "".join(read), window


#: ``None`` is the three-argument form; 16 is the shipped window's
#: seed diagonal; -40 and 500 leave the window part-way and entirely.
DIAGONALS = (None, 0, 16, 32, -40, 500)
SHAPES = [(band, diagonal) for band in BANDS for diagonal in DIAGONALS]


class TestBandedLocalAgainstOracle:
    def test_three_thousand_seeded_gapped_pairs(self):
        rng = random.Random(20170514)
        gapped = 0
        for index in range(3000):
            read, window = gapped_pair(rng)
            band, diagonal = SHAPES[index % len(SHAPES)]
            result = assert_alignment_is_optimal(read, window, band, diagonal)
            if result and any(op in "ID" for _, op in result.cigar):
                gapped += 1
        assert gapped > 300  # the inputs do reach the gap states

    @pytest.mark.parametrize("band", BANDS)
    def test_empty_and_degenerate_inputs(self, band):
        for read, window in [("", ""), ("", "ACGT"), ("ACGT", ""), ("A", "A"),
                             ("A", "C"), ("ACGT" * 20, "ACG"),
                             ("ACGT" * 20, "T" * 150)]:
            for diagonal in DIAGONALS:
                assert_alignment_is_optimal(read, window, band, diagonal)

    def test_a_gap_is_traced_by_value(self):
        # One move byte per cell cannot tell a gap's extension from its
        # opening: the single-matrix traceback returned 7M1D1M1D9M2S
        # here, reported 10 and re-scored 5.
        result = assert_alignment_is_optimal(
            "CTGGGATGCCTTCTGCGAA", "CTGGGATGGTCCTTCTGCGTGGAA", 12, None)
        assert sw_result(result) == (10, "8M2D9M2S", 0, 0)

    def test_the_shorter_gap_wins_a_tie(self):
        # The cell the 1I opens from (H = 8) also continues a longer
        # insertion at the same score.
        result = assert_alignment_is_optimal(
            "AAACACACACACAACCACCAAAACC", "AAACACACACACCACCAAAACC", 12, None)
        assert sw_result(result) == (14, "4S8M1I12M", 2, 0)

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
        shape=st.sampled_from(SHAPES),
    )
    def test_property_identical_to_oracle(self, read, edits, left, right,
                                          cut, shape):
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
        assert_alignment_is_optimal(read, window, *shape)


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


# -- record forms: SAM text, line length, pickle wire form --------------------
ALL_OPS = "MIDNSHP=X"
RECORD_FIELDS = (
    "qname", "rname", "pos", "mapq", "cigar", "rnext", "pnext", "tlen",
    "seq", "qual", "tags",
)

cigar_texts = st.one_of(
    st.just("*"),
    st.lists(
        st.tuples(st.integers(1, 300), st.sampled_from(ALL_OPS)),
        min_size=1, max_size=6,
    ).map(lambda ops: "".join(f"{length}{op}" for length, op in ops)),
)
# Tag values may hold ':' (only the first two split) but never a tab or
# a newline, which the SAM line itself cannot carry.
tag_values = st.text(
    st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    max_size=12,
)
sam_records = st.builds(
    lambda flag, cigar, tags, **fields: SamRecord(
        flags=F.SamFlags(flag), cigar=Cigar.parse(cigar), tags=tags, **fields
    ),
    flag=st.integers(0, 0xFFF),  # includes unmapped / mate-unmapped
    cigar=cigar_texts,
    tags=st.dictionaries(
        st.sampled_from(["RG", "MC", "MQ", "NM", "XA"]), tag_values,
        max_size=4,
    ),
    qname=st.text("abcXYZ019_/.", min_size=1, max_size=12),
    rname=st.sampled_from(["chr1", "chr2", "*"]),
    pos=st.integers(0, 10 ** 9),
    mapq=st.integers(0, 255),
    rnext=st.sampled_from(["=", "*", "chr2"]),
    pnext=st.integers(0, 10 ** 9),
    tlen=st.integers(-10 ** 6, 10 ** 6),
    seq=st.one_of(st.just("*"), st.text("ACGTN", min_size=1, max_size=40)),
    qual=st.one_of(st.just("*"), st.text("!#5?I~", min_size=1, max_size=40)),
)


def seeded_record(rng):
    ops = [
        (rng.randint(1, 120), rng.choice(ALL_OPS))
        for _ in range(rng.randint(0, 6))
    ]
    length = rng.randint(1, 60)
    return SamRecord(
        qname=f"read{rng.randrange(10 ** 6)}",
        flags=F.SamFlags(rng.choice([0, 4, 77, 99, 141, 147, 1123, 2048])),
        rname=rng.choice(["chr1", "chr2", "*"]),
        pos=rng.choice([0, 1, rng.randrange(10 ** 7)]),
        mapq=rng.choice([0, 60, 255]),
        cigar=Cigar(ops),
        rnext=rng.choice(["=", "*", "chr1"]),
        pnext=rng.choice([0, rng.randrange(10 ** 7)]),
        tlen=rng.randint(-900, 900),
        seq=rng.choice(["*", "".join(rng.choice("ACGT") for _ in range(length))]),
        qual=rng.choice(["*", "".join(rng.choice("!+5?I") for _ in range(length))]),
        tags={
            key: rng.choice(["sample1", "100M", "a:b:c", "", "chr1,+5,60M,0;"])
            for key in rng.sample(["RG", "MC", "MQ", "XA"], rng.randint(0, 4))
        },
    )


def field_tuple(record):
    return (int(record.flags),) + tuple(
        getattr(record, name) for name in RECORD_FIELDS
    )


def outcome_of(parse, line):
    """What a parser does with a line: its fields, or its typed error."""
    try:
        return field_tuple(parse(line))
    except Exception as error:  # compared, never swallowed
        return type(error), str(error)


def assert_record_forms_agree(record):
    line = oracle.sam_to_line(record)
    assert record.to_line() == line
    assert record.line_bytes() == len(line) + 1
    assert str(record.cigar) == oracle.cigar_str(record.cigar)
    assert field_tuple(SamRecord.from_line(line)) == field_tuple(
        oracle.sam_from_line(line)
    )
    assert SamRecord.from_line(line + "\n").to_line() == line
    clones = [pickle.loads(pickle.dumps(record, p)) for p in range(2, 6)]
    clones += [copy.deepcopy(record), record.copy()]
    for clone in clones:
        assert clone.to_line() == line
        assert field_tuple(clone) == field_tuple(record)
        assert clone.tags is not record.tags


class TestRecordFormsAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(sam_records)
    def test_hypothesis_records(self, record):
        assert_record_forms_agree(record)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_records(self, seed):
        rng = random.Random(900 + seed)
        for _ in range(400):
            assert_record_forms_agree(seeded_record(rng))

    def test_malformed_lines_fail_exactly_as_before(self):
        # Every field of a good line replaced by hostile text in turn.
        # The five integer fields used to escape as a bare ValueError
        # and are now a FormatError; everything else is unchanged.
        rng = random.Random(77)
        hostile = ["", "*", "x", "-", "10M5", "0M", "3Q", "٣", "1 ", "a:b"]
        integer_fields = {1, 3, 4, 7, 8}
        for _ in range(60):
            fields = seeded_record(rng).to_line().split("\t")
            for index in range(len(fields)):
                for text in hostile:
                    line = "\t".join(
                        fields[:index] + [text] + fields[index + 1:]
                    )
                    new = outcome_of(SamRecord.from_line, line)
                    old = outcome_of(oracle.sam_from_line, line)
                    if index in integer_fields and old[0] is ValueError:
                        assert new[0] is FormatError, (line, new)
                    else:
                        assert new == old, (line, new, old)
            short = "\t".join(fields[:rng.randint(0, 10)])
            assert outcome_of(SamRecord.from_line, short) == outcome_of(
                oracle.sam_from_line, short
            )

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(cigar_texts, st.text("0123456789MIDNSHP=X*Q-", max_size=8)))
    def test_cigar_parse(self, text):
        try:
            expected = oracle.cigar_parse(text)
        except CigarError as error:
            with pytest.raises(CigarError) as caught:
                Cigar.parse(text)
            assert str(caught.value) == str(error)
            assert text not in cigar_module._interned
            return
        parsed = Cigar.parse(text)
        assert parsed.ops == expected.ops
        assert parsed == expected and hash(parsed) == hash(expected)
        assert str(parsed) == oracle.cigar_str(expected)
        for protocol in range(2, 6):
            assert pickle.loads(pickle.dumps(parsed, protocol)) == expected
        assert copy.deepcopy(parsed) == expected

    def test_interning_is_by_text_and_bounded(self, monkeypatch):
        cap = 64
        monkeypatch.setattr(cigar_module, "_interned", {})
        monkeypatch.setattr(cigar_module, "_INTERN_CAP", cap)
        for length in range(1, cap + 1):
            text = f"{length}M"
            assert Cigar.parse(text) is Cigar.parse(text)
        assert Cigar.parse("5M") is not Cigar([(5, "M")])
        for length in range(1, 10 * cap + 1):  # 10x cap distinct texts
            parsed = Cigar.parse(f"{length}S{length}M")
            assert parsed.ops == ((length, "S"), (length, "M"))
            assert len(cigar_module._interned) <= cap
        # Past the cap a novel text still parses, equal but not stored.
        assert Cigar.parse("7I") == Cigar.parse("7I")
        assert "7I" not in cigar_module._interned
        assert Cigar.parse("1M") is Cigar.parse("1M")


# -- one size at every boundary -----------------------------------------------
CHUNK_SIZES = (200, 8 * 1024, 64 * 1024)
SIZING_HEADER = SamHeader(sequences=[("chr1", 10 ** 9), ("chr2", 500)])
# Non-ASCII read names: characters and encoded bytes part ways here, and
# the accounting unit is characters (what ``line_bytes`` counts).
wide_qnames = st.text("aZ9_é读𝔸", min_size=1, max_size=8)


def renamed(record, qname):
    record.qname = qname
    return record


sized_records = st.one_of(
    sam_records, st.builds(renamed, sam_records, wide_qnames)
)


def assert_one_size(records):
    expected = sum(record.line_bytes() for record in records)
    for chunk_bytes in CHUNK_SIZES:
        data, written = encode_bam(SIZING_HEADER, records, chunk_bytes)
        assert data == bam_bytes(SIZING_HEADER, records, chunk_bytes)
        header, decoded, read = decode_bam(data)
        assert written == read == expected
        assert (header, decoded) == read_bam(data)
        assert [r.to_line() for r in decoded] == [r.to_line() for r in records]


def assert_chain_is_sized_once(records):
    """Known sizes in, the same totals out as summing at every step."""
    naive = DataTransformAccounting()
    header, out = SIZING_HEADER, records
    for program in (AddOrReplaceReadGroups(), CleanSam()):
        header, out = run_wrapped(program, header, out, naive)
    known = DataTransformAccounting()
    _, decoded, size = decode_bam(bam_bytes(SIZING_HEADER, records, 8 * 1024))
    _, chained, out_size = run_wrapped_chain(
        [AddOrReplaceReadGroups(), CleanSam()], SIZING_HEADER, decoded,
        known, size,
    )
    assert [r.to_line() for r in chained] == [r.to_line() for r in out]
    assert out_size == sum(r.line_bytes() for r in out)
    assert (known.bytes_to_program, known.bytes_from_program,
            known.invocations) == (naive.bytes_to_program,
                                   naive.bytes_from_program, 2)


class TestSizesAgreeAtEveryBoundary:
    """What the BAM reader reports, what the writer reports and
    ``sum(line_bytes())`` are one number, whatever the chunking."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(sized_records, max_size=12))
    def test_hypothesis_record_lists(self, records):
        assert_one_size(records)
        assert_chain_is_sized_once(records)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_partitions(self, seed):
        rng = random.Random(1300 + seed)
        records = [seeded_record(rng) for _ in range(300)]
        assert_one_size(records)
        assert_chain_is_sized_once(records)

    def test_the_named_cases(self):
        rng = random.Random(8)
        mapped = seeded_record(rng)
        mapped.flags, mapped.rname, mapped.pos = F.SamFlags(99), "chr1", 7
        overhanging = mapped.copy()  # CleanSam drops it: off chr2's end
        overhanging.rname, overhanging.pos = "chr2", 10 ** 6
        overhanging.cigar = Cigar.parse("50M")
        unmapped_pair = [mapped.copy(), mapped.copy()]
        for record, flag in zip(unmapped_pair, (77, 141)):
            record.flags, record.rname, record.pos = F.SamFlags(flag), "*", 0
            record.cigar = Cigar([])
        tagged = mapped.copy()
        tagged.tags = {"RG": "old", "XA": "chr1,+5,60M,0;", "MC": ""}
        wide = mapped.copy()
        wide.qname = "läs-读-𝔸/1"
        assert len(wide.to_line().encode()) > len(wide.to_line())
        for records in ([], [overhanging], unmapped_pair, [tagged], [wide],
                        [mapped, overhanging, *unmapped_pair, tagged, wide]):
            assert_one_size(records)
            assert_chain_is_sized_once(records)
        _, cleaned = CleanSam().run(SIZING_HEADER, [mapped, overhanging])
        assert len(cleaned) == 1

    def test_a_known_size_is_recorded_and_returned_as_is(self):
        accounting = DataTransformAccounting()
        assert accounting.record_input([], 41) == 41
        assert accounting.record_output([], 43) == 43
        rng = random.Random(2)
        records = [seeded_record(rng) for _ in range(5)]
        summed = sum(r.line_bytes() for r in records)
        assert accounting.record_input(records) == summed
        assert accounting.record_output(records) == summed
        assert (accounting.bytes_to_program, accounting.bytes_from_program,
                accounting.invocations) == (41 + summed, 43 + summed, 2)


# -- duplicate scores ---------------------------------------------------------
MINIMUMS = (0, 1, 15, 40, 94)
# Every printable score: '!' (0) .. '~' (93), plus DEL (94) — ASCII, so
# it decodes — to give ``minimum=94`` something to keep.
qual_texts = st.one_of(
    st.just("*"), st.just(""),
    st.text(st.characters(min_codepoint=33, max_codepoint=127), max_size=60),
)


def scored(qual):
    record = seeded_record(random.Random(0))
    record.qual = qual
    return record


class TestDuplicateScoreAgainstNaiveBody:
    @settings(max_examples=300, deadline=None)
    @given(qual_texts, st.sampled_from(MINIMUMS))
    def test_sum_of_base_qualities(self, qual, minimum):
        assert scored(qual).sum_of_base_qualities(minimum) == \
            oracle.sum_of_base_qualities(qual, minimum)

    @settings(max_examples=100, deadline=None)
    @given(qual_texts, qual_texts)
    def test_default_minimum_and_pair_score(self, qual1, qual2):
        end1, end2 = scored(qual1), scored(qual2)
        assert end1.sum_of_base_qualities() == \
            oracle.sum_of_base_qualities(qual1, 15)
        assert pair_score(end1, end2) == (
            oracle.sum_of_base_qualities(qual1, 15)
            + oracle.sum_of_base_qualities(qual2, 15)
        )

    def test_every_printable_score_at_every_minimum(self):
        qual = "".join(map(chr, range(33, 128)))
        for minimum in MINIMUMS:
            assert scored(qual).sum_of_base_qualities(minimum) == \
                sum(q for q in range(95) if q >= minimum)

    @pytest.mark.parametrize("bad", ["II II", "I\x1fI", "IIé", "读"])
    @pytest.mark.parametrize("minimum", (15, 40))
    def test_bad_text_raises_what_decode_quals_raises(self, bad, minimum):
        with pytest.raises(FormatError) as expected:
            decode_quals(bad)
        with pytest.raises(FormatError) as raised:
            scored(bad).sum_of_base_qualities(minimum)
        assert str(raised.value) == str(expected.value)


# -- MarkDuplicates: both criteria by brute force ------------------------------
def markdup_key(row):
    """``(contig, unclipped 5' end, reverse)`` of one ``(qname, flag, rname,
    pos, cigar, qual)`` row, read off the CIGAR text alone."""
    _, flag, rname, pos, cigar, _ = row
    ops = [(int(length), op) for length, op in re.findall(r"(\d+)(\D)", cigar)]

    def clipped(ops):
        return sum(length for length, _ in
                   itertools.takewhile(lambda item: item[1] in "SH", ops))

    if flag & 0x10:
        span = sum(length for length, op in ops if op in "MDN=X")
        return rname, pos + span - 1 + clipped(ops[::-1]), True
    return rname, pos - clipped(ops), False


def markdup_score(row):
    """Picard's duplicate score: the summed qualities of Q15+ bases."""
    return sum(ord(c) - 33 for c in row[5] if ord(c) - 33 >= 15)


def markdup_groups(rows):
    """``(pairs, partials)``: row-index pairs of the primary mapped reads
    whose mate is mapped and present, and every other primary mapped read
    (mate unmapped, unpaired or absent)."""
    live = [i for i, row in enumerate(rows) if not row[1] & 0x904]
    mates = {}
    for i in live:
        if rows[i][1] & 0x1 and not rows[i][1] & 0x8:
            mates.setdefault(rows[i][0], []).append(i)
    pairs = [tuple(ends) for ends in mates.values() if len(ends) == 2]
    paired = {i for pair in pairs for i in pair}
    return pairs, [i for i in live if i not in paired]


def markdup_oracle(rows, pair_order=min):
    """Every row's duplicate flag, by brute force over all pairs (nothing
    of ``repro``).

    Criterion 1: a complete pair is a duplicate iff another pair has the
    same sorted pair of keys and a higher summed score, or an equal one
    earlier in input order, a pair's place being ``pair_order`` of its two
    row indices (``min``: where it starts, Picard's read-1 index; ``max``:
    where it completes).  Criterion 2: a partial is a duplicate iff a
    complete-pair end shares its key, or another partial with that key
    beats it by the same rule.
    """
    pairs, partials = markdup_groups(rows)

    def beats(theirs, mine):  # (score, place)
        return theirs[0] > mine[0] or (theirs[0] == mine[0] and theirs[1] < mine[1])

    keys = {pair: sorted(markdup_key(rows[i]) for i in pair) for pair in pairs}
    rank = {pair: (sum(markdup_score(rows[i]) for i in pair), pair_order(pair))
            for pair in pairs}
    dup = [False] * len(rows)
    for pair in pairs:
        if any(keys[other] == keys[pair] and beats(rank[other], rank[pair])
               for other in pairs):
            for i in pair:
                dup[i] = True
    ends = {markdup_key(rows[i]) for pair in pairs for i in pair}
    for i in partials:
        key, mine = markdup_key(rows[i]), (markdup_score(rows[i]), i)
        dup[i] = key in ends or any(
            markdup_key(rows[j]) == key and beats((markdup_score(rows[j]), j), mine)
            for j in partials)
    return dup


def as_row(record):
    return (record.qname, record.flags.value, record.rname, record.pos,
            record.cigar.text, record.qual)


#: 1200, 600 and 600: equal scores from different qualities.
DUP_QUALS = ("I" * 30, "5" * 30, "I" * 15 + "#" * 15)
DUP_CIGARS = ("30M", "5S25M", "25M5S", "2H30M", "10M2I18M", "12M3D18M")


def colliding_sets(rng, count=40):
    """Read-name groups piled onto a few 5' ends: complete pairs (often
    across contigs), partials with their shadow (the unmapped mate placed
    at the mapped end), clipped and gapped reads, tied scores, secondary
    alignments and stale duplicate flags."""
    def record(qname, bits, rname, pos, cigar):
        return SamRecord(qname, F.SamFlags(bits | rng.choice((0, F.DUPLICATE))),
                         rname, pos, 60, Cigar.parse(cigar), seq="A" * 30,
                         qual=rng.choice(DUP_QUALS))

    def mapped(qname, bits):
        return record(qname, bits | rng.choice((0, F.REVERSE)),
                      rng.choice(("chrA", "chrB")), rng.randint(100, 101),
                      rng.choice(DUP_CIGARS))

    groups = []
    for index in range(count):
        qname = f"q{index:03d}"
        if rng.random() < 0.6:
            group = [mapped(qname, F.PAIRED | F.FIRST_IN_PAIR),
                     mapped(qname, F.PAIRED | F.SECOND_IN_PAIR)]
        else:
            end = mapped(qname, F.PAIRED | F.FIRST_IN_PAIR | F.MATE_UNMAPPED)
            group = [end, record(qname, F.PAIRED | F.SECOND_IN_PAIR | F.UNMAPPED,
                                 end.rname, end.pos, "*")]
        if rng.random() < 0.1:
            group.append(record(qname, F.PAIRED | F.SECONDARY, "chrA", 101, "30M"))
        rng.shuffle(group)
        groups.append(group)
    return groups


def marked(records):
    copies = [record.copy() for record in records]
    mark_duplicates_in_place(copies)
    return [record.flags.is_duplicate for record in copies]


def tied_pair_rows(rows):
    """Rows of the complete pairs whose key group's best score is tied."""
    pairs, _ = markdup_groups(rows)
    groups = {}
    for pair in pairs:
        key = tuple(sorted(markdup_key(rows[i]) for i in pair))
        groups.setdefault(key, []).append(pair)
    tied = set()
    for group in groups.values():
        scores = [sum(markdup_score(rows[i]) for i in pair) for pair in group]
        if scores.count(max(scores)) > 1:
            tied.update(i for pair in group for i in pair)
    return tied


def read_round(hdfs, paths):
    return [record for path in paths for record in read_bam(hdfs.get(path))[1]]


class TestMarkDuplicatesAgainstOracle:
    def test_the_sets_collide_tie_and_cross_contigs(self):
        """The seeded sets exercise what they claim to."""
        cross = tied = partial_on_pair_end = 0
        for seed in range(30):
            rows = [as_row(r) for g in colliding_sets(random.Random(seed)) for r in g]
            pairs, partials = markdup_groups(rows)
            cross += sum(rows[a][2] != rows[b][2] for a, b in pairs)
            tied += len(tied_pair_rows(rows))
            ends = {markdup_key(rows[i]) for pair in pairs for i in pair}
            partial_on_pair_end += sum(markdup_key(rows[i]) in ends for i in partials)
        assert min(cross, tied, partial_on_pair_end) > 20

    @pytest.mark.parametrize("seed", range(30))
    def test_read_name_grouped_sets_flag_for_flag(self, seed):
        """Grouped by read name (how round 3's reducers and every mapper
        see them) a pair starts and completes in the same order."""
        records = [r for g in colliding_sets(random.Random(seed)) for r in g]
        assert marked(records) == markdup_oracle([as_row(r) for r in records])

    @pytest.mark.parametrize("seed", range(30))
    def test_any_order_breaks_pair_ties_where_the_pair_completes(self, seed):
        """In any order (coordinate-sorted, as the serial pipeline feeds
        it) a tie between pairs goes to the pair whose second end comes
        first, not its first end (Picard's read-1 index); the two readings
        differ only inside tied pair groups (EXPERIMENTS.md)."""
        rng = random.Random(seed)
        records = [r for g in colliding_sets(rng) for r in g]
        rng.shuffle(records)
        rows = [as_row(r) for r in records]
        flags = marked(records)
        assert flags == markdup_oracle(rows, pair_order=max)
        differ = {i for i, (a, b) in enumerate(zip(flags, markdup_oracle(rows)))
                  if a != b}
        assert differ <= tied_pair_rows(rows)

    @pytest.fixture(scope="class")
    def round3(self, aligned, aligner, reference):
        """Round 3 reg and opt over the shared dataset's round 2."""
        hdfs = Hdfs(["n0", "n1", "n2", "n3"], replication=2, block_size=64 * 1024)
        rounds = GesallRounds(hdfs, MapReduceEngine(nodes=hdfs.nodes), aligner,
                              reference, chunk_bytes=8 * 1024)
        step = len(aligned) // 8 * 2
        paths = [f"/r1/part-{start:05d}.bam" for start in range(0, len(aligned), step)]
        for path, start in zip(paths, range(0, len(aligned), step)):
            upload_bam(hdfs, path, aligner.header(), aligned[start:start + step],
                       logical_partition=True)
        round2 = rounds.round2_cleaning(paths, num_reducers=3)
        return {mode: read_round(hdfs, rounds.round3_mark_duplicates(
            round2, mode=mode, out_dir=f"/r3{mode}", num_reducers=3))
            for mode in ("reg", "opt")}

    @pytest.mark.parametrize("mode", ["reg", "opt"])
    def test_round3_keeps_one_best_read_per_key(self, round3, mode):
        """Exactly one non-duplicate per key group, carrying the group's
        maximal score (which of tied ones may differ: section 4.5.2)."""
        rows = [as_row(r) for r in round3[mode]]
        dup = [r.flags.is_duplicate for r in round3[mode]]
        pairs, partials = markdup_groups(rows)
        groups = {}
        for pair in pairs:
            assert dup[pair[0]] == dup[pair[1]]
            key = tuple(sorted(markdup_key(rows[i]) for i in pair))
            groups.setdefault(key, []).append(
                (sum(markdup_score(rows[i]) for i in pair), dup[pair[0]]))
        ends = {markdup_key(rows[i]) for pair in pairs for i in pair}
        for i in partials:
            groups.setdefault(markdup_key(rows[i]), []).append(
                (markdup_score(rows[i]), dup[i]))
        assert max(map(len, groups.values())) > 1
        for key, group in groups.items():
            kept = [score for score, is_dup in group if not is_dup]
            if key in ends:  # partials on a complete pair's end
                assert kept == [], key
            else:
                assert kept == [max(score for score, _ in group)], key
        assert sum(dup) == sum(markdup_oracle(rows)) > 0
        live = {i for pair in pairs for i in pair} | set(partials)
        assert not any(dup[i] for i in range(len(rows)) if i not in live)


# -- round 3's line reducer against the record oracle -------------------------
def line_reducer_pairs(rng, count=40):
    """Read pairs in name order: ``colliding_sets``' complete pairs and
    partials on a few 5' ends (tied scores, stale duplicate bits, shadows
    on most partials' keys), then partials alone at their own positions,
    three to a key with two qualities (F groups with no shadow, tied and
    not), complete pairs three to a key with equal scores (P ties), and
    both-unmapped pairs (U passthroughs)."""
    pairs = []
    for group in colliding_sets(rng, count):
        ends = sorted((r for r in group if r.flags.is_primary),
                      key=lambda r: r.flags.is_second_in_pair)
        pairs.append(tuple(ends))

    def record(qname, bits, rname, pos, cigar, qual):
        return SamRecord(qname, F.SamFlags(bits | rng.choice((0, F.DUPLICATE))),
                         rname, pos, 60, Cigar.parse(cigar), seq="A" * 30,
                         qual=qual)

    for index in range(12):
        qname, pos = f"lone{index:02d}", 5000 + 100 * (index // 3)
        qual = DUP_QUALS[rng.randrange(2)]
        pairs.append((
            record(qname, F.PAIRED | F.FIRST_IN_PAIR | F.MATE_UNMAPPED,
                   "chrA", pos, "30M", qual),
            record(qname, F.PAIRED | F.SECOND_IN_PAIR | F.UNMAPPED,
                   "chrA", pos, "*", rng.choice(DUP_QUALS)),
        ))
    for index in range(6):  # three pairs a key, scores tied (600 each)
        qname, pos = f"tie{index:02d}", 7000 + 500 * (index // 3)
        pairs.append((
            record(qname, F.PAIRED | F.FIRST_IN_PAIR, "chrB", pos, "30M",
                   rng.choice(DUP_QUALS[1:])),
            record(qname, F.PAIRED | F.SECOND_IN_PAIR | F.REVERSE, "chrB",
                   pos + 200, "30M", rng.choice(DUP_QUALS[1:])),
        ))
    for index in range(6):
        qname, unmapped = f"none{index:02d}", F.PAIRED | F.UNMAPPED | F.MATE_UNMAPPED
        pairs.append((
            record(qname, unmapped | F.FIRST_IN_PAIR, "*", 0, "*", DUP_QUALS[0]),
            record(qname, unmapped | F.SECOND_IN_PAIR, "*", 0, "*", DUP_QUALS[1]),
        ))
    return pairs


def shuffled_groups(pairs, keying):
    """What round 3's reducers receive: every key's values, in map order."""
    groups = {}
    for end1, end2 in pairs:
        for key, value in keying.keys_for_pair(end1, end2):
            groups.setdefault(key, []).append(value)
    return groups


class TestMarkDuplicateLinesAgainstRecordOracle:
    """``mark_duplicate_lines`` over shipped lines writes what the record
    reducer it replaced (``reference_kernels.mark_duplicate_group``)
    renders, group for group, in both keying modes."""

    @staticmethod
    def keyings(pairs):
        return {"reg": MarkDupKeying("reg"),
                "opt": MarkDupKeying("opt", build_partial_position_bloom(pairs))}

    @pytest.mark.parametrize("mode", ["reg", "opt"])
    @pytest.mark.parametrize("seed", range(12))
    def test_group_for_group(self, seed, mode):
        pairs = line_reducer_pairs(random.Random(seed))
        groups = shuffled_groups(pairs, self.keyings(pairs)[mode])
        for key, values in groups.items():
            expected = [r.to_line() for r in oracle.mark_duplicate_group(key, values)]
            shipped = [(tag, *[end.to_line() for end in ends])
                       for tag, *ends in values]
            assert mark_duplicate_lines(key, shipped) == expected, key

    def test_the_groups_hold_what_the_rule_must_get_right(self):
        """Across the seeds: P groups with tied best scores and with
        stale duplicate bits, F groups with and without shadows, F groups
        whose partials tie, U passthroughs."""
        seen = dict.fromkeys(("P tie", "P stale bit", "F shadow",
                              "F alone", "F tie", "U"), 0)
        for seed in range(12):
            pairs = line_reducer_pairs(random.Random(seed))
            for keying in self.keyings(pairs).values():
                for key, values in shuffled_groups(pairs, keying).items():
                    tags = [value[0] for value in values]
                    if key[0] == "P":
                        scores = [pair_score(*value[1:]) for value in values]
                        seen["P tie"] += scores.count(max(scores)) > 1
                        seen["P stale bit"] += any(
                            end.flags.is_duplicate
                            for value in values for end in value[1:])
                    elif key[0] == "F" and "partial" in tags:
                        scores = [value[1].sum_of_base_qualities()
                                  for value in values if value[0] == "partial"]
                        seen["F shadow" if "shadow" in tags else "F alone"] += 1
                        seen["F tie"] += scores.count(max(scores)) > 1
                    elif key[0] == "U":
                        seen["U"] += 1
        assert min(seen.values()) > 20, seen


# -- rounds 2 and 3 on fields against the record programs --------------------
def outcome(run):
    """What a call returns, or its typed error."""
    try:
        return run()
    except Exception as error:  # compared, never swallowed
        return type(error), str(error)


def noncanonical(rng, line):
    """``line`` as a record reads it but would not write it: integers
    signed, zero-padded or spaced, FLAG bits outside the known twelve, a
    zero-padded CIGAR or an empty one, tags shuffled, typed ``i`` /
    ``A`` and repeated (the last one wins)."""
    fields = line.split("\t")
    for index in (1, 3, 4, 7, 8):
        if rng.random() < 0.3:
            value = int(fields[index])
            sign = "-" if value < 0 else rng.choice(["", "+"])
            fields[index] = rng.choice(["{}{}", "{}0{}", " {}{}", "{}{} "]).format(
                sign, abs(value))
    if rng.random() < 0.3:
        fields[1] = str(int(fields[1]) | rng.choice([0x1000, 0x8000, 0x40000]))
    if rng.random() < 0.3:
        fields[5] = "" if fields[5] == "*" else "0" + fields[5]
    tags = fields[11:]
    for _ in range(rng.randint(0, 2)):
        key = rng.choice(["RG", "MC", "MQ", "NM", "XA"])
        tags.append(f"{key}:{rng.choice('iAZ')}:{rng.choice(['7', 'x:y', ''])}")
    rng.shuffle(tags)
    return "\t".join(fields[:11] + tags)


def name_grouped_lines(rng, count=50):
    """Read pairs in name order, as round 2's reducers and round 3's map
    tasks see them: random FLAG bits (unmapped, reverse, stale mate and
    duplicate bits), ends on one contig, across two or unplaced, some
    ending at or past chr2's last base, a tenth
    of the pairs unpaired reads that share a name; most lines written
    non-canonically."""
    lines = []
    for index in range(count):
        paired = F.PAIRED if rng.random() < 0.9 else 0
        for bit in (F.FIRST_IN_PAIR, F.SECOND_IN_PAIR):
            end = seeded_record(rng)
            end.qname = f"pair{index:03d}"
            end.flags = F.SamFlags(
                rng.getrandbits(12) & ~(F.PAIRED | F.FIRST_IN_PAIR | F.SECOND_IN_PAIR)
                | paired | bit)
            if rng.random() < 0.2:  # ends at chr2's last base, or one past
                end.rname = "chr2"
                end.pos = 500 - end.cigar.reference_length() + rng.randint(0, 2)
            line = end.to_line()
            lines.append(noncanonical(rng, line) if rng.random() < 0.7 else line)
    return lines


def round2_map_by_records(lines):
    """Round 2's map body before it moved lines: records through the
    wrapped AddOrReplaceReadGroups + CleanSam chain; the output lines
    (rendered by the pre-fast-path ``to_line``), the size staged between
    the programs and the cleaned size."""
    records = [SamRecord.from_line(line) for line in lines]
    size = sum(len(line) + 1 for line in lines)
    accounting = DataTransformAccounting()
    _, out, out_size = run_wrapped_chain(
        [AddOrReplaceReadGroups(), CleanSam()], SIZING_HEADER, records,
        accounting, size)
    staged = accounting.bytes_to_program - size
    return [oracle.sam_to_line(r) for r in out], staged, out_size


def round2_map_by_fields(lines):
    out, staged = clean_lines(SIZING_HEADER, lines, "RG1")
    return out, staged, sum(len(line) + 1 for line in out)


def round2_reduce_by_records(lines):
    _, out = FixMateInformation().run(
        SIZING_HEADER, [SamRecord.from_line(line) for line in lines])
    bloom = oracle.build_partial_position_bloom(records_by_pair(out))
    assert build_partial_position_bloom(records_by_pair(out)).to_bytes() == \
        bloom.to_bytes()
    return [oracle.sam_to_line(r) for r in out], bloom.to_bytes()


def round2_reduce_by_fields(lines):
    fixed = fix_mate_fields(lines)
    bloom = build_partial_position_bloom(
        records_by_pair(fixed, name=lambda fields: fields[0]),
        fragment=fields_fragment)
    return [join_fields(fields) for fields in fixed], bloom.to_bytes()


def round3_keys_by_records(lines, mode, bloom):
    records = [SamRecord.from_line(line) for line in lines]
    line_of = {id(record): line for record, line in zip(records, lines)}
    keying, past = MarkDupKeying(mode, bloom), MarkDupKeying(mode, bloom)
    emissions = []
    for end1, end2 in records_by_pair(records):
        emitted = keying.keys_for_pair(end1, end2)
        assert repr(emitted) == repr(
            oracle.markdup_keys_for_pair(past, end1, end2))
        emissions += [(key, (tag, *[line_of[id(end)] for end in ends]))
                      for key, (tag, *ends) in emitted]
    return repr(emissions)


def round3_keys_by_fields(lines, mode, bloom):
    keying = MarkDupKeying(mode, bloom)
    ends = [(split_line(line), line) for line in lines]
    # ``repr``: a key's strand must stay a bool, and True == 1.
    return repr([emission for end1, end2 in records_by_pair(
        ends, name=lambda end: end[0][0]) for emission in keying.keys_for_lines(end1, end2)])


def assert_field_kernels_agree(lines):
    """Each field kernel, and each error it raises, is what the record
    program it replaced makes of ``lines``."""
    assert outcome(lambda: round2_map_by_fields(lines)) == outcome(
        lambda: round2_map_by_records(lines))
    assert outcome(lambda: round2_reduce_by_fields(lines)) == outcome(
        lambda: round2_reduce_by_records(lines))
    bloom = outcome(lambda: oracle.build_partial_position_bloom(
        records_by_pair(map(SamRecord.from_line, lines))))
    for mode, bloom in (("reg", None), ("opt", bloom)):
        if isinstance(bloom, tuple):  # the lines do not pair or parse
            bloom = BloomFilter()
        assert outcome(lambda: round3_keys_by_fields(lines, mode, bloom)) == \
            outcome(lambda: round3_keys_by_records(lines, mode, bloom))


class TestFieldKernelsAgainstRecordPrograms:
    """Rounds 2 and 3 split SAM lines instead of building records: the
    AddOrReplaceReadGroups + CleanSam kernel, FixMateInformation over
    fields with the ``.bloom`` built from them, and round 3's keys from
    fields equal what the record programs render, on canonical lines and
    on lines a record would rewrite, and raise what ``from_line``
    raises on malformed ones."""

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_name_grouped_partitions(self, seed):
        assert_field_kernels_agree(name_grouped_lines(random.Random(4100 + seed)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(sam_records, sam_records), max_size=8),
           st.booleans(), st.integers(0, 2 ** 32))
    def test_hypothesis_pairs(self, pairs, paired, seed):
        rng, lines = random.Random(seed), []
        for index, ends in enumerate(pairs):
            for end in ends:
                end.qname = f"q{index}"
                if paired:
                    end.flags = end.flags.with_bit(F.PAIRED)
                lines.append(noncanonical(rng, end.to_line()))
        assert_field_kernels_agree(lines)

    def test_the_partitions_hold_what_the_kernels_must_get_right(self):
        """Across the seeds: overhangs dropped, unmapped reads' MAPQ and
        CIGAR cleared, MAPQ 255 reset, lines a record rewrites, mates'
        fields rewritten both ways, partial matchings in the bloom, and
        every key kind with shadows."""
        seen = dict.fromkeys(("dropped", "rewritten", "MC", "bloom", "P", "F",
                              "U", "shadow"), 0)
        for seed in range(8):
            lines = name_grouped_lines(random.Random(4100 + seed))
            out, _, _ = round2_map_by_fields(lines)
            seen["dropped"] += len(lines) - len(out)
            seen["rewritten"] += sum(
                SamRecord.from_line(line).to_line() != line for line in lines)
            fixed, bloom = round2_reduce_by_fields(lines)
            seen["MC"] += sum("\tMC:Z:" in line for line in fixed)
            seen["bloom"] += bloom != BloomFilter().to_bytes()
            keys = round3_keys_by_fields(lines, "reg", None)
            for kind in "PFU":
                seen[kind] += keys.count(f"(('{kind}', ")
            seen["shadow"] += keys.count("('shadow', ")
        assert min(seen.values()) > 5, seen

    def test_malformed_lines_raise_what_from_line_raises(self):
        rng = random.Random(78)
        hostile = ["", "*", "x", "-", "10M5", "0M", "3Q", "٣", "1 ", "a:b"]
        for _ in range(12):
            good = name_grouped_lines(rng, 1)
            fields = good[0].split("\t")
            for index in range(len(fields)):
                for text in hostile:
                    bad = "\t".join(fields[:index] + [text] + fields[index + 1:])
                    assert_field_kernels_agree([bad, good[1]])
            assert_field_kernels_agree(["\t".join(fields[:rng.randint(0, 10)]),
                                        good[1]])

    def test_a_mate_missing_is_the_programs_error(self):
        lines = name_grouped_lines(random.Random(5), 3)
        assert_field_kernels_agree(lines[:-1])


markdup_fragments = st.tuples(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
    | st.sampled_from(["chr1", "chrä", "染色体1", "𝔸"]),
    st.integers(-10 ** 12, 10 ** 12), st.booleans())
markdup_keys = st.one_of(
    st.tuples(st.just("P"), st.tuples(markdup_fragments, markdup_fragments)),
    st.tuples(st.just("F"), markdup_fragments),
    # Shapes the flat step must hand to ``stable_hash_partition``.
    st.tuples(st.just("U"), st.text(max_size=6)),
    st.tuples(st.sampled_from(["F", "P"]), st.tuples(
        st.text(max_size=3), st.booleans(), st.booleans())),
    st.tuples(st.just("P"), st.tuples(markdup_fragments)),
    st.tuples(st.just("P"), st.tuples(markdup_fragments, st.text(max_size=3))),
    st.tuples(st.just("F"), st.tuples(st.text(max_size=3), st.integers())),
    st.tuples(st.just("F"), st.tuples(st.text(max_size=3), st.integers(),
                                      st.integers(0, 1))),
    st.just(("F",)), st.just("P"), st.integers(), st.none(),
)


class TestFlatMarkDupPartition:
    """Round 3's partitioner places every key where the default
    ``stable_hash_partition`` does: the canonical bytes of P and F keys
    built flat, anything else handed over."""

    @settings(max_examples=400, deadline=None)
    @given(markdup_keys, st.integers(1, 97))
    def test_same_partition_as_the_canonical_hash(self, key, partitions):
        assert outcome(lambda: markdup_partition(key, partitions)) == outcome(
            lambda: stable_hash_partition(key, partitions))

    def test_every_key_of_a_seeded_partition(self):
        lines = name_grouped_lines(random.Random(9), 200)
        keying = MarkDupKeying("reg")
        records = [SamRecord.from_line(line) for line in lines]
        keys = [key for end1, end2 in records_by_pair(records)
                for key, _ in keying.keys_for_pair(end1, end2)]
        assert {key[0] for key in keys} == {"P", "F", "U"}
        assert any(key[1][1] < 0 for key in keys if key[0] == "F")
        for key in keys:
            assert markdup_partition(key, 2 ** 32) == zlib.crc32(
                canonical_key_bytes(key))
            for partitions in (1, 3, 4, 7):
                assert markdup_partition(key, partitions) == \
                    stable_hash_partition(key, partitions)


class TestQuickstartAccountingPins:
    """Byte accounting of the five-round quickstart run, captured on
    6310f63 where both sites rendered ``to_line()`` to measure it."""

    # Round 2's calls were 1678 (8 maps x 2 programs + 1662 read names)
    # while FixMateInformation ran per key; per reduce partition it is
    # 8 x 2 + 4 reducers.  Only that integer was re-pinned.
    # PR 23 re-pinned every byte total: Smith-Waterman bands around the
    # seed's diagonal and traces gaps by value, so 70 of the 3 324
    # round-1 records changed (3D1M3D is now 6D; reads across a large
    # rearrangement clip more) and two insertions that were called as
    # three and two adjacent ones are one call each (round 5: 29 -> 26
    # lines).  No count moved.
    # ``quickstart_transform``: round -> (bytes_to_program,
    # bytes_from_program, calls); ``quickstart_map_output_bytes``: round
    # -> MAP_OUTPUT_BYTES.  Both in ``tests/pins.json``.

    def test_totals_are_unchanged_to_the_byte(self):
        reference = simulate_reference(ReferenceSimulationConfig(
            contig_lengths={"chr1": 12000, "chr2": 9000}
        ))
        pairs, _ = simulate_reads(
            simulate_donor(reference), ReadSimulationConfig(coverage=15.0)
        )
        result = run_pipeline(PipelineSpec(
            reference=reference, num_fastq_partitions=8, num_reducers=4,
        ), pairs)
        rounds = result.rounds
        pins.check("quickstart_transform", {
            key: (acc.bytes_to_program, acc.bytes_from_program, acc.invocations)
            for key, acc in rounds.transform.items()
        })
        pins.check("quickstart_map_output_bytes", {
            key: job.counters.get(C.MAP_OUTPUT_BYTES)
            for key, job in rounds.results.items()
        })
