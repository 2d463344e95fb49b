"""The per-read kernels against the per-base bodies they replaced.

Two kinds of check, kept apart:

* **refactoring guards** — ``pileup_activity``, ``seed_hits`` /
  ``seed_read``, ``BwaMemLite._vote`` and ``ungapped_alignment`` return
  exactly what the parent's bodies (``tests/reference_kernels.py``)
  return, on the inputs the contract benchmark never produces: bases
  under the quality floor anywhere in a block, clipped blocks,
  interleaved contigs, indels after a mismatching / matching / failing
  base;
* **an oracle that is not this code's past** — ``brute_force_pileup``
  below asks, for every reference position, every read, expanding its
  CIGAR base by base, and shares nothing with ``repro.variants``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignerConfig, ReferenceIndex
from repro.align.aligner import BwaMemLite
from repro.align.sw import ungapped_alignment
from repro.errors import FormatError
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.sam import SamRecord, encode_quals
from repro.genome.reference import ReferenceGenome, reverse_complement
from repro.genome.regions import GenomicInterval
from repro.variants.pileup import PileupConfig, build_pileup, pileup_activity

from tests import reference_kernels as parent
from tests.test_kernel_oracles import (
    PILEUP_CASES,
    random_reference,
    simulated_bam,
    sw_result,
)

FLOORS = (0, 6, 20, 41)


# -- an independent pileup oracle ---------------------------------------------
def brute_force_pileup(records, reference, interval=None, min_mapq=13,
                       min_base_quality=6, include_duplicates=False):
    """``{(contig, pos): [(read index, read offset, base, quality,
    indel)]}`` in read order: position by position, read by read."""
    expanded = [[op for length, op in record.cigar for _ in range(length)]
                for record in records]
    columns = {}
    for contig, sequence in reference.contigs.items():
        for pos in range(1, len(sequence) + 1):
            if interval is not None and not interval.contains(contig, pos):
                continue
            for index, record in enumerate(records):
                bits = record.flags.value
                if (bits & 0x904 or record.rname != contig or record.pos > pos
                        or (bits & 0x400 and not include_duplicates)
                        or record.mapq < min_mapq or record.qual == "*"):
                    continue
                ops = expanded[index]
                read_offset, ref_pos = 0, record.pos
                for at, op in enumerate(ops):
                    if ref_pos > pos:
                        break
                    if (op in "M=X" and ref_pos == pos
                            and read_offset < len(record.qual)
                            and ord(record.qual[read_offset]) - 33 >= min_base_quality):
                        after = ops[at + 1] if at + 1 < len(ops) else ""
                        run = 0  # length of the I or D that starts right here
                        while after in ("I", "D") and ops[at + 1 + run : at + 2 + run] == [after]:
                            run += 1
                        indel = None
                        if after == "I":
                            inserted = record.seq[read_offset + 1 : read_offset + 1 + run]
                            indel = (sequence[pos - 1], sequence[pos - 1] + inserted)
                        elif after == "D" and pos + run <= len(sequence):
                            indel = (sequence[pos - 1 : pos + run], sequence[pos - 1])
                        columns.setdefault((contig, pos), []).append((
                            index, read_offset, record.seq[read_offset],
                            ord(record.qual[read_offset]) - 33, indel))
                    read_offset += op in "M=XIS"
                    ref_pos += op in "M=XDN"
    return columns


def assert_matches_brute_force(records, reference, interval, config=None):
    """Both passes of ``repro.variants.pileup`` against the oracle;
    returns the oracle's columns."""
    used = config or PileupConfig()
    columns = brute_force_pileup(
        records, reference, interval, used.min_mapq, used.min_base_quality,
        used.include_duplicates,
    )
    assert {
        (contig, pos): (depth, disagreeing)
        for contig, pos, depth, disagreeing in pileup_activity(
            records, reference, interval, config)
    } == {
        key: (len(entries), sum(
            1 for _, _, base, _, indel in entries
            if indel is not None or base != reference.base_at(*key)
        ))
        for key, entries in columns.items()
    }
    index_of = {id(record): index for index, record in enumerate(records)}
    assert {
        (column.contig, column.pos): [
            (index_of[id(entry.record)], entry.read_offset, entry.base,
             entry.quality, entry.indel)
            for entry in column.entries
        ]
        for column in build_pileup(records, reference, interval, config)
    } == columns
    return columns


class TestPileupAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("interval,config", PILEUP_CASES)
    def test_seeded_random_bams(self, seed, interval, config):
        rng = random.Random(500 + seed)
        reference = random_reference(rng)
        records = simulated_bam(rng, reference, count=50)
        assert assert_matches_brute_force(records, reference, interval, config)

    def test_aligned_reads_of_the_shared_dataset(self, aligned, reference):
        gapped = next(
            r for r in aligned
            if r.mapq >= 13 and any(op in "ID" for _, op in r.cigar)
        )
        interval = GenomicInterval(gapped.rname, gapped.pos,
                                   gapped.pos + 120)
        records = [r for r in aligned if r.rname == interval.contig
                   and r.pos < interval.end
                   and r.reference_end >= interval.start]
        columns = assert_matches_brute_force(records, reference, interval)
        assert len(columns) == 120
        assert any(indel for entries in columns.values()
                   for *_, indel in entries)


# -- pileup_activity against the parent's body --------------------------------
def assert_same_activity(records, reference, interval=None, config=None):
    expected = list(parent.pileup_activity(records, reference, interval, config))
    assert list(pileup_activity(records, reference, interval, config)) == expected
    return expected


SMALL = ReferenceGenome({
    "chrA": "ACGTTGCAAGGCTTAACCGGTACGATCGATTACAGGCTTAAGCCGTA",
    "chrB": "TTGACCAGTAGGCATCGAATTCGGCTAAGCTTGCA",
})


def read_over(contig, pos, cigar, quals, flags=0, mapq=60, edits=()):
    """A record whose aligned bases are the reference's, except ``edits``
    (read offsets whose base is swapped for a different one)."""
    cigar = Cigar.parse(cigar)
    seq, cursor = [], pos
    for length, op in cigar:
        if op in "M=X":
            seq.extend(SMALL.fetch(contig, cursor, cursor + length))
        elif op in "IS":
            seq.extend("N" * length)
        if op in "M=XDN":
            cursor += length
    for offset in edits:
        if seq[offset] != "N":
            seq[offset] = "ACGT"["ACGT".index(seq[offset]) - 1]
    qual = quals if isinstance(quals, str) else encode_quals(quals)
    return SamRecord(f"r{pos}", F.SamFlags(flags), contig, pos, mapq, cigar,
                     seq="".join(seq), qual=qual)


class TestActivityAgainstParentBody:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("floor", FLOORS)
    @pytest.mark.parametrize("interval,config", PILEUP_CASES)
    def test_seeded_bams_at_every_floor(self, seed, floor, interval, config):
        rng = random.Random(900 + seed)
        reference = random_reference(rng)
        records = simulated_bam(rng, reference)
        base = config or PileupConfig()
        config = PileupConfig(base.min_mapq, floor, base.include_duplicates)
        expected = assert_same_activity(records, reference, interval, config)
        assert bool(expected) == (floor < 41)  # no score reaches 41

    @pytest.mark.parametrize("low", [
        [0], [4], [9], [0, 1], [3, 4, 5], [8, 9], [0, 9], [0, 4, 9],
        [1, 2, 3, 4, 5, 6, 7, 8], list(range(10)),
    ])
    def test_low_bases_at_the_start_middle_end_and_all_of_a_block(self, low):
        quals = [2 if offset in low else 30 for offset in range(10)]
        records = [read_over("chrA", 5, "10M", quals, edits=(0, 4, 9)),
                   read_over("chrA", 8, "10M", [30] * 10)]
        expected = assert_same_activity(records, SMALL)
        covered = {pos: depth for _, pos, depth, _ in expected}
        for offset in range(3):
            assert covered.get(5 + offset, 0) == (0 if offset in low else 1)
        for offset in range(3, 10):
            assert covered[5 + offset] == (1 if offset in low else 2)

    def test_a_contig_without_a_passing_base_takes_no_slot(self):
        records = [
            read_over("chrB", 3, "8M", [2] * 8),  # seen first, passes nothing
            read_over("chrA", 5, "8M", [30] * 8),
            read_over("chrB", 6, "8M", "*"),
            read_over("chrB", 9, "8M", [30] * 8),
        ]
        expected = assert_same_activity(records, SMALL)
        assert [contig for contig, *_ in expected] == ["chrA"] * 8 + ["chrB"] * 8
        only_low = [records[0], records[2]]
        assert assert_same_activity(only_low, SMALL) == []

    def test_star_qual_and_qual_shorter_than_seq(self):
        records = [
            read_over("chrA", 4, "12M", "*", edits=(2,)),
            read_over("chrA", 6, "4M2I6M", encode_quals([30] * 7), edits=(1,)),
            read_over("chrA", 9, "12M", encode_quals([30] * 5)),
        ]
        expected = assert_same_activity(records, SMALL)
        # 4M at 6..9, then one of the six bases after the insertion
        # (read offset 6); the third read's first five bases.
        assert [pos for _, pos, *_ in expected] == list(range(6, 14))
        assert assert_same_activity(records, SMALL,
                                    GenomicInterval("chrA", 8, 11))

    @pytest.mark.parametrize("start,end", [
        (1, 8), (8, 12), (12, 40), (10, 11), (1, 5), (15, 15), (14, 48),
    ])
    def test_interval_clips_a_block_on_either_side(self, start, end):
        records = [read_over("chrA", 5, "10M", [30] * 10, edits=(0, 5, 9)),
                   read_over("chrA", 7, "4M2D4M", [30, 30, 3, 30] * 2,
                             edits=(3,))]
        interval = GenomicInterval("chrA", start, end)
        expected = assert_same_activity(records, SMALL, interval)
        assert all(start <= pos < end for _, pos, *_ in expected)

    def test_two_contigs_interleaved_in_input_order(self):
        records = [
            read_over(contig, pos, "9M", [30] * 9, edits=(pos % 9,))
            for pos, contig in enumerate(["chrB", "chrA"] * 6, start=2)
        ]
        expected = assert_same_activity(records, SMALL)
        contigs = [contig for contig, *_ in expected]
        assert contigs == sorted(contigs, reverse=True)  # chrB was seen first
        assert_same_activity(records, SMALL, GenomicInterval("chrA", 4, 12))

    @pytest.mark.parametrize("indel", ["2I", "2D"])
    @pytest.mark.parametrize("last_base,disagreeing", [
        ("mismatches", 1), ("matches", 1), ("fails quality", None),
    ])
    def test_an_indel_after_a_block_counts_its_anchor_once(
            self, indel, last_base, disagreeing):
        quals = [30] * 5 + ([2] if last_base == "fails quality" else [30])
        quals += [30] * (6 if indel == "2I" else 4)
        edits = (5,) if last_base == "mismatches" else ()
        records = [read_over("chrA", 10, f"6M{indel}4M", quals, edits=edits)]
        expected = assert_same_activity(records, SMALL)
        anchor = [row for row in expected if row[1] == 15]
        if disagreeing is None:
            assert anchor == []
        else:
            assert anchor == [("chrA", 15, 1, disagreeing)]
        assert sum(row[3] for row in expected) == (disagreeing or 0)

    @pytest.mark.parametrize("cigar", ["6M3I", "6M2D"])
    def test_a_trailing_indel(self, cigar):
        for edits in ((), (5,)):
            records = [read_over("chrA", 10, cigar, [30] * (9 if "I" in cigar else 6),
                                 edits=edits)]
            expected = assert_same_activity(records, SMALL)
            assert expected[-1] == ("chrA", 15, 1, 1)

    def test_a_deletion_running_past_the_contig_end_anchors_nothing(self):
        end = SMALL.contig_length("chrB")
        records = [read_over("chrB", end - 5, "6M3D", [30] * 6),
                   read_over("chrB", end - 7, "6M2D", [30] * 6)]
        expected = assert_same_activity(records, SMALL)
        by_pos = {pos: disagreeing for _, pos, _, disagreeing in expected}
        assert by_pos[end] == 0  # ``_indel_after`` returns None
        assert by_pos[end - 2] == 1  # the 2D that does fit

    def test_duplicates_unmapped_and_low_mapq_reads_are_skipped(self):
        kept = read_over("chrA", 5, "10M", [30] * 10, edits=(3,))
        records = [
            read_over("chrA", 5, "10M", [30] * 10, flags=F.DUPLICATE),
            read_over("chrA", 6, "10M", [30] * 10, flags=F.UNMAPPED),
            read_over("chrA", 7, "10M", [30] * 10, flags=F.SECONDARY),
            read_over("chrA", 8, "10M", [30] * 10, mapq=12),
            kept,
        ]
        assert assert_same_activity(records, SMALL) == list(
            parent.pileup_activity([kept], SMALL))
        with_duplicates = PileupConfig(min_mapq=0, include_duplicates=True)
        expected = assert_same_activity(records, SMALL, None, with_duplicates)
        assert max(depth for *_, depth, _ in expected) == 3

    @pytest.mark.parametrize("qual", ["IIéI", "II I"])
    def test_bad_qual_text_raises_the_same_error(self, qual):
        record = read_over("chrA", 5, "4M", qual)
        for activity in (pileup_activity, parent.pileup_activity):
            with pytest.raises(FormatError):
                list(activity([record], SMALL))
        with pytest.raises(FormatError):
            list(build_pileup([record], SMALL))

    @pytest.mark.parametrize("low_tail", [0, 1, 2, 3])
    def test_seq_shorter_than_its_cigar_and_qual(self, low_tail):
        # The parent indexed past SEQ's end (IndexError) at the first
        # passing base that has no SEQ character, and piled the read up
        # when every missing base failed quality; the block is now a
        # FormatError either way, in both passes.
        record = read_over("chrA", 5, "10M", [30] * (10 - low_tail) + [2] * low_tail,
                           edits=(1,))
        record.seq = record.seq[:7]
        records = [read_over("chrA", 4, "8M", [30] * 8), record]
        if low_tail == 3:
            assert max(pos for _, pos, *_ in
                       parent.pileup_activity(records, SMALL)) == 11
        else:
            with pytest.raises(IndexError):
                list(parent.pileup_activity(records, SMALL))
        for pile in (pileup_activity, build_pileup):
            with pytest.raises(FormatError, match="SEQ is shorter"):
                list(pile(records, SMALL))
        # A block the interval clips short of the missing bases is fine.
        assert_same_activity(records, SMALL, GenomicInterval("chrA", 1, 12))

    @settings(max_examples=150, deadline=None)
    @given(
        reads=st.lists(st.tuples(
            st.sampled_from(["chrA", "chrB"]),
            st.integers(1, 12),
            st.lists(st.tuples(st.integers(1, 5), st.sampled_from("MMM=X"),
                               st.sampled_from(["", "1I", "2D", "3N", "2I"])),
                     min_size=1, max_size=3),
            st.lists(st.sampled_from([0, 5, 6, 19, 20, 40]),
                     min_size=24, max_size=24),
            st.sets(st.integers(0, 20), max_size=4),
            st.sampled_from([0, 0, 0, F.REVERSE, F.DUPLICATE]),
        ), max_size=8),
        floor=st.sampled_from(FLOORS),
        clip=st.one_of(st.none(), st.tuples(
            st.sampled_from(["chrA", "chrB"]), st.integers(1, 20),
            st.integers(0, 20))),
        short=st.booleans(),
    )
    def test_property_identical_to_the_parent_body(self, reads, floor, clip,
                                                   short):
        records = []
        for contig, pos, blocks, quals, edits, flags in reads:
            text = "".join(f"{length}{op}{gap}" for length, op, gap in blocks)
            cigar = Cigar.parse(text)
            length = cigar.query_length()
            record = read_over(contig, pos, text, quals[:length], flags,
                               edits=[e for e in edits if e < length])
            if short:
                record.qual = record.qual[: max(1, length - 2)]
            records.append(record)
        interval = None
        if clip is not None:
            interval = GenomicInterval(clip[0], clip[1], clip[1] + clip[2])
        assert_same_activity(records, SMALL, interval,
                             PileupConfig(min_base_quality=floor))


# -- seeding and voting -------------------------------------------------------
def flattened(index, read, stride):
    return [(offset, hit) for offset, hits in index.seed_hits(read, stride)
            for hit in hits]


class TestSeedingAgainstParentBody:
    def test_short_exact_missing_repetitive_and_multi_hit_kmers(self):
        unique = "ACGTTGCAAGGCTTAACCGGTACGATCGATTACAGGCTTAAGCCGTATTGACCAGTAGG"
        twice = "GATTACAGATTACCAGGATC"
        contig = unique + twice + "TCTCTCTCTCTCTCTCTCTCTCTCTCTCTC" + twice + "CCATG"
        index = ReferenceIndex(ReferenceGenome({"chrA": contig}), k=11,
                               max_hits_per_kmer=3)
        assert index.is_repetitive("TCTCTCTCTCT")
        reads = {
            "shorter than k": unique[:10],
            "empty": "",
            "exactly k": unique[5:16],
            "no hit": "A" * 30,
            "repetitive": "TC" * 15,
            "multi-hit": twice,
            "mixed": unique[20:45] + twice + "TCTCTCTCTCTCTC",
        }
        counts = {}
        for name, read in reads.items():
            for stride in (1, 3, 7, 11):
                expected = list(parent.seed_read(index, read, stride))
                assert flattened(index, read, stride) == expected, name
                assert list(index.seed_read(read, stride)) == expected, name
            counts[name] = len(list(parent.seed_read(index, read, 1)))
        assert counts["shorter than k"] == counts["empty"] == 0
        assert counts["exactly k"] == 1
        assert counts["no hit"] == counts["repetitive"] == 0
        assert counts["multi-hit"] == 2 * (len(twice) - 11 + 1)

    def test_seeded_reads_of_the_shared_reference(self, ref_index, reference):
        rng = random.Random(41)
        for _ in range(300):
            contig = rng.choice(reference.contig_names())
            start = rng.randint(1, reference.contig_length(contig) - 120)
            read = reference.fetch(contig, start, start + rng.randint(5, 110))
            assert flattened(ref_index, read, 7) == list(
                parent.seed_read(ref_index, read, 7))

    def test_vote_on_two_thousand_reads_incl_the_hard_regions(
            self, ref_index, reference):
        rng = random.Random(43)
        hard = list(reference.duplications.intervals()) + list(
            reference.centromeres.intervals())
        assert hard
        aligners = [
            BwaMemLite(ref_index),
            BwaMemLite(ref_index, AlignerConfig(min_seed_votes=2,
                                                max_candidates=1)),
        ]
        multi_anchor = 0
        for number in range(2200):
            if number % 4 == 0:  # a read overlapping a duplication / centromere
                region = rng.choice(hard)
                contig = region.contig
                start = rng.randint(max(1, region.start - 60),
                                    max(1, region.end - 40))
            else:
                contig = rng.choice(reference.contig_names())
                start = rng.randint(1, reference.contig_length(contig) - 101)
            start = min(start, reference.contig_length(contig) - 100)
            read = list(reference.fetch(contig, start, start + 100))
            for _ in range(rng.choice([0, 0, 1, 3])):
                read[rng.randrange(100)] = rng.choice("ACGT")
            if rng.random() < 0.15:  # an indel: anchors a few bases apart
                cut = rng.randint(30, 70)
                del read[cut : cut + rng.randint(1, 4)]
            read = "".join(read)
            if rng.random() < 0.5:
                read = reverse_complement(read)
            for aligner in aligners:
                expected = parent.vote(aligner, read)
                assert aligner._vote(read) == expected
            multi_anchor += len(parent.vote(aligners[0], read)) > 1
        assert multi_anchor > 100  # the merge-and-rank path was taken


class TestUngappedAgainstParentBody:
    @settings(max_examples=300, deadline=None)
    @given(
        read=st.text("ACGT", min_size=1, max_size=30),
        window=st.text("ACGT", max_size=40),
        offset=st.integers(-3, 45),
        max_mismatches=st.integers(0, 30),
        planted=st.booleans(),
    )
    def test_property_identical_to_the_parent_body(self, read, window, offset,
                                                   max_mismatches, planted):
        if planted and 0 <= offset <= len(window):
            # mostly matching: the window holds the read at ``offset``
            window = window[:offset] + read + window[offset:]
        assert sw_result(
            ungapped_alignment(read, window, offset, max_mismatches)
        ) == sw_result(
            parent.ungapped_alignment(read, window, offset, max_mismatches)
        )

    def test_the_threshold_is_inclusive(self):
        window = "ACGTACGTACGT"
        read = "ACGAACGAACGA"  # three mismatches
        assert ungapped_alignment(read, window, 0, 2) is None
        assert sw_result(ungapped_alignment(read, window, 0, 3)) == (
            -3, "12M", 0, 3)
        assert sw_result(ungapped_alignment(window, window, 0, 0)) == (
            12, "12M", 0, 0)
