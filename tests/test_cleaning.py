"""Unit tests for the cleaning stages (PicardTools equivalents)."""

import pytest

from repro.cleaning.clean_sam import CleanSam
from repro.cleaning.duplicates import (
    MarkDuplicates,
    duplicate_count,
    fragment_key,
    mark_duplicates_in_place,
    pair_key,
    pair_score,
)
from repro.cleaning.fix_mate import FixMateInformation
from repro.cleaning.read_groups import AddOrReplaceReadGroups
from repro.cleaning.sort import SortSam
from repro.errors import PipelineError
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.sam import SamHeader, SamRecord, encode_quals


def rec(qname="r1", flag_bits=0, rname="chr1", pos=100, mapq=60,
        cigar="10M", seq="ACGTACGTAC", quals=None, **kw):
    quals = quals or [30] * 10
    return SamRecord(
        qname, F.SamFlags(flag_bits), rname, pos, mapq, Cigar.parse(cigar),
        seq=seq, qual=encode_quals(quals), **kw,
    )


def header():
    return SamHeader(sequences=[("chr1", 9000), ("chr2", 7000)])


def make_pair(qname, pos1, pos2, cigar1="10M", cigar2="10M", quals=None,
              rname="chr1", mapped2=True):
    bits1 = F.PAIRED | F.FIRST_IN_PAIR
    bits2 = F.PAIRED | F.SECOND_IN_PAIR | F.REVERSE
    if not mapped2:
        bits2 = F.PAIRED | F.SECOND_IN_PAIR | F.UNMAPPED
        bits1 |= F.MATE_UNMAPPED
    end1 = rec(qname, bits1, rname, pos1, cigar=cigar1, quals=quals)
    end2 = rec(
        qname, bits2, rname, pos2,
        cigar="*" if not mapped2 else cigar2,
        mapq=0 if not mapped2 else 60,
        quals=quals,
    )
    return end1, end2


class TestAddOrReplaceReadGroups:
    def test_tags_every_record(self):
        program = AddOrReplaceReadGroups(group_id="G7", sample="S")
        out_header, out = program.run(header(), [rec("a"), rec("b")])
        assert all(r.tags["RG"] == "G7" for r in out)
        assert out_header.read_groups[0]["ID"] == "G7"
        assert out_header.read_groups[0]["SM"] == "S"

    def test_replaces_existing_group(self):
        record = rec("a")
        record.tags["RG"] = "OLD"
        _, out = AddOrReplaceReadGroups(group_id="NEW").run(header(), [record])
        assert out[0].tags["RG"] == "NEW"

    def test_input_not_mutated(self):
        record = rec("a")
        AddOrReplaceReadGroups().run(header(), [record])
        assert "RG" not in record.tags


class TestCleanSam:
    def test_drops_overhanging_alignment(self):
        overhang = rec("a", pos=8995, cigar="10M")
        ok = rec("b", pos=100)
        program = CleanSam()
        _, out = program.run(header(), [overhang, ok])
        assert [r.qname for r in out] == ["b"]
        assert program.stats.dropped_overhanging == 1

    def test_fixes_unmapped_mapq_and_cigar(self):
        bad = rec("a", flag_bits=F.UNMAPPED, mapq=60, cigar="10M")
        program = CleanSam()
        _, out = program.run(header(), [bad])
        assert out[0].mapq == 0
        assert str(out[0].cigar) == "*"
        assert program.stats.fixed_unmapped_mapq == 1
        assert program.stats.cleared_unmapped_cigar == 1

    def test_drops_unknown_contig(self):
        _, out = CleanSam().run(header(), [rec("a", rname="chrZ")])
        assert out == []

    def test_mapq_255_normalised(self):
        _, out = CleanSam().run(header(), [rec("a", mapq=255)])
        assert out[0].mapq == 0

    def test_clean_input_passes_through(self):
        records = [rec("a"), rec("b", pos=200)]
        program = CleanSam()
        _, out = program.run(header(), records)
        assert len(out) == 2
        assert program.stats.records_in == 2
        assert program.stats.records_out == 2


class TestFixMateInformation:
    def test_mate_fields_filled(self):
        end1, end2 = make_pair("p", 100, 300)
        _, out = FixMateInformation().run(header(), [end1, end2])
        first = next(r for r in out if r.flags.is_first_in_pair)
        second = next(r for r in out if r.flags.is_second_in_pair)
        assert first.pnext == 300
        assert second.pnext == 100
        assert first.rnext == "="
        assert first.tags["MC"] == "10M"
        assert first.tags["MQ"] == "60"

    def test_tlen_signed_and_symmetric(self):
        end1, end2 = make_pair("p", 100, 300)
        _, out = FixMateInformation().run(header(), [end1, end2])
        tlens = sorted(r.tlen for r in out)
        assert tlens[0] == -tlens[1]
        assert tlens[1] == 300 + 9 - 100 + 1

    def test_mate_unmapped_flags(self):
        end1, end2 = make_pair("p", 100, 100, mapped2=False)
        _, out = FixMateInformation().run(header(), [end1, end2])
        first = next(r for r in out if r.flags.is_first_in_pair)
        assert first.flags.is_mate_unmapped
        assert first.tlen == 0

    def test_unpaired_read_passthrough(self):
        single = rec("solo")
        _, out = FixMateInformation().run(header(), [single])
        assert out == [single]

    def test_missing_mate_raises(self):
        end1, _ = make_pair("p", 100, 300)
        with pytest.raises(PipelineError):
            FixMateInformation().run(header(), [end1])


class TestSortSam:
    def test_coordinate_order(self):
        records = [rec("a", pos=500), rec("b", pos=10, rname="chr2"),
                   rec("c", pos=100)]
        _, out = SortSam("coordinate").run(header(), records)
        assert [r.qname for r in out] == ["c", "a", "b"]

    def test_unmapped_sort_last(self):
        unmapped = rec("u", flag_bits=F.UNMAPPED, rname="*", pos=0, cigar="*")
        mapped = rec("m", pos=100)
        _, out = SortSam("coordinate").run(header(), [unmapped, mapped])
        assert [r.qname for r in out] == ["m", "u"]

    def test_queryname_order(self):
        records = [
            rec("b", flag_bits=F.PAIRED | F.SECOND_IN_PAIR),
            rec("a", flag_bits=F.PAIRED | F.FIRST_IN_PAIR),
            rec("b", flag_bits=F.PAIRED | F.FIRST_IN_PAIR),
        ]
        _, out = SortSam("queryname").run(header(), records)
        assert [(r.qname, r.flags.is_second_in_pair) for r in out] == [
            ("a", False), ("b", False), ("b", True)
        ]

    def test_header_sort_order_updated(self):
        out_header, _ = SortSam("coordinate").run(header(), [])
        assert out_header.sort_order == "coordinate"

    def test_invalid_order_rejected(self):
        with pytest.raises(PipelineError):
            SortSam("banana")


class TestMarkDuplicatesKeys:
    def test_fragment_key_uses_unclipped_end(self):
        plain = rec("a", pos=100, cigar="10M")
        clipped = rec("b", pos=103, cigar="3S7M")
        assert fragment_key(plain) == fragment_key(clipped)

    def test_pair_key_orientation_independent(self):
        e1, e2 = make_pair("p", 100, 300)
        assert pair_key(e1, e2) == pair_key(e2, e1)

    def test_pair_score_sums_good_bases(self):
        e1, e2 = make_pair("p", 100, 300, quals=[20] * 10)
        assert pair_score(e1, e2) == 400


class TestMarkDuplicates:
    def test_duplicate_pair_marked(self):
        pair_a = make_pair("a", 100, 300, quals=[35] * 10)
        pair_b = make_pair("b", 100, 300, quals=[20] * 10)
        records = [*pair_a, *pair_b]
        stats = mark_duplicates_in_place(records)
        assert stats.duplicate_pairs == 1
        assert not pair_a[0].flags.is_duplicate
        assert pair_b[0].flags.is_duplicate
        assert pair_b[1].flags.is_duplicate

    def test_unclipped_end_equivalence(self):
        # Same physical fragment, one copy clipped: still duplicates.
        pair_a = make_pair("a", 100, 300, quals=[35] * 10)
        pair_b = make_pair("b", 103, 300, cigar1="3S7M", quals=[20] * 10)
        records = [*pair_a, *pair_b]
        stats = mark_duplicates_in_place(records)
        assert stats.duplicate_pairs == 1

    def test_different_positions_not_duplicates(self):
        records = [*make_pair("a", 100, 300), *make_pair("b", 150, 350)]
        stats = mark_duplicates_in_place(records)
        assert stats.duplicate_pairs == 0
        assert duplicate_count(records) == 0

    def test_partial_matching_vs_complete_pair(self):
        complete = make_pair("a", 100, 300)
        partial = make_pair("b", 100, 100, mapped2=False)
        records = [*complete, *partial]
        stats = mark_duplicates_in_place(records)
        # The partial's mapped read coincides with a complete pair's 5'
        # end => duplicate (criterion 2); the complete pair survives.
        assert partial[0].flags.is_duplicate
        assert not complete[0].flags.is_duplicate
        assert stats.duplicate_fragments == 1

    def test_partials_compete_among_themselves(self):
        p1 = make_pair("a", 100, 100, mapped2=False, quals=[35] * 10)
        p2 = make_pair("b", 100, 100, mapped2=False, quals=[20] * 10)
        records = [*p1, *p2]
        mark_duplicates_in_place(records)
        assert not p1[0].flags.is_duplicate
        assert p2[0].flags.is_duplicate

    def test_unmapped_reads_never_marked(self):
        partial = make_pair("a", 100, 100, mapped2=False)
        mark_duplicates_in_place(list(partial))
        assert not partial[1].flags.is_duplicate

    def test_strand_is_part_of_key(self):
        # Same positions but the pair orientations differ: not duplicates.
        e1 = rec("a", F.PAIRED | F.FIRST_IN_PAIR, pos=100)
        e2 = rec("a", F.PAIRED | F.SECOND_IN_PAIR | F.REVERSE, pos=300)
        f1 = rec("b", F.PAIRED | F.FIRST_IN_PAIR | F.REVERSE, pos=100)
        f2 = rec("b", F.PAIRED | F.SECOND_IN_PAIR, pos=300)
        stats = mark_duplicates_in_place([e1, e2, f1, f2])
        assert stats.duplicate_pairs == 0

    def test_tie_broken_by_encounter_order(self):
        pair_a = make_pair("a", 100, 300, quals=[30] * 10)
        pair_b = make_pair("b", 100, 300, quals=[30] * 10)
        forward = [*pair_a, *pair_b]
        mark_duplicates_in_place(forward)
        winner_forward = "a" if not pair_a[0].flags.is_duplicate else "b"
        pair_a2 = make_pair("a", 100, 300, quals=[30] * 10)
        pair_b2 = make_pair("b", 100, 300, quals=[30] * 10)
        mark_duplicates_in_place([*pair_b2, *pair_a2])
        winner_reversed = "a" if not pair_a2[0].flags.is_duplicate else "b"
        assert winner_forward != winner_reversed

    def test_program_wrapper_counts(self, sam_header, aligned):
        program = MarkDuplicates()
        _, out = program.run(sam_header, aligned[:400])
        assert duplicate_count(out) == program.stats.duplicate_records

    def test_full_dataset_duplicates_found(self, sam_header, aligned,
                                           fragments):
        program = MarkDuplicates()
        _, out = program.run(sam_header, aligned)
        truth_dups = sum(1 for f in fragments if f.is_duplicate)
        found_pairs = program.stats.duplicate_pairs
        # Most simulated PCR duplicates are detected (some end up in
        # partial matchings or unmapped).
        assert found_pairs + program.stats.duplicate_fragments > 0.5 * truth_dups

    def test_rerun_is_idempotent_in_count(self, sam_header, aligned):
        program = MarkDuplicates()
        _, once = program.run(sam_header, aligned[:600])
        count_once = duplicate_count(once)
        _, twice = MarkDuplicates().run(sam_header, once)
        assert duplicate_count(twice) == count_once
