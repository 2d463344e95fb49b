"""Unit tests for SAM flags, records and headers."""

import pytest

from repro.errors import CigarError, FormatError
from repro.formats import cigar as cigar_module
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.formats.sam import (
    SamHeader,
    SamRecord,
    decode_quals,
    encode_quals,
)


class TestFlags:
    def test_bits_roundtrip(self):
        flags = F.SamFlags(F.PAIRED | F.REVERSE | F.DUPLICATE)
        assert flags.is_paired
        assert flags.is_reverse
        assert flags.is_duplicate
        assert not flags.is_unmapped

    def test_with_bit_set_and_clear(self):
        flags = F.SamFlags(0)
        flags = flags.with_bit(F.DUPLICATE, True)
        assert flags.is_duplicate
        flags = flags.with_bit(F.DUPLICATE, False)
        assert not flags.is_duplicate

    def test_primary_excludes_secondary_and_supplementary(self):
        assert F.SamFlags(0).is_primary
        assert not F.SamFlags(F.SECONDARY).is_primary
        assert not F.SamFlags(F.SUPPLEMENTARY).is_primary

    def test_unknown_bits_masked(self):
        assert int(F.SamFlags(0x10000)) == 0

    def test_equality(self):
        assert F.SamFlags(5) == F.SamFlags(5)
        assert F.SamFlags(5) != F.SamFlags(4)


class TestQualityEncoding:
    def test_roundtrip(self):
        quals = [0, 10, 20, 40, 41]
        assert decode_quals(encode_quals(quals)) == quals

    def test_star_decodes_empty(self):
        assert decode_quals("*") == []

    def test_cap_at_93(self):
        assert decode_quals(encode_quals([200])) == [93]

    def test_every_score_from_93_up_clamps(self):
        # > 255 too, which bytes() alone would reject.
        assert encode_quals([92, 93, 94, 255, 256, 10 ** 6]) == "}~~~~~"

    def test_every_byte_value_matches_the_scalar_formula(self):
        scores = list(range(256))
        assert encode_quals(scores) == "".join(
            chr(min(q, 93) + 33) for q in scores
        )
        text = "".join(chr(c) for c in range(33, 127))
        assert decode_quals(text) == [ord(ch) - 33 for ch in text]

    def test_iterables_and_empty_input(self):
        assert encode_quals(q for q in (0, 40)) == "!I"
        assert encode_quals([]) == ""
        assert decode_quals("") == []

    @pytest.mark.parametrize("scores", [[-1], [30, -1, 30], [-34], [300, -2]])
    def test_negative_score_is_a_format_error(self, scores):
        with pytest.raises(FormatError, match="negative base quality"):
            encode_quals(scores)

    @pytest.mark.parametrize("text", ["II\u00e9I", "\u2603", "I I", "II\tI"])
    def test_unprintable_qual_text_is_a_format_error(self, text):
        with pytest.raises(FormatError, match="QUAL text"):
            decode_quals(text)


def make_record(**overrides):
    defaults = dict(
        qname="read1",
        flags=F.SamFlags(F.PAIRED | F.FIRST_IN_PAIR),
        rname="chr1",
        pos=100,
        mapq=60,
        cigar=Cigar.parse("10M"),
        rnext="=",
        pnext=300,
        tlen=210,
        seq="ACGTACGTAC",
        qual=encode_quals([30] * 10),
        tags={"RG": "RG1"},
    )
    defaults.update(overrides)
    return SamRecord(**defaults)


class TestSamRecord:
    def test_line_roundtrip(self):
        record = make_record()
        assert SamRecord.from_line(record.to_line()) == record

    def test_from_line_rejects_short(self):
        with pytest.raises(FormatError):
            SamRecord.from_line("a\tb\tc")

    def test_malformed_tag_rejected(self):
        line = make_record().to_line() + "\tbadtag"
        with pytest.raises(FormatError):
            SamRecord.from_line(line)

    @pytest.mark.parametrize("name,index,text", [
        ("FLAG", 1, "0x63"), ("POS", 3, "1e3"), ("MAPQ", 4, ""),
        ("PNEXT", 7, "12.5"), ("TLEN", 8, "--7"),
    ])
    def test_non_integer_field_is_a_format_error(self, name, index, text):
        fields = make_record().to_line().split("\t")
        fields[index] = text
        with pytest.raises(FormatError) as caught:
            SamRecord.from_line("\t".join(fields))
        assert name in str(caught.value) and repr(text) in str(caught.value)

    def test_malformed_cigar_is_never_interned(self):
        fields = make_record().to_line().split("\t")
        fields[5] = "10M5"
        for _ in range(2):  # the second parse must fail like the first
            with pytest.raises(CigarError):
                SamRecord.from_line("\t".join(fields))
        assert "10M5" not in cigar_module._interned

    def test_reference_end(self):
        assert make_record().reference_end == 109

    def test_unclipped_five_prime_forward(self):
        record = make_record(cigar=Cigar.parse("2S8M"), seq="ACGTACGTAC")
        assert record.unclipped_five_prime == 98

    def test_unclipped_five_prime_reverse(self):
        record = make_record(
            flags=F.SamFlags(F.PAIRED | F.REVERSE),
            cigar=Cigar.parse("8M2S"),
        )
        assert record.unclipped_five_prime == 100 + 7 + 2

    def test_sum_of_base_qualities_threshold(self):
        record = make_record(qual=encode_quals([10, 20, 30, 30, 5, 15, 15, 15, 15, 15]))
        assert record.sum_of_base_qualities(minimum=15) == 20 + 30 + 30 + 15 * 5

    @pytest.mark.parametrize("qual", ["*", "!", "!+5?I~", "IIIIIIIIII"])
    def test_qual_bytes_are_the_scores_of_base_qualities(self, qual):
        record = make_record(qual=qual)
        assert list(record.qual_bytes()) == record.base_qualities()
        assert isinstance(record.qual_bytes(), bytes)

    @pytest.mark.parametrize("qual", ["IIéI", "II I"])
    def test_qual_bytes_reject_what_base_qualities_reject(self, qual):
        record = make_record(qual=qual)
        for accessor in (record.base_qualities, record.qual_bytes):
            with pytest.raises(FormatError):
                accessor()

    def test_set_duplicate(self):
        record = make_record()
        record.set_duplicate(True)
        assert record.flags.is_duplicate
        record.set_duplicate(False)
        assert not record.flags.is_duplicate

    def test_copy_is_deep_for_tags(self):
        record = make_record()
        dup = record.copy()
        dup.tags["RG"] = "other"
        assert record.tags["RG"] == "RG1"

    def test_copy_owns_tags_and_flags_and_may_share_the_cigar(self):
        record = make_record()
        dup = record.copy()
        assert dup.tags == record.tags and dup.tags is not record.tags
        assert dup.flags == record.flags and dup.flags is not record.flags
        dup.set_duplicate(True)
        dup.tags["MC"] = "10M"
        assert not record.flags.is_duplicate and "MC" not in record.tags
        assert dup.cigar is record.cigar  # immutable: shared, not re-parsed
        built = make_record()
        built.cigar = Cigar([(7, "M"), (3, "S")])  # never went through parse
        assert built.copy().cigar is built.cigar
        assert dup.to_line() != record.to_line()

    def test_tags_serialized_sorted(self):
        record = make_record(tags={"ZB": "2", "AA": "1"})
        line = record.to_line()
        assert line.index("AA:Z:1") < line.index("ZB:Z:2")


class TestSamHeader:
    def test_text_roundtrip(self):
        header = SamHeader(
            sequences=[("chr1", 9000), ("chr2", 7000)],
            read_groups=[{"ID": "RG1", "SM": "S1"}],
            sort_order="coordinate",
        )
        header.add_program(ID="bwa", VN="1.0")
        parsed = SamHeader.from_text(header.to_text())
        assert parsed == header

    def test_sequence_lookup(self):
        header = SamHeader(sequences=[("chr1", 9000), ("chr2", 7000)])
        assert header.sequence_length("chr2") == 7000
        assert header.sequence_names() == ["chr1", "chr2"]

    def test_unknown_sequence_raises(self):
        header = SamHeader(sequences=[("chr1", 9000)])
        with pytest.raises(FormatError):
            header.sequence_length("chrZ")

    def test_copy_independent(self):
        header = SamHeader(sequences=[("chr1", 10)])
        dup = header.copy()
        dup.sequences.append(("chr2", 20))
        assert len(header.sequences) == 1

