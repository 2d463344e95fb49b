"""Unit tests for FASTQ, BAM container and VCF formats."""

import random

import pytest

from repro.cleaning.sort import coordinate_key
from repro.errors import BamError, FormatError
from repro.formats import flags as F
from repro.formats.bam import (
    BamLinearIndex,
    bam_bytes,
    encode_bam,
    encode_bam_lines,
    iter_frames,
    read_bam,
)
from repro.formats.cigar import Cigar
from repro.formats.fastq import (
    FastqRecord,
    interleave,
    read_fastq,
    write_fastq,
)
from repro.formats.sam import SamHeader, SamRecord, encode_quals
from repro.formats.vcf import VariantRecord, read_vcf, sort_variants, write_vcf

from tests import reference_kernels as oracle


def fastq(name, n=10):
    return FastqRecord(name, "A" * n, [30] * n)


class TestFastq:
    def test_length_mismatch_rejected(self):
        with pytest.raises(FormatError):
            FastqRecord("r1", "ACGT", [30, 30])

    def test_file_roundtrip(self, tmp_path):
        records = [fastq(f"r{i}") for i in range(4)]
        path = str(tmp_path / "t.fastq")
        write_fastq(path, records)
        assert list(read_fastq(path)) == records

    def test_interleave_pairs_by_name(self):
        fwd = [fastq("a/1"), fastq("b/1")]
        rev = [fastq("a/2"), fastq("b/2")]
        pairs = list(interleave(fwd, rev))
        assert [(p[0].name, p[1].name) for p in pairs] == [
            ("a/1", "a/2"), ("b/1", "b/2")
        ]

    def test_interleave_name_mismatch(self):
        with pytest.raises(FormatError):
            list(interleave([fastq("a/1")], [fastq("b/2")]))

    def test_interleave_unequal_lengths(self):
        with pytest.raises(FormatError):
            list(interleave([fastq("a/1"), fastq("b/1")], [fastq("a/2")]))


def make_records(n, contig="chr1"):
    return [
        SamRecord(
            f"r{i:04d}", F.SamFlags(0), contig, 10 * i + 1, 60,
            Cigar.parse("8M"), seq="ACGTACGT", qual=encode_quals([30] * 8),
        )
        for i in range(n)
    ]


class TestBam:
    def test_roundtrip(self):
        header = SamHeader(sequences=[("chr1", 100000)])
        records = make_records(200)
        data = bam_bytes(header, records, chunk_bytes=512)
        got_header, got_records = read_bam(data)
        assert got_header == header
        assert got_records == records

    def test_empty_records(self):
        header = SamHeader(sequences=[("chr1", 100)])
        data = bam_bytes(header, [])
        got_header, got_records = read_bam(data)
        assert got_records == []
        assert got_header == header

    def test_read_header_only(self):
        header = SamHeader(sequences=[("chr1", 100000)], sort_order="coordinate")
        data = bam_bytes(header, make_records(50), chunk_bytes=128)
        assert read_bam(data)[0] == header

    def test_chunking_respects_target(self):
        header = SamHeader(sequences=[("chr1", 100000)])
        data = bam_bytes(header, make_records(300), chunk_bytes=400)
        assert len(list(iter_frames(data))) > 5  # header + many chunks

    def test_missing_magic_rejected(self):
        with pytest.raises(BamError):
            read_bam(b"not a bam file at all")

    def test_truncated_frame_rejected(self):
        header = SamHeader(sequences=[("chr1", 100)])
        data = bam_bytes(header, make_records(10))
        with pytest.raises(BamError):
            list(iter_frames(data[:-3]))

    def test_zero_chunk_bytes_rejected(self):
        with pytest.raises(BamError):
            bam_bytes(SamHeader(), [], chunk_bytes=0)


class TestBamLinearIndex:
    def test_build_and_seek(self):
        header = SamHeader(sequences=[("chr1", 100000)])
        records = make_records(200)
        data = bam_bytes(header, records, chunk_bytes=500)
        index = BamLinearIndex.build(data)
        assert index.chunk_count() > 1
        offset = index.first_chunk_at_or_after("chr1", 1001)
        assert offset is not None
        # Scanning from the seek point must reach position 1001.
        found = []
        hit = False
        for frame_offset, _ in iter_frames(data):
            if frame_offset >= offset:
                hit = True
            found.append(frame_offset)
        assert hit

    def test_seek_unknown_contig(self):
        header = SamHeader(sequences=[("chr1", 100000)])
        data = bam_bytes(header, make_records(50), chunk_bytes=500)
        index = BamLinearIndex.build(data)
        assert index.first_chunk_at_or_after("chrZ", 1) is None

    def test_serialization_roundtrip(self):
        header = SamHeader(sequences=[("chr1", 100000)])
        data = bam_bytes(header, make_records(80), chunk_bytes=400)
        index = BamLinearIndex.build(data)
        parsed = BamLinearIndex.from_bytes(index.to_bytes())
        assert parsed.entries == index.entries

    @pytest.mark.parametrize("chunk_bytes", [200, 8 * 1024, 64 * 1024])
    def test_one_line_per_chunk_matches_full_decode(self, chunk_bytes):
        """Refactoring guard: ``build`` parses only each chunk's first
        line; the index bytes must equal the full-decode body's."""
        header = SamHeader(
            sequences=[("chr1", 100000), ("chr2", 50000)],
            sort_order="coordinate",
        )
        rng = random.Random(chunk_bytes)
        for count in (0, 1, 2, 37, 400):
            records = make_records(count)
            for record in records:
                record.rname = rng.choice(["chr1", "chr2"])
                record.pos = rng.randrange(1, 50000)
            records.sort(key=coordinate_key(header))
            data = bam_bytes(header, records, chunk_bytes)
            index = BamLinearIndex.build(data)
            assert index.to_bytes() == BamLinearIndex(
                oracle.bam_index_entries(data)
            ).to_bytes()
            # count 0 is the header-only file, count 1 a one-record chunk
            assert index.chunk_count() == len(list(iter_frames(data))) - 1
            assert index.chunk_count() >= min(count, 1)

    @pytest.mark.parametrize("chunk_bytes", [200, 8 * 1024, 64 * 1024])
    def test_the_encoders_frame_heads_index_what_build_reads(self, chunk_bytes):
        """``of_heads`` over the ``(offset, first line)`` pairs
        ``encode_bam_lines`` returns is ``build`` over its bytes, which
        is the full-decode body's index."""
        header = SamHeader(sequences=[("chr1", 100000), ("chr2", 50000)])
        rng = random.Random(7 + chunk_bytes)
        for count in (0, 1, 2, 37, 400):
            records = make_records(count)
            for record in records:
                record.rname = rng.choice(["chr1", "chr2"])
                record.pos = rng.randrange(1, 50000)
            lines = [record.to_line() for record in records]
            data, size, heads = encode_bam_lines(header, lines, chunk_bytes)
            assert (data, size) == encode_bam(header, records, chunk_bytes)
            assert [offset for offset, _ in heads] == [
                offset for offset, _ in iter_frames(data)][1:]
            assert BamLinearIndex.of_heads(heads).entries == \
                BamLinearIndex.build(data).entries == \
                oracle.bam_index_entries(data)


class TestVcf:
    def test_line_roundtrip(self):
        variant = VariantRecord(
            "chr1", 1234, "A", "G", qual=87.5, genotype="0/1",
            info={"DP": 30.0, "MQ": 58.2},
        )
        assert VariantRecord.from_line(variant.to_line()) == variant

    def test_classification_snp(self):
        assert VariantRecord("chr1", 1, "A", "G", 50).is_snp
        assert not VariantRecord("chr1", 1, "A", "AG", 50).is_snp

    def test_transition_transversion(self):
        assert VariantRecord("chr1", 1, "A", "G", 50).is_transition
        assert VariantRecord("chr1", 1, "C", "T", 50).is_transition
        assert VariantRecord("chr1", 1, "A", "T", 50).is_transversion
        assert not VariantRecord("chr1", 1, "A", "AT", 50).is_transversion

    def test_heterozygosity(self):
        assert VariantRecord("chr1", 1, "A", "G", 50, genotype="0/1").is_heterozygous
        assert not VariantRecord("chr1", 1, "A", "G", 50, genotype="1/1").is_heterozygous
        assert VariantRecord("chr1", 1, "A", "G", 50, genotype="0|1").is_heterozygous

    def test_empty_alleles_rejected(self):
        with pytest.raises(FormatError):
            VariantRecord("chr1", 1, "", "G", 50)

    def test_file_roundtrip(self, tmp_path):
        variants = [
            VariantRecord("chr1", 5, "A", "T", 60.0),
            VariantRecord("chr2", 9, "G", "GA", 45.0, genotype="1/1"),
        ]
        path = str(tmp_path / "t.vcf")
        write_vcf(path, variants)
        assert list(read_vcf(path)) == variants

    def test_sort_variants(self):
        variants = [
            VariantRecord("chr2", 5, "A", "T", 60.0),
            VariantRecord("chr1", 9, "G", "C", 45.0),
            VariantRecord("chr1", 2, "G", "C", 45.0),
        ]
        ordered = sort_variants(variants)
        assert [(v.chrom, v.pos) for v in ordered] == [
            ("chr1", 2), ("chr1", 9), ("chr2", 5)
        ]
