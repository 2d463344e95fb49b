"""Edge-case and error-path tests across modules."""

import random

import pytest

from repro.cleaning.fix_mate import _template_length
from repro.errors import (
    BamError,
    HdfsError,
    MapReduceError,
    PartitioningError,
    PipelineError,
    ReproError,
)
from repro.formats import flags as F
from repro.formats.bam import BamLinearIndex, bam_bytes, iter_frames, read_bam
from repro.formats.cigar import Cigar
from repro.formats.sam import SamHeader, SamRecord, encode_quals
from repro.formats.vcf import VariantRecord
from repro.gdpt.bloom import BloomFilter
from repro.mapreduce.blocks import RecordBlock
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobSpec, _default_value_size, make_splits
from repro.shuffle.codec import get_codec
from repro.shuffle.keys import stable_hash_partition
from repro.shuffle.segment import decode_segment, encode_segment
from repro.shuffle.spill import SpillBuffer


def rec(qname="r", pos=100, flag_bits=0, cigar="10M", rname="chr1"):
    return SamRecord(
        qname, F.SamFlags(flag_bits), rname, pos, 60, Cigar.parse(cigar),
        seq="ACGTACGTAC" if cigar != "*" else "ACGTACGTAC",
        qual=encode_quals([30] * 10),
    )


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for error_type in (BamError, HdfsError, MapReduceError,
                           PartitioningError, PipelineError):
            assert issubclass(error_type, ReproError)

    def test_catching_base_class(self):
        with pytest.raises(ReproError):
            raise BamError("boom")


class TestCigarExotics:
    def test_padding_op_consumes_nothing(self):
        cigar = Cigar.parse("5M2P5M")
        assert cigar.query_length() == 10
        assert cigar.reference_length() == 10

    def test_skip_op_consumes_reference_only(self):
        cigar = Cigar.parse("5M100N5M")
        assert cigar.query_length() == 10
        assert cigar.reference_length() == 110

    def test_equals_and_x_ops(self):
        cigar = Cigar.parse("5=2X3=")
        assert cigar.query_length() == 10
        assert cigar.reference_length() == 10

    def test_all_clips(self):
        cigar = Cigar.parse("5H5S")
        assert cigar.leading_clip() == 10
        assert cigar.is_fully_clipped()


class TestTemplateLength:
    def make(self, pos, reverse=False, unmapped=False, rname="chr1"):
        bits = F.PAIRED
        if reverse:
            bits |= F.REVERSE
        if unmapped:
            bits |= F.UNMAPPED
        return rec("p", pos=pos, flag_bits=bits, rname=rname)

    def test_leftmost_positive(self):
        left, right = self.make(100), self.make(300, reverse=True)
        assert _template_length(left, right) == 300 + 9 - 100 + 1
        assert _template_length(right, left) == -(300 + 9 - 100 + 1)

    def test_unmapped_zero(self):
        assert _template_length(self.make(100, unmapped=True),
                                self.make(300)) == 0

    def test_cross_contig_zero(self):
        assert _template_length(self.make(100),
                                self.make(300, rname="chr2")) == 0

    def test_same_position_uses_strand(self):
        fwd = self.make(100)
        back = self.make(100, reverse=True)
        assert _template_length(fwd, back) > 0
        assert _template_length(back, fwd) < 0


class TestBamEdges:
    def test_iter_frames_at_frame_offset(self):
        header = SamHeader(sequences=[("chr1", 500)])
        data = bam_bytes(header, [rec()], chunk_bytes=128)
        offsets = [offset for offset, _ in iter_frames(data)]
        # Re-entering at the second frame's offset works without magic.
        resumed = list(iter_frames(data, offsets[1]))
        assert len(resumed) == len(offsets) - 1

    def test_single_record_roundtrip(self):
        header = SamHeader(sequences=[("chr1", 500)])
        record = rec()
        _, out = read_bam(bam_bytes(header, [record]))
        assert out == [record]


class _MemoryIO:
    """The slice of the I/O layer a ``SpillBuffer`` uses, in memory."""

    def __init__(self):
        self.files = {}

    def write_atomic(self, path, data):
        self.files[path] = bytes(data)

    def read_bytes(self, path):
        return self.files.get(path)

    def unlink(self, path):
        self.files.pop(path, None)


def _spill_run(damaged=None):
    """A map task's one spilled run; with ``damaged``, that run file is
    overwritten before the task reads it back."""
    io = _MemoryIO()
    buffer = SpillBuffer(2, stable_hash_partition, None, 4, spill_io=io,
                         spill_dirs=("spill",))
    buffer.add_all((f"k{i % 5}", i) for i in range(6))
    [path] = io.files
    if damaged is None:
        return io.files[path]
    io.files[path] = damaged
    buffer.finish(get_codec("raw"))


def _frames():
    """One of each on-disk frame the rounds exchange, with its decoder."""
    header = SamHeader(sequences=[("chr1", 5000)], sort_order="coordinate")
    records = [rec(qname=f"r{i:03d}", pos=10 * i + 1) for i in range(50)]
    bam = bam_bytes(header, records, chunk_bytes=256)
    bloom = BloomFilter(num_bits=512)
    bloom.update(range(40))
    return {
        "bam": (bam, read_bam),
        "bai": (BamLinearIndex.build(bam).to_bytes(),
                BamLinearIndex.from_bytes),
        "gseg2": (encode_segment([(r.qname, r) for r in records],
                                 get_codec("zlib-1")).blob, decode_segment),
        "record_block": (RecordBlock(records).blob,
                         lambda blob: RecordBlock(blob=blob).decode()),
        "spill_run": (_spill_run(), _spill_run),
        "blm1": (bloom.to_bytes(), BloomFilter.from_bytes),
    }


class TestFrameFuzz:
    @pytest.mark.parametrize(
        "name", ["bam", "bai", "gseg2", "record_block", "spill_run", "blm1"]
    )
    def test_damaged_frames_raise_only_typed_errors(self, name):
        """Seeded bit-flips and truncations: a damaged frame decodes or
        raises a ``ReproError`` — never a bare ``zlib.error``,
        ``ValueError`` or ``struct.error``."""
        data, decode = _frames()[name]
        rng = random.Random(f"frame-fuzz|{name}")
        for _ in range(300):
            damaged = bytearray(data)
            if rng.random() < 0.5:
                bit = rng.randrange(len(damaged) * 8)
                damaged[bit >> 3] ^= 1 << (bit & 7)
            else:
                del damaged[rng.randrange(len(damaged)):]
            try:
                decode(bytes(damaged))
            except ReproError:
                pass


class TestVcfEdges:
    def test_info_free_roundtrip(self):
        variant = VariantRecord("chr1", 5, "A", "T", 10.0)
        parsed = VariantRecord.from_line(variant.to_line())
        assert parsed.info == {}

    def test_phased_genotype_preserved(self):
        variant = VariantRecord("chr1", 5, "A", "T", 10.0, genotype="1|0")
        assert VariantRecord.from_line(variant.to_line()).genotype == "1|0"

    def test_site_key_distinguishes_alleles(self):
        a = VariantRecord("chr1", 5, "A", "T", 10.0)
        b = VariantRecord("chr1", 5, "A", "G", 10.0)
        assert a.site_key() != b.site_key()


class TestValueSize:
    def test_record_size_uses_line(self):
        record = rec()
        assert _default_value_size(record) == len(record.to_line()) + 1

    def test_bytes_and_str(self):
        assert _default_value_size(b"abcd") == 4
        assert _default_value_size("abcd") == 5

    def test_tuple_of_records(self):
        record = rec()
        assert _default_value_size((record, record)) == 2 * (
            len(record.to_line()) + 1
        )

    def test_fallback_repr(self):
        assert _default_value_size(1234) == len("1234")


class TestEngineEdges:
    def test_composite_key_partitions_on_its_first_field(self):
        # Partition on the contig, sort on the coordinate: a composite
        # key and a partitioner that reads its first field.
        def mapper(payload, ctx):
            for contig, pos in payload:
                ctx.emit((contig, pos), pos)

        def reducer(key, values, ctx):
            ctx.emit(*key)

        job = JobSpec(
            "by-contig", mapper, reducer, num_reducers=3,
            partitioner=lambda key, n: stable_hash_partition(key[0], n),
        )
        items = [("chr2", 30), ("chr1", 20), ("chr2", 10), ("chr1", 5),
                 ("chr3", 7), ("chr3", 2)]
        result = MapReduceEngine().run(
            job, make_splits([items[:3], items[3:]])
        )
        partitions = list(result.reduce_outputs.values())
        assert all(pairs == sorted(pairs) for pairs in partitions)
        contigs = [{contig for contig, _ in pairs} for pairs in partitions]
        assert contigs == [{"chr1"}, {"chr3"}, {"chr2"}]
        assert sorted(result.all_outputs()) == sorted(items)

    def test_reducer_emitting_nothing(self):
        engine = MapReduceEngine()
        job = JobSpec(
            "silent", lambda p, c: c.emit("k", 1),
            lambda k, v, c: None, num_reducers=1,
        )
        result = engine.run(job, make_splits(["x"]))
        assert result.all_outputs() == []

    def test_single_node_engine(self):
        engine = MapReduceEngine(nodes=["only"])
        job = JobSpec("s", lambda p, c: c.emit(p, 1),
                      lambda k, v, c: c.emit(k, sum(v)), num_reducers=3)
        result = engine.run(job, make_splits(list("abcabc")))
        assert dict(result.all_outputs()) == {"a": 2, "b": 2, "c": 2}
        assert all(t.node == "only" for t in result.history.tasks)


class TestHeaderlessRecords:
    def test_unmapped_star_record_roundtrip(self):
        record = SamRecord(
            "u", F.SamFlags(F.PAIRED | F.UNMAPPED | F.MATE_UNMAPPED),
            "*", 0, 0, Cigar.parse("*"),
            seq="ACGT", qual=encode_quals([30] * 4),
        )
        assert SamRecord.from_line(record.to_line()) == record
        assert record.reference_end == 0
        assert not record.is_mapped
