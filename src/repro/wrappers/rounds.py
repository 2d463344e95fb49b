"""The five MapReduce rounds of the Gesall pipeline (Appendix A.2).

Round 1  map-only   Bwa alignment + SamToBam over streamed text
Round 2  full MR    AddReplaceReadGroups + CleanSam (map), SAM lines
                    shuffled by read name, FixMateInformation + bloom
                    sidecar (reduce), all as field kernels over lines
Round 3  full MR    compound-key extraction (map), SAM lines shuffled,
                    MarkDuplicates' FLAG rewrite + coordinate sort of the
                    lines (reduce); reg or opt (bloom) variant
Round 4  full MR    SAM lines keyed by coordinate, range partition by
                    chromosome, the merged lines framed + BAM index
Round 5  map-only   Haplotype Caller per sorted, indexed partition

Optional extra rounds implement BaseRecalibrator (group partitioning by
covariate) and PrintReads, matching Table 2 steps 7-8.  Every round is
one declared :class:`_Row` of module-level functions bound to picklable
parameters (a pool's live workers get it pickled), run by ``_run``.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

from repro.align.pairing import PairedEndAligner
from repro.api import (
    ExecutionPolicy, InputSplit, JobResult, JobSpec, MapReduceEngine,
    make_block_splits, run_job,
)
from repro.cleaning.clean_sam import clean_lines
from repro.cleaning.fix_mate import fix_mate_fields
from repro.cleaning.read_groups import AddOrReplaceReadGroups
from repro.cleaning.sort import coordinate_line_key
from repro.errors import DriverKilledError, MapReduceError, PipelineError
from repro.formats.bam import BamLinearIndex, bam_bytes, decode_bam
from repro.formats.bam import decode_bam_lines, encode_bam_lines
from repro.formats.fastq import ReadPair
from repro.formats.sam import SamHeader, join_fields, split_line
from repro.formats.vcf import VariantRecord, sort_variants
from repro.gdpt.bloom import BloomFilter
from repro.gdpt.partitioner import (
    MarkDupKeying, OverlappingRangePartitioner, build_partial_position_bloom,
    fields_fragment, mark_duplicate_lines, markdup_partition, records_by_pair,
)
from repro.genome.regions import GenomicInterval
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce import counters as C
from repro.mapreduce.commit import RoundJournal
from repro.shuffle.config import ShuffleConfig
from repro.recal.apply import PrintReads
from repro.recal.recalibrator import BaseRecalibrator, RecalibrationTable
from repro.variants.genotyper import UnifiedGenotyperLite
from repro.variants.haplotype import (
    HaplotypeCallerConfig, HaplotypeCallerLite, required_overlap,
)
from repro.variants.structural import GASVLite
from repro.wrappers.programs import (
    DataTransformAccounting, interleaved_text_to_pairs,
    pairs_to_interleaved_text, records_to_sam_text, sam_text_to_records,
)


class _Row(NamedTuple):
    """One round as the paper's wrapper declares it (§3.1): the wrapped
    program(s) as ``body(header, records, text_size, ctx)`` over one
    round BAM as ``decode`` reads it (SAM lines or records;
    ``body(pairs, ctx)`` over a sealed FASTQ block for a ``fastq``
    row), then a full round's keying, partition scheme and reduce-side
    output format."""

    key: str
    name: str
    body: Callable[..., None]
    reducer: Optional[Callable[..., None]] = None
    partitioner: Optional[Callable[[Any, int], int]] = None
    num_reducers: int = 1
    reduce_output: Optional[Callable[..., None]] = None
    fastq: bool = False
    decode: Callable[[bytes], Any] = decode_bam


def _write_lines(ctx, path: str, header: SamHeader, lines: List[str],
                 chunk_bytes: int, sort_key=None):
    """Rounds 2-4's line writer: sort by ``sort_key`` if given, frame in
    the ``encode`` span, ``write_file``; returns the lines' SAM-text
    size and the frames' ``(offset, first line)``."""
    with ctx.span("encode", records=len(lines)) as span:
        if sort_key is not None:
            lines.sort(key=sort_key)
        data, size, heads = encode_bam_lines(header, lines, chunk_bytes)
        span.set(bytes_out=len(data))
    ctx.write_file(path, data, logical_partition=True)
    return size, heads


def _read_round_bam(body, decode, split, ctx) -> None:
    """The one map-side reader of a round BAM, then the row's body."""
    with ctx.span("hdfs-read"):
        data = split.read(ctx.metrics)
    with ctx.span("decode"):
        header, records, size = decode(data)
    ctx.set_input_records(len(records))
    body(header, records, size, ctx)


def _align(aligner, chunk_bytes, out_dir, pairs, ctx) -> None:
    """Round 1: the FASTQ block to Bwa and SamToBam as the text Hadoop
    Streaming pipes (Fig 8), each step a section of the map phase."""
    with ctx.span("transform", what="fastq-render") as span:
        fastq = pairs_to_interleaved_text(pairs).encode()
        span.set(bytes=len(fastq))
    with ctx.span("transform", what="fastq-parse"):
        pairs = interleaved_text_to_pairs(fastq.decode())
    # One batch per task: its statistics are how partitioning
    # perturbs Bwa's output in the paper.
    with ctx.span("program", program="bwa-mem"):
        records = aligner.align_batch(pairs)
    with ctx.span("transform", what="sam-render") as span:
        sam = records_to_sam_text(aligner.header(), records).encode()
        span.set(bytes=len(sam))
    with ctx.span("transform", what="sam-parse"):
        header, records = sam_text_to_records(sam.decode())
    with ctx.span("encode", records=len(records)) as span:
        bam_data = bam_bytes(header, records, chunk_bytes)
        span.set(bytes_out=len(bam_data))
    path = f"{out_dir}/part-{ctx.task_index:05d}.bam"
    ctx.write_file(path, bam_data, logical_partition=True)
    ctx.emit(path, len(pairs))


def _clean(read_group, in_header, lines, size, ctx) -> None:
    """Round 2's map: AddOrReplaceReadGroups + CleanSam over lines."""
    accounting = ctx.attachment("transform", DataTransformAccounting)
    lines, staged = clean_lines(in_header, lines, read_group)
    cleaned = sum(map(len, lines)) + len(lines)  # SAM-text size
    # Decoded -> AddOrReplaceReadGroups -> CleanSam, one call each.
    for handed, back in ((size, staged), (staged, cleaned)):
        accounting.record_input((), handed)
        accounting.record_output((), back)
    # What CleanSam handed back is exactly what is emitted.
    ctx.set_output_bytes(cleaned)
    for line in lines:
        ctx.emit(line[:line.index("\t")], line)


def _write_cleaned(out_dir, header, chunk_bytes, pairs, ctx) -> None:
    """Round 2's output: FixMateInformation, the BAM and its bloom."""
    lines = [line for _, line in pairs]
    accounting = ctx.attachment("transform", DataTransformAccounting)
    accounting.record_input((), sum(map(len, lines)) + len(lines))
    fixed = fix_mate_fields(lines)
    name = f"{out_dir}/part-{ctx.task_index:05d}"
    size, _ = _write_lines(ctx, name + ".bam", header,
                           list(map(join_fields, fixed)), chunk_bytes)
    bloom = build_partial_position_bloom(
        records_by_pair(fixed, name=itemgetter(0)),
        fragment=fields_fragment)
    ctx.write_file(name + ".bloom", bloom.to_bytes(),
                   logical_partition=True)
    accounting.record_output((), size)
    ctx.emit(name + ".bam", len(fixed))


def _key_pairs(mode, bloom, _header, lines, size, ctx) -> None:
    """Round 3's map: MarkDuplicates' keys from split fields."""
    ctx.attachment("transform", DataTransformAccounting).record_input(
        (), size)
    keying = MarkDupKeying(mode, bloom)
    ends = [(split_line(line), line) for line in lines]
    for end1, end2 in records_by_pair(ends, name=lambda end: end[0][0]):
        for key, value in keying.keys_for_lines(end1, end2):
            ctx.emit(key, value)


def _mark(key, values, ctx) -> None:
    for line in mark_duplicate_lines(key, values):
        ctx.emit(key, line)


def _write_deduped(out_dir, header, chunk_bytes, pairs, ctx) -> None:
    """Round 3's output: the lines coordinate-sorted and framed."""
    path = f"{out_dir}/part-{ctx.task_index:05d}.bam"
    size, _ = _write_lines(ctx, path, header, [line for _, line in pairs],
                           chunk_bytes, coordinate_line_key(header))
    ctx.attachment("transform", DataTransformAccounting).record_output(
        (), size)
    ctx.emit(path, len(pairs))


def _by_coordinate(header, _header, lines, _size, ctx) -> None:
    """Round 4's map: the lines placed on a contig, by coordinate."""
    line_key, placed = coordinate_line_key(header), len(header.sequences)
    for line in lines:
        key = line_key(line)
        if key[0] < placed:
            ctx.emit(key, line)


def _by_contig(key, num_reducers: int) -> int:
    return key[0] % num_reducers


def _write_sorted(out_dir, header, chunk_bytes, pairs, ctx) -> None:
    """Round 4's output: one contig's merged lines framed, its .bai."""
    if not pairs:
        return
    path = f"{out_dir}/{header.sequence_names()[pairs[0][0][0]]}.bam"
    _, heads = _write_lines(ctx, path, header, [line for _, line in pairs],
                            chunk_bytes)
    ctx.write_file(path + ".bai", BamLinearIndex.of_heads(heads).to_bytes(),
                   logical_partition=True)
    ctx.emit(path, len(pairs))


def _call_contig(calls, site, header, records, size, ctx) -> None:
    for call in calls(records):
        ctx.emit(site(call), call)


def _haplotype_calls(reference, hc_config, records):
    contig = records[0].rname if records else None
    interval = GenomicInterval(
        contig, 1, reference.contig_length(contig) + 1
    ) if contig else None
    return HaplotypeCallerLite(reference, hc_config).call(records, interval)


def _caller_calls(caller, args, records):
    return caller(*args).call(records)


def _by_segment(ranger, header, records, size, ctx) -> None:
    for record in records:
        for index in ranger.partitions_of(record):
            ctx.emit(index, record)


def _by_index(key, num_reducers: int) -> int:
    return key % num_reducers


def _call_segment(ranger, reference, hc_config, index, records, ctx) -> None:
    padded = ranger.padded[index]
    end = min(padded.end, reference.contig_length(padded.contig) + 1)
    calls = HaplotypeCallerLite(reference, hc_config).call(
        records, GenomicInterval(padded.contig, padded.start, end),
        emit_interval=ranger.cores[index],
    )
    for call in calls:
        ctx.emit(call.site_key(), call)


def _count_covariates(recalibrator, header, records, size, ctx) -> None:
    partial_table = RecalibrationTable()
    for record in records:
        recalibrator.add_record(partial_table, record)
    ctx.emit("table", partial_table)


def _merge_tables(key, partials, ctx) -> None:
    ctx.emit(key, _merged(partials, RecalibrationTable()))


def _rewrite_qualities(table, out_dir, chunk_bytes, header, records, size,
                       ctx) -> None:
    header, rewritten = PrintReads(table).run(header, records)
    path = f"{out_dir}/part-{ctx.task_index:05d}.bam"
    ctx.write_file(path, bam_bytes(header, rewritten, chunk_bytes),
                   logical_partition=True)
    ctx.emit(path, len(rewritten))


def _identity_reducer(key, values, ctx) -> None:
    """Rounds 2 and 4 shuffle to group and order; the round's work on a
    whole partition happens in its ``reduce_output``."""
    for value in values:
        ctx.emit(key, value)


def _merged(parts: Iterable[Any], total: Any) -> Any:
    """Merge partial tables / accounting into ``total`` (in
    task order, so the result is the same on every executor)."""
    for part in parts:
        total.merge(part)
    return total


class GesallRounds:
    """Runs the pipeline rounds over HDFS on a ready ``engine`` (wired
    to ``hdfs`` if it has no filesystem) or on one built from
    ``policy`` over the HDFS nodes — not both."""

    def __init__(self, hdfs: Hdfs, engine: Optional[MapReduceEngine] = None,
                 aligner: Optional[PairedEndAligner] = None, reference=None,
                 chunk_bytes: int = 16 * 1024, *,
                 policy: Optional[ExecutionPolicy] = None,
                 shuffle: Optional[ShuffleConfig] = None):
        if engine is not None and policy is not None:
            raise MapReduceError("pass either an engine or an ExecutionPolicy, not both")
        if engine is None:
            engine = MapReduceEngine(nodes=hdfs.nodes, policy=policy, filesystem=hdfs)
        elif engine.filesystem is None:
            engine.filesystem = hdfs
        self.hdfs = hdfs
        self.engine = engine
        self.aligner = aligner
        self.reference = reference
        self.chunk_bytes = chunk_bytes
        self.shuffle = shuffle  # every round's; None -> uncompressed
        #: Per-round job results and transform accounting, by round key.
        self.results: Dict[str, JobResult] = {}
        self.transform: Dict[str, DataTransformAccounting] = {}
        self._wal = None
        self._wal_recovery: Dict[str, Dict] = {}

    def attach_wal(self, wal, recovery: Optional[Dict[str, Dict]] = None) -> None:
        """Journal every round's task commits into ``wal``; a round whose
        key is in ``recovery`` replays those recovered commits instead
        of re-running their tasks."""
        self._wal = wal
        self._wal_recovery = dict(recovery or {})

    def close(self) -> None:
        """Release the engine's executor (forked pool workers etc.)."""
        self.engine.close()

    def _run(self, row: _Row, inputs: List[Any]) -> JobResult:
        """Run one row over round-BAM paths (FASTQ partitions for a
        ``fastq`` row) in a ``round`` span; records-in/out and shuffled
        bytes land on it and in ``round.<key>.*`` counters (Fig 6)."""
        if row.fastq:
            mapper = row.body
            splits = make_block_splits(
                inputs, prefix="fastq", nodes=self.engine.nodes
            )
        else:
            mapper = partial(_read_round_bam, row.body, row.decode)
            splits = [InputSplit(path, self.hdfs.open(path))
                      for path in inputs]
        spec = JobSpec(
            name=row.name, mapper=mapper, reducer=row.reducer,
            partitioner=row.partitioner, num_reducers=row.num_reducers,
            shuffle=self.shuffle, reduce_output=row.reduce_output,
        )
        journal = None
        if self._wal is not None:
            journal = RoundJournal(self._wal, row.key,
                                   self._wal_recovery.pop(row.key, {}),
                                   self.engine.policy.fault_plan)
            self._wal.begin_round(row.key)
        recorder = self.engine.recorder
        with recorder.span(f"round:{row.key}", category="round",
                           track="driver", job=spec.name) as span:
            try:
                result = run_job(spec, splits, engine=self.engine,
                                 journal=journal)
            except DriverKilledError as exc:
                self.results[row.key] = exc.job_result
                raise
            counts = {name: result.counters.get(counter) for name, counter in (
                ("records_in", C.MAP_INPUT_RECORDS),
                ("records_out", C.REDUCE_OUTPUT_RECORDS if row.reducer
                 else C.MAP_OUTPUT_RECORDS),
                ("shuffled_bytes", C.SHUFFLED_BYTES),
            )}
            span.set(**counts)
        for name, value in counts.items():
            recorder.metrics.counter(f"round.{row.key}.{name}").inc(value)
        if "transform" in result.attachments:
            self.transform[row.key] = _merged(
                result.attachments["transform"], DataTransformAccounting()
            )
        self.results[row.key] = result
        return result

    def _keys(self, row: _Row, inputs: List[Any]) -> List[Any]:
        return [key for key, _ in self._run(row, inputs).all_outputs()]

    def _values(self, row: _Row, inputs: List[Any]) -> List[Any]:
        return [value for _, value in self._run(row, inputs).all_outputs()]

    def round1_alignment(self, partitions: List[List[ReadPair]],
                         out_dir: str = "/round1") -> List[str]:
        """Round 1 (:func:`_align`) over sealed FASTQ record blocks."""
        return self._keys(_Row(
            "round1", "round1-alignment",
            partial(_align, self.aligner, self.chunk_bytes, out_dir),
            fastq=True,
        ), partitions)

    def round2_cleaning(self, in_paths: List[str], out_dir: str = "/round2",
                        num_reducers: int = 4) -> List[str]:
        """Moves SAM lines through field kernels, no records; the
        reducer writes a ``.bloom`` sidecar (round 3 opt's 5' positions)."""
        header = SamHeader(sequences=self.reference.sam_sequences(),
                           sort_order="queryname")
        return self._keys(_Row(
            "round2", "round2-cleaning",
            partial(_clean, AddOrReplaceReadGroups().group_id),
            _identity_reducer, num_reducers=num_reducers,
            reduce_output=partial(_write_cleaned, out_dir, header,
                                  self.chunk_bytes),
            decode=decode_bam_lines,
        ), in_paths)

    def round3_mark_duplicates(self, in_paths: List[str], mode: str = "opt",
                               out_dir: str = "/round3",
                               num_reducers: int = 4) -> List[str]:
        bloom = None
        if mode == "opt":  # the union of the sidecars round 2 wrote
            bloom = BloomFilter()
            for path in in_paths:
                sidecar = path[:-len(".bam")] + ".bloom"
                if not self.hdfs.exists(sidecar):
                    raise PipelineError(
                        f"MarkDup_opt: no round-2 bloom sidecar beside {path}")
                bloom.merge(BloomFilter.from_bytes(self.hdfs.get(sidecar)))

        header = SamHeader(sequences=self.reference.sam_sequences(),
                           sort_order="coordinate")
        return self._keys(_Row(
            "round3", f"round3-markdup-{mode}", partial(_key_pairs, mode, bloom),
            _mark, partitioner=markdup_partition, num_reducers=num_reducers,
            reduce_output=partial(_write_deduped, out_dir, header,
                                  self.chunk_bytes),
            decode=decode_bam_lines,
        ), in_paths)

    def round4_sort_index(self, in_paths: List[str],
                          out_dir: str = "/round4") -> List[str]:
        """Moves SAM lines, no records: the shuffle's stable sort and
        merge by each placed line's coordinate key (ties in map-task,
        then emission order) is the sort, and the reducer frames them."""
        header = SamHeader(sequences=self.reference.sam_sequences(),
                           sort_order="coordinate")
        return self._keys(_Row(
            "round4", "round4-sort", partial(_by_coordinate, header),
            _identity_reducer, partitioner=_by_contig,
            num_reducers=len(header.sequences),
            reduce_output=partial(_write_sorted, out_dir, header,
                                  self.chunk_bytes),
            decode=decode_bam_lines,
        ), in_paths)

    def _call_per_contig(self, key: str, name: str, in_paths: List[str],
                         calls: Callable[[List[Any]], Iterable[Any]],
                         site=VariantRecord.site_key) -> List[Any]:
        """Round 5: ``calls(records)`` per sorted contig BAM, at ``site``."""
        return self._values(
            _Row(key, name, partial(_call_contig, calls, site)), in_paths
        )

    def round5_haplotype_caller(
        self, in_paths: List[str], hc_config: Optional[HaplotypeCallerConfig] = None,
    ) -> List[VariantRecord]:
        return sort_variants(self._call_per_contig(
            "round5", "round5-haplotypecaller", in_paths,
            partial(_haplotype_calls, self.reference, hc_config),
        ))

    def round5_unified_genotyper(self, in_paths: List[str],
                                 ug_config=None) -> List[VariantRecord]:
        """Table 2 step v1: Unified Genotyper per chromosome partition,
        the same non-overlapping scheme as Haplotype Caller (§3.2)."""
        return sort_variants(self._call_per_contig(
            "round5_ug", "round5-unifiedgenotyper", in_paths,
            partial(_caller_calls, UnifiedGenotyperLite,
                    (self.reference, ug_config)),
        ))

    def round5_structural_variants(self, in_paths: List[str],
                                   gasv_config=None):
        """Large structural variant detection (GASV, section 2.1): one
        GASVLite instance per chromosome partition."""
        site = attrgetter("contig", "start")
        return sorted(self._call_per_contig(
            "round5_sv", "round5-gasv", in_paths,
            partial(_caller_calls, GASVLite, (gasv_config,)), site,
        ), key=site)

    def round5_haplotype_caller_finegrained(
        self, in_paths: List[str], segment_length: int,
        hc_config: Optional[HaplotypeCallerConfig] = None, overlap: Optional[int] = None,
    ) -> List[VariantRecord]:
        """Fine-grained overlapping range partitioning (§3.2): cores of
        ``segment_length`` padded by ``overlap`` (default
        :func:`required_overlap`), boundary reads replicated, each
        reducer emitting only its core's calls."""
        hc_config = hc_config or HaplotypeCallerConfig()
        overlap = required_overlap(hc_config) if overlap is None else overlap
        reference = self.reference
        ranger = OverlappingRangePartitioner(
            SamHeader(sequences=reference.sam_sequences()), segment_length, overlap)

        return sort_variants(self._values(_Row(
            "round5_finegrained", "round5-hc-finegrained",
            partial(_by_segment, ranger),
            partial(_call_segment, ranger, reference, hc_config),
            partitioner=_by_index, num_reducers=ranger.num_partitions,
        ), in_paths))

    def round_recalibrate(self, in_paths: List[str],
                          known_sites=None) -> RecalibrationTable:
        """Group partitioning by covariate: partial tables merged in reduce."""
        recalibrator = BaseRecalibrator(self.reference, known_sites)
        return _merged(self._values(_Row(
            "round_recal", "round-recal",
            partial(_count_covariates, recalibrator), _merge_tables,
        ), in_paths), RecalibrationTable())

    def round_print_reads(self, in_paths: List[str], table: RecalibrationTable,
                          out_dir: str = "/round_bqsr") -> List[str]:
        """Map-only quality rewrite with the broadcast table."""
        return self._keys(_Row(
            "round_bqsr", "round-printreads",
            partial(_rewrite_qualities, table, out_dir, self.chunk_bytes),
        ), in_paths)
