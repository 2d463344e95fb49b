"""The five MapReduce rounds of the Gesall pipeline (Appendix A.2).

Round 1  map-only   Bwa alignment + SamToBam via Hadoop Streaming
Round 2  full MR    AddReplaceReadGroups + CleanSam (map), shuffle by
                    read name, FixMateInformation (reduce)
Round 3  full MR    compound-key extraction (map), shuffle, SortSam +
                    MarkDuplicates (reduce); reg or opt (bloom) variant
Round 4  full MR    range partition by chromosome, sort + BAM index
Round 5  map-only   Haplotype Caller per sorted, indexed partition

Optional extra rounds implement BaseRecalibrator (group partitioning by
covariate) and PrintReads, matching Table 2 steps 7-8.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.align.pairing import PairedEndAligner
from repro.api import JobSpec, make_block_splits, run_job
from repro.cleaning.clean_sam import CleanSam
from repro.cleaning.duplicates import pair_score
from repro.cleaning.fix_mate import FixMateInformation
from repro.cleaning.read_groups import AddOrReplaceReadGroups
from repro.cleaning.sort import coordinate_key
from repro.errors import MapReduceError, PipelineError
from repro.formats.bam import (
    BamLinearIndex,
    bam_bytes,
    decode_bam,
    encode_bam,
)
from repro.formats.fastq import ReadPair
from repro.formats.sam import SamHeader, SamRecord
from repro.formats.vcf import VariantRecord, sort_variants
from repro.gdpt.bloom import BloomFilter
from repro.gdpt.partitioner import (
    PAIR_VALUE,
    PARTIAL_VALUE,
    PASSTHROUGH_VALUE,
    SHADOW_VALUE,
    MarkDupKeying,
    RangePartitioner,
)
from repro.genome.regions import GenomicInterval
from repro.hdfs.filesystem import Hdfs
from repro.mapreduce import counters as C
from repro.mapreduce.commit import RoundJournal
from repro.mapreduce.engine import JobResult, MapReduceEngine
from repro.mapreduce.job import InputSplit
from repro.mapreduce.policy import ExecutionPolicy
from repro.mapreduce.streaming import StreamingPipeline
from repro.shuffle.config import ShuffleConfig
from repro.recal.apply import PrintReads
from repro.recal.recalibrator import BaseRecalibrator, RecalibrationTable
from repro.variants.haplotype import HaplotypeCallerConfig, HaplotypeCallerLite
from repro.wrappers.programs import (
    BwaExternal,
    DataTransformAccounting,
    SamToBamExternal,
    pairs_to_interleaved_text,
    run_wrapped_chain,
)


def _records_by_pair(records: List[SamRecord]) -> List[Tuple[SamRecord, SamRecord]]:
    """Group a read-name-grouped record stream into pairs."""
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


def _identity_reducer(key, values, ctx) -> None:
    """Rounds 2 and 4 shuffle to group and order; the round's work on a
    whole partition happens in its ``reduce_output``."""
    for value in values:
        ctx.emit(key, value)


class GesallRounds:
    """Builds and runs the pipeline rounds over HDFS + the MR engine.

    Pass either a ready ``engine`` or an :class:`ExecutionPolicy` (the
    rounds then build their own engine over the HDFS nodes) — not both.
    An engine without a filesystem is wired to ``hdfs`` so map-task
    file writes land in the right namespace.
    """

    def __init__(
        self,
        hdfs: Hdfs,
        engine: Optional[MapReduceEngine] = None,
        aligner: Optional[PairedEndAligner] = None,
        reference=None,
        chunk_bytes: int = 16 * 1024,
        *,
        policy: Optional[ExecutionPolicy] = None,
        shuffle: Optional[ShuffleConfig] = None,
    ):
        if engine is not None and policy is not None:
            raise MapReduceError(
                "pass either an engine or an ExecutionPolicy, not both"
            )
        if engine is None:
            engine = MapReduceEngine(
                nodes=hdfs.nodes, policy=policy, filesystem=hdfs
            )
        elif engine.filesystem is None:
            engine.filesystem = hdfs
        self.hdfs = hdfs
        self.engine = engine
        self.aligner = aligner
        self.reference = reference
        self.chunk_bytes = chunk_bytes
        #: Shuffle configuration threaded into every round's JobSpec
        #: (None -> the engine's uncompressed default).
        self.shuffle = shuffle
        #: The engine's trace recorder (the null recorder when off).
        self.recorder = engine.recorder
        #: Per-round accounting, keyed by round name.
        self.results: Dict[str, JobResult] = {}
        self.transform: Dict[str, DataTransformAccounting] = {}
        self.streaming_stats = None
        #: Job WAL journaling each round's task commits (attach_wal).
        self._wal = None
        #: Round-key -> recovered commits, consumed on that round's run.
        self._wal_recovery: Dict[str, Dict] = {}

    def attach_wal(self, wal, recovery: Optional[Dict[str, Dict]] = None) -> None:
        """Journal every round's task commits into ``wal``.

        ``recovery`` maps round keys to the commits recovered from an
        interrupted run's log; each entry is consumed when its round
        executes, so the engine replays those tasks instead of
        re-running them.
        """
        self._wal = wal
        self._wal_recovery = dict(recovery or {})

    def close(self) -> None:
        """Release the engine's executor (forked pool workers etc.)."""
        self.engine.close()

    # -- traced round execution ----------------------------------------
    def _run_round(
        self, round_key: str, spec: JobSpec, splits: List[InputSplit]
    ) -> JobResult:
        """Run one round's job inside a round span with I/O accounting.

        Every round records one ``category="round"`` span carrying
        records-in/out and shuffled bytes (the Fig 6-style overhead
        accounting), plus matching metrics counters.  Rounds describe
        their jobs as frozen :class:`repro.api.JobSpec` values; this is
        the only place a round's spec meets the engine.
        """
        journal = None
        if self._wal is not None:
            journal = RoundJournal(
                self._wal, round_key,
                recovered=self._wal_recovery.pop(round_key, {}),
                plan=self.engine.policy.fault_plan,
            )
            self._wal.begin_round(round_key)
        with self.recorder.span(
            f"round:{round_key}", category="round", track="driver",
            job=spec.name,
        ) as span:
            result = run_job(spec, splits, engine=self.engine,
                             journal=journal)
            records_in = result.counters.get(C.MAP_INPUT_RECORDS)
            records_out = result.counters.get(
                C.MAP_OUTPUT_RECORDS
                if spec.reducer is None
                else C.REDUCE_OUTPUT_RECORDS
            )
            shuffled = result.counters.get(C.SHUFFLED_BYTES)
            span.set(
                records_in=records_in, records_out=records_out,
                shuffled_bytes=shuffled,
            )
        metrics = self.recorder.metrics
        metrics.counter(f"round.{round_key}.records_in").inc(records_in)
        metrics.counter(f"round.{round_key}.records_out").inc(records_out)
        metrics.counter(f"round.{round_key}.shuffled_bytes").inc(shuffled)
        self.results[round_key] = result
        return result

    # ------------------------------------------------------------------
    # Round 1: map-only alignment via Hadoop Streaming
    # ------------------------------------------------------------------
    def round1_alignment(
        self, partitions: List[List[ReadPair]], out_dir: str = "/round1"
    ) -> List[str]:
        """Each map task streams its FASTQ partition through Bwa+SamToBam.

        Partitions ship as sealed record blocks: the read pairs are
        encoded once at split time and decoded once inside whichever
        worker runs the task, so the payload crosses the fork boundary
        as one CRC-framed blob instead of a live object graph.  The
        mapper names its output after ``ctx.task_index`` — the split
        no longer smuggles an index in its payload.
        """
        chunk_bytes = self.chunk_bytes
        aligner = self.aligner

        def mapper(pairs, ctx):
            pipeline = StreamingPipeline(
                [BwaExternal(aligner), SamToBamExternal(chunk_bytes)]
            )
            fastq_bytes = pairs_to_interleaved_text(pairs).encode()
            with ctx.span("stream", stages=len(pipeline.programs)) as span:
                bam_data = pipeline.run(fastq_bytes)
                span.set(bytes_in=len(fastq_bytes), bytes_out=len(bam_data))
            ctx.attach("streaming", pipeline.stats)
            path = f"{out_dir}/part-{ctx.task_index:05d}.bam"
            ctx.write_file(path, bam_data, logical_partition=True)
            ctx.emit(path, len(pairs))

        spec = JobSpec(name="round1-alignment", mapper=mapper)
        splits = make_block_splits(
            partitions, prefix="fastq", nodes=self.engine.nodes
        )
        result = self._run_round("round1", spec, splits)
        streaming = result.attachments.get("streaming")
        self.streaming_stats = streaming[-1] if streaming else None
        return [key for key, _ in result.all_outputs()]

    # ------------------------------------------------------------------
    # Round 2: cleaning (map) -> shuffle by read name -> FixMateInfo (reduce)
    # ------------------------------------------------------------------
    def round2_cleaning(
        self, in_paths: List[str], out_dir: str = "/round2",
        num_reducers: int = 4,
    ) -> List[str]:

        def mapper(path, ctx):
            accounting = ctx.attachment("transform", DataTransformAccounting)
            header, records, size = self._read_split(path, ctx)
            header, records, size = run_wrapped_chain(
                [AddOrReplaceReadGroups(), CleanSam()],
                header, records, accounting, size,
            )
            # What CleanSam handed back is exactly what is emitted.
            ctx.set_output_bytes(size)
            for record in records:
                ctx.emit(record.qname, record)

        spec = JobSpec(
            name="round2-cleaning", mapper=mapper,
            reducer=_identity_reducer,
            num_reducers=num_reducers, shuffle=self.shuffle,
            reduce_output=self._bam_writer(
                out_dir, "queryname", program=FixMateInformation()
            ),
        )
        splits = [InputSplit(path, path) for path in in_paths]
        result = self._run_round("round2", spec, splits)
        self.transform["round2"] = self._merge_transform(result)
        return [path for path, _ in result.all_outputs()]

    # ------------------------------------------------------------------
    # Round 2.5 (opt only): bloom filter over partial-match 5' positions
    # ------------------------------------------------------------------
    def round_bloom(self, in_paths: List[str],
                    num_bits: int = 1 << 16) -> BloomFilter:

        def mapper(path, ctx):
            _, records, _ = self._read_split(path, ctx)
            local = BloomFilter(num_bits=num_bits)
            for end1, end2 in _records_by_pair(records):
                mapped1 = not end1.flags.is_unmapped
                mapped2 = not end2.flags.is_unmapped
                if mapped1 == mapped2:
                    continue
                mapped = end1 if mapped1 else end2
                local.add((mapped.rname, mapped.unclipped_five_prime))
            ctx.emit("bloom", local)

        spec = JobSpec(name="round-bloom", mapper=mapper)
        result = self._run_round(
            "round_bloom", spec, [InputSplit(p, p) for p in in_paths]
        )
        merged = BloomFilter(num_bits=num_bits)
        for _, partial in result.all_outputs():
            merged.merge(partial)
        return merged

    # ------------------------------------------------------------------
    # Round 3: MarkDuplicates (reg or opt)
    # ------------------------------------------------------------------
    def round3_mark_duplicates(
        self,
        in_paths: List[str],
        mode: str = "opt",
        bloom: Optional[BloomFilter] = None,
        out_dir: str = "/round3",
        num_reducers: int = 4,
    ) -> List[str]:
        if mode == "opt" and bloom is None:
            bloom = self.round_bloom(in_paths)

        def mapper(path, ctx):
            accounting = ctx.attachment("transform", DataTransformAccounting)
            keying = MarkDupKeying(mode, bloom)
            keying.reset()
            _, records, size = self._read_split(path, ctx)
            accounting.record_input(records, size)
            for end1, end2 in _records_by_pair(records):
                for key, value in keying.keys_for_pair(end1, end2):
                    ctx.emit(key, value)

        def reducer(key, values, ctx):
            for record in _reduce_markdup_group(key, list(values)):
                ctx.emit(record.qname, record)

        spec = JobSpec(
            name=f"round3-markdup-{mode}", mapper=mapper, reducer=reducer,
            num_reducers=num_reducers, shuffle=self.shuffle,
            reduce_output=self._bam_writer(
                out_dir, "coordinate", accounted=True
            ),
        )
        result = self._run_round(
            "round3", spec, [InputSplit(p, p) for p in in_paths]
        )
        self.transform["round3"] = self._merge_transform(result)
        return [path for path, _ in result.all_outputs()]

    # ------------------------------------------------------------------
    # Round 4: range partition by chromosome, sort, index
    # ------------------------------------------------------------------
    def round4_sort_index(
        self, in_paths: List[str], out_dir: str = "/round4"
    ) -> List[str]:
        header = SamHeader(sequences=self.reference.sam_sequences())
        ranger = RangePartitioner(header)
        contigs = header.sequence_names()

        def mapper(path, ctx):
            _, records, _ = self._read_split(path, ctx)
            for record in records:
                index = ranger.partition_of(record)
                if index is not None:
                    ctx.emit(contigs[index], record)

        def partitioner(key, num_reducers):
            return contigs.index(key) % num_reducers

        spec = JobSpec(
            name="round4-sort", mapper=mapper, reducer=_identity_reducer,
            partitioner=partitioner, num_reducers=len(contigs),
            shuffle=self.shuffle,
            reduce_output=self._bam_writer(
                out_dir, "coordinate", per_contig=True
            ),
        )
        result = self._run_round(
            "round4", spec, [InputSplit(p, p) for p in in_paths]
        )
        return [path for path, _ in result.all_outputs()]

    # ------------------------------------------------------------------
    # Round 5: map-only Haplotype Caller over chromosome partitions
    # ------------------------------------------------------------------
    def round5_haplotype_caller(
        self,
        in_paths: List[str],
        hc_config: Optional[HaplotypeCallerConfig] = None,
    ) -> List[VariantRecord]:
        reference = self.reference

        def mapper(path, ctx):
            _, records, _ = self._read_split(path, ctx)
            caller = HaplotypeCallerLite(reference, hc_config)
            contig = records[0].rname if records else None
            interval = (
                GenomicInterval(contig, 1, reference.contig_length(contig) + 1)
                if contig
                else None
            )
            for call in caller.call(records, interval):
                ctx.emit(call.site_key(), call)

        spec = JobSpec(name="round5-haplotypecaller", mapper=mapper)
        result = self._run_round(
            "round5", spec, [InputSplit(p, p) for p in in_paths]
        )
        return sort_variants(v for _, v in result.all_outputs())

    # ------------------------------------------------------------------
    # Round 5 variants
    # ------------------------------------------------------------------
    def round5_unified_genotyper(
        self, in_paths: List[str], ug_config=None
    ) -> List[VariantRecord]:
        """Table 2 step v1: Unified Genotyper per chromosome partition.

        Same non-overlapping range partitioning as Haplotype Caller
        (the scheme NYGC bioinformaticians accept, section 3.2).
        """
        from repro.variants.genotyper import UnifiedGenotyperLite

        reference = self.reference

        def mapper(path, ctx):
            _, records, _ = self._read_split(path, ctx)
            caller = UnifiedGenotyperLite(reference, ug_config)
            for call in caller.call(records):
                ctx.emit(call.site_key(), call)

        spec = JobSpec(name="round5-unifiedgenotyper", mapper=mapper)
        result = self._run_round(
            "round5_ug", spec, [InputSplit(p, p) for p in in_paths]
        )
        return sort_variants(v for _, v in result.all_outputs())

    def round5_haplotype_caller_finegrained(
        self,
        in_paths: List[str],
        segment_length: int,
        hc_config: Optional[HaplotypeCallerConfig] = None,
        overlap: Optional[int] = None,
    ) -> List[VariantRecord]:
        """Fine-grained overlapping range partitioning for Round 5.

        Splits every chromosome into ``segment_length`` cores padded by
        ``overlap`` (default: the caller's safety bound from
        :func:`repro.variants.haplotype.required_overlap`), replicating
        boundary reads, and emits only calls inside each core — the
        advanced scheme section 3.2 designs to recover the degree of
        parallelism Round 5 loses with 23 chromosome partitions.
        """
        from repro.gdpt.partitioner import OverlappingRangePartitioner
        from repro.variants.haplotype import required_overlap

        hc_config = hc_config or HaplotypeCallerConfig()
        if overlap is None:
            overlap = required_overlap(hc_config)
        reference = self.reference
        header = SamHeader(sequences=reference.sam_sequences())
        ranger = OverlappingRangePartitioner(header, segment_length, overlap)

        def mapper(path, ctx):
            _, records, _ = self._read_split(path, ctx)
            for record in records:
                for index in ranger.partitions_of(record):
                    ctx.emit(index, record)

        def reducer(index, records, ctx):
            caller = HaplotypeCallerLite(reference, hc_config)
            padded = ranger.padded[index]
            core = ranger.cores[index]
            clipped = GenomicInterval(
                padded.contig,
                padded.start,
                min(padded.end, reference.contig_length(padded.contig) + 1),
            )
            for call in caller.call(records, clipped, emit_interval=core):
                ctx.emit(call.site_key(), call)

        spec = JobSpec(
            name="round5-hc-finegrained", mapper=mapper, reducer=reducer,
            partitioner=lambda key, n: key % n,
            num_reducers=ranger.num_partitions, shuffle=self.shuffle,
        )
        result = self._run_round(
            "round5_finegrained", spec, [InputSplit(p, p) for p in in_paths]
        )
        return sort_variants(v for _, v in result.all_outputs())

    def round5_structural_variants(self, in_paths: List[str],
                                   gasv_config=None):
        """Large structural variant detection (GASV, section 2.1).

        Map-only over the sorted chromosome partitions, like the other
        Round 5 variants — one GASVLite instance per chromosome.
        """
        from repro.variants.structural import GASVLite


        def mapper(path, ctx):
            _, records, _ = self._read_split(path, ctx)
            caller = GASVLite(gasv_config)
            for call in caller.call(records):
                ctx.emit((call.contig, call.start), call)

        spec = JobSpec(name="round5-gasv", mapper=mapper)
        result = self._run_round(
            "round5_sv", spec, [InputSplit(p, p) for p in in_paths]
        )
        return sorted(
            (v for _, v in result.all_outputs()),
            key=lambda call: (call.contig, call.start),
        )

    # ------------------------------------------------------------------
    # Optional rounds: BaseRecalibrator (group by covariate) + PrintReads
    # ------------------------------------------------------------------
    def round_recalibrate(
        self, in_paths: List[str], known_sites=None
    ) -> RecalibrationTable:
        """Group partitioning by covariate: partial tables merged in reduce."""
        recalibrator = BaseRecalibrator(self.reference, known_sites)

        def mapper(path, ctx):
            _, records, _ = self._read_split(path, ctx)
            partial = RecalibrationTable()
            for record in records:
                recalibrator.add_record(partial, record)
            # Emit one partial table per read-group covariate partition.
            ctx.emit("table", partial)

        def reducer(key, partials, ctx):
            merged = RecalibrationTable()
            for partial in partials:
                merged.merge(partial)
            ctx.emit(key, merged)

        spec = JobSpec(
            name="round-recal", mapper=mapper, reducer=reducer,
            num_reducers=1, shuffle=self.shuffle,
        )
        result = self._run_round(
            "round_recal", spec, [InputSplit(p, p) for p in in_paths]
        )
        table = RecalibrationTable()
        for _, merged in result.all_outputs():
            table.merge(merged)
        return table

    def round_print_reads(
        self, in_paths: List[str], table: RecalibrationTable,
        out_dir: str = "/round_bqsr",
    ) -> List[str]:
        """Map-only quality rewrite with the broadcast table."""
        chunk_bytes = self.chunk_bytes

        def mapper(path, ctx):
            header, records, _ = self._read_split(path, ctx)
            header, rewritten = PrintReads(table).run(header, records)
            out_path = f"{out_dir}/part-{ctx.task_index:05d}.bam"
            ctx.write_file(
                out_path,
                bam_bytes(header, rewritten, chunk_bytes),
                logical_partition=True,
            )
            ctx.emit(out_path, len(rewritten))

        spec = JobSpec(name="round-printreads", mapper=mapper)
        splits = [InputSplit(path, path) for path in in_paths]
        result = self._run_round("round_bqsr", spec, splits)
        return [key for key, _ in result.all_outputs()]

    # -- shared input format ---------------------------------------------------
    def _read_split(self, path: str, ctx):
        """A mapper's split: fetch and decode one round BAM, report its
        record count as the task's input; returns header, records and
        the records' SAM-text size."""
        header, records, size = decode_bam(self.hdfs.get(path))
        ctx.set_input_records(len(records))
        return header, records, size

    # -- shared accounting merge ----------------------------------------------
    def _merge_transform(self, result: JobResult) -> DataTransformAccounting:
        """Fold per-task transform accounting into one round-level total.

        Tasks buffer their accounting as attachments (so forked workers
        can report it back); attachments arrive in task order, which
        keeps the merged totals deterministic across executors.
        """
        merged = DataTransformAccounting()
        for partial in result.attachments.get("transform", []):
            merged.merge(partial)
        return merged

    # -- shared reduce-side output format ------------------------------------
    def _bam_writer(self, out_dir: str, sort_order: str,
                    per_contig: bool = False, program=None,
                    accounted: bool = False):
        """The ``reduce_output`` of rounds 2-4: the task writes its BAM.

        Strips the shuffle keys, hands the whole partition to ``program``
        (round 2's FixMateInformation: one in-memory BAM per task, as
        Gesall's wrapper does), coordinate-sorts when that is the order
        the header declares, renders and frames the partition with the
        round's header and hands the bytes to ``ctx.write_file`` — so
        the committer stages, promotes and fences them like round 1's —
        then emits ``(path, record count)``; no record returns to the
        driver.  With a ``program`` or ``accounted`` the size the writer
        rendered is the task's "bytes from program".  Round 4
        (``per_contig``) names the file after its contig, adds the
        ``.bai`` and writes nothing for an empty one.
        """
        header = SamHeader(
            sequences=self.reference.sam_sequences(), sort_order=sort_order
        )
        key = coordinate_key(header)
        chunk_bytes = self.chunk_bytes
        accounted = accounted or program is not None

        def write(pairs, ctx):
            records = [record for _, record in pairs]
            if per_contig and not records:
                return
            if accounted:
                accounting = ctx.attachment(
                    "transform", DataTransformAccounting
                )
            if program is not None:
                accounting.record_input(records)
                _, records = program.run(header, records)
            with ctx.span("encode", records=len(records)) as span:
                if sort_order == "coordinate":
                    records.sort(key=key)
                data, size = encode_bam(header, records, chunk_bytes)
                span.set(bytes_out=len(data))
            if accounted:
                accounting.record_output(records, size)
            name = (
                records[0].rname if per_contig
                else f"part-{ctx.task_index:05d}"
            )
            path = f"{out_dir}/{name}.bam"
            ctx.write_file(path, data, logical_partition=True)
            if per_contig:
                ctx.write_file(
                    path + ".bai", BamLinearIndex.build(data).to_bytes(),
                    logical_partition=True,
                )
            ctx.emit(path, len(records))

        return write


def _reduce_markdup_group(key, values) -> List[SamRecord]:
    """Duplicate decisions for one shuffled MarkDuplicates group."""
    kind = key[0]
    out: List[SamRecord] = []
    if kind == "P":
        pairs = [
            (end1.copy(), end2.copy())
            for tag, end1, end2 in values
            if tag == PAIR_VALUE
        ]
        if not pairs:
            return out
        best_index = max(
            range(len(pairs)), key=lambda i: pair_score(pairs[i][0], pairs[i][1])
        )
        for index, (end1, end2) in enumerate(pairs):
            is_dup = index != best_index and len(pairs) > 1
            end1.set_duplicate(is_dup)
            end2.set_duplicate(is_dup)
            out.append(end1)
            out.append(end2)
        return out
    if kind == "F":
        shadows = [value for value in values if value[0] == SHADOW_VALUE]
        partials = [
            (mapped.copy(), unmapped.copy())
            for tag, mapped, unmapped in (
                value for value in values if value[0] == PARTIAL_VALUE
            )
        ]
        if not partials:
            return out  # only shadows arrived: nothing to emit
        if shadows:
            survivor = None  # a complete pair occupies this position
        else:
            survivor = max(
                range(len(partials)),
                key=lambda i: partials[i][0].sum_of_base_qualities(),
            )
        for index, (mapped, unmapped) in enumerate(partials):
            mapped.set_duplicate(index != survivor)
            out.append(mapped)
            out.append(unmapped)
        return out
    # Passthrough: both-unmapped pairs.
    for tag, end1, end2 in values:
        if tag == PASSTHROUGH_VALUE:
            out.append(end1.copy())
            out.append(end2.copy())
    return out
