"""The traced run: per-layer numbers, timed from outside the package.

One traced run yields every per-layer metric, whichever workload it is
asked for (the named workload decides only whose ``host.cpu_s`` and
``bench.trace_overhead_frac`` are reported):

1. each workload is driven once with the benchmark's own spans around
   its calls into public functions — the five rounds of the ``wgs``
   input through ``GesallRounds``, the durable cleaning rounds, the
   two service phases;
2. data captured from those runs is replayed through each layer's
   public entry point (the *probes*), one span per probe under one
   span per layer.

Counts come from public results (``JobResult.counters``, the I/O
layer's ``stats``, file sizes) and repeat exactly for a fixed seed;
timings are medians over as many repeats as the probe budget allows.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro import ObsConfig
from repro.align import PairedEndAligner, banded_local_alignment
from repro.api import JobSpec, run_job
from repro.cleaning import FixMateInformation, MarkDuplicates, SortSam
from repro.formats import (
    SamRecord,
    bam_bytes,
    decode_quals,
    encode_quals,
    read_bam,
)
from repro.gdpt import (
    MarkDupKeying,
    build_partial_position_bloom,
    split_pairs_contiguously,
)
from repro.genome import GenomicInterval, ReadSimulationConfig, simulate_reads
from repro.io import LocalIO
from repro.mapreduce import ExecutionPolicy, RecordBlock, make_splits
from repro.mapreduce import counters as C
from repro.pipeline import CheckpointStore, JobWal
from repro.server import JobServer, ServerConfig
from repro.shuffle import (
    SpillBuffer,
    decode_segment,
    encode_segment,
    get_codec,
    merge_sorted_runs_list,
    stable_hash_partition,
)
from repro.variants import HaplotypeCallerLite, build_pileup
from repro.wrappers import (
    DataTransformAccounting,
    interleaved_text_to_pairs,
    pairs_to_interleaved_text,
    run_wrapped,
)

from harness import (
    Tracer,
    cpu_seconds,
    host_info,
    median_seconds,
    percentile,
    time_call,
)
from workloads import (
    CHUNK_BYTES,
    FASTQ_PARTITIONS,
    REDUCERS,
    SMOKE_SCALE,
    build_index,
    new_hdfs,
    variant_f1,
)

MIB = 1024.0 * 1024.0
SW_PAIRS = 64
SW_BAND = 12


def _identity_map(payload: Any, ctx: Any) -> None:
    ctx.emit(payload, 1)


def _sw_cells(read_len: int, win_len: int, band: int) -> int:
    """Cells ``banded_local_alignment`` fills, from the lengths alone."""
    slack = max(0, win_len - read_len)
    return sum(
        min(win_len, i + band + slack) - max(1, i - band) + 1
        for i in range(1, read_len + 1)
    )


class LayerProbes:
    """Replays captured data through each layer's public entry point."""

    def __init__(self, tracer: Tracer, budget: float, work_root: str,
                 wgs_state, clean_state):
        self.tracer = tracer
        self.budget = budget
        self.work_root = work_root
        self.reference = wgs_state.reference
        self.index = wgs_state.index
        self.pairs = wgs_state.pairs
        #: One FASTQ partition's worth of pairs: a map task's input.
        self.partition = self.pairs[: len(self.pairs) // FASTQ_PARTITIONS]
        self.donor = wgs_state.donor
        #: First round-4 partition of the traced wgs run: one contig's
        #: records, deduplicated and coordinate sorted.
        self.sorted_records = wgs_state.round4_first
        #: Round-1 records of the clean-durable input, in pair order.
        self.header, self.records = read_bam(clean_state.bams[0][1])
        for _, data in clean_state.bams[1:]:
            self.records.extend(read_bam(data)[1])
        self.metrics: Dict[str, float] = {}

    def _seconds(self, name: str, fn: Callable[[], Any]) -> float:
        with self.tracer.span(f"probe.{name}"):
            return median_seconds(fn, self.budget)

    def _rate(self, name: str, amount: float, fn: Callable[[], Any]) -> None:
        self.metrics[name] = amount / self._seconds(name, fn)

    def _fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work_root, "probe-" + name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def run_all(self) -> Dict[str, float]:
        for layer in ("genome", "wrappers", "align", "variants", "formats",
                      "cleaning", "gdpt", "shuffle", "mapreduce", "hdfs",
                      "io", "pipeline"):
            with self.tracer.span(f"layer.{layer}"):
                getattr(self, "probe_" + layer)()
        return self.metrics

    # -- one method per layer ------------------------------------------------
    def probe_genome(self) -> None:
        config = ReadSimulationConfig(coverage=15.0, seed=7)
        self._rate("genome.simulate_pairs_per_s", len(self.pairs),
                   lambda: simulate_reads(self.donor, config))

    def probe_wrappers(self) -> None:
        partition = self.partition
        self._rate(
            "wrappers.fastq_text_pairs_per_s", len(partition),
            lambda: interleaved_text_to_pairs(
                pairs_to_interleaved_text(partition)
            ),
        )
        records = self.records[:2000]
        self._rate(
            "wrappers.run_wrapped_records_per_s", len(records),
            lambda: run_wrapped(FixMateInformation(), self.header, records,
                                DataTransformAccounting()),
        )

    def probe_align(self) -> None:
        self.metrics["align.index_build_s"] = self._seconds(
            "align.index_build_s",
            lambda: build_index(self.reference),
        )
        partition = self.partition
        aligner = PairedEndAligner(self.index)
        self._rate("align.pairs_per_s", len(partition),
                   lambda: aligner.align_batch(partition))
        # Fixed read/window pairs at the loci the aligner chose: the
        # same 16-base padding the aligner's own candidate windows use.
        cases: List[Tuple[str, str]] = []
        for record in self.sorted_records:
            if len(cases) == SW_PAIRS:
                break
            start = max(1, record.pos - 16)
            end = min(self.reference.contig_length(record.rname) + 1,
                      record.pos + len(record.seq) + 16)
            cases.append(
                (record.seq, self.reference.fetch(record.rname, start, end))
            )
        cells = sum(_sw_cells(len(r), len(w), SW_BAND) for r, w in cases)
        self._rate(
            "align.sw_cells_per_s", cells,
            lambda: [banded_local_alignment(r, w, SW_BAND) for r, w in cases],
        )

    def probe_variants(self) -> None:
        records = self.sorted_records
        contig = records[0].rname
        interval = GenomicInterval(
            contig, 1, self.reference.contig_length(contig) + 1
        )
        columns = sum(1 for _ in build_pileup(records, self.reference,
                                              interval))
        self._rate(
            "variants.pileup_columns_per_s", columns,
            lambda: sum(1 for _ in build_pileup(records, self.reference,
                                                interval)),
        )
        caller = HaplotypeCallerLite(self.reference)
        self.metrics["variants.hc_call_s"] = self._seconds(
            "variants.hc_call_s", lambda: caller.call(records, interval)
        )

    def probe_formats(self) -> None:
        records = self.records[:2000]
        lines = [record.to_line() for record in records]
        self._rate("formats.sam_encode_records_per_s", len(records),
                   lambda: [record.to_line() for record in records])
        self._rate("formats.sam_decode_records_per_s", len(lines),
                   lambda: [SamRecord.from_line(line) for line in lines])
        quals = [record.qual for record in records]
        self._rate(
            "formats.qual_codec_bases_per_s", sum(len(q) for q in quals),
            lambda: [encode_quals(decode_quals(q)) for q in quals],
        )
        data = bam_bytes(self.header, records, CHUNK_BYTES)
        self._rate("formats.bam_encode_mb_per_s", len(data) / MIB,
                   lambda: bam_bytes(self.header, records, CHUNK_BYTES))
        self._rate("formats.bam_decode_records_per_s", len(records),
                   lambda: read_bam(data))

    def probe_cleaning(self) -> None:
        records = self.records
        for name, program in (
            ("cleaning.markdup_records_per_s", MarkDuplicates()),
            ("cleaning.fixmate_records_per_s", FixMateInformation()),
            ("cleaning.sort_records_per_s", SortSam("coordinate")),
        ):
            self._rate(name, len(records),
                       lambda: program.run(self.header, records))

    def probe_gdpt(self) -> None:
        records = self.records
        pairs = list(zip(records[0::2], records[1::2]))
        bloom = build_partial_position_bloom(pairs)

        def keying() -> None:
            keyer = MarkDupKeying("opt", bloom)
            for end1, end2 in pairs:
                keyer.keys_for_pair(end1, end2)

        self._rate("gdpt.markdup_keying_pairs_per_s", len(pairs), keying)
        self._rate(
            "gdpt.split_pairs_per_s", len(self.pairs),
            lambda: split_pairs_contiguously(self.pairs, FASTQ_PARTITIONS),
        )

    def probe_shuffle(self) -> None:
        records = self.records
        spill_dir = self._fresh_dir("spill")

        def spill(io=None) -> None:
            buffer = SpillBuffer(
                REDUCERS, stable_hash_partition, lambda key: key,
                spill_records=max(1, len(records) // 8),
                spill_io=io, spill_dirs=(spill_dir,) if io else (),
            )
            for record in records:
                buffer.add(record.qname, record)
            buffer.finish(get_codec("raw"))

        self._rate("shuffle.spill_records_per_s", len(records), spill)
        self._rate("shuffle.spill_disk_records_per_s", len(records),
                   lambda: spill(LocalIO()))

        keyed = sorted(((r.qname, r) for r in records), key=lambda kv: kv[0])
        codec = get_codec("zlib-1")
        segment = encode_segment(keyed, codec)
        self._rate("shuffle.segment_encode_mb_per_s",
                   segment.raw_bytes / MIB,
                   lambda: encode_segment(keyed, codec))
        self._rate("shuffle.segment_decode_mb_per_s",
                   segment.raw_bytes / MIB,
                   lambda: decode_segment(segment.blob))
        runs = [keyed[i::8] for i in range(8)]
        self._rate(
            "shuffle.merge_records_per_s", len(keyed),
            lambda: merge_sorted_runs_list(runs, key=lambda kv: kv[0]),
        )

    def probe_mapreduce(self) -> None:
        def job(count: int, policy: ExecutionPolicy) -> Callable[[], Any]:
            spec = JobSpec(name="probe", mapper=_identity_map, policy=policy)
            splits = make_splits(range(count), prefix="probe")
            return lambda: run_job(spec, splits)

        tasks = 256
        serial, pool = ExecutionPolicy.serial(), ExecutionPolicy.pooled(2)
        one = self._seconds("mapreduce.job_fixed_ms", job(1, serial))
        many = self._seconds("mapreduce.task_overhead_us", job(tasks, serial))
        pool_one = self._seconds("mapreduce.pool_start_ms", job(1, pool))
        pool_many = self._seconds("mapreduce.pool_task_overhead_us",
                                  job(tasks, pool))
        self.metrics["mapreduce.job_fixed_ms"] = 1e3 * one
        self.metrics["mapreduce.task_overhead_us"] = (
            1e6 * (many - one) / (tasks - 1)
        )
        self.metrics["mapreduce.pool_start_ms"] = 1e3 * (pool_one - one)
        self.metrics["mapreduce.pool_task_overhead_us"] = (
            1e6 * (pool_many - pool_one) / (tasks - 1)
        )
        partition = self.partition
        block = RecordBlock(partition)
        self._rate("mapreduce.block_encode_mb_per_s", block.raw_bytes / MIB,
                   lambda: RecordBlock(partition))
        self._rate("mapreduce.block_decode_mb_per_s", block.raw_bytes / MIB,
                   block.decode)

    def probe_hdfs(self) -> None:
        blob = random.Random(0).randbytes(1 << 20)
        hdfs = new_hdfs()
        self._rate("hdfs.put_mb_per_s", 1.0,
                   lambda: hdfs.put("/blob", blob, overwrite=True))
        self._rate("hdfs.get_mb_per_s", 1.0, lambda: hdfs.get("/blob"))

    def probe_io(self) -> None:
        io = LocalIO()
        root = self._fresh_dir("io")
        rng = random.Random(0)
        small, large, tiny = (rng.randbytes(64 << 10), rng.randbytes(4 << 20),
                              rng.randbytes(256))
        ops = 16

        def write_small() -> None:
            for index in range(ops):
                io.write_atomic(os.path.join(root, f"s{index}.bin"), small)

        def append_tiny() -> None:
            for _ in range(ops):
                io.append_durable(os.path.join(root, "log.bin"), tiny)

        big = os.path.join(root, "big.bin")
        self._rate("io.write_atomic_ops_per_s", ops, write_small)
        self._rate("io.write_atomic_mb_per_s", 4.0,
                   lambda: io.write_atomic(big, large))
        self._rate("io.append_durable_ops_per_s", ops, append_tiny)
        self._rate("io.read_mb_per_s", 4.0, lambda: io.read_bytes(big))

    def probe_pipeline(self) -> None:
        store = CheckpointStore.local(self._fresh_dir("wal"))
        wal = JobWal(store.backend, "probe")
        wal.begin_round("round2")
        appends = 16
        outcome = {"outputs": list(range(32))}

        def append() -> None:
            for index in range(appends):
                wal.append_commit("round2", f"task-{index}", 0, outcome)

        self.metrics["pipeline.wal_append_us"] = (
            1e6 * self._seconds("pipeline.wal_append_us", append) / appends
        )


# ---------------------------------------------------------------------------
# the traced run of the workloads themselves
# ---------------------------------------------------------------------------
def _counter_sum(results: Dict[str, Any], name: str) -> int:
    return sum(result.counters.get(name) for result in results.values())


class TracedRun:
    """Drives each workload once with spans on and reads its counters."""

    def __init__(self, workloads: Dict[str, Any], named, seed: int,
                 scale: float, budget: float, work_root: str):
        self.workloads = workloads
        self.named = named
        self.seed = seed
        self.scale = scale
        self.budget = budget
        self.work_root = work_root
        self.tracer = Tracer()
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []
        #: Of the named workload: (traced wall, untraced wall, traced cpu).
        self.overhead: Tuple[float, float, float] = (0.0, 1.0, 0.0)

    def iteration(self, workload, state, name: str, traced: bool, **kwargs):
        """One checked iteration: ``(outcome, wall seconds, cpu seconds)``."""
        work_dir = os.path.join(self.work_root, name)
        os.makedirs(work_dir)
        tracer = self.tracer if traced else Tracer(enabled=False)
        self.attempted += 1
        cpu_before = cpu_seconds()
        start = time.perf_counter()
        with tracer.span(f"workload.{workload.name}"):
            outcome = workload.iterate(state, work_dir, tracer, **kwargs)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_before
        self.failures.extend(workload.check(state, outcome))
        return outcome, wall, cpu

    def traced(self, workload, state, untraced_wall=None):
        """The traced iteration; ``(outcome, wall seconds)``.

        For the named workload its untraced twin runs first (unless
        the caller already has that wall time) and the pair becomes
        ``bench.trace_overhead_frac`` / ``host.cpu_s``.
        """
        is_named = workload is self.named
        if is_named and untraced_wall is None:
            _, untraced_wall, _ = self.iteration(
                workload, state, workload.name, traced=False
            )
        outcome, wall, cpu = self.iteration(
            workload, state, workload.name + "-traced", traced=True
        )
        if is_named:
            self.overhead = (wall, untraced_wall, cpu)
        return outcome, wall

    def _probe_ms(self, layer: str, name: str, fn: Callable[[], Any]) -> None:
        with self.tracer.span(f"layer.{layer}"):
            with self.tracer.span(f"probe.{name}"):
                self.metrics[name] = 1e3 * median_seconds(fn, self.budget)

    # -- service-mix: the two phases, then the server-side numbers ------
    def service_mix(self):
        service = self.workloads["service-mix"]
        metrics = self.metrics
        mix = service.setup(self.seed, self.scale)
        # The bare-job reference is timed half before and half after
        # the served jobs, so a drifting host biases the difference less.
        half = mix.jobs // 2
        bare = [time_call(lambda: service.bare_job(payload))
                for payload in mix.payloads[:half]]
        outcome, _ = self.traced(service, mix)
        bare += [time_call(lambda: service.bare_job(payload))
                 for payload in mix.payloads[half:]]
        latencies = [1e3 * value for value in outcome.latencies]
        metrics["server.jobs_per_s"] = mix.jobs / outcome.burst_seconds
        metrics["server.job_ms_p50"] = percentile(latencies, 0.50)
        metrics["server.job_ms_p95"] = percentile(latencies, 0.95)
        metrics["server.submit_ms_p50"] = (
            1e3 * statistics.median(outcome.submits)
        )
        metrics["server.run_job_ms_p50"] = 1e3 * statistics.median(bare)
        metrics["server.overhead_ms_per_job"] = (
            metrics["server.job_ms_p50"] - metrics["server.run_job_ms_p50"]
        )
        metrics["server.rejected"] = outcome.rejected
        metrics["server.journal_bytes_per_job"] = os.path.getsize(
            os.path.join(outcome.closed_dir, "queue.log")
        ) / mix.jobs

        def reopen() -> None:
            server = JobServer(ServerConfig(
                state_dir=outcome.closed_dir, tenants=service.TENANTS,
                hold=True,
            ))
            try:
                server.open()
            finally:
                server.close()

        self._probe_ms("server", "server.open_recover_ms", reopen)
        return mix

    # -- wgs: the five rounds, serial and pooled ------------------------
    def wgs(self):
        serial = self.workloads["wgs-serial"]
        pool = self.workloads["wgs-pool2"]
        metrics = self.metrics
        state = serial.setup(self.seed, self.scale)
        serial.warmup(state, self.work_root)
        pool.warmup(state, self.work_root)
        _, serial_wall, _ = self.iteration(serial, state, "wgs-serial", False)
        pooled, pool_wall, _ = self.iteration(pool, state, "wgs-pool2", False)
        _, obs_wall, _ = self.iteration(
            serial, state, "wgs-obs", False, obs=ObsConfig(enabled=True)
        )
        outcome, wall = self.traced(serial, state, serial_wall)
        if self.named is pool:
            self.traced(pool, state, pool_wall)
        hdfs, round4_paths = outcome.round4
        state.round4_first = read_bam(hdfs.get(round4_paths[0]))[1]
        rounds_total = 0.0
        for number in range(1, 6):
            spent = self.tracer.duration(f"wrappers.round{number}")
            metrics[f"wrappers.round{number}_s"] = spent
            rounds_total += spent
        metrics["pipeline.driver_other_s"] = wall - rounds_total
        metrics["variants.calls"] = len(outcome.variants)
        metrics["variants.f1"] = variant_f1(outcome.variants, state.donor)
        metrics["obs.recorder_overhead_frac"] = obs_wall / serial_wall - 1.0
        metrics["mapreduce.pool_speedup"] = serial_wall / pool_wall
        results = pooled.round_results
        attempts = (_counter_sum(results, C.MAP_TASK_ATTEMPTS)
                    + _counter_sum(results, C.REDUCE_TASK_ATTEMPTS))
        metrics["mapreduce.attempts_per_task"] = (
            attempts / _counter_sum(results, C.TASK_COMMITS)
        )
        metrics["mapreduce.worker_crashes"] = _counter_sum(
            results, C.WORKER_CRASHES
        )
        return state

    # -- clean-durable: rounds 2-4 with the durability layers on --------
    def clean_durable(self):
        cleaning = self.workloads["clean-durable"]
        metrics = self.metrics
        state = cleaning.setup(self.seed, self.scale)
        outcome, _ = self.traced(cleaning, state)
        for number in (2, 3, 4):
            metrics[f"wrappers.clean_round{number}_s"] = self.tracer.duration(
                f"wrappers.clean_round{number}"
            )
        results = outcome.round_results
        shuffled = _counter_sum(results, C.SHUFFLED_BYTES)
        metrics["shuffle.shuffled_bytes"] = shuffled
        metrics["shuffle.compress_ratio"] = (
            _counter_sum(results, C.SHUFFLE_RAW_BYTES) / shuffled
        )
        metrics["shuffle.spilled_records"] = _counter_sum(
            results, C.SPILLED_RECORDS
        )
        metrics["shuffle.fetch_retries"] = _counter_sum(
            results, C.SHUFFLE_FETCH_RETRIES
        )
        stats = outcome.io_stats
        metrics["io.bytes_written"] = stats["io.bytes_written"]
        metrics["io.fsyncs"] = stats["io.fsyncs"] + stats["io.dir_fsyncs"]
        metrics["io.retries"] = stats["io.retries"]
        metrics["io.write_amplification"] = (
            stats["io.bytes_written"] / state.bam_bytes
        )
        metrics["cleaning.duplicates_marked"] = state.expected["duplicates"]
        metrics["formats.bam_bytes_per_record"] = (
            state.bam_bytes / (2 * state.pairs)
        )
        metrics["pipeline.ckpt_save_ms"] = (
            1e3 * self.tracer.duration("pipeline.ckpt_save") / 3
        )

        def restore() -> None:
            """Rounds 2-4 back into a fresh HDFS, then decode round 4."""
            target = new_hdfs()
            for key in ("round2", "round3", "round4"):
                extras, _ = outcome.store.restore_round(key, target)
            for bam_path in extras["paths"]:
                read_bam(target.get(bam_path))

        self._probe_ms("pipeline", "pipeline.ckpt_restore_ms", restore)
        return state


def run_traced(workloads: Dict[str, Any], named, seed: int, seconds: float,
               smoke: bool, work_root: str, clock):
    """Every per-layer metric; returns ``(record, tracer)``.

    The ledger's timings are raw seconds; ``host.pace`` is the host
    pace (``harness.HostClock``) over the whole traced run, for reading
    two ledgers taken at different host speeds side by side.
    """
    scale = SMOKE_SCALE if smoke else 1.0
    started = time.perf_counter()
    run = TracedRun(
        workloads, named, seed, scale,
        budget=max(0.02, seconds / 150.0), work_root=work_root,
    )
    # service-mix goes first, while the heap is still small: its jobs
    # take milliseconds and a large heap's collections would show.
    mix = run.service_mix()
    wgs = run.wgs()
    clean = run.clean_durable()
    metrics = run.metrics
    metrics.update(
        LayerProbes(run.tracer, run.budget, work_root, wgs, clean).run_all()
    )
    traced_wall, untraced_wall, traced_cpu = run.overhead
    metrics["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["host.cpu_s"] = traced_cpu
    host = host_info()
    metrics["host.nproc"] = host["nproc"]
    metrics["host.pace"] = clock.pace(started, time.perf_counter())
    record = {
        "workload": named.name, "seed": seed, "seconds": seconds,
        "scale": scale, "traced": True, "host": host,
        "sizes": {
            "wgs": workloads["wgs-serial"].sizes(wgs),
            "clean-durable": workloads["clean-durable"].sizes(clean),
            "service-mix": workloads["service-mix"].sizes(mix),
        },
        "attempted": run.attempted,
        "failed": min(len(run.failures), run.attempted),
        "failures": run.failures[:5],
        "values": {name: float(value) for name, value in metrics.items()},
    }
    return record, run.tracer
