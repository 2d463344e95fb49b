"""The four workloads: inputs from a seed, one timed iteration, checks.

Every workload offers the same steps to ``run.py``:

``setup(seed, scale)``      build the inputs (timed as ``setup_s``)
``warmup(state, dir)``      one discarded iteration; may pin references
``iterate(state, dir, t)``  one timed iteration over fresh disk state
``check(state, outcome)``   output checks; returns failure messages
``observe(state, outcome)`` the few numbers kept from an iteration
``extras(observations)``    what is printed beside the metrics
``sizes(state)``            what was processed, for the result record

Only package-level public names of ``repro`` are imported.  The
*reference genome* is a fixed build (one constant seed — like GRCh37 it
does not change between samples, and its repeat structure is what
decides how often the aligner falls back to Smith-Waterman); the
*sample* — donor variants and reads — comes from ``--seed``.
"""

from __future__ import annotations

import os
import random
import time
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

from repro import precision_sensitivity
from repro.align import PairedEndAligner, ReferenceIndex
from repro.api import (
    JobSpec,
    PipelineSpec,
    make_block_splits,
    run_job,
    run_pipeline,
)
from repro.formats import read_bam
from repro.gdpt import split_pairs_contiguously
from repro.genome import (
    DonorSimulationConfig,
    ReadSimulationConfig,
    ReferenceSimulationConfig,
    simulate_donor,
    simulate_reads,
    simulate_reference,
)
from repro.hdfs import Hdfs
from repro.io import IoPolicy, build_io
from repro.mapreduce import ExecutionPolicy, MapReduceEngine
from repro.pipeline import WAL_ROUND_KEYS, CheckpointStore, JobWal
from repro.server import JobServer, ServerConfig, TenantPolicy
from repro.shuffle import ShuffleConfig
from repro.wrappers import GesallRounds

from harness import Tracer, percentile

#: The fixed reference build (see the module docstring).
REFERENCE_SEED = 20170514
NODES = tuple(f"node{i:02d}" for i in range(4))
BLOCK_SIZE = 64 * 1024
CHUNK_BYTES = 16 * 1024
FASTQ_PARTITIONS = 8
REDUCERS = 4
#: ``--smoke`` runs every workload at a quarter of its size.
SMOKE_SCALE = 0.25

#: The k-mer index drops seeds with more hits than this as repetitive.
#: The package default (64) is tuned to its 72 kb default genome; on
#: these smaller contigs the centromere motif would slip under it and
#: every centromere read would fan out into dozens of Smith-Waterman
#: candidates, so the threshold is scaled with the genome.
MAX_HITS_PER_KMER = 24


def _reference(contig_lengths: Dict[str, int]):
    return simulate_reference(ReferenceSimulationConfig(
        contig_lengths=contig_lengths,
        duplicated_segments=1,
        blacklist_regions=1,
        seed=REFERENCE_SEED,
    ))


def build_index(reference) -> ReferenceIndex:
    return ReferenceIndex(reference, max_hits_per_kmer=MAX_HITS_PER_KMER)


def new_hdfs() -> Hdfs:
    return Hdfs(list(NODES), replication=3, block_size=BLOCK_SIZE)


def _fastq_partitions(pairs) -> List[List[Any]]:
    """The pipeline's own split of the interleaved FASTQ."""
    return [part for part in split_pairs_contiguously(
        list(pairs), FASTQ_PARTITIONS) if part]


def _sample(reference, seed: int, coverage: float,
            duplicate_fraction: float):
    donor = simulate_donor(reference, DonorSimulationConfig(seed=2 * seed + 1))
    pairs, _ = simulate_reads(donor, ReadSimulationConfig(
        coverage=coverage, duplicate_fraction=duplicate_fraction,
        seed=2 * seed + 2,
    ))
    return donor, pairs


def variant_f1(variants: List[Any], donor) -> float:
    """F1 of the calls against the donor's planted truth sites."""
    precision, sensitivity = precision_sensitivity(
        variants, donor.truth_sites()
    )
    total = precision + sensitivity
    return 2 * precision * sensitivity / total if total else 0.0


def _scaled(lengths: Dict[str, int], scale: float) -> Dict[str, int]:
    return {name: max(1000, int(length * scale))
            for name, length in lengths.items()}


def _contig_lengths(reference) -> Dict[str, int]:
    return {name: reference.contig_length(name)
            for name in reference.contigs}


def _read_all(hdfs: Hdfs, paths: List[str]) -> List[Any]:
    records: List[Any] = []
    for path in paths:
        records.extend(read_bam(hdfs.get(path))[1])
    return records


class Workload:
    """Defaults shared by the four workloads."""

    name = ""
    #: All timed work happens in this process (no pool workers): the
    #: timed run pins itself to one CPU (``harness.pin_to_one_cpu``) and
    #: times the process's CPU seconds instead of wall seconds.
    single_process = True

    def warmup(self, state, work_dir: str) -> None:
        self.iterate(state, work_dir, Tracer(enabled=False))

    def operations(self, state) -> int:
        """Operations one iteration attempts (jobs, or the run itself)."""
        del state
        return 1

    def pinned(self, state) -> Dict[str, Any]:
        """What the warm-up stored in ``state`` that a repeated set-up
        (same seed, so the same inputs) has to carry over."""
        del state
        return {}

    def extras(self, observations: List[Dict[str, Any]]) -> Dict[str, float]:
        """Numbers shown beside the metrics, from what ``observe`` kept.

        ``run.py`` keeps only these small per-iteration observations,
        never the outcomes, so the process's peak memory does not grow
        with the number of iterations a host happens to fit in.
        """
        return dict(observations[-1])


# ---------------------------------------------------------------------------
# wgs-serial / wgs-pool2: FASTQ -> VCF through all five rounds
# ---------------------------------------------------------------------------
class WgsWorkload(Workload):
    """One sample through ``repro.api.run_pipeline``, in memory."""

    CONTIGS = {"chr1": 8000, "chr2": 5600, "chr3": 4000}
    COVERAGE = 15.0

    def __init__(self, name: str, policy: ExecutionPolicy):
        self.name = name
        self.policy = policy
        self.single_process = policy.executor == "serial"

    def setup(self, seed: int, scale: float) -> SimpleNamespace:
        reference = _reference(_scaled(self.CONTIGS, scale))
        donor, pairs = _sample(reference, seed, self.COVERAGE, 0.05)
        index = build_index(reference)
        return SimpleNamespace(
            reference=reference, donor=donor, pairs=pairs, index=index,
            reference_lines=None,
        )

    def _spec(self, state, policy: ExecutionPolicy, obs=None) -> PipelineSpec:
        return PipelineSpec(
            reference=state.reference, index=state.index,
            num_fastq_partitions=FASTQ_PARTITIONS, num_reducers=REDUCERS,
            block_size=BLOCK_SIZE, chunk_bytes=CHUNK_BYTES,
            policy=policy, obs=obs,
        )

    def warmup(self, state, work_dir: str) -> None:
        """Pin the reference output, then discard one pooled run.

        The serial executor's VCF lines are what every later iteration
        — under any executor — must reproduce byte for byte.
        """
        if state.reference_lines is None:
            result = run_pipeline(
                self._spec(state, ExecutionPolicy.serial()), state.pairs
            )
            state.reference_lines = [v.to_line() for v in result.variants]
        if self.policy.executor != "serial":
            self.iterate(state, work_dir, Tracer(enabled=False))

    def pinned(self, state) -> Dict[str, Any]:
        return {"reference_lines": state.reference_lines}

    def iterate(self, state, work_dir: str, tracer: Tracer,
                obs=None) -> SimpleNamespace:
        del work_dir  # in-memory shuffle, no checkpoint: no disk state
        if tracer.enabled:
            return self._round_by_round(state, tracer)
        result = run_pipeline(
            self._spec(state, self.policy, obs), state.pairs
        )
        return SimpleNamespace(
            variants=result.variants, round_results=result.rounds.results
        )

    def _round_by_round(self, state, tracer: Tracer) -> SimpleNamespace:
        """What ``GesallPipeline.run`` does, one span per round.

        Everything outside the five round spans (HDFS and engine
        construction, the FASTQ split, re-reading each round's BAMs
        for the result object) is the driver's own share.
        """
        hdfs = new_hdfs()
        engine = MapReduceEngine(
            nodes=list(NODES), policy=self.policy, filesystem=hdfs,
            io=build_io(self.policy),
        )
        try:
            rounds = GesallRounds(
                hdfs, engine, PairedEndAligner(state.index),
                state.reference, CHUNK_BYTES,
            )
            partitions = _fastq_partitions(state.pairs)
            with tracer.span("wrappers.round1"):
                paths = rounds.round1_alignment(partitions)
            _read_all(hdfs, paths)
            with tracer.span("wrappers.round2"):
                paths = rounds.round2_cleaning(paths, num_reducers=REDUCERS)
            _read_all(hdfs, paths)
            with tracer.span("wrappers.round3"):
                paths = rounds.round3_mark_duplicates(
                    paths, mode="opt", num_reducers=REDUCERS
                )
            _read_all(hdfs, paths)
            with tracer.span("wrappers.round4"):
                paths = rounds.round4_sort_index(paths)
            with tracer.span("wrappers.round5"):
                variants = rounds.round5_haplotype_caller(paths)
            return SimpleNamespace(
                variants=variants, round_results=rounds.results,
                round4=(hdfs, paths),
            )
        finally:
            engine.close()

    def check(self, state, outcome) -> List[str]:
        lines = [v.to_line() for v in outcome.variants]
        if lines != state.reference_lines:
            return [f"{self.name}: VCF lines differ from the serial "
                    f"reference ({len(lines)} vs "
                    f"{len(state.reference_lines)} lines)"]
        return []

    def sizes(self, state) -> Dict[str, Any]:
        return {
            "contigs": _contig_lengths(state.reference),
            "pairs": len(state.pairs),
            "truth_variants": len(state.donor.truth_variants),
        }

    def observe(self, state, outcome) -> Dict[str, float]:
        return {"variant_f1": variant_f1(outcome.variants, state.donor),
                "calls": float(len(outcome.variants))}


# ---------------------------------------------------------------------------
# clean-durable: rounds 2 -> 3(opt) -> 4 with every durability layer on
# ---------------------------------------------------------------------------
class CleanDurableWorkload(Workload):
    """The shuffle-bound cleaning rounds over pre-aligned BAMs.

    Alignment happens once, in set-up; the timed region is handed a
    ``GesallRounds`` with no aligner at all and never constructs a
    variant caller, so ``align`` and ``variants`` do no timed work.
    """

    name = "clean-durable"
    CONTIGS = {"chr1": 3600, "chr2": 2400}
    COVERAGE = 60.0
    DUPLICATE_FRACTION = 0.15

    def setup(self, seed: int, scale: float) -> SimpleNamespace:
        reference = _reference(_scaled(self.CONTIGS, scale))
        _, pairs = _sample(
            reference, seed, self.COVERAGE, self.DUPLICATE_FRACTION
        )
        index = build_index(reference)
        hdfs = new_hdfs()
        rounds = GesallRounds(
            hdfs, None, PairedEndAligner(index), reference, CHUNK_BYTES,
            policy=ExecutionPolicy.serial(),
        )
        try:
            paths = rounds.round1_alignment(_fastq_partitions(pairs))
            bams = [(path, hdfs.get(path)) for path in paths]
        finally:
            rounds.close()
        state = SimpleNamespace(
            reference=reference, seed=seed, pairs=len(pairs), bams=bams,
            bam_bytes=sum(len(data) for _, data in bams), expected=None,
        )
        # The in-memory run of the same rounds is the reference every
        # durable iteration is checked against.
        state.expected = self._digest(
            self._run(state, None, Tracer(enabled=False)).outputs
        )
        return state

    def iterate(self, state, work_dir: str, tracer: Tracer) -> SimpleNamespace:
        return self._run(state, work_dir, tracer)

    def _run(self, state, work_dir, tracer: Tracer) -> SimpleNamespace:
        """Rounds 2-4; ``work_dir=None`` is the in-memory reference."""
        durable = work_dir is not None
        if durable:
            policy = ExecutionPolicy.serial(io=IoPolicy(
                spill_dirs=(os.path.join(work_dir, "spill"),)
            ))
            shuffle = ShuffleConfig(codec="zlib-1")
        else:
            policy = ExecutionPolicy.serial()
            shuffle = None
        hdfs = new_hdfs()
        io = build_io(policy)
        engine = MapReduceEngine(
            nodes=list(NODES), policy=policy, filesystem=hdfs, io=io
        )
        try:
            with tracer.span("hdfs.load"):
                for path, data in state.bams:
                    hdfs.put(path, data, logical_partition=True)
            rounds = GesallRounds(
                hdfs, engine, None, state.reference, CHUNK_BYTES,
                shuffle=shuffle,
            )
            store = None
            if durable:
                # Exactly what GesallPipeline does with a checkpoint
                # directory: one store and one job WAL on the run's
                # I/O layer, a save after every round.
                fingerprint = f"e2e-{state.seed:08x}"
                store = CheckpointStore.local(
                    os.path.join(work_dir, "ckpt"), io=io
                )
                store.begin(fingerprint)
                wal = JobWal(store.backend, fingerprint)
                for key in WAL_ROUND_KEYS:
                    wal.reset_round(key)
                rounds.attach_wal(wal, {})

            def save(key: str, out_dir: str, paths: List[str]) -> None:
                if store is None:
                    return
                with tracer.span("pipeline.ckpt_save"):
                    files = [
                        (path, hdfs.get(path),
                         hdfs.get_file(path).logical_partition)
                        for path in hdfs.list_dir(out_dir)
                    ]
                    store.save_round(key, files, extras={"paths": paths})

            paths = [path for path, _ in state.bams]
            with tracer.span("wrappers.clean_round2"):
                paths = rounds.round2_cleaning(paths, num_reducers=REDUCERS)
            save("round2", "/round2", paths)
            with tracer.span("wrappers.clean_round3"):
                paths = rounds.round3_mark_duplicates(
                    paths, mode="opt", num_reducers=REDUCERS
                )
            save("round3", "/round3", paths)
            with tracer.span("wrappers.clean_round4"):
                paths = rounds.round4_sort_index(paths)
            save("round4", "/round4", paths)
            outputs = [(path, hdfs.get(path)) for path in paths]
            return SimpleNamespace(
                outputs=outputs, io_stats=io.stats.as_dict(),
                round_results=dict(rounds.results), store=store,
            )
        finally:
            engine.close()

    @staticmethod
    def _digest(outputs: List[Tuple[str, bytes]]) -> Dict[str, Any]:
        records = duplicates = 0
        ordered = True
        for _, data in outputs:
            previous = None
            for record in read_bam(data)[1]:
                records += 1
                duplicates += record.flags.is_duplicate
                key = (record.rname, record.pos)
                if previous is not None and key < previous:
                    ordered = False
                previous = key
        return {"records": records, "duplicates": duplicates,
                "coordinate_sorted": ordered}

    def check(self, state, outcome) -> List[str]:
        digest = self._digest(outcome.outputs)
        if digest["coordinate_sorted"] and digest == state.expected:
            return []
        return [f"clean-durable: round-4 digest {digest} is unsorted or "
                f"differs from the in-memory reference {state.expected}"]

    def sizes(self, state) -> Dict[str, Any]:
        return {
            "contigs": _contig_lengths(state.reference),
            "pairs": state.pairs,
            "records": state.expected["records"],
            "duplicates": state.expected["duplicates"],
            "bam_bytes": state.bam_bytes,
        }

    def observe(self, state, outcome) -> Dict[str, float]:
        del state
        stats = outcome.io_stats
        return {
            "io.bytes_written": float(stats["io.bytes_written"]),
            "io.fsyncs": float(stats["io.fsyncs"] + stats["io.dir_fsyncs"]),
            "io.retries": float(stats["io.retries"]),
        }


# ---------------------------------------------------------------------------
# service-mix: hundreds of tiny jobs through the multi-tenant server
# ---------------------------------------------------------------------------
def wordcount_map(lines: List[str], ctx: Any) -> None:
    for line in lines:
        for word in line.split():
            ctx.emit(word, 1)


def wordcount_reduce(word: str, counts: List[int], ctx: Any) -> None:
    ctx.emit(word, sum(counts))


class ServiceMixWorkload(Workload):
    """Two tenants sharing one in-process ``JobServer``.

    *burst*: every job queued under ``hold`` (tenant ``a`` twice as
    often as ``b``), then released onto two slots — jobs per second.
    *closed*: one client, one slot, submit -> drain, the next request
    only after the previous reply — latency from the submit call.
    Every job has its own input lines and its own expected result,
    computed in set-up by a bare ``run_job`` of the same job.
    """

    name = "service-mix"
    JOBS = 60
    LINES = 300
    PARTITIONS = 4
    TENANTS = (TenantPolicy("a", weight=2.0), TenantPolicy("b"))

    def setup(self, seed: int, scale: float) -> SimpleNamespace:
        rng = random.Random(seed)
        vocabulary = [f"w{index:02d}" for index in range(53)]
        jobs = max(6, int(self.JOBS * scale))
        payloads = [
            {"type": "wordcount",
             "lines": [" ".join(rng.choice(vocabulary) for _ in range(24))
                       for _ in range(self.LINES)],
             "partitions": self.PARTITIONS, "reducers": REDUCERS}
            for _ in range(jobs)
        ]
        return SimpleNamespace(
            jobs=jobs, payloads=payloads,
            expected=[self.bare_job(payload) for payload in payloads],
        )

    def bare_job(self, payload: Dict[str, Any]) -> List[Tuple[str, int]]:
        """The same job through ``run_job`` alone: the reference."""
        lines = payload["lines"]
        chunk = -(-len(lines) // self.PARTITIONS)
        parts = [lines[i:i + chunk] for i in range(0, len(lines), chunk)]
        spec = JobSpec(
            name="bare", mapper=wordcount_map, reducer=wordcount_reduce,
            num_reducers=REDUCERS, policy=ExecutionPolicy.serial(),
        )
        result = run_job(spec, make_block_splits(parts, prefix="bare"))
        return sorted(result.all_outputs())

    def _server(self, state_dir: str, slots: int, hold: bool) -> JobServer:
        server = JobServer(ServerConfig(
            state_dir=state_dir, total_slots=slots, tenants=self.TENANTS,
            hold=hold,
        ))
        server.open()
        return server

    @staticmethod
    def _tenant(index: int) -> str:
        return "b" if index % 3 == 2 else "a"

    def iterate(self, state, work_dir: str, tracer: Tracer) -> SimpleNamespace:
        results: List[Any] = []
        closed_dir = os.path.join(work_dir, "closed")

        with tracer.span("server.burst"):
            server = self._server(
                os.path.join(work_dir, "burst"), slots=2, hold=True
            )
            try:
                start = time.perf_counter()
                with tracer.span("server.burst.submit"):
                    ids = [
                        server.submit(self._tenant(index), payload).job_id
                        for index, payload in enumerate(state.payloads)
                    ]
                with tracer.span("server.burst.drain"):
                    server.start_dispatch()
                    server.drain()
                burst_seconds = time.perf_counter() - start
                results.extend(self._collect(server, ids))
                rejected = server.counters().get("server.rejected", 0)
            finally:
                server.close()

        latencies: List[float] = []
        submits: List[float] = []
        with tracer.span("server.closed"):
            server = self._server(closed_dir, slots=1, hold=False)
            try:
                ids = []
                for index, payload in enumerate(state.payloads):
                    start = time.perf_counter()
                    with tracer.span("server.closed.submit"):
                        job = server.submit(self._tenant(index), payload)
                    submitted = time.perf_counter()
                    with tracer.span("server.closed.drain"):
                        server.drain()
                    latencies.append(time.perf_counter() - start)
                    submits.append(submitted - start)
                    ids.append(job.job_id)
                results.extend(self._collect(server, ids))
                rejected += server.counters().get("server.rejected", 0)
            finally:
                server.close()
        return SimpleNamespace(
            results=results, burst_seconds=burst_seconds,
            latencies=latencies, submits=submits, rejected=rejected,
            closed_dir=closed_dir,
        )

    @staticmethod
    def _collect(server: JobServer, ids: List[str]) -> List[Any]:
        """Per job: its result, or the error text when it is not done."""
        states = {job["job_id"]: job["state"]
                  for job in server.jobs_snapshot()["jobs"]}
        return [
            server.result(job_id) if states.get(job_id) == "done"
            else f"{job_id} is {states.get(job_id)}"
            for job_id in ids
        ]

    def check(self, state, outcome) -> List[str]:
        failures = [
            f"service-mix: {result}" if isinstance(result, str)
            else "service-mix: job result differs from bare run_job"
            for result, expected in zip(outcome.results, 2 * state.expected)
            if result != expected
        ]
        if len(outcome.results) != 2 * state.jobs:
            failures.append("service-mix: not every job was collected")
        return failures

    def operations(self, state) -> int:
        return 2 * state.jobs

    def sizes(self, state) -> Dict[str, Any]:
        return {"jobs_per_phase": state.jobs, "lines_per_job": self.LINES,
                "partitions": self.PARTITIONS, "reducers": REDUCERS}

    def observe(self, state, outcome) -> Dict[str, Any]:
        return {"jobs_per_s": state.jobs / outcome.burst_seconds,
                "latencies_ms": [1e3 * value for value in outcome.latencies]}

    def extras(self, observations: List[Dict[str, Any]]) -> Dict[str, float]:
        latencies = [value for seen in observations
                     for value in seen["latencies_ms"]]
        rates = sorted(seen["jobs_per_s"] for seen in observations)
        return {
            "jobs_per_s": rates[len(rates) // 2],
            "job_ms_p50": percentile(latencies, 0.50),
            "job_ms_p95": percentile(latencies, 0.95),
            "job_ms_n": float(len(latencies)),
        }


def build_workloads() -> Dict[str, Any]:
    workloads = [
        WgsWorkload("wgs-serial", ExecutionPolicy.serial()),
        WgsWorkload("wgs-pool2", ExecutionPolicy.pooled(2)),
        CleanDurableWorkload(),
        ServiceMixWorkload(),
    ]
    return {workload.name: workload for workload in workloads}
