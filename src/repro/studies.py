"""The functional and measured figures: studies run on this package itself.

Each is an entry of :data:`repro.obs.figures.FIGURES`.  A ``functional``
one runs the real pipelines or kernels on a seeded synthetic sample, so
its record is byte-reproducible and carries neither host nor timing;
Table 8, Tables 9/10, Fig 11 and Fig 6a share one accuracy-study run.  A
``measured`` one (``elastic``, ``server``, ``rounds_scale``) is timed on
the running host; its claims are bounds meant to hold on any host.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import multiprocessing
import os
import random
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

from repro.align import AlignerConfig, PairedEndAligner, ReferenceIndex
from repro.api import JobSpec, PipelineSpec
from repro.cluster.costs import CostModel
from repro.diagnostics import (
    ErrorDiagnosisToolkit, attribute_regions, discordance_coverage, edge_enrichment,
    enrichment_in_hard_regions, filtered_discordance_fraction, insert_size_histogram)
from repro.errors import ReproError
from repro.formats import SamFlags, SamHeader, SamRecord, bam_bytes, encode_quals
from repro.formats import flags as F
from repro.formats.cigar import Cigar
from repro.gdpt import (
    MarkDupKeying, OverlappingRangePartitioner, build_partial_position_bloom)
from repro.genome import (
    DonorSimulationConfig, ReadSimulationConfig, ReferenceSimulationConfig,
    SomaticSimulationConfig, simulate_donor, simulate_reads, simulate_reference,
    simulate_tumor, simulate_tumor_reads)
from repro.mapreduce import ExecutionPolicy, MapReduceEngine, make_splits
from repro.metrics import precision_sensitivity
from repro.obs import ObsConfig, TraceRecorder
from repro.obs.figures import column, figure, ordered, table
from repro.pipeline import GesallPipeline, SerialPipeline
from repro.server import JobServer, ServerConfig, TenantPolicy
from repro.server.protocol import build_runnable, wordcount_payload
from repro.shuffle import CODEC_NAMES, ShuffleConfig
from repro.variants import HaplotypeCallerConfig, MutectLite


def _digest(value) -> str:
    """A short stable fingerprint of outputs a claim compares."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _value(t, index: int, quantity: str):
    return t[index][quantity]["value"]


# -- the accuracy study (section 4.5.2) ----------------------------------------
#: A larger genome and coverage than the unit tests' so that variant-level
#: discordance is observable.
ACCURACY = {"coverage": 22.0, "fastq_partitions": 12, "reducers": 4}


@functools.lru_cache(maxsize=1)
def accuracy_study(coverage: float, fastq_partitions: int, reducers: int):
    """One serial and one parallel run of the same sample, diagnosed."""
    reference = simulate_reference(ReferenceSimulationConfig(
        contig_lengths={"chr1": 16000, "chr2": 12000, "chr3": 9000}, seed=211))
    donor = simulate_donor(reference, DonorSimulationConfig(
        snp_rate=2.5e-3, indel_rate=3e-4, seed=212))
    pairs, _ = simulate_reads(donor, ReadSimulationConfig(coverage=coverage, seed=213))
    # A downsampling cap near the coverage fires HC's invocation-seeded
    # downsampling: even per-chromosome partitions then differ, as in the paper.
    hc_config = HaplotypeCallerConfig(downsample_depth=16)
    spec = PipelineSpec(
        reference, index=ReferenceIndex(reference),
        num_fastq_partitions=fastq_partitions, num_reducers=reducers,
        aligner_config=AlignerConfig(seed=5), hc_config=hc_config)
    serial = SerialPipeline(spec, batch_size=1500).run(pairs)
    parallel = GesallPipeline(spec).run(pairs)
    diagnosis = ErrorDiagnosisToolkit(reference, hc_config).diagnose(serial, parallel)
    return SimpleNamespace(reference=reference, donor=donor, serial=serial,
                           parallel=parallel, diagnosis=diagnosis)


@figure("functional", "table8_accuracy", ACCURACY,
        ("parallel Bwa is not identical to serial Bwa",
         lambda t: t[0]["Bwa"]["D_count"] > 0),
        ("... but disagrees on under 10 % of the reads",
         lambda t: t[0]["Bwa"]["D_count"] < 0.10 * _value(t, 1, "reads compared")),
        ("weighted D_count is far below raw (< 0.6x): disagreements are low quality",
         lambda t: t[0]["Bwa"]["weighted D_count"] < 0.6 * t[0]["Bwa"]["D_count"]),
        ("MarkDuplicates' net count difference is tiny next to its flag differences",
         lambda t: _value(t, 1, "net duplicate-count difference")
         <= max(3, 0.25 * t[0]["Mark Duplicates"]["D_count"])),
        ("final variant discordance is at most 15 % of the concordant calls",
         lambda t: _value(t, 1, "variant D_count")
         <= 0.15 * max(1, _value(t, 1, "concordant variants"))),
        ("the MarkDuplicates prefix has a D_impact",
         lambda t: t[0]["Mark Duplicates"]["D_impact"] is not None))
def _table8(**sample):
    diagnosis = accuracy_study(**sample).diagnosis
    return [
        table("Table 8: parallel prefixes vs the serial pipeline",
              "stage|D_count:n|weighted D_count|weighted D_count %|D_impact:n"
              "|weighted D_impact",
              [(row.stage, row.d_count, row.weighted_d_count,
                row.weighted_d_count_pct, row.d_impact, row.weighted_d_impact)
               for row in diagnosis.rows]),
        table("Compared", "quantity|value", [
            ("reads compared", diagnosis.alignment.total),
            ("concordant variants", len(diagnosis.variants.concordant)),
            ("variant D_count", diagnosis.variants.d_count),
            ("net duplicate-count difference",
             diagnosis.duplicates.count_difference)]),
    ]


def _unique_sets(t):
    return [row for label, row in t[0].items() if label != "Intersection"]


def _pipelines_agree(t, metric: str) -> bool:
    return abs(t[1]["serial"][metric] - t[1]["hybrid"][metric]) < 0.03


@figure("functional", "table9_10_quality", ACCURACY,
        ("pipeline-unique variants are at most 15 % of the concordant set",
         lambda t: sum(row["count"] for row in _unique_sets(t))
         <= 0.15 * max(1, t[0]["Intersection"]["count"])),
        ("every non-empty unique set has lower QUAL than the concordant set",
         lambda t: all(row["QUAL"] <= t[0]["Intersection"]["QUAL"]
                       for row in _unique_sets(t) if row["count"])),
        ("partitioning does not move precision against the truth set (< 0.03)",
         lambda t: _pipelines_agree(t, "precision")),
        ("... nor sensitivity (< 0.03)", lambda t: _pipelines_agree(t, "sensitivity")),
        ("concordant calls look real: mean MQ > 30",
         lambda t: t[0]["Intersection"]["MQ"] > 30),
        ("... and mean DP > 5", lambda t: t[0]["Intersection"]["DP"] > 5))
def _table9_10(**sample):
    study = accuracy_study(**sample)
    truth, impact = study.donor.truth_sites(), study.diagnosis.impact_from_markdup
    runs = {"serial": study.serial.variants,
            "hybrid": impact.concordant + impact.only_second}
    return [
        table("Tables 9/10: concordant vs pipeline-unique variants (serial HC on "
              "the parallel prefix)", "set|count:n|QUAL|MQ|DP|FS|AB|Ti/Tv|Het/Hom",
              [(row.label, row.count, row.mean_qual, row.mean_mq, row.mean_dp,
                row.mean_fs, row.mean_ab, row.ti_tv, row.het_hom)
               for row in study.diagnosis.quality_rows]),
        table("Against the truth set", "pipeline|precision|sensitivity",
              [(name, *precision_sensitivity(variants, truth))
               for name, variants in runs.items()]),
    ]


def _hard_regions(reference, contig: str, bins: int) -> str:
    """Per 500 bp bin: C centromere, B blacklist, D duplication, else ``.``."""
    tracks = (("C", reference.centromeres), ("B", reference.blacklist),
              ("D", reference.duplications))
    end = min(500 * bins, reference.contig_length(contig) + 1)
    return "".join(
        next((mark for mark, regions in tracks if regions.contains(contig, pos)), ".")
        for pos in range(250, end, 500))


@figure("functional", "fig11_error_diagnosis", ACCURACY,
        ("(a) discordance is enriched over 2x in hard-to-map regions",
         lambda t: _value(t, 0, "hard-region enrichment") > 2.0),
        ("(b) most disagreeing reads have max MAPQ < 30",
         lambda t: _value(t, 0, "max MAPQ < 30") > 0.5),
        ("MAPQ > 30 + blacklist filters shrink the discordance over 5x",
         lambda t: _value(t, 0, "discordant after filters") < _value(
             t, 0, "disagreeing reads") / _value(t, 0, "reads compared") / 5))
def _fig11(**sample):
    study = accuracy_study(**sample)
    reference, comparison = study.reference, study.diagnosis.alignment
    discordant = comparison.discordant
    regions = attribute_regions(discordant, reference)
    disc_edge, pop_edge = edge_enrichment(discordant, study.serial.alignment)
    return [
        table("Fig 11: parallel Bwa's disagreeing reads", "quantity|value", [
            ("reads compared", comparison.total),
            ("disagreeing reads", comparison.d_count),
            ("hard-region enrichment",
             enrichment_in_hard_regions(discordant, reference)),
            ("max MAPQ < 30", ErrorDiagnosisToolkit.low_quality_fraction(comparison)),
            ("disagreeing at insert-size edges", disc_edge),
            ("all pairs at insert-size edges", pop_edge),
            ("discordant after filters", filtered_discordance_fraction(
                discordant, reference, comparison.total))],
              "filters: MAPQ > 30 and no blacklisted region (paper: 0.025 % of pairs)"),
        table("Fig 11a: region attribution", "region|reads:n", [
            ("centromere", regions.in_centromere), ("blacklist", regions.in_blacklist),
            ("duplication", regions.in_duplication), ("elsewhere", regions.elsewhere)]),
        table("Fig 11a: discordance along the genome, 500 bp bins",
              "contig|discordance:series|hard regions",
              [(contig, bins, _hard_regions(reference, contig, len(bins)))
               for contig, bins in discordance_coverage(
                   discordant, reference, bin_size=500).items()],
              "hard regions: C centromere, B blacklist, D duplication"),
        table("Fig 11c: insert sizes of disagreeing pairs", "bucket:n|pairs:n",
              sorted(insert_size_histogram(discordant).items())),
    ]


@figure("functional", "fig6a_transform_fractions", ACCURACY,
        ("every stage's modelled transform share is within 10-50 %",
         lambda t: all(0.10 <= share <= 0.50 for share in column(t[0], "share"))),
        ("every wrapped round copies bytes across the boundary",
         lambda t: all(column(t[1], "bytes"))))
def _fig6a(**sample):
    transform = accuracy_study(**sample).parallel.rounds.transform
    return [
        table("Fig 6a: cost-model share of task time in data transformation",
              "stage|share:%", sorted(CostModel().transform_fraction.items()),
              "paper: 12-49 %"),
        table("Bytes copied across the Hadoop <-> BAM boundary (parallel run)",
              "round|program calls:n|bytes:B",
              [(name, accounting.invocations, accounting.total_bytes)
               for name, accounting in sorted(transform.items())]),
    ]


# -- ablations of GDPT's design knobs -------------------------------------------
def _read(qname: str, bits: int, pos: int, length: int = 50, seq: str = "",
          quals=None) -> SamRecord:
    mapped = not bits & F.UNMAPPED
    return SamRecord(qname, SamFlags(bits), "chr1", pos, 60 if mapped else 0,
                     Cigar.parse(f"{length}M" if mapped else "*"),
                     seq=seq or "A" * length, qual=encode_quals(quals or [30] * length))


def _pair(qname: str, pos1: int, pos2: int, mapped2: bool = True):
    first, second = F.PAIRED | F.FIRST_IN_PAIR, F.PAIRED | F.SECOND_IN_PAIR
    if mapped2:
        return _read(qname, first, pos1), _read(qname, second | F.REVERSE, pos2)
    return (_read(qname, first | F.MATE_UNMAPPED, pos1),
            _read(qname, second | F.UNMAPPED, pos2))


def _shuffle_ratio(keying: MarkDupKeying, pairs) -> float:
    """Shuffled records per input record: a pair or partial value carries
    two records, a shadow one."""
    keying.reset()
    return sum(2 if value[0] != "shadow" else 1 for end1, end2 in pairs
               for _, value in keying.keys_for_pair(end1, end2)) / (2 * len(pairs))


@figure("functional", "ablation_bloom_geometry",
        {"pairs": 4000, "partials": 80, "bloom_bits": (64, 256, 1024, 16384, 262144)},
        ("bigger blooms shuffle less",
         lambda t: ordered(column(t[0], "shuffle ratio"), falling=True)),
        ("a generous bloom approaches the paper's 1.03x (< 1.10)",
         lambda t: column(t[0], "shuffle ratio")[-1] < 1.10),
        ("a saturated bloom never shuffles more than reg",
         lambda t: column(t[0], "shuffle ratio")[0]
         <= t[1]["reg"]["shuffle ratio"] + 1e-9),
        ("reg shuffles over 1.5x the input records",
         lambda t: t[1]["reg"]["shuffle ratio"] > 1.5))
def _ablation_bloom(pairs, partials, bloom_bits):
    rng = random.Random(0)
    reads = [_pair(f"q{i}", rng.randrange(1, 500_000), rng.randrange(1, 500_000))
             for i in range(pairs)]
    reads += [_pair(f"p{i}", rng.randrange(1, 500_000), 0, mapped2=False)
              for i in range(partials)]
    blooms = {bits: build_partial_position_bloom(reads, bits) for bits in bloom_bits}
    rows = [(bits, bloom.estimated_fill(),
             _shuffle_ratio(MarkDupKeying("opt", bloom), reads))
            for bits, bloom in blooms.items()]
    return [table(f"MarkDup_opt shuffled / input records by bloom size, {partials} "
                  f"of {len(reads)} pairs partial",
                  "bloom bits:n|fill:%|shuffle ratio:x", rows,
                  "paper: opt 1.03x vs reg 1.92x the input records"),
            table("MarkDup_reg: no bloom", "keying|shuffle ratio:x",
                  [("reg", _shuffle_ratio(MarkDupKeying("reg"), reads))])]


@figure("functional", "ablation_bam_chunk_size",
        {"records": 1500, "chunk_bytes": (1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 20)},
        ("every chunk of 4 KiB or more compresses better than 1 KiB",
         lambda t: all(r < t[0][1024]["compressed/raw"]
                       for r in column(t[0], "compressed/raw")[1:])),
        ("real compression: every ratio < 0.6",
         lambda t: max(column(t[0], "compressed/raw")) < 0.6))
def _ablation_chunk(records, chunk_bytes):
    rng = random.Random(1)
    reads = [_read(f"r{i:05d}", 0, rng.randrange(1, 90000), 100,
                   "".join(rng.choice("ACGT") for _ in range(100)),
                   [rng.randrange(20, 41) for _ in range(100)]) for i in range(records)]
    header, raw = SamHeader(sequences=[("chr1", 100000)]), sum(
        len(r.to_line()) + 1 for r in reads)
    return [table("BAM bytes / SAM text bytes by chunk size",
                  "chunk bytes:B|compressed/raw:x",
                  [(size, len(bam_bytes(header, reads, size)) / raw)
                   for size in chunk_bytes],
                  "level-1 deflate gains nothing past 4 KiB; larger chunks "
                  "coarsen seek granularity")]


@figure("functional", "ablation_overlap_replication",
        {"records": 3000, "range_bp": 5000, "overlaps": (0, 100, 250, 500, 1000)},
        ("replication grows with the overlap",
         lambda t: ordered(column(t[0], "replication"))),
        ("near-zero replication without overlap (< 1.05)",
         lambda t: t[0][0]["replication"] < 1.05),
        ("bounded even at a generous overlap (< 1.6)",
         lambda t: max(column(t[0], "replication")) < 1.6))
def _ablation_overlap(records, range_bp, overlaps):
    header, rng = SamHeader(sequences=[("chr1", 200_000)]), random.Random(2)
    reads = [_read(f"r{i}", 0, rng.randrange(1, 199_800), 100) for i in range(records)]
    return [table("Replication of the overlapping HC partitioning (section 3.2)",
                  "overlap bp:n|replication:x",
                  [(overlap, OverlappingRangePartitioner(
                      header, range_bp, overlap).replication_factor(reads))
                   for overlap in overlaps])]


# -- shuffle codecs and somatic calling -----------------------------------------
def _same(t, name: str) -> bool:
    return len(set(column(t[0], name))) == 1


def _shuffled(t, codec: str) -> int:
    return t[0][codec]["shuffled bytes"]


@figure("functional", "shuffle_codecs", {"coverage": 10.0, "partitions": 8},
        ("every codec calls the same variants", lambda t: _same(t, "variants")),
        ("every codec writes the same segments", lambda t: _same(t, "segments")),
        ("every codec carries the same raw bytes", lambda t: _same(t, "raw bytes")),
        ("raw frames carry only header overhead: shuffled > raw",
         lambda t: _shuffled(t, "raw") > t[0]["raw"]["raw bytes"]),
        ("zlib-1 at least halves the shuffled bytes",
         lambda t: _shuffled(t, "raw") >= 2 * _shuffled(t, "zlib-1")),
        ("zlib-6 never shuffles more than zlib-1",
         lambda t: _shuffled(t, "zlib-6") <= _shuffled(t, "zlib-1")))
def _shuffle_codecs(coverage, partitions):
    reference = simulate_reference(ReferenceSimulationConfig(
        contig_lengths={"chr1": 9000, "chr2": 6000}, seed=411))
    pairs, _ = simulate_reads(simulate_donor(reference),
                              ReadSimulationConfig(coverage=coverage, seed=412))
    index, rows = ReferenceIndex(reference), []
    for codec in CODEC_NAMES:
        result = GesallPipeline(PipelineSpec(
            reference, index=index, num_fastq_partitions=partitions,
            policy=ExecutionPolicy.serial(), obs=ObsConfig(enabled=True),
            shuffle=ShuffleConfig(codec=codec))).run(list(pairs))
        counters = result.recorder.metrics.as_dict()["counters"]
        raw, shuffled = (counters.get("shuffle.raw_bytes", 0),
                         counters.get("shuffle.bytes_shuffled", 0))
        rows.append((codec, counters.get("shuffle.segments", 0), raw, shuffled,
                     raw / shuffled, _digest([v.to_line() for v in result.variants])))
    return [table(f"Full pipeline, {len(pairs)} read pairs, {partitions} partitions: "
                  "shuffle bytes by codec",
                  "codec|segments:n|raw bytes:n|shuffled bytes:n|ratio:x|variants",
                  rows, "variants: a digest of the called VCF lines")]


@figure("functional", "somatic_purity_sweep", {"purities": (1.0, 0.7, 0.4)},
        ("sensitivity does not improve as purity falls",
         lambda t: column(t[0], "sensitivity")[0] >= column(t[0], "sensitivity")[-1]),
        ("full purity finds at least 60 % of the somatic sites",
         lambda t: column(t[0], "sensitivity")[0] >= 0.6),
        ("the measured allele fraction tracks purity / 2 (within 0.15)",
         lambda t: all(abs(row["mean AF"] - row["expected AF"]) < 0.15
                       for row in t[0].values() if row["sensitivity"] > 0)))
def _somatic(purities):
    reference = simulate_reference(ReferenceSimulationConfig(
        contig_lengths={"chr1": 9000}, seed=101))
    donor = simulate_donor(reference, DonorSimulationConfig(seed=102))
    aligner = PairedEndAligner(ReferenceIndex(reference))
    normal = aligner.align_all(simulate_reads(donor, ReadSimulationConfig(
        coverage=25.0, seed=103))[0], batch_size=800)
    caller, rows = MutectLite(reference), []
    for purity in purities:
        tumor = simulate_tumor(donor, SomaticSimulationConfig(
            somatic_snvs=8, purity=purity, seed=104))
        tumor_pairs = simulate_tumor_reads(tumor, ReadSimulationConfig(
            coverage=35.0, seed=105, sample_name="TUM1"))[0]
        calls = caller.call(aligner.align_all(tumor_pairs, batch_size=800), normal)
        called, truth = {c.site_key() for c in calls}, tumor.somatic_sites()
        true_afs = [c.info["AF"] for c in calls if c.site_key() in truth]
        rows.append((purity, len(called & truth) / len(truth), len(called - truth),
                     sum(true_afs) / len(true_afs) if true_afs else 0.0, purity / 2))
    return [table("MutectLite on a tumor / normal pair, by tumor purity",
                  "purity|sensitivity:%|false positives:n|mean AF|expected AF", rows)]


# -- measured on the running host ----------------------------------------------
CLEAN_STALL, STRAGGLER, FAST = 0.02, 0.15, 0.01


def _clean_map(payload, ctx):
    time.sleep(CLEAN_STALL)
    ctx.emit(len(payload) % 4, payload)


def _clean_reduce(key, values, ctx):
    ctx.emit(key, sorted(values))


def _skewed_map(payload, ctx):
    time.sleep(STRAGGLER if payload.endswith("-00") else FAST)
    ctx.emit(payload, len(payload))


def _pools(spec: JobSpec, payloads, policies):
    """One row per policy: the job's wall, paid worker-seconds and sizing."""
    rows = []
    for name, policy in policies:
        recorder, start = TraceRecorder(), time.perf_counter()
        with MapReduceEngine(nodes=[f"n{i}" for i in range(4)], policy=policy,
                             recorder=recorder) as engine:
            outputs = sorted(engine.run(spec, make_splits(payloads)).all_outputs())
        counters = recorder.metrics.as_dict()["counters"]
        rows.append((name, time.perf_counter() - start,
                     counters.get("pool.paid_worker_seconds", 0.0),
                     counters.get("pool.forks", 0),
                     counters.get("pool.workers_retired", 0), _digest(outputs)))
    return rows


_POOL = "pool@8"


@figure("measured", "elastic", {"max_workers": 8, "clean_tasks": 16, "skew_tasks": 4},
        *((f"{scenario}: the pool's outputs match serial",
           lambda t, i=i: t[i][_POOL]["outputs"] == t[i]["serial"]["outputs"])
          for i, scenario in enumerate(("clean", "skew"))),
        ("clean: 4 workers retire for the 4-task reduce wave",
         lambda t: t[0][_POOL]["retired"] == 4),
        ("skew: the pool forks 4 workers, not 8",
         lambda t: t[1][_POOL]["forks"] == 4))
def _elastic(max_workers, clean_tasks, skew_tasks):
    policies = (("serial", ExecutionPolicy.serial()),
                (_POOL, ExecutionPolicy.pooled(max_workers=max_workers)))
    clean = JobSpec("elastic-clean", _clean_map, _clean_reduce, num_reducers=4)
    skewed = JobSpec("elastic-skew", _skewed_map)
    columns = "policy|wall:s|paid:s|forks:n|retired:n|outputs"
    return [
        table(f"Clean round: {clean_tasks} x {CLEAN_STALL} s maps -> 4 reducers",
              columns, _pools(clean, [f"partition-{i:02d}" for i in range(clean_tasks)],
                              policies)),
        table(f"Skewed round: {skew_tasks} maps, one a {STRAGGLER} s straggler",
              columns, _pools(skewed, [f"shard-{i:02d}" for i in range(skew_tasks)],
                              policies),
              "paid: the pool's worker-seconds, idle slots included"),
    ]


SERVER = {"jobs": 12, "partitions": 4, "reducers": 4, "repeats": 3}
_LINES = [" ".join(f"w{(i + j) % 19:02d}" for j in range(24)) for i in range(300)]


def _loop_once(jobs, partitions, reducers):
    """The server's own job bodies, called in a loop: no queue, no journal."""
    with tempfile.TemporaryDirectory() as root:
        start, outputs = time.perf_counter(), []
        for index in range(jobs):
            payload = wordcount_payload(_LINES, partitions=partitions,
                                        reducers=reducers)
            outputs.append(build_runnable(f"job-{index:03d}", payload, root)())
        return time.perf_counter() - start, outputs


def _server_once(jobs, partitions, reducers):
    """The same jobs through the whole service on one slot."""
    with tempfile.TemporaryDirectory() as root:
        server = JobServer(ServerConfig(state_dir=root, total_slots=1,
                                        tenants=(TenantPolicy("bench"),), hold=True))
        server.open()
        start = time.perf_counter()
        for index in range(jobs):
            server.submit("bench", wordcount_payload(
                _LINES, partitions=partitions, reducers=reducers),
                job_id=f"job-{index:03d}")
        server.start_dispatch()
        server.drain()
        elapsed = time.perf_counter() - start
        outputs = [server.result(f"job-{index:03d}") for index in range(jobs)]
        server.close()
    return elapsed, outputs


@figure("measured", "server", SERVER,
        ("the service does not change what the jobs compute",
         lambda t: t[0]["job server"]["outputs"] == t[0]["sequential loop"]["outputs"]),
        ("the whole stack costs < 25 ms per job (0.3 s floor)",
         lambda t: t[0]["job server"]["overhead"]
         <= max(0.025 * SERVER["jobs"], 0.3)))
def _server(jobs, partitions, reducers, repeats):
    runs = [(path, min((once(jobs, partitions, reducers) for _ in range(repeats)),
                       key=lambda run: run[0]))
            for path, once in (("sequential loop", _loop_once),
                               ("job server", _server_once))]
    loop_wall = runs[0][1][0]
    return [table(f"{jobs} wordcount jobs on one slot, best of {repeats}",
                  "path|wall:s|overhead:s|outputs",
                  [(path, wall, wall - loop_wall, _digest(outputs))
                   for path, (wall, outputs) in runs],
                  "overhead: queue journal + scheduler + pool hop")]


# -- rounds 2-4 by data volume: the contract workload, one interpreter per scale
#: The source checkout this module runs from; the frozen benchmark harness
#: lives under it, beside ``src/``.
CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
HARNESS_DIR = os.path.join(CHECKOUT, "benchmarks", "e2e")
SCALE_ROUNDS = ("round2", "round3", "round4")


def scale_row(seed: int, scale: float, iterations: int) -> dict:
    """One scale of ``rounds_scale``, run in a fresh interpreter.

    ``CleanDurableWorkload.setup(seed, scale)``, one warm-up and
    ``iterations`` timed durable ``iterate`` calls, every output checked
    by the workload's own ``check``.  A round costs the process CPU
    seconds spent inside its span divided by ``HostClock``'s pace over
    it: busy seconds at nominal host speed, the contract benchmark's
    unit.  Pins its process to one CPU, so it belongs in a child.
    """
    sys.path.insert(0, HARNESS_DIR)
    from harness import HostClock, pin_to_one_cpu, summarize
    from workloads import CleanDurableWorkload

    workload, failures = CleanDurableWorkload(), []
    busy = {key: [] for key in SCALE_ROUNDS}
    scratch = os.path.join(CHECKOUT, ".bench_tmp")  # git-ignored
    os.makedirs(scratch, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="scale-", dir=scratch)
    pin_to_one_cpu()  # before the clock threads exist: they inherit it
    try:
        with HostClock() as clock:
            state = workload.setup(seed, scale)
            for index in range(iterations + 1):  # the first one is a warm-up
                spans = {}

                @contextlib.contextmanager
                def span(name):
                    cpu, start = time.process_time(), time.perf_counter()
                    yield
                    spans[name] = (time.process_time() - cpu, start, time.perf_counter())

                work_dir = os.path.join(work_root, str(index))
                os.makedirs(work_dir)
                gc.collect()
                outcome = workload.iterate(state, work_dir, SimpleNamespace(span=span))
                failures += workload.check(state, outcome)
                shutil.rmtree(work_dir)
                for key in SCALE_ROUNDS if index else ():
                    cpu, start, end = spans[f"wrappers.clean_{key}"]
                    busy[key].append(cpu / clock.pace(start, end))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # unless another run is using it
    with open("/proc/self/status") as status:  # pin_to_one_cpu is Linux-only too
        peak_rss = next(int(line.split()[1]) * 1024 for line in status
                        if line.startswith("VmHWM:"))
    return {"scale": scale, "pairs": state.pairs, "records": state.expected["records"],
            "check_failures": failures, "peak_rss": peak_rss,
            "rounds": {key: summarize(values) for key, values in busy.items()}}


def scale_row_in_child(seed: int, scale: float, iterations: int) -> dict:
    """:func:`scale_row` in a spawned interpreter: peak RSS is a
    high-water mark, and this process may have run other figures first."""
    if not os.path.isdir(HARNESS_DIR):
        raise ReproError(f"rounds_scale runs the benchmark workload in {HARNESS_DIR}, "
                         "which is missing; run it from a source checkout")
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as child:
        return child.submit(scale_row, seed, scale, iterations).result()


_STATS = ("n", "min", "q1", "median", "q3", "max")


@figure("measured", "rounds_scale", {"seed": 7, "scales": (1, 4, 8), "iterations": 3},
        ("every scale's outputs pass the workload's own check",
         lambda t: not any(column(t[0], "check failures"))),
        ("each scale holds more records than the one below it",
         lambda t: all(low < high for low, high in zip(
             column(t[0], "records"), column(t[0], "records")[1:]))),
        ("every (scale, round) cell has q1 <= median <= q3",
         lambda t: all(row["q1"] <= row["median"] <= row["q3"] for row in t[1].values())))
def _rounds_scale(seed, scales, iterations):
    rows = [scale_row_in_child(seed, scale, iterations) for scale in scales]

    def cost(row, key):
        return row["rounds"][key]["median"]

    return [
        table(f"clean-durable rounds 2-4 by scale, seed {seed}",
              "scale:x|pairs:n|records:n|check failures:n|peak RSS:B",
              [(row["scale"], row["pairs"], row["records"], len(row["check_failures"]),
                row["peak_rss"]) for row in rows],
              "one spawned interpreter per scale, pinned to one CPU; peak RSS is "
              "its VmHWM (its ru_maxrss would start at the parent's RSS, which "
              "Linux carries across exec)"),
        table(f"Busy seconds per round, {iterations} iteration(s) after a warm-up",
              "scale / round|n:n|min:s|q1:s|median:s|q3:s|max:s",
              [(f"{row['scale']}x {key}", *(row["rounds"][key][stat] for stat in _STATS))
               for row in rows for key in SCALE_ROUNDS],
              "busy: process CPU seconds / HostClock pace, at nominal host speed"),
        table("Cost ratio of each scale step (medians)",
              "step|records ratio:x|" + "|".join(f"{key} cost:x" for key in SCALE_ROUNDS),
              [(f"{low['scale']}x -> {high['scale']}x", high["records"] / low["records"],
                *(cost(high, key) / cost(low, key) for key in SCALE_ROUNDS))
               for low, high in zip(rows, rows[1:])]),
    ]
