"""The Gesall parallel pipeline: five MapReduce rounds over HDFS.

Functional counterpart of the platform evaluated in section 4: the
interleaved FASTQ is cut into logical partitions, aligned by streaming
map tasks, cleaned and deduplicated through real shuffles, range
partitioned by chromosome, and called per partition.

Fault tolerance: when the policy carries a chaos
:class:`~repro.chaos.plan.FaultPlan`, its storage events (node kills,
decommissions, replica corruption) are applied at the scheduled round
boundaries; with a ``checkpoint_dir``, each completed round is saved to
a :class:`~repro.pipeline.checkpoint.CheckpointStore` there and
``resume=True`` restores the completed prefix instead of re-running it.
"""

from __future__ import annotations

import inspect
import pickle
import zlib
from functools import cached_property
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.align.aligner import AlignerConfig
from repro.align.index import ReferenceIndex
from repro.align.pairing import PairedEndAligner
from repro.api import PipelineSpec
from repro.chaos.plan import DecommissionDatanode, KillDatanode
from repro.errors import DriverKilledError, PipelineError
from repro.formats.bam import read_bam
from repro.formats.fastq import ReadPair
from repro.formats.sam import SamRecord
from repro.formats.vcf import VariantRecord
from repro.gdpt.partitioner import split_pairs_contiguously
from repro.hdfs.filesystem import Hdfs
from repro.io.faults import build_io
from repro.mapreduce.engine import MapReduceEngine
from repro.obs.recorder import NULL_RECORDER
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.wal import JobWal
from repro.recal.recalibrator import RecalibrationTable
from repro.variants.haplotype import HaplotypeCallerConfig
from repro.wrappers.rounds import GesallRounds


class _Stage(NamedTuple):
    """One declared round of the pipeline.

    ``key`` is the stage's one name: its checkpoint entry, its job-WAL
    log, its ``/key`` HDFS output directory, its ``round:key`` recorder
    span, its ``rounds.results`` entry and the ``at_round`` a chaos
    event addresses it by.
    """

    key: str
    #: The :class:`GesallRounds` method that runs it, called with the
    #: previous stage's output paths plus ``args(spec, result)``.
    method: Callable[..., Any]
    #: How its value is checkpointed (a :data:`_CHECKPOINT_FORMS` key);
    #: a ``"paths"`` stage writes BAMs that feed the next stage.
    form: str
    #: The ``GesallPipelineResult`` field it feeds — a ``round_paths``
    #: name for a ``"paths"`` stage, an attribute otherwise.
    feeds: Optional[str] = None
    args: Callable[
        [PipelineSpec, "GesallPipelineResult"], Dict[str, Any]
    ] = lambda spec, result: {}
    #: Runs only ``with_recalibration``.
    recalibration: bool = False


#: The pipeline, declared once, in run order (Appendix A.2, Table 2).
_STAGES = (
    _Stage("round1", GesallRounds.round1_alignment, "paths", "alignment"),
    _Stage("round2", GesallRounds.round2_cleaning, "paths", "cleaned",
           lambda s, r: {"num_reducers": s.num_reducers}),
    _Stage("round3", GesallRounds.round3_mark_duplicates, "paths", "deduped",
           lambda s, r: {"mode": s.markdup_mode,
                         "num_reducers": s.num_reducers}),
    _Stage("round_recal", GesallRounds.round_recalibrate, "table",
           "recal_table", lambda s, r: {"known_sites": s.known_sites},
           recalibration=True),
    _Stage("round_bqsr", GesallRounds.round_print_reads, "paths", None,
           lambda s, r: {"table": r.recal_table}, recalibration=True),
    _Stage("round4", GesallRounds.round4_sort_index, "paths"),
    _Stage("round5", GesallRounds.round5_haplotype_caller, "vcf_lines",
           "variants", lambda s, r: {"hc_config": s.hc_config}),
)

#: Checkpoint form -> (value -> (extras, blobs), (extras, blobs) -> value).
_CHECKPOINT_FORMS = {
    "paths": (
        lambda paths: ({"paths": paths}, None),
        lambda extras, blobs: list(extras["paths"]),
    ),
    "table": (
        lambda table: (None, {"table": pickle.dumps(table)}),
        lambda extras, blobs: pickle.loads(blobs["table"]),
    ),
    "vcf_lines": (
        lambda variants: ({"vcf_lines": [v.to_line() for v in variants]},
                          None),
        lambda extras, blobs: [
            VariantRecord.from_line(line) for line in extras["vcf_lines"]
        ],
    ),
}

#: Round keys that may journal task commits into the job WAL.
WAL_ROUND_KEYS = tuple(stage.key for stage in _STAGES)

#: Seeds the checkpoint fingerprint.  v2: round 2 writes the bloom
#: sidecars round 3 opt reads, which a v1 checkpoint does not hold.
_FINGERPRINT_SALT = b"gesall-checkpoint-v2"


class GesallPipelineResult:
    """Outputs of the parallel pipeline, aligned with the serial result."""

    def __init__(self):
        #: HDFS paths of the BAMs rounds 1-3 wrote, keyed by the
        #: attribute that decodes them (``alignment`` / ``cleaned`` /
        #: ``deduped``).
        self.round_paths: Dict[str, List[str]] = {}
        #: Recalibration table when the optional rounds ran.
        self.recal_table: Optional[RecalibrationTable] = None
        #: Final variants after Round 5.
        self.variants: List[VariantRecord] = []
        #: The round runner, exposing per-round counters and history.
        self.rounds: Optional[GesallRounds] = None
        self.hdfs: Optional[Hdfs] = None
        #: The run's trace recorder (the null recorder when tracing is off).
        self.recorder = NULL_RECORDER
        #: Round keys restored from a checkpoint instead of executed.
        self.resumed_rounds: List[str] = []
        #: Task ids replayed from the job WAL instead of re-executed,
        #: keyed by the interrupted round.
        self.recovered_tasks: Dict[str, List[str]] = {}
        #: Chaos storage events applied during the run, in order.
        self.chaos_events: List[Dict[str, Any]] = []

    def _decode_round(self, name: str) -> List[SamRecord]:
        records: List[SamRecord] = []
        for path in self.round_paths.get(name, []):
            records.extend(read_bam(self.hdfs.get(path))[1])
        return records

    # The three R-bar lists decode from HDFS on first access and are
    # kept: most runs never read them.  A run with storage chaos
    # touches them before each event fires (_apply_storage_events).
    @cached_property
    def alignment(self) -> List[SamRecord]:
        """R-bar after parallel Bwa (Round 1)."""
        return self._decode_round("alignment")

    @cached_property
    def cleaned(self) -> List[SamRecord]:
        """R-bar after Rounds 2 (cleaning + FixMateInfo)."""
        return self._decode_round("cleaned")

    @cached_property
    def deduped(self) -> List[SamRecord]:
        """R-bar after Round 3 (MarkDuplicates)."""
        return self._decode_round("deduped")


class GesallPipeline:
    """Run the parallel pipeline one :class:`PipelineSpec` describes.

    The spec is held and read directly — the knobs the paper explores
    (number of logical FASTQ partitions, number of reducers, the
    MarkDuplicates variant, the executor policy) are stated once, on
    the spec, and nowhere re-listed here.
    """

    def __init__(self, spec: PipelineSpec):
        self.spec = spec
        self.index = spec.index or ReferenceIndex(spec.reference)

    def run(self, pairs: Sequence[ReadPair],
            resume: bool = False) -> GesallPipelineResult:
        spec = self.spec
        stages = [
            stage for stage in _STAGES
            if spec.with_recalibration or not stage.recalibration
        ]
        self._check_plan_addresses([stage.key for stage in stages])
        result = GesallPipelineResult()
        recorder = spec.obs.build_recorder()
        result.recorder = recorder
        hdfs = Hdfs(spec.nodes, replication=min(3, len(spec.nodes)),
                    block_size=spec.block_size, recorder=recorder)
        # One durable-I/O layer for the whole run: the engine's spills
        # and segments, the checkpoints and the job WAL all route
        # through it, so fault injection and ``io.*`` accounting cover
        # every on-disk artifact from a single seeded plan.
        io = build_io(spec.policy)
        engine = MapReduceEngine(
            nodes=spec.nodes, policy=spec.policy, filesystem=hdfs,
            recorder=recorder, io=io,
        )
        try:
            return self._run_rounds(
                engine, hdfs, recorder, result, pairs, resume, stages
            )
        except DriverKilledError as exc:
            # The partial result rides the error out: its recorder and
            # job histories hold what the killed driver absorbed.
            exc.result = result
            raise
        finally:
            # A pooled policy keeps forked workers alive across all
            # five rounds; release them (and flush the pool's lifetime
            # stats) even when a round or a chaos plan raises.
            engine.close()

    def _check_plan_addresses(self, keys: List[str]) -> None:
        """Refuse a fault plan naming a round this configuration never runs.

        Such an event would inject nothing and the drill would "pass".
        Checked here, where the names are known; ``FaultPlan`` itself
        accepts any key (the engine is addressed by job name).
        """
        plan = self.spec.policy.fault_plan
        for event in plan.events if plan is not None else ():
            at_round = getattr(event, "at_round", None)
            if at_round is None or at_round in keys:
                continue
            raise PipelineError(
                f"chaos event {type(event).__name__} is addressed at round "
                f"{at_round!r}, which this pipeline does not run; it would "
                f"inject nothing (stages: {', '.join(keys)})"
            )

    @staticmethod
    def _save_stage(stage, value, store, hdfs, recorder) -> None:
        key = stage.key
        extras, blobs = _CHECKPOINT_FORMS[stage.form][0](value)
        files = []
        if stage.form == "paths":
            for path in hdfs.list_dir(f"/{key}"):
                files.append((
                    path, hdfs.get(path),
                    hdfs.get_file(path).logical_partition,
                ))
        with recorder.span(
            f"checkpoint:save:{key}", category="checkpoint",
            track="driver", files=len(files),
        ):
            store.save_round(key, files, extras=extras, blobs=blobs)
        recorder.metrics.counter("checkpoint.rounds_saved").inc()

    def _run_rounds(self, engine, hdfs, recorder, result, pairs,
                    resume, stages) -> GesallPipelineResult:
        spec = self.spec
        aligner = PairedEndAligner(self.index, spec.aligner_config)
        rounds = GesallRounds(
            hdfs, engine, aligner, spec.reference, spec.chunk_bytes,
            shuffle=spec.shuffle,
        )
        result.rounds = rounds
        result.hdfs = hdfs

        store = None
        completed: List[str] = []
        if spec.checkpoint_dir is not None:
            store = CheckpointStore.local(spec.checkpoint_dir, io=engine.io)
            fingerprint = self._fingerprint(pairs)
            completed = store.begin(fingerprint, resume=resume)
            # Task-granular crash recovery: rounds the checkpoint never
            # completed may still have journaled commits in the job WAL
            # from an interrupted run — recover them *before* the
            # rounds truncate their logs, and replay instead of re-run.
            wal = JobWal(store.backend, fingerprint)
            recovery: Dict[str, Dict] = {}
            if resume:
                for key in WAL_ROUND_KEYS:
                    if key in completed:
                        continue
                    tasks = wal.recover_round(key)
                    if tasks:
                        recovery[key] = tasks
                        recorder.metrics.counter("wal.rounds_recovered").inc()
            else:
                for key in WAL_ROUND_KEYS:
                    wal.reset_round(key)
            rounds.attach_wal(wal, recovery)
            result.recovered_tasks = {
                key: sorted(tasks) for key, tasks in recovery.items()
            }
        # Restoration only ever covers a *prefix* of the round sequence:
        # the first round missing from the checkpoint flips this off for
        # good, so later checkpointed rounds (stale from another code
        # path) can never be spliced into a re-executed middle.
        restoring = bool(completed)

        with recorder.span(
            "pipeline:gesall", category="pipeline", track="driver",
            executor=spec.policy.executor, reads=len(pairs), resume=resume,
        ):
            partitions = split_pairs_contiguously(
                list(pairs), spec.num_fastq_partitions
            )
            stage_input: Any = [p for p in partitions if p]
            for stage in stages:
                key = stage.key
                self._apply_storage_events(key, hdfs, result, recorder)
                restoring = restoring and store.has_round(key)
                if restoring:
                    with recorder.span(
                        f"checkpoint:restore:{key}", category="checkpoint",
                        track="driver",
                    ):
                        value = _CHECKPOINT_FORMS[stage.form][1](
                            *store.restore_round(key, hdfs)
                        )
                    recorder.metrics.counter("checkpoint.rounds_restored").inc()
                    result.resumed_rounds.append(key)
                else:
                    value = stage.method(
                        rounds, stage_input, **stage.args(spec, result)
                    )
                    if store is not None:
                        self._save_stage(stage, value, store, hdfs, recorder)
                if stage.form == "paths":
                    stage_input = value
                    if stage.feeds is not None:
                        result.round_paths[stage.feeds] = value
                else:
                    setattr(result, stage.feeds, value)
        return result

    # -- chaos plan application ------------------------------------------------
    def _apply_storage_events(
        self, key: str, hdfs: Hdfs, result: GesallPipelineResult, recorder
    ) -> None:
        """Fire the fault plan's storage events scheduled for one round.

        Events fire in the driver at the round boundary — before the
        round executes (or restores) — under ``category="chaos"`` spans
        with matching ``chaos.*`` counters, and are appended to
        ``result.chaos_events`` for reports.
        """
        plan = self.spec.policy.fault_plan
        if plan is None:
            return
        events = plan.storage_events(key)
        if events:
            # Decode the R-bar lists recorded so far while their blocks
            # are still intact: a read after the run must not depend on
            # replicas this round's events are about to damage.
            for name in result.round_paths:
                getattr(result, name)
        for event in events:
            entry: Dict[str, Any] = {"round": key, "kind": event.kind}
            with recorder.span(
                f"chaos:{event.kind}", category="chaos", track="driver",
                round=key,
            ) as span:
                if isinstance(event, KillDatanode):
                    report = hdfs.kill_datanode(event.node)
                    entry.update(node=event.node, **report)
                elif isinstance(event, DecommissionDatanode):
                    report = hdfs.decommission(event.node)
                    entry.update(node=event.node, **report)
                else:  # CorruptReplica
                    node = hdfs.corrupt_replica(
                        event.path, event.block_index, event.replica_index
                    )
                    entry.update(path=event.path, node=node)
                span.set(**{
                    k: v for k, v in entry.items() if k != "kind"
                })
            recorder.metrics.counter(f"chaos.{event.kind}").inc()
            result.chaos_events.append(entry)

    def _fingerprint(self, pairs: Sequence[ReadPair]) -> str:
        """Digest of the input reads + configuration that shapes outputs.

        Guards resume: a checkpoint written for different reads or a
        different pipeline shape must not be restored.  Every spec
        field is either folded in here or named, with its reason, in
        :data:`_NOT_OUTPUT_SHAPING`.  The aligner / caller configs,
        the known sites and the index parameters count only where they
        differ from their defaults, so a default run's digest — and the
        checkpoints already written under it — is unchanged.
        """
        digest = zlib.crc32(_FINGERPRINT_SALT)
        for end1, end2 in pairs:
            for read in (end1, end2):
                digest = zlib.crc32(read.to_text().encode(), digest)
        spec = self.spec
        config = (
            spec.num_fastq_partitions, spec.num_reducers, spec.markdup_mode,
            spec.with_recalibration, spec.block_size, spec.chunk_bytes,
            len(spec.nodes),
        )
        digest = zlib.crc32(repr(config).encode(), digest)
        index_defaults = inspect.signature(ReferenceIndex).parameters
        for name, value, default in (
            ("aligner_config", spec.aligner_config, AlignerConfig()),
            ("hc_config", spec.hc_config, HaplotypeCallerConfig()),
            ("known_sites", spec.known_sites, set()),
            ("index.k", self.index.k, index_defaults["k"].default),
            ("index.max_hits_per_kmer", self.index.max_hits_per_kmer,
             index_defaults["max_hits_per_kmer"].default),
        ):
            rendered = _render(value or default)
            if rendered != _render(default):
                digest = zlib.crc32(f"{name}={rendered}".encode(), digest)
        return f"{digest:08x}"


#: The ``PipelineSpec`` fields :meth:`GesallPipeline._fingerprint` leaves
#: out; a test holds every other field to changing the digest, so a new
#: field forces the decision.  ``policy`` and ``shuffle``: outputs are
#: byte-identical across executors and codecs (compression changes only
#: the intermediate segment bytes, never the round outputs a checkpoint
#: captures), so resuming under different ones is safe.  ``obs`` only
#: observes; ``checkpoint_dir`` is where the digest is kept.
#: ``reference`` is input rather than configuration: it is guarded
#: through the digest of the reads sampled from it.
_NOT_OUTPUT_SHAPING = (
    "reference", "policy", "obs", "shuffle", "checkpoint_dir",
)


def _render(value: Any) -> str:
    """Stable text for one output-shaping parameter.

    A config object renders as its class name and fields, recursively —
    never through the default ``repr``, which embeds an address — and a
    set in sorted order, so equal configurations render equally in
    every process.
    """
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_render(item) for item in value)) + "}"
    if hasattr(value, "__dict__"):
        inner = ", ".join(
            f"{name}={_render(field)}"
            for name, field in sorted(vars(value).items())
        )
        return f"{type(value).__name__}({inner})"
    return repr(value)
