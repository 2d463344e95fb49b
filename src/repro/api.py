"""The frozen public job surface of the reproduction.

Everything that constructs and runs work — a single MapReduce job or
the whole five-round Gesall pipeline — goes through two immutable
specs:

* :class:`JobSpec` describes one job (mapper, reducer, combiner,
  partitioning, shuffle, execution policy) and materialises the
  engine-facing :class:`~repro.mapreduce.job.JobConf` via
  :meth:`JobSpec.to_conf`.  :func:`run_job` executes it.
* :class:`PipelineSpec` describes a pipeline run (input partitioning,
  reducers, MarkDuplicates variant, policy/obs/shuffle/checkpointing).
  :func:`run_pipeline` executes the parallel pipeline;
  :func:`run_serial_pipeline` the single-node reference program.

Both are frozen dataclasses: a spec is a value, never mutated by the
run, so the same spec can be replayed (``dataclasses.replace`` swaps a
field) and compared across experiments.  The CLI and the round
wrappers build *only* these specs.

:func:`make_block_splits` is the preferred way to hand record lists to
a job: each partition is sealed into one
:class:`~repro.mapreduce.blocks.RecordBlock` (encoded once, CRC
guarded, decoded once inside the worker) instead of shipping live
object graphs per record.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import MapReduceError, PipelineError
from repro.mapreduce.blocks import RecordBlock
from repro.mapreduce.engine import JobResult, MapReduceEngine
from repro.mapreduce.job import InputSplit, JobConf
from repro.mapreduce.policy import ExecutionPolicy
from repro.obs.recorder import ObsConfig
from repro.shuffle.config import ShuffleConfig

__all__ = [
    "JobSpec",
    "PipelineSpec",
    "make_block_splits",
    "run_job",
    "run_pipeline",
    "run_serial_pipeline",
]


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """Immutable description of one MapReduce job.

    Field semantics match :class:`~repro.mapreduce.job.JobConf`
    one-to-one; the extra ``policy`` and ``nodes`` fields describe how
    and where the job runs when :func:`run_job` has to build its own
    engine.  ``to_conf()`` validates eagerly, so a bad spec fails at
    construction-adjacent time instead of mid-run.
    """

    name: str
    mapper: Callable[[Any, Any], None]
    reducer: Optional[Callable[[Any, List[Any], Any], None]] = None
    combiner: Optional[Callable[[Any, List[Any], Any], None]] = None
    partitioner: Optional[Callable[[Any, int], int]] = None
    num_reducers: int = 1
    io_sort_records: int = 100_000
    slowstart: float = 0.05
    value_size: Optional[Callable[[Any], int]] = None
    sort_key: Optional[Callable[[Any], Any]] = None
    record_counter: Optional[Callable[[Any], int]] = None
    shuffle: Optional[ShuffleConfig] = None
    #: Used by :func:`run_job` when no engine is supplied.
    policy: Optional[ExecutionPolicy] = None
    nodes: Optional[Tuple[str, ...]] = None

    def to_conf(self) -> JobConf:
        """Materialise the engine-facing ``JobConf`` (validated)."""
        kwargs = {}
        if self.partitioner is not None:
            kwargs["partitioner"] = self.partitioner
        conf = JobConf(
            self.name,
            self.mapper,
            self.reducer,
            self.combiner,
            num_reducers=self.num_reducers,
            io_sort_records=self.io_sort_records,
            slowstart=self.slowstart,
            value_size=self.value_size,
            sort_key=self.sort_key,
            record_counter=self.record_counter,
            shuffle=self.shuffle,
            **kwargs,
        )
        conf.validate()
        return conf


def make_block_splits(
    partitions: Sequence[Sequence[Any]],
    prefix: str = "block",
    nodes: Optional[Sequence[str]] = None,
) -> List[InputSplit]:
    """Seal record partitions into block-encoded input splits.

    Each partition becomes one :class:`RecordBlock` payload: records
    are pickled once here, shipped as a single CRC-framed blob, and
    decoded once inside whichever worker runs the map task.  The
    mapper receives the decoded record list and can name outputs with
    ``ctx.task_index``.  ``size_bytes`` is the sealed blob size, so
    locality-aware placement sees real input weight.
    """
    splits = []
    for index, records in enumerate(partitions):
        block = RecordBlock(list(records))
        node = nodes[index % len(nodes)] if nodes else None
        splits.append(
            InputSplit(
                f"{prefix}-{index:05d}", block,
                preferred_node=node, size_bytes=block.raw_bytes,
            )
        )
    return splits


def run_job(
    spec: JobSpec,
    splits: Sequence[InputSplit],
    *,
    engine: Optional[MapReduceEngine] = None,
    filesystem: Optional[Any] = None,
    recorder: Optional[Any] = None,
    journal: Optional[Any] = None,
) -> JobResult:
    """Run one job described by ``spec``.

    With ``engine=`` the caller owns engine lifetime (the Gesall
    rounds reuse one engine — and its persistent worker pool — across
    all five rounds).  Without one, an engine is built from the spec's
    ``nodes``/``policy`` and closed when the job finishes, so a pooled
    policy cannot leak forked workers.
    """
    if not isinstance(spec, JobSpec):
        raise MapReduceError(
            f"run_job takes a JobSpec, got {type(spec).__name__}"
        )
    conf = spec.to_conf()
    if engine is not None:
        return engine.run(conf, list(splits), journal=journal)
    own = MapReduceEngine(
        nodes=list(spec.nodes) if spec.nodes else None,
        policy=spec.policy,
        filesystem=filesystem,
        recorder=recorder,
    )
    try:
        return own.run(conf, list(splits), journal=journal)
    finally:
        own.close()


@dataclasses.dataclass(frozen=True, eq=False)
class PipelineSpec:
    """Immutable description of one pipeline run.

    Mirrors the knobs of
    :class:`~repro.pipeline.parallel.GesallPipeline` (and carries
    everything :func:`run_serial_pipeline` needs).  Use
    ``dataclasses.replace`` to derive variants — the chaos gate runs
    the same spec three times with different ``policy``/``obs``.
    """

    reference: Any
    index: Any = None
    nodes: Optional[Tuple[str, ...]] = None
    aligner_config: Any = None
    hc_config: Any = None
    num_fastq_partitions: int = 8
    num_reducers: int = 4
    markdup_mode: str = "opt"
    with_recalibration: bool = False
    known_sites: Any = None
    block_size: int = 64 * 1024
    chunk_bytes: int = 16 * 1024
    policy: Optional[ExecutionPolicy] = None
    obs: Optional[ObsConfig] = None
    shuffle: Optional[ShuffleConfig] = None
    checkpoint_dir: Optional[str] = None

    def build(self):
        """Construct the parallel pipeline this spec describes."""
        # Imported lazily: repro.api is the bottom of the dependency
        # stack (the rounds import JobSpec), while GesallPipeline sits
        # above the rounds — a top-level import would be a cycle.
        from repro.pipeline.parallel import GesallPipeline

        return GesallPipeline(
            self.reference,
            index=self.index,
            nodes=list(self.nodes) if self.nodes else None,
            aligner_config=self.aligner_config,
            hc_config=self.hc_config,
            num_fastq_partitions=self.num_fastq_partitions,
            num_reducers=self.num_reducers,
            markdup_mode=self.markdup_mode,
            with_recalibration=self.with_recalibration,
            known_sites=self.known_sites,
            block_size=self.block_size,
            chunk_bytes=self.chunk_bytes,
            policy=self.policy,
            obs=self.obs,
            shuffle=self.shuffle,
            checkpoint_dir=self.checkpoint_dir,
        )


def run_pipeline(spec: PipelineSpec, pairs: Sequence[Any],
                 resume: bool = False):
    """Run the five-round parallel pipeline described by ``spec``."""
    if not isinstance(spec, PipelineSpec):
        raise PipelineError(
            f"run_pipeline takes a PipelineSpec, got {type(spec).__name__}"
        )
    return spec.build().run(pairs, resume=resume)


def run_serial_pipeline(spec: PipelineSpec, pairs: Sequence[Any]):
    """Run the single-node reference program over the same sample."""
    from repro.pipeline.serial import SerialPipeline

    if not isinstance(spec, PipelineSpec):
        raise PipelineError(
            f"run_serial_pipeline takes a PipelineSpec, "
            f"got {type(spec).__name__}"
        )
    return SerialPipeline(
        spec.reference,
        index=spec.index,
        aligner_config=spec.aligner_config,
        hc_config=spec.hc_config,
    ).run(pairs)
