"""The frozen public job surface of the reproduction.

Everything that constructs and runs work — a single MapReduce job or
the whole five-round Gesall pipeline — goes through two immutable
specs:

* :class:`JobSpec` (defined beside the engine in
  :mod:`repro.mapreduce.job`, re-exported here) describes one job —
  mapper, reducer, partitioning, shuffle, execution policy —
  and is what the engine reads.  :func:`run_job` executes it.
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
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import MapReduceError, PipelineError
from repro.gdpt.partitioner import MARKDUP_MODES
from repro.mapreduce.blocks import RecordBlock
from repro.mapreduce.engine import JobResult, MapReduceEngine
from repro.mapreduce.job import InputSplit, JobSpec, make_splits
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
    blocks = [RecordBlock(list(records)) for records in partitions]
    return make_splits(
        blocks, prefix, nodes, sizes=[block.raw_bytes for block in blocks]
    )


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
    if engine is not None:
        return engine.run(spec, list(splits), journal=journal)
    own = MapReduceEngine(
        nodes=spec.nodes,
        policy=spec.policy,
        filesystem=filesystem,
        recorder=recorder,
    )
    try:
        return own.run(spec, list(splits), journal=journal)
    finally:
        own.close()


@dataclasses.dataclass(frozen=True, eq=False)
class PipelineSpec:
    """The one description of a pipeline run: a frozen value.

    :class:`~repro.pipeline.parallel.GesallPipeline` and
    :class:`~repro.pipeline.serial.SerialPipeline` hold the spec and
    read its fields directly, so a field cannot reach one pipeline and
    not the other.  Range checks and the ``nodes`` / ``policy`` /
    ``obs`` defaults are resolved once, here; ``index`` stays ``None``
    until a pipeline needs it (building one is the expensive part).
    Use ``dataclasses.replace`` to derive variants — the chaos gate
    runs the same spec three times with different ``policy``/``obs``.
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

    def __post_init__(self):
        if self.num_fastq_partitions < 1:
            raise PipelineError("need at least one FASTQ partition")
        if self.num_reducers < 1:
            raise PipelineError("need at least one reducer")
        if self.markdup_mode not in MARKDUP_MODES:
            raise PipelineError(
                f"unknown markdup_mode {self.markdup_mode!r}; "
                f"choose one of {', '.join(MARKDUP_MODES)}"
            )
        for field, value in (
            ("nodes", tuple(self.nodes or
                            (f"node{i:02d}" for i in range(4)))),
            ("policy", self.policy or ExecutionPolicy.serial()),
            ("obs", self.obs or ObsConfig()),
        ):
            object.__setattr__(self, field, value)

    def build(self):
        """Construct the parallel pipeline this spec describes."""
        # Imported lazily: GesallPipeline sits above the rounds, which
        # import this module — a top-level import would be a cycle.
        from repro.pipeline.parallel import GesallPipeline

        return GesallPipeline(self)


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
    return SerialPipeline(spec).run(pairs)
