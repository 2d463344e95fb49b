"""Serial, parallel (Gesall) and hybrid pipelines."""

from repro.pipeline.checkpoint import CheckpointStore, LocalDirectoryBackend
from repro.pipeline.hybrid import HybridPipeline
from repro.pipeline.parallel import (
    WAL_ROUND_KEYS,
    GesallPipeline,
    GesallPipelineResult,
)
from repro.pipeline.wal import JobWal
from repro.pipeline.serial import SerialPipeline, SerialPipelineResult
from repro.pipeline.stages import (
    TABLE2_STAGES,
    StageSpec,
    total_pipeline_hours,
)

__all__ = [
    "CheckpointStore",
    "LocalDirectoryBackend",
    "HybridPipeline",
    "JobWal",
    "WAL_ROUND_KEYS",
    "GesallPipeline",
    "GesallPipelineResult",
    "SerialPipeline",
    "SerialPipelineResult",
    "TABLE2_STAGES",
    "StageSpec",
    "total_pipeline_hours",
]
