"""Gesall reproduction: massively parallel whole-genome sequence analysis.

A faithful, laptop-scale reproduction of "Massively Parallel Processing
of Whole Genome Sequence Data: An In-Depth Performance Study" (SIGMOD
2017): the Gesall wrapper platform (distributed BAM storage, the Genome
Data Parallel Toolkit, MapReduce rounds for unmodified analysis
programs), the genomic analysis programs themselves, a discrete-event
cluster simulator for the performance study, and the error-diagnosis
toolkit for the accuracy study.

Quick start::

    from repro import (
        simulate_reference, simulate_donor, simulate_reads,
        PipelineSpec, run_pipeline, run_serial_pipeline,
        ErrorDiagnosisToolkit,
    )

    reference = simulate_reference()
    donor = simulate_donor(reference)
    pairs, _ = simulate_reads(donor)
    spec = PipelineSpec(reference)
    serial = run_serial_pipeline(spec, pairs)
    parallel = run_pipeline(spec, pairs)
    report = ErrorDiagnosisToolkit(reference).diagnose(serial, parallel)
"""

from repro.align import AlignerConfig, BwaMemLite, PairedEndAligner, ReferenceIndex
from repro.api import (
    JobSpec,
    PipelineSpec,
    make_block_splits,
    run_job,
    run_pipeline,
    run_serial_pipeline,
)
from repro.cluster import (
    CLUSTER_A,
    CLUSTER_B,
    SINGLE_SERVER,
    BwaThreadModel,
    ClusterModel,
    ClusterSpec,
    CostModel,
    NA12878,
    Workload,
    simulate_round,
)
from repro.diagnostics import DiagnosisReport, ErrorDiagnosisToolkit
from repro.errors import ReproError
from repro.genome import (
    DonorSimulationConfig,
    ReadSimulationConfig,
    ReferenceGenome,
    ReferenceSimulationConfig,
    simulate_donor,
    simulate_reads,
    simulate_reference,
)
from repro.metrics import (
    compare_alignments,
    compare_duplicates,
    compare_variants,
    precision_sensitivity,
)
from repro.obs import ObsConfig, TraceRecorder
from repro.pipeline import (
    GesallPipeline,
    HybridPipeline,
    SerialPipeline,
    TABLE2_STAGES,
)
from repro.variants import (
    GenotyperConfig,
    HaplotypeCallerConfig,
    HaplotypeCallerLite,
    UnifiedGenotyperLite,
)

__version__ = "1.0.0"

__all__ = [
    "AlignerConfig", "BwaMemLite", "PairedEndAligner", "ReferenceIndex",
    "JobSpec", "PipelineSpec", "make_block_splits", "run_job",
    "run_pipeline", "run_serial_pipeline",
    "CLUSTER_A", "CLUSTER_B", "SINGLE_SERVER", "BwaThreadModel",
    "ClusterModel", "ClusterSpec", "CostModel", "NA12878", "Workload",
    "simulate_round",
    "DiagnosisReport", "ErrorDiagnosisToolkit",
    "ReproError",
    "DonorSimulationConfig", "ReadSimulationConfig", "ReferenceGenome",
    "ReferenceSimulationConfig", "simulate_donor", "simulate_reads",
    "simulate_reference",
    "compare_alignments", "compare_duplicates", "compare_variants",
    "precision_sensitivity",
    "ObsConfig", "TraceRecorder",
    "GesallPipeline", "HybridPipeline", "SerialPipeline", "TABLE2_STAGES",
    "GenotyperConfig", "HaplotypeCallerConfig", "HaplotypeCallerLite",
    "UnifiedGenotyperLite",
    "__version__",
]
