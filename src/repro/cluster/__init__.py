"""Discrete-event cluster simulator (the performance plane)."""

from repro.cluster.costs import NA12878, CostModel, Workload
from repro.cluster.fluid import (
    FluidSimulator,
    Phase,
    Resource,
    SimTask,
    UtilizationTrace,
)
from repro.cluster.hardware import (
    CLUSTER_A,
    CLUSTER_B,
    SINGLE_SERVER,
    ClusterSpec,
    NodeSpec,
)
from repro.cluster.monitor import render_strip_chart, sample_utilization
from repro.cluster.optimizer import (
    PipelineOptimizer,
    PlanEvaluation,
    PlanKnobs,
)
from repro.cluster.mrsim import (
    ClusterModel,
    MapTaskSpec,
    ReduceTaskSpec,
    RoundResult,
    RoundSpec,
    SimulatedTaskReport,
    simulate_round,
)
from repro.cluster.rounds_model import (
    HUMAN_CHROMOSOME_MB,
    bwa_single_node_seconds,
    chromosome_fractions,
    cleaning_single_node_seconds,
    markdup_single_node_seconds,
    round1_spec,
    round2_spec,
    round3_spec,
    round4_spec,
    round5_spec,
)
from repro.cluster.threading import (
    BwaThreadModel,
    node_throughput,
    process_thread_configurations,
)

__all__ = [
    "NA12878", "CostModel", "Workload",
    "FluidSimulator", "Phase", "Resource", "SimTask", "UtilizationTrace",
    "CLUSTER_A", "CLUSTER_B", "SINGLE_SERVER", "ClusterSpec", "NodeSpec",
    "render_strip_chart", "sample_utilization",
    "PipelineOptimizer", "PlanEvaluation", "PlanKnobs",
    "ClusterModel", "MapTaskSpec", "ReduceTaskSpec", "RoundResult",
    "RoundSpec", "SimulatedTaskReport", "simulate_round",
    "HUMAN_CHROMOSOME_MB", "bwa_single_node_seconds", "chromosome_fractions",
    "cleaning_single_node_seconds", "markdup_single_node_seconds",
    "round1_spec", "round2_spec", "round3_spec", "round4_spec", "round5_spec",
    "BwaThreadModel", "node_throughput", "process_thread_configurations",
]
