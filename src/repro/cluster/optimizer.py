"""Pipeline execution-plan optimizer (paper Appendix C, question 4).

"A pipeline optimizer that can best configure the execution plan of a
deep pipeline to meet both user requirements on running time and a
genome center's requirements on throughput or efficiency."

Given a cluster, the workload and a per-round knob space, the optimizer
grid-searches the simulator for the plan that minimises turnaround time
subject to a minimum resource-efficiency (throughput) constraint — or
maximises efficiency subject to a turnaround deadline.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Optional

from repro.cluster.costs import CostModel, Workload
from repro.cluster.hardware import ClusterSpec
from repro.cluster.mrsim import ClusterModel, RoundResult, simulate_round
from repro.cluster.rounds_model import (
    round1_spec,
    round2_spec,
    round3_spec,
    round4_spec,
    round5_spec,
)
from repro.errors import SimulationError


class PlanKnobs(NamedTuple):
    """One candidate execution plan for the five-round pipeline."""

    align_mappers: int
    align_threads: int
    fastq_partitions: int
    markdup_mode: str
    reducers_per_node: int
    slowstart: float

    def __repr__(self) -> str:
        return (f"PlanKnobs(align={self.align_mappers}x{self.align_threads}, "
                f"parts={self.fastq_partitions}, markdup={self.markdup_mode}, "
                f"reducers={self.reducers_per_node}, slowstart={self.slowstart:.2f})")


class PlanEvaluation:
    """Simulated outcome of one plan: its rounds, in pipeline order."""

    def __init__(self, knobs: PlanKnobs, rounds: List[RoundResult],
                 cluster: ClusterSpec):
        self.knobs = knobs
        self.rounds = rounds
        self.wall_seconds = sum(result.wall_seconds for result in rounds)
        self.slot_seconds = sum(result.serial_slot_seconds for result in rounds)
        #: Cluster core-seconds available over the makespan.
        self.capacity_seconds = (self.wall_seconds * cluster.data_nodes
                                 * cluster.node.cores)

    @property
    def cluster_efficiency(self) -> float:
        """Occupied slot time / available capacity — the genome center's
        throughput-side view of the plan."""
        if self.capacity_seconds == 0:
            return 0.0
        return min(1.0, self.slot_seconds / self.capacity_seconds)

    def __repr__(self) -> str:
        return (
            f"PlanEvaluation({self.knobs}, wall={self.wall_seconds:.0f}s, "
            f"efficiency={self.cluster_efficiency:.2f})"
        )


class PipelineOptimizer:
    """Grid search over execution plans using the fluid simulator."""

    def __init__(self, cluster: ClusterSpec, cost: CostModel,
                 workload: Workload):
        self.cluster = cluster
        self.cost = cost
        self.workload = workload

    # -- plan evaluation ---------------------------------------------------
    def evaluate(self, knobs: PlanKnobs) -> PlanEvaluation:
        """Simulate the full five-round pipeline under one plan — the one
        place the plan is written out."""
        model = ClusterModel(self.cluster)
        slots = self.cluster.node.cores
        specs = [
            round1_spec(model, self.cost, self.workload,
                        knobs.fastq_partitions, knobs.align_mappers,
                        knobs.align_threads),
            round2_spec(model, self.cost, self.workload,
                        knobs.fastq_partitions, knobs.reducers_per_node,
                        min(slots, knobs.reducers_per_node),
                        slowstart=knobs.slowstart),
            round3_spec(model, self.cost, self.workload, knobs.markdup_mode,
                        max(knobs.fastq_partitions, 64),
                        knobs.reducers_per_node,
                        min(slots, knobs.reducers_per_node),
                        slowstart=knobs.slowstart),
            round4_spec(model, self.cost, self.workload,
                        knobs.fastq_partitions,
                        min(slots, knobs.reducers_per_node),
                        knobs.reducers_per_node,
                        slowstart=knobs.slowstart),
            round5_spec(model, self.cost, self.workload,
                        min(slots, knobs.reducers_per_node)),
        ]
        # A fresh model per round: each round gets its own traces.
        rounds = [simulate_round(ClusterModel(self.cluster), spec)
                  for spec in specs]
        return PlanEvaluation(knobs, rounds, self.cluster)

    # -- plan enumeration ----------------------------------------------------
    def candidate_plans(self) -> List[PlanKnobs]:
        cores = self.cluster.node.cores
        mapper_splits = [
            (cores // t, t) for t in (1, 2, 4) if cores % t == 0
        ]
        partitions = [4 * self.cluster.data_nodes * cores // 16,
                      self.cluster.data_nodes * cores]
        plans = []
        for (mappers, threads), parts, mode, reducers, slowstart in (
            itertools.product(
                mapper_splits,
                partitions,
                ("opt", "reg"),
                (max(4, cores // 2), cores),
                (0.05, 0.80),
            )
        ):
            plans.append(
                PlanKnobs(mappers, threads, max(parts, 8), mode, reducers,
                          slowstart)
            )
        return plans

    # -- optimization objectives ------------------------------------------------
    def _best(self, plans: Optional[List[PlanKnobs]], admissible, score,
              failure: str) -> PlanEvaluation:
        """The first highest-``score`` admissible evaluation of ``plans``
        (default: every candidate plan)."""
        evaluations = map(self.evaluate, plans or self.candidate_plans())
        best = max(filter(admissible, evaluations), key=score, default=None)
        if best is None:
            raise SimulationError(failure)
        return best

    def minimize_turnaround(
        self, min_efficiency: float = 0.0,
        plans: Optional[List[PlanKnobs]] = None,
    ) -> PlanEvaluation:
        """Fastest plan meeting the efficiency floor (clinic's view)."""
        return self._best(plans,
                          lambda e: e.cluster_efficiency >= min_efficiency,
                          lambda e: -e.wall_seconds,
                          f"no plan reaches efficiency {min_efficiency:.2f}")

    def maximize_efficiency(
        self, deadline_seconds: float,
        plans: Optional[List[PlanKnobs]] = None,
    ) -> PlanEvaluation:
        """Most efficient plan meeting the deadline (center's view)."""
        return self._best(plans, lambda e: e.wall_seconds <= deadline_seconds,
                          lambda e: e.cluster_efficiency,
                          f"no plan meets the {deadline_seconds:.0f}s deadline")
