"""Builders that turn the paper's rounds into simulator RoundSpecs.

Each builder takes a cluster, the cost model and the workload and
produces the :class:`~repro.cluster.mrsim.RoundSpec` whose simulation
regenerates the corresponding table rows.  Single-node baselines used
for speedup are computed here too.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.cluster.costs import GB, CostModel, Workload
from repro.cluster.hardware import ClusterSpec
from repro.cluster.mrsim import (
    ClusterModel,
    MapTaskSpec,
    ReduceTaskSpec,
    RoundSpec,
)
from repro.cluster.threading import BwaThreadModel

KB = 1024
MB = 1024 * 1024

#: GRCh38 chromosome lengths (Mb) for chr1-22 and X: the 23 range
#: partitions of Round 5.  Uneven lengths are what strand Round 5 at
#: the longest chromosome's pace.
HUMAN_CHROMOSOME_MB: Dict[str, float] = {
    "chr1": 248.96, "chr2": 242.19, "chr3": 198.30, "chr4": 190.21,
    "chr5": 181.54, "chr6": 170.81, "chr7": 159.35, "chr8": 145.14,
    "chr9": 138.39, "chr10": 133.80, "chr11": 135.09, "chr12": 133.28,
    "chr13": 114.36, "chr14": 107.04, "chr15": 101.99, "chr16": 90.34,
    "chr17": 83.26, "chr18": 80.37, "chr19": 58.62, "chr20": 64.44,
    "chr21": 46.71, "chr22": 50.82, "chrX": 156.04,
}


def chromosome_fractions() -> Dict[str, float]:
    total = sum(HUMAN_CHROMOSOME_MB.values())
    return {name: mb / total for name, mb in HUMAN_CHROMOSOME_MB.items()}


# ---------------------------------------------------------------------------
# Single-node baselines
# ---------------------------------------------------------------------------

def bwa_single_node_seconds(
    cost: CostModel, cluster: ClusterSpec, threads: int = 24,
    readahead_bytes: int = 128 * KB,
) -> float:
    """Wall clock of the multi-threaded native Bwa baseline.

    The "common configuration in existing genomic pipelines" the paper
    uses as the speedup baseline: 24 threads, kernel-default readahead.
    """
    model = BwaThreadModel(readahead_bytes)
    ghz_ratio = cluster.node.core_ghz / 2.4
    return cost.bwa_total_core_seconds / (model.speedup(threads) * ghz_ratio)


def markdup_single_node_seconds(cost: CostModel) -> float:
    """Single-threaded MarkDuplicates: the paper's 14 h 26 m 42 s."""
    return cost.markdup_core_seconds


def cleaning_single_node_seconds(cost: CostModel) -> float:
    """Serial AddReplaceGroups + CleanSam + FixMateInfo."""
    return (
        cost.addrepl_core_seconds
        + cost.cleansam_core_seconds
        + cost.fixmate_core_seconds
    )


# ---------------------------------------------------------------------------
# Round 1: alignment (map-only, Hadoop Streaming)
# ---------------------------------------------------------------------------

def round1_spec(
    cluster: ClusterModel,
    cost: CostModel,
    workload: Workload,
    num_partitions: int,
    mappers_per_node: int,
    threads_per_mapper: int,
    readahead_bytes: int = 64 * MB,
) -> RoundSpec:
    efficiency = cost.bwa_mapper_efficiency(threads_per_mapper, readahead_bytes)
    per_task_cpu = (
        cost.bwa_total_core_seconds / num_partitions / efficiency
    )
    input_bytes = workload.fastq_bytes / num_partitions
    output_bytes = workload.bam_bytes / num_partitions
    streaming_cpu = (
        cost.streaming_core_seconds_per_gb * (input_bytes + output_bytes) / GB
    )
    # The first wave of mappers loads the reference index cold; later
    # waves on the same nodes find it in the page cache.
    first_wave = len(cluster.nodes) * mappers_per_node
    maps = []
    for index in range(num_partitions):
        index_load = (
            cost.index_load_core_seconds
            if index < first_wave
            else cost.index_reload_core_seconds
        )
        maps.append(
            MapTaskSpec(
                input_bytes=input_bytes,
                cpu_core_seconds=per_task_cpu,
                threads=threads_per_mapper,
                startup_core_seconds=index_load + cost.mapper_startup_core_seconds,
                transform_core_seconds=streaming_cpu,
                output_bytes=output_bytes,
            )
        )
    return RoundSpec(
        "round1-alignment", maps, map_slots_per_node=mappers_per_node
    )


# ---------------------------------------------------------------------------
# Round 2: cleaning + FixMateInfo
# ---------------------------------------------------------------------------

def round2_spec(
    cluster: ClusterModel,
    cost: CostModel,
    workload: Workload,
    num_map_partitions: int,
    reducers_per_node: int,
    map_slots_per_node: int,
    slowstart: float = 0.05,
) -> RoundSpec:
    # Program time (Hadoop-inflated) plus the data-transformation share
    # layered on top (Fig 6a: transform is additional task time).
    transform_fraction = cost.transform_fraction["round2_map"]
    map_cpu_total = (
        cost.hadoop_program_core_seconds("AddReplRG")
        + cost.hadoop_program_core_seconds("CleanSam")
    ) / (1.0 - transform_fraction)
    maps = _shuffling_maps(
        cost, workload, num_map_partitions, map_cpu_total, transform_fraction,
        input_bytes_total=workload.bam_bytes,
        output_bytes_total=workload.round2_shuffle_bytes,
    )
    num_reducers = reducers_per_node * len(cluster.nodes)
    reduce_cpu_total = cost.hadoop_program_core_seconds("FixMateInfo") / (
        1.0 - cost.transform_fraction["round2_reduce"]
    )
    reduces = _shuffling_reduces(
        cluster, cost, workload.round2_shuffle_bytes, num_reducers,
        reducers_per_node, reduce_cpu_total,
        cost.transform_fraction["round2_reduce"],
        output_bytes_total=workload.bam_bytes,
    )
    return RoundSpec(
        "round2-cleaning", maps, map_slots_per_node, reduces,
        reduce_slots_per_node=reducers_per_node, slowstart=slowstart,
    )


# ---------------------------------------------------------------------------
# Round 3: MarkDuplicates (reg / opt)
# ---------------------------------------------------------------------------

#: Calibrated map/reduce CPU totals (core-seconds at 2.4 GHz) for the
#: two MarkDuplicates variants on the NA12878 workload; reg processes
#: 1.92x the records through the shuffle and the reducers.
MARKDUP_MAP_CPU = {"opt": 55_000.0, "reg": 137_000.0}
MARKDUP_REDUCE_CPU = {"opt": 175_000.0, "reg": 400_000.0}


def round3_spec(
    cluster: ClusterModel,
    cost: CostModel,
    workload: Workload,
    mode: str,
    num_map_partitions: int,
    reducers_per_node: int,
    map_slots_per_node: int,
    slowstart: float = 0.05,
    io_sort_bytes: float = 2 * GB,
) -> RoundSpec:
    shuffle_total = (
        workload.markdup_opt_shuffle_bytes
        if mode == "opt"
        else workload.markdup_reg_shuffle_bytes
    )
    maps = _shuffling_maps(
        cost, workload, num_map_partitions, MARKDUP_MAP_CPU[mode],
        cost.transform_fraction["round3_map"],
        input_bytes_total=workload.bam_bytes,
        output_bytes_total=shuffle_total,
        io_sort_bytes=io_sort_bytes,
    )
    num_reducers = reducers_per_node * len(cluster.nodes)
    reduces = _shuffling_reduces(
        cluster, cost, shuffle_total, num_reducers, reducers_per_node,
        MARKDUP_REDUCE_CPU[mode], cost.transform_fraction["round3_reduce"],
        output_bytes_total=workload.bam_bytes,
    )
    return RoundSpec(
        f"round3-markdup-{mode}", maps, map_slots_per_node, reduces,
        reduce_slots_per_node=reducers_per_node, slowstart=slowstart,
    )


# ---------------------------------------------------------------------------
# Round 4: range partition + sort + index
# ---------------------------------------------------------------------------

def round4_spec(
    cluster: ClusterModel,
    cost: CostModel,
    workload: Workload,
    num_map_partitions: int,
    map_slots_per_node: int,
    reduce_slots_per_node: int = 6,
    slowstart: float = 0.05,
) -> RoundSpec:
    maps = _shuffling_maps(
        cost, workload, num_map_partitions, 20_000.0,
        cost.transform_fraction["round4"],
        input_bytes_total=workload.bam_bytes,
        output_bytes_total=workload.bam_bytes,
    )
    fractions = list(chromosome_fractions().values())
    sort_cpu_total = 38_000.0  # parallel-sort share + BAM indexing
    reduces = []
    reducers_per_disk = max(
        1.0,
        min(reduce_slots_per_node, workload.chromosomes / len(cluster.nodes))
        / cluster.spec.node.disks,
    )
    for fraction in fractions:
        shuffle_bytes = workload.bam_bytes * fraction
        per_disk = shuffle_bytes  # one reducer's data lands on one disk
        merge_extra = cost.multipass_merge_extra_bytes(per_disk, reducers_per_disk)
        reduces.append(
            ReduceTaskSpec(
                shuffle_bytes=shuffle_bytes,
                merge_extra_bytes=merge_extra,
                cpu_core_seconds=sort_cpu_total * fraction,
                transform_core_seconds=(
                    sort_cpu_total * fraction
                    * cost.transform_fraction["round4"]
                ),
                output_bytes=workload.bam_bytes * fraction,
            )
        )
    return RoundSpec(
        "round4-sort-index", maps, map_slots_per_node, reduces,
        reduce_slots_per_node=reduce_slots_per_node, slowstart=slowstart,
    )


# ---------------------------------------------------------------------------
# Round 5: Haplotype Caller (map-only over 23 chromosome partitions)
# ---------------------------------------------------------------------------

def round5_spec(
    cluster: ClusterModel,
    cost: CostModel,
    workload: Workload,
    map_slots_per_node: int,
) -> RoundSpec:
    """23 partitions, 90 slots: the degree-of-parallelism cliff."""
    hc_total = cost.haplotype_caller_core_seconds * 0.98  # parallel saves I/O
    maps = []
    for fraction in chromosome_fractions().values():
        maps.append(
            MapTaskSpec(
                input_bytes=workload.bam_bytes * fraction,
                cpu_core_seconds=hc_total * fraction,
                threads=1,
                startup_core_seconds=cost.mapper_startup_core_seconds,
                transform_core_seconds=0.0,
                output_bytes=0.3 * GB * fraction,
            )
        )
    return RoundSpec("round5-haplotypecaller", maps, map_slots_per_node)


# ---------------------------------------------------------------------------
# Shared task builders
# ---------------------------------------------------------------------------

def _shuffling_maps(
    cost: CostModel,
    workload: Workload,
    num_tasks: int,
    cpu_total: float,
    transform_fraction: float,
    input_bytes_total: float,
    output_bytes_total: float,
    io_sort_bytes: float = 2 * GB,
) -> List[MapTaskSpec]:
    per_cpu = cpu_total / num_tasks
    per_in = input_bytes_total * cost.input_cache_fraction / num_tasks
    per_out = output_bytes_total / num_tasks
    spills = max(1, math.ceil(per_out / io_sort_bytes))
    # cpu_total includes the data-transformation share (Fig 6a); split
    # it out so the two phases are separately observable.
    transform = per_cpu * transform_fraction
    per_cpu = per_cpu - transform
    return [
        MapTaskSpec(
            input_bytes=per_in,
            cpu_core_seconds=per_cpu,
            threads=1,
            startup_core_seconds=cost.mapper_startup_core_seconds,
            transform_core_seconds=transform,
            output_bytes=per_out,
            spills=spills,
        )
        for _ in range(num_tasks)
    ]


def _shuffling_reduces(
    cluster: ClusterModel,
    cost: CostModel,
    shuffle_total: float,
    num_reducers: int,
    reducers_per_node: int,
    cpu_total: float,
    transform_fraction: float,
    output_bytes_total: float,
) -> List[ReduceTaskSpec]:
    per_shuffle = shuffle_total / num_reducers
    per_cpu = cpu_total / num_reducers
    per_out = output_bytes_total / num_reducers
    transform = per_cpu * transform_fraction
    per_cpu = per_cpu - transform
    disks = cluster.spec.node.disks
    shuffle_per_node = shuffle_total / len(cluster.nodes)
    per_disk = shuffle_per_node / disks
    reducers_per_disk = max(1.0, reducers_per_node / disks)
    merge_extra_per_disk = cost.multipass_merge_extra_bytes(
        per_disk, reducers_per_disk
    )
    merge_extra_per_reducer = (
        merge_extra_per_disk * disks / max(1, reducers_per_node)
    )
    return [
        ReduceTaskSpec(
            shuffle_bytes=per_shuffle * cost.shuffle_disk_fraction,
            merge_extra_bytes=merge_extra_per_reducer,
            cpu_core_seconds=per_cpu,
            transform_core_seconds=transform,
            output_bytes=per_out,
        )
        for _ in range(num_reducers)
    ]
