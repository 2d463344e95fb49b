"""Genome Data Parallel Toolkit (GDPT): logical partitioning schemes."""

from repro.gdpt.bloom import BloomFilter
from repro.gdpt.safety import (
    COUNT_SAFE,
    SAFE,
    UNSAFE,
    SafePartitioningValidator,
    SafetyVerdict,
    equal_duplicate_counts,
    equal_record_counts,
)
from repro.gdpt.partitioner import (
    GroupPartitioner,
    MarkDupKeying,
    OverlappingRangePartitioner,
    RangePartitioner,
    build_partial_position_bloom,
    read_name_key,
    split_pairs_contiguously,
    verify_group_partitioning,
)

__all__ = [
    "BloomFilter",
    "COUNT_SAFE",
    "SAFE",
    "UNSAFE",
    "SafePartitioningValidator",
    "SafetyVerdict",
    "equal_duplicate_counts",
    "equal_record_counts",
    "GroupPartitioner",
    "MarkDupKeying",
    "OverlappingRangePartitioner",
    "RangePartitioner",
    "build_partial_position_bloom",
    "read_name_key",
    "split_pairs_contiguously",
    "verify_group_partitioning",
]
