"""Data-cleaning stages (PicardTools equivalents, Table 2 steps 3-6)."""

from repro.cleaning.clean_sam import CleanSam, CleanSamStats
from repro.cleaning.duplicates import (
    FragmentKey,
    MarkDuplicates,
    MarkDuplicatesStats,
    PairKey,
    duplicate_count,
    fragment_key,
    mark_duplicates_in_place,
    pair_key,
    pair_score,
)
from repro.cleaning.fix_mate import FixMateInformation
from repro.cleaning.indexing import SamtoolsIndex
from repro.cleaning.read_groups import AddOrReplaceReadGroups
from repro.cleaning.sort import (
    SortSam,
    coordinate_key,
    queryname_key,
)

__all__ = [
    "CleanSam",
    "CleanSamStats",
    "FragmentKey",
    "MarkDuplicates",
    "MarkDuplicatesStats",
    "PairKey",
    "duplicate_count",
    "fragment_key",
    "mark_duplicates_in_place",
    "pair_key",
    "pair_score",
    "FixMateInformation",
    "SamtoolsIndex",
    "AddOrReplaceReadGroups",
    "SortSam",
    "coordinate_key",
    "queryname_key",
]
