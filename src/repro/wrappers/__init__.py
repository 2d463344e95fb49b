"""Wrapper technology: run unmodified analysis programs on the MR engine."""

from repro.wrappers.programs import (
    DataTransformAccounting,
    interleaved_text_to_pairs,
    pairs_to_interleaved_text,
    run_wrapped,
)
from repro.wrappers.rounds import GesallRounds

__all__ = [
    "DataTransformAccounting",
    "interleaved_text_to_pairs",
    "pairs_to_interleaved_text",
    "run_wrapped",
    "GesallRounds",
]
