"""Shared utilities: validation and deterministic RNG."""

from repro.util.rng import default_rng, spawn_rngs
from repro.util.validation import (
    check_index,
    check_nonnegative,
    check_positive,
    check_same_shape,
    check_square,
    check_type,
)

__all__ = [
    "default_rng",
    "spawn_rngs",
    "check_index",
    "check_nonnegative",
    "check_positive",
    "check_same_shape",
    "check_square",
    "check_type",
]
