"""Shared utilities: seeded RNG helpers and validation."""

from repro.utils.random import rng_from
from repro.utils.validation import (
    check_index_array,
    check_positive,
    check_probability,
)

__all__ = [
    "rng_from",
    "check_index_array",
    "check_positive",
    "check_probability",
]
