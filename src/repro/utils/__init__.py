"""Shared utilities: seeded RNG helpers and validation."""

from repro.utils.random import rng_from, seed_for_node, spawn_rngs
from repro.utils.validation import (
    check_dim,
    check_index_array,
    check_positive,
    check_probability,
)

__all__ = [
    "rng_from",
    "seed_for_node",
    "spawn_rngs",
    "check_dim",
    "check_index_array",
    "check_positive",
    "check_probability",
]
