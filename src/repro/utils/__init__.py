"""Shared utilities: seeded RNG helpers, validation, and the profile hook."""

from repro.utils.profile import profile, profile_totals, profiled, reset_profile
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
    "profile",
    "profiled",
    "profile_totals",
    "reset_profile",
    "check_dim",
    "check_index_array",
    "check_positive",
    "check_probability",
]
