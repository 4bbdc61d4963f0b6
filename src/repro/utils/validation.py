"""Small argument-validation helpers used across the library.

These raise early, descriptive errors instead of letting malformed inputs
propagate into vectorized NumPy code where failures are hard to attribute.
"""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float, strict: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (or >= 0)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_index_array(name: str, arr: np.ndarray, upper: int) -> None:
    """Raise unless ``arr`` is an integer array with entries in [0, upper)."""
    a = np.asarray(arr)
    if a.size == 0:
        return
    if not np.issubdtype(a.dtype, np.integer):
        raise TypeError(f"{name} must be an integer array, got dtype {a.dtype}")
    lo, hi = int(a.min()), int(a.max())
    if lo < 0 or hi >= upper:
        raise IndexError(
            f"{name} entries must be in [0, {upper}), got range [{lo}, {hi}]"
        )
