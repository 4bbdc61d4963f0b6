"""Sorted id sets: the one deduplication primitive of every host path.

NumPy 2's plain ``np.unique`` (no ``return_*`` flag) is hash-based and
several times slower than a sort at the 10^1–10^4 int64 ids a block, a
device's load set or a routing key set holds (DESIGN.md §5.9 has the
table).  :func:`sorted_unique` returns the same values via sort + dedup
mask.

Aliasing contract: when ``ids`` is already strictly increasing the result
*is* ``ids`` (no copy), where ``np.unique`` always returns a fresh array.
A caller that stores the result past a call its argument could be
mutated by must hand in (or take) a copy.
"""

from __future__ import annotations

import numpy as np


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D int id array, via sort + dedup mask.

    Returns ``ids`` itself when it is already strictly increasing (every
    sampler frontier after the first layer is); otherwise a new sorted,
    duplicate-free array of the same dtype.
    """
    if ids.size <= 1 or bool((ids[1:] > ids[:-1]).all()):
        return ids
    s = np.sort(ids)
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]
