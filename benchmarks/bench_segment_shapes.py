#!/usr/bin/env python3
"""Shape -> path table behind ``repro.tensor.sparse._segment_sum_array``.

    PYTHONPATH=src python3 benchmarks/bench_segment_shapes.py

Times every candidate segment-sum kernel at the operand shapes the
end-to-end workloads actually produce (recorded from ``benchmarks/e2e``:
``serve`` aggregates 1-36 rows of 32/64 columns, a per-device training
block 100-900 rows of 32/128, GAT scores ``E x heads``) plus the 200,000-row
shape the earlier thresholds were tuned on, and checks each one
bit-identical to sequential ``np.add.at``.  DESIGN.md 5.9 quotes this
table; it gates nothing.

Columns (best-of-7 microseconds per call, validated ids in every one):

``add.at``    ``np.add.at`` on the n-D operand — the reference
``colwise``   one 1-D ``np.add.at`` per column on an F-order copy (the
              few-column path this table retired)
``public``    ``scipy.sparse.csr_matrix((ones, cols, indptr)) @ data``
``direct``    ``csr_matvecs`` on the same three arrays, index built per call
``shared``    the same, index built once and reused (``Block.dst_index()``)
"""

from __future__ import annotations

import timeit

import numpy as np

from repro.tensor.sparse import (
    SegmentIndex,
    _rowsum_csr_direct,
    _rowsum_csr_public,
)

#: (rows, trailing shape, where the shape comes from)
SHAPES = [
    (8, (64,), "serve, 512 elements"),
    (16, (64,), "serve, at the cutoff"),
    (24, (64,), "serve"),
    (64, (32,), "snp partial"),
    (400, (32,), "train block, hidden 32"),
    (500, (128,), "train block, features"),
    (150, (4,), "GAT scores, 4 heads"),
    (900, (4,), "GAT scores, 4 heads"),
    (900, (4, 8), "GAT messages"),
    (200_000, (4,), "former tuning shape, softmax"),
    (200_000, (32,), "former tuning shape"),
]


def add_at(data, ids, n):
    out = np.zeros((n,) + data.shape[1:], dtype=data.dtype)
    np.add.at(out, SegmentIndex(ids, n).ids, data)
    return out


def colwise(data, ids, n):
    ids = SegmentIndex(ids, n).ids
    flat = np.asfortranarray(data.reshape(len(ids), -1))
    out = np.zeros((n, flat.shape[1]), dtype=data.dtype)
    buf = np.zeros(n, dtype=data.dtype)
    for j in range(flat.shape[1]):
        buf[:] = 0
        np.add.at(buf, ids, flat[:, j])
        out[:, j] = buf
    return out


def public(data, ids, n):
    return _rowsum_csr_public(SegmentIndex(ids, n), data.reshape(len(ids), -1))


def direct(data, ids, n):
    return _rowsum_csr_direct(SegmentIndex(ids, n), data.reshape(len(ids), -1))


def best_us(fn, *args) -> float:
    once = max(timeit.timeit(lambda: fn(*args), number=1), 1e-7)
    number = int(min(max(2e-3 / once, 1), 2000))
    return min(timeit.repeat(lambda: fn(*args), number=number, repeat=7)) / number * 1e6


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"{'shape':<14}{'ids':<10}{'add.at':>10}{'colwise':>10}{'public':>10}"
          f"{'direct':>10}{'shared':>10}  source")
    for rows, trailing, source in SHAPES:
        n = max(1, rows // 4)
        data = rng.normal(size=(rows,) + trailing)
        for label in ("sorted", "unsorted"):
            ids = rng.integers(0, n, rows)
            if label == "sorted":
                ids.sort()
            ref = add_at(data, ids, n)
            for fn in (colwise, public, direct):
                assert np.array_equal(fn(data, ids, n).reshape(ref.shape), ref), fn
            index = SegmentIndex(ids, n)
            flat = data.reshape(rows, -1)
            _rowsum_csr_direct(index, flat)  # build the structure once
            cells = [best_us(fn, data, ids, n) for fn in (add_at, colwise, public, direct)]
            cells.append(best_us(_rowsum_csr_direct, index, flat))
            shape = "x".join(str(v) for v in (rows,) + trailing)
            print(f"{shape:<14}{label:<10}" + "".join(f"{c:>10.1f}" for c in cells)
                  + f"  {source}")


if __name__ == "__main__":
    main()
