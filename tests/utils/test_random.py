"""Tests for the deterministic RNG helpers."""

import numpy as np

from repro.utils.random import rng_from


class TestRngFrom:
    def test_same_seed_same_stream(self):
        a = rng_from(42).random(10)
        b = rng_from(42).random(10)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = rng_from(1).random(10)
        b = rng_from(2).random(10)
        assert not np.array_equal(a, b)

    def test_stream_arguments_decorrelate(self):
        a = rng_from(1, 5).random(10)
        b = rng_from(1, 6).random(10)
        assert not np.array_equal(a, b)

    def test_stream_order_matters(self):
        a = rng_from(1, 2, 3).random(4)
        b = rng_from(1, 3, 2).random(4)
        assert not np.array_equal(a, b)
