"""Tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_index_array,
    check_positive,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1.5)

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="must be > 0"):
            check_positive("x", 0)

    def test_accepts_zero_when_not_strict(self):
        check_positive("x", 0, strict=False)

    def test_rejects_negative_when_not_strict(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            check_positive("x", -1, strict=False)


class TestCheckProbability:
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, v):
        check_probability("p", v)

    @pytest.mark.parametrize("v", [-0.1, 1.1])
    def test_rejects_outside(self, v):
        with pytest.raises(ValueError):
            check_probability("p", v)


class TestCheckIndexArray:
    def test_accepts_valid(self):
        check_index_array("idx", np.array([0, 3, 9]), 10)

    def test_accepts_empty(self):
        check_index_array("idx", np.array([], dtype=np.int64), 10)

    def test_rejects_float_dtype(self):
        with pytest.raises(TypeError):
            check_index_array("idx", np.array([0.5]), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            check_index_array("idx", np.array([10]), 10)

    def test_rejects_negative(self):
        with pytest.raises(IndexError):
            check_index_array("idx", np.array([-1]), 10)
