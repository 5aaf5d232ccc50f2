"""Numerical helpers: the checked probability clamp."""

import numpy as np
import pytest

from mmwloc.errors import NumericError
from mmwloc.numerics import PROBABILITY_SLACK, checked_probability


class TestCheckedProbability:
    @pytest.mark.parametrize("p, want", [
        (0.25, 0.25), (0.0, 0.0), (1.0, 1.0),
        (-0.5 * PROBABILITY_SLACK, 0.0), (1.0 + 0.5 * PROBABILITY_SLACK, 1.0),
    ])
    def test_rounding_overshoot_is_clipped(self, p, want):
        got = checked_probability(p, "p")
        assert got == want and isinstance(got, float)

    @pytest.mark.parametrize("p", [-2.0 * PROBABILITY_SLACK,
                                   1.0 + 2.0 * PROBABILITY_SLACK,
                                   float("nan"), float("inf")])
    def test_larger_overshoot_or_non_finite_raises(self, p):
        with pytest.raises(NumericError):
            checked_probability(p, "p")
        with pytest.raises(NumericError):
            checked_probability(np.array([0.5, p]), "p")

    def test_arrays_are_clipped_elementwise(self):
        got = checked_probability(np.array([-1e-12, 0.5, 1.0 + 1e-12]), "p")
        assert np.array_equal(got, [0.0, 0.5, 1.0])
