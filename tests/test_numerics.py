"""Numerical helpers: quadrature grids, the Gaussian tail, the checked
probability clamp."""

import math

import numpy as np
import pytest
from scipy import integrate

from mmwloc.errors import NumericError
from mmwloc.numerics import (
    PROBABILITY_SLACK,
    checked_probability,
    exponential_cell_nodes,
    gauss_legendre,
    qfunc,
    split_panel,
)


class TestExponentialCellNodes:
    # the cell-size law: Exp(2 * lambda), lambda = 0.01 BS/m
    RATE = 0.02

    def test_weights_normalized(self):
        _, w = exponential_cell_nodes(self.RATE, 64, split=20.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_expectation_against_adaptive_quadrature(self):
        # a smooth f with a kink at the split, against quad of the
        # truncated, renormalized density
        q = 0.9999
        x_max = -math.log1p(-q) / self.RATE

        def f(x):
            return np.where(x <= 20.0, x, 20.0 + 0.5 * (x - 20.0)) ** 2

        x, w = exponential_cell_nodes(self.RATE, 64, split=20.0)
        ref, _ = integrate.quad(
            lambda t: f(t) * self.RATE * math.exp(-self.RATE * t) / q,
            0.0, x_max, points=[20.0], epsabs=0.0, epsrel=1e-13)
        assert np.dot(w, f(x)) == pytest.approx(ref, rel=1e-12)

    def test_truncated_mean(self):
        # E[X | X <= x_max] of Exp(r) is 1/r - x_max * (1 - q) / q; a split
        # outside (0, x_max) leaves one unsplit panel
        q = 0.9999
        x_max = -math.log1p(-q) / self.RATE
        x, w = exponential_cell_nodes(self.RATE, 64, 0.0)
        assert np.array_equal(x, gauss_legendre(0.0, x_max, 64)[0])
        assert np.array_equal(x, exponential_cell_nodes(self.RATE, 64, 1e6)[0])
        want = 1.0 / self.RATE - x_max * (1.0 - q) / q
        assert np.dot(w, x) == pytest.approx(want, rel=1e-12)

    def test_split_places_half_the_nodes_below(self):
        x, _ = exponential_cell_nodes(self.RATE, 64, split=20.0)
        assert np.all(np.diff(x) > 0.0)
        assert np.count_nonzero(x < 20.0) == 32

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_nonpositive_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            exponential_cell_nodes(rate, 8, 20.0)


class TestGaussLegendre:
    def test_exact_for_polynomials_up_to_degree_2n_minus_1(self):
        x, w = gauss_legendre(1.0, 3.0, 4)
        # Integral_1^3 x^7 dx = (3^8 - 1) / 8
        assert np.dot(w, x ** 7) == pytest.approx((3.0 ** 8 - 1.0) / 8.0,
                                                  rel=1e-14)

    def test_array_endpoints_add_a_node_axis(self):
        a = np.array([0.0, 1.0, 2.0])
        x, w = gauss_legendre(a, a + 2.0, 5)
        assert x.shape == w.shape == (3, 5)
        np.testing.assert_allclose(w.sum(axis=-1), 2.0, rtol=1e-14)
        assert np.all((x > a[:, None]) & (x < a[:, None] + 2.0))


class TestSplitPanel:
    def test_straddling_panel_split_at_cut(self):
        # |x - 1| is piecewise linear: exact only with a node break at the cut
        x, w = split_panel(np.array([0.0]), np.array([3.0]), 1.0, 8)
        assert np.dot(w[0], np.abs(x[0] - 1.0)) == pytest.approx(2.5, rel=1e-14)
        assert np.count_nonzero(x[0] < 1.0) == 4

    def test_panels_off_the_cut_unchanged(self):
        a, b = np.array([0.0, 2.0]), np.array([0.5, 3.0])
        xs, ws = split_panel(a, b, 1.0, 8)
        xg, wg = gauss_legendre(a, b, 8)
        assert np.array_equal(xs, xg) and np.array_equal(ws, wg)


class TestQfunc:
    def test_known_values(self):
        assert qfunc(0.0) == 0.5
        assert qfunc(1.0) == pytest.approx(0.15865525393145707, rel=1e-14)
        assert qfunc(-1.0) == pytest.approx(1.0 - 0.15865525393145707, rel=1e-14)

    def test_far_tail_does_not_underflow_early(self):
        # erfc keeps the relative accuracy that 1 - Phi(x) would lose
        assert qfunc(30.0) == pytest.approx(4.906713927148187e-198, rel=1e-12)


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
