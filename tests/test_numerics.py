"""Numerical helpers: quadrature grids, the Gaussian tail and its
inverse, the checked probability clamp."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from mmwloc.errors import NumericError
from mmwloc.numerics import (
    _MAXLOG,
    _X_UNDER,
    PROBABILITY_SLACK,
    checked_probability,
    erfc,
    exponential_cell_nodes,
    gauss_legendre,
    q_inverse,
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

    # (a, b, cut) for each kind of panel set, random panels drawn in [0, 4)
    @staticmethod
    def _panels(case, rng):
        a = rng.uniform(0.0, 4.0, (8, 5))
        b = a + rng.uniform(0.01, 2.0, a.shape)
        if case == "none":
            return a, b, 7.0
        if case == "all":
            return rng.uniform(0.0, 1.0, a.shape), b + 1.0, 1.0
        if case == "mixed":
            return a, b, 2.5
        cut = float(a[3, 2] if case == "a_at_cut" else b[3, 2])
        # the panel with an edge at the cut does not straddle it; others do
        return a, b, cut

    @pytest.mark.parametrize("n", [7, 32])
    @pytest.mark.parametrize("case", ["none", "all", "mixed", "a_at_cut",
                                      "b_at_cut"])
    def test_equals_where_form_bits(self, case, n):
        a, b, cut = self._panels(case, np.random.default_rng(n))
        straddle = (a < cut) & (cut < b)
        if case in ("none", "all"):
            assert np.all(straddle == (case == "all"))
        else:
            assert 0 < np.count_nonzero(straddle) < straddle.size
        _assert_same_bits(split_panel(a, b, cut, n),
                          where_split_panel(a, b, cut, n))

    @pytest.mark.parametrize("a, b", [(0.0, 3.0), (1.0, 3.0), (0.0, 1.0),
                                      (0.0, 0.5), (np.array([0.0, 2.0]), 3.0)])
    def test_0d_and_broadcast_inputs_equal_where_form_bits(self, a, b):
        got = split_panel(a, b, 1.0, 8)
        assert got[0].shape == np.shape(a) + (8,)
        _assert_same_bits(got, where_split_panel(a, b, 1.0, 8))


def where_split_panel(a, b, cut, n):
    """split_panel as both rules on every panel merged by np.where: the
    form whose bits the overwriting one keeps."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    straddle = (a < cut) & (cut < b)
    half = n // 2
    x_plain, w_plain = gauss_legendre(a, b, n)
    lo_x, lo_w = gauss_legendre(a, np.minimum(b, cut), half)
    hi_x, hi_w = gauss_legendre(np.maximum(a, cut), b, n - half)
    mask = straddle[..., None]
    return (np.where(mask, np.concatenate([lo_x, hi_x], axis=-1), x_plain),
            np.where(mask, np.concatenate([lo_w, hi_w], axis=-1), w_plain))


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestQfunc:
    def test_known_values(self):
        assert qfunc(0.0) == 0.5
        assert qfunc(1.0) == pytest.approx(0.15865525393145707, rel=1e-14)
        assert qfunc(-1.0) == pytest.approx(1.0 - 0.15865525393145707, rel=1e-14)

    def test_far_tail_does_not_underflow_early(self):
        # erfc keeps the relative accuracy that 1 - Phi(x) would lose
        assert qfunc(30.0) == pytest.approx(4.906713927148187e-198, rel=1e-12)


class TestErfc:
    """The numpy port of cephes erfc against scipy.special.erfc, which runs
    cephes with libm's exp: numpy's exp moves some entries by a few ulps."""

    GRID = np.linspace(-40.0, 40.0, 2_000_001)

    def test_within_4_ulp_of_scipy(self):
        got, ref = erfc(self.GRID), special.erfc(self.GRID)
        ulps = np.abs(got - ref) / np.spacing(np.abs(ref))
        assert ulps.max() <= 4.0
        # the bands and their edges: mostly bit-equal
        assert np.count_nonzero(got != ref) < 0.02 * got.size

    @pytest.mark.parametrize("x, want", [
        (0.0, 1.0), (-0.0, 1.0), (math.inf, 0.0), (-math.inf, 2.0),
        (1e200, 0.0), (-1e200, 2.0)])
    def test_exact_special_values(self, x, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a 0-d and a 1-D array
            assert erfc(x) == want
            assert np.all(erfc(np.full(17, x)) == want)

    def test_nan_stays_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(erfc(math.nan))
            got = erfc(np.array([math.nan] + [0.5] * 16))
        assert math.isnan(got[0]) and np.all(got[1:] == erfc(0.5))

    def test_limits_without_arithmetic(self):
        below = -np.geomspace(6.0, 1e300, 1000)[1:]
        assert np.all(erfc(below) == 2.0)
        assert all(erfc(v) == 2.0 for v in below[:50].tolist())
        # the underflow point: fl(x * x) > MAXLOG exactly beyond _X_UNDER
        assert _X_UNDER * _X_UNDER <= _MAXLOG
        above = math.nextafter(_X_UNDER, math.inf)
        assert above * above > _MAXLOG
        assert erfc(above) == 0.0 and erfc(1e300) == 0.0
        assert erfc(_X_UNDER) == special.erfc(_X_UNDER) > 0.0

    def test_same_bits_in_any_size_shape_or_batch(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(-30.0, 30.0, 3000),
                            rng.uniform(-1.5, 1.5, 1000),
                            [-6.0, -1.0, 1.0, 8.0, _X_UNDER, -0.0]])
        whole = erfc(x)
        # one entry at a time, as 0-d arrays
        single = np.array([erfc(v) for v in x.tolist()])
        assert np.array_equal(whole, single)
        assert isinstance(erfc(0.3), np.float64)
        for size in (2, 16, 17, 100, 1024):
            parts = [erfc(x[i:i + size]) for i in range(0, x.size, size)]
            assert np.array_equal(np.concatenate(parts), whole)
        shaped = x[:3000].reshape(30, 10, 10)
        assert np.array_equal(erfc(shaped).ravel(), whole[:3000])
        # a strided view and a reversed copy
        assert np.array_equal(erfc(x[::-3]), whole[::-3])

    def test_never_increases_on_a_fine_grid(self):
        # the port, like scipy, wiggles at ulp scale (around 0.84375 it
        # steps up in 16% of consecutive floats), but not on a grid of
        # spacing 3e-6, in chunks of 2^20 points
        lo, step = -10.0, 3e-6
        n = int((27.0 - lo) / step) + 1
        prev = math.inf
        for i in range(0, n, 1 << 20):
            y = erfc(lo + step * np.arange(i, min(n, i + (1 << 20))))
            assert y[0] <= prev and np.all(np.diff(y) <= 0.0)
            prev = y[-1]

    def test_halving_the_argument_never_lowers_it(self):
        # the UE grid's argument: nu / s halves from one level to the next
        x = np.geomspace(1e-300, 13.5, 200_001)
        assert np.all(erfc(2.0 * x) <= erfc(x))


class TestQInverse:
    @staticmethod
    def reference(p: float):
        """x with Q(x) = p, solved in log form at 40 digits."""
        with mpmath.workdps(40):
            target = mpmath.log(mpmath.mpf(p))
            return mpmath.findroot(
                lambda t: mpmath.log(mpmath.erfc(t / mpmath.sqrt(2)) / 2)
                - target, mpmath.mpf(q_inverse(p)))

    def test_matches_mpmath(self):
        rng = np.random.default_rng(2)
        ps = np.concatenate([10.0 ** rng.uniform(-300.0, -0.31, 60),
                             1.0 - 10.0 ** rng.uniform(-12.0, -0.31, 30),
                             [1e-300, 1e-12, 0.25, 0.75, 1.0 - 1e-12]])
        for p in ps.tolist():
            ref = self.reference(p)
            assert abs(q_inverse(p) - ref) <= 1e-15 * abs(ref), p
        assert q_inverse(0.5) == 0.0

    @pytest.mark.parametrize("p, want", [(0.0, math.inf), (-1.0, math.inf),
                                         (1.0, -math.inf), (2.0, -math.inf)])
    def test_ends(self, p, want):
        assert q_inverse(p) == want

    def test_inverts_qfunc(self):
        for x in (-5.0, -0.3, 0.7, 3.0, 12.0, 37.0):
            assert qfunc(q_inverse(float(qfunc(x)))) == pytest.approx(
                float(qfunc(x)), rel=1e-13)


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
