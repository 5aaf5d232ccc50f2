"""Antenna models: sectorized gains, ULA responses, aperture information."""

import math

import numpy as np
import pytest

from mmwloc import NetworkConfig, UlaArray
from mmwloc.antenna import (
    aoa_fisher_factor,
    array_response,
    array_response_derivative,
    beamwidth_to_elements,
    main_lobe_gain,
    sidelobe_gain,
)

TWO_PI = 2 * math.pi


class TestSectorGain:
    def test_omnidirectional_limit(self):
        cfg = NetworkConfig(g0=3.7)
        assert main_lobe_gain(TWO_PI, cfg) == pytest.approx(3.7)

    def test_sidelobe_value(self):
        cfg = NetworkConfig(g0=1.0, eps_sidelobe=0.01)
        assert sidelobe_gain(cfg) == pytest.approx(0.01)

    def test_half_circle_example(self):
        cfg = NetworkConfig(g0=1.0, eps_sidelobe=0.01)
        # (2*pi - pi*0.01)/pi = 1.99
        assert main_lobe_gain(math.pi, cfg) == pytest.approx(1.99, rel=1e-12)

    def test_power_conservation_identity(self):
        # gain_main*theta + gain_side*(2*pi - theta) == 2*pi*G0, exactly
        cfg = NetworkConfig(g0=31.6227766, eps_sidelobe=0.05)
        rng = np.random.default_rng(3)
        for theta in rng.uniform(1e-3, TWO_PI, size=200):
            total = (main_lobe_gain(theta, cfg) * theta
                     + sidelobe_gain(cfg) * (TWO_PI - theta))
            assert total == pytest.approx(TWO_PI * cfg.g0, rel=1e-12)

    def test_main_lobe_never_below_sidelobe(self):
        cfg = NetworkConfig()
        for theta in np.linspace(1e-3, TWO_PI, 50):
            assert main_lobe_gain(theta, cfg) >= sidelobe_gain(cfg)

    def test_domain_error(self):
        cfg = NetworkConfig()
        with pytest.raises(ValueError):
            main_lobe_gain(0.0, cfg)
        with pytest.raises(ValueError):
            main_lobe_gain(7.0, cfg)


class TestBeamwidthToElements:
    @pytest.mark.parametrize("theta,expected", [
        (TWO_PI, 1),
        (math.pi / 8, 16),
        (math.pi / 3, 6),
    ])
    def test_examples(self, theta, expected):
        assert beamwidth_to_elements(theta) == expected

    def test_monotone_non_increasing(self):
        widths = np.linspace(0.01, TWO_PI, 300)
        counts = [beamwidth_to_elements(t) for t in widths]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestArrayResponse:
    def test_broadside_uniform(self):
        a = array_response(UlaArray(7), 0.0)
        np.testing.assert_allclose(a, np.full(7, 1 / math.sqrt(7)), atol=1e-15)

    def test_unit_norm_everywhere(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 5, 33):
            for angle in rng.uniform(-math.pi, math.pi, size=10):
                a = array_response(UlaArray(m), angle)
                assert np.vdot(a, a).real == pytest.approx(1.0, abs=1e-12)

    def test_endfire_two_elements(self):
        # phase step is pi at endfire with half-wavelength spacing
        a = array_response(UlaArray(2), math.pi / 2)
        np.testing.assert_allclose(a, [1 / math.sqrt(2), -1 / math.sqrt(2)],
                                   atol=1e-12)

    def test_derivative_zero_slope_at_endfire(self):
        da = array_response_derivative(UlaArray(8), math.pi / 2)
        np.testing.assert_allclose(da, np.zeros(8), atol=1e-12)

    def test_first_element_derivative_always_zero(self):
        da = array_response_derivative(UlaArray(16), 0.7)
        assert da[0] == 0.0

    def test_derivative_matches_central_differences(self):
        # central-difference oracle, h = 1e-5, relative error < 1e-6
        h = 1e-5
        rng = np.random.default_rng(5)
        for m in (2, 8, 64):
            arr = UlaArray(m)
            for angle in rng.uniform(-1.2, 1.2, size=5):
                numeric = (array_response(arr, angle + h)
                           - array_response(arr, angle - h)) / (2 * h)
                analytic = array_response_derivative(arr, angle)
                err = np.linalg.norm(numeric - analytic)
                scale = max(np.linalg.norm(analytic), 1.0)
                assert err / scale < 1e-6


class TestArrayFactor:
    """The conjugate-steering gain m * |a(steer)^H a(actual)|^2 of the
    responses the angle bound is built from."""

    @staticmethod
    def gain(m, steer, actual):
        arr = UlaArray(m)
        return m * abs(np.vdot(array_response(arr, steer),
                               array_response(arr, actual))) ** 2

    def test_matched_gain_equals_element_count(self):
        rng = np.random.default_rng(9)
        for m in (1, 4, 8, 32):
            for angle in rng.uniform(-1.0, 1.0, size=4):
                assert self.gain(m, angle, angle) == pytest.approx(m, rel=1e-12)

    def test_single_element_flat(self):
        for steer, actual in [(0.0, 1.0), (0.5, -0.5)]:
            assert self.gain(1, steer, actual) == pytest.approx(1.0)

    def test_brute_force_sum(self):
        # |sum_n exp(i*pi*n*(sin 0 - sin pi/6))|^2 / m by direct summation
        m, steer, actual = 4, 0.0, math.pi / 6
        phases = np.pi * np.arange(m) * (math.sin(steer) - math.sin(actual))
        expected = abs(np.exp(1j * phases).sum()) ** 2 / m
        assert self.gain(m, steer, actual) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_element_count(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = int(rng.integers(1, 40))
            g = self.gain(m, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            assert -1e-12 <= g <= m + 1e-9


class TestUlaArray:
    def test_half_wavelength_default_spacing(self):
        arr = UlaArray(4, f_c=60.0e9)
        assert arr.kappa == pytest.approx(299_792_458.0 / 120.0e9, rel=1e-15)
        assert arr.phase_scale == pytest.approx(math.pi, rel=1e-15)

    def test_explicit_spacing_scales_phase(self):
        # a full-wavelength spacing doubles the per-element phase slope
        arr = UlaArray(4, f_c=28.0e9, kappa=299_792_458.0 / 28.0e9)
        assert arr.phase_scale == pytest.approx(2 * math.pi, rel=1e-15)

    # a fractional count used to build a 3-element response of norm 1.095
    # for 2.5, and NaN to construct and then fail inside np.arange
    @pytest.mark.parametrize("count", [0, -1, 2.5, math.nan, math.inf])
    def test_bad_element_count_rejected(self, count):
        with pytest.raises(ValueError, match="element count must be >= 1"):
            UlaArray(count)


class TestAoaFisherFactor:
    def test_closed_form(self):
        # (phase_scale*cos)^2 * (m^2 - 1) / 12
        for m in (1, 2, 4, 8, 64):
            for angle in (0.0, 0.4):
                arr = UlaArray(m)
                expected = (arr.phase_scale * math.cos(angle)) ** 2 * (m * m - 1) / 12
                assert aoa_fisher_factor(arr, angle) == pytest.approx(
                    expected, rel=1e-10, abs=1e-12)

    def test_single_element_carries_no_information(self):
        assert aoa_fisher_factor(UlaArray(1)) == pytest.approx(0.0, abs=1e-15)

    def test_grows_with_aperture(self):
        values = [aoa_fisher_factor(UlaArray(m)) for m in (2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))
