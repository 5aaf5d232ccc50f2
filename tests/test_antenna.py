"""Antenna model: sectorized gains and the beamwidth-to-elements map."""

import math

import numpy as np
import pytest

from mmwloc import NetworkConfig
from mmwloc.antenna import beamwidth_to_elements, main_lobe_gain, sidelobe_gain

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
