"""Geometry: the LOS-ball blockage switch."""

import numpy as np
import pytest

from mmwloc import NetworkConfig
from mmwloc.geometry import attenuation, nakagami_shape


@pytest.fixture
def cfg():
    # distinct LOS/NLOS fading shapes, so a wrong pick shows
    return NetworkConfig(n_los=3, n_nlos=1)


def power(d, alpha, cfg):
    """(d^2 + h_b^2)^(-alpha/2) by hand."""
    return (d * d + cfg.h_b * cfg.h_b) ** (-0.5 * alpha)


def switch_points(cfg):
    """The foot, the ball's edge and its neighbors, and points on both
    sides of it and far past it."""
    rng = np.random.default_rng(12)
    return np.concatenate([
        [0.0, cfg.d_s, np.nextafter(cfg.d_s, -np.inf),
         np.nextafter(cfg.d_s, np.inf), 1e6],
        rng.uniform(0.0, 3.0 * cfg.d_s, 2000)])


class TestLinkState:
    def test_power_selection(self, cfg):
        # the LOS ball is closed: d_s = 20 m itself is LOS
        x = np.array([5.0, 20.0, 25.0])
        np.testing.assert_allclose(
            attenuation(x, cfg),
            [power(5.0, 2.0, cfg), power(20.0, 2.0, cfg),
             power(25.0, 4.0, cfg)], rtol=1e-15)
        assert list(nakagami_shape(x, cfg)) == [3, 3, 1]

    def test_inside_ball(self, cfg):
        assert attenuation(10.0, cfg) == pytest.approx(
            power(10.0, cfg.alpha_los, cfg), rel=1e-15)
        assert nakagami_shape(10.0, cfg) == cfg.n_los

    def test_boundary_is_los(self, cfg):
        assert attenuation(cfg.d_s, cfg) == pytest.approx(
            power(cfg.d_s, cfg.alpha_los, cfg), rel=1e-15)
        assert nakagami_shape(cfg.d_s, cfg) == cfg.n_los
        past = np.nextafter(cfg.d_s, np.inf)
        assert attenuation(past, cfg) == pytest.approx(
            power(past, cfg.alpha_nlos, cfg), rel=1e-15)

    def test_outside_ball(self, cfg):
        assert attenuation(25.0, cfg) == pytest.approx(
            power(25.0, cfg.alpha_nlos, cfg), rel=1e-15)
        assert nakagami_shape(25.0, cfg) == cfg.n_nlos

    def test_scalar_input_gives_scalar(self, cfg):
        # a Python float gives a numpy float, as a ufunc would
        assert type(attenuation(5.0, cfg)) is np.float64
        assert type(nakagami_shape(5.0, cfg)) is int

    def test_each_entry_has_the_bits_of_its_own_call(self, cfg):
        # the access loop's energies are one call over a chunk's users;
        # they must round as each user's own call does
        x = switch_points(cfg)
        batched = attenuation(x, cfg)
        single = np.array([attenuation(v, cfg) for v in x.tolist()])
        assert np.array_equal(batched.view(np.int64), single.view(np.int64))
        grid = attenuation(x.reshape(5, -1), cfg)
        assert np.array_equal(grid.ravel(), batched)
