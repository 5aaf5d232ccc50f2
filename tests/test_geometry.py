"""Geometry: the LOS-ball blockage switch."""

import numpy as np
import pytest

from mmwloc import NetworkConfig
from mmwloc.geometry import nakagami_shape, path_loss_exponent


@pytest.fixture
def cfg():
    # distinct LOS/NLOS fading shapes, so a wrong pick shows
    return NetworkConfig(n_los=3, n_nlos=1)


class TestLinkState:
    def test_exponent_selection(self, cfg):
        # the LOS ball is closed: d_s = 20 m itself is LOS
        x = np.array([5.0, 20.0, 25.0])
        np.testing.assert_allclose(path_loss_exponent(x, cfg), [2.0, 2.0, 4.0])
        assert list(nakagami_shape(x, cfg)) == [3, 3, 1]

    def test_inside_ball(self, cfg):
        assert path_loss_exponent(10.0, cfg) == cfg.alpha_los
        assert nakagami_shape(10.0, cfg) == cfg.n_los

    def test_boundary_is_los(self, cfg):
        assert path_loss_exponent(cfg.d_s, cfg) == cfg.alpha_los
        assert nakagami_shape(cfg.d_s, cfg) == cfg.n_los

    def test_outside_ball(self, cfg):
        assert path_loss_exponent(25.0, cfg) == cfg.alpha_nlos
        assert nakagami_shape(25.0, cfg) == cfg.n_nlos

    def test_scalar_input_gives_python_scalar(self, cfg):
        # the access loop feeds scalars and gets scalars back
        assert type(path_loss_exponent(5.0, cfg)) is float
        assert type(nakagami_shape(5.0, cfg)) is int
