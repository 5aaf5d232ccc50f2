"""Antenna model: the two-level sectorized pattern.

The pattern serves every data-phase gain. The angle-estimation bound
needs only the element count behind a beam (``beamwidth_to_elements``);
its aperture information has a closed form in
``localization._aoa_factor``.
"""

from __future__ import annotations

import math

from .config import NetworkConfig

TWO_PI = 2.0 * math.pi


def check_beamwidth(theta) -> None:
    """Raise ValueError unless theta (a scalar or an array) lies in
    (0, 2*pi] throughout; NaN fails."""
    valid = (0.0 < theta) & (theta <= TWO_PI)
    if not (valid if isinstance(valid, bool) else valid.all()):
        raise ValueError(f"beamwidth must be in (0, 2*pi], got {theta}")


def main_lobe_gain(theta, cfg: NetworkConfig):
    """Main-lobe gain G0 * (2*pi - (2*pi - theta) * eps) / theta of the
    two-level sectorized pattern for a beam of angular width theta; theta
    may be an array.

    With the sidelobe gain G0 * eps the pattern conserves total radiated
    power: gain_main * theta + gain_side * (2*pi - theta) == 2*pi * G0.
    """
    check_beamwidth(theta)
    return cfg.g0 * (TWO_PI - (TWO_PI - theta) * cfg.eps_sidelobe) / theta


def sidelobe_gain(cfg: NetworkConfig) -> float:
    return cfg.g0 * cfg.eps_sidelobe


def beamwidth_to_elements(theta: float) -> int:
    """Element count realizing a beam of width theta: ceil(2*pi/theta), >= 1."""
    check_beamwidth(theta)
    return max(1, math.ceil(TWO_PI / theta))
