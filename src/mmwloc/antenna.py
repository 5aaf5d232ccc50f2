"""Antenna models: sectorized two-level pattern and half-wavelength ULA.

The sectorized pattern serves every data-phase gain; the ULA responses are
used only inside the angle-estimation bound, mirroring the model split in
the analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import NetworkConfig
from .numerics import SPEED_OF_LIGHT, check_count

TWO_PI = 2.0 * math.pi


def main_lobe_gain(theta, cfg: NetworkConfig):
    """Main-lobe gain G0 * (2*pi - (2*pi - theta) * eps) / theta of the
    two-level sectorized pattern for a beam of angular width theta; theta
    may be an array.

    With the sidelobe gain G0 * eps the pattern conserves total radiated
    power: gain_main * theta + gain_side * (2*pi - theta) == 2*pi * G0.
    """
    valid = (0.0 < theta) & (theta <= TWO_PI)
    if not (valid if isinstance(valid, bool) else valid.all()):
        raise ValueError(f"beamwidth must be in (0, 2*pi], got {theta}")
    return cfg.g0 * (TWO_PI - (TWO_PI - theta) * cfg.eps_sidelobe) / theta


def sidelobe_gain(cfg: NetworkConfig) -> float:
    return cfg.g0 * cfg.eps_sidelobe


@dataclass(frozen=True)
class UlaArray:
    """Uniform linear array with inter-element spacing kappa (default c/2fc)."""

    n_elements: int
    f_c: float = 28.0e9
    kappa: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        check_count(self.n_elements, "element count must be >= 1")
        if self.kappa is None:
            object.__setattr__(self, "kappa", SPEED_OF_LIGHT / (2.0 * self.f_c))

    @property
    def phase_scale(self) -> float:
        """Per-element phase slope factor 2*pi*kappa*f_c/c (pi at half-lambda)."""
        return TWO_PI * self.kappa * self.f_c / SPEED_OF_LIGHT


def beamwidth_to_elements(theta: float) -> int:
    """Element count realizing a beam of width theta: ceil(2*pi/theta), >= 1."""
    if not 0.0 < theta <= TWO_PI:
        raise ValueError(f"beamwidth must be in (0, 2*pi], got {theta}")
    return max(1, math.ceil(TWO_PI / theta))


def array_response(array: UlaArray, angle: float) -> np.ndarray:
    """Unit-norm ULA response; element n carries phase n*phase_scale*sin(angle)."""
    n = np.arange(array.n_elements)
    phases = n * array.phase_scale * math.sin(angle)
    return np.exp(1j * phases) / math.sqrt(array.n_elements)


def array_response_derivative(array: UlaArray, angle: float) -> np.ndarray:
    """Derivative of the array response with respect to the angle."""
    n = np.arange(array.n_elements)
    slope = 1j * n * array.phase_scale * math.cos(angle)
    return slope * array_response(array, angle)


def aoa_fisher_factor(array: UlaArray, angle: float = 0.0) -> float:
    """Angle-information factor of the full aperture at the given offset
    from boresight: ||da||^2 - |<a, da>|^2 / ||a||^2.

    This is the residual of the response derivative after projecting out
    the unknown complex channel gain; it equals
    (phase_scale*cos(angle))^2 * (m^2 - 1) / 12 and vanishes for m == 1.
    """
    a = array_response(array, angle)
    da = array_response_derivative(array, angle)
    norm_a2 = float(np.vdot(a, a).real)
    norm_da2 = float(np.vdot(da, da).real)
    cross = np.vdot(a, da)
    return norm_da2 - abs(cross) ** 2 / norm_a2
