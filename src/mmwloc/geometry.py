"""Network geometry: cell/user distributions, blockage, localization SNR.

The deployment is one-dimensional (BSs along a road). The typical BS sits
at the origin; its one-sided cell size d_a is the distance to the nearest
neighboring BS and the served user is uniform inside [0, d_a].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .config import NetworkConfig
from .numerics import SPEED_OF_LIGHT


class LinkState(enum.Enum):
    LOS = "los"
    NLOS = "nlos"


@dataclass(frozen=True)
class UserGeometry:
    """A user at ground distance d from the serving BS of height h_b.

    Derived quantities: slant range z, propagation delay tau, departure
    angle phi and arrival angle psi (psi + phi + orientation == pi).
    """

    d: float
    orientation: float = 0.0
    h_b: float = 10.0
    z: float = field(init=False)
    tau: float = field(init=False)
    phi: float = field(init=False)
    psi: float = field(init=False)

    def __post_init__(self):
        if self.d < 0.0:
            raise ValueError("ground distance must be non-negative")
        if self.h_b <= 0.0:
            raise ValueError("BS height must be positive")
        z = math.hypot(self.d, self.h_b)
        phi = math.acos(self.d / z)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "tau", z / SPEED_OF_LIGHT)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", math.pi - phi - self.orientation)

    @classmethod
    def from_config(cls, d: float, cfg: NetworkConfig, orientation: float = 0.0):
        return cls(d=d, orientation=orientation, h_b=cfg.h_b)


def cell_size_pdf(x, cfg: NetworkConfig):
    """Density of the one-sided cell size: 2*lambda*exp(-2*lambda*x)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("cell size must be non-negative")
    rate = 2.0 * cfg.bs_density
    out = rate * np.exp(-rate * x)
    return out if out.ndim else float(out)


def user_position_pdf(y, cell_size: float):
    """Uniform user-position density over [0, cell_size]."""
    if cell_size <= 0.0:
        raise ValueError("cell size must be positive")
    y = np.asarray(y, dtype=float)
    out = np.where((y >= 0.0) & (y <= cell_size), 1.0 / cell_size, 0.0)
    return out if out.ndim else float(out)


def link_state(d_ground: float, cfg: NetworkConfig) -> LinkState:
    """LOS-ball blockage: LOS iff ground distance <= d_s (closed ball)."""
    if d_ground < 0.0:
        raise ValueError("ground distance must be non-negative")
    return LinkState.LOS if d_ground <= cfg.d_s else LinkState.NLOS


def path_loss_exponent(d_ground, cfg: NetworkConfig):
    """Vectorized LOS/NLOS exponent selection for ground distances."""
    d_ground = np.asarray(d_ground, dtype=float)
    out = np.where(d_ground <= cfg.d_s, cfg.alpha_los, cfg.alpha_nlos)
    return out if out.ndim else float(out)


def nakagami_shape(d_ground, cfg: NetworkConfig):
    """Vectorized LOS/NLOS Nakagami shape selection for ground distances."""
    out = np.where(np.asarray(d_ground) <= cfg.d_s, cfg.n_los, cfg.n_nlos)
    return out if out.ndim else int(out)


def snr_localization(geom: UserGeometry, gain_b: float, gain_u: float,
                     cfg: NetworkConfig) -> float:
    """Pilot SNR for the localization process (fading power at its mean 1).

    The pilots occupy the synchronization band, so the noise floor is
    N0 * pilot_bandwidth rather than N0 * B.
    """
    if gain_b <= 0.0 or gain_u <= 0.0:
        raise ValueError("antenna gains must be positive")
    alpha = path_loss_exponent(geom.d, cfg)
    received = cfg.k_pl * cfg.p_t * gain_b * gain_u * geom.z ** (-alpha)
    return received / (cfg.noise_psd * cfg.pilot_bandwidth)
