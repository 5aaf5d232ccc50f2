"""Network geometry: the LOS-ball blockage switch.

The deployment is one-dimensional (BSs along a road). The typical BS sits
at the origin; its one-sided cell size d_a is the distance to the nearest
neighboring BS and the served user is uniform inside [0, d_a]. A link is
LOS iff its ground distance is at most d_s (a closed ball), which selects
both its path-loss power and its Nakagami fading shape.
"""

from __future__ import annotations

import numpy as np

from .config import NetworkConfig


def is_los(d_ground, cfg: NetworkConfig):
    """Vectorized LOS test: ground distance inside the closed ball."""
    return np.asarray(d_ground) <= cfg.d_s


def attenuation(d_ground, cfg: NetworkConfig):
    """Path loss (d^2 + h_b^2)^(-alpha/2) over ground distances, alpha
    switching at the LOS ball. Each class's scalar exponent goes through
    the ufunc (a numpy float's ``**`` runs another pow), so an entry has
    the same bits in any array as in its own 0-d call (a numpy float)."""
    d = np.asarray(d_ground, dtype=float)
    z2 = d * d + cfg.h_b * cfg.h_b
    out = np.power(z2, -0.5 * cfg.alpha_nlos, out=np.empty(d.shape))
    # overwrite the LOS entries only: np.where over two full powers runs
    # about twice as long on the oracle's interferers
    np.power(z2, -0.5 * cfg.alpha_los, out=out, where=is_los(d, cfg))
    return out[()]


def nakagami_shape(d_ground, cfg: NetworkConfig):
    """Vectorized LOS/NLOS Nakagami shape selection for ground distances."""
    out = np.where(is_los(d_ground, cfg), cfg.n_los, cfg.n_nlos)
    return out if out.ndim else int(out)
