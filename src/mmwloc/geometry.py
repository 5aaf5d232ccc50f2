"""Network geometry: the LOS-ball blockage switch.

The deployment is one-dimensional (BSs along a road). The typical BS sits
at the origin; its one-sided cell size d_a is the distance to the nearest
neighboring BS and the served user is uniform inside [0, d_a]. A link is
LOS iff its ground distance is at most d_s (a closed ball), which selects
both its path-loss exponent and its Nakagami fading shape.
"""

from __future__ import annotations

import numpy as np

from .config import NetworkConfig


def is_los(d_ground, cfg: NetworkConfig):
    """Vectorized LOS test: ground distance inside the closed ball."""
    return np.asarray(d_ground) <= cfg.d_s


def path_loss_exponent(d_ground, cfg: NetworkConfig):
    """Vectorized LOS/NLOS exponent selection for ground distances."""
    out = np.where(is_los(d_ground, cfg), cfg.alpha_los, cfg.alpha_nlos)
    return out if out.ndim else float(out)


def nakagami_shape(d_ground, cfg: NetworkConfig):
    """Vectorized LOS/NLOS Nakagami shape selection for ground distances."""
    out = np.where(is_los(d_ground, cfg), cfg.n_los, cfg.n_nlos)
    return out if out.ndim else int(out)
