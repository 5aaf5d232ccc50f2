"""Small numerical helpers: Gaussian tail functions, quadrature grids, units.

Everything here is deterministic and vectorized; the fixed-order
Gauss-Legendre rules are validated against adaptive quadrature in the
test suite so the hot loops can avoid per-point adaptive calls.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special

from .errors import NumericError

SPEED_OF_LIGHT = 299_792_458.0
# Rounding may carry a quadrature-averaged probability this far outside
# [0, 1]; anything farther is a numerical fault, not rounding.
PROBABILITY_SLACK = 1e-9


def qfunc(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


@lru_cache(maxsize=64)
def q_inverse(p: float) -> float:
    """x with Q(x) = p; inf for p <= 0 and -inf for p >= 1."""
    return float(np.sqrt(2.0) * special.erfcinv(2.0 * min(max(p, 0.0), 1.0)))


@lru_cache(maxsize=None)
def _leggauss(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(a, b, n: int):
    """Nodes and weights for an n-point Gauss-Legendre rule on [a, b].

    ``a`` and ``b`` may be arrays (broadcast against each other), in which
    case the returned arrays carry a trailing node axis.
    """
    ref_x, ref_w = _leggauss(n)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    x = mid[..., None] + half[..., None] * ref_x
    w = half[..., None] * ref_w
    return x, w


def exponential_cell_nodes(rate: float, n: int, split: float):
    """Quadrature grid for E[f(X)] with X ~ Exp(rate), truncated at its
    0.9999 quantile and renormalized.

    Returns (nodes, weights) such that sum(w_i * f(x_i)) approximates the
    expectation of f over the truncated distribution. The grid is split
    (``split_panel``) at ``split``, a known kink of f such as the LOS-ball
    edge, when it lies inside.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    quantile = 0.9999
    x_max = -np.log1p(-quantile) / rate
    x, w = split_panel(0.0, x_max, split, n)
    pdf = rate * np.exp(-rate * x)
    weights = w * pdf / quantile
    return x, weights


def split_panel(a, b, cut: float, n: int):
    """Gauss-Legendre nodes/weights on [a, b] (arrays broadcast), split at
    ``cut`` into two n/2-point panels wherever a < cut < b.

    Integrands here switch propagation regime at the LOS-ball edge, so
    panels straddling it must not be integrated as one smooth piece.
    Returns (x, w) with a trailing axis of n nodes either way.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    straddle = (a < cut) & (cut < b)
    if not np.any(straddle):
        return gauss_legendre(a, b, n)
    half = n // 2
    x_plain, w_plain = gauss_legendre(a, b, n)
    lo_x, lo_w = gauss_legendre(a, np.minimum(b, cut), half)
    hi_x, hi_w = gauss_legendre(np.maximum(a, cut), b, n - half)
    x_split = np.concatenate([lo_x, hi_x], axis=-1)
    w_split = np.concatenate([lo_w, hi_w], axis=-1)
    mask = straddle[..., None]
    return np.where(mask, x_split, x_plain), np.where(mask, w_split, w_plain)


def checked_probability(p, what: str):
    """p clipped into [0, 1] (p may be an array).

    Raises NumericError when p is not finite or lies more than
    PROBABILITY_SLACK outside [0, 1].
    """
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise NumericError(f"{what} is not finite")
    if np.any(p < -PROBABILITY_SLACK) or np.any(p > 1.0 + PROBABILITY_SLACK):
        raise NumericError(f"{what} lies outside [0, 1] by more than "
                           f"{PROBABILITY_SLACK}: {p.min()!r}..{p.max()!r}")
    out = np.clip(p, 0.0, 1.0)
    return out if out.ndim else float(out)


def check_count(value, message: str) -> None:
    """Raise ValueError(message) unless value is an integer >= 1; 2.5, inf
    and NaN fail, where a bare ``value < 1`` would let them through."""
    if not (float(value).is_integer() and value >= 1):
        raise ValueError(message)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)
