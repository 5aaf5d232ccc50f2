"""Small numerical helpers: Gaussian tail functions, quadrature grids, units.

Everything here is deterministic and vectorized; the fixed-order
Gauss-Legendre rules are validated against adaptive quadrature in the
test suite so the hot loops can avoid per-point adaptive calls.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import NumericError

SPEED_OF_LIGHT = 299_792_458.0
# Rounding may carry a quadrature-averaged probability this far outside
# [0, 1]; anything farther is a numerical fault, not rounding.
PROBABILITY_SLACK = 1e-9

# erfc is the cephes ndtr.c algorithm (S. L. Moshier, Methods and Programs
# for Mathematical Functions, 1989), the one scipy.special.erfc runs: erf's
# rational T/U in x^2 on |x| < 1, exp(-x^2) P/Q on [1, 8) and exp(-x^2) R/S
# on [8, sqrt(MAXLOG)], 2 - y below 0. Coefficients are cephes', highest
# degree first; the monic denominators get their 1.0 below (cephes p1evl).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2   # log(DBL_MAX)
# fl(x * x) > _MAXLOG exactly for x > _X_UNDER (a test pins it): there
# erfc is 0.0 without arithmetic
_X_UNDER = math.sqrt(_MAXLOG)
# erfc(6) < 2^-55, so 2 - erfc(-x) rounds to exactly 2.0 for x < _X_TWO
_X_TWO = -6.0


# (numerator, monic denominator) per band
_INNER = (_ERF_T, (1.0,) + _ERF_U)    # in x^2, for |x| < 1
_MID = (_ERFC_P, (1.0,) + _ERFC_Q)    # in |x|, on [1, 8)
_FAR = (_ERFC_R, (1.0,) + _ERFC_S)    # in |x|, on [8, _X_UNDER]


def _polevl(t, coefs: tuple):
    """Horner's rule in cephes polevl's order, for a 1-D array t (the
    result is a new buffer, updated in place)."""
    out = t * coefs[0]
    for c in coefs[1:-1]:
        out += c
        out *= t
    out += coefs[-1]
    return out


def _erfc_array(x: np.ndarray) -> np.ndarray:
    """erfc over a 1-D array; each band runs only on its own entries."""
    out = (x < 0.0).astype(float)      # the limits 2 and 0
    out *= 2.0
    a = np.abs(x)
    tail = a >= 1.0
    at = np.flatnonzero(~tail)         # |x| < 1, and NaN, which stays NaN
    if at.size:
        v = x.take(at)
        z = v * v
        v *= _polevl(z, _INNER[0])
        v /= _polevl(z, _INNER[1])
        out[at] = 1.0 - v
    tail &= x >= _X_TWO
    tail &= a <= _X_UNDER
    far = a >= 8.0
    far &= tail
    tail ^= far                        # now 1 <= |x| < 8
    for mask, band in ((tail, _MID), (far, _FAR)):
        at = np.flatnonzero(mask)
        if at.size:
            t = a.take(at)
            y = t * t
            np.negative(y, out=y)
            np.exp(y, out=y)
            y *= _polevl(t, band[0])
            y /= _polevl(t, band[1])
            # the limit plus y with x's sign: y, or 2 + (-y) == 2 - y
            np.copysign(y, x.take(at), out=y)
            y += out.take(at)
            out[at] = y
    return out


def erfc(x):
    """Complementary error function, elementwise; a 0-d input gives a
    numpy float, as a ufunc would. Bit-equal to cephes' erfc except that
    exp is numpy's, which moves some entries by a few ulps; every entry
    gets the same bits in any array size, shape or batch."""
    x = np.asarray(x, dtype=float)
    out = _erfc_array(x.ravel()).reshape(x.shape)
    return out if out.ndim else out[()]


def qfunc(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


_STANDARD_NORMAL = NormalDist()


@lru_cache(maxsize=64)
def q_inverse(p: float) -> float:
    """x with Q(x) = p; inf for p <= 0 and -inf for p >= 1."""
    if p <= 0.0:
        return math.inf
    if p >= 1.0:
        return -math.inf
    return -_STANDARD_NORMAL.inv_cdf(p)


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
    Returns (x, w) with a trailing axis of n nodes either way; only the
    straddling panels' n nodes are overwritten by the two half rules.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    x, w = gauss_legendre(a, b, n)
    at = (a < cut) & (cut < b)
    half = n // 2
    x[at, :half], w[at, :half] = gauss_legendre(a[at], cut, half)
    x[at, half:], w[at, half:] = gauss_legendre(cut, b[at], n - half)
    return x, w


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
