"""Triangular beam database: row k tiles the cell with k equal-angle beams.

Row k uses beamwidth theta_k = theta_1 / k with theta_1 = arctan(d_a/h_b),
and ground boundaries at cumulative angles h_b * tan(j * theta_k). Building
from cumulative angles (rather than chaining the recursion) keeps the rows
tiling [0, d_a] without floating-point drift; the last boundary is pinned
to d_a exactly. Rows are computed on demand, for any cell size and any k;
``mmwloc dump-dictionary`` writes rows 1..n_max out as a table.
"""

from __future__ import annotations

import numpy as np

from .numerics import check_count


def row_beamwidth(d_a, h_b: float, k):
    """Beamwidth theta_k = atan(d_a / h_b) / k of row k; d_a and k may be
    arrays (they broadcast)."""
    out = np.arctan2(d_a, h_b) / k
    return out if out.ndim else float(out)


def _edge(j, theta_k, d_a, h_b: float, k):
    """Ground boundary j of row k; the last one is pinned to the cell edge."""
    return np.where(j >= k, d_a, h_b * np.tan(j * theta_k))


def beam_boundaries(d_a, h_b: float, k: int) -> np.ndarray:
    """The k+1 ground boundaries of row k: h_b*tan(j*theta_k), j = 0..k.

    ``d_a`` may be an array of cell sizes; the boundaries then run along a
    trailing axis of length k+1.
    """
    d_a = np.asarray(d_a, dtype=float)[..., None]
    # NaN fails these checks too
    if not (((0.0 < d_a) & (d_a < np.inf)).all() and 0.0 < h_b < np.inf):
        raise ValueError("cell size and BS height must be positive and finite")
    check_count(k, "dictionary size must be >= 1")
    return _edge(np.arange(k + 1), row_beamwidth(d_a, h_b, k), d_a, h_b, k)


def containing_beam(d, d_a, h_b: float, k) -> tuple:
    """(j, d_left, d_right): the beam of row k whose ground interval holds
    d, with its edges; d, d_a and k broadcast.

    Ties go to the left beam, so d_left <= d <= d_right and d equals d_left
    only in the first beam. The beam comes from the angular construction,
    j = ceil(atan(d / h_b) / theta_k); where atan and tan round differently
    at an edge that lands one beam off, and one step towards d corrects it.
    """
    theta_k = row_beamwidth(d_a, h_b, k)
    j = np.minimum(np.maximum(np.ceil(np.arctan2(d, h_b) / theta_k), 1),
                   k).astype(int)
    d_left = _edge(j - 1, theta_k, d_a, h_b, k)
    d_right = _edge(j, theta_k, d_a, h_b, k)
    if ((d <= d_left) | (d > d_right)).any():
        j = j + ((d > d_right) & (j < k)) - ((d <= d_left) & (j > 1))
        d_left = _edge(j - 1, theta_k, d_a, h_b, k)
        d_right = _edge(j, theta_k, d_a, h_b, k)
    return j, d_left, d_right
