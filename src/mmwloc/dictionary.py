"""Triangular beam database: row k tiles the cell with k equal-angle beams.

Row k uses beamwidth theta_k = theta_1 / k with theta_1 = arctan(d_a/h_b),
and ground boundaries at cumulative angles h_b * tan(j * theta_k). Building
from cumulative angles (rather than chaining the recursion) keeps the rows
tiling [0, d_a] without floating-point drift; the last boundary is pinned
to d_a exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BeamEntry:
    """One beam: angular width plus its ground-interval footprint."""

    theta: float
    d_left: float
    d_right: float
    j: int   # beam index within the row, 1-based
    k: int   # row (dictionary size)

    @property
    def coverage(self) -> float:
        return self.d_right - self.d_left


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
    if np.any(d_a <= 0.0) or h_b <= 0.0:
        raise ValueError("cell size and BS height must be positive")
    if k < 1:
        raise ValueError("dictionary size must be >= 1")
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


@dataclass(frozen=True)
class BeamDictionary:
    """All rows 1..n_max for one side of a BS with cell size d_a."""

    d_a: float
    h_b: float
    n_max: int
    rows: tuple  # rows[k-1] is a tuple of k BeamEntry values

    def row(self, k: int) -> tuple:
        if not 1 <= k <= self.n_max:
            raise ValueError(f"row {k} outside 1..{self.n_max}")
        return self.rows[k - 1]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "j", "theta_k", "d_left", "d_right"])
            for row in self.rows:
                for beam in row:
                    writer.writerow([beam.k, beam.j, repr(beam.theta),
                                     repr(beam.d_left), repr(beam.d_right)])


def build_dictionary(d_a: float, h_b: float, n_max: int) -> BeamDictionary:
    """Construct rows 1..n_max of the beam database for one cell side."""
    if d_a <= 0.0 or h_b <= 0.0 or n_max < 1:
        raise ValueError("d_a, h_b must be positive and n_max >= 1")
    rows = []
    for k in range(1, n_max + 1):
        theta_k = row_beamwidth(d_a, h_b, k)
        bounds = beam_boundaries(d_a, h_b, k)
        rows.append(tuple(
            BeamEntry(theta=theta_k, d_left=float(bounds[j - 1]),
                      d_right=float(bounds[j]), j=j, k=k)
            for j in range(1, k + 1)
        ))
    return BeamDictionary(d_a=d_a, h_b=h_b, n_max=n_max, rows=tuple(rows))

