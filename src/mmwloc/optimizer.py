"""Two-stage rate-coverage optimization: inner resource split, outer beamwidth.

For each candidate dictionary size the inner stage grid-searches the
partition factor beta under the averaged beam-selection / misalignment
caps; the outer stage takes the best feasible row. The UE beamwidth per
candidate is the one the access procedure would settle on: the thinnest
grid beamwidth whose misalignment probability, at the reference in-cell
geometry, stays under the per-step cap. Since the angle error adapts to
the noise level, so does the beam pairing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .antenna import main_lobe_gain
from .config import NetworkConfig
from .coverage import rate_coverage
from .dictionary import row_beamwidth
from .errors import ConfigError
from .initial_access import UE_GRID, select_ue_beam
from .localization import (
    aoa_variance,
    avg_beam_selection_error,
    avg_misalignment_error,
)
from .numerics import check_count


def ue_beamwidth_for_dictionary(k: int, cfg: NetworkConfig) -> float:
    """UE beamwidth paired with dictionary size k.

    Evaluates the angle-error bound at the reference geometry (mid-cell of
    the mean cell, beta = 0.5) and returns the thinnest grid beamwidth
    keeping the misalignment probability under 0.05 there.
    """
    check_count(k, "dictionary size must be >= 1")
    d_a = cfg.mean_cell_size
    theta_k = row_beamwidth(d_a, cfg.h_b, k)
    gamma_b = main_lobe_gain(theta_k, cfg)
    x_ref = 0.5 * d_a
    sigma2 = float(aoa_variance(x_ref, gamma_b, UE_GRID[0], 0.5, cfg))
    return select_ue_beam(sigma2, 0.05)


def default_beta_grid(step: float = 0.02) -> tuple:
    """The inner-search grid i * step, i = 1, 2, ... while at most 1: (0, 1].

    ``step`` may be the raw text of a config value; one that does not parse
    or lies outside [1e-4, 1] (10,000 betas at most) raises ConfigError.
    """
    try:
        step = float(step)
    except (TypeError, ValueError):
        raise ConfigError(f"beta step must be a number, got {step!r}") from None
    if not 1e-4 <= step <= 1.0:
        raise ConfigError(f"beta step must be in [0.0001, 1], got {step}")
    betas = (round(i * step, 10) for i in range(1, int(1.0 / step) + 2))
    return tuple(beta for beta in betas if beta <= 1.0)


@dataclass(frozen=True)
class OptimizationSpec:
    r0: float = 1.0e8                       # effective-rate target [bit/s]
    eps_bs: float = 0.1                     # averaged beam-selection cap
    eps_ma: float = 0.1                     # averaged misalignment cap
    k_candidates: tuple = (1, 2, 4, 8, 16, 32)
    beta_grid: tuple = field(default_factory=default_beta_grid)

    def __post_init__(self):
        # every float check is written so that NaN fails it
        if not self.r0 > 0.0:
            raise ValueError("rate target must be positive")
        if not 0.0 < self.eps_bs < 1.0 or not 0.0 < self.eps_ma < 1.0:
            raise ValueError("constraint caps must be in (0, 1)")
        if not self.k_candidates or not self.beta_grid:
            raise ValueError("candidate grids must be non-empty")
        pairs = zip((0.0,) + tuple(self.beta_grid), self.beta_grid)
        if not all(a < b for a, b in pairs) or not self.beta_grid[-1] <= 1.0:
            raise ValueError("beta grid must be strictly increasing in (0, 1]")


@dataclass(frozen=True)
class BetaOptimum:
    """Inner-stage result for one dictionary size."""

    k: int
    theta_u: float
    feasible: bool
    beta_star: float | None
    objective: float | None
    p_bs: float | None
    p_ma: float | None
    feasible_count: int


@dataclass(frozen=True)
class OptimizationResult:
    feasible: bool
    theta_star: float | None
    k_star: int | None
    beta_star: float | None
    objective: float | None
    feasible_set_size: int
    per_k_table: tuple


def optimize_beta(k: int, spec: OptimizationSpec, cfg: NetworkConfig) -> BetaOptimum:
    """Best feasible beta for dictionary size k; ties go to the later, larger
    beta of the grid. Both caps rise with beta as (1 - beta) T_F shrinks, so
    the feasible betas are a prefix of the grid, whose length is bisected
    with single-beta p_bs averages (p_ma is averaged over the grid). A full
    scan finds the same prefix: per position each error is non-decreasing
    along a sorted grid, as neighbouring betas move every erfc argument by
    far more than an ulp or not at all (so ``numerics.erfc``'s ulp-scale
    wiggle, which it shares with cephes, does not enter: it never rises on
    a 3e-6 grid), and fixed-order sums with non-negative weights keep that
    order."""
    theta_u = ue_beamwidth_for_dictionary(k, cfg)
    betas = np.array(spec.beta_grid, dtype=float)
    p_ma = avg_misalignment_error(k, theta_u, betas, cfg)
    n = bisect_left(range(np.count_nonzero(p_ma <= spec.eps_ma)), True,
                    key=lambda i: avg_beam_selection_error(
                        k, betas[i], theta_u, cfg) > spec.eps_bs)
    if not n:
        return BetaOptimum(k=k, theta_u=theta_u, feasible=False, beta_star=None,
                           objective=None, p_bs=None, p_ma=None, feasible_count=0)
    objectives = rate_coverage(spec.r0, betas[:n], k, theta_u, cfg)
    best = max(range(n), key=lambda i: (objectives[i], i))
    return BetaOptimum(k=k, theta_u=theta_u, feasible=True,
                       beta_star=spec.beta_grid[best],
                       objective=float(objectives[best]),
                       p_bs=avg_beam_selection_error(k, betas[best], theta_u, cfg),
                       p_ma=float(p_ma[best]), feasible_count=n)


def optimize_beamwidth(spec: OptimizationSpec, cfg: NetworkConfig) -> OptimizationResult:
    """Outer stage: the best feasible (k, beta) pair across candidates."""
    rows = tuple(optimize_beta(k, spec, cfg) for k in spec.k_candidates)
    feasible_rows = [r for r in rows if r.feasible]
    total_feasible = sum(r.feasible_count for r in rows)
    if not feasible_rows:
        return OptimizationResult(feasible=False, theta_star=None, k_star=None,
                                  beta_star=None, objective=None,
                                  feasible_set_size=0, per_k_table=rows)
    best = max(feasible_rows, key=lambda r: (r.objective, -r.k))
    theta_star = row_beamwidth(cfg.mean_cell_size, cfg.h_b, best.k)
    return OptimizationResult(feasible=True, theta_star=theta_star,
                              k_star=best.k, beta_star=best.beta_star,
                              objective=best.objective,
                              feasible_set_size=total_feasible,
                              per_k_table=rows)
