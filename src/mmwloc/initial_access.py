"""Localization-bound-driven initial beam refinement, plus sweep baselines.

The loop alternates BS-side and UE-side steps. Every step spends one
pilot symbol; the symbol's ranging and angle information (evaluated from
the estimation bounds under the current beam pair) accumulates into the
running estimate variances, and the active side then re-selects its beam:
the BS takes the largest dictionary row whose beam keeps the selection
error under its cap (growing at most one refinement stage per step), the
UE takes the thinnest grid beamwidth that keeps misalignment under its
cap (at most one grid level per step). The procedure stops when both
variances meet the termination accuracies, or at the step budget.

The per-step observation model is the one under-specified piece of the
refinement procedure; it is pinned here as: wideband access pilots
(``pilot_bandwidth`` defaults to the data band) observed for one symbol
scaled by ``pilot_energy_scale``, calibrated so that the reference sparse
deployment (lambda = 0.01 /m) reaches a 0.1 m ranging accuracy in about
3 steps and 0.01 m in about 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import beamwidth_to_elements, main_lobe_gain
from .config import NetworkConfig
from .dictionary import containing_beam, row_beamwidth
from .localization import (
    SIGMA_FLOOR,
    aoa_variance,
    beam_selection_profile,
    nu_threshold,
    p_misalignment,
    ranging_variance,
)
from .numerics import q_inverse

DEFAULT_UE_GRID = tuple(math.pi / 2 ** i for i in range(1, 9))


@dataclass(frozen=True)
class AccessPolicy:
    """Caps, termination accuracies, and the per-step observation model."""

    delta_bs: float = 0.05          # per-step beam-selection error cap
    delta_ma: float = 0.05          # per-step misalignment cap
    delta_d: float = 0.1            # ranging termination accuracy [m, rms]
    delta_psi: float = math.pi      # angle termination accuracy [rad, rms];
                                    # non-binding by default (ranging gates)
    max_steps: int = 200
    symbol_duration: float = 14.3e-6
    initial_sigma_d2: float = 25.0  # coarse sub-6GHz ranging variance [m^2]
    initial_theta_u: float = math.pi / 2
    n_max: int = 1024               # deepest dictionary row during access
    theta_u_grid: tuple = DEFAULT_UE_GRID
    pilot_bandwidth: float | None = None   # None: data bandwidth
    pilot_energy_scale: float = 1.0e-3     # calibrated per-step pilot budget
    bs_growth: float = 1.5          # per-step cap on dictionary-row growth

    def __post_init__(self):
        # every float check is written so that NaN fails it
        if not 0.0 < self.delta_bs <= 1.0 or not 0.0 < self.delta_ma <= 1.0:
            raise ValueError("error caps must be in (0, 1]")
        if not self.delta_d > 0.0 or not self.delta_psi > 0.0:
            raise ValueError("termination accuracies must be positive")
        if not 0.0 < self.initial_theta_u <= math.pi / 2 + 1e-12:
            raise ValueError("initial UE beam must be in (0, pi/2]")
        if self.max_steps < 1 or self.n_max < 1:
            raise ValueError("step budget and dictionary depth must be >= 1")
        if not self.symbol_duration > 0.0 or not self.initial_sigma_d2 > 0.0:
            raise ValueError("symbol duration and initial variance must be "
                             "positive")
        if self.pilot_bandwidth is not None and not self.pilot_bandwidth > 0.0:
            raise ValueError("pilot bandwidth must be positive")
        if not self.pilot_energy_scale > 0.0 or not self.bs_growth > 0.0:
            raise ValueError("pilot energy scale and row growth must be "
                             "positive")
        # the access loop tabulates every level, reached or not
        if not self.theta_u_grid or not all(
                0.0 < t <= 2.0 * math.pi for t in self.theta_u_grid):
            raise ValueError("UE grid beamwidths must be in (0, 2*pi]")


@dataclass(frozen=True)
class AccessStep:
    index: int
    side: str            # 'BS' | 'UE'
    k: int
    theta_u: float
    sigma_d2: float
    sigma_psi2: float
    symbols: int         # cumulative symbols consumed


@dataclass(frozen=True)
class AccessTrace:
    steps: tuple
    total_symbols: int
    total_delay: float
    terminated: str      # 'accuracy_met' | 'max_iter'
    final_k: int         # service-beam row supported by the final accuracy
    final_theta_u: float
    # always 0, as the loop tracks the bounds and clamps no estimate; kept
    # because perfbench/spans.py reads it
    fallback_events: int = 0


# ---------------------------------------------------------------------------
# Beam selection rules
# ---------------------------------------------------------------------------

_REL_GUARD, _ABS_GUARD = 1e-6, 1e-14   # slack of the tail bracket


def _tail_bracket(sigma: float, cap: float, tails: int) -> tuple:
    """(lo, hi): a margin below lo surely misses the cap, one at or above
    hi surely meets it; only those in between need erfc.

    Both errors come from erfc at t = margin / s, s = max(sigma,
    SIGMA_FLOOR): the UE side's 2 Q(nu / s), and the BS side's
    fl(fl(1 - Q(a)) + Q(b)) with -a s, b s the distances to the beam
    edges, the smaller being the margin. Both addends are >= 0, so each
    error lies in [tails Q(t), 2 Q(t)], tails = 1 on the BS side and 2 on
    the UE side, up to a relative rounding (erfc, t, z s, erfcinv; < 1e-12
    for normal Q(t)) that g = _REL_GUARD covers and the absolute one of
    1 - Q(a) (a few 2^-53; it dominates for tiny caps) that h = _ABS_GUARD
    covers: lo = s Qinv((cap (1 + g) + h) / tails) and
    hi = s Qinv((cap - h) / (2 (1 + g))). An edge (margin 0) has error
    >= 1/2 and hi > 0 for any cap <= 1: with the floor it is never sure.
    """
    s = max(sigma, SIGMA_FLOOR)
    return (s * q_inverse((cap * (1.0 + _REL_GUARD) + _ABS_GUARD) / tails),
            s * q_inverse((cap - _ABS_GUARD) / (2.0 * (1.0 + _REL_GUARD))))


def _row_table(d_hat: float, d_a: float, h_b: float, n_max: int) -> tuple:
    """(d_hat, d_left, d_right, margin, reach), entry r - 2 for row r =
    2..n_max: the edges of the beam holding d_hat, d_hat's distance to the
    nearer one, and the largest such distance in row r or any deeper row."""
    _, left, right = containing_beam(d_hat, d_a, h_b, np.arange(2, n_max + 1))
    margin = np.minimum(d_hat - left, right - d_hat)
    return d_hat, left, right, margin, np.maximum.accumulate(margin[::-1])[::-1]


def _select_row(table: tuple, sigma_d2: float, delta_bs: float, k: int,
                c: int) -> int:
    """min(max(k_sel, k), c), k_sel being the largest row of a ``_row_table``
    whose containing beam meets the selection-error cap (1 if none does).

    Only the rows that can move the result are decided: any row at or
    above c, then the rows in (k, c) above the last surely feasible one.
    erfc runs only where ``_tail_bracket`` cannot tell.
    """
    if c <= k or not math.isfinite(sigma_d2):
        return min(k, c)
    d_hat, d_left, d_right, margin, reach = table
    sigma = math.sqrt(sigma_d2)
    lo, hi = _tail_bracket(sigma, delta_bs, 1)

    def feasible(rows):
        if rows.size:
            rows = rows[beam_selection_profile(d_hat, sigma, d_left[rows],
                                               d_right[rows]) <= delta_bs]
        return rows

    if reach[c - 2] >= hi or feasible(c - 2 + (margin[c - 2:] >= lo)
                                      .nonzero()[0]).size:
        return c
    window = margin[k - 1:c - 2]           # rows k + 1 .. c - 1
    sure = (window >= hi).nonzero()[0]
    start = int(sure[-1]) + 1 if sure.size else 0
    rows = feasible(k - 1 + start + (window[start:] >= lo).nonzero()[0])
    return int(rows[-1]) + 2 if rows.size else k + start


def select_ue_beam(sigma_psi2: float, delta_ma: float,
                   grid: tuple = DEFAULT_UE_GRID) -> float:
    """Thinnest candidate beamwidth keeping misalignment under the cap, the
    widest if none does; erfc runs only where ``_tail_bracket`` cannot tell."""
    if not (0.0 < delta_ma <= 1.0 and sigma_psi2 >= 0.0):   # NaN fails
        raise ValueError("need a cap in (0, 1] and a non-negative variance")
    if sigma_psi2 == math.inf:
        return max(grid)
    lo, hi = _tail_bracket(math.sqrt(sigma_psi2), delta_ma, 2)
    best = min((w for w in grid if nu_threshold(w) >= hi), default=math.inf)
    widths = np.array([w for w in grid if w < best and nu_threshold(w) >= lo])
    if widths.size:
        errors = p_misalignment(sigma_psi2, nu_threshold(widths))
        best = widths[errors <= delta_ma].min(initial=best)
    return float(best) if best < math.inf else max(grid)


# ---------------------------------------------------------------------------
# Refinement loop
# ---------------------------------------------------------------------------

def _grid_floor(value: float, grid: tuple) -> float:
    """Snap to the nearest grid level at or above value (widest if above all)."""
    candidates = [t for t in sorted(grid) if t >= value - 1e-15]
    return candidates[0] if candidates else max(grid)


def run_initial_access(d: float, cell_size: float, policy: AccessPolicy,
                       cfg: NetworkConfig) -> AccessTrace:
    """Run the alternating refinement loop, on the estimation bounds, for a
    user at ground distance d inside a cell of the given one-sided size."""
    if not 0.0 <= d <= cell_size:
        raise ValueError("user must lie inside the cell")

    obs_time = policy.symbol_duration * policy.pilot_energy_scale
    pilot_bw = policy.pilot_bandwidth if policy.pilot_bandwidth is not None else cfg.bandwidth
    theta_1 = row_beamwidth(cell_size, cfg.h_b, 1)
    grid = sorted(policy.theta_u_grid, reverse=True)

    # Everything below depends on the user alone, so it is tabulated once:
    # the beam holding d in every row, and both variances for every
    # (UE grid level, dictionary row) pair, entry by entry the same IEEE
    # operations as a scalar call at that pair.
    rows = _row_table(d, cell_size, cfg.h_b, policy.n_max)
    gamma_b = main_lobe_gain(theta_1 / np.arange(1, policy.n_max + 1), cfg)
    levels = np.array(grid)[:, None]
    var_d_table = ranging_variance(d, gamma_b, main_lobe_gain(levels, cfg),
                                   0.0, cfg, observation_time=obs_time,
                                   pilot_bandwidth=pilot_bw)
    elements = np.array([beamwidth_to_elements(t) for t in grid])[:, None]
    var_psi_table = aoa_variance(d, gamma_b, levels, 0.0, cfg,
                                 observation_time=obs_time, elements=elements)

    info_d = 1.0 / policy.initial_sigma_d2
    info_psi = 0.0
    k = 1
    theta_u = _grid_floor(policy.initial_theta_u, policy.theta_u_grid)
    steps = []
    terminated = "max_iter"

    for step in range(1, policy.max_steps + 1):
        sigma_d2 = 1.0 / info_d
        sigma_psi2 = 1.0 / info_psi if info_psi > 0.0 else math.inf
        side = "BS" if step % 2 == 1 else "UE"

        if side == "BS":
            k = _select_row(rows, sigma_d2, policy.delta_bs, k, min(
                math.ceil(policy.bs_growth * k), policy.n_max))
        else:
            theta_sel = select_ue_beam(sigma_psi2, policy.delta_ma,
                                       policy.theta_u_grid)
            pos = grid.index(theta_u)
            one_down = grid[min(pos + 1, len(grid) - 1)]
            theta_u = min(theta_u, max(theta_sel, one_down))

        level = grid.index(theta_u)
        var_d = float(var_d_table[level, k - 1])
        var_psi = float(var_psi_table[level, k - 1])
        info_d += 1.0 / var_d
        if math.isfinite(var_psi):
            info_psi += 1.0 / var_psi

        sigma_d2 = 1.0 / info_d
        sigma_psi2 = 1.0 / info_psi if info_psi > 0.0 else math.inf
        steps.append(AccessStep(index=step, side=side, k=k, theta_u=theta_u,
                                sigma_d2=sigma_d2, sigma_psi2=sigma_psi2,
                                symbols=step))
        if (math.sqrt(sigma_d2) <= policy.delta_d
                and math.sqrt(sigma_psi2) <= policy.delta_psi):
            terminated = "accuracy_met"
            break

    total_symbols = steps[-1].symbols if steps else 0
    # Service beam pair: the selection the final accuracy supports (the
    # sweep baselines must reach this same resolution).
    final_k = _select_row(rows, sigma_d2, policy.delta_bs, k, policy.n_max)
    final_theta_u = min(theta_u, select_ue_beam(sigma_psi2, policy.delta_ma,
                                                policy.theta_u_grid))
    return AccessTrace(steps=tuple(steps), total_symbols=total_symbols,
                       total_delay=total_symbols * policy.symbol_duration,
                       terminated=terminated, final_k=final_k,
                       final_theta_u=final_theta_u)


# ---------------------------------------------------------------------------
# Baseline search delays
# ---------------------------------------------------------------------------

def delay_exhaustive(theta_b: float, theta_u: float, symbol_duration: float) -> float:
    """Full sweep over all ceil(2pi/theta_b) x ceil(2pi/theta_u) pairs."""
    if theta_b <= 0.0 or theta_u <= 0.0:
        raise ValueError("beamwidths must be positive")
    combos = math.ceil(2.0 * math.pi / theta_b) * math.ceil(2.0 * math.pi / theta_u)
    return combos * symbol_duration


def delay_iterative(target_k: int, target_theta_u: float,
                    symbol_duration: float,
                    initial_theta_u: float = math.pi / 2) -> float:
    """Bisection search: two probing symbols per halving stage, first on
    the BS side down to row target_k, then on the UE side down to the
    target beamwidth."""
    if target_k < 1:
        raise ValueError("target dictionary size must be >= 1")
    if target_theta_u <= 0.0 or initial_theta_u <= 0.0:
        raise ValueError("beamwidths must be positive")
    bs_stages = math.ceil(math.log2(target_k)) if target_k > 1 else 0
    ratio = initial_theta_u / target_theta_u
    ue_stages = max(0, math.ceil(math.log2(ratio))) if ratio > 1.0 else 0
    return 2.0 * (bs_stages + ue_stages) * symbol_duration
