"""Localization-bound-driven initial beam refinement, plus sweep baselines.

The loop alternates BS-side and UE-side steps. Every step spends one
pilot symbol; the symbol's ranging and angle information (evaluated from
the estimation bounds under the current beam pair) accumulates into the
running estimate variances, and the active side then re-selects its beam:
the BS takes the largest dictionary row whose beam keeps the selection
error under its cap (growing at most one refinement stage per step), the
UE takes the thinnest ``UE_GRID`` beamwidth that keeps misalignment under
its cap (at most one grid level per step). The procedure stops when both
variances meet the termination accuracies, or at the step budget.

The per-step observation model is the one under-specified piece of the
refinement procedure; it is pinned here as: wideband access pilots over
the data band, observed for one symbol scaled by ``pilot_energy_scale``,
calibrated so that the reference sparse deployment (lambda = 0.01 /m)
reaches a 0.1 m ranging accuracy in about 3 steps and 0.01 m in about 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import beamwidth_to_elements, main_lobe_gain
from .config import NetworkConfig
from .dictionary import containing_beam, row_beamwidth
from .errors import NumericError
from .localization import (
    SIGMA_FLOOR,
    _aoa_factor,
    _ranging_curvature,
    beam_selection_profile,
    nu_threshold,
    observation_energy,
    p_misalignment,
)
from .numerics import check_count, q_inverse

# the UE beamwidths, widest first; each level halves the one above it
UE_GRID = tuple(math.pi / 2 ** i for i in range(1, 9))


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
    n_max: int = 1024               # deepest dictionary row during access
    pilot_energy_scale: float = 1.0e-3     # calibrated per-step pilot budget
    bs_growth: float = 1.5          # per-step cap on dictionary-row growth

    def __post_init__(self):
        # every float check is written so that NaN fails it
        if not 0.0 < self.delta_bs <= 1.0 or not 0.0 < self.delta_ma <= 1.0:
            raise ValueError("error caps must be in (0, 1]")
        if not self.delta_d > 0.0 or not self.delta_psi > 0.0:
            raise ValueError("termination accuracies must be positive")
        for name in ("max_steps", "n_max"):
            check_count(getattr(self, name), f"{name} must be an integer >= 1")
        # inf would zero the prior ranging information, overflow the row cap
        # or make a step's information infinite
        for name in ("symbol_duration", "pilot_energy_scale",
                     "initial_sigma_d2", "bs_growth"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


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


def _ue_level(sigma_psi2: float, delta_ma: float, level: int,
              last: int) -> int:
    """min(max(l_sel, level), last), l_sel being the deepest ``UE_GRID``
    level whose misalignment meets the cap (0 if none does).

    Each level halves the width, so nu / s halves exactly from one level
    to the next and the computed 2 Q(nu / s) cannot fall: the levels
    meeting the cap form a prefix of the grid, and the levels below
    ``level`` are decided one at a time up to the first miss. erfc runs
    only where ``_tail_bracket`` cannot tell. An infinite variance keeps
    the level, at any cap.
    """
    if last <= level or sigma_psi2 == math.inf:
        return min(level, last)
    lo, hi = _tail_bracket(math.sqrt(sigma_psi2), delta_ma, 2)
    while level < last:
        nu = nu_threshold(UE_GRID[level + 1])
        if nu < hi and (nu < lo
                        or p_misalignment(sigma_psi2, nu) > delta_ma):
            break
        level += 1
    return level


def select_ue_beam(sigma_psi2: float, delta_ma: float) -> float:
    """Thinnest ``UE_GRID`` beamwidth keeping misalignment under the cap,
    the widest if none does."""
    if not (0.0 < delta_ma <= 1.0 and sigma_psi2 >= 0.0):   # NaN fails
        raise ValueError("need a cap in (0, 1] and a non-negative variance")
    return UE_GRID[_ue_level(sigma_psi2, delta_ma, 0, len(UE_GRID) - 1)]


# ---------------------------------------------------------------------------
# Refinement loop
# ---------------------------------------------------------------------------

def _step_variances(d, theta_1, obs_time, cfg: NetworkConfig):
    """variances(level, k): a step's (ranging, angle) variances as floats,
    bit-equal to ``ranging_variance``/``aoa_variance``'s: only + - * / run."""
    zeta = observation_energy(d, 0.0, cfg, obs_time)
    curvature = _ranging_curvature(cfg, cfg.bandwidth)
    gains = [main_lobe_gain(t, cfg) for t in UE_GRID]
    factors = [_aoa_factor(beamwidth_to_elements(t)) for t in UE_GRID]

    def variances(level: int, k: int) -> tuple:
        energy = zeta * main_lobe_gain(theta_1 / k, cfg)
        info = (energy * gains[level] * curvature, energy * factors[level])
        if not (0.0 < info[0] < math.inf and 0.0 < info[1] < math.inf):
            raise NumericError(f"step information out of range at row {k}")
        return 1.0 / max(info[0], 1e-300), 1.0 / max(info[1], 1e-300)
    return variances


def run_initial_access(d: float, cell_size: float, policy: AccessPolicy,
                       cfg: NetworkConfig) -> AccessTrace:
    """Run the alternating refinement loop, on the estimation bounds, for a
    user at ground distance d inside a cell of the given one-sided size."""
    if not 0.0 <= d <= cell_size:
        raise ValueError("user must lie inside the cell")

    last = len(UE_GRID) - 1
    # only the row search is tabulated per user; variances are per step
    rows = _row_table(d, cell_size, cfg.h_b, policy.n_max)
    variances = _step_variances(
        d, row_beamwidth(cell_size, cfg.h_b, 1),
        policy.symbol_duration * policy.pilot_energy_scale, cfg)

    info_d, info_psi = 1.0 / policy.initial_sigma_d2, 0.0
    sigma_d2 = 1.0 / info_d
    k, level = 1, 0
    steps = []
    terminated = "max_iter"

    for step in range(1, policy.max_steps + 1):
        side = "BS" if step % 2 == 1 else "UE"

        if side == "BS":
            k = _select_row(rows, sigma_d2, policy.delta_bs, k, min(
                math.ceil(policy.bs_growth * k), policy.n_max))
        else:
            level = _ue_level(sigma_psi2, policy.delta_ma, level,
                              min(level + 1, last))

        var_d, var_psi = variances(level, k)
        info_d += 1.0 / var_d
        info_psi += 1.0 / var_psi

        sigma_d2, sigma_psi2 = 1.0 / info_d, 1.0 / info_psi
        steps.append(AccessStep(index=step, side=side, k=k,
                                theta_u=UE_GRID[level], sigma_d2=sigma_d2,
                                sigma_psi2=sigma_psi2, symbols=step))
        if (math.sqrt(sigma_d2) <= policy.delta_d
                and math.sqrt(sigma_psi2) <= policy.delta_psi):
            terminated = "accuracy_met"
            break

    total_symbols = steps[-1].symbols if steps else 0
    # Service beam pair: the selection the final accuracy supports (the
    # sweep baselines must reach this same resolution).
    final_k = _select_row(rows, sigma_d2, policy.delta_bs, k, policy.n_max)
    final_level = _ue_level(sigma_psi2, policy.delta_ma, level, last)
    return AccessTrace(steps=tuple(steps), total_symbols=total_symbols,
                       total_delay=total_symbols * policy.symbol_duration,
                       terminated=terminated, final_k=final_k,
                       final_theta_u=UE_GRID[final_level])


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
                    symbol_duration: float) -> float:
    """Bisection search: two probing symbols per halving stage, first on
    the BS side down to row target_k, then on the UE side from the widest
    ``UE_GRID`` level down to the target beamwidth."""
    check_count(target_k, "target dictionary size must be >= 1")
    if target_theta_u <= 0.0:
        raise ValueError("beamwidths must be positive")
    bs_stages = math.ceil(math.log2(target_k)) if target_k > 1 else 0
    ratio = UE_GRID[0] / target_theta_u
    ue_stages = max(0, math.ceil(math.log2(ratio))) if ratio > 1.0 else 0
    return 2.0 * (bs_stages + ue_stages) * symbol_duration
