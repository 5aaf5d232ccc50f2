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
``access_traces`` runs the loop for many users in chunks, stepping every
unfinished user of a chunk together; every rule works on arrays of users,
and a BS selection computes only the dictionary rows it decides.

The per-step observation model is the one under-specified piece of the
refinement procedure; it is pinned here as: wideband access pilots over
the data band, observed for one symbol scaled by ``pilot_energy_scale``,
calibrated so that the reference sparse deployment (lambda = 0.01 /m)
reaches a 0.1 m ranging accuracy in about 3 steps and 0.01 m in about 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


class AccessStep(NamedTuple):
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


# users of one chunk, stepped together. Each keeps its AccessStep records,
# about 210 B each, until the chunk's traces are made: at the 21 steps a
# 1 mm ``access-delay`` user takes on average, a chunk holds about 2,700
# records (0.6 MB)
_CHUNK_USERS = 128
# (entry, row) pairs of one row block of a beam selection, so that a
# block's float64 temporaries are 64 KiB, below glibc's initial 128 KiB
# mmap threshold; it holds a chunk's users one row each
_BLOCK_ENTRIES = 2 ** 13

_UE_WIDTHS = np.array(UE_GRID)
_UE_WIDTHS.setflags(write=False)


# ---------------------------------------------------------------------------
# Beam selection rules, each over a batch of users
# ---------------------------------------------------------------------------

_REL_GUARD, _ABS_GUARD = 1e-6, 1e-14   # slack of the tail bracket


def _tail_bracket(sigma, cap: float, tails: int) -> tuple:
    """(lo, hi) per spread: a margin below lo surely misses the cap, one at
    or above hi surely meets it; only those in between need erfc.

    Both errors come from erfc at t = margin / s, s = max(sigma,
    SIGMA_FLOOR): the UE side's 2 Q(nu / s), and the BS side's
    fl(fl(1 - Q(a)) + Q(b)) with -a s, b s the distances to the beam
    edges, the smaller being the margin. Both addends are >= 0, so each
    error lies in [tails Q(t), 2 Q(t)], tails = 1 on the BS side and 2 on
    the UE side, up to a relative rounding (erfc, within 5.7e-14 of mpmath
    as is cephes'; t; z s; ``q_inverse``'s NormalDist.inv_cdf, within 1e-15
    of mpmath; < 1e-12 in all for normal Q(t)) that g = _REL_GUARD covers
    and the absolute one of 1 - Q(a) (a few 2^-53; it dominates for tiny
    caps) that h = _ABS_GUARD covers: lo = s Qinv((cap (1 + g) + h) / tails)
    and hi = s Qinv((cap - h) / (2 (1 + g))). An edge (margin 0) has error
    >= 1/2 and hi > 0 for any cap <= 1: with the floor it is never sure.
    """
    s = np.maximum(sigma, SIGMA_FLOOR)
    return (s * q_inverse((cap * (1.0 + _REL_GUARD) + _ABS_GUARD) / tails),
            s * q_inverse((cap - _ABS_GUARD) / (2.0 * (1.0 + _REL_GUARD))))


_EDGE_GUARD = 2.0 ** -46    # slack of the width bound, 64 ulps


def _margin_bound(d, d_a, h_b: float, m) -> tuple:
    """(scale, slack): in every row r >= m, the margin of d in the beam
    holding it is at most scale / r + slack.

    That beam spans the angles [(j - 1) theta_r, j theta_r], where (j - 1)
    theta_r <= atan(d / h_b) and theta_r <= theta_m, so none exceeds phi =
    min(theta_1, atan(d / h_b) + theta_m). As sec^2 rises on [0, pi/2),
    the beam's ground width is at most h_b theta_r sec^2(phi), and the
    margin at most half of that. Rounding moves each computed edge by a
    few ulps of its tan, which is a few ulps times r of the width, and the
    margin by an ulp of d: ``slack`` covers both. It moves phi by a few
    ulps too, which sec^2 amplifies by at most tan(phi) <= d_a / h_b: the
    relative guard covers that and the rounding of the bound itself.
    """
    theta_1 = row_beamwidth(d_a, h_b, 1)
    phi = np.minimum(theta_1, np.arctan2(d, h_b) + theta_1 / m)
    scale = (h_b * theta_1 / (2.0 * np.cos(phi) ** 2)
             * (1.0 + _REL_GUARD + _EDGE_GUARD * d_a / h_b))
    return scale, _EDGE_GUARD * (scale + d_a)


def _last_row(geometry: tuple, users, m, lo):
    """Per entry, a row (at most n_max) past which every row r >= m has a
    margin below lo, and so surely misses the cap."""
    d_hat, d_a, h_b, n_max = geometry
    scale, slack = _margin_bound(d_hat[users], d_a[users], h_b, m)
    with np.errstate(divide="ignore", over="ignore"):
        last = np.floor(scale / np.maximum(lo - slack, 0.0))
    return np.minimum(last, n_max).astype(int)


def _scan(geometry: tuple, users, lo, hi, start, stop, step: int) -> tuple:
    """(sure, ask, row) of entries that each scan the rows start, start +
    step, ... short of stop until a surely feasible one (margin >= hi, a
    row's margin being d's distance to the nearer edge of the beam holding
    it): sure is that row per entry (stop if there is none), and (ask, row)
    the pairs scanned before it that the bracket cannot decide (lo <=
    margin < hi). Each round takes up to 1, 4, 16, ... rows an entry, as
    most scans end on their first row, in at most ``_BLOCK_ENTRIES``
    pairs."""
    d_hat, d_a, h_b, _ = geometry
    sure, start = stop.copy(), start.copy()
    at = ((stop - start) * step > 0).nonzero()[0]
    asks, rows_asked = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    grow = 1
    while at.size:
        left = (stop[at] - start[at]) * step
        width = min(max(1, _BLOCK_ENTRIES // at.size), int(left.max()), grow)
        grow *= 4
        cols = np.arange(width)
        rows = start[at, None] + step * cols
        inside = cols < left[:, None]
        entries = np.repeat(users[at], np.minimum(left, width))
        x = d_hat[entries]
        _, lower, upper = containing_beam(x, d_a[entries], h_b, rows[inside])
        margin = np.full(rows.shape, np.nan)
        margin[inside] = np.minimum(x - lower, upper - x)
        hit = margin >= hi[at, None]
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), width)
        entry, col = ((margin >= lo[at, None])
                      & (cols < first[:, None])).nonzero()
        asks.append(at[entry])
        rows_asked.append(rows[entry, col])
        found = first < width
        sure[at[found]] = rows[found, first[found]]
        start[at] += step * width
        at = at[~found & (left > width)]
    return sure, np.concatenate(asks), np.concatenate(rows_asked)


def _select_row(geometry: tuple, users, sigma_d2, delta_bs: float, k, c):
    """min(max(k_sel, k), c) per entry, k_sel being the largest row up to
    n_max whose beam holding the user meets the selection-error cap (1 if
    none does). The users index ``geometry`` = (d_hat, d_a, h_b, n_max),
    whose first two are 1-D arrays; users, sigma_d2, k and c are aligned
    1-D arrays.

    Only the rows that can move the result are decided, in one pass:
    - the rows from c up to ``_last_row``, past which every row surely
      misses; the first round is row c alone, and a sure row there
      settles most steps. A feasible one among them makes the step take c.
    - For the users with no sure row there, the rows below c down to k +
      1, from the top (or their ``_last_row``): the first sure one, or a
      feasible one above it, is the result, and k if there is none.
    erfc runs once, on the rows of both scans that ``_tail_bracket``
    cannot tell, save the upward ones of users settled at c.
    """
    out = np.minimum(k, c)
    at = ((k < c) & np.isfinite(sigma_d2)).nonzero()[0]
    if not at.size:
        return out
    users, k, c = users[at], k[at], c[at]
    sigma = np.sqrt(sigma_d2[at])
    lo, hi = _tail_bracket(sigma, delta_bs, 1)
    top = np.maximum(_last_row(geometry, users, c, lo), c)
    up, ask, row = _scan(geometry, users, lo, hi, c, top + 1, 1)
    rest = (up > top).nonzero()[0]
    if rest.size:
        start = np.minimum(c[rest] - 1, _last_row(
            geometry, users[rest], k[rest] + 1, lo[rest]))
        best, down, row_down = _scan(geometry, users[rest], lo[rest],
                                     hi[rest], start, k[rest], -1)
        keep = up[ask] > top[ask]
        ask = np.append(ask[keep], rest[down])
        row = np.append(row[keep], row_down)
        # a feasible row above c makes the step take c
        gain = np.minimum(row, c[ask])
        c[rest] = best
        if ask.size:
            d_hat, d_a, h_b, _ = geometry
            x = d_hat[users[ask]]
            _, left, right = containing_beam(x, d_a[users[ask]], h_b, row)
            ok = beam_selection_profile(x, sigma[ask], left, right) <= delta_bs
            np.maximum.at(c, ask[ok], gain[ok])
    out[at] = c
    return out


def _ue_level(sigma_psi2, delta_ma: float, level, last):
    """min(max(l_sel, level), last) per entry, l_sel being the deepest
    ``UE_GRID`` level whose misalignment meets the cap (0 if none does);
    sigma_psi2, level and last are aligned 1-D arrays.

    Each level halves the width, so nu / s halves exactly from one level
    to the next and the computed 2 Q(nu / s) cannot fall (a test checks
    erfc(2 t) <= erfc(t) for t > 0): the levels meeting the cap form a
    prefix of the grid, and the levels below ``level`` are decided one at
    a time up to the first miss. erfc runs only where ``_tail_bracket``
    cannot tell. An infinite variance keeps the level, at any cap.
    """
    level = np.minimum(level, last)
    at = ((level < last) & (sigma_psi2 != math.inf)).nonzero()[0]
    lo, hi = _tail_bracket(np.sqrt(sigma_psi2[at]), delta_ma, 2)
    while at.size:
        nu = nu_threshold(_UE_WIDTHS[level[at] + 1])
        miss = nu < hi
        ask = (miss & (nu >= lo)).nonzero()[0]
        if ask.size:
            miss[ask] = p_misalignment(sigma_psi2[at[ask]],
                                       nu[ask]) > delta_ma
        keep = ~miss
        at, lo, hi = at[keep], lo[keep], hi[keep]
        level[at] += 1
        keep = level[at] < last[at]
        at, lo, hi = at[keep], lo[keep], hi[keep]
    return level


def select_ue_beam(sigma_psi2: float, delta_ma: float) -> float:
    """Thinnest ``UE_GRID`` beamwidth keeping misalignment under the cap,
    the widest if none does."""
    if not (0.0 < delta_ma <= 1.0 and sigma_psi2 >= 0.0):   # NaN fails
        raise ValueError("need a cap in (0, 1] and a non-negative variance")
    level = _ue_level(np.array([sigma_psi2], dtype=float), delta_ma,
                      np.zeros(1, dtype=int), np.full(1, len(UE_GRID) - 1))
    return UE_GRID[level[0]]


# ---------------------------------------------------------------------------
# Refinement loop
# ---------------------------------------------------------------------------

def _step_variances(d, theta_1, obs_time, cfg: NetworkConfig):
    """(energy, variances): energy(users, k), a step's pilot energy for the
    given users of d and theta_1 (1-D arrays) under their dictionary rows,
    and variances(energy, level, k), the step's (ranging, angle) variances
    at their UE grid levels, bit-equal to ``ranging_variance``/
    ``aoa_variance``'s: only + - * / run on each entry."""
    zeta = observation_energy(d, 0.0, cfg, obs_time)
    curvature = _ranging_curvature(cfg.bandwidth)
    gains = main_lobe_gain(_UE_WIDTHS, cfg)
    factors = np.array([_aoa_factor(beamwidth_to_elements(t))
                        for t in UE_GRID])

    def energy(users, k):
        return zeta[users] * main_lobe_gain(theta_1[users] / k, cfg)

    def variances(pilot, level, k) -> tuple:
        info_d = pilot * gains[level]
        info_d *= curvature
        info_psi = pilot * factors[level]
        # both in (0, inf); NaN fails the comparisons
        least, most = np.minimum(info_d, info_psi), np.maximum(info_d,
                                                               info_psi)
        if not (least.min() > 0.0 and most.max() < math.inf):
            bad = ~((least > 0.0) & (most < math.inf))
            raise NumericError("step information out of range at row "
                               f"{k[bad][0]}")
        return (1.0 / np.maximum(info_d, 1e-300),
                1.0 / np.maximum(info_psi, 1e-300))
    return energy, variances


def _run_chunk(d, cell_size, policy: AccessPolicy,
               cfg: NetworkConfig) -> list:
    """The traces of users at d in cells of cell_size (1-D arrays), every
    unfinished user stepped together: all share the step's side. Each
    user's records are appended as it steps; its service beam pair, the
    selection its final accuracy supports (the sweep baselines must reach
    this same resolution), is made for all the chunk's users at the end."""
    last = len(UE_GRID) - 1
    geometry = (d, cell_size, cfg.h_b, policy.n_max)
    energy, variances = _step_variances(
        d, row_beamwidth(cell_size, cfg.h_b, 1),
        policy.symbol_duration * policy.pilot_energy_scale, cfg)

    def met(sigma_d2, sigma_psi2):
        return ((np.sqrt(sigma_d2) <= policy.delta_d)
                & (np.sqrt(sigma_psi2) <= policy.delta_psi))

    users = np.arange(d.size)               # the unfinished ones, in order
    k = np.ones(d.size, dtype=int)
    level = np.zeros(d.size, dtype=int)
    info_d = np.full(d.size, 1.0 / policy.initial_sigma_d2)
    info_psi = np.zeros(d.size)
    sigma_d2, sigma_psi2 = 1.0 / info_d, None
    records = [[] for _ in range(d.size)]
    # per user: the row, level and variances of its last step
    end_k, end_level = np.empty_like(k), np.empty_like(level)
    end_d2, end_psi2 = np.empty(d.size), np.empty(d.size)

    for step in range(1, policy.max_steps + 1):
        if step % 2 == 1:
            k = _select_row(geometry, users, sigma_d2, policy.delta_bs, k,
                            np.minimum(np.ceil(policy.bs_growth * k),
                                       policy.n_max).astype(int))
            pilot = energy(users, k)
        else:
            level = _ue_level(sigma_psi2, policy.delta_ma, level,
                              np.minimum(level + 1, last))

        var_d, var_psi = variances(pilot, level, k)
        info_d += 1.0 / var_d
        info_psi += 1.0 / var_psi

        sigma_d2, sigma_psi2 = 1.0 / info_d, 1.0 / info_psi
        n = users.size
        for user, record in zip(users.tolist(), map(AccessStep._make, zip(
                [step] * n, [("UE", "BS")[step % 2]] * n, k.tolist(),
                _UE_WIDTHS[level].tolist(), sigma_d2.tolist(),
                sigma_psi2.tolist(), [step] * n))):
            records[user].append(record)
        done = met(sigma_d2, sigma_psi2) | (step == policy.max_steps)
        if done.any():
            stop = users[done]
            end_k[stop], end_level[stop] = k[done], level[done]
            end_d2[stop], end_psi2[stop] = sigma_d2[done], sigma_psi2[done]
            keep = ~done
            (users, k, level, pilot, info_d, info_psi, sigma_d2,
             sigma_psi2) = (v[keep] for v in (
                 users, k, level, pilot, info_d, info_psi, sigma_d2,
                 sigma_psi2))
            if not users.size:
                break
    final_k = _select_row(geometry, np.arange(d.size), end_d2,
                          policy.delta_bs, end_k,
                          np.full(d.size, policy.n_max))
    final_level = _ue_level(end_psi2, policy.delta_ma, end_level,
                            np.full(d.size, last))
    return [AccessTrace(steps=tuple(steps), total_symbols=len(steps),
                        total_delay=len(steps) * policy.symbol_duration,
                        terminated="accuracy_met" if ok else "max_iter",
                        final_k=row, final_theta_u=UE_GRID[lvl])
            for steps, ok, row, lvl in zip(
                records, met(end_d2, end_psi2).tolist(), final_k.tolist(),
                final_level.tolist())]


def access_traces(geometries, policy: AccessPolicy, cfg: NetworkConfig):
    """The trace of the alternating refinement loop, on the estimation
    bounds, for each (d, cell_size) in order: a user at ground distance d
    inside a cell of the given one-sided size.

    The users run in chunks of ``_CHUNK_USERS``, each chunk's unfinished
    users stepped together; a chunk's traces are made when it ends, and
    its beam selections compute only the rows they decide.
    """
    d, cell_size = np.asarray(geometries, dtype=float).reshape(-1, 2).T
    if not ((0.0 < cell_size) & (cell_size < math.inf)).all():  # NaN fails
        raise ValueError("cell size must be positive and finite")
    if not ((0.0 <= d) & (d <= cell_size)).all():
        raise ValueError("user must lie inside the cell")
    for start in range(0, d.size, _CHUNK_USERS):
        chunk = slice(start, start + _CHUNK_USERS)
        # numpy warns where Python floats overflow silently; the step
        # information check reports it
        with np.errstate(over="ignore"):
            traces = _run_chunk(d[chunk], cell_size[chunk], policy, cfg)
        yield from traces
        del traces      # so the next chunk runs without this one's records


def run_initial_access(d: float, cell_size: float, policy: AccessPolicy,
                       cfg: NetworkConfig) -> AccessTrace:
    """Run the alternating refinement loop, on the estimation bounds, for a
    user at ground distance d inside a cell of the given one-sided size:
    ``access_traces`` of that one geometry."""
    return next(access_traces([(d, cell_size)], policy, cfg))


# ---------------------------------------------------------------------------
# Baseline search delays
# ---------------------------------------------------------------------------

def delay_exhaustive(theta_b: float, theta_u: float, symbol_duration: float) -> float:
    """Full sweep over all ceil(2pi/theta_b) x ceil(2pi/theta_u) pairs, each
    beamwidth in (0, 2pi]."""
    return (beamwidth_to_elements(theta_b) * beamwidth_to_elements(theta_u)
            * symbol_duration)


def delay_iterative(target_k: int, target_theta_u: float,
                    symbol_duration: float) -> float:
    """Bisection search: two probing symbols per halving stage, first on
    the BS side down to row target_k, then on the UE side from the widest
    ``UE_GRID`` level down to the target beamwidth, in (0, 2pi]."""
    check_count(target_k, "target dictionary size must be >= 1")
    beamwidth_to_elements(target_theta_u)   # the width check
    bs_stages = math.ceil(math.log2(target_k)) if target_k > 1 else 0
    ratio = UE_GRID[0] / target_theta_u
    ue_stages = max(0, math.ceil(math.log2(ratio))) if ratio > 1.0 else 0
    return 2.0 * (bs_stages + ue_stages) * symbol_duration
