"""Localization-phase accuracy bounds and the induced error probabilities.

Ranging and angle accuracy are modeled by estimation lower bounds under
the effective observation-energy factor

    zeta = 2 * SNR_L * B_pilot * (1 - beta) * T_F / (G_B * G_U)
         = 2 * k_pl * p_t * z^(-alpha) * (1 - beta) * T_F / N0,

which is gain- and bandwidth-free. The ranging variance carries the
pilot-band curvature factor B_pilot^2 * pi^2 / (3 c^2) and observes the
whole localization phase (1 - beta) * T_F. The angle variance carries the
aperture information pi^2 (m^2 - 1) / 12 of an m-element half-wavelength
ULA at boresight, m the sounding subarray (at most ``ue_sounding_elements``,
the calibrated panel the UE estimates with): the UE steers its lobe at the
estimate, so the bound is taken in the beam's own frame, independent of
the arrival angle. Angle sounding occupies its own short correlation window
(``aoa_sounding_time``, clipped to the localization phase).

Beam-selection error: the ranging estimate, Gaussian around the true
position, leaves the serving beam's ground interval. Misalignment: the
angle estimate misses by more than the alignment threshold nu. Both are
averaged over the cell-size distribution and the uniform user position
with fixed Gauss-Legendre grids (64 cell nodes on the 0.9999-quantile
truncated exponential, 32 nodes per beam interval).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .antenna import beamwidth_to_elements, main_lobe_gain
from .config import NetworkConfig
from .dictionary import beam_boundaries, row_beamwidth
from .geometry import attenuation
from .numerics import (
    SPEED_OF_LIGHT,
    check_count,
    checked_probability,
    exponential_cell_nodes,
    qfunc,
    split_panel,
)

CELL_NODES = 64
BEAM_NODES = 32
# Both budgets of the error averages' cell walk (positions per chunk and
# (beta, position) entries per slice): each float64 temporary is 64 KiB,
# below glibc's initial 128 KiB mmap threshold, so it is served from the
# heap rather than mapped and faulted in afresh (eight cells of row k = 32
# for one beta). They build no per-position tables, so the budgets are
# equal; the averages have the same bits at any budget.
_AVG_CHUNK_ENTRIES = 2 ** 13
# Estimation spreads are floored here, so a zero spread is evaluated as its
# limit (no 0/0 on an interval edge) while no real bound is affected.
SIGMA_FLOOR = 1e-150


def nu_threshold(theta_u):
    """Beam-pair alignment threshold: the pair stays aligned while the
    pointing error sits inside the UE main lobe, nu = theta_u / 2."""
    return 0.5 * theta_u


# ---------------------------------------------------------------------------
# Observation energy and variance profiles (vectorized over positions)
# ---------------------------------------------------------------------------

def observation_energy(x, beta, cfg: NetworkConfig, observation_time=None):
    """zeta over ground positions x; observation_time defaults to (1-beta)*T_F.

    beta (or observation_time) may be a NumPy array broadcasting against
    x, e.g. a (B, 1) column of partition factors against P positions.
    """
    if observation_time is None:
        observation_time = (1.0 - beta) * cfg.t_frame
    # written so that NaN fails it
    if not np.all(observation_time >= 0.0):
        raise ValueError("observation time must be non-negative")
    out = (2.0 * cfg.k_pl * cfg.p_t * attenuation(x, cfg) * observation_time
           / cfg.noise_psd)
    return out if out.ndim else float(out)


def _ranging_curvature(band: float) -> float:
    """B^2 pi^2 / (3 c^2), the ranging curvature factor of a pilot band B."""
    return band * band * math.pi * math.pi / (3.0 * SPEED_OF_LIGHT ** 2)


def _aoa_factor(m: int) -> float:
    """pi^2 (m^2 - 1) / 12, see the module docstring; other operation orders
    round differently at some m: (m^2 - 1) * pi * pi / 12 at m = 64."""
    return math.pi * math.pi * (m * m - 1) / 12.0


def ranging_variance(x, gamma_b, gamma_u: float, beta, cfg: NetworkConfig):
    """sigma_d^2 over positions, observed over the localization phase
    (1 - beta) * T_F in the pilot band; inf when beta == 1.

    gamma_b and beta broadcast against x as in ``observation_energy``.
    """
    zeta = observation_energy(x, beta, cfg)
    info = zeta * gamma_b * gamma_u * _ranging_curvature(cfg.pilot_bandwidth)
    out = np.where(info > 0.0, 1.0 / np.maximum(info, 1e-300), np.inf)
    return out if out.ndim else float(out)


def _sounding_time(beta, cfg: NetworkConfig):
    """The angle-sounding window: ``aoa_sounding_time`` clipped to the
    localization phase (1 - beta) * T_F; beta may be an array."""
    return np.minimum(cfg.aoa_sounding_time, (1.0 - beta) * cfg.t_frame)


def aoa_variance(x, gamma_b, theta_u: float, beta, cfg: NetworkConfig):
    """sigma_psi^2 over positions; inf for a single-element aperture.

    The aperture is the beam's element count, capped at the sounding
    subarray ``ue_sounding_elements``. The observation window is the
    angle-sounding time clipped to the localization phase (so beta -> 1
    starves it to zero). gamma_b and beta broadcast against x as in
    ``observation_energy``.
    """
    # a one-element aperture has a zero factor: info == 0, hence inf
    factor = _aoa_factor(min(beamwidth_to_elements(theta_u),
                             cfg.ue_sounding_elements))
    zeta = observation_energy(x, beta, cfg, _sounding_time(beta, cfg))
    info = zeta * gamma_b * factor
    out = np.where(info > 0.0, 1.0 / np.maximum(info, 1e-300), np.inf)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Error probabilities
# ---------------------------------------------------------------------------

def beam_selection_profile(x, sigma_d, d_left, d_right):
    """P(estimate outside [d_left, d_right]) for Gaussian estimates centered
    at positions x with std sigma_d; all four broadcast.

    sigma_d == 0 is the limit of a vanishing spread (0 inside the interval,
    1/2 on an edge, 1 outside); sigma_d == inf gives 1.
    """
    sigma = np.maximum(sigma_d, SIGMA_FLOOR)
    # one qfunc call per edge: stacking both edges into one input would
    # double the largest temporary of a coverage slice, past glibc's
    # 128 KiB mmap threshold (see coverage._EVAL_ENTRIES)
    return 1.0 - qfunc((d_left - x) / sigma) + qfunc((d_right - x) / sigma)


def p_misalignment(sigma_psi2, nu):
    """2 Q(nu / sigma_psi); arrays broadcast. It is 1 when nu == 0, 0 in the
    perfect-estimate limit sigma_psi2 == 0 and 1 for an infinite variance."""
    nu = np.asarray(nu, dtype=float)
    sigma_psi2 = np.asarray(sigma_psi2, dtype=float)
    if nu.min() < 0.0:
        raise ValueError("threshold must be non-negative")
    if sigma_psi2.min() < 0.0:
        raise ValueError("variance must be non-negative")
    out = 2.0 * qfunc(nu / np.maximum(np.sqrt(sigma_psi2), SIGMA_FLOOR))
    return out if out.ndim else float(out)


def beam_selection_error(x, gamma_b, gamma_u, beta, d_left, d_right,
                         cfg: NetworkConfig):
    """Beam-selection error at positions x in beams [d_left, d_right] with
    main-lobe gains gamma_b, gamma_u; all broadcast."""
    sigma = np.sqrt(ranging_variance(x, gamma_b, gamma_u, beta, cfg))
    return beam_selection_profile(x, sigma, d_left, d_right)


def misalignment_error(x, gamma_b, theta_u: float, beta, cfg: NetworkConfig):
    """Misalignment error at positions x with BS main-lobe gain gamma_b and
    UE beamwidth theta_u; x, gamma_b and beta broadcast."""
    return p_misalignment(aoa_variance(x, gamma_b, theta_u, beta, cfg),
                          nu_threshold(theta_u))


# ---------------------------------------------------------------------------
# Cell averages: the error averages and the walker coverage shares
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cell_grid(k: int, bs_density: float, h_b: float, d_s: float):
    """Cell grid of row k, keyed by the geometry it reads (configs that
    differ elsewhere share it): (d_a, da_weights, theta_k, bounds), shapes
    (nc,) x 3 and (nc, k+1), nc = CELL_NODES, the cell-size nodes and
    weights and each cell's row beamwidth and beam edges. Positions are
    not cached: ``_cell_positions`` builds them per chunk."""
    d_a, da_weights = exponential_cell_nodes(
        2.0 * bs_density, CELL_NODES, split=d_s)
    bounds = beam_boundaries(d_a, h_b, k)   # checks k before the division
    grid = (d_a, da_weights, row_beamwidth(d_a, h_b, k), bounds)
    for arr in grid:
        arr.setflags(write=False)
    return grid


def _cell_positions(d_a, bounds, d_s: float):
    """Positions and weights (uniform 1/d_a density), shapes (c, k, nb), of
    cells d_a with beam edges bounds, panels split at the LOS-ball edge d_s
    (the variance profiles jump there); same bits in any chunk."""
    x, pos_w = split_panel(bounds[:, :-1], bounds[:, 1:], d_s, BEAM_NODES)
    pos_w /= d_a[:, None, None]
    return x, pos_w


def cell_average(k: int, n_items: int, cfg: NetworkConfig, evaluator,
                 positions: int, entries: int, what: str) -> np.ndarray:
    """Probabilities of n_items batch items averaged over row k's grid.

    The grid is walked in chunks of whole cells, each in slices of items.
    Two budgets bound the walk, because the evaluator's arrays scale two
    ways: tables built per chunk grow with its positions, temporaries
    with the (item, position) entries of a slice. A chunk holds at most
    ``positions`` positions and a slice at most ``entries`` entries; a
    chunk is never less than one cell, nor a slice less than one item.
    ``evaluator(theta_k, bounds, x)`` gets each chunk's c cells of the grid
    and positions (built per chunk) and returns a function giving an item
    slice's values there, shape (items, c, k, nb). Each item is summed per
    cell, then over cells: it gets the same bits in any batch.
    """
    d_a, da_weights, theta_k, bounds = _cell_grid(
        k, cfg.bs_density, cfg.h_b, cfg.d_s)
    n_cells, per_cell = d_a.size, k * BEAM_NODES
    cells_step = min(n_cells, max(1, positions // per_cell))
    items_step = max(1, entries // (cells_step * per_cell))
    cell_sums = np.empty((n_items, n_cells))
    for c in range(0, n_cells, cells_step):
        cells = slice(c, c + cells_step)
        x, pos_w = _cell_positions(d_a[cells], bounds[cells], cfg.d_s)
        values = evaluator(theta_k[cells], bounds[cells], x)
        for i in range(0, n_items, items_step):
            items = slice(i, i + items_step)
            cell_sums[items, cells] = np.sum(values(items) * pos_w,
                                             axis=(-2, -1))
    return checked_probability(np.sum(cell_sums * da_weights, axis=-1), what)


def _error_average(k: int, beta, cfg: NetworkConfig, profile, what: str):
    """An error profile averaged over row k's cell grid, per beta.

    ``profile(gamma_b, bounds, x, betas)`` gives the error on a cell chunk
    with its (c, 1, 1) BS main-lobe gains for a (B, 1, 1, 1) beta column.
    ``beta`` may be a 1-D array, giving an array; a scalar gives a float.
    beta == 1 leaves no localization resources and gives 1.
    """
    betas = np.atleast_1d(np.asarray(beta, dtype=float))
    out = np.ones(betas.shape)
    todo = np.flatnonzero(betas != 1.0)
    column = betas[todo, None, None, None]

    def evaluator(theta_k, bounds, x):
        gamma_b = main_lobe_gain(theta_k, cfg)[:, None, None]
        return lambda items: profile(gamma_b, bounds, x, column[items])

    out[todo] = cell_average(k, todo.size, cfg, evaluator,
                             _AVG_CHUNK_ENTRIES, _AVG_CHUNK_ENTRIES, what)
    return out if np.ndim(beta) else float(out[0])


def avg_beam_selection_error(k: int, beta, theta_u: float,
                             cfg: NetworkConfig):
    """Beam-selection error averaged over cell sizes and user positions;
    ``beta`` may be a 1-D array (see ``_error_average``).

    For k == 1 the single beam spans the whole cell and estimates are
    clamped to the cell support, so the error is exactly zero.
    """
    check_count(k, "dictionary size must be >= 1")
    if k == 1:
        return np.zeros(np.shape(beta)) if np.ndim(beta) else 0.0
    gamma_u = main_lobe_gain(theta_u, cfg)

    def profile(gamma_b, bounds, x, betas):
        return beam_selection_error(x, gamma_b, gamma_u, betas,
                                    bounds[:, :-1, None], bounds[:, 1:, None],
                                    cfg)

    return _error_average(k, beta, cfg, profile, "averaged beam-selection error")


def avg_misalignment_error(k: int, theta_u: float, beta, cfg: NetworkConfig):
    """Misalignment error averaged over cell sizes, positions, and arrival
    angles (the angle average is trivial: the bound is angle-independent);
    ``beta`` may be a 1-D array (see ``_error_average``).

    The error depends on beta only through the sounding window, so one
    beta per distinct window is averaged and the result scattered back;
    49 of the 50 default betas share one window.
    """
    check_count(k, "dictionary size must be >= 1")

    def profile(gamma_b, bounds, x, betas):
        return misalignment_error(x, gamma_b, theta_u, betas, cfg)

    betas = np.atleast_1d(np.asarray(beta, dtype=float))
    _, first, inverse = np.unique(_sounding_time(betas, cfg),
                                  return_index=True, return_inverse=True)
    out = _error_average(k, betas[first], cfg, profile,
                         "averaged misalignment error")[inverse]
    return out if np.ndim(beta) else float(out[0])
