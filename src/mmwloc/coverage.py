"""Downlink SINR and effective-rate coverage of the typical user.

Coverage splits over three disjoint events: aligned beams (main-main
gains), misalignment (main-side), and beam-selection error (side-side,
which also implies misalignment). Per event the fading tail is expanded
with the Alzer binomial bound for the normalized Gamma power,
eta = N * (N!)^(-1/N), and the interference enters through the Laplace
functional of the one-dimensional deployment:

    A = 2 * lambda * Integral_region (1 - (1 + w * q^(-alpha) / N)^(-N)) dy,

with q^2 = y^2 + h_b^2, region [serving_d, d_S] for LOS interferers and
[max(serving_d, d_S), y_max] for NLOS ones. The printed closed forms this
mirrors carried inconsistent measure factors, so the exponents are
rebuilt from the Laplace functional directly and validated against the
Monte Carlo simulator.

Fixed-order Gauss-Legendre rules (with a 1/y substitution for the NLOS
tail) replace adaptive quadrature in these hot paths; their accuracy is
pinned against scipy.integrate.quad in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import comb, gamma

from .antenna import main_lobe_gain, sidelobe_gain
from .config import NetworkConfig
from .errors import NumericError
from .geometry import nakagami_shape, path_loss_exponent
from .localization import (
    _cell_grid,
    _cell_panels,
    aoa_variance,
    beam_selection_profile,
    nu_threshold,
    p_misalignment,
    ranging_variance,
)
from .numerics import gauss_legendre, reciprocal_power

LOS_NODES = 24
NLOS_NODES = 32
_EXP_FLOOR = -745.0  # exp underflows below this


@dataclass(frozen=True)
class CoverageQuery:
    """A coverage question: threshold and the serving-beam context.

    ``j is None`` asks for the whole-cell mixture over row k's beams;
    ``cell_size is None`` uses the mean cell 1/(2*lambda) for per-beam
    queries and the cell-size distribution for cell-level ones.
    """

    threshold: float
    k: int
    j: int | None = None
    theta_u: float = math.pi / 4
    beta: float = 0.5
    cell_size: float | None = None

    def __post_init__(self):
        if self.threshold <= 0.0:
            raise ValueError("SINR threshold must be positive")
        if self.k < 1:
            raise ValueError("dictionary size must be >= 1")
        if self.j is not None and not 1 <= self.j <= self.k:
            raise ValueError("beam index must satisfy 1 <= j <= k")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.cell_size is not None and self.cell_size <= 0.0:
            raise ValueError("cell size must be positive")


@dataclass(frozen=True)
class CoverageResult:
    probability: float
    method: str                 # 'analytical' | 'montecarlo'
    breakdown: dict             # contributions of the aligned/MA/BS branches
    stderr: float = 0.0


def alzer_eta(n):
    """eta = N * (N!)^(-1/N); equals 1 for the exponential case. N may be
    an array."""
    return n * gamma(n + 1) ** (-1.0 / n)


# ---------------------------------------------------------------------------
# Interference exponents
# ---------------------------------------------------------------------------

def _nlos_y_max(cfg: NetworkConfig) -> float:
    return cfg.d_s + 20.0 / cfg.bs_density


class _InterferenceTables:
    """Per-position quadrature tables for the interference exponents.

    The node layout and path-loss profiles depend only on the positions,
    so they are built once and reused across the branch gains and the
    expansion terms (which only rescale the threshold weight w).
    """

    def __init__(self, x: np.ndarray, cfg: NetworkConfig):
        self.cfg = cfg
        x = np.asarray(x, dtype=float)
        self.los_mask = x < cfg.d_s
        h2 = cfg.h_b * cfg.h_b
        if np.any(self.los_mask):
            y, wt = gauss_legendre(x[self.los_mask], cfg.d_s, LOS_NODES)
            self.los_qpow = (y * y + h2) ** (-0.5 * cfg.alpha_los)
            self.los_wt = wt
        t, wt = gauss_legendre(1.0 / _nlos_y_max(cfg),
                               1.0 / np.maximum(x, cfg.d_s), NLOS_NODES)
        y = 1.0 / t
        self.nlos_qpow = (y * y + h2) ** (-0.5 * cfg.alpha_nlos)
        self.nlos_wt = wt / (t * t)

    def _los_sum(self, w: np.ndarray) -> np.ndarray:
        """LOS integral before the 2*lambda factor; 0 where x >= d_S."""
        out = np.zeros_like(w)
        if np.any(self.los_mask):
            shape = int(self.cfg.n_los)
            base = 1.0 + w[self.los_mask, None] * self.los_qpow / shape
            out[self.los_mask] = np.sum(
                (1.0 - reciprocal_power(base, shape)) * self.los_wt, axis=-1)
        return out

    def _nlos_sum(self, w: np.ndarray) -> np.ndarray:
        """NLOS integral before the 2*lambda factor."""
        shape = int(self.cfg.n_nlos)
        base = 1.0 + w[..., None] * self.nlos_qpow / shape
        return np.sum((1.0 - reciprocal_power(base, shape)) * self.nlos_wt,
                      axis=-1)

    def exponents(self, w: np.ndarray) -> np.ndarray:
        """A_LOS + A_NLOS for per-position threshold weights w."""
        return 2.0 * self.cfg.bs_density * (self._los_sum(w) + self._nlos_sum(w))


def laplace_interference(serving_d: float, t_scaled: float, gain_product: float,
                         alpha_branch: float, cfg: NetworkConfig) -> float:
    """Attenuation exponent A for one interferer class.

    ``t_scaled`` is the scaled threshold multiplying the interferer power
    profile, ``gain_product`` the interferer-side antenna product (side-to-
    side in this system), and ``alpha_branch`` selects the LOS or NLOS
    integral by matching the configured exponents.
    """
    if serving_d < 0.0:
        raise ValueError("serving distance must be non-negative")
    tables = _InterferenceTables(np.asarray([serving_d], dtype=float), cfg)
    w = np.asarray([t_scaled * gain_product], dtype=float)
    if alpha_branch == cfg.alpha_los:
        integral = tables._los_sum(w)
    elif alpha_branch == cfg.alpha_nlos:
        integral = tables._nlos_sum(w)
    else:
        raise ValueError("alpha_branch must equal the LOS or NLOS exponent")
    value = float(2.0 * cfg.bs_density * integral[0])
    if not np.isfinite(value):
        raise NumericError("interference exponent did not converge")
    return value


# ---------------------------------------------------------------------------
# Per-branch conditional coverage
# ---------------------------------------------------------------------------

def _branch_values(x: np.ndarray, threshold: float, branch_gain: float,
                   cfg: NetworkConfig,
                   tables: "_InterferenceTables | None" = None) -> np.ndarray:
    """P(SINR >= T) at positions x for a serving-link gain product.

    Vectorized over mixed serving classes: the fading shape, its expansion
    constant, and the path-loss exponent switch at the LOS-ball edge.
    """
    x = np.asarray(x, dtype=float)
    if tables is None:
        tables = _InterferenceTables(x, cfg)
    shape_x = nakagami_shape(x, cfg)
    eta_x = alzer_eta(shape_x)
    z_pow = (x * x + cfg.h_b * cfg.h_b) ** (0.5 * path_loss_exponent(x, cfg))
    g2 = sidelobe_gain(cfg) ** 2
    noise_over_ref = cfg.noise_power / (cfg.p_t * cfg.k_pl)
    out = np.zeros_like(x)
    for n in range(1, max(cfg.n_los, cfg.n_nlos) + 1):
        active = n <= shape_x
        if not np.any(active):
            break
        coef = np.where(active, (-1.0) ** (n + 1) * comb(shape_x, n), 0.0)
        scale = n * eta_x * threshold * z_pow / branch_gain
        exponent = np.maximum(
            -(scale * noise_over_ref + tables.exponents(scale * g2)),
            _EXP_FLOOR)
        out = out + coef * np.exp(exponent)
    if not np.all(np.isfinite(out)):
        raise NumericError("branch coverage produced non-finite values")
    return out


def _mixture_values(x: np.ndarray, threshold: float, theta_k: float,
                    theta_u: float, beta: float, k: int, d_left, d_right,
                    cfg: NetworkConfig, exhaustive: bool) -> tuple:
    """Pointwise coverage mixing the three branches by the error profile.

    d_left/d_right broadcast against x (the serving beam interval per
    position). Returns (values, branch contributions)."""
    gamma_b = main_lobe_gain(theta_k, cfg)
    gamma_u = main_lobe_gain(theta_u, cfg)
    g = sidelobe_gain(cfg)
    tables = _InterferenceTables(np.asarray(x, dtype=float), cfg)
    t0 = _branch_values(x, threshold, gamma_b * gamma_u, cfg, tables)
    if exhaustive:
        return t0, {"aligned": t0, "misaligned": np.zeros_like(t0),
                    "beam_error": np.zeros_like(t0),
                    "w_aligned": np.ones_like(t0),
                    "w_misaligned": np.zeros_like(t0),
                    "w_beam_error": np.zeros_like(t0)}
    tma = _branch_values(x, threshold, gamma_b * g, cfg, tables)
    tbs = _branch_values(x, threshold, g * g, cfg, tables)
    if k == 1:
        p_bs = np.zeros_like(x)
    else:
        sigma_d = np.sqrt(ranging_variance(x, gamma_b, gamma_u, beta, cfg))
        p_bs = beam_selection_profile(x, sigma_d, d_left, d_right)
    p_ma = p_misalignment(aoa_variance(x, gamma_b, theta_u, beta, cfg),
                          nu_threshold(theta_u))
    w0 = (1.0 - p_bs) * (1.0 - p_ma)
    wma = (1.0 - p_bs) * p_ma
    values = w0 * t0 + wma * tma + p_bs * tbs
    return values, {"aligned": t0, "misaligned": tma, "beam_error": tbs,
                    "w_aligned": w0, "w_misaligned": wma, "w_beam_error": p_bs}


# ---------------------------------------------------------------------------
# Public coverage operations
# ---------------------------------------------------------------------------

def _single_beam_coverage(query: CoverageQuery, cfg: NetworkConfig,
                          exhaustive: bool) -> CoverageResult:
    d_a = query.cell_size if query.cell_size is not None else cfg.mean_cell_size
    theta_k, bounds, x, pos_w = _cell_panels(np.asarray([d_a]), query.k, cfg)
    d_left, d_right = float(bounds[0, query.j - 1]), float(bounds[0, query.j])
    # conditional on the user being in this beam
    w = pos_w[0, query.j - 1] * (d_a / (d_right - d_left))
    values, parts = _mixture_values(x[0, query.j - 1], query.threshold,
                                    float(theta_k[0]), query.theta_u,
                                    query.beta, query.k, d_left, d_right, cfg,
                                    exhaustive)
    prob = float(np.dot(values, w))
    breakdown = {
        name: float(np.dot(parts[f"w_{name}"] * parts[name], w))
        for name in ("aligned", "misaligned", "beam_error")
    }
    prob = min(max(prob, 0.0), 1.0)
    return CoverageResult(probability=prob, method="analytical",
                          breakdown=breakdown)


def coverage_probability(query: CoverageQuery, cfg: NetworkConfig) -> CoverageResult:
    """Coverage of a user served by beam j of row k (conditional on the
    user lying in that beam's ground interval)."""
    if query.j is None:
        raise ValueError("coverage_probability requires a beam index j")
    return _single_beam_coverage(query, cfg, exhaustive=False)


def coverage_probability_exhaustive(query: CoverageQuery, cfg: NetworkConfig) -> CoverageResult:
    """Error-free variant: an exhaustive beam sweep suffers neither
    beam-selection nor misalignment errors."""
    if query.j is None:
        raise ValueError("coverage_probability_exhaustive requires a beam index j")
    return _single_beam_coverage(query, cfg, exhaustive=True)


def overall_coverage(threshold: float, k: int, theta_u: float, beta: float,
                     cfg: NetworkConfig, cell_size: float | None = None) -> float:
    """Cell-level coverage across all k beams; expectation over the cell
    size distribution unless a fixed cell size is supplied."""
    if threshold <= 0.0:
        raise ValueError("SINR threshold must be positive")
    if cell_size is None:
        _, da_weights, theta_k, bounds, x, pos_w = _cell_grid(k, cfg)
    else:
        da_weights = (1.0,)
        theta_k, bounds, x, pos_w = _cell_panels(np.asarray([cell_size]), k, cfg)
    total = 0.0
    for i, da_weight in enumerate(da_weights):
        d_left = np.broadcast_to(bounds[i, :-1, None], x[i].shape)
        d_right = np.broadcast_to(bounds[i, 1:, None], x[i].shape)
        values, _ = _mixture_values(x[i].ravel(), threshold, float(theta_k[i]),
                                    theta_u, beta, k, d_left.ravel(),
                                    d_right.ravel(), cfg, exhaustive=False)
        total += da_weight * float(np.dot(values, pos_w[i].ravel()))
    if not np.isfinite(total):
        raise NumericError("overall coverage quadrature failed")
    return min(max(total, 0.0), 1.0)


def rate_to_sinr_threshold(r0: float, beta: float, cfg: NetworkConfig) -> float:
    """SINR threshold equivalent to an effective-rate target r0."""
    if r0 <= 0.0:
        raise ValueError("rate threshold must be positive")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    exponent = r0 * (cfg.t_init + cfg.t_frame) / (beta * cfg.t_frame * cfg.bandwidth)
    if exponent > 900.0:
        return math.inf
    return 2.0 ** exponent - 1.0


def rate_coverage(r0: float, beta: float, k: int, theta_u: float,
                  cfg: NetworkConfig) -> float:
    """P(effective rate >= r0): coverage at the equivalent SINR threshold.

    The effective rate discounts the frame overhead by beta*T_F/(T_I+T_F).
    A saturated threshold (tiny beta * bandwidth) yields probability 0.
    """
    threshold = rate_to_sinr_threshold(r0, beta, cfg)
    if math.isinf(threshold):
        return 0.0
    return overall_coverage(threshold, k, theta_u, beta, cfg)
