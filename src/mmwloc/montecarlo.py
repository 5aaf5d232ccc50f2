"""Ground-truth simulator for every analytical expression in the package.

Trials run in fixed-size batches, each batch on its own counter-derived
substream (SeedSequence spawn key = batch index), so results are
bit-identical for a given (seed, config) regardless of how batches are
scheduled. Inside a batch the interferers are drawn in one fixed stream
order and processed in trial-aligned chunks, so the bits depend on
neither the chunk size nor the scheduling. Aggregation uses exact
integer success counts.

The coverage simulator realizes the same conditional model the analysis
integrates: a user at a uniform position inside the (drawn or given)
cell, estimate draws from the localization bounds, branch gains chosen by
the realized beam-selection/misalignment events, and interferers from a
one-dimensional deployment beyond the serving ground distance with
side-to-side lobe gains and per-link Nakagami power fading.
"""

from __future__ import annotations

import math

import numpy as np

from .antenna import main_lobe_gain, sidelobe_gain
from .config import NetworkConfig
from .coverage import CoverageQuery, CoverageResult
from .dictionary import beam_boundaries, containing_beam, row_beamwidth
from .geometry import is_los, nakagami_shape, path_loss_exponent
from .localization import aoa_variance, nu_threshold, ranging_variance

BATCH_SIZE = 8192
# Interferers per arithmetic chunk of _interference_sums: 2^15 float64
# temporaries of 256 KiB stay in cache. The results do not depend on it.
_CHUNK = 1 << 15


def _batch_streams(seed: int, trials: int):
    """Yield (rng, batch_size) pairs with deterministic substreams."""
    n_batches = (trials + BATCH_SIZE - 1) // BATCH_SIZE
    for b in range(n_batches):
        size = min(BATCH_SIZE, trials - b * BATCH_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        yield rng, size


def window_half_width(cfg: NetworkConfig) -> float:
    """Deployment window: wide enough that truncated interference is < 0.1%."""
    return max(10.0 / cfg.bs_density, cfg.d_s + 500.0)


def _interference_sums(rng, d: np.ndarray, cfg: NetworkConfig) -> np.ndarray:
    """Per-trial interference power sums from interferers beyond d.

    The counts, then all positions, then all fading gains are drawn in
    trial order; the arithmetic runs on trial-aligned chunks of about
    _CHUNK interferers (a trial with more gets a chunk to itself), and
    each trial is summed inside one chunk in interferer order.
    """
    w = window_half_width(cfg)
    span = np.maximum(w - d, 0.0)
    counts = rng.poisson(2.0 * cfg.bs_density * span)
    ends = np.cumsum(counts)
    n = d.shape[0]
    out = np.zeros(n)
    total = int(ends[-1]) if n else 0
    if total == 0:
        return out
    u = rng.random(total)
    scale = cfg.p_t * cfg.k_pl * sidelobe_gain(cfg) ** 2
    h2 = cfg.h_b * cfg.h_b
    t0 = i0 = 0
    while t0 < n:
        t1 = max(int(np.searchsorted(ends, i0 + _CHUNK, side="right")),
                 t0 + 1)
        i1 = int(ends[t1 - 1])
        owner = np.repeat(np.arange(t1 - t0), counts[t0:t1])
        y = d[t0:t1].take(owner) + u[i0:i1] * span[t0:t1].take(owner)
        los = is_los(y, cfg)
        if cfg.n_los == cfg.n_nlos:
            # a scalar shape draws the same gammas at a lower cost
            fade = rng.standard_gamma(cfg.n_los, size=i1 - i0) / cfg.n_los
        else:
            shapes = np.where(los, cfg.n_los, cfg.n_nlos)
            fade = rng.standard_gamma(shapes) / shapes
        exponent = np.where(los, -0.5 * cfg.alpha_los, -0.5 * cfg.alpha_nlos)
        powers = scale * fade * (y * y + h2) ** exponent
        out[t0:t1] = np.bincount(owner, weights=powers, minlength=t1 - t0)
        t0, i0 = t1, i1
    return out


def simulate_laplace(serving_d: float, weight: float, cfg: NetworkConfig,
                     trials: int, seed: int) -> tuple:
    """Estimate E[exp(-weight * sum_i f_i q_i^(-alpha_i))] beyond serving_d.

    The weight plays the role of the scaled threshold times the interferer
    gain product; used to validate the analytical Laplace exponents.
    """
    values = []
    for rng, size in _batch_streams(seed, trials):
        d = np.full(size, float(serving_d))
        sums = _interference_sums(rng, d, cfg)
        g2 = sidelobe_gain(cfg) ** 2
        values.append(np.exp(-weight * sums / (cfg.p_t * cfg.k_pl * g2)))
    values = np.concatenate(values)
    mean = math.fsum(values) / trials
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials))
    return mean, stderr


def _draw_users(rng, size: int, k: int, theta_u: float, beta: float,
                cfg: NetworkConfig, j: int | None = None,
                cell_size: float | None = None) -> tuple:
    """(d, gamma_b, bs_error, ma_error) of one batch: users uniform in a
    cell from the cell-size distribution, or in beam j of row k of a fixed
    cell (``cell_size``, else the mean cell), their serving BS gains and
    their error events under Gaussian estimates drawn from the bounds.
    """
    if cell_size is None and j is None:
        d_a = rng.exponential(cfg.mean_cell_size, size=size)
    else:
        d_a = np.full(size, float(cfg.mean_cell_size if cell_size is None
                                  else cell_size))
    theta_k = row_beamwidth(d_a, cfg.h_b, k)
    if j is not None:
        bounds = beam_boundaries(d_a, cfg.h_b, k)
        d_left, d_right = bounds[:, j - 1], bounds[:, j]
        d = d_left + rng.uniform(0.0, 1.0, size=size) * (d_right - d_left)
    else:
        d = rng.uniform(0.0, 1.0, size=size) * d_a
        _, d_left, d_right = containing_beam(d, d_a, cfg.h_b, k)
    gamma_b = main_lobe_gain(theta_k, cfg)
    gamma_u = main_lobe_gain(theta_u, cfg)
    sigma_d = np.sqrt(ranging_variance(d, gamma_b, gamma_u, beta, cfg))
    sigma_psi = np.sqrt(aoa_variance(d, gamma_b, theta_u, beta, cfg))
    d_hat = d + sigma_d * rng.standard_normal(size)
    # row 1's single clamped beam never misselects; its ranging draw is
    # still made, so the stream layout does not depend on k
    bs_error = (k > 1) & ((d_hat < d_left) | (d_hat > d_right))
    psi_err = np.abs(sigma_psi * rng.standard_normal(size))
    return d, gamma_b, bs_error, psi_err >= nu_threshold(theta_u)


def simulate_coverage(query: CoverageQuery, cfg: NetworkConfig, trials: int,
                      seed: int) -> CoverageResult:
    """Empirical P(SINR >= T) under the full error-aware branch logic."""
    if trials < 1:
        raise ValueError("need at least one trial")
    successes = 0
    branch_hits = {"aligned": 0, "misaligned": 0, "beam_error": 0}
    gamma_u = main_lobe_gain(query.theta_u, cfg)
    g = sidelobe_gain(cfg)
    for rng, size in _batch_streams(seed, trials):
        d, gamma_b, bs_error, ma_error = _draw_users(
            rng, size, query.k, query.theta_u, query.beta, cfg, query.j,
            query.cell_size)
        gain = np.where(bs_error, g * g,
                        np.where(ma_error, gamma_b * g, gamma_b * gamma_u))

        shape_s = nakagami_shape(d, cfg)
        fade = rng.standard_gamma(shape_s) / shape_s
        z2 = d * d + cfg.h_b * cfg.h_b
        signal = (cfg.p_t * cfg.k_pl * gain * fade
                  * z2 ** (-0.5 * path_loss_exponent(d, cfg)))
        interference = _interference_sums(rng, d, cfg)
        sinr = signal / (cfg.noise_power + interference)
        ok = sinr >= query.threshold
        successes += int(ok.sum())
        branch_hits["aligned"] += int((ok & ~bs_error & ~ma_error).sum())
        branch_hits["misaligned"] += int((ok & ~bs_error & ma_error).sum())
        branch_hits["beam_error"] += int((ok & bs_error).sum())
    p = successes / trials
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    breakdown = {k_: v / trials for k_, v in branch_hits.items()}
    return CoverageResult(probability=p, breakdown=breakdown, stderr=stderr)


def simulate_error_probabilities(k: int, beta: float, theta_u: float,
                                 cfg: NetworkConfig, trials: int, seed: int) -> dict:
    """Beam-selection and misalignment frequencies of the users a cell-level
    ``simulate_coverage`` query draws: the averaged errors' oracle."""
    if k < 1 or trials < 1:
        raise ValueError("need k >= 1 and trials >= 1")
    bs_count = 0
    ma_count = 0
    for rng, size in _batch_streams(seed, trials):
        _, _, bs_error, ma_error = _draw_users(rng, size, k, theta_u, beta,
                                               cfg)
        bs_count += int(bs_error.sum())
        ma_count += int(ma_error.sum())
    p_bs = bs_count / trials
    p_ma = ma_count / trials
    return {
        "p_bs": p_bs,
        "p_ma": p_ma,
        "stderr_bs": math.sqrt(max(p_bs * (1.0 - p_bs), 0.0) / trials),
        "stderr_ma": math.sqrt(max(p_ma * (1.0 - p_ma), 0.0) / trials),
    }
