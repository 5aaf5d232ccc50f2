"""Ground-truth simulator for every analytical expression in the package.

Trials run in fixed-size batches, each batch on its own counter-derived
substream (SeedSequence spawn key = batch index), so results are
bit-identical for a given (seed, config) regardless of how batches are
scheduled. Inside a batch the interferers are drawn in one fixed stream
order and processed in trial-aligned chunks, so the bits depend on
neither the chunk size nor the scheduling; their positions are drawn
chunk by chunk too, so a batch holds no interferer array larger than
one chunk, or one trial's interferers where a trial has more, whatever
the density. Aggregation uses exact integer success counts.

The coverage simulator realizes the same conditional model the analysis
integrates: a user at a uniform position inside a cell drawn from the
cell-size distribution, estimate draws from the localization bounds,
branch gains chosen by the realized beam-selection/misalignment events,
and interferers from a one-dimensional deployment beyond the serving
ground distance with side-to-side lobe gains and per-link Nakagami power
fading. One draw, many queries: no draw depends on a coverage query's
threshold, k, theta_u or beta, so ``simulate_coverage`` draws each batch
once and runs every query of one config on it; a query's result has the
same bits alone or among others.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .antenna import main_lobe_gain, sidelobe_gain
from .config import NetworkConfig
from .coverage import CoverageQuery, CoverageResult
from .dictionary import containing_beam, row_beamwidth
from .geometry import attenuation, nakagami_shape
from .localization import aoa_variance, nu_threshold, ranging_variance
from .numerics import check_count

BATCH_SIZE = 8192
# Interferers per chunk of _interference_sums: each float64 temporary, and
# the int64 owner index, is 64 KiB, below glibc's initial 128 KiB mmap
# threshold, so the chunks are served from the heap rather than mapped
# and faulted in afresh. The results do not depend on it.
_CHUNK = 1 << 13


def _batch_streams(seed: int, trials: int):
    """Yield (rng, batch_size) pairs with deterministic substreams; the
    generators are PCG64, whose ``advance`` _interference_sums relies on."""
    trials = int(trials)
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
    each trial is summed inside one chunk in interferer order. A chunk's
    positions come from a copy of the stream at the first position, and
    the stream itself jumps past all of them before the gains: PCG64
    takes one 64-bit draw per double, so the positions, the gains and
    the stream's end state are those of one ``rng.random(total)``.
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
    position_rng = copy.deepcopy(rng)
    rng.bit_generator.advance(total)
    scale = cfg.p_t * cfg.k_pl * sidelobe_gain(cfg) ** 2
    t0 = i0 = 0
    while t0 < n:
        t1 = max(int(np.searchsorted(ends, i0 + _CHUNK, side="right")),
                 t0 + 1)
        i1 = int(ends[t1 - 1])
        owner = np.repeat(np.arange(t1 - t0), counts[t0:t1])
        y = (d[t0:t1].take(owner)
             + position_rng.random(i1 - i0) * span[t0:t1].take(owner))
        if cfg.n_los == cfg.n_nlos:
            # a scalar shape draws the same gammas at a lower cost
            fade = rng.standard_gamma(cfg.n_los, size=i1 - i0) / cfg.n_los
        else:
            shapes = nakagami_shape(y, cfg)
            fade = rng.standard_gamma(shapes) / shapes
        powers = scale * fade * attenuation(y, cfg)
        out[t0:t1] = np.bincount(owner, weights=powers, minlength=t1 - t0)
        t0, i0 = t1, i1
    return out


def simulate_laplace(serving_d: float, weight: float, cfg: NetworkConfig,
                     trials: int, seed: int) -> tuple:
    """Estimate E[exp(-weight * sum_i f_i q_i^(-alpha_i))] beyond serving_d.

    The weight plays the role of the scaled threshold times the interferer
    gain product; used to validate the analytical Laplace exponents.
    """
    if not serving_d >= 0.0:   # NaN fails too
        raise ValueError("serving distance must be non-negative")
    check_count(trials, "need at least one trial")
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


def _draw_users(rng, size: int, cfg: NetworkConfig) -> tuple:
    """(d_a, d, z_d, z_psi) of one batch: cells from the cell-size
    distribution, users uniform in them, and the standard normals that
    scale their ranging and angle estimate errors."""
    d_a = rng.exponential(cfg.mean_cell_size, size=size)
    d = rng.uniform(0.0, 1.0, size=size) * d_a
    return d_a, d, rng.standard_normal(size), rng.standard_normal(size)


def _error_events(users: tuple, k: int, theta_u: float, beta: float,
                  cfg: NetworkConfig) -> tuple:
    """(gamma_b, gamma_u, bs_error, ma_error) of drawn users: the main-lobe
    gains of their row-k BS beam and of the UE beam, and their error events
    under Gaussian estimates whose variances are the localization bounds."""
    d_a, d, z_d, z_psi = users
    _, d_left, d_right = containing_beam(d, d_a, cfg.h_b, k)
    gamma_b = main_lobe_gain(row_beamwidth(d_a, cfg.h_b, k), cfg)
    gamma_u = main_lobe_gain(theta_u, cfg)
    sigma_d = np.sqrt(ranging_variance(d, gamma_b, gamma_u, beta, cfg))
    sigma_psi = np.sqrt(aoa_variance(d, gamma_b, theta_u, beta, cfg))
    d_hat = d + sigma_d * z_d
    # row 1's single clamped beam never misselects
    bs_error = (k > 1) & ((d_hat < d_left) | (d_hat > d_right))
    return (gamma_b, gamma_u, bs_error,
            np.abs(sigma_psi * z_psi) >= nu_threshold(theta_u))


def simulate_coverage(queries: list[CoverageQuery], cfg: NetworkConfig,
                      trials: int, seed: int) -> list[CoverageResult]:
    """Empirical P(SINR >= T) under the full error-aware branch logic: one
    CoverageResult per cell-level query, in order, all from the same draws.
    """
    queries = tuple(queries)
    check_count(len(queries), "need at least one query")
    check_count(trials, "need at least one trial")
    hits = [{"aligned": 0, "misaligned": 0, "beam_error": 0} for _ in queries]
    g = sidelobe_gain(cfg)
    for rng, size in _batch_streams(seed, trials):
        users = _draw_users(rng, size, cfg)
        d = users[1]
        shape_s = nakagami_shape(d, cfg)
        fade = rng.standard_gamma(shape_s) / shape_s
        atten = attenuation(d, cfg)
        noise = cfg.noise_power + _interference_sums(rng, d, cfg)
        for query, branch_hits in zip(queries, hits):
            gamma_b, gamma_u, bs_error, ma_error = _error_events(
                users, query.k, query.theta_u, query.beta, cfg)
            gain = np.where(bs_error, g * g,
                            np.where(ma_error, gamma_b * g, gamma_b * gamma_u))
            signal = cfg.p_t * cfg.k_pl * gain * fade * atten
            ok = signal / noise >= query.threshold
            branch_hits["aligned"] += int((ok & ~bs_error & ~ma_error).sum())
            branch_hits["misaligned"] += int((ok & ~bs_error & ma_error).sum())
            branch_hits["beam_error"] += int((ok & bs_error).sum())
    results = []
    for branch_hits in hits:
        p = sum(branch_hits.values()) / trials
        stderr = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        breakdown = {k_: v / trials for k_, v in branch_hits.items()}
        results.append(CoverageResult(probability=p, breakdown=breakdown,
                                      stderr=stderr))
    return results


def simulate_error_probabilities(k: int, beta: float, theta_u: float,
                                 cfg: NetworkConfig, trials: int, seed: int) -> dict:
    """Beam-selection and misalignment frequencies of the users a cell-level
    ``simulate_coverage`` query draws: the averaged errors' oracle."""
    check_count(k, "dictionary size must be >= 1")
    check_count(trials, "need at least one trial")
    bs_count = 0
    ma_count = 0
    for rng, size in _batch_streams(seed, trials):
        _, _, bs_error, ma_error = _error_events(_draw_users(rng, size, cfg),
                                                 k, theta_u, beta, cfg)
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
