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
pinned against scipy.integrate.quad in the test suite. The node rules are
evaluated in one of two ways, both free of cancellation. With
v = w * q^-alpha = N * u, the binomial series

    1 - (1 + u)^-N = sum_{j>=1} (-1)^(j+1) C(N+j-1, j) u^j

turns each rule into a polynomial in w whose coefficients are moments
sum_nodes wt * q^(-alpha*j), tabulated per position for j = 1..J
(J = SERIES_TERMS = 8). It serves every entry whose v at the near end of
its interferer regions, which bounds v at every node, is at most
SERIES_RADIUS = r = 0.01. There the terms alternate and each is at
most v times the one before, so the omitted tail is below
C(N+J, J+1) (v/N)^(J+1) <= v^(J+1), and 1 - (1 + u)^-N >= v (1 - v): the
truncation is below r^J / (1 - r) = 1.01e-16 relative for every N.
Entries beyond the radius sum the nodes as u * sum_{i=1..N} (1 + u)^-i,
whose terms are all positive. Both forms are tested against mpmath and an
expm1/log1p reference at 1e-14 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .antenna import main_lobe_gain, sidelobe_gain
from .config import NetworkConfig
from .errors import NumericError
from .geometry import attenuation, nakagami_shape
from .localization import (_sounding_time, beam_selection_error, cell_average,
                           misalignment_error)
from .numerics import check_count, gauss_legendre

LOS_NODES = 24
NLOS_NODES = 32
# Terms J of the moment series, and its radius in v = w * q^-alpha: the
# series serves an entry whose v bound (w * reach) is at most SERIES_RADIUS.
SERIES_TERMS = 8
SERIES_RADIUS = 0.01
_EXP_FLOOR = -745.0  # exp underflows below this
# The coverage pass has two budgets, because its arrays scale two ways.
# Node tables hold up to NLOS_NODES values per rule row (LOS_NODES per
# position inside the LOS ball, NLOS_NODES per position beyond it), and a
# node-sum entry gathers as many, so both a cell chunk's positions (which
# set its kernel tables) and a slice of node-sum entries hold
# _CHUNK_ENTRIES = 2^10 rows; the node sums' five buffers are the rows of
# one allocation per chunk. Every other temporary (the weights, series,
# exponents, error profiles and mixture of an evaluation) holds one
# float64 per (pair, position) entry, so an evaluation takes
# _EVAL_ENTRIES = 2^13 entries, 64 KiB per temporary: below glibc's
# initial 128 KiB mmap threshold, so they come from the heap rather than
# from fresh mappings faulted in per evaluation. At 2^14 they would sit
# exactly at the threshold and stay on the heap only while frees of
# larger arrays have raised it. The tables of a 1,024-position chunk
# serve 8 pairs per evaluation; a larger row's chunk is one cell.
_CHUNK_ENTRIES = 2 ** 10
_EVAL_ENTRIES = 2 ** 13


@dataclass(frozen=True)
class CoverageQuery:
    """A cell-level coverage question: the SINR threshold and the (k,
    theta_u, beta) that set the user's row, UE beam and frame split.

    Users are uniform in a cell from the cell-size distribution. No random
    draw depends on a query, so ``montecarlo.simulate_coverage`` answers
    the queries of one config from one set of draws.
    """

    threshold: float
    k: int
    theta_u: float = math.pi / 4
    beta: float = 0.5

    def __post_init__(self):
        # every float check is written so that NaN fails it
        if not self.threshold > 0.0:
            raise ValueError("SINR threshold must be positive")
        check_count(self.k, "dictionary size must be >= 1")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")


@dataclass(frozen=True)
class CoverageResult:
    """A Monte Carlo coverage estimate (``montecarlo.simulate_coverage``)."""

    probability: float
    breakdown: dict             # contributions of the aligned/MA/BS branches
    stderr: float


def alzer_eta(n: int) -> float:
    """eta = N * (N!)^(-1/N) for an integer shape N, with N! exact; equals
    1 for the exponential case. N! is a finite double up to 170, beyond
    ``config.MAX_SHAPE``."""
    return n * float(math.factorial(n)) ** (-1.0 / n)


# ---------------------------------------------------------------------------
# Interference exponents
# ---------------------------------------------------------------------------

def _nlos_y_max(cfg: NetworkConfig) -> float:
    return cfg.d_s + 20.0 / cfg.bs_density


def _series_coefficients(qpow: np.ndarray, wt: np.ndarray,
                         shape: int) -> np.ndarray:
    """(SERIES_TERMS, rows) coefficients c_j of the node rule
    sum_nodes wt * (1 - (1 + w * qpow / N)^-N) = sum_j c_j w^j, from the
    binomial series 1 - (1 + u)^-N = sum_j (-1)^(j+1) C(N+j-1, j) u^j."""
    coef = np.empty((SERIES_TERMS,) + qpow.shape[:-1])
    moment = wt.copy()
    for j in range(SERIES_TERMS):
        moment *= qpow
        # einsum sums the short node rows twice as fast as np.sum
        np.einsum("pn->p", moment, out=coef[j])
    j = np.arange(1, SERIES_TERMS + 1)
    binomials = np.array([float(math.comb(shape + i - 1, i))
                          for i in j.tolist()])
    coef *= ((-1.0) ** (j + 1) * binomials / float(shape) ** j)[:, None]
    return coef


def _node_sum(w: np.ndarray, shape: int, u: np.ndarray, wt: np.ndarray,
              inv: np.ndarray, power: np.ndarray,
              total: np.ndarray) -> np.ndarray:
    """sum_nodes (1 - (1 + u)^-N) * wt, u = w * qpow / N, per entry, for
    weights w (E,) and the node tables qpow and wt gathered into u and wt
    (E, nodes). u is overwritten, and inv, power and total are scratch of
    its shape, so the caller can reuse all five buffers. Evaluated as
    u * sum_{i=1..N} (1 + u)^-i, whose terms are all positive, so it does
    not cancel for small u."""
    u *= w[:, None] / shape
    np.divide(1.0, np.add(1.0, u, out=inv), out=inv)
    np.copyto(power, inv)
    np.copyto(total, inv)
    for _ in range(shape - 1):
        power *= inv
        total += power
    total *= u
    total *= wt
    return np.sum(total, axis=-1)


class _InterferenceTables:
    """Per-position tables for the interference exponents, plus the
    serving-link profile of each position.

    Each interferer class (LOS, NLOS) has a Gauss-Legendre node rule;
    ``rules`` holds (rule row of each position or -1, q^-alpha at the
    nodes of each row, node weights times 2*lambda, N). The LOS rule has
    a row per position inside the LOS ball. The NLOS region
    [max(x, d_S), y_max] is the same for every x <= d_S, so those
    positions share NLOS row 0 and each position beyond d_S has its own.
    Each position also gets the moment-series coefficients of its rows
    (``coef``, term-major (SERIES_TERMS, positions), summed over the
    classes) and its reach, q^-alpha at the near end of its interferer
    regions, where q^-alpha is largest, so it bounds every node; both are
    computed per row and gathered. Everything depends only on the
    positions, so the tables are built once and reused across the branch
    gains, the expansion terms and the partition factors (which only
    rescale the threshold weight w). ``classes`` limits the tables to some
    interferer classes.
    """

    def __init__(self, x: np.ndarray, cfg: NetworkConfig,
                 classes: tuple = ("los", "nlos")):
        x = np.asarray(x, dtype=float)
        shape_x = nakagami_shape(x, cfg)
        # the constants are exact per distinct shape, then scattered
        shapes, inverse = np.unique(shape_x, return_inverse=True)
        shapes = shapes.tolist()
        self.eta = np.array([alzer_eta(s) for s in shapes])[inverse]
        self.z_pow = 1.0 / attenuation(x, cfg)
        # (n, per-position coefficient) of the Alzer expansion terms
        self.terms = []
        for n in range(1, max(cfg.n_los, cfg.n_nlos) + 1):
            active = n <= shape_x
            if not np.any(active):
                break
            binomials = np.array([float(math.comb(s, n)) for s in shapes])
            self.terms.append((n, np.where(
                active, (-1.0) ** (n + 1) * binomials[inverse], 0.0)))
        h2 = cfg.h_b * cfg.h_b
        two_lambda = 2.0 * cfg.bs_density
        self.rules = []
        self._scratch = None           # the node sums' buffers, see _nodes
        self.reach = np.zeros(x.size)
        los_mask = x < cfg.d_s
        if "los" in classes and np.any(los_mask):
            x_los = x[los_mask]
            y, wt = gauss_legendre(x_los, cfg.d_s, LOS_NODES)
            self.rules.append((np.where(los_mask, np.cumsum(los_mask) - 1, -1),
                               (y * y + h2) ** (-0.5 * cfg.alpha_los),
                               two_lambda * wt, int(cfg.n_los)))
            self.reach[los_mask] = (x_los * x_los + h2) ** (-0.5 * cfg.alpha_los)
        if "nlos" in classes:
            beyond = x > cfg.d_s
            y_near = np.concatenate(([cfg.d_s], x[beyond]))
            t, wt = gauss_legendre(1.0 / _nlos_y_max(cfg), 1.0 / y_near,
                                   NLOS_NODES)
            y = 1.0 / t
            row = np.where(beyond, np.cumsum(beyond), 0)
            self.rules.append((row, (y * y + h2) ** (-0.5 * cfg.alpha_nlos),
                               two_lambda * wt / (t * t), int(cfg.n_nlos)))
            reach = (y_near * y_near + h2) ** (-0.5 * cfg.alpha_nlos)
            np.maximum(self.reach, reach[row], out=self.reach)
        # term-major, so that Horner reads contiguous rows
        self.coef = np.zeros((SERIES_TERMS, x.size))
        for row, qpow, wt, shape in self.rules:
            has = row >= 0
            self.coef[:, has] += _series_coefficients(qpow, wt,
                                                      shape)[:, row[has]]

    def _series(self, w: np.ndarray) -> np.ndarray:
        """Horner evaluation of the moment series at weights w of shape
        (..., positions)."""
        out = self.coef[-1] * w
        for j in range(SERIES_TERMS - 2, -1, -1):
            out += self.coef[j]
            out *= w
        return out

    def _nodes(self, w: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """The node rules summed over the classes at 1-D weights w at the
        table positions pos, at most _CHUNK_ENTRIES entries, in five
        (entries, nodes) buffers that the tables allocate once and reuse."""
        if self._scratch is None:
            self._scratch = np.empty((5, _CHUNK_ENTRIES * max(LOS_NODES,
                                                              NLOS_NODES)))
        out = np.zeros_like(w)
        for rows, qpow, wt, shape in self.rules:
            row = rows[pos]
            has = row >= 0
            row = row[has]
            dims = (row.size, qpow.shape[1])
            buffers = [b[:dims[0] * dims[1]].reshape(dims)
                       for b in self._scratch]
            # mode="clip" gathers straight into out= (rows are in range)
            np.take(qpow, row, axis=0, out=buffers[0], mode="clip")
            np.take(wt, row, axis=0, out=buffers[1], mode="clip")
            out[has] += _node_sum(w[has], shape, *buffers)
        return out

    def exponents(self, w: np.ndarray) -> np.ndarray:
        """A_LOS + A_NLOS for threshold weights w of shape (..., positions):
        the moment series on the whole grid, with 0 in place of the
        weights beyond its radius (w * reach > SERIES_RADIUS), whose
        entries the node rules then overwrite, on slices of at most
        _CHUNK_ENTRIES entries (an entry's position is its flat index
        modulo the last-axis size); with no such weight, the series alone.
        Every entry is evaluated on its own, so it gets the same bits in
        any batch."""
        far = w * self.reach > SERIES_RADIUS
        if not far.any():
            return self._series(w)
        out = self._series(np.where(far, 0.0, w))
        far_at = np.flatnonzero(far)
        flat, w = out.reshape(-1), np.ravel(w)
        for i in range(0, far_at.size, _CHUNK_ENTRIES):
            part = far_at[i:i + _CHUNK_ENTRIES]
            flat[part] = self._nodes(w[part], part % self.reach.size)
        return out


def laplace_interference(serving_d: float, t_scaled: float, gain_product: float,
                         branch: str, cfg: NetworkConfig) -> float:
    """Attenuation exponent A for one interferer class.

    ``t_scaled`` is the scaled threshold multiplying the interferer power
    profile, ``gain_product`` the interferer-side antenna product (side-to-
    side in this system), and ``branch`` names the class, "los" or "nlos".
    """
    if not serving_d >= 0.0:   # NaN fails too
        raise ValueError("serving distance must be non-negative")
    if branch not in ("los", "nlos"):
        raise ValueError(f"branch must be 'los' or 'nlos', got {branch!r}")
    if serving_d == math.inf:
        return 0.0   # no interferer lies beyond an infinite distance
    tables = _InterferenceTables(np.asarray([serving_d], dtype=float), cfg,
                                 (branch,))
    w = np.asarray([t_scaled * gain_product], dtype=float)
    value = float(tables.exponents(w)[0])
    if not np.isfinite(value):
        raise NumericError("interference exponent did not converge")
    return value


# ---------------------------------------------------------------------------
# Per-branch conditional coverage
# ---------------------------------------------------------------------------

def _branch_values(x: np.ndarray, threshold, gains: tuple, cfg: NetworkConfig,
                   tables: _InterferenceTables) -> list:
    """P(SINR >= T) at 1-D positions x, one array per serving-link gain
    product in ``gains``; the gains share each expansion term's threshold
    scaling n * eta * T * z^alpha; ``tables`` are x's
    ``_InterferenceTables``.

    ``threshold`` and the gains broadcast against x along its last axis: a
    (B, 1) column of thresholds gives (B, P) values. Vectorized over mixed
    serving classes: the fading shape, its expansion constant, and the
    path-loss power (z^alpha is one over ``geometry.attenuation``) switch
    at the LOS-ball edge.

    An entry whose noise term alone reaches -_EXP_FLOOR is dead: it runs
    the series at w = 0 and adds coef * exp(-inf), exactly +-0.0, and a
    (term, gain) with no live entry runs neither the kernel nor exp
    (47.9% of the entries of the default `mmwloc optimize` are dead, 34.9%
    in such skipped calls). The interference exponent is never
    negative (the node form sums positive terms; the series form keeps an
    even number of alternating, shrinking terms, so it is at least its
    first term minus its second, which is >= 0), so the entry's floored
    exponent would be _EXP_FLOOR whatever the interference is, and its
    addend coef * exp(_EXP_FLOOR) a subnormal of at most C(N, n) * 4.9e-324,
    which exp takes over 100 times longer to produce than +-0.0. The noise
    term grows with n, so an entry's floored terms follow its live ones,
    and an entry without one keeps the bits of the floored form. M dropped
    addends sum to at most M * 2^-1022, so a rounded cell sum S can change
    only if S < about M * 2e-292, a coverage of essentially zero. Where
    every candidate's objective is subnormal, objectives that differed by
    a few 4.9e-324 can collapse to 0.0, so the optimizer's beta or k falls
    to its tie-break and may differ from that of the floored form.
    """
    x = np.asarray(x, dtype=float)
    g2 = sidelobe_gain(cfg) ** 2
    noise_over_ref = cfg.noise_power / (cfg.p_t * cfg.k_pl)
    outs = [np.zeros(np.broadcast_shapes(x.shape, np.shape(threshold),
                                         np.shape(gain))) for gain in gains]
    for n, coef in tables.terms:
        scaled = n * tables.eta * threshold * tables.z_pow
        for gain, out in zip(gains, outs):
            scale = scaled / gain
            noise = scale * noise_over_ref
            live = noise < -_EXP_FLOOR
            if live.all():
                a = tables.exponents(scale * g2)
                exponent = np.maximum(-(noise + a), _EXP_FLOOR)
            elif live.any():
                a = tables.exponents(np.where(live, scale * g2, 0.0))
                exponent = np.where(live, np.maximum(-(noise + a), _EXP_FLOOR),
                                    -np.inf)
            else:
                continue
            out += coef * np.exp(exponent)
    if not all(np.all(np.isfinite(out)) for out in outs):
        raise NumericError("branch coverage produced non-finite values")
    return outs


def _mixture_values(x: np.ndarray, threshold, gamma_b, theta_u: float,
                    beta, p_ma, k: int, d_left, d_right, cfg: NetworkConfig,
                    tables: _InterferenceTables) -> np.ndarray:
    """Pointwise coverage mixing the three branches by the error profile.

    gamma_b, d_left and d_right broadcast against the 1-D positions x (the
    BS main-lobe gain and beam interval per position); threshold and beta
    may be (B, 1) columns of pairs, giving (B, P) values. p_ma is the
    misalignment error there (``misalignment_error``), passed in because
    it depends on beta only through the sounding window."""
    gamma_u = main_lobe_gain(theta_u, cfg)
    g = sidelobe_gain(cfg)
    t0, tma, tbs = _branch_values(
        x, threshold, (gamma_b * gamma_u, gamma_b * g, g * g), cfg, tables)
    if k == 1:
        p_bs = np.zeros_like(x)
    else:
        p_bs = beam_selection_error(x, gamma_b, gamma_u, beta, d_left,
                                    d_right, cfg)
    w0 = (1.0 - p_bs) * (1.0 - p_ma)
    wma = (1.0 - p_bs) * p_ma
    return w0 * t0 + wma * tma + p_bs * tbs


# ---------------------------------------------------------------------------
# Public coverage operations
# ---------------------------------------------------------------------------

def overall_coverage(threshold, k: int, theta_u: float, beta,
                     cfg: NetworkConfig):
    """Cell-level coverage across all k beams, averaged over the cell-size
    distribution and the user position.

    ``threshold`` and ``beta`` may be equal-length 1-D arrays of
    (threshold, beta) pairs, evaluated in one pass and returned as an
    array; scalars give a float. ``localization.cell_average`` walks the
    grid in chunks of at most _CHUNK_ENTRIES positions, whose kernel
    tables serve every pair, and evaluates _EVAL_ENTRIES (pair, position)
    entries at a time.
    """
    scalar = np.ndim(threshold) == 0 and np.ndim(beta) == 0
    thresholds, betas = np.broadcast_arrays(
        np.atleast_1d(np.asarray(threshold, dtype=float)),
        np.atleast_1d(np.asarray(beta, dtype=float)))
    if not np.all(thresholds > 0.0):
        raise ValueError("SINR threshold must be positive")
    # the misalignment error depends on beta only through the sounding
    # window: one row per window, memoized per chunk
    _, first, window = np.unique(_sounding_time(betas, cfg),
                                 return_index=True, return_inverse=True)

    def evaluator(theta_k, bounds, x):
        shape = x.shape
        gamma_b = np.broadcast_to(main_lobe_gain(theta_k, cfg)[:, None, None],
                                  shape).ravel()
        d_left = np.broadcast_to(bounds[:, :-1, None], shape).ravel()
        d_right = np.broadcast_to(bounds[:, 1:, None], shape).ravel()
        xc = x.ravel()
        tables = _InterferenceTables(xc, cfg)

        # at most one slice's pair count of rows, so that they stay within
        # its entry budget
        @lru_cache(maxsize=max(1, _EVAL_ENTRIES // xc.size))
        def p_ma_row(i):
            return misalignment_error(xc, gamma_b, theta_u,
                                      betas[first[[i]], None], cfg)[0]

        def values(pairs):
            p_ma = np.stack([p_ma_row(i) for i in window[pairs].tolist()])
            return _mixture_values(
                xc, thresholds[pairs, None], gamma_b, theta_u,
                betas[pairs, None], p_ma, k, d_left, d_right, cfg,
                tables).reshape((-1,) + shape)
        return values

    total = cell_average(k, len(betas), cfg, evaluator, _CHUNK_ENTRIES,
                         _EVAL_ENTRIES, "overall coverage")
    return float(total[0]) if scalar else total


def rate_to_sinr_threshold(r0: float, beta, cfg: NetworkConfig):
    """SINR threshold equivalent to an effective-rate target r0 (inf where
    it saturates, NumericError where it rounds to 0); beta may be an array."""
    if not r0 > 0.0:
        raise ValueError("rate threshold must be positive")
    beta = np.asarray(beta, dtype=float)
    if not np.all((beta > 0.0) & (beta <= 1.0)):
        raise ValueError("beta must be in (0, 1]")
    exponent = r0 * (cfg.t_init + cfg.t_frame) / (beta * cfg.t_frame * cfg.bandwidth)
    with np.errstate(over="ignore"):
        out = np.where(exponent > 900.0, np.inf, 2.0 ** exponent - 1.0)
    if np.any(out == 0.0):
        raise NumericError(f"rate target {r0!r} rounds the SINR threshold to 0")
    return out if out.ndim else float(out)


def rate_coverage(r0: float, beta, k: int, theta_u: float,
                  cfg: NetworkConfig):
    """P(effective rate >= r0): coverage at the equivalent SINR threshold.

    The effective rate discounts the frame overhead by beta*T_F/(T_I+T_F).
    A saturated threshold (tiny beta * bandwidth) yields probability 0.
    ``beta`` may be a 1-D array, evaluated in one ``overall_coverage``
    pass and returned as an array; a scalar gives a float.
    """
    betas = np.atleast_1d(np.asarray(beta, dtype=float))
    thresholds = rate_to_sinr_threshold(r0, betas, cfg)
    out = np.zeros(betas.shape)
    finite = np.isfinite(thresholds)
    if np.any(finite):
        out[finite] = overall_coverage(thresholds[finite], k, theta_u,
                                       betas[finite], cfg)
    return out if np.ndim(beta) else float(out[0])
