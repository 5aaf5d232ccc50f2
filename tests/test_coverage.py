"""SINR / rate coverage: interference exponents, branch ordering, limits."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mmwloc import (CoverageQuery, NetworkConfig, OptimizationSpec, coverage,
                    localization)
from mmwloc.antenna import main_lobe_gain, sidelobe_gain
from mmwloc.config import MAX_SHAPE
from mmwloc.coverage import (
    _CHUNK_ENTRIES,
    _EXP_FLOOR,
    SERIES_RADIUS,
    _InterferenceTables,
    _branch_values,
    _mixture_values,
    alzer_eta,
    laplace_interference,
    overall_coverage,
    rate_coverage,
    rate_to_sinr_threshold,
)
from mmwloc.dictionary import beam_boundaries, row_beamwidth
from mmwloc.errors import NumericError
from mmwloc.initial_access import UE_GRID
from mmwloc.localization import (
    BEAM_NODES,
    _cell_grid,
    _sounding_time,
    aoa_variance,
    avg_beam_selection_error,
    avg_misalignment_error,
    beam_selection_profile,
    misalignment_error,
    nu_threshold,
    p_misalignment,
    ranging_variance,
)
from mmwloc.numerics import dbm_to_watt, gauss_legendre, split_panel
from mmwloc.optimizer import default_beta_grid, ue_beamwidth_for_dictionary
from test_numerics import where_split_panel


@pytest.fixture
def cfg():
    return NetworkConfig()


# Relative budget of the fixed-order interference kernel against adaptive
# quadrature, for threshold weights w from 1 to 1e20.
QUAD_REL_BOUND = 1e-9
QUAD_W_GRID = tuple(10.0 ** np.arange(21))
# (x, w) points where the NLOS node rule misses the budget (up to 5.2e-9):
# at w ~ 1e10-1e11 the integrand's poles come close to the 1/y panel.
KNOWN_NLOS_MISSES = {(5.0, 1e10), (5.0, 1e11)}


def _quadrature_misses(cfg, branch, xs, region):
    """(x, w) points where laplace_interference leaves QUAD_REL_BOUND of
    scipy.integrate.quad over the region of the branch's interferers."""
    alpha = getattr(cfg, f"alpha_{branch}")
    shape = getattr(cfg, f"n_{branch}")
    misses = set()
    for x in xs:
        lo, hi = region(x)
        for w in QUAD_W_GRID:
            def integrand(y):
                u = w * (y * y + cfg.h_b ** 2) ** (-0.5 * alpha) / shape
                return -math.expm1(-shape * math.log1p(u))  # 1 - (1+u)^-N
            ref, _ = integrate.quad(integrand, lo, hi, epsabs=0.0,
                                    epsrel=1e-12, limit=400)
            ref *= 2 * cfg.bs_density
            got = laplace_interference(x, w, 1.0, branch, cfg)
            if abs(got - ref) > QUAD_REL_BOUND * ref:
                misses.add((x, w))
    return misses


def _cell_loop_reference(threshold, k, theta_u, beta, cfg):
    """overall_coverage one cell node and one (threshold, beta) pair at a
    time, with a dot product per cell: the loop the batched pass replaced."""
    d_a, da_weights, theta_k, bounds = _cell_grid(
        k, cfg.bs_density, cfg.h_b, cfg.d_s)
    total = 0.0
    for i, da_weight in enumerate(da_weights):
        x, w = split_panel(bounds[i, :-1], bounds[i, 1:], cfg.d_s, BEAM_NODES)
        d_left = np.broadcast_to(bounds[i, :-1, None], x.shape)
        d_right = np.broadcast_to(bounds[i, 1:, None], x.shape)
        gamma_b = main_lobe_gain(float(theta_k[i]), cfg)
        p_ma = misalignment_error(x.ravel(), gamma_b, theta_u, beta, cfg)
        values = _mixture_values(x.ravel(), threshold, gamma_b,
                                 theta_u, beta, p_ma, k, d_left.ravel(),
                                 d_right.ravel(), cfg,
                                 _InterferenceTables(x.ravel(), cfg))
        total += da_weight * float(np.dot(values, w.ravel() / d_a[i]))
    return min(max(total, 0.0), 1.0)


class TestCellPositions:
    """cell_average builds each chunk's positions from the cached beam
    edges; every chunk must hold the bits of the whole-grid arrays that
    the cell grid used to cache."""

    @staticmethod
    def _whole_grid(k, cfg):
        # the whole-grid formula: both rules merged by np.where, then w / d_a
        d_a, _, _, bounds = _cell_grid(k, cfg.bs_density, cfg.h_b, cfg.d_s)
        x, w = where_split_panel(bounds[:, :-1], bounds[:, 1:], cfg.d_s,
                                 BEAM_NODES)
        straddle = (bounds[:, :-1] < cfg.d_s) & (cfg.d_s < bounds[:, 1:])
        return x, w / d_a[:, None, None], np.count_nonzero(straddle)

    # at density 0.05 the LOS-ball edge d_S = 20 m falls inside one panel
    # of each of 32 cells; at 0.5 every cell is shorter than d_S
    @pytest.mark.parametrize("density, straddling", [(0.05, 32), (0.5, 0)])
    @pytest.mark.parametrize("k", [1, 2, 32])
    def test_chunks_equal_whole_grid_bits(self, monkeypatch, k, density,
                                          straddling):
        cfg = NetworkConfig(bs_density=density)
        build, chunks = localization._cell_positions, []

        def recording(*args):
            chunks.append(build(*args))
            return chunks[-1]

        monkeypatch.setattr(localization, "_cell_positions", recording)
        tu = ue_beamwidth_for_dictionary(k, cfg)
        avg_misalignment_error(k, tu, 0.5, cfg)
        error_walk = len(chunks)
        overall_coverage(3.16, k, tu, 0.5, cfg)
        x_ref, w_ref, count = self._whole_grid(k, cfg)
        assert count == straddling
        # the error averages' chunks hold at most 2^13 positions, 64 KiB
        assert max(x.nbytes for x, _ in chunks[:error_walk]) <= 2 ** 16
        for walk in (chunks[:error_walk], chunks[error_walk:]):
            x, w = (np.concatenate(arrays) for arrays in zip(*walk))
            assert x.shape == x_ref.shape and x.tobytes() == x_ref.tobytes()
            assert w.shape == w_ref.shape and w.tobytes() == w_ref.tobytes()


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda cfg: OptimizationSpec(r0=NAN),
    lambda cfg: CoverageQuery(threshold=NAN, k=4),
    lambda cfg: rate_to_sinr_threshold(NAN, 0.5, cfg),
    lambda cfg: rate_to_sinr_threshold(1.0e8, np.array([0.5, NAN]), cfg),
    lambda cfg: overall_coverage(NAN, 4, math.pi / 8, 0.5, cfg),
    lambda cfg: overall_coverage(np.array([3.16, NAN]), 4, math.pi / 8,
                                 np.array([0.5, 0.5]), cfg),
    lambda cfg: overall_coverage(3.16, 4, math.pi / 8, NAN, cfg),
], ids=["spec-r0", "query-threshold", "rate-r0",
        "rate-beta", "overall-threshold", "overall-threshold-batch",
        "overall-beta"])
def test_nan_input_rejected(cfg, call):
    # each check used to be written as x <= 0.0, which NaN passes; a NaN
    # rate target then gave a "feasible" optimum with objective 0.0
    with pytest.raises(ValueError):
        call(cfg)


class TestAlzerEta:
    def test_known_values(self):
        assert alzer_eta(1) == pytest.approx(1.0)
        assert alzer_eta(2) == pytest.approx(math.sqrt(2.0))
        assert alzer_eta(3) == pytest.approx(3.0 * 6.0 ** (-1.0 / 3.0))


class TestAlzerCancellation:
    @pytest.mark.parametrize("noise_psd", [1e-12, dbm_to_watt(-174.0)],
                             ids=["default", "thermal"])
    def test_branch_sum_within_1e9_at_the_shape_cap(self, noise_psd):
        # the alternating terms of sum_n (-1)^(n+1) C(N, n) e^(-x_n) reach
        # about 2^N where coverage is near 1; at MAX_SHAPE the float sum
        # stays within 1e-9 of a 60-digit sum of the same exponents
        # wherever it exceeds 1e-12 (the far positions of the default
        # noise are dead entries, exactly 0)
        cfg = NetworkConfig(n_los=MAX_SHAPE, n_nlos=MAX_SHAPE,
                            noise_psd=noise_psd)
        x = np.linspace(0.05, 60.0, 40)
        tables = _InterferenceTables(x, cfg)
        gain = main_lobe_gain(math.pi / 8, cfg) ** 2
        g2 = sidelobe_gain(cfg) ** 2
        noise_over_ref = cfg.noise_power / (cfg.p_t * cfg.k_pl)
        checked = []
        for threshold in (0.1, 3.16, 31.6):
            [got] = _branch_values(x, threshold, (gain,), cfg, tables)
            terms = []
            for n, coef in tables.terms:
                scale = n * tables.eta * threshold * tables.z_pow / gain
                a = tables.exponents(scale * g2)
                terms.append((coef, np.maximum(-(scale * noise_over_ref + a),
                                               _EXP_FLOOR)))
            with mpmath.workdps(60):
                refs = [mpmath.fsum(mpmath.mpf(c[i]) * mpmath.exp(e[i])
                                    for c, e in terms)
                        for i in range(x.size)]
            checked += [(g, ref) for g, ref in zip(got, refs) if ref > 1e-12]
        assert len(checked) >= 20
        for g, ref in checked:
            assert abs(g - ref) <= 1e-9 * ref


class TestLaplaceInterference:
    def test_vanishing_threshold(self, cfg):
        assert laplace_interference(5.0, 0.0, 0.1, "los", cfg) == 0.0
        assert laplace_interference(5.0, 0.0, 0.1, "nlos", cfg) == 0.0

    def test_vanishing_density(self):
        cfg = NetworkConfig(bs_density=1e-12)
        a = laplace_interference(5.0, 3.0, 0.1, "los", cfg)
        assert 0.0 <= a < 1e-9

    def test_los_exponent_against_adaptive_quadrature(self, cfg):
        misses = _quadrature_misses(cfg, "los", (0.0, 2.0, 10.0, 19.9),
                                    lambda x: (x, cfg.d_s))
        assert misses == set()

    def test_nlos_exponent_against_adaptive_quadrature(self, cfg):
        y_max = cfg.d_s + 20.0 / cfg.bs_density
        misses = _quadrature_misses(cfg, "nlos", (5.0, 25.0, 60.0, 90.0),
                                    lambda x: (max(x, cfg.d_s), y_max))
        assert misses == KNOWN_NLOS_MISSES

    def test_equal_exponents_keep_the_classes_apart(self, cfg):
        # the class used to be chosen by matching the exponent, so with
        # alpha_los == alpha_nlos the NLOS call returned the LOS value
        # (1.4998 for 10.4635 at x = 5 m, w = 1e6)
        cfg = cfg.with_overrides(alpha_los=3.0, alpha_nlos=3.0)
        y_max = cfg.d_s + 20.0 / cfg.bs_density
        assert _quadrature_misses(cfg, "los", (5.0,),
                                  lambda x: (x, cfg.d_s)) == set()
        assert _quadrature_misses(cfg, "nlos", (5.0,),
                                  lambda x: (cfg.d_s, y_max)) == set()

    def test_monte_carlo_oracle(self, cfg):
        # exp(-A_L - A_N) against E[exp(-w * sum f q^-alpha)] over deployments
        from mmwloc.montecarlo import simulate_laplace
        w = 2.0
        a = (laplace_interference(5.0, w, 1.0, "los", cfg)
             + laplace_interference(5.0, w, 1.0, "nlos", cfg))
        mean, stderr = simulate_laplace(5.0, w, cfg, 200_000, seed=31)
        assert abs(math.exp(-a) - mean) <= 3 * stderr

    def test_unknown_branch_rejected(self, cfg):
        with pytest.raises(ValueError, match="branch"):
            laplace_interference(5.0, 1.0, 0.1, 3.0, cfg)

    @pytest.mark.parametrize("branch", ["los", "nlos"])
    def test_infinite_serving_distance_leaves_no_interferers(self, cfg,
                                                             branch):
        # no interferer lies beyond an infinite distance, so A is 0
        assert laplace_interference(math.inf, 3.0, 0.1, branch, cfg) == 0.0

    @pytest.mark.parametrize("branch", ["los", "nlos"])
    @pytest.mark.parametrize("serving_d", [-1.0, NAN])
    def test_bad_serving_distance_rejected(self, cfg, branch, serving_d):
        # NaN fails the distance check like a negative distance
        with pytest.raises(ValueError, match="serving distance"):
            laplace_interference(serving_d, 3.0, 0.1, branch, cfg)


def _series_chunk(cfg, monkeypatch):
    """(tables, w, series indices, v) of the kernel call of a batched
    rate-coverage pass at k = 8 that holds the largest series entry, its
    tables rebuilt at the positions of the call's flattened entries."""
    positions, calls = {}, []
    real_init = _InterferenceTables.__init__
    real = _InterferenceTables.exponents

    def init_spy(self, x, cfg, *args):
        positions[self] = np.asarray(x, dtype=float).copy()
        real_init(self, x, cfg, *args)

    def spy(self, w):
        calls.append((self, w.copy()))
        return real(self, w)

    monkeypatch.setattr(_InterferenceTables, "__init__", init_spy)
    monkeypatch.setattr(_InterferenceTables, "exponents", spy)
    tu = ue_beamwidth_for_dictionary(8, cfg)
    rate_coverage(1.0e8, np.array([0.3, 0.6, 0.9]), 8, tu, cfg)
    monkeypatch.undo()

    def series_v(call):
        tables, w = call
        v = w * tables.reach
        return np.where(v <= SERIES_RADIUS, v, 0.0)

    call = max(calls, key=lambda call: series_v(call).max())
    v = series_v(call).ravel()
    tables, w = call
    x = np.broadcast_to(positions[tables], w.shape).ravel()
    return (_InterferenceTables(x, cfg), w.ravel(), np.flatnonzero(v > 0.0),
            v)


def _node_rule(tables, w, p, rule_value):
    """sum over classes and nodes of wt * rule_value(u, N) at one entry."""
    total = 0
    for rows, qpow, wt, shape in tables.rules:
        if rows[p] >= 0:
            for q, weight in zip(qpow[rows[p]], wt[rows[p]]):
                total += weight * rule_value(w * q / shape, shape)
    return total


class TestInterferenceKernel:
    # the thermal batch holds more node-sum entries than one slice takes
    @pytest.mark.parametrize("noise_psd, entries", [
        (1e-12, 400), (dbm_to_watt(-174.0), 4 * _CHUNK_ENTRIES)],
        ids=["default", "thermal-sliced"])
    def test_batch_straddling_radius_matches_single_entries(
            self, noise_psd, entries, monkeypatch):
        cfg = NetworkConfig(noise_psd=noise_psd)
        grid = np.linspace(0.0, 400.0, 81)
        rng = np.random.default_rng(3)
        # one table position per entry; positions repeat
        x = grid[rng.integers(0, grid.size, entries)]
        tables = _InterferenceTables(x, cfg)
        # v = w * reach spread over 1e-6 .. 1e4 around the radius
        w = SERIES_RADIUS / tables.reach * 10.0 ** rng.uniform(-4, 6, entries)
        far = w * tables.reach > SERIES_RADIUS
        assert 0.2 < np.mean(far) < 0.8
        rows = []
        real = _InterferenceTables._nodes

        def spy(self, w, pos):
            rows.append(w.size)
            return real(self, w, pos)

        monkeypatch.setattr(_InterferenceTables, "_nodes", spy)
        batch = tables.exponents(w)
        assert sum(rows) == np.count_nonzero(far)
        assert max(rows) <= _CHUNK_ENTRIES
        single_tables = {p: _InterferenceTables(np.array([p]), cfg)
                         for p in np.unique(x).tolist()}
        single = [single_tables[p].exponents(w[i:i + 1])[0]
                  for i, p in enumerate(x.tolist())]
        assert np.array_equal(batch, single)

    # positions inside the LOS ball, exactly on its edge and beyond it; the
    # noise moves entries between the live and dead paths of the branch
    # values, and 3/1 shapes give the classes different expansion terms
    @pytest.mark.parametrize("overrides", [
        {}, {"noise_psd": dbm_to_watt(-174.0)}, {"n_los": 3, "n_nlos": 1}],
        ids=["default", "thermal", "shapes-3-1"])
    def test_shared_nlos_rule_matches_one_position_builds(self, overrides):
        cfg = NetworkConfig(**overrides)
        x = np.concatenate([np.linspace(0.0, cfg.d_s, 9), [cfg.d_s],
                            np.linspace(cfg.d_s + 0.5, 400.0, 12)])
        beyond = x > cfg.d_s
        tables = _InterferenceTables(x, cfg)
        rows, qpow, wt, _ = tables.rules[-1]
        # one row shared by the LOS ball, one per position beyond it
        assert qpow.shape[0] == wt.shape[0] == 1 + np.count_nonzero(beyond)
        assert np.all(rows[~beyond] == 0)
        singles = [_InterferenceTables(x[i:i + 1], cfg) for i in range(x.size)]
        assert np.array_equal(tables.coef,
                              np.concatenate([s.coef for s in singles], axis=1))
        assert np.array_equal(tables.reach,
                              np.concatenate([s.reach for s in singles]))
        # v = w * reach at 0.1, 3.2 and 1000 times the series radius
        w = SERIES_RADIUS / tables.reach * 10.0 ** np.array([[-1.0], [0.5],
                                                               [3.0]])
        got = tables.exponents(w)
        for i, single in enumerate(singles):
            assert np.array_equal(got[:, i],
                                  single.exponents(w[:, i:i + 1])[:, 0])
        # a batch with no entry beyond the radius skips the node path
        assert np.array_equal(tables.exponents(w[0]), got[0])
        gains = (main_lobe_gain(0.2, cfg) * main_lobe_gain(0.5, cfg),
                 sidelobe_gain(cfg) ** 2)
        thresholds = np.array([[0.1], [3.16], [100.0]])
        batch = _branch_values(x, thresholds, gains, cfg, tables)
        for i, single in enumerate(singles):
            alone = _branch_values(x[i:i + 1], thresholds, gains, cfg, single)
            for values, value in zip(batch, alone):
                assert np.array_equal(values[:, i], value[:, 0])

    @pytest.mark.parametrize("noise_psd", [1e-12, dbm_to_watt(-174.0)],
                             ids=["default", "thermal"])
    def test_series_matches_mpmath(self, noise_psd, monkeypatch):
        cfg = NetworkConfig(noise_psd=noise_psd)
        tables, w, series, v = _series_chunk(cfg, monkeypatch)
        got = tables.exponents(w)
        # the 30 entries nearest the radius and 30 more at random
        rng = np.random.default_rng(5)
        picks = np.concatenate([series[np.argsort(v[series])[-30:]],
                                rng.choice(series, size=30)])
        assert v[picks].max() > 1e-2 * SERIES_RADIUS
        with mpmath.workdps(40):
            def exact(u, shape):
                return 1 - (1 + mpmath.mpf(u)) ** -shape

            for i in picks:
                ref = _node_rule(tables, mpmath.mpf(w[i]), i, exact)
                assert abs(got[i] - ref) <= 1e-14 * ref

    def test_fallback_matches_log1p_reference(self, cfg):
        # 11 weights at each of 41 positions
        x = np.repeat(np.linspace(0.0, 400.0, 41), 11)
        tables = _InterferenceTables(x, cfg)
        # u at the near end of the regions, w * reach / N, from 0.01 to 1e3
        u_max = np.tile(10.0 ** np.linspace(-2, 3, 11), 41)
        w = u_max * cfg.n_nlos / tables.reach
        assert np.all(w * tables.reach > SERIES_RADIUS)
        got = tables.exponents(w)

        def stable(u, shape):
            return -math.expm1(-shape * math.log1p(u))

        for i in range(w.size):
            ref = _node_rule(tables, w[i], i, stable)
            assert abs(got[i] - ref) <= 1e-14 * ref


class TestBranchOrdering:
    def test_aligned_dominates_misaligned_dominates_error(self, cfg):
        rng = np.random.default_rng(4)
        gamma_b = main_lobe_gain(0.2, cfg)
        gamma_u = main_lobe_gain(0.5, cfg)
        g = sidelobe_gain(cfg)
        x = rng.uniform(0.5, 40.0, size=30)
        for threshold in (0.1, 3.16, 50.0):
            t0, tma, tbs = _branch_values(
                x, threshold, (gamma_b * gamma_u, gamma_b * g, g * g), cfg,
                _InterferenceTables(x, cfg))
            assert np.all(t0 >= tma - 1e-12)
            assert np.all(tma >= tbs - 1e-12)


class TestCoverageProbability:
    def test_threshold_to_zero_gives_certainty(self, cfg):
        # side-to-side at 120 m NLOS needs T ~ 1e-18 to clear the noise
        x = np.linspace(0.0, 120.0, 25)
        for gain in (main_lobe_gain(0.2, cfg) * main_lobe_gain(0.5, cfg),
                     sidelobe_gain(cfg) ** 2):
            np.testing.assert_allclose(
                _branch_values(x, 1e-18, (gain,), cfg,
                               _InterferenceTables(x, cfg))[0],
                1.0, atol=1e-6)

    def test_monotone_in_threshold(self, cfg):
        # a (B, 1) column of thresholds: every position's coverage falls
        x = np.linspace(0.0, 120.0, 25)
        t = np.array([0.1, 1.0, 3.16, 10.0, 100.0])[:, None]
        gain = main_lobe_gain(0.2, cfg) * main_lobe_gain(0.5, cfg)
        vals, = _branch_values(x, t, (gain,), cfg, _InterferenceTables(x, cfg))
        assert vals.shape == (5, 25)
        assert np.all(np.diff(vals, axis=0) <= 1e-12)

    def test_degenerate_noise_limited_reduction(self):
        # Rayleigh serving fading, no errors, vanishing sidelobes and
        # density: the aligned branch averaged over a beam reduces to the
        # integrated noise-only form.
        cfg = NetworkConfig(n_los=1, n_nlos=1, bs_density=1e-9,
                            eps_sidelobe=1e-12, noise_psd=1e-10)
        d_a, k, theta_u, t = 15.0, 2, math.pi / 8, 3.16
        bounds = beam_boundaries(d_a, cfg.h_b, k)
        theta_k = row_beamwidth(d_a, cfg.h_b, k)
        gain = main_lobe_gain(theta_k, cfg) * main_lobe_gain(theta_u, cfg)
        x, w = gauss_legendre(bounds[0], bounds[1], BEAM_NODES)
        got = (np.dot(_branch_values(x, t, (gain,), cfg,
                                     _InterferenceTables(x, cfg))[0], w)
               / (bounds[1] - bounds[0]))

        def noise_only(x):
            z2 = x * x + cfg.h_b ** 2
            w = t * cfg.noise_power * z2 / (cfg.p_t * cfg.k_pl * gain)
            return math.exp(-w)

        ref, _ = integrate.quad(noise_only, bounds[0], bounds[1], epsabs=1e-12)
        ref /= bounds[1] - bounds[0]
        assert got == pytest.approx(ref, rel=1e-6)


def _beam_coverage(t, k, j, theta_u, beta, d_a, cfg):
    """Coverage of a user uniform in beam j of row k in a cell of size d_a:
    the three branches from _branch_values, mixed by the error profiles,
    averaged over the beam's own panel nodes."""
    theta_k = row_beamwidth(d_a, cfg.h_b, k)
    bounds = beam_boundaries(d_a, cfg.h_b, k)
    d_left, d_right = bounds[j - 1], bounds[j]
    x, w = split_panel(d_left, d_right, cfg.d_s, BEAM_NODES)
    gamma_b, gamma_u = main_lobe_gain(theta_k, cfg), main_lobe_gain(theta_u, cfg)
    g = sidelobe_gain(cfg)
    t0, tma, tbs = _branch_values(
        x, t, (gamma_b * gamma_u, gamma_b * g, g * g), cfg,
        _InterferenceTables(x, cfg))
    sigma_d = np.sqrt(ranging_variance(x, gamma_b, gamma_u, beta, cfg))
    p_bs = beam_selection_profile(x, sigma_d, d_left, d_right) if k > 1 else 0.0
    p_ma = p_misalignment(aoa_variance(x, gamma_b, theta_u, beta, cfg),
                          nu_threshold(theta_u))
    values = (1 - p_bs) * ((1 - p_ma) * t0 + p_ma * tma) + p_bs * tbs
    return float(np.dot(values, w)) / (d_right - d_left)


class TestOverallCoverage:
    # at t = 1e-3 and beta = 0.99 the error branches carry weight:
    # swapping them in the mixture moves the sum by 12%
    @pytest.mark.parametrize("t, beta", [(3.16, 0.6), (1e-3, 0.99)])
    def test_equals_direct_beam_sum(self, cfg, t, beta):
        # every beam of every cell node, each mixed on its own
        k, tu = 4, math.pi / 8
        d_a, da_weights = _cell_grid(k, cfg.bs_density, cfg.h_b, cfg.d_s)[:2]
        acc = 0.0
        for cell, cell_weight in zip(d_a, da_weights):
            bounds = beam_boundaries(cell, cfg.h_b, k)
            for j in range(1, k + 1):
                weight = cell_weight * (bounds[j] - bounds[j - 1]) / cell
                acc += weight * _beam_coverage(t, k, j, tu, beta, cell, cfg)
        total = overall_coverage(t, k, tu, beta, cfg)
        assert total == pytest.approx(acc, rel=1e-9)

    def test_monotone_in_threshold(self, cfg):
        vals = [overall_coverage(t, 4, math.pi / 8, 0.7, cfg)
                for t in (0.5, 3.16, 20.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_within_unit_interval(self, cfg):
        for t in (1e-6, 1.0, 1e4):
            v = overall_coverage(t, 8, math.pi / 16, 0.5, cfg)
            assert 0.0 <= v <= 1.0


def _floored_branch_values(x, thresholds, gain, cfg):
    """_branch_values with every entry live: each through the kernel at
    its own weight, its exponent floored at _EXP_FLOOR. Returns the values, the mask of
    values with at least one floored term, and the floored and total
    kernel entries."""
    tables = _InterferenceTables(x, cfg)
    noise_over_ref = cfg.noise_power / (cfg.p_t * cfg.k_pl)
    g2 = sidelobe_gain(cfg) ** 2
    ref, floored, skipped, entries = 0.0, False, 0, 0
    for n, coef in tables.terms:
        scale = n * tables.eta * thresholds * tables.z_pow / gain
        noise = scale * noise_over_ref
        a = tables.exponents(scale * g2)
        ref = ref + coef * np.exp(np.maximum(-(noise + a), _EXP_FLOOR))
        dead = noise >= -_EXP_FLOOR
        floored = floored | dead
        skipped += np.count_nonzero(dead)
        entries += noise.size
    return ref, floored, skipped, entries


class TestBatchedCoverage:
    # noise_psd = 1e-10 sends about 70% of the kernel entries to the exp floor
    @pytest.mark.parametrize("k, noise_psd", [
        (1, 1e-12), (4, 1e-12), (32, 1e-12), (4, 1e-10)])
    def test_batch_matches_single_pairs_and_cell_loop(self, k, noise_psd):
        cfg = NetworkConfig(noise_psd=noise_psd)
        tu = ue_beamwidth_for_dictionary(k, cfg)
        betas = np.array([0.1, 0.5, 0.9, 1.0])
        thresholds = rate_to_sinr_threshold(1.0e8, betas, cfg)
        batch = overall_coverage(thresholds, k, tu, betas, cfg)
        assert batch.shape == betas.shape
        for t, beta, got in zip(thresholds, betas, batch):
            single = overall_coverage(float(t), k, tu, float(beta), cfg)
            assert isinstance(single, float) and single == got
            ref = _cell_loop_reference(t, k, tu, beta, cfg)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    # k = 1 and k = 32 both fill a chunk with 1,024 positions, so a slice
    # holds 8 pairs: the 50 default betas take seven slices, the last of
    # them partial. The first and last pair of every slice are checked (a
    # single pair at k = 32 walks 64 one-cell chunks).
    @pytest.mark.parametrize("k", [1, 32])
    def test_default_grid_matches_single_pairs(self, cfg, k):
        betas = np.array(default_beta_grid())
        per_slice = coverage._EVAL_ENTRIES // coverage._CHUNK_ENTRIES
        assert 1 < per_slice < betas.size and betas.size % per_slice
        tu = ue_beamwidth_for_dictionary(k, cfg)
        thresholds = rate_to_sinr_threshold(1.0e8, betas, cfg)
        batch = overall_coverage(thresholds, k, tu, betas, cfg)
        for first in range(0, betas.size, per_slice):
            for i in (first, min(first + per_slice, betas.size) - 1):
                single = overall_coverage(float(thresholds[i]), k, tu,
                                          float(betas[i]), cfg)
                assert single == batch[i]

    # k = 32 fills a chunk with one 1,024-position cell, so every
    # evaluation of the 50 default betas but the last holds a full budget
    def test_evaluation_temporaries_below_mmap_threshold(self, monkeypatch):
        cfg = NetworkConfig()
        betas = np.array(default_beta_grid())
        tu = ue_beamwidth_for_dictionary(32, cfg)
        thresholds = rate_to_sinr_threshold(1.0e8, betas, cfg)
        sizes = []
        real_exponents = _InterferenceTables.exponents
        real_mixture = coverage._mixture_values
        real_qfunc = localization.qfunc

        def exponents(self, w):
            sizes.append(np.asarray(w).nbytes)
            return real_exponents(self, w)

        def mixture(*args):
            out = real_mixture(*args)
            sizes.append(out.nbytes)
            return out

        def qfunc(x):
            sizes.append(np.asarray(x, dtype=float).nbytes)
            return real_qfunc(x)

        monkeypatch.setattr(_InterferenceTables, "exponents", exponents)
        monkeypatch.setattr(coverage, "_mixture_values", mixture)
        monkeypatch.setattr(localization, "qfunc", qfunc)
        overall_coverage(thresholds, 32, tu, betas, cfg)
        # glibc maps allocations of 128 KiB and up afresh, by default
        assert max(sizes) == 8 * coverage._EVAL_ENTRIES < 128 * 1024

    # the budget before it was halved: every pair keeps its bits
    @pytest.mark.parametrize("k, noise_psd", [
        (4, 1e-12), (32, 1e-12), (4, dbm_to_watt(-174.0))],
        ids=["k4", "k32", "k4-thermal"])
    def test_former_evaluation_budget_gives_same_bits(self, k, noise_psd,
                                                      monkeypatch):
        cfg = NetworkConfig(noise_psd=noise_psd)
        betas = np.array(default_beta_grid())
        tu = ue_beamwidth_for_dictionary(k, cfg)
        thresholds = rate_to_sinr_threshold(1.0e8, betas, cfg)
        batch = overall_coverage(thresholds, k, tu, betas, cfg)
        monkeypatch.setattr(coverage, "_EVAL_ENTRIES", 2 ** 14)
        assert np.array_equal(
            overall_coverage(thresholds, k, tu, betas, cfg), batch)

    # 96 positions and 300 entries divide neither the 64 cells nor the 50
    # pairs: at k = 1 a chunk is 3 cells and a slice 3 pairs, at k = 2 one
    # cell and 4 pairs; thermal noise sends entries through the node sum,
    # which then runs in slices of 96
    @pytest.mark.parametrize("k", [1, 2])
    def test_non_dividing_budgets_match_single_pairs(self, k, monkeypatch):
        cfg = NetworkConfig(noise_psd=dbm_to_watt(-174.0))
        betas = np.array(default_beta_grid())
        tu = ue_beamwidth_for_dictionary(k, cfg)
        thresholds = rate_to_sinr_threshold(1.0e8, betas, cfg)
        single = [overall_coverage(float(t), k, tu, float(beta), cfg)
                  for t, beta in zip(thresholds, betas)]
        monkeypatch.setattr(coverage, "_CHUNK_ENTRIES", 96)
        monkeypatch.setattr(coverage, "_EVAL_ENTRIES", 300)
        batch = overall_coverage(thresholds, k, tu, betas, cfg)
        assert np.array_equal(batch, single)

    # a sounding time beyond the frame gives every beta its own window:
    # each slice computes its own rows, within the entry budget
    def test_misalignment_rows_within_entry_budget(self, monkeypatch):
        cfg = NetworkConfig(aoa_sounding_time=2.0e-3)
        betas = np.array(default_beta_grid())
        assert np.unique(_sounding_time(betas, cfg)).size == betas.size
        tu = ue_beamwidth_for_dictionary(2, cfg)
        thresholds = rate_to_sinr_threshold(1.0e8, betas, cfg)
        single = [overall_coverage(float(t), 2, tu, float(beta), cfg)
                  for t, beta in zip(thresholds, betas)]
        entries = []
        real = coverage.misalignment_error

        def misalignment(x, gamma_b, theta_u, beta, cfg):
            entries.append(np.size(x) * np.shape(beta)[0])
            return real(x, gamma_b, theta_u, beta, cfg)

        monkeypatch.setattr(coverage, "misalignment_error", misalignment)
        monkeypatch.setattr(coverage, "_CHUNK_ENTRIES", 96)
        monkeypatch.setattr(coverage, "_EVAL_ENTRIES", 300)
        batch = overall_coverage(thresholds, 2, tu, betas, cfg)
        assert len(entries) > 1 and max(entries) <= 300
        assert np.array_equal(batch, single)

    def test_one_misalignment_row_per_chunk_and_window(self, monkeypatch):
        # the default grid's 50 betas share 2 sounding windows, and row
        # k = 4 walks 8 chunks in 7 slices each: a row per (chunk, window)
        # is 16 calls, and recomputing the rows per slice makes more
        cfg = NetworkConfig()
        betas = np.array(default_beta_grid())
        assert np.unique(_sounding_time(betas, cfg)).size == 2
        tu = ue_beamwidth_for_dictionary(4, cfg)
        thresholds = rate_to_sinr_threshold(1.0e8, betas, cfg)
        calls = []
        real = coverage.misalignment_error

        def misalignment(x, gamma_b, theta_u, beta, cfg):
            calls.append(np.shape(beta))
            return real(x, gamma_b, theta_u, beta, cfg)

        monkeypatch.setattr(coverage, "misalignment_error", misalignment)
        overall_coverage(thresholds, 4, tu, betas, cfg)
        assert calls == [(1, 1)] * 16

    def test_rate_batch_matches_single_and_saturates_to_zero(self, cfg):
        # beta = 1e-4 drives the rate threshold past 2^900 (saturated)
        tu = ue_beamwidth_for_dictionary(4, cfg)
        betas = np.array([1e-4, 0.3, 0.7, 0.95])
        rates = rate_coverage(1.0e8, betas, 4, tu, cfg)
        assert math.isinf(rate_to_sinr_threshold(1.0e8, 1e-4, cfg))
        assert rates[0] == 0.0 and np.all(rates[1:] > 0.0)
        for beta, rate in zip(betas, rates):
            single = rate_coverage(1.0e8, float(beta), 4, tu, cfg)
            assert isinstance(single, float) and single == rate

    def test_exp_floor_skip_is_within_subnormal_bound(self):
        # against every entry evaluated through the kernel and then floored;
        # _branch_values adds +-0.0 for the entries whose noise term alone
        # reaches the floor, each worth at most C(N, n) * exp(-745) here
        cfg = NetworkConfig(noise_psd=1e-10)
        x = np.linspace(0.0, 400.0, 301)
        gain = main_lobe_gain(0.2, cfg) * main_lobe_gain(0.5, cfg)
        thresholds = np.array([[0.5], [3.16], [100.0]])
        ref, floored, skipped, entries = _floored_branch_values(
            x, thresholds, gain, cfg)
        assert skipped > 0.5 * entries
        got, = _branch_values(x, thresholds, (gain,), cfg,
                              _InterferenceTables(x, cfg))
        assert np.all(np.abs(got - ref) <= 1e-322)
        assert np.array_equal(got[~floored], ref[~floored])

    # each threshold is set by the noise term of the first expansion term
    # at the far end of the grid, so that most examples cross the floor
    @settings(max_examples=60, deadline=None)
    @given(log_noise_psd=st.floats(-16.0, -2.0),
           log_far_noise=st.lists(st.floats(1.0, 4.0), min_size=1,
                                  max_size=4),
           log_gain=st.floats(-2.0, 3.0))
    def test_exp_floor_skip_bound_property(self, log_noise_psd,
                                           log_far_noise, log_gain):
        cfg = NetworkConfig(noise_psd=10.0 ** log_noise_psd)
        x = np.linspace(0.0, 400.0, 201)
        gain = 10.0 ** log_gain
        tables = _InterferenceTables(x, cfg)
        far = (tables.eta[-1] * tables.z_pow[-1] / gain * cfg.noise_power
               / (cfg.p_t * cfg.k_pl))
        thresholds = (10.0 ** np.array(log_far_noise) / far)[:, None]
        ref, floored, _, _ = _floored_branch_values(x, thresholds, gain, cfg)
        got, = _branch_values(x, thresholds, (gain,), cfg,
                              _InterferenceTables(x, cfg))
        assert np.all(np.abs(got - ref) <= 1e-322)
        assert np.array_equal(got[~floored], ref[~floored])

    def test_all_floored_entries_give_exact_zero(self):
        # the floored form leaves 2 * exp(-745) - exp(-745) = 5e-324 (N = 2)
        cfg = NetworkConfig(noise_psd=1e-3)
        x = np.linspace(0.0, 400.0, 41)
        gain = main_lobe_gain(0.2, cfg) * main_lobe_gain(0.5, cfg)
        ref, floored, _, _ = _floored_branch_values(x, 1e6, gain, cfg)
        assert np.all(floored) and np.all(ref > 0.0)
        got, = _branch_values(x, 1e6, (gain,), cfg,
                              _InterferenceTables(x, cfg))
        assert np.all(got == 0.0)

    def test_overshoot_beyond_slack_raises(self, cfg, monkeypatch):
        real = coverage._mixture_values

        def inflated(*args, **kwargs):
            return real(*args, **kwargs) * 1.05

        # the true value is 0.98, so the inflated one exceeds 1 by 3%
        monkeypatch.setattr(coverage, "_mixture_values", inflated)
        with pytest.raises(NumericError):
            overall_coverage(1e-9, 4, math.pi / 8, 0.5, cfg)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# valid configs around the defaults, over every field the cell averages
# read; the ones spanning decades are drawn on a log scale
CONFIGS = st.builds(
    NetworkConfig, bs_density=_log_uniform(-3.0, -0.7),
    p_t=_log_uniform(-2.0, 1.0), h_b=st.floats(2.0, 30.0),
    alpha_los=st.floats(1.8, 2.5), alpha_nlos=st.floats(2.5, 4.5),
    n_los=st.integers(1, 4), n_nlos=st.integers(1, 4),
    d_s=st.floats(5.0, 100.0), noise_psd=_log_uniform(-16.0, -8.0),
    eps_sidelobe=_log_uniform(-3.0, -1.0), t_frame=_log_uniform(-4.0, -2.0),
    pilot_bandwidth=_log_uniform(4.0, 8.0),
    aoa_sounding_time=_log_uniform(-7.0, -4.0),
    ue_sounding_elements=st.integers(1, 16))


class TestRandomValidConfigs:
    # per position each error rises with beta, as the localization phase
    # (1 - beta) T_F shrinks; fixed-order sums with non-negative weights
    # keep that order
    @settings(max_examples=40, deadline=None)
    @given(cfg=CONFIGS, k=st.integers(1, 16), theta_u=st.sampled_from(UE_GRID),
           steps=st.sets(st.integers(0, 50), min_size=1, max_size=6))
    def test_error_averages_bounded_and_monotone_in_beta(self, cfg, k,
                                                         theta_u, steps):
        betas = np.array(sorted(steps)) / 50.0
        for errors in (avg_beam_selection_error(k, betas, theta_u, cfg),
                       avg_misalignment_error(k, theta_u, betas, cfg)):
            assert np.all((errors >= 0.0) & (errors <= 1.0))
            assert np.all(np.diff(errors) >= 0.0)

    # the same along the whole default grid, which the optimizer bisects
    # for its feasible prefix and rate-vs-beta sweeps
    @settings(max_examples=15, deadline=None)
    @given(cfg=CONFIGS, k=st.sampled_from([1, 2, 4, 16]),
           theta_u=st.sampled_from(UE_GRID))
    def test_error_averages_monotone_on_default_grid(self, cfg, k, theta_u):
        betas = np.array(default_beta_grid())
        for errors in (avg_beam_selection_error(k, betas, theta_u, cfg),
                       avg_misalignment_error(k, theta_u, betas, cfg)):
            assert np.all(np.diff(errors) >= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(cfg=CONFIGS, k=st.integers(1, 16), theta_u=st.sampled_from(UE_GRID),
           threshold=_log_uniform(-3.0, 3.0), beta=st.floats(0.0, 1.0))
    def test_overall_coverage_in_unit_interval(self, cfg, k, theta_u,
                                               threshold, beta):
        # a NumericError here would be an overshoot beyond rounding
        value = overall_coverage(threshold, k, theta_u, beta, cfg)
        assert 0.0 <= value <= 1.0


class TestRateCoverage:
    def test_threshold_identity(self, cfg):
        # definitional identity, threshold recomputed independently
        r0, beta = 2.0e8, 0.6
        exponent = r0 * (cfg.t_init + cfg.t_frame) / (beta * cfg.t_frame * cfg.bandwidth)
        expected_threshold = 2.0 ** exponent - 1.0
        assert rate_to_sinr_threshold(r0, beta, cfg) == pytest.approx(
            expected_threshold, rel=1e-12)
        assert rate_coverage(r0, beta, 4, math.pi / 8, cfg) == pytest.approx(
            overall_coverage(expected_threshold, 4, math.pi / 8, beta, cfg),
            rel=1e-12)

    def test_tiny_rate_target_certain(self, cfg):
        # r0 -> 0 drives the SINR threshold to zero everywhere, including
        # the deep-NLOS cell tail, so coverage approaches one
        assert rate_coverage(1.0e-4, 0.5, 4, math.pi / 8, cfg) >= 0.999
        assert rate_coverage(1.0e-4, 0.5, 4, math.pi / 8, cfg) > rate_coverage(
            1.0, 0.5, 4, math.pi / 8, cfg)

    def test_threshold_overflow_saturates_to_zero(self, cfg):
        assert rate_coverage(1.0e13, 0.02, 4, math.pi / 8, cfg) == 0.0

    # 2^exponent - 1 rounds to 0 below an exponent of about 1e-16 (5e-324
    # underflows the exponent itself); in a batch one such beta is enough.
    # These used to reach the coverage pass's "must be positive" ValueError.
    @pytest.mark.parametrize("r0, beta", [
        (1.0e-10, 0.5), (1.0e-308, 0.5), (5.0e-324, 0.5),
        (5.0e-8, np.array([0.02, 1.0]))])
    def test_threshold_rounding_to_zero_raises(self, cfg, r0, beta):
        with pytest.raises(NumericError, match="rounds the SINR threshold"):
            rate_to_sinr_threshold(r0, beta, cfg)
