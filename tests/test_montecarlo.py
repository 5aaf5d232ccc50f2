"""Simulator invariants: determinism, deployment statistics, degenerate limits,
the chunked interference sums against the one-shot form, and the shared
draws of a batched coverage call."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from mmwloc import (CoverageQuery, NetworkConfig, coverage, experiments,
                    montecarlo)
from mmwloc.antenna import main_lobe_gain, sidelobe_gain
from mmwloc.dictionary import row_beamwidth
from mmwloc.experiments import ExperimentSpec, run_experiment
from mmwloc.geometry import attenuation, nakagami_shape
from mmwloc.montecarlo import (
    BATCH_SIZE,
    _batch_streams,
    _interference_sums,
    simulate_coverage,
    simulate_error_probabilities,
    simulate_laplace,
    window_half_width,
)


@pytest.fixture
def cfg():
    return NetworkConfig()


class TestDeterminism:
    def test_identical_replay(self, cfg):
        q = CoverageQuery(threshold=3.16, k=4, theta_u=math.pi / 8, beta=0.5)
        [first] = simulate_coverage([q], cfg, 20_000, seed=99)
        [second] = simulate_coverage([q], cfg, 20_000, seed=99)
        assert first.probability == second.probability
        assert first.breakdown == second.breakdown

    def test_seed_changes_result(self, cfg):
        q = CoverageQuery(threshold=3.16, k=4, theta_u=math.pi / 8, beta=0.5)
        [a] = simulate_coverage([q], cfg, 20_000, seed=1)
        [b] = simulate_coverage([q], cfg, 20_000, seed=2)
        assert a.probability != b.probability

    def test_error_probabilities_replay(self, cfg):
        a = simulate_error_probabilities(8, 0.5, math.pi / 8, cfg, 30_000, seed=5)
        b = simulate_error_probabilities(8, 0.5, math.pi / 8, cfg, 30_000, seed=5)
        assert a == b


class TestDeployment:
    def test_nearest_neighbor_matches_cell_size_pdf(self, cfg):
        # KS statistic < 0.02 at 1e5 samples: the nearest BS of a Poisson
        # deployment over the simulator's window lies at an Exp(2*lambda)
        # distance, the cell-size law the simulators draw from directly
        rng = np.random.default_rng(77)
        w = window_half_width(cfg)
        n = 100_000
        counts = rng.poisson(2 * cfg.bs_density * w, size=n)
        nearest = np.array([
            np.min(np.abs(rng.uniform(-w, w, size=c))) if c else w
            for c in counts])
        ks = stats.kstest(nearest, lambda x: 1 - np.exp(-2 * cfg.bs_density * x))
        assert ks.statistic < 0.02

    @pytest.mark.parametrize("d", [5.0, 40.0])
    def test_mean_interference_matches_campbell(self, cfg, d):
        # Campbell: E[I] = 2 lambda Integral_d^w P K g^2 E[f] q^-alpha dy
        # with unit-mean fading, so a wrong intensity, window or fading
        # normalization moves the empirical mean
        shaped = cfg.with_overrides(n_los=3, n_nlos=1)
        rng = np.random.default_rng(31)
        sums = _interference_sums(rng, np.full(40_000, d), shaped)
        w = window_half_width(shaped)
        ref_g2 = shaped.p_t * shaped.k_pl * sidelobe_gain(shaped) ** 2

        def density(y):
            alpha = shaped.alpha_los if y <= shaped.d_s else shaped.alpha_nlos
            return (y * y + shaped.h_b ** 2) ** (-0.5 * alpha)

        integral, _ = integrate.quad(density, d, w, points=[shaped.d_s],
                                     limit=200)
        want = 2 * shaped.bs_density * ref_g2 * integral
        stderr = sums.std(ddof=1) / math.sqrt(sums.size)
        assert abs(sums.mean() - want) <= 4 * stderr

    def test_no_interferers_beyond_the_window(self, cfg):
        rng = np.random.default_rng(1)
        w = window_half_width(cfg)
        sums = _interference_sums(rng, np.array([w, w + 1.0]), cfg)
        assert np.array_equal(sums, [0.0, 0.0])

    def test_window_half_width(self, cfg):
        assert window_half_width(cfg) == max(10.0 / cfg.bs_density,
                                             cfg.d_s + 500.0)
        dense = cfg.with_overrides(bs_density=1.0)
        assert window_half_width(dense) == dense.d_s + 500.0


def one_shot_interference_sums(rng, d, cfg):
    """The interference sums drawn and summed over the whole batch at once,
    one gather per interferer: the reference the chunked form must match
    bit for bit."""
    w = window_half_width(cfg)
    span = np.maximum(w - d, 0.0)
    counts = rng.poisson(2.0 * cfg.bs_density * span)
    total = int(counts.sum())
    out = np.zeros(d.shape[0])
    if total == 0:
        return out
    owner = np.repeat(np.arange(d.shape[0]), counts)
    y = d[owner] + rng.uniform(0.0, 1.0, size=total) * span[owner]
    shapes = nakagami_shape(y, cfg)
    fade = rng.standard_gamma(shapes) / shapes
    g2 = sidelobe_gain(cfg) ** 2
    powers = cfg.p_t * cfg.k_pl * g2 * fade * attenuation(y, cfg)
    return np.bincount(owner, weights=powers, minlength=d.shape[0])


class TestChunkedInterference:
    # densities up to 50/m put about 52k interferers in one trial, more
    # than a default chunk; distances past the window leave none at all
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           shapes=st.one_of(st.integers(1, 4).map(lambda n: (n, n)),
                            st.tuples(st.integers(1, 4), st.integers(1, 4))),
           log_density=st.floats(-3.0, math.log10(50.0)),
           fractions=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=40),
           chunk=st.sampled_from([1, 7, 1 << 10, montecarlo._CHUNK]))
    @example(seed=3, shapes=(2, 2), log_density=math.log10(50.0),
             fractions=[0.0, 0.2], chunk=montecarlo._CHUNK)
    @example(seed=5, shapes=(3, 1), log_density=-1.0,
             fractions=[1.0, 1.2, 1.5], chunk=montecarlo._CHUNK)
    def test_matches_one_shot_sums_and_stream(self, seed, shapes,
                                              log_density, fractions, chunk):
        cfg = NetworkConfig(n_los=shapes[0], n_nlos=shapes[1],
                            bs_density=10.0 ** log_density)
        d = np.array(fractions) * window_half_width(cfg)
        ref_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        want = one_shot_interference_sums(ref_rng, d, cfg)
        with mock.patch.object(montecarlo, "_CHUNK", chunk):
            got = _interference_sums(rng, d, cfg)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBatchStreams:
    def test_sizes_cover_the_trials(self):
        sizes = [size for _, size in _batch_streams(3, 2 * BATCH_SIZE + 5)]
        assert sizes == [BATCH_SIZE, BATCH_SIZE, 5]

    def test_substreams_fixed_by_seed_and_batch_index(self):
        # batch b draws the same numbers whatever the trial count, and the
        # batches of one seed differ from each other
        short = [rng.random(4) for rng, _ in _batch_streams(3, BATCH_SIZE + 1)]
        long = [rng.random(4) for rng, _ in _batch_streams(3, 3 * BATCH_SIZE)]
        assert np.array_equal(short[0], long[0])
        assert np.array_equal(short[1], long[1])
        assert not np.array_equal(long[0], long[1])


# a fractional or non-finite count would fail deep in the batch loop, and
# simulate_laplace would take 0 trials into np.concatenate
@pytest.mark.parametrize("call", [
    lambda n, cfg: simulate_coverage([CoverageQuery(threshold=1.0, k=2)], cfg,
                                     n, seed=1),
    lambda n, cfg: simulate_error_probabilities(2, 0.5, 0.3, cfg, n, seed=1),
    lambda n, cfg: simulate_laplace(5.0, 1.0, cfg, n, seed=1),
], ids=["coverage", "errors", "laplace"])
@pytest.mark.parametrize("trials", [2.5, math.nan, math.inf, 0, -1])
def test_bad_trial_count_rejected(call, trials):
    with pytest.raises(ValueError, match="need at least one trial"):
        call(trials, NetworkConfig())


def test_integral_float_trial_count_accepted(cfg):
    assert (simulate_laplace(5.0, 1.0, cfg, 300.0, seed=1)
            == simulate_laplace(5.0, 1.0, cfg, 300, seed=1))


@pytest.mark.parametrize("serving_d", [-1.0, math.nan])
def test_laplace_rejects_negative_serving_distance(cfg, serving_d):
    with pytest.raises(ValueError, match="serving distance"):
        simulate_laplace(serving_d, 1.0, cfg, 100, seed=1)


class TestDegenerateLimits:
    def test_zero_threshold_certain(self, cfg):
        q = CoverageQuery(threshold=1e-12, k=2, theta_u=math.pi / 2, beta=0.5)
        [res] = simulate_coverage([q], cfg, 5_000, seed=8)
        assert res.probability == 1.0

    def test_single_row_never_misselects(self, cfg):
        res = simulate_error_probabilities(1, 0.5, math.pi / 4, cfg, 50_000, seed=11)
        assert res["p_bs"] == 0.0

    def test_noise_limited_rayleigh_reduction(self):
        # lambda -> 0, Rayleigh fading, one beam, quasi-omni UE, quiet
        # pilots: the empirical coverage matches the noise-only closed form
        # exp(-T N z^alpha / (P K G(d_a))) averaged over x uniform in
        # [0, d_a] and d_a ~ Exp(2 lambda); the gain depends on d_a through
        # theta_1. The noise puts the coverage near 0.47, away from 0 and 1.
        cfg = NetworkConfig(n_los=1, n_nlos=1, bs_density=1e-4,
                            noise_psd=1e-24, aoa_sounding_time=1e-3)
        tu, beta, t = math.pi / 2, 0.5, 3.16
        q = CoverageQuery(threshold=t, k=1, theta_u=tu, beta=beta)
        [res] = simulate_coverage([q], cfg, 40_000, seed=17)
        assert res.breakdown["aligned"] == res.probability
        rate = 2.0 * cfg.bs_density

        def cell_mean(d_a):
            gain = (main_lobe_gain(row_beamwidth(d_a, cfg.h_b, 1), cfg)
                    * main_lobe_gain(tu, cfg))

            def noise_only(x):
                z_alpha = 1.0 / attenuation(x, cfg)
                return math.exp(-t * cfg.noise_power * z_alpha
                                / (cfg.p_t * cfg.k_pl * gain))

            total, _ = integrate.quad(noise_only, 0.0, min(d_a, cfg.d_s))
            if d_a > cfg.d_s:
                total += integrate.quad(noise_only, cfg.d_s, d_a)[0]
            return total / d_a

        ref, _ = integrate.quad(
            lambda d_a: rate * math.exp(-rate * d_a) * cell_mean(d_a),
            0.0, math.inf, limit=200)
        assert 0.2 < ref < 0.8
        assert abs(res.probability - ref) <= max(3 * res.stderr, 0.005)

    def test_laplace_at_zero_weight(self, cfg):
        assert simulate_laplace(10.0, 0.0, cfg, 1_000, seed=2) == (1.0, 0.0)

    def test_no_localization_resources(self, cfg):
        # beta = 1 leaves no observation time: both estimates are useless
        res = simulate_error_probabilities(8, 1.0, math.pi / 8, cfg, 5_000, seed=4)
        assert res["p_bs"] == 1.0 and res["p_ma"] == 1.0

    def test_stderr_formula(self, cfg):
        q = CoverageQuery(threshold=3.16, k=4, theta_u=math.pi / 8, beta=0.5)
        [res] = simulate_coverage([q], cfg, 10_000, seed=21)
        p = res.probability
        assert res.stderr == pytest.approx(math.sqrt(p * (1 - p) / 10_000), rel=1e-12)


class TestCoverageEstimate:
    def test_monotone_in_threshold_under_common_draws(self, cfg):
        # the queries share their draws, so the success count can only
        # fall as the threshold rises
        probs = [res.probability for res in simulate_coverage(
            [CoverageQuery(threshold=t, k=4, theta_u=math.pi / 8, beta=0.5)
             for t in (0.1, 1.0, 3.16, 100.0)], cfg, 5_000, seed=6)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[0] > probs[-1]

    def test_breakdown_partitions_the_successes(self, cfg):
        q = CoverageQuery(threshold=1e-6, k=8, theta_u=math.pi / 8, beta=0.999)
        [res] = simulate_coverage([q], cfg, 5_000, seed=12)
        assert min(res.breakdown.values()) > 0.0
        assert sum(res.breakdown.values()) == pytest.approx(res.probability,
                                                           rel=1e-12)

    def test_single_row_has_no_beam_error_branch(self, cfg):
        q = CoverageQuery(threshold=1e-6, k=1, theta_u=math.pi / 8, beta=0.999)
        [res] = simulate_coverage([q], cfg, 5_000, seed=12)
        assert res.breakdown["beam_error"] == 0.0

    @pytest.mark.parametrize("call", [
        lambda cfg: simulate_coverage([CoverageQuery(threshold=1.0, k=4)], cfg,
                                      0, seed=1),
        lambda cfg: simulate_coverage([], cfg, 10, seed=1),
        lambda cfg: simulate_error_probabilities(0, 0.5, 1.0, cfg, 10, seed=1),
        lambda cfg: simulate_error_probabilities(4, 0.5, 1.0, cfg, 0, seed=1),
    ], ids=["coverage-trials", "coverage-no-query", "errors-k",
            "errors-trials"])
    def test_invalid_sizes_rejected(self, cfg, call):
        with pytest.raises(ValueError):
            call(cfg)


# The recipe of the pinned digest: 12 queries (threshold 1e-12 and 3.16,
# k = 1, 4 and 16, beta = 0.5 and 1) on the default config and on
# n_los = 3 / n_nlos = 1 at lambda = 0.02, each at 10,000 trials (one full
# batch and one of 1,808) and seed 3. The digest is the sha256 of the 24
# results' reprs joined by newlines, recorded when every query was a call
# of its own; any change to a draw or to a count's arithmetic moves it.
DIGEST_CONFIGS = (NetworkConfig(),
                  NetworkConfig(n_los=3, n_nlos=1, bs_density=0.02))
DIGEST_QUERIES = tuple(
    CoverageQuery(threshold=t, k=k, theta_u=math.pi / 8, beta=beta)
    for t in (1e-12, 3.16) for k in (1, 4, 16) for beta in (0.5, 1.0))
DIGEST_TRIALS = 10_000
COVERAGE_DIGEST = ("0b98c7f07f6b341a5e7cc3c0306eb634"
                   "a8b97c9c6e35633ef6d3ed1ccc538d14")


class TestSharedDraws:
    def test_results_match_the_pinned_digest(self):
        lines = [repr(res) for cfg in DIGEST_CONFIGS for res in
                 simulate_coverage(DIGEST_QUERIES, cfg, DIGEST_TRIALS, seed=3)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == COVERAGE_DIGEST

    @pytest.mark.parametrize("cfg", DIGEST_CONFIGS, ids=["default", "3-1"])
    def test_batched_call_equals_one_query_calls(self, cfg):
        batched = simulate_coverage(DIGEST_QUERIES, cfg, DIGEST_TRIALS, seed=3)
        alone = [simulate_coverage([q], cfg, DIGEST_TRIALS, seed=3)[0]
                 for q in DIGEST_QUERIES]
        assert [repr(r) for r in batched] == [repr(r) for r in alone]


class TestWorkCounts:
    def test_validate_draws_interference_once_per_density_and_batch(
            self, tmp_path, monkeypatch):
        # the four (k, beta) points of a density share each batch's sums;
        # one call per point would make four per (density, batch)
        real = montecarlo._interference_sums
        calls = []

        def counted(rng, d, cfg):
            calls.append((cfg.bs_density, d.size))
            return real(rng, d, cfg)

        monkeypatch.setattr(montecarlo, "_interference_sums", counted)
        trials = 2 * BATCH_SIZE + 5
        run_experiment(ExperimentSpec("validate-analytical", out_dir=tmp_path,
                                      overrides={"experiment.trials": trials}))
        assert calls == [(lam, size) for lam in (0.005, 0.02, 0.1)
                         for size in (BATCH_SIZE, BATCH_SIZE, 5)]

    def test_validate_runs_one_analytic_pass_per_density_and_k(
            self, tmp_path, monkeypatch):
        # both betas of a (density, k) share each cell chunk's kernel
        # tables; one pass per point would make 12 calls and 240 builds
        real = experiments.overall_coverage
        calls, builds = [], []

        def counted(threshold, k, theta_u, beta, cfg):
            calls.append((cfg.bs_density, k, tuple(np.ravel(beta))))
            return real(threshold, k, theta_u, beta, cfg)

        class CountedTables(coverage._InterferenceTables):
            def __init__(self, *args, **kwargs):
                builds.append(None)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiments, "overall_coverage", counted)
        monkeypatch.setattr(coverage, "_InterferenceTables", CountedTables)
        run_experiment(ExperimentSpec("validate-analytical", out_dir=tmp_path,
                                      overrides={"experiment.trials": 1000}))
        assert calls == [(lam, k, (0.5, 0.9)) for lam in (0.005, 0.02, 0.1)
                         for k in (4, 16)]
        # per density, 8 chunks of 8 cells at k = 4 and 32 of 2 at k = 16
        assert len(builds) == 120
