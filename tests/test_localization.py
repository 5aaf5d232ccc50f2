"""Localization bounds and the beam-selection / misalignment probabilities."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from mmwloc import NetworkConfig, localization
from mmwloc.antenna import main_lobe_gain
from mmwloc.errors import ConfigError
from mmwloc.dictionary import beam_boundaries
from mmwloc.localization import (
    _aoa_factor,
    avg_beam_selection_error,
    avg_misalignment_error,
    aoa_variance,
    beam_selection_profile,
    nu_threshold,
    observation_energy,
    p_misalignment,
    ranging_variance,
)
from mmwloc.optimizer import ue_beamwidth_for_dictionary


def qf(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


@pytest.fixture
def cfg():
    return NetworkConfig()


def projected_derivative_residual(m: int, h: float = 1e-7) -> float:
    """||da||^2 - |<a, da>|^2 / ||a||^2 at boresight by direct complex sums,
    for the unit-norm half-wavelength ULA response
    a(psi)_n = exp(i pi n sin psi) / sqrt(m) and da by central differences.
    Their truncation error is about (pi m h)^2 / 6 relative."""
    def response(psi):
        return np.exp(1j * math.pi * np.arange(m) * math.sin(psi)) / math.sqrt(m)
    a = response(0.0)
    da = (response(h) - response(-h)) / (2 * h)
    return (np.vdot(da, da).real
            - abs(np.vdot(a, da)) ** 2 / np.vdot(a, a).real)


class TestRangingBound:
    def test_halving_with_doubled_observation(self, cfg):
        gamma_b, gamma_u = main_lobe_gain(0.3, cfg), main_lobe_gain(math.pi / 4, cfg)
        base = ranging_variance(8.0, gamma_b, gamma_u, 0.5, cfg)
        doubled = ranging_variance(8.0, gamma_b, gamma_u, 0.5,
                                   cfg.with_overrides(t_frame=2 * cfg.t_frame))
        assert doubled == pytest.approx(base / 2, rel=1e-12)

    def test_strictly_increasing_with_distance(self, cfg):
        gamma_b, gamma_u = main_lobe_gain(0.3, cfg), main_lobe_gain(math.pi / 4, cfg)
        values = ranging_variance(np.array([1.0, 5.0, 15.0, 19.0, 25.0, 60.0]),
                                  gamma_b, gamma_u, 0.5, cfg)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_hand_evaluation(self, cfg):
        # independent scalar re-derivation of the ranging variance
        d, tb, beta = 15.0, math.pi / 4, 0.5
        z2 = d * d + cfg.h_b ** 2
        zeta = (2 * cfg.k_pl * cfg.p_t * z2 ** -1.0
                * (1 - beta) * cfg.t_frame / cfg.noise_psd)
        gain = cfg.g0 * (2 * math.pi - (2 * math.pi - tb) * cfg.eps_sidelobe) / tb
        c = 299792458.0
        expected = 1.0 / (zeta * gain * gain
                          * cfg.pilot_bandwidth ** 2 * math.pi ** 2 / (3 * c * c))
        assert ranging_variance(d, gain, gain, beta, cfg) == pytest.approx(
            expected, rel=1e-12)


class TestAoaBound:
    def test_factor_matches_projected_derivative_residual(self, cfg):
        # the truncation reaches 1.9e-9 relative at m = 256; closed forms
        # such as pi^2 m^2 / 12 miss by 1 / m^2, 1.5e-5 there
        for m in (*range(1, 65), 128, 256):
            factor = _aoa_factor(m)
            assert type(factor) is float
            assert factor == pytest.approx(projected_derivative_residual(m),
                                           rel=1e-8, abs=0.0)
        assert _aoa_factor(1) == 0.0
        assert aoa_variance(5.0, main_lobe_gain(0.3, cfg), math.pi / 4, 0.5,
                            cfg.with_overrides(ue_sounding_elements=1)
                            ) == math.inf

    # the closed form takes any number: 2.5 would give a finite variance,
    # so the element count is checked where it enters, at the config
    @pytest.mark.parametrize("count", [0, -1, 2.5, math.nan, math.inf])
    def test_bad_element_count_rejected(self, cfg, count):
        with pytest.raises(ConfigError, match="ue_sounding_elements"):
            cfg.with_overrides(ue_sounding_elements=count)

    def test_single_element_unidentifiable(self, cfg):
        # a 2*pi UE beam is one element: no angle information at all
        assert aoa_variance(5.0, main_lobe_gain(0.3, cfg), 2 * math.pi, 0.5,
                            cfg) == math.inf

    def test_more_aperture_helps(self):
        # cap lifted so the aperture follows the beamwidth (4 vs 8 elements)
        cfg = NetworkConfig(ue_sounding_elements=64)
        gamma_b = main_lobe_gain(0.3, cfg)
        wide = aoa_variance(5.0, gamma_b, math.pi / 2, 0.5, cfg)    # 4 elements
        narrow = aoa_variance(5.0, gamma_b, math.pi / 4, 0.5, cfg)  # 8 elements
        assert narrow < wide

    def test_inverse_linearity_in_energy(self, cfg):
        gamma_b = main_lobe_gain(0.3, cfg)
        base = aoa_variance(5.0, gamma_b, math.pi / 4, 0.5,
                            cfg.with_overrides(aoa_sounding_time=1e-6))
        quadrupled = aoa_variance(5.0, gamma_b, math.pi / 4, 0.5,
                                  cfg.with_overrides(aoa_sounding_time=4e-6))
        assert quadrupled == pytest.approx(base / 4, rel=1e-12)

    def test_angle_independent_of_position_angle(self, cfg):
        # the bound is taken at boresight: depends on d only through energy
        var = aoa_variance(5.0, main_lobe_gain(0.3, cfg), math.pi / 4, 0.5, cfg)
        assert var > 0.0 and math.isfinite(var)

    def test_gain_array_matches_scalar_calls(self, cfg):
        # P beam gains give P entries, each bit-identical to the scalar
        # call at that gain; m == 1 stays inf
        gamma_b = main_lobe_gain(np.array([0.05, 0.3, 1.2]), cfg)
        for x, beta, window in ((5.0, 0.0, {"aoa_sounding_time": 1.43e-8}),
                                (35.0, 0.5, {}), (0.0, 1.0, {})):
            for m in (1, 2, 5, 64):
                # a 0.01 rad beam has 629 elements: the cap m sets the aperture
                capped = cfg.with_overrides(ue_sounding_elements=m, **window)
                row = aoa_variance(x, gamma_b, 0.01, beta, capped)
                assert row.shape == (3,)
                for j, g in enumerate(gamma_b):
                    single = aoa_variance(x, float(g), 0.01, beta, capped)
                    assert isinstance(single, float)
                    assert row[j] == single
                assert m > 1 or np.isinf(row).all()

    def test_scalar_elements_path(self, cfg):
        gamma_b = main_lobe_gain(0.3, cfg)
        assert aoa_variance(5.0, gamma_b, math.pi / 4, 0.5,
                            cfg.with_overrides(ue_sounding_elements=1)
                            ) == math.inf
        # the pi/4 beam's 8 elements, uncapped
        got = aoa_variance(5.0, gamma_b, math.pi / 4, 0.5,
                           cfg.with_overrides(ue_sounding_elements=8))
        zeta = observation_energy(5.0, 0.5, cfg, cfg.aoa_sounding_time)
        assert got == 1.0 / (zeta * gamma_b * (math.pi * math.pi * 63 / 12.0))

    def test_beta_starves_sounding(self, cfg):
        gamma_b = main_lobe_gain(0.3, cfg)
        near_one = aoa_variance(5.0, gamma_b, math.pi / 4, 1.0 - 1e-9, cfg)
        mid = aoa_variance(5.0, gamma_b, math.pi / 4, 0.5, cfg)
        assert near_one > mid * 1e3


class TestBeamSelectionProbability:
    def test_example_value(self):
        # 1 - Q((0-2)/2) + Q((4.1421-2)/2), computed from erfc directly
        left, right = beam_boundaries(10.0, 10.0, 2)[:2]
        expected = 1.0 - qf((left - 2.0) / 2.0) + qf((right - 2.0) / 2.0)
        got = beam_selection_profile(2.0, 2.0, left, right)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.3008, abs=2e-4)

    def test_perfect_ranging_interior(self):
        left, right = beam_boundaries(10.0, 10.0, 2)[:2]
        assert beam_selection_profile(2.0, 0.0, left, right) == 0.0

    def test_boundary_with_tiny_sigma(self):
        left, right = beam_boundaries(10.0, 10.0, 2)[1:]
        for sigma in (1e-9, 0.0):
            assert beam_selection_profile(left, sigma, left,
                                          right) == pytest.approx(0.5, abs=1e-6)

    def test_complement_is_exact(self):
        rng = np.random.default_rng(23)
        left, right = beam_boundaries(30.0, 10.0, 4)[2:4]
        for _ in range(50):
            d = rng.uniform(left, right)
            sigma = rng.uniform(0.01, 20.0)
            p_err = beam_selection_profile(d, sigma, left, right)
            p_ok = qf((left - d) / sigma) - qf((right - d) / sigma)
            assert p_err + p_ok == pytest.approx(1.0, abs=1e-12)

    def test_minimized_at_interior_symmetric_point(self):
        left, right = beam_boundaries(30.0, 10.0, 4)[1:3]
        mid = 0.5 * (left + right)
        xs = np.linspace(left, right, 101)
        vals = beam_selection_profile(xs, 1.0, left, right)
        assert abs(xs[int(np.argmin(vals))] - mid) < ((right - left) / 50)
        assert vals[0] > min(vals) and vals[-1] > min(vals)


class TestMisalignmentProbability:
    def test_zero_threshold(self):
        assert p_misalignment(0.04, 0.0) == 1.0

    def test_perfect_estimate(self):
        assert p_misalignment(0.0, 0.1) == 0.0

    def test_unit_ratio(self):
        assert p_misalignment(0.01, 0.1) == pytest.approx(2 * qf(1.0), rel=1e-12)
        assert p_misalignment(0.01, 0.1) == pytest.approx(0.3173, abs=1e-4)

    def test_nu_rules(self):
        assert nu_threshold(0.5) == 0.25


class TestAveragedErrors:
    def test_single_row_never_misselects(self, cfg):
        assert avg_beam_selection_error(1, 0.5, math.pi / 4, cfg) == 0.0

    def test_no_localization_resources(self, cfg):
        assert avg_beam_selection_error(8, 1.0, math.pi / 4, cfg) == 1.0
        assert avg_misalignment_error(8, math.pi / 4, 1.0, cfg) == 1.0

    def test_probabilities_in_unit_interval(self, cfg):
        for k in (1, 2, 5, 16):
            tu = ue_beamwidth_for_dictionary(k, cfg)
            for beta in (0.1, 0.5, 0.9):
                for value in (avg_beam_selection_error(k, beta, tu, cfg),
                              avg_misalignment_error(k, tu, beta, cfg)):
                    assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("k", [1, 2, 8, 32, 64])
    def test_beta_batch_matches_single_calls(self, cfg, k):
        # 2 betas per slice at k = 2, one beta on an eighth of the cells at
        # k = 32 and on a sixteenth at k = 64; beta = 0.999 is the one beta
        # here whose sounding window is cut short
        tu = ue_beamwidth_for_dictionary(k, cfg)
        betas = np.array([0.02, 0.3, 0.5, 0.98, 1.0, 0.999] + [0.44] * 40)
        batches = (avg_beam_selection_error(k, betas, tu, cfg),
                   avg_misalignment_error(k, tu, betas, cfg))
        for i, beta in enumerate(betas):
            singles = (avg_beam_selection_error(k, beta, tu, cfg),
                       avg_misalignment_error(k, tu, beta, cfg))
            for batch, single in zip(batches, singles):
                assert batch.shape == betas.shape
                assert isinstance(single, float) and single == batch[i]
        # beta = 1 leaves no localization resources
        assert batches[1][4] == 1.0
        assert batches[1][5] > batches[1][3]

    @pytest.mark.parametrize("k", [1, 2, 32])
    def test_same_bits_at_any_budget(self, cfg, k, monkeypatch):
        # 2^16 is the former budget, 2^13 the default, and 16 entries
        # less than one cell of any row here, so each chunk is one cell and
        # each slice one beta
        tu = ue_beamwidth_for_dictionary(k, cfg)
        betas = np.array([0.02, 0.3, 0.5, 0.9, 0.999, 1.0])
        values = []
        for budget in (2 ** 16, 2 ** 13, 16):
            monkeypatch.setattr(localization, "_AVG_CHUNK_ENTRIES", budget)
            values.append((avg_beam_selection_error(k, betas, tu, cfg),
                           avg_misalignment_error(k, tu, betas, cfg)))
        for bs, ma in values[1:]:
            assert np.array_equal(bs, values[0][0])
            assert np.array_equal(ma, values[0][1])

    def test_beam_selection_grows_with_beta(self, cfg):
        tu = ue_beamwidth_for_dictionary(8, cfg)
        values = [avg_beam_selection_error(8, b, tu, cfg) for b in (0.2, 0.5, 0.8)]
        assert values[0] < values[1] < values[2]

    def test_stepped_non_monotonicity_over_k(self, cfg):
        # at least one interior local maximum across k in [2, 32]
        values = [avg_beam_selection_error(k, 0.5,
                                           ue_beamwidth_for_dictionary(k, cfg), cfg)
                  for k in range(2, 33)]
        interior_max = any(values[i - 1] < values[i] > values[i + 1]
                           for i in range(1, len(values) - 1))
        assert interior_max

    def test_matches_monte_carlo_quickly(self, cfg):
        # module-level sanity at 2e5 draws; the acceptance suite runs 1e6
        from mmwloc.montecarlo import simulate_error_probabilities
        tu = ue_beamwidth_for_dictionary(8, cfg)
        a_bs = avg_beam_selection_error(8, 0.5, tu, cfg)
        a_ma = avg_misalignment_error(8, tu, 0.5, cfg)
        mc = simulate_error_probabilities(8, 0.5, tu, cfg, 200_000, seed=7)
        assert abs(a_bs - mc["p_bs"]) <= 3 * mc["stderr_bs"]
        assert abs(a_ma - mc["p_ma"]) <= 3 * mc["stderr_ma"]


class TestObservationEnergy:
    def test_gain_free_and_bandwidth_free(self, cfg):
        # zeta collapses to 2*K*Pt*z^-alpha*T_obs/N0
        z2 = 5.0 ** 2 + cfg.h_b ** 2
        expected = (2 * cfg.k_pl * cfg.p_t * z2 ** -1.0
                    * 0.5 * cfg.t_frame / cfg.noise_psd)
        assert observation_energy(5.0, 0.5, cfg) == pytest.approx(expected, rel=1e-12)

    def test_vectorized_los_nlos_switch(self, cfg):
        x = np.array([5.0, 30.0])
        z2 = x * x + cfg.h_b ** 2
        vals = observation_energy(x, 0.5, cfg)
        ratio = vals[0] / vals[1]
        assert ratio == pytest.approx((z2[1] ** 2 / z2[0])
                                      * (cfg.k_pl / cfg.k_pl), rel=1e-9)

    def test_ranging_variance_infinite_without_time(self, cfg):
        assert math.isinf(ranging_variance(5.0, 100.0, 100.0, 1.0, cfg))

    def test_beta_column_matches_scalar_calls(self, cfg):
        # a (B, 1) column of betas against P positions gives (B, P), each
        # row bit-identical to the scalar-beta call
        x = np.array([0.0, 5.0, 19.9, 20.0, 35.0, 120.0])
        betas = np.array([0.02, 0.5, 0.9994, 1.0])
        gamma_b = main_lobe_gain(np.array([0.1, 0.1, 0.2, 0.2, 0.3, 0.3]), cfg)
        batched = (observation_energy(x, betas[:, None], cfg),
                   ranging_variance(x, gamma_b, 50.0, betas[:, None], cfg),
                   aoa_variance(x, gamma_b, math.pi / 8, betas[:, None], cfg))
        for i, beta in enumerate(betas):
            single = (observation_energy(x, beta, cfg),
                      ranging_variance(x, gamma_b, 50.0, beta, cfg),
                      aoa_variance(x, gamma_b, math.pi / 8, beta, cfg))
            for got, want in zip(batched, single):
                assert got.shape == (len(betas), len(x))
                assert np.array_equal(got[i], want)

    def test_each_entry_has_the_bits_of_its_own_call(self, cfg):
        # the access loop computes a chunk's energies in one call; each
        # must have the bits of the user's own call, at the LOS-ball edge
        # and its neighbors too, and so must each row of a beta column
        rng = np.random.default_rng(12)
        x = np.concatenate([
            [0.0, cfg.d_s, np.nextafter(cfg.d_s, -np.inf),
             np.nextafter(cfg.d_s, np.inf), 1e6],
            rng.uniform(0.0, 3.0 * cfg.d_s, 2000)])
        betas = np.array([0.0, 0.02, 0.5, 0.9994])
        batched = (observation_energy(x, betas[:, None], cfg),
                   observation_energy(x, 0.0, cfg, 1e-5))
        for i, beta in enumerate(betas.tolist()):
            single = [observation_energy(v, beta, cfg) for v in x.tolist()]
            assert batched[0][i].tolist() == single
        assert batched[1].tolist() == [observation_energy(v, 0.0, cfg, 1e-5)
                                       for v in x.tolist()]

    def test_negative_observation_time_in_a_batch_rejected(self, cfg):
        with pytest.raises(ValueError):
            observation_energy(5.0, np.array([0.5, 1.5]), cfg)

    def test_linear_in_transmit_power(self, cfg):
        x = np.array([0.0, 10.0, 40.0])
        base = observation_energy(x, 0.5, cfg)
        doubled = observation_energy(x, 0.5, cfg.with_overrides(p_t=2 * cfg.p_t))
        np.testing.assert_allclose(doubled, 2 * base, rtol=1e-14)

    def test_overhead_point(self, cfg):
        # x = 0: slant range h_b, LOS exponent, explicit observation time
        expected = (2 * cfg.k_pl * cfg.p_t * cfg.h_b ** (-cfg.alpha_los)
                    * 1e-4 / cfg.noise_psd)
        got = observation_energy(0.0, 0.5, cfg, observation_time=1e-4)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_nlos_hand_evaluation_at_30m(self, cfg):
        z2 = 30.0 ** 2 + cfg.h_b ** 2
        expected = (2 * cfg.k_pl * cfg.p_t * z2 ** -2.0
                    * 0.25 * cfg.t_frame / cfg.noise_psd)
        assert observation_energy(30.0, 0.75, cfg) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_distance(self, cfg):
        # within each propagation class; the LOS-ball edge is a drop too
        x = np.array([0.0, 5.0, 10.0, 19.0, 20.0, 21.0, 30.0, 60.0])
        assert np.all(np.diff(observation_energy(x, 0.5, cfg)) < 0.0)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda cfg: observation_energy(5.0, NAN, cfg),
    lambda cfg: observation_energy(5.0, 0.5, cfg, observation_time=NAN),
    lambda cfg: avg_beam_selection_error(4, NAN, math.pi / 8, cfg),
    lambda cfg: avg_misalignment_error(4, math.pi / 8, NAN, cfg),
    lambda cfg: avg_misalignment_error(4, math.pi / 8, np.array([0.5, NAN]), cfg),
], ids=["energy-beta", "energy-time", "avg-bs", "avg-ma", "avg-ma-batch"])
def test_nan_partition_rejected(cfg, call):
    # a NaN observation time used to pass the "< 0" check and read as no
    # information: infinite variances and an error probability of 1
    with pytest.raises(ValueError):
        call(cfg)
