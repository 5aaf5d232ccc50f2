"""Two-stage optimization: feasibility handling, invariances, refinement."""

import numpy as np
import pytest

from mmwloc import NetworkConfig, OptimizationSpec, optimize_beamwidth, optimize_beta
from mmwloc.coverage import rate_coverage
from mmwloc.optimizer import default_beta_grid, ue_beamwidth_for_dictionary

COARSE = tuple(np.round(np.arange(0.1, 1.0001, 0.1), 10))


@pytest.fixture
def cfg():
    return NetworkConfig()


class TestUeBeamPairing:
    def test_within_grid(self, cfg):
        from mmwloc.initial_access import UE_GRID
        for k in (1, 2, 8, 32):
            assert ue_beamwidth_for_dictionary(k, cfg) in UE_GRID

    def test_wider_at_higher_noise(self, cfg):
        noisy = cfg.with_overrides(noise_psd=10 * cfg.noise_psd)
        for k in (2, 8, 32):
            assert (ue_beamwidth_for_dictionary(k, noisy)
                    >= ue_beamwidth_for_dictionary(k, cfg))


class TestOptimizeBeta:
    def test_vacuous_caps_reduce_to_plain_argmax(self, cfg):
        spec = OptimizationSpec(eps_bs=0.999999, eps_ma=0.999999,
                                beta_grid=COARSE, k_candidates=(4,))
        row = optimize_beta(4, spec, cfg)
        tu = ue_beamwidth_for_dictionary(4, cfg)
        objective = {b: rate_coverage(spec.r0, b, 4, tu, cfg) for b in COARSE}
        best = max(objective, key=lambda b: (objective[b], b))
        assert row.feasible
        assert row.beta_star == pytest.approx(best)
        assert row.objective == pytest.approx(objective[best], rel=1e-12)

    def test_impossible_caps_infeasible(self, cfg):
        spec = OptimizationSpec(eps_bs=1e-9, eps_ma=1e-9, beta_grid=COARSE,
                                k_candidates=(8,))
        row = optimize_beta(8, spec, cfg)
        assert not row.feasible
        assert row.beta_star is None and row.objective is None

    def test_tie_break_prefers_larger_beta(self, cfg):
        # beta = 1.0 is infeasible (no pilots); among equal objectives the
        # larger beta wins by construction of the scan
        spec = OptimizationSpec(beta_grid=COARSE, k_candidates=(4,))
        row = optimize_beta(4, spec, cfg)
        tu = row.theta_u
        equal_or_better = [b for b in COARSE
                           if b > row.beta_star
                           and rate_coverage(spec.r0, b, 4, tu, cfg)
                           >= row.objective - 1e-15]
        # any beta beyond the winner with an equal objective must be infeasible
        from mmwloc.localization import avg_beam_selection_error, avg_misalignment_error
        for b in equal_or_better:
            infeasible = (avg_beam_selection_error(4, b, tu, cfg) > spec.eps_bs
                          or avg_misalignment_error(4, tu, b, cfg) > spec.eps_ma)
            assert infeasible

    def test_refinement_oracle(self, cfg):
        # a 4x finer grid may move beta* by at most one coarse cell and
        # cannot beat the coarse objective by more than the local slack
        coarse = tuple(np.round(np.arange(0.08, 1.0001, 0.08), 10))
        fine = tuple(np.round(np.arange(0.02, 1.0001, 0.02), 10))
        base = optimize_beta(8, OptimizationSpec(beta_grid=coarse,
                                                 k_candidates=(8,)), cfg)
        refined = optimize_beta(8, OptimizationSpec(beta_grid=fine,
                                                    k_candidates=(8,)), cfg)
        assert abs(refined.beta_star - base.beta_star) <= 0.08 + 1e-12
        assert refined.objective >= base.objective - 1e-12
        assert refined.objective - base.objective < 0.02


class TestOptimizeBeamwidth:
    def test_single_candidate_reduces_to_inner_stage(self, cfg):
        spec = OptimizationSpec(beta_grid=COARSE, k_candidates=(8,))
        outer = optimize_beamwidth(spec, cfg)
        inner = optimize_beta(8, spec, cfg)
        assert outer.k_star == 8
        assert outer.beta_star == inner.beta_star
        assert outer.objective == inner.objective

    def test_reported_optimum_reproducible(self, cfg):
        spec = OptimizationSpec(beta_grid=COARSE, k_candidates=(2, 8))
        res = optimize_beamwidth(spec, cfg)
        tu = ue_beamwidth_for_dictionary(res.k_star, cfg)
        again = rate_coverage(spec.r0, res.beta_star, res.k_star, tu, cfg)
        assert again == res.objective

    def test_enlarging_caps_never_hurts(self, cfg):
        tight = OptimizationSpec(eps_bs=0.05, eps_ma=0.05, beta_grid=COARSE,
                                 k_candidates=(2, 8))
        loose = OptimizationSpec(eps_bs=0.2, eps_ma=0.2, beta_grid=COARSE,
                                 k_candidates=(2, 8))
        r_tight = optimize_beamwidth(tight, cfg)
        r_loose = optimize_beamwidth(loose, cfg)
        assert r_loose.feasible
        if r_tight.feasible:
            assert r_loose.objective >= r_tight.objective - 1e-12
        assert r_loose.feasible_set_size >= r_tight.feasible_set_size

    def test_argmax_invariant_under_power_noise_coscaling(self, cfg):
        # scaling Pt and N0 together leaves every SNR unchanged
        spec = OptimizationSpec(beta_grid=COARSE, k_candidates=(2, 8))
        base = optimize_beamwidth(spec, cfg)
        scaled_cfg = cfg.with_overrides(p_t=10 * cfg.p_t,
                                        noise_psd=10 * cfg.noise_psd)
        scaled = optimize_beamwidth(spec, scaled_cfg)
        assert (base.k_star, base.beta_star) == (scaled.k_star, scaled.beta_star)
        assert base.objective == pytest.approx(scaled.objective, rel=1e-9)

    def test_all_infeasible_explicit(self, cfg):
        spec = OptimizationSpec(eps_bs=1e-9, eps_ma=1e-9, beta_grid=COARSE,
                                k_candidates=(4, 8))
        res = optimize_beamwidth(spec, cfg)
        assert not res.feasible
        assert res.k_star is None and res.theta_star is None
        assert res.feasible_set_size == 0
        assert len(res.per_k_table) == 2

    def test_default_grid(self):
        grid = default_beta_grid()
        assert grid[0] == pytest.approx(0.02)
        assert grid[-1] == pytest.approx(1.0)
        assert len(grid) == 50
