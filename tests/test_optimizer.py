"""Two-stage optimization: feasibility handling, invariances, refinement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_coverage import CONFIGS

from mmwloc import (
    NetworkConfig,
    OptimizationSpec,
    coverage,
    optimize_beamwidth,
    optimize_beta,
    optimizer,
)
from mmwloc.coverage import overall_coverage, rate_coverage, rate_to_sinr_threshold
from mmwloc.localization import (
    _sounding_time,
    avg_beam_selection_error,
    avg_misalignment_error,
)
from mmwloc.optimizer import (
    BetaOptimum,
    default_beta_grid,
    ue_beamwidth_for_dictionary,
)

COARSE = tuple(np.round(np.arange(0.1, 1.0001, 0.1), 10))


def _full_scan_reference(k, spec, cfg):
    """optimize_beta as a scan of the whole grid: both averages at every
    beta, any feasible set (not only a prefix), one coverage pass over it."""
    theta_u = ue_beamwidth_for_dictionary(k, cfg)
    betas = np.array(spec.beta_grid, dtype=float)
    p_bs = avg_beam_selection_error(k, betas, theta_u, cfg)
    p_ma = avg_misalignment_error(k, theta_u, betas, cfg)
    feasible = np.flatnonzero((p_bs <= spec.eps_bs) & (p_ma <= spec.eps_ma))
    if not feasible.size:
        return BetaOptimum(k=k, theta_u=theta_u, feasible=False, beta_star=None,
                           objective=None, p_bs=None, p_ma=None, feasible_count=0)
    objectives = rate_coverage(spec.r0, betas[feasible], k, theta_u, cfg)
    best = max(range(feasible.size), key=lambda i: (objectives[i], i))
    i = feasible[best]
    return BetaOptimum(k=k, theta_u=theta_u, feasible=True,
                       beta_star=spec.beta_grid[i],
                       objective=float(objectives[best]), p_bs=float(p_bs[i]),
                       p_ma=float(p_ma[i]), feasible_count=int(feasible.size))


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


class TestBisectionMatchesFullScan:
    # the bisection may only skip work: every field, floats included, must
    # equal the full scan's bit for bit
    @settings(max_examples=25, deadline=None)
    @given(cfg=CONFIGS, k=st.integers(1, 16),
           eps_bs=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           eps_ma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_random_configs_and_caps(self, cfg, k, eps_bs, eps_ma):
        spec = OptimizationSpec(eps_bs=eps_bs, eps_ma=eps_ma, beta_grid=COARSE)
        assert optimize_beta(k, spec, cfg) == _full_scan_reference(k, spec, cfg)

    @pytest.mark.parametrize("k", [1, 8, 32])
    def test_default_grid(self, cfg, k):
        spec = OptimizationSpec()
        row = optimize_beta(k, spec, cfg)
        assert row == _full_scan_reference(k, spec, cfg)
        assert 0 < row.feasible_count < len(spec.beta_grid)


class TestWorkCounts:
    # a regression back to the full scan, or to one misalignment profile per
    # pair, fails here and not only in the benchmark
    @pytest.mark.parametrize("eps", [0.1, 0.999999])
    def test_bisection_calls_beam_selection_per_beta(self, cfg, monkeypatch,
                                                     eps):
        real = optimizer.avg_beam_selection_error
        betas_seen = []

        def counted(k, beta, theta_u, cfg):
            betas_seen.append(beta)
            return real(k, beta, theta_u, cfg)

        monkeypatch.setattr(optimizer, "avg_beam_selection_error", counted)
        spec = OptimizationSpec(eps_bs=eps, eps_ma=eps)
        row = optimize_beta(8, spec, cfg)
        assert row.feasible
        assert 0 < len(betas_seen) <= math.ceil(math.log2(51)) + 1
        assert all(np.ndim(beta) == 0 for beta in betas_seen)

    def test_coverage_pass_one_misalignment_row_per_window(self, cfg,
                                                           monkeypatch):
        # one row per distinct window and cell chunk, kept across the
        # chunk's pair slices (the grid's windows are contiguous in beta)
        real_mixture = coverage._mixture_values
        real_ma = coverage.misalignment_error
        real_tables = coverage._InterferenceTables
        chunks, slices, rows = [], [], []

        class CountedTables(real_tables):
            def __init__(self, *args, **kwargs):
                chunks.append(None)
                super().__init__(*args, **kwargs)

        def mixture(*args, **kwargs):
            slices.append(None)
            return real_mixture(*args, **kwargs)

        def misalignment(x, gamma_b, theta_u, beta, cfg):
            windows = _sounding_time(np.ravel(beta), cfg)
            assert np.unique(windows).size == windows.size
            rows.append((len(chunks), windows.size))
            return real_ma(x, gamma_b, theta_u, beta, cfg)

        monkeypatch.setattr(coverage, "_mixture_values", mixture)
        monkeypatch.setattr(coverage, "misalignment_error", misalignment)
        monkeypatch.setattr(coverage, "_InterferenceTables", CountedTables)
        betas = np.array(default_beta_grid())
        k, tu = 4, ue_beamwidth_for_dictionary(4, cfg)
        overall_coverage(rate_to_sinr_threshold(1.0e8, betas, cfg), k, tu,
                         betas, cfg)
        distinct = np.unique(_sounding_time(betas, cfg)).size
        assert distinct < betas.size
        assert len(slices) > len(chunks) > 0
        per_chunk = [sum(n for chunk, n in rows if chunk == c)
                     for c in range(1, len(chunks) + 1)]
        assert per_chunk == [distinct] * len(chunks)


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


class TestBetaGrids:
    # the goldens and the benchmark read these two grids
    @pytest.mark.parametrize("step, n", [(0.02, 50), (0.1, 10)])
    def test_dividing_steps_unchanged(self, step, n):
        assert default_beta_grid(step) == tuple(round(i * step, 10)
                                                for i in range(1, n + 1))

    @pytest.mark.parametrize("step, last", [
        (0.6, 0.6), (0.35, 0.7), (0.26, 0.78), (0.3, 0.9), (0.07, 0.98),
        (0.45, 0.9), (1.0 / 3.0, 1.0)])
    def test_non_dividing_steps_stop_at_one(self, step, last):
        grid = default_beta_grid(step)
        assert grid == tuple(round(i * step, 10)
                             for i in range(1, len(grid) + 1))
        assert grid[-1] == last
        assert OptimizationSpec(beta_grid=grid).beta_grid == grid

    @pytest.mark.parametrize("grid", [
        (0.2, 0.1, 0.3), (0.1, 0.1, 0.2), (0.0, 0.5), (0.5, 1.2),
        (-0.1, 0.5), (0.1, float("nan"), 0.5), (float("nan"),)],
        ids=["unsorted", "repeated", "zero", "above-one", "negative",
             "nan-inside", "nan"])
    def test_spec_rejects_grid(self, grid):
        with pytest.raises(ValueError, match="beta grid"):
            OptimizationSpec(beta_grid=grid)
