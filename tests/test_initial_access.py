"""Initial-access refinement loop, beam selection rules, baseline delays."""

import math

import numpy as np
import pytest

from mmwloc import AccessPolicy, NetworkConfig, build_dictionary
from mmwloc.initial_access import (
    DEFAULT_UE_GRID,
    delay_exhaustive,
    delay_iterative,
    run_initial_access,
    select_bs_beam,
    select_ue_beam,
)
from mmwloc.localization import p_beam_selection


@pytest.fixture
def cfg():
    return NetworkConfig()


class TestSelectBsBeam:
    def test_perfect_ranging_takes_thinnest(self):
        d = build_dictionary(100.0, 10.0, 32)
        k, j = select_bs_beam(d, 50.0, 0.0, 0.05)
        assert k == 32

    def test_vacuous_cap_takes_thinnest(self):
        d = build_dictionary(100.0, 10.0, 32)
        k, _ = select_bs_beam(d, 50.0, 25.0, 1.0)
        assert k == 32

    def test_matches_exhaustive_row_scan(self):
        # oracle: scan every row, evaluate the containing beam directly
        d = build_dictionary(100.0, 10.0, 64)
        d_hat, sigma_d2, cap = 50.0, 25.0, 0.1
        best = 1
        for k in range(2, 65):
            row = d.row(k)
            beam = next(b for b in row
                        if b.d_left <= d_hat <= b.d_right
                        and (d_hat < b.d_right or b.j == k))
            if p_beam_selection(d_hat, sigma_d2, beam) <= cap:
                best = max(best, k)
        got_k, got_j = select_bs_beam(d, d_hat, sigma_d2, cap)
        assert got_k == best
        assert d.row(got_k)[got_j - 1].d_left <= d_hat <= d.row(got_k)[got_j - 1].d_right

    def test_out_of_cell_falls_back(self):
        d = build_dictionary(100.0, 10.0, 16)
        assert select_bs_beam(d, 120.0, 1.0, 0.05) == (1, 1)
        assert select_bs_beam(d, -3.0, 1.0, 0.05) == (1, 1)


class TestSelectUeBeam:
    def test_perfect_estimate_takes_thinnest(self):
        assert select_ue_beam(0.0, 0.05) == min(DEFAULT_UE_GRID)

    def test_vacuous_cap_takes_thinnest(self):
        assert select_ue_beam(0.5, 1.0) == min(DEFAULT_UE_GRID)

    def test_q_inverse_example(self):
        # sigma = 0.05 rad, cap 0.1 under the UE-lobe rule: need
        # theta/2 >= sigma * Qinv(0.05) = 0.0822 -> thinnest grid is pi/16
        got = select_ue_beam(0.05 ** 2, 0.1)
        assert got == pytest.approx(math.pi / 16)

    def test_fallback_to_widest(self):
        assert select_ue_beam(10.0, 1e-6) == max(DEFAULT_UE_GRID)
        assert select_ue_beam(math.inf, 0.05) == max(DEFAULT_UE_GRID)


class TestRefinementLoop:
    def test_loose_targets_terminate_immediately(self, cfg):
        pol = AccessPolicy(delta_d=1e6, delta_psi=math.pi)
        trace = run_initial_access(5.0, 10.0, pol, cfg)
        assert trace.total_symbols == 1
        assert trace.terminated == "accuracy_met"

    def test_tighter_target_never_faster(self, cfg):
        steps = []
        for delta in (1.0, 0.1, 0.01, 0.001):
            pol = AccessPolicy(delta_d=delta, max_steps=400)
            steps.append(run_initial_access(15.0, 30.0, pol, cfg).total_symbols)
        assert all(a <= b for a, b in zip(steps, steps[1:]))

    def test_ranging_variance_non_increasing(self, cfg):
        pol = AccessPolicy(delta_d=0.01)
        trace = run_initial_access(15.0, 30.0, pol, cfg)
        sig = [s.sigma_d2 for s in trace.steps]
        assert all(a >= b for a, b in zip(sig, sig[1:]))

    def test_delay_accounting(self, cfg):
        pol = AccessPolicy(delta_d=0.05)
        trace = run_initial_access(15.0, 30.0, pol, cfg)
        assert trace.total_delay == pytest.approx(
            trace.total_symbols * pol.symbol_duration)
        assert [s.side for s in trace.steps[:2]] == ["BS", "UE"]

    def test_step_budget_flagged(self, cfg):
        pol = AccessPolicy(delta_d=1e-9, max_steps=6)
        trace = run_initial_access(15.0, 30.0, pol, cfg)
        assert trace.terminated == "max_iter"
        assert trace.total_symbols == 6

    def test_stochastic_mode_reproducible(self, cfg):
        pol = AccessPolicy(delta_d=0.05)
        a = run_initial_access(15.0, 30.0, pol, cfg, mode="stochastic",
                               rng=np.random.default_rng(3))
        b = run_initial_access(15.0, 30.0, pol, cfg, mode="stochastic",
                               rng=np.random.default_rng(3))
        assert a == b

    def test_trace_csv(self, cfg, tmp_path):
        pol = AccessPolicy(delta_d=0.05)
        trace = run_initial_access(15.0, 30.0, pol, cfg)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("iter,side,k,theta_u")
        assert len(lines) == 1 + len(trace.steps)


class TestBaselineDelays:
    def test_exhaustive_grid_example(self):
        # 16 x 16 beam pairs at 14.3 us per symbol
        delay = delay_exhaustive(math.pi / 8, math.pi / 8, 14.3e-6)
        assert delay == pytest.approx(256 * 14.3e-6)
        assert delay == pytest.approx(3.6608e-3)

    def test_omni_pair_single_symbol(self):
        assert delay_exhaustive(2 * math.pi, 2 * math.pi, 14.3e-6) == pytest.approx(14.3e-6)

    def test_rectangular_grid(self):
        assert delay_exhaustive(math.pi / 4, math.pi / 2, 1.0) == pytest.approx(32.0)

    def test_iterative_single_stage(self):
        assert delay_iterative(2, math.pi / 2, 1.0) == pytest.approx(2.0)

    def test_iterative_bs_only(self):
        assert delay_iterative(16, math.pi / 2, 1.0) == pytest.approx(8.0)

    def test_iterative_combined(self):
        # 4 BS halvings + 2 UE halvings, 2 symbols each
        assert delay_iterative(16, math.pi / 8, 1.0) == pytest.approx(12.0)
