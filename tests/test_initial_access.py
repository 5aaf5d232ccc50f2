"""Initial-access refinement loop, beam selection rules, baseline delays."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import AVX512_MASK, dispatch_level
from mmwloc import AccessPolicy, NetworkConfig, initial_access
from mmwloc.antenna import beamwidth_to_elements, main_lobe_gain
from mmwloc.dictionary import beam_boundaries, containing_beam, row_beamwidth
from mmwloc.errors import NumericError
from mmwloc.experiments import access_reference_geometry
from mmwloc.initial_access import (
    UE_GRID,
    AccessStep,
    AccessTrace,
    _last_row,
    _margin_bound,
    _select_row,
    _step_variances,
    _tail_bracket,
    _ue_level,
    access_traces,
    delay_exhaustive,
    delay_iterative,
    run_initial_access,
    select_ue_beam,
)
from mmwloc.localization import (
    aoa_variance,
    beam_selection_profile,
    nu_threshold,
    p_misalignment,
    ranging_variance,
)
from mmwloc.numerics import q_inverse


@pytest.fixture
def cfg():
    return NetworkConfig()


def _table(d_hat, d_a, h_b, n_max):
    """The geometry of one user, as _select_row reads it."""
    return np.array([d_hat]), np.array([d_a]), h_b, n_max


def _margin_rows(d_hat, d_a, h_b, n_max):
    """The margin of d_hat in its beam of each row 2..n_max."""
    _, left, right = containing_beam(d_hat, d_a, h_b, np.arange(2, n_max + 1))
    return np.minimum(d_hat - left, right - d_hat)


def _select(table, sigma_d2, cap, ks, cs):
    """_select_row for a one-user geometry, one entry per (k, c) pair of ks
    and cs (ints or aligned lists)."""
    ks, cs = np.broadcast_arrays(np.array(ks, dtype=int),
                                 np.array(cs, dtype=int))
    got = _select_row(table, np.zeros(ks.size, dtype=int),
                      np.full(ks.size, sigma_d2), cap, ks.ravel(),
                      cs.ravel())
    return got.tolist() if ks.ndim else int(got[0])


def _level(sigma_psi2, cap, level, last):
    """_ue_level for one entry."""
    return int(_ue_level(np.array([sigma_psi2]), cap, np.array([level]),
                         np.array([last]))[0])


class TestSelectBsBeam:
    def test_perfect_ranging_takes_thinnest(self):
        table = _table(50.0, 100.0, 10.0, 32)
        assert _select(table, 0.0, 0.05, 1, 32) == 32

    def test_vacuous_cap_takes_thinnest(self):
        table = _table(50.0, 100.0, 10.0, 32)
        assert _select(table, 25.0, 1.0, 1, 32) == 32

    def test_window_bounds_the_row(self):
        # every row is feasible here: the result is c, or k if c <= k
        table = _table(50.0, 100.0, 10.0, 32)
        assert _select(table, 0.0, 0.05, 4, 6) == 6
        assert _select(table, 0.0, 0.05, 4, 4) == 4
        assert _select(table, 0.0, 0.05, 4, 2) == 2
        # an infinite variance meets no cap: the row stays at k
        assert _select(table, math.inf, 0.05, 4, 6) == 4

    def test_matches_exhaustive_row_scan(self):
        # oracle: scan every row's intervals for the beam holding d_hat,
        # then evaluate that beam directly
        d_hat, sigma_d2, cap = 50.0, 25.0, 0.1
        best = 1
        for k in range(2, 65):
            bounds = beam_boundaries(100.0, 10.0, k).tolist()
            left, right = next((lo, hi) for j, (lo, hi)
                               in enumerate(zip(bounds, bounds[1:]), 1)
                               if lo <= d_hat <= hi and (d_hat < hi or j == k))
            if beam_selection_profile(d_hat, math.sqrt(sigma_d2), left,
                                      right) <= cap:
                best = max(best, k)
        table = _table(d_hat, 100.0, 10.0, 64)
        assert _select(table, sigma_d2, cap, 1, 64) == best
        for k, c in ((1, 2), (1, best), (max(best - 1, 1), min(best + 1, 64)),
                     (best, 64)):
            assert _select(table, sigma_d2, cap, k, c) == _window(best, k, c)

    def test_sure_row_c_costs_one_margin_a_user(self, monkeypatch):
        # the upward scan's first round is row c alone: where that row is
        # surely feasible for every user, the selection computes one
        # margin a user and hands erfc nothing
        sizes = []

        def beam_search(d, *args):
            sizes.append(np.size(d))
            return real_search(d, *args)

        real_search = initial_access.containing_beam
        monkeypatch.setattr(initial_access, "containing_beam", beam_search)
        rng = np.random.default_rng(7)
        d_hat = rng.uniform(0.0, 100.0, 20)
        margin = np.array([_margin_rows(x, 100.0, 10.0, 256) for x in d_hat])
        users, spreads, cs = [], [], []
        for u in range(d_hat.size):
            for sigma_d2 in 10.0 ** rng.uniform(-6.0, 0.0, 5):
                _, hi = _tail_bracket(math.sqrt(sigma_d2), 0.05, 1)
                for c in (2, 3, 8, 64):
                    if margin[u, c - 2] >= hi:
                        users.append(u)
                        spreads.append(sigma_d2)
                        cs.append(c)
        got = _select_row((d_hat, np.full(20, 100.0), 10.0, 256),
                          np.array(users), np.array(spreads), 0.05,
                          np.ones(len(cs), dtype=int), np.array(cs))
        assert got.tolist() == cs
        assert sizes == [len(cs)] and len(cs) > 20


class TestSelectUeBeam:
    def test_perfect_estimate_takes_thinnest(self):
        assert select_ue_beam(0.0, 0.05) == min(UE_GRID)

    def test_vacuous_cap_takes_thinnest(self):
        assert select_ue_beam(0.5, 1.0) == min(UE_GRID)

    def test_q_inverse_example(self):
        # sigma = 0.05 rad, cap 0.1 under the UE-lobe rule: need
        # theta/2 >= sigma * Qinv(0.05) = 0.0822 -> thinnest grid is pi/16
        got = select_ue_beam(0.05 ** 2, 0.1)
        assert got == pytest.approx(math.pi / 16)

    def test_fallback_to_widest(self):
        assert select_ue_beam(10.0, 1e-6) == max(UE_GRID)
        assert select_ue_beam(math.inf, 0.05) == max(UE_GRID)

    # each used to return the widest beam, or the thinnest for cap 2
    @pytest.mark.parametrize("sigma_psi2, cap", [
        (math.nan, 0.05), (0.01, math.nan), (0.01, 0.0), (0.01, -1.0),
        (0.01, 2.0), (-0.01, 0.05)])
    def test_bad_input_rejected(self, sigma_psi2, cap):
        with pytest.raises(ValueError):
            select_ue_beam(sigma_psi2, cap)


class TestRefinementLoop:
    def test_loose_targets_terminate_immediately(self, cfg):
        pol = AccessPolicy(delta_d=1e6, delta_psi=math.pi)
        trace = run_initial_access(5.0, 10.0, pol, cfg)
        assert trace.total_symbols == 1
        assert trace.terminated == "accuracy_met"

    def test_infinite_accuracies_stay_non_binding(self, cfg):
        pol = AccessPolicy(delta_d=math.inf, delta_psi=math.inf)
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

    @pytest.mark.parametrize("d, cell_size", [(15.0, 30.0), (40.0, 80.0)])
    def test_trace_ignores_bs_density(self, cfg, d, cell_size):
        # the access sweeps run every density under one config
        pol = AccessPolicy(delta_d=0.002)
        traces = {repr(run_initial_access(
            d, cell_size, pol, cfg.with_overrides(bs_density=lam)))
            for lam in (1e-4, 0.005, 0.05, 0.2, 5.0)}
        assert len(traces) == 1

    # (1, inf) used to give a trace; (0, 0) and (inf, inf) to warn before
    # failing on a beamwidth or on the step information
    @pytest.mark.parametrize("geometry", [
        (1.0, math.inf), (0.0, 0.0), (math.inf, math.inf)])
    def test_cell_size_checked(self, cfg, geometry):
        with pytest.raises(ValueError, match="positive and finite"):
            next(access_traces([geometry], AccessPolicy(), cfg))


def _reference_row(d_a, h_b, n_max, d_hat, sigma_d2, delta_bs):
    """The largest row meeting the cap (1 if none does), from the selection
    error of every row at d_hat."""
    ks = np.arange(2, n_max + 1)
    if ks.size and math.isfinite(sigma_d2):
        _, d_left, d_right = containing_beam(d_hat, d_a, h_b, ks)
        errors = beam_selection_profile(d_hat, math.sqrt(sigma_d2),
                                        d_left, d_right)
        feasible = (errors <= delta_bs).nonzero()[0]
        if feasible.size:
            return int(ks[feasible[-1]])
    return 1


def _window(k_sel, k, c):
    """The row a BS step keeps of the selection k_sel: at least the
    current row k, at most c."""
    return min(max(k_sel, k), c)


def _reference_ue_beam(sigma_psi2, delta_ma):
    """Thinnest level meeting the cap (the widest if none does), from the
    misalignment of every grid level."""
    if not math.isfinite(sigma_psi2):
        return max(UE_GRID)
    widths = np.asarray(UE_GRID, dtype=float)
    errors = p_misalignment(sigma_psi2, nu_threshold(widths))
    feasible = widths[errors <= delta_ma]
    return float(feasible.min()) if feasible.size else max(UE_GRID)


def _step_config(cfg, obs_time):
    """A config whose bounds at beta = 0 are an access step's: both windows
    one pilot of obs_time seconds, ranging over the data band."""
    return cfg.with_overrides(t_frame=obs_time, aoa_sounding_time=obs_time,
                              pilot_bandwidth=cfg.bandwidth)


def _reference_access(d, cell_size, policy, cfg):
    """The refinement loop evaluated step by step: a full row search, a
    full grid search and scalar variance calls at every step.
    run_initial_access tabulates the row search per user, brackets the
    searches, evaluates the variances in float arithmetic, and must
    reproduce this loop bit for bit."""
    obs_time = policy.symbol_duration * policy.pilot_energy_scale
    step_cfg = _step_config(cfg, obs_time)
    theta_1 = row_beamwidth(cell_size, cfg.h_b, 1)
    info_d = 1.0 / policy.initial_sigma_d2
    info_psi = 0.0
    k = 1
    theta_u = max(UE_GRID)
    steps = []
    terminated = "max_iter"
    for step in range(1, policy.max_steps + 1):
        sigma_d2 = 1.0 / info_d
        sigma_psi2 = 1.0 / info_psi if info_psi > 0.0 else math.inf
        side = "BS" if step % 2 == 1 else "UE"
        if side == "BS":
            k_sel = _reference_row(cell_size, cfg.h_b, policy.n_max, d,
                                   sigma_d2, policy.delta_bs)
            k = int(min(max(k_sel, k), math.ceil(policy.bs_growth * k),
                        policy.n_max))
        else:
            theta_sel = _reference_ue_beam(sigma_psi2, policy.delta_ma)
            pos = UE_GRID.index(theta_u)
            one_down = UE_GRID[min(pos + 1, len(UE_GRID) - 1)]
            theta_u = min(theta_u, max(theta_sel, one_down))
        gamma_b = main_lobe_gain(theta_1 / k, cfg)
        gamma_u = main_lobe_gain(theta_u, cfg)
        var_d = float(ranging_variance(d, gamma_b, gamma_u, 0.0, step_cfg))
        # the access loop senses with the beam's full aperture
        full = step_cfg.with_overrides(
            ue_sounding_elements=beamwidth_to_elements(theta_u))
        var_psi = float(aoa_variance(d, gamma_b, theta_u, 0.0, full))
        info_d += 1.0 / var_d
        if math.isfinite(var_psi):
            info_psi += 1.0 / var_psi
        sigma_d2 = 1.0 / info_d
        sigma_psi2 = 1.0 / info_psi if info_psi > 0.0 else math.inf
        steps.append(AccessStep(index=step, side=side, k=k, theta_u=theta_u,
                                sigma_d2=sigma_d2, sigma_psi2=sigma_psi2,
                                symbols=step))
        if (math.sqrt(sigma_d2) <= policy.delta_d
                and math.sqrt(sigma_psi2) <= policy.delta_psi):
            terminated = "accuracy_met"
            break
    total_symbols = steps[-1].symbols if steps else 0
    final_k = max(_reference_row(cell_size, cfg.h_b, policy.n_max, d,
                                 sigma_d2, policy.delta_bs), k)
    final_theta_u = min(theta_u, _reference_ue_beam(sigma_psi2,
                                                    policy.delta_ma))
    return AccessTrace(steps=tuple(steps), total_symbols=total_symbols,
                       total_delay=total_symbols * policy.symbol_duration,
                       terminated=terminated, final_k=final_k,
                       final_theta_u=final_theta_u)


class TestTabulatedLoop:
    """run_initial_access against the step-by-step reference loop."""

    # (d, cell_size) at the default d_s = 20 m: cell edge, d = 0, mid-cell
    # inside the LOS ball, mid-cell beyond it
    GEOMETRIES = ((30.0, 30.0), (0.0, 30.0), (7.5, 15.0), (45.0, 90.0))
    # another prior (1 / (1 / 49) is 49 + 1 ulp), a tight row cap, a loose
    # misalignment cap and a doubled pilot budget
    OTHER = dict(initial_sigma_d2=49.0, delta_bs=0.01, delta_ma=0.2,
                 pilot_energy_scale=2.0e-3)

    # a 3-step budget ends at a coarse variance, where the final row
    # selection depends on which position it is made at
    # growth 0.5 and 1 shut the window (c <= k) at every step, so k
    # stays 1; 3 lets one step jump three times as deep
    @pytest.mark.parametrize("max_steps", [3, 60])
    @pytest.mark.parametrize("other", [False, True])
    @pytest.mark.parametrize("n_max", [1, 2, 64, 1024])
    @pytest.mark.parametrize("d, cell_size", GEOMETRIES)
    @pytest.mark.parametrize("bs_growth", [0.5, 1.0, 1.5, 3.0])
    def test_bit_identical_to_reference(self, cfg, bs_growth, d, cell_size,
                                        n_max, other, max_steps):
        policy = AccessPolicy(delta_d=0.002, max_steps=max_steps, n_max=n_max,
                              bs_growth=bs_growth,
                              **(self.OTHER if other else {}))
        got = run_initial_access(d, cell_size, policy, cfg)
        want = _reference_access(d, cell_size, policy, cfg)
        assert repr(got) == repr(want)
        assert len(got.steps) > 2

    # at delta_d = 0.002 and a 400-step budget, (7.5, 15.0) meets the
    # accuracies at step 22 and (0.0, 30.0) at step 248
    @pytest.mark.parametrize("user, met_at", [(2, 22), (1, 248)])
    def test_accuracy_met_on_the_last_budgeted_step(self, cfg, user, met_at):
        for budget, verdict in ((met_at, "accuracy_met"),
                                (met_at - 1, "max_iter")):
            trace = list(access_traces(
                self.GEOMETRIES, AccessPolicy(delta_d=0.002,
                                              max_steps=budget), cfg))[user]
            assert (trace.terminated, trace.total_symbols) == (verdict,
                                                                budget)
            assert len(trace.steps) == budget

    # GEOMETRIES plus d = d_s, where the path loss switches from LOS to NLOS
    @pytest.mark.parametrize("d, cell_size", GEOMETRIES + ((20.0, 40.0),))
    @pytest.mark.parametrize("pilot_energy_scale", [1.0e-3, 2.0e-3])
    def test_step_variances_match_tables(self, cfg, d, cell_size,
                                         pilot_energy_scale):
        # the vectorized (level, row) tables the loop used to read: every
        # pair up to n_max = 1024, as one batch, has their bits
        n_max = 1024
        obs_time = AccessPolicy().symbol_duration * pilot_energy_scale
        theta_1 = row_beamwidth(cell_size, cfg.h_b, 1)
        gamma_b = main_lobe_gain(theta_1 / np.arange(1, n_max + 1), cfg)
        gamma_u = main_lobe_gain(np.array(UE_GRID)[:, None], cfg)
        step_cfg = _step_config(cfg, obs_time)
        var_d = ranging_variance(d, gamma_b, gamma_u, 0.0, step_cfg)
        # each level's full aperture, as the access loop senses with
        var_psi = np.array([
            aoa_variance(d, gamma_b, t, 0.0,
                         step_cfg.with_overrides(
                             ue_sounding_elements=beamwidth_to_elements(t)))
            for t in UE_GRID])
        energy, variances = _step_variances(np.array([d]),
                                            np.array([theta_1]), obs_time,
                                            cfg)
        level, k = (grid.ravel() for grid in np.meshgrid(
            np.arange(len(UE_GRID)), np.arange(1, n_max + 1), indexing="ij"))
        got = np.stack(variances(energy(np.zeros(k.size, dtype=int), k),
                                 level, k), axis=-1)
        got = got.reshape(len(UE_GRID), n_max, 2)
        assert np.isfinite(got).all()
        assert (got[..., 0].view(np.int64) == var_d.view(np.int64)).all()
        assert (got[..., 1].view(np.int64) == var_psi.view(np.int64)).all()

    # information past the float range: it overflows for a user 1e-307 m
    # from the BS foot, and a 1e-320 pilot budget underflows to none
    @pytest.mark.parametrize("d, cell_size, scale", [
        (1e-307, 2e-307, 1.0e-3), (15.0, 30.0, 1e-320)])
    def test_out_of_range_variance_raises(self, cfg, d, cell_size, scale):
        with pytest.raises(NumericError, match="out of range"):
            run_initial_access(d, cell_size,
                               AccessPolicy(pilot_energy_scale=scale), cfg)

    @pytest.mark.parametrize("field,value", [
        *(pytest.param(f, math.nan, id=f) for f in (
            "delta_bs", "delta_ma", "delta_d", "delta_psi", "symbol_duration",
            "initial_sigma_d2", "pilot_energy_scale", "bs_growth")),
        # inf used to end in a ZeroDivisionError and an OverflowError
        ("initial_sigma_d2", math.inf), ("bs_growth", math.inf)])
    def test_nan_float_rejected(self, field, value):
        # a NaN accuracy used to pass, and the loop ran to max_steps
        with pytest.raises(ValueError):
            AccessPolicy(**{field: value})

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, 0])
    @pytest.mark.parametrize("field", ["max_steps", "n_max"])
    def test_non_integral_count_rejected(self, field, value):
        # 2.5 and NaN used to pass and fail inside the loop (IndexError,
        # ValueError from np.arange, TypeError from range)
        with pytest.raises(ValueError, match=field):
            AccessPolicy(**{field: value})


class TestLockstep:
    """access_traces steps the unfinished users of a chunk together; each
    trace must be the one-user call's, whatever the chunk size."""

    # with POLICY: d = 0, mid-cell and d = d_a, in cells from 0.5 m (every
    # user stops at step 1) to 400 m (beyond d_s, to max_steps), shuffled
    # so that every chunk mixes the stopping steps
    GEOMETRIES = [(f * d_a, d_a) for d_a, f in np.random.default_rng(2)
                  .permutation(list(itertools.product(
                      (0.5, 2.0, 10.0, 30.0, 60.0, 150.0, 400.0),
                      (0.0, 0.5, 1.0)))).tolist()]
    POLICY = dict(delta_d=0.05, max_steps=12)

    @pytest.mark.parametrize("users", [1, 3, None])
    @pytest.mark.parametrize("other", [{}, dict(n_max=2, bs_growth=3.0)])
    def test_batch_matches_one_user_calls(self, cfg, monkeypatch, users,
                                          other):
        policy = AccessPolicy(**self.POLICY, **other)
        want = [repr(run_initial_access(d, d_a, policy, cfg))
                for d, d_a in self.GEOMETRIES]
        if users is not None:
            monkeypatch.setattr(initial_access, "_CHUNK_USERS", users)
        got = [repr(trace)
               for trace in access_traces(self.GEOMETRIES, policy, cfg)]
        assert got == want

    def test_batch_mixes_stops(self, cfg):
        traces = list(access_traces(self.GEOMETRIES,
                                    AccessPolicy(**self.POLICY), cfg))
        assert min(t.total_symbols for t in traces) == 1
        assert any(t.terminated == "max_iter" for t in traces)
        assert sum(t.total_symbols == 1 for t in traces) > 3

    def test_no_row_table_and_no_block_past_the_budget(self, cfg,
                                                       monkeypatch):
        # three users a chunk and row blocks of 16 (user, row) pairs; the
        # spy sees every array computed from a chunk's positions (the
        # margins, their blocks and masks, the energies) and every beam
        # search's inputs and outputs: none runs over all rows, and none
        # is larger than a block
        n_max = AccessPolicy().n_max
        budget = 16
        monkeypatch.setattr(initial_access, "_CHUNK_USERS", 3)
        monkeypatch.setattr(initial_access, "_BLOCK_ENTRIES", budget)
        shapes = []

        class Spied(np.ndarray):
            def __array_finalize__(self, obj):
                shapes.append(self.shape)

        def run_chunk(d, cell_size, *args):
            return real_chunk(d.view(Spied), cell_size.view(Spied), *args)

        def beam_search(*args):
            out = real_search(*args)
            shapes.extend(np.shape(a) for a in (*args, *out))
            return out

        real_chunk = initial_access._run_chunk
        real_search = initial_access.containing_beam
        monkeypatch.setattr(initial_access, "_run_chunk", run_chunk)
        monkeypatch.setattr(initial_access, "containing_beam", beam_search)
        list(access_traces(self.GEOMETRIES, AccessPolicy(**self.POLICY),
                           cfg))
        assert not any(n_max - 1 in shape for shape in shapes)
        assert max(math.prod(shape) for shape in shapes) == budget
        # the scans ran blocks of several rows a user
        assert any(len(shape) == 2 and shape[1] > 1 for shape in shapes)

    @pytest.mark.parametrize("users", [1, 3, None])
    def test_one_service_beam_selection_per_chunk(self, cfg, monkeypatch,
                                                  users):
        # the service beams are selected once a chunk, after its loop: one
        # row selection up to n_max and one UE level selection down to the
        # last level, each over every user of the chunk
        policy = AccessPolicy(**self.POLICY)
        if users is not None:
            monkeypatch.setattr(initial_access, "_CHUNK_USERS", users)
        final = []

        def select_row(geometry, entries, sigma_d2, cap, k, c):
            if (c == policy.n_max).all():
                final.append(("row", entries.size))
            return real_row(geometry, entries, sigma_d2, cap, k, c)

        def ue_level(sigma_psi2, cap, level, last):
            if (last == len(UE_GRID) - 1).all():
                final.append(("level", level.size))
            return real_level(sigma_psi2, cap, level, last)

        real_row = initial_access._select_row
        real_level = initial_access._ue_level
        monkeypatch.setattr(initial_access, "_select_row", select_row)
        monkeypatch.setattr(initial_access, "_ue_level", ue_level)
        list(access_traces(self.GEOMETRIES, policy, cfg))
        # with max_steps 12 no step's window reaches n_max or the last level
        per_chunk = initial_access._CHUNK_USERS
        n = len(self.GEOMETRIES)
        assert final == [(what, min(per_chunk, n - start))
                         for start in range(0, n, per_chunk)
                         for what in ("row", "level")]

    def test_row_selection_hands_erfc_only_undecided_rows(self, cfg,
                                                          monkeypatch):
        # a row selection hands erfc only (user, row) pairs whose margin
        # the bracket cannot decide, in one call at most: the undecided
        # rows of both scans go together
        per_call, calls = [], []

        def counting(x, sigma, left, right):
            calls.append((x, sigma, left, right))
            return beam_selection_profile(x, sigma, left, right)

        def select_row(geometry, entries, sigma_d2, cap, k, c):
            calls.clear()
            out = real(geometry, entries, sigma_d2, cap, k, c)
            per_call.append(len(calls))
            for x, sigma, left, right in calls:
                lo, hi = _tail_bracket(sigma, cap, 1)
                margin = np.minimum(x - left, right - x)
                assert ((lo <= margin) & (margin < hi)).all()
            return out

        real = initial_access._select_row
        monkeypatch.setattr(initial_access, "beam_selection_profile", counting)
        monkeypatch.setattr(initial_access, "_select_row", select_row)
        for kwargs in TestTraceDigest.POLICIES:
            list(access_traces(self.GEOMETRIES
                               + list(TestTabulatedLoop.GEOMETRIES),
                               AccessPolicy(**kwargs), cfg))
        assert max(per_call) == 1

    def test_geometries_checked(self, cfg):
        policy = AccessPolicy()
        assert list(access_traces([], policy, cfg)) == []
        with pytest.raises(ValueError, match="inside the cell"):
            next(access_traces([(1.0, 2.0), (3.0, 2.0)], policy, cfg))
        with pytest.raises(ValueError, match="inside the cell"):
            run_initial_access(math.nan, 2.0, policy, cfg)


class TestGrowthClamp:
    """Which reading of the per-step growth clamp the loop takes."""

    def test_step_takes_c_when_only_a_deeper_row_meets_the_cap(self, cfg):
        # the reference user at lambda = 0.2 /m and delta_d = 0.01 m: at
        # step 3 (k = 1, c = 2) row 2 misses the cap at the variance that
        # step selects at, yet the step takes row 2, because row 3 meets
        # it. The loop reads the clamp as min(max(k_sel, k), c) with k_sel
        # the largest feasible row up to n_max. The other reading (the
        # largest feasible row in (k, c], k if none) would keep row 1 here;
        # adopting it changes one place, _select_row's scan of the rows
        # above c
        policy = AccessPolicy(delta_d=0.01)
        d, d_a = access_reference_geometry(0.2, cfg)
        steps = run_initial_access(d, d_a, policy, cfg).steps
        assert [(s.index, s.side, s.k) for s in steps[:3]] == [
            (1, "BS", 1), (2, "UE", 1), (3, "BS", 2)]
        seen = steps[1].sigma_d2

        def p_bs(k):
            _, left, right = containing_beam(d, d_a, cfg.h_b, k)
            return float(beam_selection_profile(d, math.sqrt(seen), left,
                                                right))

        assert p_bs(2) == pytest.approx(0.23, abs=5e-3)
        assert p_bs(2) > policy.delta_bs >= p_bs(3)
        assert _reference_row(d_a, cfg.h_b, policy.n_max, d, seen,
                              policy.delta_bs) > 2


class TestTraceDigest:
    """A sha256 pinning every access trace of a fixed grid, so that a
    change to the loop's arithmetic or decisions shows as one digest.

    Bits are fixed per (numpy version, dispatch level, config): numpy
    picks its exp, power, tan and arctan loops by CPU at run time, so
    there is one pin per dispatch level, both for numpy 2.4.6."""

    POLICIES = (
        dict(delta_d=1e-3),
        dict(n_max=37),
        dict(bs_growth=3.0),
        dict(delta_d=2e-3, delta_bs=0.01, delta_ma=0.2, initial_sigma_d2=49.0,
             pilot_energy_scale=2e-3),
        dict(delta_d=5e-4, delta_psi=0.01, max_steps=60),
    )
    # the concatenated reprs, densities outermost and policies innermost;
    # the same recipe over np.geomspace(1e-3, 10, 400) gives 8a7f1bca...
    DIGEST = "b8888eb185f1fff454ca058e6590da8e64ebc2310e4d11723c5de86b7f8e4cb7"
    # the same recipe under AVX512_MASK: 53 traces differ, in their
    # sigma_d2 and sigma_psi2 only
    MASKED_DIGEST = (
        "50b3c32a2fc2ca49ed9bb4f96b8473950c59d46f1dc01c3c92122ddd08b61858")
    DIGESTS = {"AVX512_SPR": DIGEST, "X86_V3": MASKED_DIGEST}

    @classmethod
    def digest(cls, cfg) -> str:
        # one batched call per policy; TestLockstep checks that one-user
        # calls give the same traces
        policies = [AccessPolicy(**kwargs) for kwargs in cls.POLICIES]
        geometries = []
        for lam in np.geomspace(1e-3, 10.0, 100).tolist():
            d_ref, d_a = access_reference_geometry(lam, cfg)
            geometries.extend((d, d_a) for d in (0.0, d_ref, 0.3 * d_a, d_a))
        reprs = [repr(trace) for group in zip(*(
            access_traces(geometries, policy, cfg) for policy in policies))
            for trace in group]
        assert len(reprs) == 2000
        return hashlib.sha256("".join(reprs).encode()).hexdigest()

    def test_traces_match_pinned_digest(self, cfg):
        level = dispatch_level()
        assert level in self.DIGESTS, f"no digest pinned at {level}"
        assert self.digest(cfg) == self.DIGESTS[level]

    SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
from mmwloc import NetworkConfig
from test_initial_access import TestTraceDigest, dispatch_level
print(dispatch_level(), TestTraceDigest.digest(NetworkConfig()))
"""

    def test_masked_dispatch_matches_its_digest(self):
        # the masked pin, recomputed in a fresh interpreter under the mask
        src = Path(initial_access.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(src),
             str(Path(__file__).resolve().parent)],
            env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_MASK),
            capture_output=True, text=True, check=True, timeout=300)
        level, digest = done.stdout.split()
        if level != "X86_V3":
            pytest.skip(f"the mask leaves dispatch level {level} here")
        assert digest == self.MASKED_DIGEST


# every cap the bracket treats differently: a tiny one (the absolute
# rounding of 1 - Q dominates), middling ones, and those with lo <= 0
CAPS = (1e-12, 1e-6, 0.05, 0.3, 0.5, 0.9, 1.0)


def _nudged(value, ulps):
    """value moved by |ulps| units in the last place, up or down."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.copysign(math.inf, ulps)))
    return value


def _check_row(d_hat, d_a, h_b, n_max, sigma_d2, cap):
    """Every window (k, c) whose ends are row 1, n_max, or the reference
    selection or a neighbour of it, shut windows (c <= k) included."""
    table = _table(d_hat, d_a, h_b, n_max)
    want = _reference_row(d_a, h_b, n_max, d_hat, sigma_d2, cap)
    ends = {1, want - 1, want, want + 1, n_max} & set(range(1, n_max + 1))
    ks, cs = zip(*itertools.product(ends, repeat=2))
    # one batch holds every window
    assert _select(table, sigma_d2, cap, ks, cs) == [
        _window(want, k, c) for k, c in zip(ks, cs)], (
            d_hat, d_a, h_b, n_max, sigma_d2, cap)


def _check_ue(sigma_psi2, cap):
    got = select_ue_beam(sigma_psi2, cap)
    assert got == _reference_ue_beam(sigma_psi2, cap), (sigma_psi2, cap)


class TestTailBracket:
    """The bracketed selections against a full evaluation of every row or
    grid level, where the guards and the spread floor decide."""

    @pytest.mark.parametrize("n_max", [1, 2, 1024])
    @pytest.mark.parametrize("cap", CAPS)
    def test_random_tables(self, cap, n_max):
        rng = np.random.default_rng(n_max)
        for _ in range(40):
            d_a = rng.uniform(1.0, 200.0)
            d_hat = float(rng.choice([0.0, d_a] + list(rng.uniform(0, d_a, 4))))
            sigma = d_a / n_max * 10.0 ** rng.uniform(-4.0, 1.0)
            _check_row(d_hat, d_a, rng.uniform(2.0, 30.0), n_max,
                       sigma * sigma, cap)

    @pytest.mark.parametrize("cap", CAPS)
    def test_random_ue_levels(self, cap):
        rng = np.random.default_rng(7)
        for _ in range(200):
            _check_ue(10.0 ** rng.uniform(-8.0, 1.0), cap)
        _check_ue(0.0, cap)

    @pytest.mark.parametrize("n_max", [1, 2, 32, 1024])
    @pytest.mark.parametrize("cap", CAPS)
    def test_estimate_on_edge(self, cap, n_max):
        # margin 0 in the deepest row: its error is 1/2 at any spread
        edges = beam_boundaries(100.0, 10.0, n_max)
        for i in sorted({0, 1, n_max // 2, n_max - 1, n_max}):
            for sigma_d2 in (0.0, 1e-18):
                _check_row(float(edges[i]), 100.0, 10.0, n_max, sigma_d2, cap)

    # c <= k, a window of one row, the default growth, the full selection
    @settings(max_examples=300, deadline=None)
    @given(d_a=st.floats(1.0, 200.0), at=st.floats(0.0, 1.0),
           h_b=st.floats(2.0, 30.0), n_max=st.integers(1, 1024),
           spread=st.floats(-4.0, 1.0), cap=st.sampled_from(CAPS),
           k=st.integers(1, 1024), shut=st.integers(1, 1024),
           window=st.sampled_from(["shut", "one", "growth", "full"]))
    def test_window_matches_full_evaluation(self, d_a, at, h_b, n_max, spread,
                                            cap, k, shut, window):
        k = min(k, n_max)
        c = min({"shut": min(shut, k), "one": k + 1,
                 "growth": math.ceil(1.5 * k), "full": n_max}[window], n_max)
        d_hat = at * d_a
        sigma = d_a / n_max * 10.0 ** spread
        table = _table(d_hat, d_a, h_b, n_max)
        want = _reference_row(d_a, h_b, n_max, d_hat, sigma * sigma, cap)
        assert _select(table, sigma * sigma, cap, k, c) == _window(
            want, k, c)

    def test_sure_row_at_or_above_c_skips_erfc(self, monkeypatch):
        # a surely feasible row at or above c settles the step on its own,
        # even where rows above the last sure one are undecided: a batch
        # of such steps, over the users of one geometry, hands erfc nothing
        calls = []

        def counting(*args):
            calls.append(args)
            return beam_selection_profile(*args)

        monkeypatch.setattr(initial_access, "beam_selection_profile", counting)
        rng = np.random.default_rng(5)
        d_hat = rng.uniform(0.0, 100.0, 20)
        margin = np.array([_margin_rows(x, 100.0, 10.0, 256) for x in d_hat])
        users, spreads, cs = [], [], []
        undecided_above = 0
        for u in range(d_hat.size):
            for sigma_d2 in 10.0 ** rng.uniform(-6.0, 0.0, 5):
                lo, hi = _tail_bracket(math.sqrt(sigma_d2), 0.05, 1)
                sure = (margin[u] >= hi).nonzero()[0]
                if not sure.size:
                    continue
                undecided_above += bool((margin[u, sure[-1] + 1:] >= lo).any())
                for c in (2, 3, 8, 64, 255, 256):
                    if sure[-1] >= c - 2:
                        users.append(u)
                        spreads.append(sigma_d2)
                        cs.append(c)
        got = _select_row((d_hat, np.full(20, 100.0), 10.0, 256),
                          np.array(users), np.array(spreads), 0.05,
                          np.ones(len(cs), dtype=int), np.array(cs))
        assert got.tolist() == cs
        assert not calls
        assert len(cs) > 0 and undecided_above > 0

    def test_edge_is_never_sure(self):
        # with the unfloored zero spread the bracket took row 32 here
        d_hat = float(beam_boundaries(100.0, 10.0, 32)[5])
        assert _select(_table(d_hat, 100.0, 10.0, 32), 0.0, 0.05, 1,
                       32) == 31

    @pytest.mark.parametrize("n_max", [2, 1024])
    @pytest.mark.parametrize("cap", CAPS)
    def test_margin_at_threshold(self, cap, n_max):
        # a spread putting one row's margin at lo or hi, then a few ulps off
        rng = np.random.default_rng(3)
        for d_hat in rng.uniform(0.0, 100.0, 25):
            margins = _margin_rows(d_hat, 100.0, 10.0, n_max)
            margin = margins[rng.integers(margins.size)]
            for z in _tail_bracket(1.0, cap, 1):
                if 0.0 < z < math.inf and margin > 0.0:
                    for ulps in range(-4, 5):
                        _check_row(d_hat, 100.0, 10.0, n_max,
                                   _nudged((margin / z) ** 2, ulps), cap)

    @pytest.mark.parametrize("cap", CAPS)
    def test_ue_margin_at_threshold(self, cap):
        # the bracket's edges, then levels with Q(t) in the band
        # (cap / 2, cap], where 2 Q(t) already misses the cap
        band = [q_inverse(r * cap) for r in (0.5, 0.51, 0.75, 0.99, 1.0)]
        for width in UE_GRID:
            for z in list(_tail_bracket(1.0, cap, 2)) + band:
                if 0.0 < z < math.inf:
                    for ulps in range(-4, 5):
                        _check_ue(_nudged((nu_threshold(width) / z) ** 2,
                                          ulps), cap)

    # at cap 1 the band (1/2, 1] holds no level: it needs t < 0
    @pytest.mark.parametrize("cap", CAPS[:-1])
    def test_ue_band_levels_skip_erfc(self, cap, monkeypatch):
        # a level with Q(t) well inside (cap / 2, cap] is a sure miss
        evaluated = []

        def counting(sigma_psi2, nu):
            evaluated.extend(np.atleast_1d(nu))
            return p_misalignment(sigma_psi2, nu)

        monkeypatch.setattr(initial_access, "p_misalignment", counting)
        levels = 0
        for width in UE_GRID:
            for ratio in (0.51, 0.75, 0.99):
                z = q_inverse(ratio * cap)
                if 0.0 < z < math.inf:
                    evaluated.clear()
                    _check_ue((nu_threshold(width) / z) ** 2, cap)
                    assert nu_threshold(width) not in evaluated
                    levels += 1
        assert levels > 0

    # a UE step (last = level + 1), the final selection (last = 7) and
    # shut windows (last <= level)
    @settings(max_examples=300, deadline=None)
    @given(sigma_psi2=st.one_of(st.sampled_from([0.0, math.inf]),
                                st.floats(-12.0, 2.0).map(lambda e: 10.0 ** e)),
           cap=st.sampled_from(CAPS), level=st.integers(0, len(UE_GRID) - 1),
           last=st.integers(0, len(UE_GRID) - 1))
    def test_ue_level_matches_full_evaluation(self, sigma_psi2, cap, level,
                                              last):
        level = min(level, last)
        want = UE_GRID.index(_reference_ue_beam(sigma_psi2, cap))
        assert _level(sigma_psi2, cap, level, last) == min(max(want, level),
                                                           last)

    def test_ue_step_decides_at_most_one_level(self, cfg, monkeypatch):
        # a UE step moves each user at most one level down: it decides
        # only that level, in one batch of the users not yet at the last
        # level, and hands erfc at most one batch of those
        decided, evaluated, per_step = [], [], []

        def counting_nu(theta_u):
            decided.append(np.size(theta_u))
            return nu_threshold(theta_u)

        def counting(sigma_psi2, nu):
            evaluated.append(np.size(nu))
            return p_misalignment(sigma_psi2, nu)

        def step(sigma_psi2, cap, level, last):
            decided.clear()
            evaluated.clear()
            out = _ue_level(sigma_psi2, cap, level, last)
            if np.array_equal(last, np.minimum(level + 1, len(UE_GRID) - 1)):
                per_step.append((tuple(decided), tuple(evaluated),
                                 np.count_nonzero(level < last)))
            return out

        monkeypatch.setattr(initial_access, "nu_threshold", counting_nu)
        monkeypatch.setattr(initial_access, "p_misalignment", counting)
        monkeypatch.setattr(initial_access, "_ue_level", step)
        for cap in CAPS:
            list(access_traces(TestTabulatedLoop.GEOMETRIES, AccessPolicy(
                delta_ma=cap, delta_d=0.002), cfg))
        assert sum(users for _, _, users in per_step) > 100
        for decided_sizes, evaluated_sizes, users in per_step:
            assert len(decided_sizes) <= 1 and len(evaluated_sizes) <= 1
            assert sum(evaluated_sizes) <= sum(decided_sizes) <= users
        # one batch of steps whose level below has 2 Q(t) at the cap: only
        # erfc decides
        levels, caps = zip(*itertools.product(range(len(UE_GRID) - 1),
                                              CAPS[:-1]))
        levels = np.array(levels)
        for cap in CAPS[:-1]:
            at = np.array(caps) == cap
            nu = nu_threshold(np.array(UE_GRID)[levels[at] + 1])
            per_step.clear()
            step((nu / q_inverse(cap / 2.0)) ** 2, cap, levels[at],
                 levels[at] + 1)
            assert per_step == [((at.sum(),), (at.sum(),), at.sum())]


class TestWidthBound:
    """_margin_bound, which ends the row scans, against computed margins."""

    # d anywhere in the cell, on an edge of another row or a few ulps off
    # it, mid-beam in row r, where the margin comes closest to the bound in
    # narrow cells, or in row r's last beam, whose right edge is pinned to
    # d_a; cells from 1e-8 to 2e4 BS heights wide, and any m <= r. The
    # example is a mid-beam d whose margin exceeds the unguarded bound
    @settings(max_examples=500, deadline=None)
    @given(d_a=st.floats(1e-6, 1e4), h_b=st.floats(0.5, 100.0),
           r=st.integers(2, 4096), below=st.integers(0, 4096),
           at=st.floats(0.0, 1.0), other=st.integers(1, 4096),
           ulps=st.integers(-2, 2),
           where=st.sampled_from(["inside", "edge", "middle", "last"]))
    @example(d_a=3.1920920463247326e-06, h_b=71.59503194010414, r=2198,
             below=0, at=0.001364877161055505, other=1, ulps=0,
             where="middle")
    def test_margin_within_the_bound(self, d_a, h_b, r, below, at, other,
                                     ulps, where):
        if where == "edge":
            edge = float(beam_boundaries(d_a, h_b, other)[round(at * other)])
            d = _nudged(edge, ulps)
        elif where in ("middle", "last"):
            j = r if where == "last" else max(1, round(at * r))
            left, right = beam_boundaries(d_a, h_b, r)[j - 1:j + 1].tolist()
            d = (_nudged(0.5 * (left + right), ulps) if where == "middle"
                 else left + at * (right - left))
        else:
            d = at * d_a
        d = min(max(d, 0.0), d_a)
        m = max(1, r - below)
        _, left, right = containing_beam(d, d_a, h_b, r)
        scale, slack = _margin_bound(d, d_a, h_b, m)
        assert min(d - left, right - d) <= scale / r + slack

    @settings(max_examples=200, deadline=None)
    @given(d_a=st.floats(1.0, 200.0), at=st.floats(0.0, 1.0),
           h_b=st.floats(2.0, 30.0), m=st.integers(1, 1024),
           spread=st.floats(-4.0, 1.0), cap=st.sampled_from(CAPS))
    def test_rows_past_the_last_surely_miss(self, d_a, at, h_b, m, spread,
                                            cap):
        n_max = 1024
        d = at * d_a
        lo, _ = _tail_bracket(d_a / n_max * 10.0 ** spread, cap, 1)
        last = int(_last_row(_table(d, d_a, h_b, n_max), np.zeros(1, int),
                             np.array([m]), np.array([lo]))[0])
        assert last <= n_max
        past = _margin_rows(d, d_a, h_b, n_max)[max(m, last + 1) - 2:]
        assert (past < lo).all()

    def test_bound_prunes_the_service_selection(self):
        # a user mid-cell at a spread of a 64th of the cell: its final
        # selection, from row 1, scans fewer than a fifth of the rows
        d_a, h_b, n_max = 30.0, 10.0, 1024
        lo, _ = _tail_bracket(d_a / 64, 0.05, 1)
        last = _last_row(_table(0.5 * d_a, d_a, h_b, n_max),
                         np.zeros(1, int), np.array([2]), np.array([lo]))
        assert 2 < last[0] < n_max / 5


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

    # NaN used to pass both checks; delay_exhaustive(inf, 1, 1) was 0.0,
    # and 7.0 counted one beam of a width past 2 pi
    @pytest.mark.parametrize("theta", [math.nan, math.inf, 7.0, 0.0])
    def test_exhaustive_beamwidth_checked(self, theta):
        for pair in ((theta, 1.0), (1.0, theta)):
            with pytest.raises(ValueError, match="beamwidth"):
                delay_exhaustive(*pair, 1.0)

    # 7.0 and inf lie past a full turn
    @pytest.mark.parametrize("theta", [math.nan, 0.0, -1.0, 7.0, math.inf])
    def test_iterative_beamwidth_checked(self, theta):
        with pytest.raises(ValueError, match="beamwidth"):
            delay_iterative(4, theta, 1.0)
