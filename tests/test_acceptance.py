"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines. Tolerances are fixed here, not tuned at runtime:

1. Analytical vs Monte Carlo coverage within max(0.02, 3*stderr) on the
   12-point (lambda, k, beta) grid at a 5 dB threshold, 1e5 trials/point,
   under a five-minute budget.
2. Averaged beam-selection / misalignment errors within 3*stderr of their
   Monte Carlo estimates at 1e6 draws for k in {2, 8, 32}.
3. Error-vs-dictionary shape: both error curves non-monotone over
   k = 1..32 with at least one interior local maximum; the single-beam
   row is the global beam-selection minimum.
4. Access-delay ordering proposed < iterative < exhaustive at every
   density in [0.005, 0.2] /m with a 0.1 m target, max reduction >= 70%.
5. Sparse-deployment checkpoint: 20 +- 6 refinement steps to 0.01 m and
   3 +- 1 steps to 0.1 m at lambda = 0.01 /m.
6. Interior rate-coverage maximizer in beta for k in {4, 16}, with
   beta*(16) <= beta*(4).
7. Optimal-map trends: beta* >= 0.8 at (lambda = 0.1, -50 dBW) and
   k*(-20 dBW) <= k*(-50 dBW) at fixed lambda.
8. Cross-module property suite (tiling, gain conservation, derivative
   check, branch ordering, simulator determinism, optimizer monotonicity
   and argmax invariance).
"""

import math
import time

import numpy as np
import pytest

from mmwloc import (
    AccessPolicy,
    CoverageQuery,
    NetworkConfig,
    OptimizationSpec,
    beam_boundaries,
    delay_exhaustive,
    delay_iterative,
    optimize_beamwidth,
    overall_coverage,
    rate_coverage,
    run_initial_access,
)
from mmwloc.antenna import main_lobe_gain, sidelobe_gain
from mmwloc.coverage import _branch_values
from mmwloc.dictionary import row_beamwidth
from mmwloc.localization import (
    _aoa_factor,
    avg_beam_selection_error,
    avg_misalignment_error,
)
from mmwloc.montecarlo import simulate_coverage, simulate_error_probabilities
from mmwloc.optimizer import ue_beamwidth_for_dictionary
from test_localization import projected_derivative_residual

SEED = 20260808
THRESHOLD_5DB = 10.0 ** 0.5


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_analytical_vs_oracle_coverage():
    start = time.time()
    worst = 0.0
    failures = []
    for lam in (0.005, 0.02, 0.1):
        for k in (4, 16):
            for beta in (0.5, 0.9):
                cfg = NetworkConfig(bs_density=lam)
                theta_u = ue_beamwidth_for_dictionary(k, cfg)
                analytical = overall_coverage(THRESHOLD_5DB, k, theta_u, beta, cfg)
                query = CoverageQuery(threshold=THRESHOLD_5DB, k=k, j=None,
                                      theta_u=theta_u, beta=beta)
                mc = simulate_coverage(query, cfg, 100_000, seed=SEED)
                diff = abs(analytical - mc.probability)
                tol = max(0.02, 3.0 * mc.stderr)
                worst = max(worst, diff)
                if diff > tol:
                    failures.append((lam, k, beta, diff, tol))
    elapsed = time.time() - start
    ok = not failures and elapsed < 300.0
    _verdict(1, "analytic-vs-oracle coverage", ok,
             f"worst |diff| {worst:.4f} over 12 points, {elapsed:.0f}s"
             + (f"; failures {failures}" if failures else ""))


def test_criterion_2_error_probability_oracle():
    cfg = NetworkConfig()
    details = []
    ok = True
    for k in (2, 8, 32):
        theta_u = ue_beamwidth_for_dictionary(k, cfg)
        a_bs = avg_beam_selection_error(k, 0.5, theta_u, cfg)
        a_ma = avg_misalignment_error(k, theta_u, 0.5, cfg)
        mc = simulate_error_probabilities(k, 0.5, theta_u, cfg, 1_000_000,
                                          seed=SEED)
        ok_bs = abs(a_bs - mc["p_bs"]) <= 3 * mc["stderr_bs"]
        ok_ma = abs(a_ma - mc["p_ma"]) <= 3 * mc["stderr_ma"]
        ok = ok and ok_bs and ok_ma
        details.append(f"k={k}: dBS={abs(a_bs - mc['p_bs']):.2e}"
                       f"/{3 * mc['stderr_bs']:.2e},"
                       f" dMA={abs(a_ma - mc['p_ma']):.2e}"
                       f"/{3 * mc['stderr_ma']:.2e}")
    _verdict(2, "error-probability oracle", ok, "; ".join(details))


def _interior_maxima(values):
    return [i for i in range(1, len(values) - 1)
            if values[i] > values[i - 1] and values[i] > values[i + 1]]


def test_criterion_3_error_curve_shapes():
    cfg = NetworkConfig()
    p_bs, p_ma = [], []
    for k in range(1, 33):
        theta_u = ue_beamwidth_for_dictionary(k, cfg)
        p_bs.append(avg_beam_selection_error(k, 0.5, theta_u, cfg))
        p_ma.append(avg_misalignment_error(k, theta_u, 0.5, cfg))
    bs_maxima = _interior_maxima(p_bs)
    ma_maxima = _interior_maxima(p_ma)
    bs_nonmono = any(a > b for a, b in zip(p_bs, p_bs[1:]))
    ma_nonmono = any(a > b for a, b in zip(p_ma, p_ma[1:])) and any(
        a < b for a, b in zip(p_ma, p_ma[1:]))
    min_at_one = all(p_bs[0] < v for v in p_bs[1:])
    ok = (bool(bs_maxima) and bool(ma_maxima) and bs_nonmono and ma_nonmono
          and min_at_one)
    _verdict(3, "error-curve shapes", ok,
             f"P_BS maxima at k={[i + 1 for i in bs_maxima]}, "
             f"P_MA maxima at k={[i + 1 for i in ma_maxima]}, "
             f"P_BS(1)={p_bs[0]:.3f} global min: {min_at_one}")


def test_criterion_4_delay_ordering():
    policy = AccessPolicy(delta_d=0.1)
    ordered = True
    reductions = []
    for lam in np.geomspace(0.005, 0.2, 9):
        cfg = NetworkConfig(bs_density=float(lam))
        d_ref = min(1.0 / (4.0 * lam), 0.75 * cfg.d_s)
        trace = run_initial_access(d_ref, 2.0 * d_ref, policy, cfg)
        theta_b = row_beamwidth(2.0 * d_ref, cfg.h_b, trace.final_k)
        proposed = trace.total_delay
        iterative = delay_iterative(trace.final_k, trace.final_theta_u,
                                    policy.symbol_duration)
        exhaustive = delay_exhaustive(theta_b, trace.final_theta_u,
                                      policy.symbol_duration)
        ordered = ordered and (proposed < iterative < exhaustive)
        reductions.append(1.0 - proposed / exhaustive)
    ok = ordered and max(reductions) >= 0.70
    _verdict(4, "delay ordering", ok,
             f"ordered at all 9 densities: {ordered}, "
             f"max reduction {max(reductions):.1%}")


def test_criterion_5_sparse_deployment_checkpoint():
    cfg = NetworkConfig(bs_density=0.01)
    steps = {}
    for delta_d in (0.01, 0.1):
        policy = AccessPolicy(delta_d=delta_d)
        trace = run_initial_access(15.0, 30.0, policy, cfg)
        steps[delta_d] = (trace.total_symbols, trace.terminated)
    ok = (steps[0.01][1] == "accuracy_met" and 14 <= steps[0.01][0] <= 26
          and steps[0.1][1] == "accuracy_met" and 2 <= steps[0.1][0] <= 4)
    _verdict(5, "sparse-deployment checkpoint", ok,
             f"0.01 m -> {steps[0.01][0]} steps (target 20+-6), "
             f"0.1 m -> {steps[0.1][0]} steps (target 3+-1)")


def test_criterion_6_interior_beta_maximizer():
    cfg = NetworkConfig()
    betas = np.round(np.arange(0.05, 1.0001, 0.05), 4)
    argmax = {}
    interior = {}
    for k in (4, 16):
        theta_u = ue_beamwidth_for_dictionary(k, cfg)
        values = [rate_coverage(1.0e8, float(b), k, theta_u, cfg)
                  for b in betas]
        idx = int(np.argmax(values))
        argmax[k] = float(betas[idx])
        interior[k] = 0 < idx < len(betas) - 1
    ok = interior[4] and interior[16] and argmax[16] <= argmax[4]
    _verdict(6, "interior beta maximizer", ok,
             f"beta*(4)={argmax[4]}, beta*(16)={argmax[16]}, "
             f"interior: {interior}")


def test_criterion_7_optimal_map_trends():
    # The optimal-map rate target (the regime where the partition
    # trade-off stays active at the quiet end of the noise axis).
    spec = OptimizationSpec(r0=6.0e9)
    quiet_dense = optimize_beamwidth(
        spec, NetworkConfig(bs_density=0.1, noise_psd=1e-14))
    ok_beta = quiet_dense.feasible and quiet_dense.beta_star >= 0.8
    noisy = optimize_beamwidth(
        spec, NetworkConfig(bs_density=0.05, noise_psd=1e-11))
    quiet = optimize_beamwidth(
        spec, NetworkConfig(bs_density=0.05, noise_psd=1e-14))
    ok_k = (noisy.feasible and quiet.feasible
            and noisy.k_star <= quiet.k_star)
    _verdict(7, "optimal-map trends", ok_beta and ok_k,
             f"beta*(lam=0.1, -50dBW)={quiet_dense.beta_star}, "
             f"k*(-20dBW)={noisy.k_star} <= k*(-50dBW)={quiet.k_star}")


def test_criterion_8_property_suite():
    cfg = NetworkConfig()
    checks = {}

    # dictionary tiling
    rows = [beam_boundaries(47.0, 10.0, k) for k in range(1, 17)]
    checks["tiling"] = all(
        abs(sum(np.diff(bounds)) - 47.0) < 47.0 * 1e-9
        and bounds[-1] == pytest.approx(47.0, rel=1e-9)
        for bounds in rows)

    # sectorized power conservation
    rng = np.random.default_rng(SEED)
    checks["gain-conservation"] = all(
        abs(main_lobe_gain(t, cfg) * t + sidelobe_gain(cfg) * (2 * math.pi - t)
            - 2 * math.pi * cfg.g0) < 1e-8
        for t in rng.uniform(1e-3, 2 * math.pi, size=100))

    # aperture information vs the finite-difference response derivative
    checks["derivative-fd"] = all(
        _aoa_factor(m) == pytest.approx(projected_derivative_residual(m),
                                        rel=1e-8)
        for m in (2, 16, 64))

    # branch ordering
    x = rng.uniform(0.5, 40.0, size=20)
    gb, gu, g = main_lobe_gain(0.2, cfg), main_lobe_gain(0.5, cfg), sidelobe_gain(cfg)
    t0 = _branch_values(x, THRESHOLD_5DB, gb * gu, cfg)
    tma = _branch_values(x, THRESHOLD_5DB, gb * g, cfg)
    tbs = _branch_values(x, THRESHOLD_5DB, g * g, cfg)
    checks["branch-ordering"] = bool(np.all(t0 >= tma - 1e-12)
                                     and np.all(tma >= tbs - 1e-12))

    # simulator determinism
    q = CoverageQuery(threshold=THRESHOLD_5DB, k=4, j=2,
                      theta_u=math.pi / 8, beta=0.5)
    checks["mc-determinism"] = (simulate_coverage(q, cfg, 20_000, seed=SEED)
                                == simulate_coverage(q, cfg, 20_000, seed=SEED))

    # optimizer: feasible-set monotonicity and argmax invariance
    coarse = tuple(np.round(np.arange(0.1, 1.0001, 0.1), 10))
    tight = OptimizationSpec(eps_bs=0.05, eps_ma=0.05, beta_grid=coarse,
                             k_candidates=(2, 8))
    loose = OptimizationSpec(eps_bs=0.2, eps_ma=0.2, beta_grid=coarse,
                             k_candidates=(2, 8))
    r_tight = optimize_beamwidth(tight, cfg)
    r_loose = optimize_beamwidth(loose, cfg)
    mono = r_loose.feasible and (not r_tight.feasible
                                 or r_loose.objective >= r_tight.objective - 1e-12)
    base_spec = OptimizationSpec(beta_grid=coarse, k_candidates=(2, 8))
    base = optimize_beamwidth(base_spec, cfg)
    scaled = optimize_beamwidth(base_spec, cfg.with_overrides(
        p_t=10 * cfg.p_t, noise_psd=10 * cfg.noise_psd))
    invariant = (base.k_star, base.beta_star) == (scaled.k_star, scaled.beta_star)
    checks["optimizer-monotone+invariant"] = mono and invariant

    ok = all(checks.values())
    _verdict(8, "property suite", ok,
             ", ".join(f"{name}={'ok' if v else 'FAIL'}"
                       for name, v in checks.items()))
