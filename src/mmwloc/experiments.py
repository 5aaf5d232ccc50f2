"""Named experiment families: sweeps behind the command-line runner.

Each experiment writes one CSV of plain columnar data (comma-separated,
header row, '.' decimals) plus a run manifest sufficient to reproduce the
run exactly. Sweep points are emitted in sorted sweep-key order, so
outputs are byte-identical for a given (config, seed).
"""

from __future__ import annotations

import csv
import json
import math
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import NetworkConfig
from .coverage import CoverageQuery, overall_coverage, rate_coverage
from .dictionary import beam_boundaries, row_beamwidth
from .errors import ConfigError
from .initial_access import (
    AccessPolicy,
    access_traces,
    delay_exhaustive,
    delay_iterative,
)
from .localization import avg_beam_selection_error, avg_misalignment_error
from .montecarlo import simulate_coverage
from .numerics import check_count, db_to_linear
from .optimizer import (
    OptimizationSpec,
    default_beta_grid,
    optimize_beamwidth,
    ue_beamwidth_for_dictionary,
)

@dataclass
class ExperimentSpec:
    """What to run and where to put it."""

    name: str
    cfg: NetworkConfig = field(default_factory=NetworkConfig)
    out_dir: Path = Path(".")
    seed: int = 1
    trials: int = 100_000
    overrides: dict = field(default_factory=dict)  # experiment.* knobs

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment: {self.name}")
        self.out_dir = Path(self.out_dir)
        known = {f"experiment.{name}" for name in _EXPERIMENTS[self.name][1]}
        unknown = sorted(set(self.overrides) - known)
        if unknown:
            raise ConfigError(f"unknown knob for {self.name}: {unknown[0]} "
                              f"(known: {', '.join(sorted(known))})")


def _list_of(convert):
    """Parser of a comma-separated text (or a sequence) into a list."""
    def parse(value) -> list:
        items = value.split(",") if isinstance(value, str) else value
        return [convert(v) for v in items]
    return parse


@dataclass(frozen=True)
class _Range:
    """The interval a knob's value (each item of a list knob) must lie in:
    open unless ``closed``; NaN lies in none."""

    lo: float
    hi: float
    closed: bool = False

    def __contains__(self, value) -> bool:
        if self.closed:
            return self.lo <= value <= self.hi
        return self.lo < value < self.hi

    def __str__(self) -> str:
        left, right = "[]" if self.closed else "()"
        return f"{left}{self.lo}, {self.hi}{right}"


_POSITIVE = _Range(0.0, math.inf)
_FINITE = _Range(-math.inf, math.inf)
_PROBABILITY = _Range(0.0, 1.0, closed=True)
_CAP = _Range(0.0, 1.0)

def _knob(spec: ExperimentSpec, name: str):
    """The parsed value of ``experiment.<name>`` (or its default); a value
    that does not parse or lies outside the knob's range raises
    ConfigError."""
    parse, default, valid = _EXPERIMENTS[spec.name][1][name]
    value = spec.overrides.get(f"experiment.{name}", default)
    try:
        parsed = parse(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"experiment.{name}: cannot parse {value!r} "
                          f"({exc})") from None
    items = parsed if isinstance(parsed, (list, tuple)) else (parsed,)
    if not all(item in valid for item in items):
        raise ConfigError(f"experiment.{name}: {value!r} is outside {valid}")
    return parsed


def _db_knob_to_linear(name: str, db: float) -> float:
    """``db_to_linear`` of a dB value of ``experiment.<name>``; ConfigError
    where it overflows or rounds to 0, as for ``network.noise_dbw``."""
    try:
        linear = db_to_linear(db)
    except OverflowError:
        raise ConfigError(f"experiment.{name}: {db!r} dB overflows") from None
    if linear == 0.0:
        raise ConfigError(f"experiment.{name}: {db!r} dB rounds to 0")
    return linear


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".10g")
    return v


def _write_manifest(spec: ExperimentSpec, outputs, elapsed: float) -> Path:
    manifest = {
        "experiment": spec.name,
        "seed": spec.seed,
        "trials": spec.trials,
        "overrides": spec.overrides,
        # every knob the experiment reads, at the value the run used
        "knobs": {name: _knob(spec, name)
                  for name in _EXPERIMENTS[spec.name][1]},
        "config": spec.cfg.to_dict(),
        "outputs": [str(p) for p in outputs],
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": round(elapsed, 3),
    }
    path = spec.out_dir / f"{spec.name}_manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _lambda_grid(spec: ExperimentSpec):
    return np.geomspace(_knob(spec, "lambda_min"), _knob(spec, "lambda_max"),
                        _knob(spec, "lambda_points"))


def access_reference_geometry(lam: float, cfg: NetworkConfig) -> tuple:
    """Representative access user: mid-cell of the mean cell, held inside
    the LOS service range (mm-wave access targets LOS users)."""
    d_ref = min(1.0 / (4.0 * lam), 0.75 * cfg.d_s)
    if not d_ref > 0.0:
        raise ConfigError(f"density {lam} /m rounds the reference cell to 0")
    return d_ref, 2.0 * d_ref


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------

def _run_access_delay(spec: ExperimentSpec):
    # The loop never reads bs_density: one config serves all densities, and
    # those clamped to one geometry share its row's columns (not its trace);
    # one access_traces call runs the distinct geometries.
    policy = AccessPolicy(delta_d=_knob(spec, "delta_d"))
    cfg = spec.cfg
    lams = _lambda_grid(spec).tolist()
    geometries = [access_reference_geometry(lam, cfg) for lam in lams]
    distinct = list(dict.fromkeys(geometries))
    columns = {}
    for geometry, trace in zip(distinct,
                               access_traces(distinct, policy, cfg)):
        theta_b = row_beamwidth(geometry[1], cfg.h_b, trace.final_k)
        iterative = delay_iterative(trace.final_k, trace.final_theta_u,
                                    policy.symbol_duration)
        exhaustive = delay_exhaustive(theta_b, trace.final_theta_u,
                                      policy.symbol_duration)
        columns[geometry] = (trace.total_symbols, trace.total_delay * 1e3,
                             iterative * 1e3, exhaustive * 1e3,
                             trace.final_k, trace.final_theta_u,
                             trace.terminated)

    rows = [(lam, *columns[geometry])
            for lam, geometry in zip(lams, geometries)]
    rows.sort(key=lambda r: r[0])
    out = spec.out_dir / "access_delay.csv"
    _write_csv(out, ["lambda", "steps", "proposed_ms", "iterative_ms",
                     "exhaustive_ms", "k_star", "theta_u_star", "terminated"],
               rows)
    return [out]


def _run_access_resolution(spec: ExperimentSpec):
    policy = AccessPolicy(delta_d=_knob(spec, "delta_d"))
    lams = sorted(_knob(spec, "lambdas"))
    geometries = [access_reference_geometry(lam, spec.cfg) for lam in lams]
    rows = []
    for lam, trace in zip(lams, access_traces(geometries, policy, spec.cfg)):
        for step in trace.steps:
            rows.append((lam, step.index, step.side, step.k, step.theta_u,
                         step.sigma_d2, step.sigma_psi2, step.symbols))
    out = spec.out_dir / "access_resolution.csv"
    _write_csv(out, ["lambda", "step", "side", "k", "theta_u",
                     "sigma_d2", "sigma_psi2", "cum_symbols"], rows)
    return [out]


def _run_error_vs_dictionary(spec: ExperimentSpec):
    beta = _knob(spec, "beta")
    k_max = _knob(spec, "k_max")

    def point(k):
        tu = ue_beamwidth_for_dictionary(k, spec.cfg)
        return (k, tu,
                avg_beam_selection_error(k, beta, tu, spec.cfg),
                avg_misalignment_error(k, tu, beta, spec.cfg))

    rows = [point(k) for k in range(1, k_max + 1)]
    out = spec.out_dir / "error_vs_dictionary.csv"
    _write_csv(out, ["k", "theta_u", "p_bs", "p_ma"], rows)
    return [out]


def _run_rate_vs_beta(spec: ExperimentSpec):
    r0 = _knob(spec, "r0")
    betas = _knob(spec, "beta_step")
    rows = []
    for k in sorted(_knob(spec, "k_list")):
        tu = ue_beamwidth_for_dictionary(k, spec.cfg)
        grid = np.array(betas)
        rates = rate_coverage(r0, grid, k, tu, spec.cfg)
        p_bs = avg_beam_selection_error(k, grid, tu, spec.cfg)
        p_ma = avg_misalignment_error(k, tu, grid, spec.cfg)
        rows += [(k, beta, tu, float(rate), float(bs), float(ma))
                 for beta, rate, bs, ma in zip(betas, rates, p_bs, p_ma)]
    out = spec.out_dir / "rate_vs_beta.csv"
    _write_csv(out, ["k", "beta", "theta_u", "rate_coverage", "p_bs", "p_ma"],
               rows)
    return [out], rows


def _run_rate_vs_pbs(spec: ExperimentSpec):
    outputs, beta_rows = _run_rate_vs_beta(spec)
    rows = sorted(((k, p_bs, rate, beta)
                   for k, beta, _, rate, p_bs, _ in beta_rows),
                  key=lambda r: (r[0], r[1]))
    out = spec.out_dir / "rate_vs_pbs.csv"
    _write_csv(out, ["k", "p_bs", "rate_coverage", "beta"], rows)
    return outputs + [out]


def _run_optimal_map(spec: ExperimentSpec):
    lams = _lambda_grid(spec)
    noises = sorted(_knob(spec, "noise_dbw"))
    noise_w = {dbw: _db_knob_to_linear("noise_dbw", dbw) for dbw in noises}
    opt_spec = OptimizationSpec(r0=_knob(spec, "r0"),
                                eps_bs=_knob(spec, "eps_bs"),
                                eps_ma=_knob(spec, "eps_ma"))

    def point(item):
        lam, dbw = item
        cfg = spec.cfg.with_overrides(
            bs_density=float(lam),
            noise_psd=noise_w[dbw] / spec.cfg.bandwidth)
        res = optimize_beamwidth(opt_spec, cfg)
        return (float(lam), dbw, res.feasible,
                res.k_star if res.k_star is not None else "",
                res.beta_star if res.beta_star is not None else "",
                res.theta_star if res.theta_star is not None else "",
                res.objective if res.objective is not None else "")

    items = [(lam, dbw) for lam in lams for dbw in noises]
    rows = [point(item) for item in items]
    rows.sort(key=lambda r: (r[0], r[1]))
    out = spec.out_dir / "optimal_map.csv"
    _write_csv(out, ["lambda", "noise_dbw", "feasible", "k_star", "beta_star",
                     "theta_star", "objective"], rows)
    return [out]


def _run_validate_analytical(spec: ExperimentSpec):
    lams = _knob(spec, "lambdas")
    threshold_db = _knob(spec, "threshold_db")
    threshold = _db_knob_to_linear("threshold_db", threshold_db)

    betas = (0.5, 0.9)
    rows = []
    for lam in sorted(lams):
        # the four points of one density share the oracle's draws, and the
        # two betas of one k the analytic pass's kernel tables
        cfg = spec.cfg.with_overrides(bs_density=lam)
        beams = [(k, ue_beamwidth_for_dictionary(k, cfg)) for k in (4, 16)]
        queries = [CoverageQuery(threshold=threshold, k=k, theta_u=tu,
                                 beta=beta)
                   for k, tu in beams for beta in betas]
        results = simulate_coverage(queries, cfg, spec.trials, seed=spec.seed)
        values = [float(value) for k, tu in beams
                  for value in overall_coverage(threshold, k, tu,
                                                np.array(betas), cfg)]
        for query, analytical, mc in zip(queries, values, results):
            tol = max(0.02, 3.0 * mc.stderr)
            ok = abs(analytical - mc.probability) <= tol
            rows.append((lam, query.k, query.beta, threshold_db, analytical,
                         mc.probability, mc.stderr, tol,
                         "pass" if ok else "FAIL"))
    out = spec.out_dir / "validate_analytical.csv"
    _write_csv(out, ["lambda", "k", "beta", "threshold_db", "analytical",
                     "montecarlo", "stderr", "tolerance", "status"], rows)
    return [out]


_RATE_VS_BETA_KNOBS = {"r0": (float, 1.0e8, _POSITIVE),
                       "k_list": (_list_of(int), "4,16", _POSITIVE),
                       "beta_step": (default_beta_grid, 0.02, _PROBABILITY)}
# experiment -> (runner, {knob: (parse, default, range)}), the knobs being
# every ``experiment.<knob>`` override the experiment reads; any other key
# is rejected. beta_step parses to its beta grid, and the range applies to
# the grid's betas.
_EXPERIMENTS = {
    "access-delay": (_run_access_delay, {
        "delta_d": (float, 0.1, _POSITIVE),
        "lambda_min": (float, 0.005, _POSITIVE),
        "lambda_max": (float, 0.2, _POSITIVE),
        "lambda_points": (int, 9, _POSITIVE)}),
    "access-resolution": (_run_access_resolution, {
        "lambdas": (_list_of(float), "0.01,0.02,0.05,0.1", _POSITIVE),
        "delta_d": (float, 0.01, _POSITIVE)}),
    "error-vs-dictionary": (_run_error_vs_dictionary, {
        "beta": (float, 0.5, _PROBABILITY), "k_max": (int, 32, _POSITIVE)}),
    "rate-vs-beta": (lambda s: _run_rate_vs_beta(s)[0], _RATE_VS_BETA_KNOBS),
    "rate-vs-pbs": (_run_rate_vs_pbs, _RATE_VS_BETA_KNOBS),
    # the map probes the demanding-rate regime where the partition
    # trade-off stays active even at the quiet end of the noise grid
    "optimal-map": (_run_optimal_map, {
        "lambda_min": (float, 0.01, _POSITIVE),
        "lambda_max": (float, 0.2, _POSITIVE),
        "lambda_points": (int, 5, _POSITIVE),
        "noise_dbw": (_list_of(float), "-50,-40,-30,-20", _FINITE),
        "r0": (float, 6.0e9, _POSITIVE),
        "eps_bs": (float, 0.1, _CAP),
        "eps_ma": (float, 0.1, _CAP)}),
    "validate-analytical": (_run_validate_analytical, {
        "lambdas": (_list_of(float), "0.005,0.02,0.1", _POSITIVE),
        "threshold_db": (float, 5.0, _FINITE)}),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(spec: ExperimentSpec):
    """Execute one experiment; returns the list of files written."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    start = time.time()
    outputs = _EXPERIMENTS[spec.name][0](spec)
    outputs.append(_write_manifest(spec, outputs, time.time() - start))
    return outputs


def dump_dictionary(cfg: NetworkConfig, out_dir: Path, cell_size: float | None,
                    n_max: int) -> Path:
    """Write the (k, j, theta_k, d_left, d_right) table of rows 1..n_max
    for inspection, each value as its repr so that it reads back exactly."""
    d_a = cell_size if cell_size is not None else cfg.mean_cell_size
    if not d_a > 0.0:   # NaN fails too
        raise ValueError("cell size must be positive")
    check_count(n_max, "n_max must be an integer >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "beam_dictionary.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "j", "theta_k", "d_left", "d_right"])
        for k in range(1, int(n_max) + 1):
            theta_k = repr(row_beamwidth(d_a, cfg.h_b, k))
            edges = beam_boundaries(d_a, cfg.h_b, k).tolist()
            for j in range(1, k + 1):
                writer.writerow([k, j, theta_k, repr(edges[j - 1]),
                                 repr(edges[j])])
    return path
