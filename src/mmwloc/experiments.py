"""Named experiment families: sweeps behind the command-line runner.

``_EXPERIMENTS`` holds each experiment's runner and knobs. A run writes
its runner's tables as CSVs of plain columnar data (comma-separated, header
row, '.' decimals) plus a run manifest sufficient to reproduce it exactly.
Sweep points are emitted in sorted sweep-key order, so outputs are
byte-identical for a given (config, knobs), the Monte Carlo seed a knob.
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
from .montecarlo import BATCH_SIZE, simulate_coverage, window_half_width
from .numerics import check_count, db_to_linear
from .optimizer import (
    OptimizationSpec,
    default_beta_grid,
    optimize_beamwidth,
    ue_beamwidth_for_dictionary,
)

@dataclass
class ExperimentSpec:
    """What to run and where to put it; construction parses and
    range-checks every knob the run reads into ``knobs``, defaults filled
    in, so that a bad or unknown knob raises ConfigError before any run."""

    name: str
    cfg: NetworkConfig = field(default_factory=NetworkConfig)
    out_dir: Path = Path(".")
    overrides: dict = field(default_factory=dict)  # experiment.* knobs

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment: {self.name}")
        self.out_dir = Path(self.out_dir)
        table = _EXPERIMENTS[self.name][1]
        known = {f"experiment.{name}" for name in table}
        unknown = sorted(set(self.overrides) - known)
        if unknown:
            raise ConfigError(f"unknown knob for {self.name}: {unknown[0]} "
                              f"(known: {', '.join(sorted(known))})")
        self.knobs = {
            name: _parse_knob(name, self.overrides.get(f"experiment.{name}",
                                                       default), parse, valid)
            for name, (parse, default, valid) in table.items()}


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
_POINTS = _Range(1, 10_000, closed=True)  # as beta_step's 10,000 betas
_ROWS = _Range(1, AccessPolicy.n_max, closed=True)  # deepest access row
# A Monte Carlo batch draws its interferer positions at once, about
# BATCH_SIZE * 2 lambda * window_half_width doubles; at most this many
# (80 MB), which admits every density below 1 /m at the default d_s
_ORACLE_POSITIONS = 10 ** 7


def _parse_knob(name: str, value, parse, valid: _Range):
    """``parse(value)`` of ``experiment.<name>``; a value that does not
    parse or lies outside ``valid`` raises ConfigError."""
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
    """The header, then ``rows``: floats as .10g, None as an empty cell."""
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
        "overrides": spec.overrides,
        # every knob the experiment reads, at the value the run used
        "knobs": spec.knobs,
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


def _lambda_grid(knobs: dict):
    return np.geomspace(knobs["lambda_min"], knobs["lambda_max"],
                        knobs["lambda_points"])


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
    policy = AccessPolicy(delta_d=spec.knobs["delta_d"])
    cfg = spec.cfg
    lams = _lambda_grid(spec.knobs).tolist()
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
    return [("access_delay.csv",
             ["lambda", "steps", "proposed_ms", "iterative_ms",
              "exhaustive_ms", "k_star", "theta_u_star", "terminated"], rows)]


def _run_access_resolution(spec: ExperimentSpec):
    policy = AccessPolicy(delta_d=spec.knobs["delta_d"])
    lams = sorted(spec.knobs["lambdas"])
    geometries = [access_reference_geometry(lam, spec.cfg) for lam in lams]
    rows = []
    for lam, trace in zip(lams, access_traces(geometries, policy, spec.cfg)):
        for step in trace.steps:
            rows.append((lam, step.index, step.side, step.k, step.theta_u,
                         step.sigma_d2, step.sigma_psi2, step.symbols))
    return [("access_resolution.csv",
             ["lambda", "step", "side", "k", "theta_u", "sigma_d2",
              "sigma_psi2", "cum_symbols"], rows)]


def _run_error_vs_dictionary(spec: ExperimentSpec):
    beta = spec.knobs["beta"]

    def point(k):
        tu = ue_beamwidth_for_dictionary(k, spec.cfg)
        return (k, tu,
                avg_beam_selection_error(k, beta, tu, spec.cfg),
                avg_misalignment_error(k, tu, beta, spec.cfg))

    rows = [point(k) for k in range(1, spec.knobs["k_max"] + 1)]
    return [("error_vs_dictionary.csv", ["k", "theta_u", "p_bs", "p_ma"],
             rows)]


def _run_rate_vs_beta(spec: ExperimentSpec):
    r0 = spec.knobs["r0"]
    betas = spec.knobs["beta_step"]
    rows = []
    for k in sorted(spec.knobs["k_list"]):
        tu = ue_beamwidth_for_dictionary(k, spec.cfg)
        grid = np.array(betas)
        rates = rate_coverage(r0, grid, k, tu, spec.cfg)
        p_bs = avg_beam_selection_error(k, grid, tu, spec.cfg)
        p_ma = avg_misalignment_error(k, tu, grid, spec.cfg)
        rows += [(k, beta, tu, float(rate), float(bs), float(ma))
                 for beta, rate, bs, ma in zip(betas, rates, p_bs, p_ma)]
    return [("rate_vs_beta.csv",
             ["k", "beta", "theta_u", "rate_coverage", "p_bs", "p_ma"], rows)]


def _run_rate_vs_pbs(spec: ExperimentSpec):
    [(_, _, beta_rows)] = _run_rate_vs_beta(spec)
    rows = sorted(((k, p_bs, rate, beta)
                   for k, beta, _, rate, p_bs, _ in beta_rows),
                  key=lambda r: (r[0], r[1]))
    return [("rate_vs_pbs.csv", ["k", "p_bs", "rate_coverage", "beta"],
             rows)]


def _run_optimal_map(spec: ExperimentSpec):
    knobs = spec.knobs
    lams = _lambda_grid(knobs)
    noises = sorted(knobs["noise_dbw"])
    noise_w = {dbw: _db_knob_to_linear("noise_dbw", dbw) for dbw in noises}
    opt_spec = OptimizationSpec(r0=knobs["r0"], eps_bs=knobs["eps_bs"],
                                eps_ma=knobs["eps_ma"])

    def point(item):
        lam, dbw = item
        cfg = spec.cfg.with_overrides(
            bs_density=float(lam),
            noise_psd=noise_w[dbw] / spec.cfg.bandwidth)
        res = optimize_beamwidth(opt_spec, cfg)
        return (float(lam), dbw, res.feasible, res.k_star, res.beta_star,
                res.theta_star, res.objective)

    items = [(lam, dbw) for lam in lams for dbw in noises]
    rows = [point(item) for item in items]
    rows.sort(key=lambda r: (r[0], r[1]))
    return [("optimal_map.csv",
             ["lambda", "noise_dbw", "feasible", "k_star", "beta_star",
              "theta_star", "objective"], rows)]


def _run_validate_analytical(spec: ExperimentSpec):
    knobs = spec.knobs
    threshold_db = knobs["threshold_db"]
    threshold = _db_knob_to_linear("threshold_db", threshold_db)

    cfgs = [spec.cfg.with_overrides(bs_density=lam)
            for lam in sorted(knobs["lambdas"])]
    for cfg in cfgs:
        positions = BATCH_SIZE * 2.0 * cfg.bs_density * window_half_width(cfg)
        if positions > _ORACLE_POSITIONS:
            raise ConfigError(
                f"experiment.lambdas = {cfg.bs_density!r} at network.d_s_m = "
                f"{cfg.d_s!r} puts {positions:.3g} interferers in a Monte "
                f"Carlo batch, over {_ORACLE_POSITIONS:.3g}")
    betas = (0.5, 0.9)
    rows = []
    for cfg in cfgs:
        # the four points of one density share the oracle's draws, and the
        # two betas of one k the analytic pass's kernel tables
        beams = [(k, ue_beamwidth_for_dictionary(k, cfg)) for k in (4, 16)]
        queries = [CoverageQuery(threshold=threshold, k=k, theta_u=tu,
                                 beta=beta)
                   for k, tu in beams for beta in betas]
        results = simulate_coverage(queries, cfg, knobs["trials"],
                                    seed=knobs["seed"])
        values = [float(value) for k, tu in beams
                  for value in overall_coverage(threshold, k, tu,
                                                np.array(betas), cfg)]
        for query, analytical, mc in zip(queries, values, results):
            tol = max(0.02, 3.0 * mc.stderr)
            ok = abs(analytical - mc.probability) <= tol
            rows.append((cfg.bs_density, query.k, query.beta, threshold_db,
                         analytical, mc.probability, mc.stderr, tol,
                         "pass" if ok else "FAIL"))
    return [("validate_analytical.csv",
             ["lambda", "k", "beta", "threshold_db", "analytical",
              "montecarlo", "stderr", "tolerance", "status"], rows)]


_RATE_VS_BETA_KNOBS = {"r0": (float, 1.0e8, _POSITIVE),
                       "k_list": (_list_of(int), "4,16", _ROWS),
                       "beta_step": (default_beta_grid, 0.02, _PROBABILITY)}
# experiment -> (runner, {knob: (parse, default, range)}), the knobs being
# every ``experiment.<knob>`` override the experiment reads; any other key
# is rejected. beta_step parses to its beta grid, and the range applies to
# the grid's betas. A runner returns its [(file name, header, rows)].
_EXPERIMENTS = {
    "access-delay": (_run_access_delay, {
        "delta_d": (float, 0.1, _POSITIVE),
        "lambda_min": (float, 0.005, _POSITIVE),
        "lambda_max": (float, 0.2, _POSITIVE),
        "lambda_points": (int, 9, _POINTS)}),
    "access-resolution": (_run_access_resolution, {
        "lambdas": (_list_of(float), "0.01,0.02,0.05,0.1", _POSITIVE),
        "delta_d": (float, 0.01, _POSITIVE)}),
    "error-vs-dictionary": (_run_error_vs_dictionary, {
        "beta": (float, 0.5, _PROBABILITY), "k_max": (int, 32, _ROWS)}),
    "rate-vs-beta": (_run_rate_vs_beta, _RATE_VS_BETA_KNOBS),
    "rate-vs-pbs": (_run_rate_vs_pbs, _RATE_VS_BETA_KNOBS),
    # the map probes the demanding-rate regime where the partition
    # trade-off stays active even at the quiet end of the noise grid
    "optimal-map": (_run_optimal_map, {
        "lambda_min": (float, 0.01, _POSITIVE),
        "lambda_max": (float, 0.2, _POSITIVE),
        "lambda_points": (int, 5, _POINTS),
        "noise_dbw": (_list_of(float), "-50,-40,-30,-20", _FINITE),
        "r0": (float, 6.0e9, _POSITIVE),
        "eps_bs": (float, 0.1, _CAP),
        "eps_ma": (float, 0.1, _CAP)}),
    "validate-analytical": (_run_validate_analytical, {
        "lambdas": (_list_of(float), "0.005,0.02,0.1", _POSITIVE),
        "threshold_db": (float, 5.0, _FINITE),
        "seed": (int, 1, _Range(0, math.inf, closed=True)),
        "trials": (int, 100_000, _POSITIVE)}),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(spec: ExperimentSpec):
    """Execute one experiment into the existing ``spec.out_dir``; returns
    the list of files written."""
    start = time.time()
    outputs = []
    for name, header, rows in _EXPERIMENTS[spec.name][0](spec):
        outputs.append(spec.out_dir / name)
        _write_csv(outputs[-1], header, rows)
    outputs.append(_write_manifest(spec, outputs, time.time() - start))
    return outputs


def dump_dictionary(cfg: NetworkConfig, out_dir: Path, cell_size: float | None,
                    n_max: int) -> Path:
    """Write the (k, j, theta_k, d_left, d_right) table of rows 1..n_max
    into the existing ``out_dir`` for inspection, each value as its repr
    so that it reads back exactly."""
    d_a = cell_size if cell_size is not None else cfg.mean_cell_size
    if not d_a > 0.0:   # NaN fails too
        raise ValueError("cell size must be positive")
    check_count(n_max, "n_max must be an integer >= 1")
    path = Path(out_dir) / "beam_dictionary.csv"

    def rows():
        for k in range(1, int(n_max) + 1):
            theta_k = repr(row_beamwidth(d_a, cfg.h_b, k))
            edges = list(map(repr, beam_boundaries(d_a, cfg.h_b, k).tolist()))
            for j in range(1, k + 1):
                yield k, j, theta_k, edges[j - 1], edges[j]

    _write_csv(path, ["k", "j", "theta_k", "d_left", "d_right"], rows())
    return path
