"""Command-line experiment runner.

Subcommands: ``run <experiment>``, ``dump-dictionary`` and ``optimize``,
one entry point per output (the analytic-versus-Monte-Carlo check is
``run validate-analytical``). Configuration comes from an optional flat
key=value file (boundary units: dBm, dBm/Hz, per-km) plus dotted-key
overrides, each of which is also exposed as a flag of the same dotted
name; ``run --seed N``/``--trials N`` set ``experiment.seed``/``.trials``.
Every input, ``--out`` included, is checked before any computation.

Exit codes: 0 on success, 2 for configuration errors, 3 for numeric
failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import (
    boundary_keys,
    from_boundary_mapping,
    parse_config_text,
    set_last,
)
from .errors import ConfigError, NumericError
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    dump_dictionary,
    run_experiment,
)
from .initial_access import AccessPolicy
from .optimizer import OptimizationSpec, optimize_beamwidth

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _within(convert, lo: float, hi: float = math.inf):
    """argparse type: ``convert`` the text, then require lo < value < hi."""
    def parse(text: str):
        value = convert(text)
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(
                f"must be in ({lo}, {hi}), got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file (boundary units)")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory")
    # each --network.<key> V is a --set network.<key>=V, kept in order
    for key in boundary_keys():
        parser.add_argument(f"--{key}", dest="set", action="append",
                            default=[], type=lambda v, key=key: f"{key}={v}",
                            metavar="V", help=argparse.SUPPRESS)
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="dotted-key override (network.* or experiment.*)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwloc",
        description="mm-wave joint localization/communication analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a named experiment sweep")
    run_p.add_argument("experiment", choices=EXPERIMENT_NAMES)
    _add_common(run_p)
    # each --seed N or --trials N is a --set experiment.<knob>=N, in order
    for knob in ("seed", "trials"):
        run_p.add_argument(f"--{knob}", dest="set", action="append",
                           type=lambda v, k=knob: f"experiment.{k}={v}",
                           metavar="N", help="validate-analytical's knob")

    dump_p = sub.add_parser("dump-dictionary", help="export the beam database")
    _add_common(dump_p)
    dump_p.add_argument("--cell-size", type=_within(float, 0.0), default=None)
    dump_p.add_argument("--n-max", default=32,
                        type=_within(int, 0, AccessPolicy.n_max + 1))

    opt_p = sub.add_parser("optimize", help="optimal beamwidth and frame split")
    _add_common(opt_p)
    opt_p.add_argument("--r0", type=_within(float, 0.0), default=1.0e8)
    opt_p.add_argument("--eps-bs", type=_within(float, 0.0, 1.0), default=0.1)
    opt_p.add_argument("--eps-ma", type=_within(float, 0.0, 1.0), default=0.1)
    return parser


def _collect_overrides(args) -> dict:
    entries = {}
    if args.config is not None:
        try:
            entries.update(parse_config_text(
                args.config.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        set_last(entries, key.strip(), value.strip())
    return entries


def _split_sections(entries: dict) -> tuple:
    """(the rest, for from_boundary_mapping, and the experiment.* knobs)"""
    knobs = {k: v for k, v in entries.items() if k.startswith("experiment.")}
    return {k: v for k, v in entries.items() if k not in knobs}, knobs


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        network, knobs = _split_sections(_collect_overrides(args))
        cfg = from_boundary_mapping(network)
        if args.command == "run":
            spec = ExperimentSpec(name=args.experiment, cfg=cfg,
                                  out_dir=args.out, overrides=knobs)
        elif knobs:
            raise ConfigError(f"{args.command} reads no experiment knobs, "
                              f"got {sorted(knobs)[0]}")
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # FileExistsError where --out is a file
            raise ConfigError(f"cannot use output directory: {exc}") from exc

        if args.command == "run":
            for path in run_experiment(spec):
                print(path)
        elif args.command == "dump-dictionary":
            print(dump_dictionary(cfg, args.out, args.cell_size, args.n_max))
        elif args.command == "optimize":
            spec = OptimizationSpec(r0=args.r0, eps_bs=args.eps_bs,
                                    eps_ma=args.eps_ma)
            result = optimize_beamwidth(spec, cfg)
            if not result.feasible:
                print("infeasible: no (k, beta) pair meets the error caps")
            else:
                print(f"k_star={result.k_star} beta_star={result.beta_star} "
                      f"theta_star={result.theta_star:.6f} "
                      f"objective={result.objective:.6f}")
            table = args.out / "optimizer_per_k.csv"
            with open(table, "w") as fh:
                fh.write("k,theta_u,feasible,beta_star,objective,p_bs,p_ma\n")
                for row in result.per_k_table:
                    fh.write(",".join(str(v) if v is not None else ""
                                      for v in (row.k, row.theta_u,
                                                row.feasible, row.beta_star,
                                                row.objective, row.p_bs,
                                                row.p_ma)) + "\n")
            print(table)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
