"""mmwloc benchmark: three CLI workloads, end-to-end metrics, a layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
A unit is one fresh interpreter that runs ``mmwloc.cli.main(argv)`` once
(perfbench/unit.py), single-threaded, with its lru caches cold as for any
CLI user:

  optimize  ``mmwloc optimize`` with its defaults: 6 k x 50 beta = 300
            (k, beta) evaluations. No random input; the seed is unused.
  validate  ``mmwloc run validate-analytical --seed N``: 12 points, 1.2M
            Monte Carlo trials. The only workload the seed changes.
  access    ``mmwloc run access-delay`` on 3000 densities with a 1 mm
            ranging target. No random input; the seed is unused.

``--trace 0`` repeats units until ``--seconds`` is used (at least one) and
reports, as medians over the run:
  wall_s       wall time of ``cli.main(argv)`` in the unit;
  setup_s      spawn-to-exit time of a fresh interpreter that only imports
               ``mmwloc.cli`` (five per run, after one unmeasured warm-up);
  peak_rss_mb  peak resident set size of the unit process.
Units stop early rather than run into the time limit, max(170 s,
2 x --seconds). ``--trace 1`` runs one untraced and one traced unit
(spans.py) and reports the per-layer metrics named in BENCHMARK.json,
including the tracing overhead; the record marks each layer present or
absent.

Every unit's outputs go through the correctness gate (gate.py) against the
references in perfbench/reference/ (see its README.md); mismatches count
as failed points. The line before the JSON result is the run record:
environment, host-speed probes around each unit, per-unit figures and gate
messages; it is also saved under .perfbench_work/records/. Measurements
are of this process tree only: nothing is pinned, no cache is dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
RESULT_LINE = "result_line.txt"
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import mmwloc.cli"

WORKLOADS = {
    "optimize": {"argv": ["optimize"], "seeded": False,
                 "files": ("optimizer_per_k.csv",), "result_line": True},
    "validate": {"argv": ["run", "validate-analytical"], "seeded": True,
                 "files": ("validate_analytical.csv",), "result_line": False},
    "access": {"argv": ["run", "access-delay",
                        "--set", "experiment.lambda_points=3000",
                        "--set", "experiment.delta_d=0.001"],
               "seeded": False, "files": ("access_delay.csv",),
               "result_line": False},
}

# (name, unit) of every metric --trace 1 prints, in BENCHMARK.json's order.
LAYER_METRICS = tuple(
    (m["name"], m["unit"])
    for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"])


def host_probe() -> list:
    """Milliseconds for a fixed pure-Python loop, three times: context for
    explaining a slow unit (host speed drifts on a shared VM), not a metric."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sum(i * i for i in range(100_000))
        times.append(round((time.perf_counter() - start) * 1e3, 3))
    return times


def environment(root: Path) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {name: os.environ.get(name) for name in thread_vars},
        "git_commit": commit or "unknown (not a git checkout)",
        "host_note": ("shared, noisy virtual machine; nothing pinned, no "
                      "caches dropped, only this process tree measured"),
    }


def time_setup(root: Path, timeout: float) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(root / "src")],
                   cwd=root, check=True, timeout=timeout)
    return time.perf_counter() - start


def cli_argv(workload: str, seed: int, out: Path) -> list:
    spec = WORKLOADS[workload]
    argv = list(spec["argv"]) + ["--out", str(out)]
    return argv + ["--seed", str(seed)] if spec["seeded"] else argv


def check_outputs(workload: str, seed: int, out: Path, stdout: str):
    """(attempted, failed, messages) of the correctness gate for one unit."""
    spec = WORKLOADS[workload]
    same_seed = not spec["seeded"] or seed == gate.REFERENCE_SEED
    attempted = failed = 0
    messages = []
    for name in spec["files"]:
        a, f, m = gate.compare_csv(out / name, REFERENCE / workload / name,
                                   same_seed)
        attempted, failed, messages = attempted + a, failed + f, messages + m
    if spec["result_line"]:
        ref_line = (REFERENCE / workload / RESULT_LINE).read_text().strip()
        a, f, m = gate.compare_result_line(stdout, ref_line)
        attempted, failed, messages = attempted + a, failed + f, messages + m
    return attempted, failed, messages


def run_unit(root: Path, work: Path, workload: str, seed: int, traced: bool,
             timeout: float) -> dict:
    """Run one unit in a fresh interpreter and apply the correctness gate
    to its outputs."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = work / f"unit-{workload}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "unit.py"), str(root), str(result_path),
           "1" if traced else "0", "--", *cli_argv(workload, seed, out)]
    probe_before = host_probe()
    start = time.perf_counter()
    try:
        subprocess.run(cmd, cwd=root, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    elapsed = time.perf_counter() - start
    probe_after = host_probe()
    try:
        unit = json.loads(result_path.read_text())
    except (OSError, ValueError):
        unit = {"rc": None, "wall_s": elapsed, "cpu_s": None, "stdout": "",
                "peak_rss_mb": 0.0, "cell_grid": None}
    attempted, failed, messages = check_outputs(workload, seed, out,
                                                unit["stdout"])
    if unit["rc"] != 0:
        failed = attempted
        messages.insert(0, f"exit code {unit['rc']}")
    unit.update(traced=traced, elapsed_s=elapsed, attempted=attempted,
                failed=failed, gate_messages=messages[:10],
                csv_bytes=sum(p.stat().st_size for p in out.glob("*.csv")),
                probe_ms_before=probe_before, probe_ms_after=probe_after)
    return unit


def end_to_end(units: list, setup: list) -> dict:
    return {
        "wall_s": {"value": statistics.median(u["wall_s"] for u in units),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(u["peak_rss_mb"]
                                                   for u in units),
                        "unit": "MB"},
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    trace = traced.get("trace") or {"spans": {}, "layer_self_s": {},
                                    "counters": {}, "untraced_s": 0.0}
    spans, counters = trace["spans"], trace["counters"]
    cell_grid = traced.get("cell_grid") or {"hits": 0, "misses": 0}

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "coverage.positions": counters.get("coverage.positions", 0),
        "coverage.kernel.positions": counters.get("coverage.kernel.positions", 0),
        "localization.cell_grid.hits": cell_grid["hits"],
        "localization.cell_grid.misses": cell_grid["misses"],
        "optimizer.beta_evals": counters.get("optimizer.beta_evals", 0),
        "optimizer.feasible_evals": counters.get("optimizer.feasible_evals", 0),
        "optimizer.feasible_ratio": ratio(
            counters.get("optimizer.feasible_evals", 0),
            counters.get("optimizer.beta_evals", 0)),
        "montecarlo.trials": counters.get("montecarlo.trials", 0),
        "montecarlo.trials_per_s": ratio(
            counters.get("montecarlo.trials", 0),
            span("montecarlo.simulate", "total_s")),
        "initial_access.steps": counters.get("initial_access.steps", 0),
        "initial_access.steps_per_s": ratio(
            counters.get("initial_access.steps", 0),
            span("initial_access.run", "total_s")),
        "initial_access.accuracy_met": counters.get("initial_access.accuracy_met", 0),
        "initial_access.accuracy_met_ratio": ratio(
            counters.get("initial_access.accuracy_met", 0),
            span("initial_access.run", "calls")),
        "initial_access.fallback_events": counters.get(
            "initial_access.fallback_events", 0),
        "experiments.self_s": span("experiments.run", "self_s"),
        "experiments.csv_bytes": traced["csv_bytes"],
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_s": trace["untraced_s"],
        "trace_overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name in values:
            value = values[name]
        elif name.endswith((".calls", ".self_s")) and name.count(".") == 2:
            span_name, _, key = name.rpartition(".")
            value = span(span_name, key)
        elif name.endswith(".self_s") and name.count(".") == 1:
            value = trace["layer_self_s"].get(name.split(".", 1)[0], 0.0)
        else:
            raise KeyError(f"per_layer metric {name} is not measured")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def layer_presence(trace: dict) -> dict:
    """'present' for each layer with at least one span in the traced unit,
    else 'absent', so a metric of 0 reads as "did not run" or "measured 0"."""
    ran = {name.split(".", 1)[0] for name in (trace or {}).get("spans", {})}
    return {layer: "present" if layer in ran else "absent"
            for layer in spans.LAYERS}


def time_limit(seconds: float) -> float:
    """Seconds a run may take in all: room for --seconds of units and for
    the last unit to end, and at least TIME_LIMIT_S for a single slow one."""
    return max(TIME_LIMIT_S, 2 * seconds)


def another_unit(elapsed: float, typical: float, seconds: float,
                 remaining: float) -> bool:
    """Start one more unit only if --seconds are not used up yet and the
    unit can end well before the time limit, so none is ever killed."""
    return elapsed + 0.5 * typical < seconds and remaining > 2 * typical


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=gate.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + time_limit(args.seconds)

    root = Path.cwd()
    if not (root / "src" / "mmwloc" / "cli.py").is_file():
        print(f"no mmwloc source under {root / 'src'}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed,
              "seed_used": WORKLOADS[args.workload]["seeded"],
              "cli_argv": cli_argv(args.workload, args.seed, Path("OUT")),
              "trace": args.trace, "seconds": args.seconds,
              "environment": environment(root)}
    units = []
    if args.trace:
        for traced in (False, True):
            units.append(run_unit(root, work, args.workload, args.seed,
                                  traced, deadline - time.perf_counter()))
        metrics = per_layer(*units)
        record["trace_summary"] = units[1].get("trace")
        record["layers"] = layer_presence(units[1].get("trace"))
    else:
        time_setup(root, TIME_LIMIT_S)          # compiles bytecode once
        setup = [time_setup(root, TIME_LIMIT_S) for _ in range(SETUP_REPEATS)]
        record["setup_s"] = setup
        start = time.perf_counter()
        while True:
            units.append(run_unit(root, work, args.workload, args.seed, False,
                                  deadline - time.perf_counter()))
            if units[-1]["rc"] != 0:
                break
            typical = statistics.median(u["elapsed_s"] for u in units)
            if not another_unit(time.perf_counter() - start, typical,
                                args.seconds, deadline - time.perf_counter()):
                break
        metrics = end_to_end(units, setup)
    record["units"] = [{key: u[key] for key in (
        "rc", "traced", "wall_s", "cpu_s", "elapsed_s", "peak_rss_mb",
        "cell_grid", "attempted", "failed", "gate_messages", "csv_bytes",
        "probe_ms_before", "probe_ms_after")} for u in units]

    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    records = work / "records"
    records.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
               f"-{os.getpid()}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
