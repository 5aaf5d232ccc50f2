"""Span recorder that wraps mmwloc's layer entry points from outside.

The package is not modified. ``install()`` replaces each hooked function
with a timing wrapper in every ``mmwloc`` module that holds a reference to
it, because ``from .coverage import rate_coverage`` leaves a separate name
in the importing module: patching only the defining module would miss
``optimizer.rate_coverage`` or ``experiments.simulate_coverage``.

Spans (name, start, end, parent) are kept in memory and written out at the
end. A span's self time is its duration minus the durations of its direct
children; calls nest strictly because every workload runs single-threaded.
Hooks on private helpers are optional: when a refactor removes one, it is
reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# Sizes of the cell-averaging grid: 64 cell nodes x k beams x 32 nodes.
DEFAULT_CELL_NODES = 64
DEFAULT_BEAM_NODES = 32


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_overall(counters, args, kwargs, result):
    k = _arg(args, kwargs, 1, "k")
    loc = sys.modules["mmwloc.localization"]
    beam_nodes = getattr(loc, "BEAM_NODES", DEFAULT_BEAM_NODES)
    if kwargs.get("cell_size", args[5] if len(args) > 5 else None) is None:
        cells = getattr(loc, "CELL_NODES", DEFAULT_CELL_NODES)
    else:
        cells = 1
    counters["coverage.positions"] += cells * k * beam_nodes


def _count_kernel(counters, args, kwargs, result):
    counters["coverage.kernel.positions"] += _arg(args, kwargs, 1, "w").size


def _count_optimize_beta(counters, args, kwargs, result):
    spec = _arg(args, kwargs, 1, "spec")
    counters["optimizer.beta_evals"] += len(spec.beta_grid)
    counters["optimizer.feasible_evals"] += result.feasible_count


def _count_simulate(counters, args, kwargs, result):
    counters["montecarlo.trials"] += _arg(args, kwargs, 2, "trials")


def _count_access(counters, args, kwargs, result):
    counters["initial_access.steps"] += len(result.steps)
    counters["initial_access.accuracy_met"] += result.terminated == "accuracy_met"
    counters["initial_access.fallback_events"] += result.fallback_events


# (span name, defining module, attribute path, counter, optional)
HOOKS = (
    ("experiments.run", "mmwloc.experiments", "run_experiment", None, False),
    ("optimizer.optimize_beamwidth", "mmwloc.optimizer", "optimize_beamwidth",
     None, False),
    ("optimizer.optimize_beta", "mmwloc.optimizer", "optimize_beta",
     _count_optimize_beta, False),
    ("optimizer.ue_beamwidth", "mmwloc.optimizer",
     "ue_beamwidth_for_dictionary", None, False),
    ("coverage.rate", "mmwloc.coverage", "rate_coverage", None, False),
    ("coverage.overall", "mmwloc.coverage", "overall_coverage",
     _count_overall, False),
    ("coverage.branch", "mmwloc.coverage", "_branch_values", None, True),
    ("coverage.kernel", "mmwloc.coverage", "_InterferenceTables.exponents",
     _count_kernel, True),
    ("localization.avg_bs", "mmwloc.localization", "avg_beam_selection_error",
     None, False),
    ("localization.avg_ma", "mmwloc.localization", "avg_misalignment_error",
     None, False),
    ("montecarlo.simulate", "mmwloc.montecarlo", "simulate_coverage",
     _count_simulate, False),
    ("initial_access.run", "mmwloc.initial_access", "run_initial_access",
     _count_access, False),
)

# The layers, in the order of HOOKS: the first part of every span name.
LAYERS = tuple(dict.fromkeys(hook[0].split(".", 1)[0] for hook in HOOKS))

COUNTERS = (
    "coverage.positions", "coverage.kernel.positions", "optimizer.beta_evals",
    "optimizer.feasible_evals", "montecarlo.trials", "initial_access.steps",
    "initial_access.accuracy_met", "initial_access.fallback_events",
)


class Recorder:
    """In-memory span list plus the counters read at the hooked calls."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index)
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent = []

    def wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self.stack, self.counters

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return wrapper

    def summary(self, wall_s: float) -> dict:
        """Per-span-name calls, total and self time; per-layer self time;
        the untraced remainder, so layer self times + remainder = wall_s."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        names = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = names.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        layers = {}
        for name, entry in names.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
        return {"spans": names, "layer_self_s": layers,
                "untraced_s": wall_s - top, "counters": dict(self.counters),
                "absent": list(self.absent), "span_count": len(self.spans)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def _rebind(original, wrapper) -> int:
    """Point every mmwloc module-level name bound to ``original`` at
    ``wrapper``; returns how many names were rebound."""
    rebound = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "mmwloc"
                                  or mod_name.startswith("mmwloc.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                rebound += 1
    return rebound


def install() -> Recorder:
    """Wrap every hook; call after ``import mmwloc.cli`` loaded the package."""
    recorder = Recorder()
    for name, module_name, path, count, optional in HOOKS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            if not optional:
                raise AttributeError(f"{module_name}.{path} not found")
            recorder.absent.append(name)
            continue
        wrapper = recorder.wrap(name, original, count)
        if owner_name:
            setattr(owner, attr, wrapper)
        elif _rebind(original, wrapper) == 0:
            raise RuntimeError(f"{module_name}.{path}: nothing rebound")
    return recorder
