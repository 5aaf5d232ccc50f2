"""Dead-surface guards.

Every public top-level def or class of the package is reached by the
package's own code, or is kept for a stated reason. A name is reached when
module-level code of some module (the CLI's entry point among it) refers
to it, or when a reached def or class does. The re-exports in
``__init__.py`` and the imports reach nothing, so a cluster of names that
only call each other is caught as a whole. References are matched by
identifier, which can only over-count reach.

Every parameter with a default, a dataclass field with a default among
them, is passed at some call in the package, or is kept for a stated
reason: a value that only tests set is not an input of the analyzer.
Calls are matched by the callee's identifier (a class name calls its
``__init__``, or its dataclass fields in order), and a ``*args`` or
``**kwargs`` at a call counts as passing everything, which again can only
over-count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mmwloc"

# name -> why it stays although no package code reaches it
KEEP = {
    "laplace_interference": "test handle on the kernel: the quadrature pin "
                            "and the simulate_laplace oracle test use it",
    "simulate_laplace": "test oracle for the interference kernel",
    "simulate_error_probabilities": "acceptance criterion 2's oracle",
    "run_initial_access": "the one-user entry point on access_traces' path; "
                          "perfbench/spans.py hooks it by name",
}


# "module.function(parameter)" -> why only the default is set in the package
DEFAULT_ONLY = {
    "cli.main(argv)": "the console entry point; tests and the benchmark "
                      "pass argv",
    "optimizer.default_beta_grid(step)": "the beta_step knob parses "
                                         "through it",
    **{f"initial_access.AccessPolicy({name})": "the pinned access tests run "
                                               "other policies"
       for name in ("delta_bs", "delta_ma", "delta_psi", "max_steps",
                    "initial_sigma_d2", "n_max", "pilot_energy_scale",
                    "bs_growth")},
    **{f"optimizer.OptimizationSpec({name})": "criteria 6 and 7 and the "
                                              "optimizer tests use coarse "
                                              "grids"
       for name in ("k_candidates", "beta_grid")},
    "initial_access.AccessTrace(fallback_events)": "perfbench/spans.py "
                                                   "reads it",
}


def _identifiers(node) -> set:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _surface():
    """(defs, roots): top-level def/class name -> (module, identifiers it
    refers to), and the identifiers module-level code refers to."""
    defs, roots = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = (path.stem, _identifiers(node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _identifiers(node)
    return defs, roots


def _reached(defs, roots) -> set:
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += defs[name][1]
    return reached


def test_every_public_name_is_reached_or_kept():
    defs, roots = _surface()
    reached = _reached(defs, roots | set(KEEP))
    dead = sorted(f"{module}.{name}" for name, (module, _) in defs.items()
                  if not name.startswith("_") and name not in reached)
    assert dead == []


def test_keep_lists_only_unreached_names():
    defs, roots = _surface()
    assert set(KEEP) <= set(defs)
    assert not set(KEEP) & _reached(defs, roots)


def _defaulted_parameters():
    """(label, callee identifier, parameter, call position or None for a
    keyword-only one) of every parameter or dataclass field with a default;
    a method's positions are shifted past ``self``."""
    found = []

    def visit(node, module, prefix, cls):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "name", None)
            if isinstance(child, ast.ClassDef):
                if any("dataclass" in _identifiers(decorator)
                       for decorator in child.decorator_list):
                    fields = [a for a in child.body
                              if isinstance(a, ast.AnnAssign)]
                    found.extend((f"{module}.{prefix}{name}", name,
                                  a.target.id, i)
                                 for i, a in enumerate(fields)
                                 if a.value is not None)
                visit(child, module, f"{prefix}{name}.", name)
            elif isinstance(child, ast.FunctionDef):
                callee = cls if name == "__init__" else name
                label, shift = f"{module}.{prefix}{name}", 1 if cls else 0
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                found.extend((label, callee, a.arg, i - shift)
                             for i, a in enumerate(positional) if i >= first)
                found.extend((label, callee, a.arg, None) for a, d in
                             zip(args.kwonlyargs, args.kw_defaults) if d)
                visit(child, module, f"{prefix}{name}.", None)
            else:
                visit(child, module, prefix, cls)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", None)
    return found


def _passes(call, name, position) -> bool:
    """Whether a call passes parameter ``name`` at ``position``."""
    return (any(k.arg in (None, name) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def _never_passed() -> set:
    """Labels "module.function(parameter)" of the defaulted parameters that
    no call in the package passes, by position or by keyword."""
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", None) or getattr(func, "attr",
                                                              None)
                calls.setdefault(callee, []).append(node)
    return {f"{label}({name})"
            for label, callee, name, position in _defaulted_parameters()
            if not any(_passes(call, name, position)
                       for call in calls.get(callee, ()))}


def test_every_defaulted_parameter_is_passed_or_kept():
    assert sorted(_never_passed() - set(DEFAULT_ONLY)) == []


def test_default_only_lists_only_unpassed_parameters():
    assert set(DEFAULT_ONLY) <= _never_passed()
