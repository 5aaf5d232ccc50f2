"""Dead-surface guard: every public top-level def or class of the package
is reached by the package's own code, or is kept for a stated reason.

A name is reached when module-level code of some module (the CLI's entry
point among it) refers to it, or when a reached def or class does. The
re-exports in ``__init__.py`` and the imports reach nothing, so a cluster
of names that only call each other is caught as a whole. References are
matched by identifier, which can only over-count reach.
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
