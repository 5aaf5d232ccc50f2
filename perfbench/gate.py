"""Correctness gate: compare a unit's outputs with the recorded reference.

Every data row (and the optimizer's printed result line) is one point. A
point fails when it is missing, when a discrete column differs at all, or
when a numeric column differs by more than REL_TOL relative. Values that
were written with fewer digits than that (the experiment CSVs use 10
significant digits, the printed line 6 decimals) may also differ by one
unit in their last printed digit, since a 1e-13 change can flip a rounding.
Monte Carlo columns are compared as text, i.e. bit-identical at the
printed precision, but only when the run used the reference seed; for
other seeds the seed-free columns, including ``status``, still apply.
The run manifest is never compared: it carries ``wall_time_s``.
"""

from __future__ import annotations

import csv
import math
from decimal import Decimal
from pathlib import Path

REL_TOL = 1e-12
REFERENCE_SEED = 1

# Per data file: columns that must match exactly, numeric columns, and
# columns that depend on the Monte Carlo seed.
SCHEMAS = {
    "optimizer_per_k.csv": {
        "exact": ("k", "feasible", "beta_star"),
        "numeric": ("theta_u", "objective", "p_bs", "p_ma"),
        "seeded": (),
        "sig_digits": None,
    },
    "validate_analytical.csv": {
        "exact": ("k", "beta", "threshold_db", "status"),
        "numeric": ("lambda", "analytical"),
        "seeded": ("montecarlo", "stderr", "tolerance"),
        "sig_digits": 10,
    },
    "access_delay.csv": {
        "exact": ("steps", "k_star", "terminated"),
        "numeric": ("lambda", "proposed_ms", "iterative_ms", "exhaustive_ms",
                    "theta_u_star"),
        "seeded": (),
        "sig_digits": 10,
    },
}


def close(text: str, ref: str, sig_digits: int | None = None,
          decimals: int | None = None) -> bool:
    """Numeric cell ``text`` matches the reference cell ``ref``, which was
    printed with ``sig_digits`` significant digits or ``decimals`` decimals
    (neither: full precision)."""
    if text == ref:
        return True
    try:
        value, expected = float(text), float(ref)
    except ValueError:
        return False
    if not (math.isfinite(value) and math.isfinite(expected)):
        return False
    if abs(value - expected) <= REL_TOL * abs(expected):
        return True
    if sig_digits is not None and expected != 0.0:
        unit = Decimal(1).scaleb(Decimal(ref).adjusted() - sig_digits + 1)
    elif decimals is not None:
        unit = Decimal(1).scaleb(-decimals)
    else:
        return False
    return abs(Decimal(text) - Decimal(ref)) <= unit


def compare_rows(rows, ref_rows, schema, same_seed: bool):
    """Returns (attempted, failed, messages) over the reference rows."""
    columns = schema["exact"] + schema["numeric"]
    if same_seed:
        columns += schema["seeded"]
    failed = 0
    messages = []
    for index, ref in enumerate(ref_rows):
        row = rows[index] if index < len(rows) else None
        if row is None:
            bad = ["missing"]
        else:
            bad = [c for c in columns
                   if (row.get(c) != ref[c] if c not in schema["numeric"]
                       else not close(row.get(c) or "", ref[c],
                                      schema["sig_digits"]))]
        if bad:
            failed += 1
            messages.append(f"row {index + 1}: {', '.join(bad)}")
    extra = max(len(rows) - len(ref_rows), 0)
    if extra:
        messages.append(f"{extra} rows beyond the reference")
    return len(ref_rows) + extra, failed + extra, messages


def read_table(path: Path):
    """(header, rows as dicts) of a CSV file."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def compare_csv(path: Path, ref_path: Path, same_seed: bool):
    """Compare one data CSV; a missing or unreadable file fails every point."""
    ref_header, ref_rows = read_table(ref_path)
    try:
        header, rows = read_table(path)
    except OSError as exc:
        return len(ref_rows), len(ref_rows), [f"{path.name}: {exc}"]
    if header != ref_header:
        return len(ref_rows), len(ref_rows), [f"{path.name}: header differs"]
    attempted, failed, messages = compare_rows(rows, ref_rows,
                                               SCHEMAS[ref_path.name], same_seed)
    return attempted, failed, [f"{path.name} {m}" for m in messages]


def parse_result_line(text: str) -> dict:
    """``k_star=8 beta_star=0.32 ...`` as a dict of strings."""
    return dict(item.split("=", 1) for item in text.split() if "=" in item)


def compare_result_line(stdout: str, ref_line: str):
    """The optimizer's printed result line is one point."""
    lines = stdout.splitlines()
    ref = parse_result_line(ref_line)
    got = parse_result_line(lines[0]) if lines else {}
    bad = [key for key in ref
           if (got.get(key) != ref[key] if key in ("k_star", "beta_star")
               else not close(got.get(key, ""), ref[key], decimals=6))]
    messages = [f"printed line: {', '.join(bad)}"] if bad else []
    return 1, int(bool(bad)), messages
