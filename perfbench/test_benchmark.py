"""Tests of the benchmark's own machinery (not of mmwloc).

    python3 -m pytest -q perfbench/test_benchmark.py

The corruption tests work on copies of the committed reference outputs in
a temporary directory; the committed files are only read.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

import gate
import run
import spans

HERE = Path(__file__).resolve().parent


def _rewrite(path: Path, row: int, column: str, value: str) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][rows[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture
def corrupted(tmp_path, monkeypatch):
    """A copy of the reference tree that run.check_outputs reads instead."""
    copy = tmp_path / "reference"
    shutil.copytree(run.REFERENCE, copy)
    monkeypatch.setattr(run, "REFERENCE", copy)
    return copy


def _check(workload: str, seed: int = gate.REFERENCE_SEED):
    """Gate the committed reference outputs as if a unit had written them."""
    out = HERE / "reference" / workload
    stdout = ""
    if run.WORKLOADS[workload]["result_line"]:
        stdout = (out / run.RESULT_LINE).read_text()
    return run.check_outputs(workload, seed, out, stdout)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reference_passes_against_itself(workload):
    attempted, failed, messages = _check(workload)
    assert attempted > 0 and failed == 0, messages


@pytest.mark.parametrize("workload,name,row,column,value", [
    ("optimize", "optimizer_per_k.csv", 3, "beta_star", "0.34"),
    ("optimize", "optimizer_per_k.csv", 2, "objective", "0.8663271526"),
    ("optimize", "optimizer_per_k.csv", 0, "feasible", "False"),
    ("validate", "validate_analytical.csv", 5, "status", "FAIL"),
    ("validate", "validate_analytical.csv", 1, "analytical", "0.01215694"),
    ("access", "access_delay.csv", 1234, "steps", "31"),
    ("access", "access_delay.csv", 2999, "proposed_ms", "0.4005"),
    ("access", "access_delay.csv", 7, "terminated", "max_iter"),
])
def test_corrupted_reference_value_fails_the_gate(corrupted, workload, name,
                                                  row, column, value):
    _rewrite(corrupted / workload / name, row, column, value)
    attempted, failed, messages = _check(workload)
    assert failed == 1, messages
    assert f"row {row + 1}: {column}" in messages[0]


def test_corrupted_result_line_fails_the_gate(corrupted):
    path = corrupted / "optimize" / run.RESULT_LINE
    path.write_text(path.read_text().replace("objective=0.884453",
                                             "objective=0.884455"))
    _, failed, messages = _check("optimize")
    assert failed == 1 and "objective" in messages[0]


def test_missing_output_fails_every_point(tmp_path):
    ref = run.REFERENCE / "validate" / "validate_analytical.csv"
    attempted, failed, _ = gate.compare_csv(tmp_path / ref.name, ref, True)
    assert attempted == failed == 12


def test_monte_carlo_columns_only_gate_the_reference_seed(corrupted):
    path = corrupted / "validate" / "validate_analytical.csv"
    _rewrite(path, 4, "montecarlo", "0.27140")
    assert _check("validate", seed=gate.REFERENCE_SEED)[1] == 1
    assert _check("validate", seed=7)[1] == 0
    _rewrite(path, 4, "status", "FAIL")
    assert _check("validate", seed=7)[1] == 1


def test_tolerance_follows_printed_precision():
    full = repr(0.8567411275854356)
    assert gate.close(repr(0.8567411275854356 * (1 + 1e-14)), full)
    assert not gate.close(repr(0.8567411275854356 * (1 + 1e-10)), full)
    # ten significant digits: one unit in the last digit is a rounding flip
    assert gate.close("0.01745233615", "0.01745233614", sig_digits=10)
    assert not gate.close("0.01745233616", "0.01745233614", sig_digits=10)
    assert not gate.close("1e-300", "0", sig_digits=10)
    assert gate.close("0.884454", "0.884453", decimals=6)
    assert not gate.close("0.884455", "0.884453", decimals=6)


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    units = [{"wall_s": 1.0, "peak_rss_mb": 2.0}]
    printed = run.end_to_end(units, [0.5])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == {name: m["unit"] for name, m in printed.items()}


def test_every_per_layer_metric_is_measured():
    untraced = {"wall_s": 1.0}
    traced = {"wall_s": 1.5, "csv_bytes": 10, "cell_grid": None, "trace": None}
    printed = run.per_layer(untraced, traced)
    assert list(printed) == [name for name, _ in run.LAYER_METRICS]


def test_layers_without_spans_are_marked_absent():
    trace = {"spans": {"coverage.rate": {}, "localization.avg_bs": {}}}
    presence = run.layer_presence(trace)
    assert set(presence) == {"experiments", "optimizer", "localization",
                             "coverage", "montecarlo", "initial_access"}
    assert [layer for layer, state in presence.items() if state == "present"] \
        == ["coverage", "localization"]
    assert set(run.layer_presence(None).values()) == {"absent"}


@pytest.mark.parametrize("seconds", [1, 30, 60, 150, 300, 1000])
@pytest.mark.parametrize("unit_s", [0.5, 9.0, 40.0])
def test_long_runs_never_start_a_unit_that_hits_the_time_limit(seconds, unit_s):
    """Replay the unit loop of main() with units of a fixed length: every
    unit after the first must end before the time limit."""
    limit = run.time_limit(seconds) - 5.0        # set-up spends some of it
    elapsed = unit_s
    while run.another_unit(elapsed, unit_s, seconds, limit - elapsed):
        elapsed += unit_s
        assert elapsed < limit


def test_self_times_and_remainder_add_up_to_wall():
    recorder = spans.Recorder()
    recorder.spans = [("coverage.rate", 1.0, 5.0, -1),
                      ("coverage.overall", 1.5, 4.5, 0),
                      ("localization.avg_bs", 2.0, 3.0, 1),
                      ("montecarlo.simulate", 6.0, 7.0, -1)]
    summary = recorder.summary(wall_s=8.0)
    assert summary["spans"]["coverage.overall"]["self_s"] == 2.0
    assert summary["layer_self_s"] == {"coverage": 3.0, "localization": 1.0,
                                       "montecarlo": 1.0}
    assert summary["untraced_s"] == 3.0
    assert sum(summary["layer_self_s"].values()) + summary["untraced_s"] == 8.0
