"""Golden outputs: experiments rerun with their golden arguments must
reproduce the committed CSVs in tests/golden/ byte for byte.

An intended change to one of these numbers shows up as a reviewed diff of
the golden file, recorded with ``mmwloc run <experiment> <args> --out
tests/golden`` (the manifest it also writes is not kept).
"""

from pathlib import Path

import pytest

from mmwloc import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
# Arguments beyond the defaults; the Monte Carlo oracle runs on a reduced,
# seeded trial count.
ARGS = {"validate-analytical": ["--trials", "20000", "--seed", "1"]}


@pytest.mark.parametrize("experiment, name", [
    ("access-resolution", "access_resolution.csv"),
    ("access-delay", "access_delay.csv"),
    ("validate-analytical", "validate_analytical.csv"),
])
def test_rerun_matches_golden_bytes(tmp_path, experiment, name):
    argv = ["run", experiment, *ARGS.get(experiment, []), "--out",
            str(tmp_path)]
    assert cli.main(argv) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
