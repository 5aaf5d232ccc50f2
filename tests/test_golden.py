"""Golden outputs: experiments rerun with their defaults must reproduce the
committed CSVs in tests/golden/ byte for byte.

An intended change to one of these numbers shows up as a reviewed diff of
the golden file, recorded with ``mmwloc run <experiment> --out tests/golden``
(the manifest it also writes is not kept).
"""

from pathlib import Path

import pytest

from mmwloc import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("experiment, name", [
    ("access-resolution", "access_resolution.csv"),
    ("access-delay", "access_delay.csv"),
])
def test_rerun_matches_golden_bytes(tmp_path, experiment, name):
    assert cli.main(["run", experiment, "--out", str(tmp_path)]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
