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
# Arguments beyond the defaults: the Monte Carlo oracle runs on a reduced,
# seeded trial count and the sweeps on reduced grids. The optimal map's one
# point (objective 1.9e-228) sits where coverage is essentially zero.
BETA_STEP = ["--set", "experiment.beta_step=0.1"]
ARGS = {
    "validate-analytical": ["--trials", "20000", "--seed", "1"],
    "rate-vs-beta": BETA_STEP,
    "rate-vs-pbs": BETA_STEP,
    "error-vs-dictionary": ["--set", "experiment.k_max=8"],
    "optimal-k-map": ["--set", "experiment.lambda_min=0.2",
                      "--set", "experiment.lambda_points=1",
                      "--set", "experiment.noise_dbw=-20"],
}


@pytest.mark.parametrize("experiment, name", [
    ("access-resolution", "access_resolution.csv"),
    ("access-delay", "access_delay.csv"),
    ("validate-analytical", "validate_analytical.csv"),
    ("rate-vs-beta", "rate_vs_beta.csv"),
    ("rate-vs-pbs", "rate_vs_pbs.csv"),
    ("error-vs-dictionary", "error_vs_dictionary.csv"),
    ("optimal-k-map", "optimal_k_map.csv"),
])
def test_rerun_matches_golden_bytes(tmp_path, experiment, name):
    argv = ["run", experiment, *ARGS.get(experiment, []), "--out",
            str(tmp_path)]
    assert cli.main(argv) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
