"""Golden outputs: experiments rerun with their golden arguments must
reproduce the committed CSVs in tests/golden/ byte for byte.

An intended change to one of these numbers shows up as a reviewed diff of
the golden file, recorded with ``mmwloc run <experiment> <args> --out
tests/golden`` (the manifest it also writes is not kept). A second golden
of one experiment is its CSV renamed.
"""

from pathlib import Path

import pytest

from mmwloc import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
# Arguments beyond the defaults, by golden file: the Monte Carlo oracle
# runs on a reduced, seeded trial count and the sweeps on reduced grids.
# The optimal map's one point (objective 1.9e-228) sits where coverage is
# essentially zero. The 1 mm access sweep grows k deep, and 65 of its 200
# densities clamp to one reference geometry.
BETA_STEP = ["--set", "experiment.beta_step=0.1"]
ARGS = {
    "access_delay_1mm.csv": ["--set", "experiment.lambda_points=200",
                             "--set", "experiment.delta_d=0.001"],
    "validate_analytical.csv": ["--trials", "20000", "--seed", "1"],
    "rate_vs_beta.csv": BETA_STEP,
    "rate_vs_pbs.csv": BETA_STEP,
    "error_vs_dictionary.csv": ["--set", "experiment.k_max=8"],
    "optimal_k_map.csv": ["--set", "experiment.lambda_min=0.2",
                          "--set", "experiment.lambda_points=1",
                          "--set", "experiment.noise_dbw=-20"],
}


@pytest.mark.parametrize("experiment, name", [
    ("access-resolution", "access_resolution.csv"),
    ("access-delay", "access_delay.csv"),
    ("access-delay", "access_delay_1mm.csv"),
    ("validate-analytical", "validate_analytical.csv"),
    ("rate-vs-beta", "rate_vs_beta.csv"),
    ("rate-vs-pbs", "rate_vs_pbs.csv"),
    ("error-vs-dictionary", "error_vs_dictionary.csv"),
    ("optimal-k-map", "optimal_k_map.csv"),
])
def test_rerun_matches_golden_bytes(tmp_path, experiment, name):
    argv = ["run", experiment, *ARGS.get(name, []), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    written = tmp_path / (experiment.replace("-", "_") + ".csv")
    assert written.read_bytes() == (GOLDEN / name).read_bytes()
