"""Golden outputs: experiments rerun with their golden arguments must
reproduce the committed CSVs in tests/golden/ byte for byte.

An intended change to one of these numbers shows up as a reviewed diff of
the golden file, recorded with ``mmwloc run <experiment> <args> --out
tests/golden`` (the manifest it also writes is not kept). A second golden
of one experiment is its CSV renamed. Every experiment has a golden. The
beam dictionary's is recorded with ``mmwloc dump-dictionary --cell-size 20
--n-max 8 --out tests/golden``, and the optimizer's per-k table with
``mmwloc optimize --out tests/golden``, whose printed result line is
``OPTIMUM`` below. That table prints full float reprs, whose bits depend
on numpy's SIMD dispatch level, so it has one golden per level: the
X86_V3 one is recorded under ``NPY_DISABLE_CPU_FEATURES="X86_V4
AVX512_ICL AVX512_SPR"`` and renamed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import AVX512_MASK, dispatch_level
from mmwloc import cli
from mmwloc.experiments import EXPERIMENT_NAMES

GOLDEN = Path(__file__).resolve().parent / "golden"
# Arguments beyond the defaults, by golden file: the Monte Carlo oracle
# runs on a reduced, seeded trial count and the sweeps on reduced grids.
# The optimal map's first point (objective 1.9e-228) sits where coverage is
# essentially zero; its live point (k* = 32, beta* = 0.98 at the top of a
# 49-beta feasible prefix, objective 0.434) pins the optimizer where its
# caps bind. The 1 mm access sweep grows k deep, and 65 of its 200
# densities clamp to one reference geometry.
BETA_STEP = ["--set", "experiment.beta_step=0.1"]
ARGS = {
    "access_delay_1mm.csv": ["--set", "experiment.lambda_points=200",
                             "--set", "experiment.delta_d=0.001"],
    "validate_analytical.csv": ["--trials", "20000", "--seed", "1"],
    "rate_vs_beta.csv": BETA_STEP,
    "rate_vs_pbs.csv": BETA_STEP,
    "error_vs_dictionary.csv": ["--set", "experiment.k_max=8"],
    "optimal_map.csv": ["--set", "experiment.lambda_min=0.2",
                        "--set", "experiment.lambda_points=1",
                        "--set", "experiment.noise_dbw=-20"],
    "optimal_map_live.csv": ["--set", "experiment.lambda_min=0.05",
                             "--set", "experiment.lambda_points=1",
                             "--set", "experiment.noise_dbw=-40"],
}
# the line ``mmwloc optimize`` prints at the default config
OPTIMUM = "k_star=8 beta_star=0.32 theta_star=0.098175 objective=0.884453"
GOLDENS = [
    ("access-resolution", "access_resolution.csv"),
    ("access-delay", "access_delay.csv"),
    ("access-delay", "access_delay_1mm.csv"),
    ("validate-analytical", "validate_analytical.csv"),
    ("rate-vs-beta", "rate_vs_beta.csv"),
    ("rate-vs-pbs", "rate_vs_pbs.csv"),
    ("error-vs-dictionary", "error_vs_dictionary.csv"),
    ("optimal-map", "optimal_map.csv"),
    ("optimal-map", "optimal_map_live.csv"),
]


@pytest.mark.parametrize("experiment, name", GOLDENS)
def test_rerun_matches_golden_bytes(tmp_path, experiment, name):
    argv = ["run", experiment, *ARGS.get(name, []), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    written = tmp_path / (experiment.replace("-", "_") + ".csv")
    assert written.read_bytes() == (GOLDEN / name).read_bytes()
    # each experiment writes only the CSV named after it, so no file has
    # two entry points (rate-vs-pbs used to write rate_vs_beta.csv too)
    assert list(tmp_path.glob("*.csv")) == [written]


def test_every_experiment_has_a_golden():
    # a new or renamed experiment cannot land without a golden file
    assert set(EXPERIMENT_NAMES) == {experiment for experiment, _ in GOLDENS}


def test_dump_dictionary_matches_golden_bytes(tmp_path):
    argv = ["dump-dictionary", "--cell-size", "20", "--n-max", "8",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    written = (tmp_path / "beam_dictionary.csv").read_bytes()
    assert written == (GOLDEN / "beam_dictionary.csv").read_bytes()


# the optimizer's per-k golden by dispatch level, the AVX-512 one where no
# other is pinned; under the mask the k = 4 and k = 8 objectives and k =
# 8's p_ma move by 1 ulp, and the printed line stays the same
OPTIMIZER_GOLDENS = {"X86_V3": "optimizer_per_k_x86_v3.csv"}


def test_optimize_matches_golden_bytes(tmp_path, capsys):
    assert cli.main(["optimize", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == OPTIMUM
    written = (tmp_path / "optimizer_per_k.csv").read_bytes()
    name = OPTIMIZER_GOLDENS.get(dispatch_level(), "optimizer_per_k.csv")
    assert written == (GOLDEN / name).read_bytes()


OPTIMIZE = """
import sys
sys.path[:0] = sys.argv[1:3]
from conftest import dispatch_level
from mmwloc import cli
print(dispatch_level())
cli.main(["optimize", "--out", sys.argv[3]])
"""


def test_masked_dispatch_matches_its_golden(tmp_path):
    # the X86_V3 golden, recomputed in a fresh interpreter under the mask
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", OPTIMIZE, str(src),
         str(Path(__file__).resolve().parent), str(tmp_path)],
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_MASK),
        capture_output=True, text=True, check=True, timeout=300)
    level, line = done.stdout.splitlines()[:2]
    if level != "X86_V3":
        pytest.skip(f"the mask leaves dispatch level {level} here")
    assert line == OPTIMUM
    written = (tmp_path / "optimizer_per_k.csv").read_bytes()
    assert written == (GOLDEN / OPTIMIZER_GOLDENS["X86_V3"]).read_bytes()
