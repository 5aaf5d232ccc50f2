"""Command-line runner: exit codes, outputs, override plumbing, determinism."""

import csv
import json
import warnings

import pytest

from mmwloc import cli
from mmwloc.config import (
    NetworkConfig,
    boundary_keys,
    from_boundary_mapping,
    parse_config_text,
)
from mmwloc.errors import ConfigError, NumericError


class TestConfigBoundary:
    def test_flat_file_parsing(self):
        text = """
        # deployment
        network.lambda_per_km = 50    # converted to 1/m
        network.p_t_dbm = 30
        network.noise_dbm_hz = -90
        """
        entries = parse_config_text(text)
        cfg = from_boundary_mapping(entries)
        assert cfg.bs_density == pytest.approx(0.05)
        assert cfg.p_t == pytest.approx(1.0)
        assert cfg.noise_psd == pytest.approx(1e-12)

    def test_noise_total_dbw(self):
        cfg = from_boundary_mapping({"network.noise_dbw": -30})
        assert cfg.noise_psd == pytest.approx(1e-3 / cfg.bandwidth)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            from_boundary_mapping({"network.bogus": 1})

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_invalid_values_surface_as_config_error(self):
        # NetworkConfig(n_los=inf) used to raise OverflowError, and an
        # infinite or fractional ue_sounding_elements passed
        for bad in ({"bs_density": -1.0}, {"h_b": float("inf")},
                    {"n_los": float("inf")}, {"n_nlos": 2.5},
                    {"ue_sounding_elements": 2.5},
                    {"ue_sounding_elements": float("inf")}):
            with pytest.raises(ConfigError):
                NetworkConfig(**bad)


class TestCliRuns:
    def test_error_vs_dictionary_roundtrip(self, tmp_path):
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path),
                         "--set", "experiment.k_max=6"])
        assert code == 0
        with open(tmp_path / "error_vs_dictionary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert float(rows[0]["p_bs"]) == 0.0
        manifest = json.loads((tmp_path / "error-vs-dictionary_manifest.json").read_text())
        assert manifest["experiment"] == "error-vs-dictionary"
        assert manifest["config"]["bs_density"] == pytest.approx(0.05)
        # the knobs the run used, the default beta included
        assert manifest["knobs"] == {"beta": 0.5, "k_max": 6}

    def test_beta_one_is_valid(self, tmp_path):
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path),
                         "--set", "experiment.beta=1", "--set",
                         "experiment.k_max=2"])
        assert code == 0

    def test_dotted_network_flag(self, tmp_path):
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path),
                         "--network.lambda_per_m", "0.02",
                         "--set", "experiment.k_max=2"])
        assert code == 0
        manifest = json.loads((tmp_path / "error-vs-dictionary_manifest.json").read_text())
        assert manifest["config"]["bs_density"] == pytest.approx(0.02)

    def test_dump_dictionary(self, tmp_path):
        code = cli.main(["dump-dictionary", "--out", str(tmp_path),
                         "--cell-size", "20", "--n-max", "4"])
        assert code == 0
        lines = (tmp_path / "beam_dictionary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 10

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # nothing reads a carrier frequency, so network.f_c_hz is no key
        for key in ("nonsense.key", "network.f_c_hz"):
            code = cli.main(["run", "error-vs-dictionary",
                             "--out", str(tmp_path), "--set", f"{key}=1"])
            assert code == 2
            assert f"unknown config key: {key}" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tmp_path):
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path),
                         "--network.lambda_per_m", "not-a-number"])
        assert code == 2

    # inf on lambda_per_km, lambda_per_m and h_b_m used to end in a
    # ValueError traceback, on the integer keys in an OverflowError one,
    # and on the rest it passed; 2.5 was truncated to 2; a dB value past
    # the float range overflowed in the conversion
    @pytest.mark.parametrize("key, value", [
        *((key, "inf") for key in boundary_keys()),
        *((key, "2.5") for key in ("network.n_los", "network.n_nlos",
                                   "network.ue_sounding_elements")),
        ("network.p_t_dbm", "4000"), ("network.noise_dbw", "4000")])
    def test_non_finite_or_fractional_value_exits_2(self, tmp_path, capsys,
                                                    key, value):
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path),
                         "--set", "experiment.k_max=2",
                         "--set", f"{key}={value}"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    # 1e-6 asked for a million betas, 1e-12 rounded its first ones to 0.0
    @pytest.mark.parametrize("step", ["0", "1.5", "-0.1", "abc", "1e-6",
                                      "1e-12"])
    def test_bad_beta_step_exits_2(self, tmp_path, capsys, step):
        code = cli.main(["run", "rate-vs-beta", "--out", str(tmp_path),
                         "--set", f"experiment.beta_step={step}"])
        assert code == 2
        assert "beta step" in capsys.readouterr().err

    def test_beta_step_not_dividing_one_runs(self, tmp_path):
        # the grid stops at its last beta <= 1 instead of overshooting it
        code = cli.main(["run", "rate-vs-beta", "--out", str(tmp_path),
                         "--set", "experiment.beta_step=0.6",
                         "--set", "experiment.k_list=2"])
        assert code == 0
        rows = (tmp_path / "rate_vs_beta.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [["2", "0.6"]]

    @pytest.mark.parametrize("argv, message", [
        (["run", "error-vs-dictionary", "--set", "experiment.k_max=abc"],
         "experiment.k_max"),
        (["run", "error-vs-dictionary", "--set", "experiment.typo=3"],
         "experiment.typo"),
        (["run", "access-delay", "--set", "experiment.lambda_points=2.5"],
         "experiment.lambda_points"),
        (["run", "rate-vs-beta", "--set", "experiment.k_list=4,x"],
         "experiment.k_list"),
        (["run", "optimal-map", "--set", "experiment.noise_dbw=-50,loud"],
         "experiment.noise_dbw"),
        (["run", "validate-analytical",
          "--set", "experiment.lambdas=0.01,"],
         "experiment.lambdas"),
        # a knob of another experiment is unknown here
        (["run", "access-delay", "--set", "experiment.k_max=4"],
         "experiment.k_max"),
        (["optimize", "--set", "experiment.typo=3"], "experiment.typo"),
        # values that parse but lie outside the knob's range
        (["run", "access-delay", "--set", "experiment.delta_d=-1"],
         "experiment.delta_d"),
        (["run", "access-delay", "--set", "experiment.delta_d=0"],
         "experiment.delta_d"),
        (["run", "access-resolution", "--set", "experiment.delta_d=-1"],
         "experiment.delta_d"),
        (["run", "access-resolution", "--set", "experiment.delta_d=0"],
         "experiment.delta_d"),
        (["run", "optimal-map", "--set", "experiment.eps_bs=2"],
         "experiment.eps_bs"),
        (["run", "error-vs-dictionary", "--set", "experiment.beta=1.5"],
         "experiment.beta"),
        (["run", "access-delay", "--set", "experiment.lambda_points=0"],
         "experiment.lambda_points"),
        (["run", "error-vs-dictionary", "--set", "experiment.k_max=0"],
         "experiment.k_max"),
        (["run", "access-delay", "--set", "experiment.lambda_min=0"],
         "experiment.lambda_min"),
        (["run", "optimal-map", "--set", "experiment.lambda_max=-0.1"],
         "experiment.lambda_max"),
    ])
    def test_bad_experiment_knob_exits_2(self, tmp_path, capsys, argv,
                                         message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv + ["--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    # both used to end in a traceback and exit 1: a ZeroDivisionError once
    # the step information overflowed, a ValueError from a zero beamwidth
    # once 1 / (4 lambda) rounded to 0
    @pytest.mark.parametrize("argv, code, message", [
        (["run", "access-delay", "--set", "experiment.lambda_min=1e306",
          "--set", "experiment.lambda_max=1e306",
          "--set", "experiment.lambda_points=1"], 3, "numeric error"),
        (["run", "access-resolution",
          "--set", "experiment.lambdas=0.01,1e308"], 2, "reference cell"),
        # dB knobs used to end in an OverflowError, or a ValueError once the
        # threshold rounded to 0, and tiny rate targets in that ValueError
        (["run", "validate-analytical", "--set", "experiment.threshold_db=4000"],
         2, "overflows"),
        (["run", "validate-analytical", "--set", "experiment.threshold_db=1e308"],
         2, "overflows"),
        (["run", "validate-analytical",
          "--set", "experiment.threshold_db=-4000"], 2, "rounds to 0"),
        (["run", "optimal-map", "--set", "experiment.noise_dbw=4000"],
         2, "overflows"),
        (["run", "optimal-map", "--set", "experiment.noise_dbw=-4000"],
         2, "rounds to 0"),
        (["optimize", "--r0", "1e-10"], 3, "rounds the SINR threshold to 0"),
        (["run", "rate-vs-beta", "--set", "experiment.r0=1e-308"],
         3, "rounds the SINR threshold to 0"),
        (["run", "rate-vs-pbs", "--set", "experiment.r0=1e-308"],
         3, "rounds the SINR threshold to 0"),
    ])
    def test_extreme_density_exits_cleanly(self, tmp_path, capsys, argv,
                                           code, message):
        assert cli.main(argv + ["--out", str(tmp_path)]) == code
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_numeric_error_exits_3(self, tmp_path, monkeypatch):
        def boom(spec):
            raise NumericError("quadrature failed in test")
        monkeypatch.setattr(cli, "run_experiment", boom)
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["run", "error-vs-dictionary", "--trials", "0"],
        ["run", "error-vs-dictionary", "--trials", "-5"],
        ["run", "validate-analytical", "--seed", "-1"],
        ["optimize", "--eps-bs", "0"],
        ["optimize", "--eps-ma", "1"],
        ["optimize", "--r0", "-1"],
        ["dump-dictionary", "--n-max", "0"],
        ["dump-dictionary", "--cell-size", "-1"],
        ["run", "validate-analytical", "--threads", "2"],
        # retired entry points: one experiment per output, no alias
        ["run", "optimal-k-map"],
        ["run", "optimal-beta-map"],
        ["validate"],
    ])
    def test_bad_flag_exits_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_validate_outputs_are_bit_identical_across_reruns(self, tmp_path):
        # determinism guarantee: same (config, seed) regenerates the same bytes
        args = ["run", "validate-analytical", "--seed", "9",
                "--trials", "4000", "--set", "experiment.lambdas=0.05"]
        code = cli.main(args + ["--out", str(tmp_path / "a")])
        assert code == 0
        code = cli.main(args + ["--out", str(tmp_path / "b")])
        assert code == 0
        a = (tmp_path / "a" / "validate_analytical.csv").read_bytes()
        b = (tmp_path / "b" / "validate_analytical.csv").read_bytes()
        assert a == b

    def test_optimize_subcommand(self, tmp_path, capsys):
        code = cli.main(["optimize", "--out", str(tmp_path),
                         "--set", "network.lambda_per_m=0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "k_star=" in out
        assert (tmp_path / "optimizer_per_k.csv").exists()

    def test_access_delay_experiment(self, tmp_path):
        code = cli.main(["run", "access-delay", "--out", str(tmp_path),
                         "--set", "experiment.lambda_points=3"])
        assert code == 0
        with open(tmp_path / "access_delay.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert (float(row["proposed_ms"]) < float(row["iterative_ms"])
                    < float(row["exhaustive_ms"]))
