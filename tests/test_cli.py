"""Command-line runner: exit codes, outputs, override plumbing, determinism."""

import csv
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mmwloc import cli, experiments
from mmwloc.config import (
    NetworkConfig,
    boundary_keys,
    from_boundary_mapping,
    parse_config_text,
)
from mmwloc.errors import ConfigError, NumericError
from mmwloc.numerics import dbm_to_watt


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
        assert cfg.noise_psd == pytest.approx(1e-12, rel=1e-12, abs=0.0)

    def test_noise_total_dbw(self):
        cfg = from_boundary_mapping({"network.noise_dbw": -30})
        assert cfg.noise_psd == pytest.approx(1e-3 / cfg.bandwidth,
                                              rel=1e-12, abs=0.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            from_boundary_mapping({"network.bogus": 1})

    @pytest.mark.parametrize("key", ["netwrok.p_t_dbm", "experiment.delta_d",
                                     "p_t_dbm"])
    def test_key_outside_network_rejected(self, key):
        # these used to be skipped: the misspelt section gave p_t = 1.0
        with pytest.raises(ConfigError, match=key):
            from_boundary_mapping({key: 40})

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_invalid_values_surface_as_config_error(self):
        # NetworkConfig(n_los=inf) used to raise OverflowError, an
        # infinite or fractional ue_sounding_elements passed, and so did a
        # shape whose factorial overflows the floats
        for bad in ({"bs_density": -1.0}, {"h_b": float("inf")},
                    {"n_los": float("inf")}, {"n_nlos": 2.5},
                    {"n_los": 171}, {"n_nlos": 100000},
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

    # network.noise_dbw used to be applied after every other key, so a
    # later noise_dbm_hz was silently dropped; a key set again in a later
    # source counts as later too
    @pytest.mark.parametrize("lines, item, psd", [
        ("network.noise_dbw = -30", "network.noise_dbm_hz=-174",
         dbm_to_watt(-174)),
        ("network.noise_dbm_hz = -174", "network.noise_dbw=-30", 1e-12),
        ("network.noise_dbm_hz = -174\nnetwork.noise_dbw = -30",
         "network.noise_dbm_hz=-174", dbm_to_watt(-174)),
        ("network.noise_dbm_hz = -90\nnetwork.noise_dbw = -30\n"
         "network.noise_dbm_hz = -174", "network.p_t_dbm=30",
         dbm_to_watt(-174)),
        # noise_dbw is converted with the final bandwidth
        ("network.noise_dbw = -30", "network.bandwidth_hz=2e9", 5e-13),
    ])
    def test_later_noise_key_wins(self, tmp_path, lines, item, psd):
        config = tmp_path / "network.cfg"
        config.write_text(lines + "\n")
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path),
                         "--config", str(config), "--set", item,
                         "--set", "experiment.k_max=1"])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "error-vs-dictionary_manifest.json").read_text())
        assert manifest["config"]["noise_psd"] == pytest.approx(
            psd, rel=1e-12, abs=0.0)

    # the dotted flags used to be read in key-table order, noise_dbw last
    @pytest.mark.parametrize("flags, psd", [
        (["--network.noise_dbw", "-30", "--network.noise_dbm_hz", "-174"],
         dbm_to_watt(-174)),
        (["--network.noise_dbm_hz", "-174", "--set", "network.noise_dbw=-30"],
         1e-12),
    ])
    def test_later_noise_flag_wins(self, tmp_path, flags, psd):
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path),
                         *flags, "--set", "experiment.k_max=1"])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "error-vs-dictionary_manifest.json").read_text())
        assert manifest["config"]["noise_psd"] == pytest.approx(
            psd, rel=1e-12, abs=0.0)

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
        # sizes past their caps: 10^12 points or rows used to end in a numpy
        # _ArrayMemoryError traceback, and a k_max that large never ended
        *((["run", name, "--set", f"experiment.lambda_points={n}"],
           "experiment.lambda_points")
          for name in ("access-delay", "optimal-map")
          for n in ("10001", "1000000000000")),
        *((["run", "rate-vs-beta", "--set", f"experiment.k_list=4,{n}"],
           "experiment.k_list") for n in ("1025", "1000000000000")),
        *((["run", "error-vs-dictionary", "--set", f"experiment.k_max={n}"],
           "experiment.k_max") for n in ("1025", "1000000000000")),
        # one Monte Carlo batch's interferers used to be allocated whole:
        # 775 GiB, an _ArrayMemoryError traceback
        (["run", "validate-analytical", "--set", "experiment.lambdas=1e8",
          "--trials", "1"], "experiment.lambdas"),
        # and so did a wide LOS ball at a sparse density, whose window holds
        # as many: 72.8 TiB at d_s = 1e15 m
        (["run", "validate-analytical", "--set", "network.d_s_m=1e15",
          "--trials", "1"], "network.d_s_m"),
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
        # every density's reference cell is checked before any trace runs,
        # the one of 1e306 included, which would end in a numeric error
        (["run", "access-delay", "--set", "experiment.lambda_min=1e306",
          "--set", "experiment.lambda_max=1e308",
          "--set", "experiment.lambda_points=2"], 2, "reference cell"),
    ])
    def test_extreme_density_exits_cleanly(self, tmp_path, capsys, argv,
                                           code, message):
        assert cli.main(argv + ["--out", str(tmp_path)]) == code
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_shape_past_factorial_range_exits_2(self, tmp_path, capsys):
        # used to run the per-term loop over 10^5 Alzer terms for minutes
        code = cli.main(["optimize", "--set", "network.n_los=100000",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "n_los must be at most 170" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_numeric_error_exits_3(self, tmp_path, monkeypatch):
        def boom(spec):
            raise NumericError("quadrature failed in test")
        monkeypatch.setattr(cli, "run_experiment", boom)
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["optimize", "--eps-bs", "0"],
        ["optimize", "--eps-ma", "1"],
        ["optimize", "--r0", "-1"],
        ["dump-dictionary", "--n-max", "0"],
        # rows past the access loop's deepest used to be written without end
        ["dump-dictionary", "--n-max", "1025"],
        ["dump-dictionary", "--n-max", "1000000000000"],
        ["dump-dictionary", "--cell-size", "-1"],
        ["run", "validate-analytical", "--threads", "2"],
        # retired entry points: one experiment per output, no alias
        ["run", "optimal-k-map"],
        ["run", "optimal-beta-map"],
        ["validate"],
        # both were accepted and silently ignored: only
        # validate-analytical draws trials
        ["optimize", "--seed", "3"],
        ["dump-dictionary", "--trials", "5"],
    ])
    def test_bad_flag_exits_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2

    # --seed and --trials are validate-analytical's knobs; the other six
    # experiments used to accept both, ignore them and record them in the
    # manifest
    @pytest.mark.parametrize("argv, message", [
        (["run", "validate-analytical", "--trials", "0"], "experiment.trials"),
        (["run", "validate-analytical", "--trials", "-5"],
         "experiment.trials"),
        (["run", "validate-analytical", "--seed", "-1"], "experiment.seed"),
        *((["run", name, flag, value], "unknown knob")
          for name in ("access-delay", "access-resolution",
                       "error-vs-dictionary", "rate-vs-beta", "rate-vs-pbs",
                       "optimal-map")
          for flag, value in (("--seed", "3"), ("--trials", "5"))),
    ])
    def test_bad_or_unread_seed_and_trials_exit_2(self, tmp_path, capsys,
                                                  argv, message):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    # an --out naming a file used to end in a FileExistsError traceback,
    # optimize's only after the whole optimization
    @pytest.mark.parametrize("argv", [
        ["run", "error-vs-dictionary", "--set", "experiment.k_max=1"],
        ["dump-dictionary", "--n-max", "1"],
        ["optimize"],
    ])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "taken"
        out.write_text("")
        assert cli.main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "output directory" in captured.err and captured.out == ""

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback
        config = tmp_path / "network.cfg"
        config.write_bytes(b"network.p_t_dbm = 30 # \xff\xfe\n")
        code = cli.main(["run", "error-vs-dictionary", "--out", str(tmp_path),
                         "--config", str(config)])
        assert code == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

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

    def test_oracle_budget_admits_densities_below_one_per_meter(self,
                                                                tmp_path):
        # a batch of 0.9 /m draws about 7.7M interferers at the default d_s
        code = cli.main(["run", "validate-analytical", "--trials", "1",
                         "--set", "experiment.lambdas=0.9",
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "validate_analytical.csv").exists()

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


class TestExperimentTable:
    def test_defaults_parse_and_only_validate_records_seed_and_trials(
            self, tmp_path):
        # construction range-checks every knob, so each default lies in
        # its own knob's range; the Monte Carlo seed and trials are knobs
        # of the one experiment that draws, not top-level manifest fields
        for name, (_, table) in experiments._EXPERIMENTS.items():
            spec = experiments.ExperimentSpec(name, out_dir=tmp_path)
            assert set(spec.knobs) == set(table)
            manifest = json.loads(
                experiments._write_manifest(spec, [], 0.0).read_text())
            assert not {"seed", "trials"} & set(manifest)
            drawn = {"seed", "trials"} & set(manifest["knobs"])
            assert drawn == ({"seed", "trials"}
                             if name == "validate-analytical" else set())


class TestStartup:
    # scipy.special took over half of every start; the package computes
    # without it now, and a run must not import it on the way either
    SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import mmwloc.cli
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
argvs = (["run", "error-vs-dictionary", "--set", "experiment.k_max=3"],
         ["run", "access-delay", "--set", "experiment.lambda_points=3"])
codes = [mmwloc.cli.main(argv + ["--out", sys.argv[2]]) for argv in argvs]
after = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([before, codes, after]))
"""

    def test_cli_runs_without_scipy(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, str(src),
                               str(tmp_path)], capture_output=True,
                              text=True, check=True, timeout=120)
        before, codes, after = json.loads(done.stdout.splitlines()[-1])
        assert before == [] and codes == [0, 0] and after == []
        for name in ("error-vs-dictionary", "access-delay"):
            manifest = json.loads(
                (tmp_path / f"{name}_manifest.json").read_text())
            assert set(manifest["versions"]) == {"package", "python", "numpy"}
