"""Command-line surface: exit codes, output formats, defaults layering."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import censor_lab
from censor_lab import cli
from censor_lab.asymptotics import g_asymptotic_theta
from censor_lab.censor import solve_normal_censor
from censor_lab.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)
from censor_lab.model import ModelParams, ScaledParams
from censor_lab.profit import g_bar


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCensorCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "censor", "--mu", "0.05",
                           "--sigma", "0.3", "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        sol = solve_normal_censor(0.05, 0.3)
        assert rec["w"] == sol.w
        assert rec["b_tilde"] == sol.b_tilde
        assert rec["u"] == sol.u

    def test_horizon_flags_equivalent(self, capsys):
        _, direct, _ = run(capsys, "censor", "--mu", "0.05",
                           "--sigma", "0.3", "--json")
        _, horizon, _ = run(capsys, "censor", "--mu-bar", "0.05",
                            "--sigma2-bar", "0.09", "--theta", "1.0", "--json")
        a, b = json.loads(direct), json.loads(horizon)
        assert a["w"] == pytest.approx(b["w"], rel=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "censor", "--mu", "0.05",
                           "--sigma", "0.3", "--csv")
        assert code == EXIT_OK
        header, values = out.strip().splitlines()
        assert header.split(",")[0] == "mu"
        assert float(values.split(",")[0]) == 0.05

    def test_table_default(self, capsys):
        code, out, _ = run(capsys, "censor", "--mu", "0.05", "--sigma", "0.3")
        assert code == EXIT_OK
        assert "b_tilde" in out

    def test_mixed_parameterizations_rejected(self, capsys):
        code, _, err = run(capsys, "censor", "--mu", "0.05", "--sigma", "0.3",
                           "--mu-bar", "0.05", "--sigma2-bar", "0.07")
        assert code == EXIT_USAGE
        assert "not both" in err

    def test_incomplete_pair_rejected(self, capsys):
        code, _, err = run(capsys, "censor", "--mu", "0.05")
        assert code == EXIT_USAGE
        assert "together" in err

    def test_invalid_value_rejected(self, capsys):
        code, _, _ = run(capsys, "censor", "--mu", "-1", "--sigma", "0.3")
        assert code == EXIT_USAGE


class TestProfitCommand:
    def test_record_fields(self, capsys):
        code, out, _ = run(capsys, "profit", "--mu-bar", "0.05",
                           "--sigma2-bar", "0.07", "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["expected_profit"] > 1.0
        assert rec["regime"] == "mid_var"
        assert rec["expected_profit"] > rec["myopic_profit"]

    def test_direct_parameterization_omits_regime(self, capsys):
        _, out, _ = run(capsys, "profit", "--mu", "0.05",
                        "--sigma", "0.3", "--json")
        rec = json.loads(out)
        assert "regime" not in rec

    def test_overflowing_profit_reports_infinity(self, capsys):
        # log g = 899 > log(DBL_MAX): g - 1 is reported as inf, not raised;
        # strict JSON has no inf, and writes null
        code, out, _ = run(capsys, "profit", "--mu", "1", "--sigma", "30",
                           "--json")
        assert code == EXIT_OK
        assert '"value_of_waiting": null' in out
        rec = json.loads(out)
        assert rec["value_of_waiting"] is None
        assert rec["expected_profit"] is None
        assert rec["log_expected_profit"] == pytest.approx(899.0)
        code, out, _ = run(capsys, "profit", "--mu", "1", "--sigma", "30")
        assert code == EXIT_OK
        assert "value_of_waiting     inf" in out

    def test_overflowing_myopic_profit_reports_infinity(self, capsys):
        # (sigma_bar^2 - mu_bar)*theta = 9990 > log(DBL_MAX)
        code, out, _ = run(capsys, "profit", "--mu-bar", "0.01", "--sigma2-bar", "10",
                           "--theta", "1000", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["myopic_profit"] is None
        _, out, _ = run(capsys, "profit", "--mu-bar", "0.01", "--sigma2-bar", "10",
                        "--theta", "1000", "--csv")
        header, row = out.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["myopic_profit"] == "inf"

    def test_horizon_pair_needs_both(self, capsys):
        code, _, err = run(capsys, "profit", "--mu-bar", "0.05")
        assert code == EXIT_USAGE
        assert "together" in err


class TestTimingCommand:
    def test_exact_solver(self, capsys):
        code, out, _ = run(capsys, "timing", "--mu-bar", "0.05",
                           "--sigma2-bar", "0.07", "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert 0.0 < rec["theta_star"] < 1.0
        assert rec["foc_residual"] <= 1e-6

    def test_case_i(self, capsys):
        _, out, _ = run(capsys, "timing", "--alpha", "0.5", "--case", "i",
                        "--json")
        rec = json.loads(out)
        assert 0.0 < rec["theta_star"] < 0.5

    def test_case_ii_approx_unavailable(self, capsys):
        _, out, _ = run(capsys, "timing", "--alpha", "3.0", "--case", "ii",
                        "--json")
        rec = json.loads(out)
        assert rec["approx"] == "unavailable"

    def test_alpha_requires_case(self, capsys):
        code, _, err = run(capsys, "timing", "--alpha", "0.5")
        assert code == EXIT_USAGE
        assert "--case" in err

    def test_both_modes_rejected(self, capsys):
        code, _, _ = run(capsys, "timing", "--alpha", "0.5", "--case", "i",
                         "--mu-bar", "0.05", "--sigma2-bar", "0.07")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("mu_bar,sigma2_bar", [("50", "0.001"), ("100", "0.07")])
    def test_rounding_level_slope_is_numerical_failure(self, capsys, mu_bar, sigma2_bar):
        # R' sits at the rounding level: it touches 0 without turning negative
        # at the first point, and the scan and scalar solves disagree on its
        # sign at the second
        code, _, err = run(capsys, "timing", "--mu-bar", mu_bar, "--sigma2-bar", sigma2_bar)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err


class TestFiguresCommand:
    def test_writes_all_regime_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figures", "--out", str(tmp_path),
                           "--points", "40", "--theta-max", "100")
        assert code == EXIT_OK
        for tag in ("low_var", "mid_var", "high_var", "critical"):
            path = tmp_path / f"g_bar_{tag}.csv"
            assert path.exists()
            assert str(path) in out
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "theta,g_bar_exact,g_asymptotic,regime"
            assert len(lines) == 41

    def test_exact_approaches_asymptote(self, tmp_path, capsys):
        run(capsys, "figures", "--out", str(tmp_path),
            "--points", "60", "--theta-max", "800")
        for tag in ("low_var", "high_var"):
            rows = (tmp_path / f"g_bar_{tag}.csv").read_text().strip().splitlines()[1:]
            last = rows[-1].split(",")
            theta, exact, approx = float(last[0]), float(last[1]), float(last[2])
            assert theta == pytest.approx(800.0, rel=1e-12)
            assert math.log(exact) == pytest.approx(math.log(approx),
                                                    abs=1e-3)

    def test_censor_path_matches_scalar_loop(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figures", "--out", str(tmp_path),
                           "--points", "30", "--theta-max", "2000")
        assert code == EXIT_OK
        path = tmp_path / "censor_path.csv"
        assert str(path) in out
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta,log_b_kappa_0.25,log_b_kappa_0.7,log_b_kappa_1"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows.shape == (30, 4)
        np.testing.assert_allclose(rows[:, 0], np.geomspace(1e-3, 2000.0, 30), rtol=1e-15)
        for col, kappa in enumerate((0.25, 0.7, 1.0), start=1):
            params = ModelParams.from_variance(0.05, 0.05 / kappa)
            ref = [solve_normal_censor(s.mu, s.sigma).log_b_tilde
                   for s in (ScaledParams.from_horizon(params, t) for t in rows[:, 0])]
            np.testing.assert_allclose(rows[:, col], ref, rtol=0.0, atol=1e-12)
        assert np.all(np.diff(rows[:, 1]) > 0.0)  # kappa < 1/2: increasing
        peak = int(np.argmax(rows[:, 3]))
        assert 0 < peak < 29  # kappa = 1: unimodal

    def test_g_bar_matches_scalar_loop(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figures", "--out", str(tmp_path),
                         "--points", "30", "--theta-max", "2000")
        assert code == EXIT_OK
        eps = np.finfo(float).eps
        for tag, sigma2 in (("low_var", 0.03), ("mid_var", 0.07), ("high_var", 0.15),
                            ("critical", 0.10)):
            lines = (tmp_path / f"g_bar_{tag}.csv").read_text().strip().splitlines()[1:]
            rows = [line.split(",") for line in lines]
            assert len(rows) == 30 and {row[3] for row in rows} == {tag}
            thetas = [float(row[0]) for row in rows]
            np.testing.assert_allclose(thetas, np.geomspace(0.01, 2000.0, 30), rtol=1e-15)
            params = ModelParams.from_variance(0.05, sigma2)
            for t, row in zip(thetas, rows):
                ref = g_bar(t, params)
                assert abs(float(row[1]) - ref) <= 4.0 * eps * ref, (tag, t)
                assert float(row[2]) == g_asymptotic_theta(t, params, eps=1e-12).value

    def test_validation(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figures", "--out", str(tmp_path),
                         "--points", "1")
        assert code == EXIT_USAGE

    def test_theta_max_must_exceed_grid_start(self, capsys, tmp_path):
        code, _, err = run(capsys, "figures", "--out", str(tmp_path),
                           "--theta-max", "0.01")
        assert code == EXIT_USAGE
        assert "--theta-max" in err

    @pytest.mark.parametrize("theta_max", ["nan", "inf"])
    def test_theta_max_must_be_finite(self, capsys, tmp_path, theta_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "figures", "--out", str(tmp_path),
                               "--theta-max", theta_max)
        assert code == EXIT_USAGE
        assert "--theta-max" in err


class TestStaticsCommand:
    def test_stationarity_record(self, capsys):
        code, out, _ = run(capsys, "statics", "--kappa", "1.0", "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["exists"] is True
        assert rec["sigma_star"] == pytest.approx(0.5954, abs=1e-3)

    def test_no_root_message(self, capsys):
        code, out, _ = run(capsys, "statics", "--kappa", "0.25")
        assert code == EXIT_OK
        assert "no stationary point" in out

    def test_omega_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "statics", "--omega-sweep", "0.5:2.5:5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "sigma,omega"
        assert len(lines) == 6
        assert all(float(line.split(",")[1]) > 0.0 for line in lines[1:])

    def test_omega_sweep_json(self, capsys):
        code, out, _ = run(capsys, "statics", "--omega-sweep", "0.5:2.5:5", "--json")
        assert code == EXIT_OK
        records = json.loads(out)
        assert [r["sigma"] for r in records] == [0.5, 1.0, 1.5, 2.0, 2.5]
        assert all(r["omega"] > 0.0 for r in records)

    def test_bad_sweep_spec(self, capsys):
        for spec in ("1:2", "1:x:5", "2:1:5"):
            code, _, _ = run(capsys, "statics", "--omega-sweep", spec)
            assert code == EXIT_USAGE, spec

    @pytest.mark.parametrize("spec", ["1:1e100:3", "0.1:inf:3"])
    def test_sweep_beyond_the_censor_domain(self, capsys, spec):
        # the first printed "omega": -0.5, the bracket end; the second let
        # np.linspace warn on inf and reported "got nan"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "statics", "--omega-sweep", spec, "--json")
        assert code == EXIT_USAGE and out == ""
        assert "nan" not in err

    def test_requires_some_work(self, capsys):
        code, _, err = run(capsys, "statics")
        assert code == EXIT_USAGE
        assert "--kappa" in err

    def test_numerical_failure_exit_code(self, capsys):
        # kappa one part in 10^12 above 1/2: the root exists but lies
        # beyond the solvable drift range, a numerical (not usage) error
        code, _, err = run(capsys, "statics", "--kappa", "0.500000000001")
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err


class TestMcCheckCommand:
    def test_passes_at_reference_point(self, capsys):
        code, out, _ = run(capsys, "mc-check", "--n", "20000", "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["passed"] is True
        assert rec["seed"] == 12345  # built-in default

    def test_small_n_needs_strict(self, capsys):
        code, _, err = run(capsys, "mc-check", "--n", "500")
        assert code == EXIT_USAGE
        assert "--strict" in err

    def test_env_seed_layer(self, capsys, monkeypatch):
        monkeypatch.setenv("CENSOR_LAB_SEED", "777")
        _, out, _ = run(capsys, "mc-check", "--n", "20000", "--json")
        assert json.loads(out)["seed"] == 777

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CENSOR_LAB_SEED", "777")
        _, out, _ = run(capsys, "mc-check", "--n", "20000", "--seed", "42",
                        "--json")
        assert json.loads(out)["seed"] == 42

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CENSOR_LAB_SEED", "not-a-number")
        code, _, _ = run(capsys, "mc-check", "--n", "20000")
        assert code == EXIT_USAGE

    def test_negative_seed_is_usage_error(self, capsys):
        code, _, err = run(capsys, "mc-check", "--n", "20000", "--seed", "-1")
        assert code == EXIT_USAGE
        assert "seed" in err and "-1" in err

    def test_layers_do_not_leak_into_the_next_call(self, capsys, monkeypatch, tmp_path):
        # main keeps one parser across calls: each call's layered seed goes
        # with it
        monkeypatch.setenv("CENSOR_LAB_SEED", "777")
        _, out, _ = run(capsys, "mc-check", "--n", "10000", "--json")
        assert json.loads(out)["seed"] == 777
        monkeypatch.delenv("CENSOR_LAB_SEED")
        _, out, _ = run(capsys, "mc-check", "--n", "10000", "--json")
        assert json.loads(out)["seed"] == 12345
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 31\n")
        _, out, _ = run(capsys, "mc-check", "--n", "10000", "--config", str(cfg), "--json")
        assert json.loads(out)["seed"] == 31
        _, out, _ = run(capsys, "mc-check", "--n", "10000", "--json")
        assert json.loads(out)["seed"] == 12345

    def test_nested_call_sees_no_outer_layers(self, capsys, monkeypatch, tmp_path):
        # a call made while another runs parses with the built-in defaults,
        # not the outer call's config
        monkeypatch.delenv("CENSOR_LAB_SEED", raising=False)
        real = cli.mc.run_verification
        nested = []

        def run_verification(scaled, n, seed):
            monkeypatch.setattr(cli.mc, "run_verification", real)
            main(["mc-check", "--n", "10000", "--json"])
            nested.append(json.loads(capsys.readouterr().out)["seed"])
            return real(scaled, n=n, seed=seed)

        monkeypatch.setattr(cli.mc, "run_verification", run_verification)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 31\n")
        _, out, _ = run(capsys, "mc-check", "--n", "10000", "--config", str(cfg), "--json")
        assert nested == [12345]
        assert json.loads(out)["seed"] == 31

    def test_unlayered_call_parses_once(self, capsys, monkeypatch):
        # one parse_known_args for the command line, one for its subcommand
        monkeypatch.delenv("CENSOR_LAB_SEED", raising=False)
        calls = []
        real = argparse.ArgumentParser.parse_known_args

        def parse_known_args(self, *args, **kwargs):
            calls.append(self.prog)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", parse_known_args)
        code, _, _ = run(capsys, "mc-check", "--n", "10000", "--json")
        assert code == EXIT_OK
        assert len(calls) <= 2, calls

    def test_layered_calls_leave_the_shared_parser_alone(self, capsys, monkeypatch, tmp_path):
        def defaults():
            return [vars(sp.parse_args([])) for sp in cli._commands(cli._parser())]

        before = defaults()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 31\nmu_bar = 0.06\nsigma = 0.4\n")
        monkeypatch.setenv("CENSOR_LAB_SEED", "777")
        run(capsys, "mc-check", "--n", "10000", "--json")
        run(capsys, "mc-check", "--n", "10000", "--config", str(cfg), "--json")
        monkeypatch.delenv("CENSOR_LAB_SEED")
        run(capsys, "censor", "--mu", "0.05", "--config", str(cfg), "--json")
        assert defaults() == before
        assert cli._parser().parse_args(["mc-check"]).seed == 12345

    def test_deterministic_given_seed(self, capsys):
        _, first, _ = run(capsys, "mc-check", "--n", "20000", "--seed", "9",
                          "--json")
        _, second, _ = run(capsys, "mc-check", "--n", "20000", "--seed", "9",
                           "--json")
        assert first == second


def _refuse_constant(name):
    raise AssertionError(f"not strict JSON: {name}")


class TestStrictJson:
    @pytest.mark.parametrize("argv,code,nulls", [
        (["profit", "--mu", "0.05", "--sigma", "30"], EXIT_OK,
         ["expected_profit", "value_of_waiting"]),
        (["mc-check", "--sigma2-bar", "900", "--n", "100000"], EXIT_VERIFICATION,
         ["profit_closed_form", "profit_deviation_se"]),
    ], ids=["profit", "mc-check"])
    def test_non_finite_values_are_null(self, capsys, argv, code, nulls):
        # these records hold inf and nan, which json.dumps would write as
        # the non-JSON Infinity and NaN
        got, out, _ = run(capsys, *argv, "--json")
        assert got == code
        rec = json.loads(out, parse_constant=_refuse_constant)
        assert [k for k, v in rec.items() if v is None] == nulls

    def test_finite_records_unchanged(self, capsys):
        _, out, _ = run(capsys, "censor", "--mu", "0.05", "--sigma", "0.3", "--json")
        assert out == json.dumps(json.loads(out)) + "\n"
        _, out, _ = run(capsys, "statics", "--omega-sweep", "0.5:1.5:3", "--json")
        assert out == json.dumps(json.loads(out)) + "\n"


class TestConfigLayer:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# reference point\nmu = 0.05\nsigma = 0.3\n")
        code, out, _ = run(capsys, "censor", "--config", str(cfg), "--json")
        assert code == EXIT_OK
        rec = json.loads(out)
        assert rec["mu"] == 0.05 and rec["sigma"] == 0.3

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.05\nsigma = 0.3\n")
        _, out, _ = run(capsys, "censor", "--config", str(cfg),
                        "--sigma", "0.5", "--json")
        assert json.loads(out)["sigma"] == 0.5

    def test_dashed_keys_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu-bar = 0.05\nsigma2-bar = 0.07\n")
        code, out, _ = run(capsys, "profit", "--config", str(cfg), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["regime"] == "mid_var"

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu 0.05\n")
        code, _, err = run(capsys, "censor", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "key=value" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma2bar = 0.2\n")
        code, out, err = run(capsys, "mc-check", "--n", "10000", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "sigma2bar" in err and out == ""

    def test_other_commands_keys_allowed(self, capsys, tmp_path):
        # one file serves every command: mc-check's seed is no error for censor
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mu = 0.05\nsigma = 0.3\nseed = 31\n")
        code, out, _ = run(capsys, "censor", "--config", str(cfg), "--json")
        assert code == EXIT_OK
        assert json.loads(out)["sigma"] == 0.3

    def test_config_value_is_converted_by_the_flag_type(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["mc-check", "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
        assert "invalid int value" in capsys.readouterr().err

    def test_config_switch_on(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("json = 1\n")
        code, out, _ = run(capsys, "censor", "--mu", "0.05", "--sigma", "0.3",
                           "--config", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["sigma"] == 0.3

    def test_config_non_integer_seed_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1.5\n")
        code, out, err = run(capsys, "mc-check", "--n", "10000", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "seed" in err and out == ""

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "censor", "--config",
                         str(tmp_path / "absent.cfg"))
        assert code == EXIT_USAGE


def _child_env():
    """The environment, with the directory censor_lab was imported from first on PYTHONPATH.

    pytest's `pythonpath` setting reaches this process only, so an uninstalled
    checkout's child process needs it spelled out.  A RuntimeWarning is an
    error there, as the suite's warning filter makes it here.
    """
    src = str(Path(censor_lab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


class TestEntrypoint:
    def test_installed_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "censor_lab.cli", "censor",
             "--mu", "0.05", "--sigma", "0.3", "--json"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["u"] > 0.0

    def test_large_variance_mc_check_is_silent(self):
        # sigma = 100: every price underflows to 0, and the record holds
        # inf and nan, written as null
        proc = subprocess.run(
            [sys.executable, "-m", "censor_lab.cli", "mc-check",
             "--sigma2-bar", "1e4", "--n", "10000", "--json"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == EXIT_VERIFICATION
        assert proc.stderr == ""
        rec = json.loads(proc.stdout, parse_constant=_refuse_constant)
        assert rec["sigma"] == 100.0 and rec["passed"] is False
        assert rec["profit_closed_form"] is None and rec["profit_mc_mean"] is None

    def test_unknown_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "censor_lab.cli", "censor", "--bogus"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == EXIT_USAGE

    def test_commands_load_no_scipy_optimize(self, tmp_path):
        # the root finds are in-house, so neither scipy.optimize nor the
        # scipy.linalg it pulls in is loaded, at import or by any command
        commands = [["figures", "--out", str(tmp_path)],
                    ["timing", "--mu-bar", "0.05", "--sigma2-bar", "0.07"],
                    ["statics", "--omega-sweep", "0.5:2.5:5"],
                    ["mc-check", "--n", "10000"]]
        code = f"""
import contextlib, io, json, sys
import censor_lab, censor_lab.cli

def loaded():
    return [m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules]

seen = [["import", 0, loaded()]]
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([argv[0], censor_lab.cli.main(argv), loaded()])
print(json.dumps(seen))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert [step for step, _, _ in seen] == ["import", "figures", "timing",
                                                 "statics", "mc-check"]
        assert all(status == EXIT_OK and not loaded for _, status, loaded in seen), seen
