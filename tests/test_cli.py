"""Command-line surface: exit codes, output formats, defaults layering."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from censor_lab.censor import solve_normal_censor
from censor_lab.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)
from censor_lab.model import ModelParams, ScaledParams


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
        # log g = 899 > log(DBL_MAX): g - 1 is reported as inf, not raised
        code, out, _ = run(capsys, "profit", "--mu", "1", "--sigma", "30",
                           "--json")
        assert code == EXIT_OK
        assert '"value_of_waiting": Infinity' in out
        rec = json.loads(out)
        assert rec["value_of_waiting"] == math.inf
        assert rec["expected_profit"] == math.inf


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

    def test_validation(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figures", "--out", str(tmp_path),
                         "--points", "1")
        assert code == EXIT_USAGE


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

    def test_bad_sweep_spec(self, capsys):
        code, _, _ = run(capsys, "statics", "--omega-sweep", "1:2")
        assert code == EXIT_USAGE

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

    def test_deterministic_given_seed(self, capsys):
        _, first, _ = run(capsys, "mc-check", "--n", "20000", "--seed", "9",
                          "--json")
        _, second, _ = run(capsys, "mc-check", "--n", "20000", "--seed", "9",
                           "--json")
        assert first == second


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

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "censor", "--config",
                         str(tmp_path / "absent.cfg"))
        assert code == EXIT_USAGE


class TestEntrypoint:
    def test_installed_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "censor_lab.cli", "censor",
             "--mu", "0.05", "--sigma", "0.3", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["u"] > 0.0

    def test_unknown_flag_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "censor_lab.cli", "censor", "--bogus"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
