"""Tests of the benchmark's own checks, inputs and tracer.

    python3 -m pytest perfbench/test_checks.py

Every check must accept the library's output and reject the same output
moved by a small, deliberate error, so that none of them passes vacuously.
"""

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference as ref  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from censor_lab import model, statics  # noqa: E402


def _point(mu, sigma, mp_check=True):
    x = wl.PointIn(mu, sigma, mp_check)
    return x, wl.point_summary(wl.point_op(x))


@pytest.mark.parametrize("mu, sigma", [(0.05, 0.3), (1.2, 2.5), (3.0, 0.05)])
def test_point_check_accepts_library_output(mu, sigma):
    x, out = _point(mu, sigma)
    assert wl.point_check(x, out) == []


@pytest.mark.parametrize("field, delta", [
    ("w", 1e-6),
    ("log_b", 1e-6),
    ("log_g", 1e-9),
    ("vow", 1e-9),
])
def test_point_check_rejects_perturbed_output(field, delta):
    x, out = _point(0.05, 0.3)
    bad = out._replace(**{field: getattr(out, field) + delta})
    assert wl.point_check(x, bad)


def test_point_check_rejects_w_off_in_mpmath_only():
    # the 50-digit comparison catches a W moved by 1e-6 on its own as well
    x, out = _point(0.05, 0.3)
    bad = out._replace(w=out.w + 1e-6)
    assert any("50-digit" in e for e in wl.point_check(x, bad))


def test_point_check_rejects_profit_below_no_forward_policy():
    x, out = _point(3.0, 2.0, mp_check=False)
    bad = out._replace(log_g=max(0.0, 4.0 - 3.0) - 1e-6)
    assert any("below max" in e for e in wl.point_check(x, bad))


def test_point_inputs_repeat_and_keep_a_fixed_overflow_share():
    a, b, c = wl.point_inputs(3), wl.point_inputs(3), wl.point_inputs(4)
    assert a == b and a != c
    assert len(a) == wl.POINT_N
    fixed = set(wl.overflow_points())
    for inputs in (a, c):
        assert sum((x.mu, x.sigma) in fixed for x in inputs) == wl.POINT_OVERFLOW_N
        for x in inputs:
            lg = ref.log_g(x.mu, x.sigma)
            assert (lg > wl.LOG_DBL_MAX) == ((x.mu, x.sigma) in fixed)


def test_overflow_inputs_fail_with_overflow_error():
    mu, sigma = wl.overflow_points()[0]
    with pytest.raises(OverflowError):
        wl.point_op(wl.PointIn(mu, sigma, False))


@pytest.fixture(scope="module")
def low_var():
    theta_b = ref.stationary_theta(0.05, 0.03)
    x = wl.HorizonIn(0.05, 0.03, "low_var", theta_b)
    return x, wl.horizon_summary(wl.horizon_op(x))


def test_horizon_check_accepts_library_output(low_var):
    x, out = low_var
    assert out.shape == "unimodal"
    assert wl.horizon_check(x, out) == []


def test_horizon_check_accepts_critical_regime():
    x = wl.HorizonIn(0.05, 0.1, "critical", None)
    out = wl.horizon_summary(wl.horizon_op(x))
    assert out.shape == "increasing" and out.stat_exists and out.sigma_star is None
    assert wl.horizon_check(x, out) == []


def test_horizon_check_rejects_shifted_theta_star(low_var):
    x, out = low_var
    assert wl.horizon_check(x, out._replace(theta_star=out.theta_star + 0.05))


def test_horizon_check_rejects_wrong_shape_and_peak(low_var):
    x, out = low_var
    step = math.log(out.shape_thetas[1] / out.shape_thetas[0])
    assert wl.horizon_check(x, out._replace(shape="increasing"))
    assert wl.horizon_check(x, out._replace(theta_peak=out.theta_peak * math.exp(2 * step)))


@pytest.mark.parametrize("field, factor", [
    ("stat_theta", 1 + 1e-6),
    ("sigma_star", 1 + 1e-6),
    ("r_value", 1 + 1e-9),
])
def test_horizon_check_rejects_scaled_scalar(low_var, field, factor):
    x, out = low_var
    assert wl.horizon_check(x, out._replace(**{field: getattr(out, field) * factor}))


@pytest.mark.parametrize("field", ["shape_log_b", "g_values", "g_asymptotic"])
def test_horizon_check_rejects_perturbed_series(low_var, field):
    x, out = low_var
    values = list(getattr(out, field))
    values[0] *= 1 + 1e-9
    assert wl.horizon_check(x, out._replace(**{field: tuple(values)}))


def test_horizon_inputs_cover_the_regimes():
    inputs = wl.horizon_inputs(5)
    assert inputs == wl.horizon_inputs(5)
    kappas = [x.mu_bar / x.sigma2_bar for x in inputs]
    assert any(k > 0.5 for k in kappas) and any(k < 0.5 for k in kappas)
    crit = [x for x in inputs if x.regime == "critical"]
    assert crit and all(model.ModelParams.from_variance(x.mu_bar, x.sigma2_bar).dispersion
                        == 0.5 for x in crit)


@pytest.fixture(scope="module")
def verify_case():
    x = wl.verify_inputs(7)[1]
    return x, wl.verify_op(x), wl.VerifyReference(x)


def _edit(out, **changes):
    import json
    code, text = out
    rec = json.loads(text)
    rec.update(changes)
    return code, json.dumps(rec)


def test_verify_check_accepts_library_output(verify_case):
    x, out, vref = verify_case
    assert wl.verify_check(x, out, vref) == []


@pytest.mark.parametrize("field, factor", [
    ("profit_closed_form", 1 + 1e-9),
    ("u_analytic", 1 + 1e-9),
    ("martingale_mean", 1 + 1e-9),
    ("profit_mc_mean", 1 + 1e-9),
    ("martingale_se", 1 + 1e-6),
])
def test_verify_check_rejects_perturbed_field(verify_case, field, factor):
    import json
    x, out, vref = verify_case
    value = json.loads(out[1])[field]
    assert wl.verify_check(x, _edit(out, **{field: value * factor}), vref)


def test_verify_check_rejects_inconsistent_verdict(verify_case):
    x, out, vref = verify_case
    assert wl.verify_check(x, (3, out[1]), vref)
    assert wl.verify_check(x, _edit(out, passed=False), vref)


def test_tracer_counts_and_self_time():
    params = model.ModelParams.from_variance(0.05, 0.07)
    t = tr.Tracer()
    t.install()
    try:
        statics.censor_shape_check(params, points=16)
    finally:
        t.uninstall()
    assert statics.censor_shape_check.__module__ == "censor_lab.statics"
    assert not hasattr(statics.solve_normal_censor, "__wrapped__")
    m = t.metrics(1)
    assert m["statics.censor_shape_check.solves"] == 16.0
    assert m["censor.solve_normal_censor.calls"] == 16.0
    assert m["censor.F_evals_per_solve"] >= 2.0
    name, start, end, parent, _ = t.columns()
    root = int(name[0])
    assert t.names[root] == "statics.censor_shape_check" and parent[0] == -1
    total_self = sum(m[f"{k}.self_ms"] for k in (f"{layer}.{f}" for layer, fs in tr.LAYERS.items()
                                                  for f in fs))
    assert total_self == pytest.approx((end[0] - start[0]) / 1e6, rel=1e-9)


def test_benchmark_json_lists_what_the_run_prints():
    import json
    import run
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tr.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
