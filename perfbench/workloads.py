"""The three kinds of traffic, their inputs and the checks on their outputs.

Each workload has
  inputs(seed)        the fixed list one pass goes through (same seed, same list),
  op(x)               one operation, calling the library through module attributes
                      so that the traced run's wrappers see every call,
  summary(raw)        a plain tuple of the op's outputs, compared exactly across passes,
  check(x, summary)   a list of error strings, empty when the output is right,
                      from reference.py or from a property the method must have.

Tolerances are multiples of the double epsilon times the magnitude of the
largest term the quantity is assembled from (``reference.log_F_scale``),
so they hold over the whole domain and still reject a W moved by 1e-6 at
moderate (mu, sigma).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from typing import NamedTuple

import numpy as np

import reference as ref
from censor_lab import asymptotics, censor, cli, model, profit, statics, timing

EPS = ref.EPS
K_TOL = 64.0
LOG_DBL_MAX = math.log(sys.float_info.max)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ---------------------------------------------------------------------------
# point: single censor and profit queries at one (mu, sigma)

MU_RANGE = (1e-12, 700.0)
SIGMA_RANGE = (1e-8, 1e3)
POINT_N = 400
# value_of_waiting raises OverflowError wherever log g > log(DBL_MAX); that is
# 14.3% of the log-uniform domain (2865 of 20000 draws), so 57 of the 400
# inputs of a pass are such points.  They come from a fixed generator, not
# from the workload seed, so every run fails on the same share.
POINT_OVERFLOW_N = 57
OVERFLOW_KEY = 0x5EED
# draws within this distance of log(DBL_MAX) belong to neither group
OVERFLOW_MARGIN = 0.01
# every MP_EVERY-th seed-drawn point is also checked against 50-digit mpmath
MP_EVERY = 50


class PointIn(NamedTuple):
    mu: float
    sigma: float
    mp_check: bool


class PointOut(NamedTuple):
    w: float
    log_b: float
    b_tilde: float
    u: float
    residual: float
    iterations: int
    log_g: float
    vow: float


def _draw_points(rng, count, keep):
    out = []
    while len(out) < count:
        mu = _log_uniform(rng, *MU_RANGE)
        sigma = _log_uniform(rng, *SIGMA_RANGE)
        if keep(ref.log_g(mu, sigma)):
            out.append((mu, sigma))
    return out


def overflow_points():
    """The fixed inputs on which value_of_waiting overflows (log g > log DBL_MAX)."""
    rng = np.random.default_rng(OVERFLOW_KEY)
    return _draw_points(rng, POINT_OVERFLOW_N,
                        lambda lg: lg > LOG_DBL_MAX + OVERFLOW_MARGIN)


def point_inputs(seed):
    rng = np.random.default_rng([0, seed])
    drawn = _draw_points(rng, POINT_N - POINT_OVERFLOW_N,
                         lambda lg: lg < LOG_DBL_MAX - OVERFLOW_MARGIN)
    out = [PointIn(mu, sigma, k % MP_EVERY == 0) for k, (mu, sigma) in enumerate(drawn)]
    # spread the overflow points evenly through the pass
    for j, (mu, sigma) in enumerate(overflow_points()):
        out.insert(j * POINT_N // POINT_OVERFLOW_N, PointIn(mu, sigma, False))
    return out


def point_op(x):
    sol = censor.solve_normal_censor(x.mu, x.sigma)
    lg = profit.log_expected_profit(x.mu, x.sigma, sol.w)
    vow = profit.value_of_waiting(x.mu, x.sigma)
    return sol, lg, vow


def point_summary(raw):
    sol, lg, vow = raw
    return PointOut(sol.w, sol.log_b_tilde, sol.b_tilde, sol.u, sol.residual,
                    sol.iterations, lg, vow)


def _w_tolerance(mu, sigma, w_ref):
    """How far W may sit from the reference root given a rounding-level residual.

    F is flat where dF/dw = sigma*exp(sigma*w - sigma^2/2)*(1 - Phi(w)) is
    tiny, and there a root to within an ulp of F lies far from the true W.
    """
    log_fw = (math.log(sigma) + sigma * w_ref - 0.5 * sigma * sigma
              + float(ref.log_ndtr(-w_ref)))
    return K_TOL * EPS * (abs(w_ref) + math.exp(min(-log_fw, 700.0)))


def censor_errors(mu, sigma, w, log_b):
    """Checks on a solved censor (W, log b_tilde) at one (mu, sigma)."""
    errs = []
    if not (math.isfinite(w) and math.isfinite(log_b)):
        return [f"non-finite censor w={w} log_b={log_b}"]
    scale = ref.log_F_scale(mu, sigma, w)
    resid = ref.log_F(w, sigma) + mu
    if abs(resid) > K_TOL * EPS * scale:
        errs.append(f"log F(W) + mu = {resid:.3e}")
    w_ref = ref.solve_w(mu, sigma)
    tol_w = _w_tolerance(mu, sigma, w_ref)
    if abs(w - w_ref) > tol_w:
        errs.append(f"W = {w!r}, reference {w_ref!r} (tolerance {tol_w:.2e})")
    lb_ref = max(ref.log_b_tilde(mu, sigma, w_ref), 0.0)
    if abs(log_b - lb_ref) > sigma * tol_w + K_TOL * EPS * scale:
        errs.append(f"log b_tilde = {log_b!r}, reference {lb_ref!r}")
    # E[min(b, b_tilde)] = 1: the censored price is a martingale
    lm = ref.log_censored_mean(mu, sigma, log_b)
    if abs(lm) > K_TOL * EPS * scale:
        errs.append(f"log E[min(b, b_tilde)] = {lm:.3e}")
    return errs


def point_check(x, out):
    mu, sigma = x.mu, x.sigma
    errs = censor_errors(mu, sigma, out.w, out.log_b)
    if errs and errs[0].startswith("non-finite"):
        return errs
    scale = ref.log_F_scale(mu, sigma, out.w)
    tol = K_TOL * EPS * scale
    if out.residual > 1e-12:
        errs.append(f"reported residual {out.residual:.3e} above 1e-12")
    if out.log_b < 709.0 and abs(math.log(out.b_tilde) - out.log_b) > tol:
        errs.append(f"b_tilde {out.b_tilde!r} != exp(log_b {out.log_b!r})")
    if out.log_b < 350.0 and abs(math.log(out.u) + 2.0 * out.log_b) > tol:
        errs.append(f"u {out.u!r} != b_tilde^-2")
    lg_ref = ref.log_g(mu, sigma)
    if not abs(out.log_g - lg_ref) <= tol:
        errs.append(f"log g = {out.log_g!r}, reference {lg_ref!r}")
    # E[1/min(b, b_tilde)] = g at the reported censor
    li = ref.log_censored_inverse_mean(mu, sigma, out.log_b)
    if not abs(li - out.log_g) <= tol:
        errs.append(f"log E[1/min(b, b_tilde)] = {li!r} != log g {out.log_g!r}")
    # the optimal policy beats all-forward (profit 1) and no-forward (exp(sigma^2 - mu))
    floor = max(0.0, sigma * sigma - mu)
    if out.log_g < floor - K_TOL * EPS * max(1.0, abs(sigma * sigma - mu)):
        errs.append(f"log g = {out.log_g!r} below max(0, sigma^2 - mu) = {floor!r}")
    v_ref = math.expm1(lg_ref)
    if not abs(out.vow - v_ref) <= tol * (1.0 + abs(v_ref)):
        errs.append(f"value_of_waiting = {out.vow!r}, reference {v_ref!r}")
    if x.mp_check:
        w_mp, lg_mp = ref.mp_w_and_log_g(mu, sigma, out.w)
        r_mp = ref.mp_log_F_residual(mu, sigma, out.w)
        if abs(r_mp) > tol:
            errs.append(f"50-digit log F(W) + mu = {r_mp:.3e}")
        tol_w = _w_tolerance(mu, sigma, float(w_mp))
        if abs(out.w - float(w_mp)) > tol_w:
            errs.append(f"W = {out.w!r}, 50-digit {float(w_mp)!r}")
        if abs(out.log_g - float(lg_mp)) > tol:
            errs.append(f"log g = {out.log_g!r}, 50-digit {float(lg_mp)!r}")
    return errs


# ---------------------------------------------------------------------------
# horizon: optimal re-stocking date and censor-path shape of one (mu_bar, sigma_bar^2)

MU_BAR_RANGE = (0.02, 0.2)
# sigma2_bar / mu_bar per regime; 2.0 is the critical regime, exactly
RATIO_RANGES = {"low_var": (0.3, 0.9), "mid_var": (1.1, 1.7),
                "critical": (2.0, 2.0), "high_var": (2.3, 4.0)}
PAIRS_PER_REGIME = 6
# the stationary horizon must lie well inside the shape grid [1e-3, 1e3]
THETA_STAR_RANGE = (1e-2, 1e2)
# g_bar and its asymptote are evaluated on a log grid up to mu_bar*theta = 100,
# the range `censor-lab figures` spans at its default mu_bar
G_GRID_POINTS = 100
G_GRID_MU_MAX = 100.0
FIGURES_EPS = 1e-12
# R(theta* +- step) must be below R(theta*)
R_PROBE = 1e-3
SHAPE_CHECK_EVERY = 40


class HorizonIn(NamedTuple):
    mu_bar: float
    sigma2_bar: float
    regime: str
    theta_star_b: float | None  # reference peak of the censor path when kappa > 1/2


class HorizonOut(NamedTuple):
    theta_star: float
    r_value: float
    shape: str
    theta_peak: float | None
    shape_thetas: tuple
    shape_log_b: tuple
    stat_exists: bool
    sigma_star: float | None
    mu_star: float | None
    stat_theta: float | None
    g_thetas: tuple
    g_values: tuple
    g_asymptotic: tuple


def _critical_exact(mu_bar):
    # ModelParams squares sqrt(sigma2_bar); the critical regime needs it back exactly
    s2 = 2.0 * mu_bar
    return math.sqrt(s2) * math.sqrt(s2) == s2


def horizon_inputs(seed):
    rng = np.random.default_rng([1, seed])
    out = []
    for regime, (r_lo, r_hi) in RATIO_RANGES.items():
        found = 0
        while found < PAIRS_PER_REGIME:
            mu_bar = _log_uniform(rng, *MU_BAR_RANGE)
            ratio = r_lo if r_lo == r_hi else float(rng.uniform(r_lo, r_hi))
            sigma2_bar = ratio * mu_bar
            theta_b = None
            if regime == "critical":
                if not _critical_exact(mu_bar):
                    continue
            elif mu_bar / sigma2_bar > 0.5:
                theta_b = ref.stationary_theta(mu_bar, sigma2_bar)
                if not THETA_STAR_RANGE[0] <= theta_b <= THETA_STAR_RANGE[1]:
                    continue
            out.append(HorizonIn(mu_bar, sigma2_bar, regime, theta_b))
            found += 1
    return out


def g_grid(mu_bar):
    return np.geomspace(0.01, G_GRID_MU_MAX / mu_bar, G_GRID_POINTS)


def horizon_op(x):
    params = model.ModelParams.from_variance(x.mu_bar, x.sigma2_bar)
    foc = timing.solve_foc(params)
    shape = statics.censor_shape_check(params)
    stat = statics.stationarity_solve(params=params)
    thetas = g_grid(x.mu_bar)
    g = [profit.g_bar(float(t), params) for t in thetas]
    ga = [asymptotics.g_asymptotic_theta(float(t), params, eps=FIGURES_EPS).value
          for t in thetas]
    return foc, shape, stat, thetas, g, ga


def horizon_summary(raw):
    foc, shape, stat, thetas, g, ga = raw
    return HorizonOut(
        foc.theta_star, foc.r_value, shape.shape, shape.theta_peak,
        tuple(shape.thetas.tolist()), tuple(shape.log_b_values.tolist()),
        stat.exists, stat.sigma_star, stat.mu_star, stat.theta_star_b,
        tuple(thetas.tolist()), tuple(g), tuple(ga))


def horizon_check(x, out):
    errs = []
    mb, s2 = x.mu_bar, x.sigma2_bar
    kappa = mb / s2
    # solve_foc: theta* in (0, 1) and a strict local maximum of the reference R
    t = out.theta_star
    if not R_PROBE < t < 1.0 - R_PROBE:
        return [f"theta* = {t!r} outside (0, 1)"]
    r_mid = ref.revenue(mb, s2, t)
    for side in (t - R_PROBE, t + R_PROBE):
        if not ref.revenue(mb, s2, side) < r_mid:
            errs.append(f"R({side!r}) >= R(theta* = {t!r}): theta* is no maximum")
    if abs(out.r_value - r_mid) > 1e-12 * r_mid:
        errs.append(f"R(theta*) = {out.r_value!r}, reference {r_mid!r}")
    # censor_shape_check: unimodal exactly when kappa > 1/2, peak near theta*_b
    want = "unimodal" if kappa > 0.5 else "increasing"
    if out.shape != want:
        errs.append(f"shape {out.shape!r} at kappa = {kappa!r}, want {want!r}")
    step = math.log(out.shape_thetas[1] / out.shape_thetas[0])
    if want == "unimodal" and out.shape == want:
        if abs(math.log(out.theta_peak / x.theta_star_b)) > step:
            errs.append(f"peak {out.theta_peak!r} more than a grid step from "
                        f"theta*_b = {x.theta_star_b!r}")
    for i in range(0, len(out.shape_thetas), SHAPE_CHECK_EVERY):
        th = out.shape_thetas[i]
        mu, sigma = mb * th, math.sqrt(s2 * th)
        w_ref = ref.solve_w(mu, sigma)
        scale = ref.log_F_scale(mu, sigma, w_ref)
        tol = sigma * _w_tolerance(mu, sigma, w_ref) + K_TOL * EPS * scale
        lb_ref = max(ref.log_b_tilde(mu, sigma, w_ref), 0.0)
        if abs(out.shape_log_b[i] - lb_ref) > tol:
            errs.append(f"log b_bar({th!r}) = {out.shape_log_b[i]!r}, reference {lb_ref!r}")
    # stationarity_solve: no root below 1/2, none finite at 1/2, theta*_b above
    if kappa < 0.5:
        if out.stat_exists or out.sigma_star is not None:
            errs.append(f"stationary point reported at kappa = {kappa!r} < 1/2")
    elif kappa == 0.5:
        if not (out.stat_exists and out.sigma_star is None):
            errs.append("kappa = 1/2 must report a stationary point at infinity")
    else:
        sig, mu_s = out.sigma_star, out.mu_star
        if not (out.stat_exists and sig is not None and math.isfinite(sig)):
            errs.append(f"no stationary point at kappa = {kappa!r} > 1/2")
        else:
            res = ref.stationarity_residual(kappa, sig)
            if abs(res) > 1e-10 * max(1.0, mu_s):
                errs.append(f"stationarity residual {res:.3e} at sigma* = {sig!r}")
            if abs(mu_s - kappa * sig * sig) > 8 * EPS * mu_s:
                errs.append(f"mu* = {mu_s!r} off the parabola kappa*sigma*^2")
            if abs(out.stat_theta - x.theta_star_b) > 1e-8 * x.theta_star_b:
                errs.append(f"theta*_b = {out.stat_theta!r}, reference {x.theta_star_b!r}")
    # g_bar and its regime-matched asymptote along the figures grid
    for th, g, ga in zip(out.g_thetas, out.g_values, out.g_asymptotic):
        mu, sigma = mb * th, math.sqrt(s2 * th)
        lg_ref = ref.horizon_log_g(mb, s2, th)
        tol = K_TOL * EPS * ref.log_F_scale(mu, sigma, ref.solve_w(mu, sigma))
        if not (g > 0.0 and abs(math.log(g) - lg_ref) <= tol):
            errs.append(f"g_bar({th!r}) = {g!r}, reference {math.exp(lg_ref)!r}")
        a_ref = ref.asymptotic_g(mb, s2, th)
        if not abs(ga - a_ref) <= K_TOL * EPS * max(1.0, mu) * a_ref:
            errs.append(f"g_asymptotic_theta({th!r}) = {ga!r}, reference {a_ref!r}")
    return errs


# ---------------------------------------------------------------------------
# verify: `censor-lab mc-check --n 1000000 --json` in process

MC_N = 1_000_000
VERIFY_CYCLE = ("low_var", "mid_var", "critical", "high_var")
THETA_RANGE = (0.5, 2.0)
SE_MULTIPLIER = 3.0


class VerifyIn(NamedTuple):
    mu_bar: float
    sigma2_bar: float
    theta: float
    seed: int


def verify_inputs(seed):
    rng = np.random.default_rng([2, seed])
    out = []
    for regime in VERIFY_CYCLE:
        r_lo, r_hi = RATIO_RANGES[regime]
        while True:
            mu_bar = _log_uniform(rng, *MU_BAR_RANGE)
            if regime != "critical" or _critical_exact(mu_bar):
                break
        ratio = r_lo if r_lo == r_hi else float(rng.uniform(r_lo, r_hi))
        theta = _log_uniform(rng, *THETA_RANGE)
        out.append(VerifyIn(mu_bar, ratio * mu_bar, theta, int(rng.integers(0, 2**31))))
    return out


def verify_argv(x):
    return ["mc-check", "--mu-bar", repr(x.mu_bar), "--sigma2-bar", repr(x.sigma2_bar),
            "--theta", repr(x.theta), "--n", str(MC_N), "--seed", str(x.seed), "--json"]


def verify_op(x):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(verify_argv(x))
    return code, buf.getvalue()


def verify_summary(raw):
    return raw


class VerifyReference:
    """Reference numbers for one mc-check input, computed once per run."""

    def __init__(self, x):
        self.mu = x.mu_bar * x.theta
        self.sigma = math.sqrt(x.sigma2_bar) * math.sqrt(x.theta)
        self.w = ref.solve_w(self.mu, self.sigma)
        self.scale = ref.log_F_scale(self.mu, self.sigma, self.w)
        self.tol_w = _w_tolerance(self.mu, self.sigma, self.w)
        self.log_b = ref.log_b_tilde(self.mu, self.sigma, self.w)
        self.log_g = ref.log_censored_inverse_mean(self.mu, self.sigma, self.log_b)
        b = ref.price_sample(self.mu, self.sigma, MC_N, x.seed)
        np.minimum(b, math.exp(self.log_b), out=b)
        self.mart_mean, self.mart_se = ref.mean_and_se(b)
        np.reciprocal(b, out=b)
        self.prof_mean, self.prof_se = ref.mean_and_se(b)


def verify_check(x, out, vref=None):
    code, text = out
    vref = VerifyReference(x) if vref is None else vref
    try:
        rec = json.loads(text)
    except ValueError:
        return [f"exit {code}, output is not one JSON record: {text[:200]!r}"]
    errs = []
    if code not in (0, 3) or (code == 0) != rec.get("passed"):
        errs.append(f"exit code {code} with passed = {rec.get('passed')!r}")
    if rec["n"] != MC_N or rec["seed"] != x.seed:
        errs.append(f"n/seed echoed as {rec['n']}/{rec['seed']}")
    if abs(rec["mu"] - vref.mu) > 4 * EPS * vref.mu or \
            abs(rec["sigma"] - vref.sigma) > 4 * EPS * vref.sigma:
        errs.append(f"(mu, sigma) = ({rec['mu']!r}, {rec['sigma']!r})")
    # b_tilde = u_analytic^(-1/2)
    log_b = -0.5 * math.log(rec["u_analytic"])
    if abs(log_b - vref.log_b) > vref.sigma * vref.tol_w + K_TOL * EPS * vref.scale:
        errs.append(f"log b_tilde from u_analytic = {log_b!r}, reference {vref.log_b!r}")
    g = rec["profit_closed_form"]
    if not abs(math.log(g) - vref.log_g) <= K_TOL * EPS * vref.scale:
        errs.append(f"profit_closed_form = {g!r}, reference {math.exp(vref.log_g)!r}")
    # the estimators on the same Philox stream, normals from scipy's ndtri
    for key, want in (("martingale_mean", vref.mart_mean), ("martingale_se", vref.mart_se),
                      ("profit_mc_mean", vref.prof_mean)):
        rel = 1e-9 if key.endswith("_se") else 1e-12
        if not abs(rec[key] - want) <= rel * abs(want):
            errs.append(f"{key} = {rec[key]!r}, reference {want!r}")
    dev_m = abs(rec["martingale_mean"] - 1.0) / rec["martingale_se"]
    dev_p = abs(rec["profit_mc_mean"] - g) / vref.prof_se
    for key, want in (("martingale_deviation_se", dev_m), ("profit_deviation_se", dev_p)):
        if not abs(rec[key] - want) <= 1e-6 * max(1.0, want):
            errs.append(f"{key} = {rec[key]!r}, recomputed {want!r}")
    if rec["u_step"] != 1.0 / 400:
        errs.append(f"u_step = {rec['u_step']!r}")
    u_ref = math.exp(-2.0 * vref.log_b)
    if not abs(rec["u_brute_force"] - u_ref) <= rec["u_step"]:
        errs.append(f"u_brute_force = {rec['u_brute_force']!r}, reference u = {u_ref!r}")
    verdict = (rec["martingale_deviation_se"] <= SE_MULTIPLIER
               and rec["profit_deviation_se"] <= SE_MULTIPLIER
               and abs(rec["u_brute_force"] - rec["u_analytic"]) <= rec["u_step"])
    if verdict != rec["passed"]:
        errs.append(f"passed = {rec['passed']!r}, but the reported deviations say {verdict}")
    return errs


class Workload(NamedTuple):
    inputs: object
    op: object
    summary: object
    check: object


WORKLOADS = {
    "point": Workload(point_inputs, point_op, point_summary, point_check),
    "horizon": Workload(horizon_inputs, horizon_op, horizon_summary, horizon_check),
    "verify": Workload(verify_inputs, verify_op, verify_summary, verify_check),
}
