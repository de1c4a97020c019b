"""Command-line surface.

Subcommands: censor, profit, timing, figures, statics, mc-check.  Every
command is deterministic given its flags (plus seed where applicable)
and can emit a human-readable table (default), JSON (``--json``) or CSV
(``--csv``).  Machine formats print 17 significant digits so numbers
round-trip exactly; JSON is strict, with null for an infinite or nan value.

Exit codes: 0 success, 1 internal numerical failure, 2 usage error,
3 verification failure.

Defaults are layered: built-in < CENSOR_LAB_SEED environment variable
(seed only) < ``--config`` key=value file < explicit flags.  The layers
belong to one call: a call that has any builds a parser of its own and
parses again, and the parser shared by calls is never changed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, mc, profit, statics, timing
from .censor import CensorSolution, censor_time_path, solve_normal_censor
from .errors import ConvergenceError, DomainError
from .model import ModelParams, ScaledParams
from .special import exp_or_inf

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

_BUILTIN_SEED = 12345
_FIGURE_VARIANCES = {  # regime tag -> sigma_bar^2 at the default mu_bar = 0.05
    "low_var": 0.03,
    "mid_var": 0.07,
    "high_var": 0.15,
    "critical": 0.10,
}
_PATH_DISPERSIONS = (0.25, 0.7, 1.0)  # kappa = mu_bar / sigma_bar^2 of the censor paths


# ---------------------------------------------------------------------------
# output helpers

def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _strict(record: dict) -> dict:
    """The record with each non-finite float as None, which strict JSON writes as null."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in record.items()}


def _csv(header, rows) -> str:
    """CSV lines of a header and rows, floats at 17 significant digits."""
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in [header, *rows])


def _emit_record(record: dict, args) -> None:
    if getattr(args, "json", False):
        print(json.dumps(_strict(record), allow_nan=False))
    elif getattr(args, "csv", False):
        print(_csv(record, [record.values()]), end="")
    else:
        width = max(len(k) for k in record)
        for k, v in record.items():
            print(f"{k:<{width}}  {_fmt(v)}")


def _emit_records(records: list, args) -> None:
    if getattr(args, "json", False):
        print(json.dumps([_strict(r) for r in records], allow_nan=False))
    else:
        print(_csv(records[0], [rec.values() for rec in records]), end="")


def _write_csv(path: Path, header: list, rows) -> str:
    try:
        path.write_text(_csv(header, rows), newline="\n")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
    return str(path)


# ---------------------------------------------------------------------------
# parameter plumbing

def _censor_from_args(args) -> CensorSolution:
    """The censor at (mu, sigma) from either direct or horizon flags."""
    direct = args.mu is not None or args.sigma is not None
    horizon = args.mu_bar is not None or args.sigma2_bar is not None
    if direct and horizon:
        raise DomainError("give either --mu/--sigma or --mu-bar/--sigma2-bar, not both")
    if direct:
        if args.mu is None or args.sigma is None:
            raise DomainError("--mu and --sigma must be given together")
        scaled = ScaledParams(mu=args.mu, sigma=args.sigma)
        return solve_normal_censor(scaled.mu, scaled.sigma)
    if args.mu_bar is None or args.sigma2_bar is None:
        raise DomainError("--mu-bar and --sigma2-bar must be given together")
    return censor_time_path(ModelParams.from_variance(args.mu_bar, args.sigma2_bar), args.theta)


def _params_from_args(args) -> ModelParams:
    if args.mu_bar is None or args.sigma2_bar is None:
        raise DomainError("--mu-bar and --sigma2-bar are required")
    return ModelParams.from_variance(args.mu_bar, args.sigma2_bar)


def _load_config(path: str) -> dict:
    """key=value lines; values coerced to int, then float, else string."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        for cast in (int, float):
            try:
                value = cast(value)
                break
            except ValueError:
                continue
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_censor(args) -> int:
    _emit_record(_censor_from_args(args)._asdict(), args)
    return EXIT_OK


def cmd_profit(args) -> int:
    sol = _censor_from_args(args)
    log_g = profit.log_expected_profit(sol.mu, sol.sigma, sol.w)
    record = {
        "mu": sol.mu,
        "sigma": sol.sigma,
        "w": sol.w,
        "expected_profit": exp_or_inf(log_g),
        "log_expected_profit": log_g,
        "value_of_waiting": math.expm1(log_g) if log_g < 709.0 else math.inf,
    }
    if args.mu_bar is not None:
        params = _params_from_args(args)
        record["myopic_profit"] = profit.myopic_profit(args.theta, params)
        record["regime"] = asymptotics.classify_regime(params, eps=args.eps).value
    _emit_record(record, args)
    return EXIT_OK


def cmd_timing(args) -> int:
    by_alpha = args.alpha is not None
    by_params = args.mu_bar is not None or args.sigma2_bar is not None
    if by_alpha == by_params:
        raise DomainError("give exactly one of --alpha/--case or --mu-bar/--sigma2-bar")
    if by_alpha:
        if args.case == "i":
            theta = timing.theta_case_i(args.alpha)
            record = {"alpha": args.alpha, "case": "i", "theta_star": theta}
        elif args.case == "ii":
            res = timing.theta_case_ii(args.alpha)
            record = {
                "alpha": args.alpha,
                "case": "ii",
                "theta_star": res.exact,
                "approx": res.approx if res.approx is not None else "unavailable",
            }
        else:
            raise DomainError("--case must be i or ii when --alpha is given")
        _emit_record(record, args)
        return EXIT_OK
    params = _params_from_args(args)
    sol = timing.solve_foc(params)
    _emit_record({
        "mu_bar": params.mu_bar,
        "sigma2_bar": params.sigma2_bar,
        "theta_star": sol.theta_star,
        "r_value": sol.r_value,
        "foc_residual": sol.foc_residual,
        "branch": sol.branch,
    }, args)
    return EXIT_OK


def cmd_figures(args) -> int:
    if not 0.01 < args.theta_max < math.inf:
        raise DomainError(f"--theta-max must be finite and exceed 0.01, got {args.theta_max}")
    if args.points < 2:
        raise DomainError(f"--points must be at least 2, got {args.points}")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot create output directory {out_dir}: {exc}") from exc

    thetas = np.geomspace(0.01, args.theta_max, args.points)
    written = []
    for tag, sigma2 in _FIGURE_VARIANCES.items():
        params = ModelParams.from_variance(args.mu_bar, sigma2)
        sol = censor_time_path(params, thetas)
        exact = profit.expected_profit(sol.mu, sol.sigma, sol.w)
        approx = [asymptotics.g_asymptotic_theta(float(t), params, eps=args.eps).value
                  for t in thetas]
        written.append(_write_csv(out_dir / f"g_bar_{tag}.csv",
                                  ["theta", "g_bar_exact", "g_asymptotic", "regime"],
                                  zip(thetas, exact, approx, [tag] * thetas.size)))

    # the censor time path b_bar(theta), increasing for kappa < 1/2 and
    # unimodal above
    path_thetas = np.geomspace(1e-3, args.theta_max, args.points)
    columns = [path_thetas]
    for kappa in _PATH_DISPERSIONS:
        params = ModelParams.from_variance(args.mu_bar, args.mu_bar / kappa)
        columns.append(censor_time_path(params, path_thetas).log_b_tilde)
    written.append(_write_csv(out_dir / "censor_path.csv",
                              ["theta"] + [f"log_b_kappa_{k:g}" for k in _PATH_DISPERSIONS],
                              zip(*columns)))
    for path in written:
        print(path)
    return EXIT_OK


def cmd_statics(args) -> int:
    did_something = False
    if args.omega_sweep is not None:
        try:
            start, stop, points = args.omega_sweep.split(":")
            start, stop, points = float(start), float(stop), int(points)
        except ValueError as exc:
            raise DomainError("--omega-sweep expects start:stop:points, "
                              f"got {args.omega_sweep!r}") from exc
        if not (0.0 < start < stop < math.inf) or points < 2:
            raise DomainError("--omega-sweep needs finite 0 < start < stop and points >= 2")
        sigmas = np.linspace(start, stop, points)
        records = [{"sigma": float(s), "omega": float(w)}
                   for s, w in zip(sigmas, statics.omega_sweep(sigmas))]
        _emit_records(records, args)
        did_something = True
    if args.kappa is not None:
        sol = statics.stationarity_solve(kappa=args.kappa)
        if not sol.exists and not (args.json or args.csv):
            print(f"no stationary point (kappa={args.kappa} < 1/2): censor increasing")
        else:
            _emit_record({
                "kappa": sol.kappa,
                "exists": sol.exists,
                "sigma_star": sol.sigma_star,
                "mu_star": sol.mu_star,
                "residual": sol.residual,
            }, args)
        did_something = True
    if not did_something:
        raise DomainError("statics needs --kappa and/or --omega-sweep")
    return EXIT_OK


def cmd_mc_check(args) -> int:
    if args.n < 10_000 and not args.strict:
        raise DomainError(
            f"--n below 10^4 (got {args.n}) needs --strict to acknowledge the noise")
    params = ModelParams.from_variance(args.mu_bar, args.sigma2_bar)
    scaled = ScaledParams.from_horizon(params, args.theta)
    report = mc.run_verification(scaled, n=args.n, seed=args.seed)
    record = {
        "mu": scaled.mu,
        "sigma": scaled.sigma,
        "n": args.n,
        "seed": args.seed,
        "martingale_mean": report.martingale.mean,
        "martingale_se": report.martingale.std_error,
        "martingale_deviation_se": report.martingale_deviation_se,
        "profit_mc_mean": report.profit_mc.mean,
        "profit_closed_form": report.profit_closed_form,
        "profit_deviation_se": report.profit_deviation_se,
        "u_analytic": report.u_analytic,
        "u_brute_force": report.u_brute_force,
        "u_step": report.u_step,
        "passed": report.passed,
    }
    _emit_record(record, args)
    return EXIT_OK if report.passed else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser

def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON record")
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.add_argument("--config", default=None,
                   help="key=value file supplying flag defaults")


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, default=None, help="drift-scale mu")
    p.add_argument("--sigma", type=float, default=None, help="volatility sigma")
    p.add_argument("--mu-bar", type=float, default=None, help="per-unit-time drift")
    p.add_argument("--sigma2-bar", type=float, default=None,
                   help="per-unit-time variance sigma_bar^2")
    p.add_argument("--theta", type=float, default=1.0, help="horizon (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censor-lab",
        description="Optimal forward-contract design under lognormal prices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("censor", help="solve for the censor price")
    _add_param_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_censor)

    p = sub.add_parser("profit", help="expected profit of waiting")
    _add_param_flags(p)
    p.add_argument("--eps", type=float, default=1e-12,
                   help="tolerance for the critical-regime equality test")
    _add_output_flags(p)
    p.set_defaults(func=cmd_profit)

    p = sub.add_parser("timing", help="optimal re-stocking date")
    p.add_argument("--mu-bar", type=float, default=None)
    p.add_argument("--sigma2-bar", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None,
                   help="closed-form case parameter")
    p.add_argument("--case", choices=["i", "ii"], default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("figures", help="export exact-vs-asymptotic and censor-path CSV datasets")
    p.add_argument("--mu-bar", type=float, default=0.05)
    p.add_argument("--theta-max", type=float, default=2000.0)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--out", default="figures_data", help="output directory")
    _add_output_flags(p)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("statics", help="comparative statics and stationarity")
    p.add_argument("--kappa", type=float, default=None,
                   help="dispersion mu/sigma^2 for the stationarity system")
    p.add_argument("--omega-sweep", default=None, metavar="START:STOP:POINTS",
                   help="sweep the interior-maximum curve omega(sigma)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_statics)

    p = sub.add_parser("mc-check", help="Monte Carlo and brute-force cross-checks")
    p.add_argument("--mu-bar", type=float, default=0.05)
    p.add_argument("--sigma2-bar", type=float, default=0.07)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=_BUILTIN_SEED)
    p.add_argument("--strict", action="store_true",
                   help="allow n < 10^4 and still fail on tolerance breaches")
    _add_output_flags(p)
    p.set_defaults(func=cmd_mc_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once and never changed: a layered call builds its own."""
    return build_parser()


def _commands(parser: argparse.ArgumentParser):
    """The subcommand parsers of a ``build_parser()`` parser."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices.values()


def _layers(config_path) -> dict:
    """This call's defaults over the built-in ones: env seed < config file, whose keys must be flags."""
    env_seed = os.environ.get("CENSOR_LAB_SEED")
    layers = {}
    if env_seed is not None:
        try:
            layers["seed"] = int(env_seed)
        except ValueError:
            raise DomainError(f"CENSOR_LAB_SEED must be an integer, got {env_seed!r}")
    if config_path is not None:
        config = _load_config(config_path)
        flags = {a.dest for sp in _commands(_parser()) for a in sp._actions if a.option_strings}
        unknown = ", ".join(sorted(config.keys() - flags))
        if unknown:
            raise DomainError(f"{config_path}: no command has a flag for key(s) {unknown}")
        layers.update(config)
    return layers


def _layered_parser(layers: dict) -> argparse.ArgumentParser:
    """A parser of one call's own, each command taking the layers it has a flag for.

    argparse resolves defaults per subparser, and converts a string
    default by its flag's type, as it does a flag's value.
    """
    parser = build_parser()
    for sp in _commands(parser):
        known = {a.dest for a in sp._actions}
        sp.set_defaults(**{k: v for k, v in layers.items() if k in known})
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
        layers = _layers(args.config)
        if layers:
            args = _layered_parser(layers).parse_args(argv)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
