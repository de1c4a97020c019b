"""Independent verification layer.

Monte Carlo sampling of the terminal lognormal price (counter-based
Philox generator, normals by inverse-CDF transform, so runs are
bit-reproducible for a given seed), estimators for the censored mean
and expected profit, and a brute-force policy optimizer that re-derives
the optimal forward quantity from the raw objective on a deterministic
quantile grid, without ever touching the censor equation.  It is a grid
search over u on that objective, evaluated with prefix sums over the
sorted quadrature nodes in O(N log N) rather than on a dense u x node
grid.

The estimators take their moments about the first sample value, so a
constant (fully censored) sample has a mean equal to that value and a
standard error of exactly 0.0.  The price stream is untouched by this;
against a plain mean/std the estimates move only at the 1e-16 relative
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .censor import censor_price, solve_normal_censor
from .errors import DomainError
from .model import ScaledParams
from .profit import expected_profit
from .special import inv_norm_cdf

DEFAULT_SE_MULTIPLIER = 3.0


@dataclass(frozen=True)
class PriceSample:
    """Terminal prices b = exp(nu + sigma * Z), Z standard normal."""

    values: np.ndarray
    seed: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.n,):
            raise DomainError("values must be a 1-d array of length n")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int

    def deviation_in_se(self, reference: float) -> float:
        """|mean - reference| scaled by the standard error."""
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else math.inf
        return abs(self.mean - reference) / self.std_error


def _uniform_open(rng: np.random.Generator, n: int) -> np.ndarray:
    # 53-bit integers shifted by half a lattice cell: strictly inside (0, 1)
    return (rng.integers(0, 1 << 53, size=n, dtype=np.int64) + 0.5) / float(1 << 53)


def sample_prices(scaled: ScaledParams, n: int, seed: int) -> PriceSample:
    """Deterministic lognormal sample for the given seed."""
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    # exp(nu + sigma * z), evaluated in place on the quantile array
    z = inv_norm_cdf(_uniform_open(rng, n))
    z *= scaled.sigma
    z += scaled.nu
    np.exp(z, out=z)
    return PriceSample(values=z, seed=seed, n=n)


def _estimate(x: np.ndarray) -> McEstimate:
    """Mean and standard error of x; x is a scratch array and is overwritten."""
    n = x.size
    # Moments about a sample value: a constant sample then has exactly zero
    # deviations, so mean == ref and std_error == 0.0 with no rounding left
    # over from the summation order of np.mean.  The two-pass variance is
    # done in place, so no temporary of the sample's size is allocated.
    ref = float(x[0])
    x -= ref
    shift = float(np.mean(x))
    x -= shift
    np.square(x, out=x)
    se = math.sqrt(float(np.sum(x)) / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    return McEstimate(mean=ref + shift, std_error=se, n=n)


def mc_censored_mean(sample: PriceSample, beta: float) -> McEstimate:
    """Estimate of E[min(b, beta)]; beta = +inf leaves the sample uncensored."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return _estimate(np.minimum(sample.values, beta))


def mc_expected_profit(sample: PriceSample, b_tilde: float) -> McEstimate:
    """Estimate of E[1 / min(b, b_tilde)]; b_tilde = +inf gives the myopic profit."""
    if not b_tilde > 0.0:
        raise DomainError(f"b_tilde must be positive, got {b_tilde}")
    m = np.minimum(sample.values, b_tilde)
    return _estimate(np.reciprocal(m, out=m))


def mc_martingale_check(scaled: ScaledParams, n: int, seed: int) -> McEstimate:
    """E[min(b, b_tilde)] estimate; deviation from 1 is the headline check."""
    if n < 10_000:
        raise DomainError(f"n must be at least 10^4, got {n}")
    beta = censor_price(scaled.mu, scaled.sigma)
    return mc_censored_mean(sample_prices(scaled, n, seed), beta)


class BruteForceResult(NamedTuple):
    u_star: float
    objective: float
    u_step: float


def brute_force_optimal_u(scaled: ScaledParams, u_points: int = 400,
                          quad_points: int = 10_000) -> BruteForceResult:
    """Grid-search the forward quantity directly on the raw objective.

    For each candidate u the supplement bought at the re-stocking date
    is z(b) = max(0, b^-2 - u) (zero whenever the spot price exceeds
    the marginal revenue of the contracted amount), and the objective
    E[2*sqrt(z + u) - b*z] - u is integrated over a midpoint quantile
    grid of the lognormal law.  Deterministic, hence noise-free.

    The integrand splits exactly in two cases, since z + u = max(b^-2, u):

        b^-2 > u:  2*sqrt(b^-2) - b*(b^-2 - u) = 1/b + u*b
        otherwise: 2*sqrt(u)

    Order the N nodes by decreasing b^-2 and let k(u) be the number with
    b^-2 > u, and S_inv[k], S_b[k] the sums of 1/b and of b over the
    first k of them.  Then the objective on the grid is

        (S_inv[k] + u*S_b[k] + (N - k)*2*sqrt(u)) / N - u,

    so two prefix sums and a binary search per u replace the dense
    (u_points + 1) x quad_points array: O(N log N + U log N) time and
    O(N + U) memory.  k(u) is counted with `searchsorted` on a sorted
    copy of b^-2, so the partition is the same b^-2 > u test the dense
    integrand makes, node by node, whether or not the computed nodes
    come out monotone in the quantile.
    """
    if u_points < 200:
        raise DomainError(f"u grid needs at least 200 points, got {u_points}")
    if quad_points < 1_000:
        raise DomainError(f"quadrature grid needs at least 1000 nodes, got {quad_points}")

    q = (np.arange(quad_points) + 0.5) / quad_points
    b = np.exp(scaled.nu + scaled.sigma * inv_norm_cdf(q))
    b_inv2 = b ** -2.0
    order = np.argsort(b_inv2, kind="stable")
    b_inv2_sorted = b_inv2[order]
    b_desc = b[order[::-1]]
    s_inv = np.concatenate(([0.0], np.cumsum(1.0 / b_desc)))
    s_b = np.concatenate(([0.0], np.cumsum(b_desc)))

    u = np.linspace(0.0, 1.0, u_points + 1)
    k = quad_points - np.searchsorted(b_inv2_sorted, u, side="right")
    objective = (s_inv[k] + u * s_b[k] + (quad_points - k) * 2.0 * np.sqrt(u)) / quad_points - u
    i = int(np.argmax(objective))
    return BruteForceResult(u_star=float(u[i]), objective=float(objective[i]),
                            u_step=float(u[1] - u[0]))


@dataclass(frozen=True)
class VerificationReport:
    """Composite cross-check used by the CLI mc-check command."""

    martingale: McEstimate
    martingale_deviation_se: float
    profit_mc: McEstimate
    profit_closed_form: float
    profit_deviation_se: float
    u_analytic: float
    u_brute_force: float
    u_step: float
    se_multiplier: float

    @property
    def passed(self) -> bool:
        return (self.martingale_deviation_se <= self.se_multiplier
                and self.profit_deviation_se <= self.se_multiplier
                and abs(self.u_brute_force - self.u_analytic) <= self.u_step)


def run_verification(scaled: ScaledParams, n: int, seed: int,
                     se_multiplier: float = DEFAULT_SE_MULTIPLIER) -> VerificationReport:
    """Martingale, profit and brute-force cross-checks in one pass."""
    sol = solve_normal_censor(scaled.mu, scaled.sigma)
    sample = sample_prices(scaled, n, seed)
    mart = mc_censored_mean(sample, sol.b_tilde)
    prof = mc_expected_profit(sample, sol.b_tilde)
    g = expected_profit(scaled.mu, scaled.sigma, sol.w)
    bf = brute_force_optimal_u(scaled)
    return VerificationReport(
        martingale=mart,
        martingale_deviation_se=mart.deviation_in_se(1.0),
        profit_mc=prof,
        profit_closed_form=g,
        profit_deviation_se=prof.deviation_in_se(g),
        u_analytic=sol.u,
        u_brute_force=bf.u_star,
        u_step=bf.u_step,
        se_multiplier=se_multiplier,
    )
