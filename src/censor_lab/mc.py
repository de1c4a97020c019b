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

The sample streams through fixed blocks of 2**16 values, each taken
from raw Philox words to uniforms, ndtri normals and prices in one
reused buffers; `run_verification` folds each block into the running
sums of both estimators, so it needs O(block) memory for any n.
Moments are taken about the first value, so a constant (fully censored)
sample has mean equal to it and standard error exactly 0.0.
`sample_prices` and the estimators on a materialized sample use the
same blocks and match the stream bit for bit.
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
# values per block of the sample stream: 512 KiB of doubles, cache-sized
_BLOCK = 1 << 16


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


def _price_blocks(scaled: ScaledParams, n: int, seed: int):
    """The n prices exp(nu + sigma * z) in blocks of _BLOCK, each a view of one reused buffer."""
    bitgen = np.random.Philox(key=seed)
    u, z = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        k = min(_BLOCK, n - start)
        # the top 53 bits of each raw word, as Generator.integers(0, 2**53) takes
        # them, shifted half a lattice cell: strictly inside (0, 1)
        raw = bitgen.random_raw(k)
        raw >>= 11
        p = np.add(raw.view(np.int64), 0.5, out=u[:k])
        del raw  # freed before the next block's words are drawn
        p *= 2.0 ** -53
        x = inv_norm_cdf(p, out=z[:k])
        x *= scaled.sigma
        x += scaled.nu
        yield np.exp(x, out=x)


def sample_prices(scaled: ScaledParams, n: int, seed: int) -> PriceSample:
    """Deterministic lognormal sample for the given seed."""
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    values = np.empty(n)
    for start, block in zip(range(0, n, _BLOCK), _price_blocks(scaled, n, seed)):
        values[start:start + block.size] = block
    return PriceSample(values=values, seed=seed, n=n)


def _blocks(x: np.ndarray):
    return (x[start:start + _BLOCK] for start in range(0, x.size, _BLOCK))


class _Moments:
    """Count, first value ref and the sums of d and d**2, d = x - ref, over blocks fed."""

    def __init__(self):
        self.n, self.ref, self.s1, self.s2 = 0, 0.0, 0.0, 0.0

    def add(self, d: np.ndarray) -> None:
        """Feed one block; d is scratch and is overwritten."""
        if self.n == 0:
            self.ref = float(d[0])
        d -= self.ref
        self.s1 += float(np.sum(d))
        self.s2 += float(np.sum(np.square(d, out=d)))
        self.n += d.size

    def estimate(self) -> McEstimate:
        n, s1 = self.n, self.s1
        var = max(self.s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 else 0.0
        return McEstimate(mean=self.ref + s1 / n, std_error=math.sqrt(var) / math.sqrt(n), n=n)


def _estimate(x: np.ndarray) -> McEstimate:
    """Mean and standard error of x; x is a scratch array and is overwritten."""
    acc = _Moments()
    for block in _blocks(x):
        acc.add(block)
    return acc.estimate()


def _censored_estimates(blocks, b_tilde: float, profit: bool = True):
    """Estimates of E[min(b, b_tilde)] and, if `profit`, E[1 / min(b, b_tilde)] over blocks of b."""
    mart, prof = _Moments(), _Moments()
    m, r = np.empty(_BLOCK), np.empty(_BLOCK)
    for b in blocks:
        mk = np.minimum(b, b_tilde, out=m[:b.size])
        if profit:
            prof.add(np.reciprocal(mk, out=r[:b.size]))
        mart.add(mk)
    return mart.estimate(), prof.estimate() if profit else None


def mc_censored_mean(sample: PriceSample, beta: float) -> McEstimate:
    """Estimate of E[min(b, beta)]; beta = +inf leaves the sample uncensored."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return _censored_estimates(_blocks(sample.values), beta, profit=False)[0]


def mc_expected_profit(sample: PriceSample, b_tilde: float) -> McEstimate:
    """Estimate of E[1 / min(b, b_tilde)]; b_tilde = +inf gives the myopic profit."""
    if not b_tilde > 0.0:
        raise DomainError(f"b_tilde must be positive, got {b_tilde}")
    return _censored_estimates(_blocks(sample.values), b_tilde)[1]


def mc_martingale_check(scaled: ScaledParams, n: int, seed: int) -> McEstimate:
    """E[min(b, b_tilde)] estimate; deviation from 1 is the headline check."""
    if n < 10_000:
        raise DomainError(f"n must be at least 10^4, got {n}")
    beta = censor_price(scaled.mu, scaled.sigma)
    return _censored_estimates(_price_blocks(scaled, n, seed), beta, profit=False)[0]


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
    """mc-check's cross-checks; passed within DEFAULT_SE_MULTIPLIER std errors and one u_step."""

    martingale: McEstimate
    martingale_deviation_se: float
    profit_mc: McEstimate
    profit_closed_form: float
    profit_deviation_se: float
    u_analytic: float
    u_brute_force: float
    u_step: float

    @property
    def passed(self) -> bool:
        return (self.martingale_deviation_se <= DEFAULT_SE_MULTIPLIER
                and self.profit_deviation_se <= DEFAULT_SE_MULTIPLIER
                and abs(self.u_brute_force - self.u_analytic) <= self.u_step)


def run_verification(scaled: ScaledParams, n: int, seed: int) -> VerificationReport:
    """Martingale, profit and brute-force cross-checks in one pass."""
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    sol = solve_normal_censor(scaled.mu, scaled.sigma)
    mart, prof = _censored_estimates(_price_blocks(scaled, n, seed), sol.b_tilde)
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
    )
