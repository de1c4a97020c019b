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
from raw Philox words to uniforms, ndtri normals and prices.  Philox is
counter-based, so each block starts its own generator at its offset of
the stream, and the blocks are spread over a pool of threads (numpy and
scipy release the GIL in the ufuncs), one per CPU this process may run
on, at most 3, and no more than the blocks.  `run_verification` folds
block 0 first, then each other block returns its sums about the first
values, and the sums are added in block order: the estimates are the
same bits for any worker count, and the memory is O(workers x block),
about 1.1 MB traced per worker and 3.3 MB at the cap, for any n.
Moments are taken about the first value, so a constant (fully censored)
sample has mean equal to it and standard error exactly 0.0.
`sample_prices` draws each block into its own slice of the sample, and
the estimators on a materialized sample match the stream bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity masks
        return os.cpu_count() or 1


# threads a stream's blocks are spread over: the CPUs this process may run
# on, at most 3, as each holds two blocks (1.1 MB) in flight and the stream
# stays under 4 MB traced
_WORKERS = min(_cpus(), 3)


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


def _check_seed(seed) -> None:
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and 0 <= seed < 2**128):
        raise DomainError(f"seed must be an int in [0, 2**128), got {seed!r}")


def _block_prices(scaled: ScaledParams, seed: int, start: int, k: int, out=None):
    """Prices of the stream's values start .. start + k - 1, into `out` if given.

    Returns the prices and a scratch array of k doubles the caller may overwrite.
    """
    # Philox draws 4 words per counter step, so from a multiple of 4 this
    # generator continues the stream drawn from counter 0
    raw = np.random.Philox(key=seed, counter=start // 4).random_raw(k)
    # the top 53 bits of each raw word, as Generator.integers(0, 2**53) takes
    # them, shifted half a lattice cell: strictly inside (0, 1)
    raw >>= 11
    p = np.add(raw.view(np.int64), 0.5, out=np.empty(k))
    p *= 2.0 ** -53
    # the normals overwrite the words: an in-place int64 -> float64 add would
    # have numpy copy the overlapping operand
    x = inv_norm_cdf(p, out=raw.view(np.float64) if out is None else out)
    x *= scaled.sigma
    x += scaled.nu
    return np.exp(x, out=x), p


def _fan_out(task, n: int, first: int = 0) -> list:
    """task(start, k) for each block [start, start + k) of values first .. n - 1, in block order.

    The blocks are spread over min(_WORKERS, blocks) threads of a pool
    that lives for the call only; each task runs under the caller's
    numpy errstate, a context variable the threads do not inherit.
    """
    starts = range(first, n, _BLOCK)
    sizes = [min(_BLOCK, n - start) for start in starts]
    workers = min(_WORKERS, len(starts))
    if workers <= 1:
        return list(map(task, starts, sizes))
    err = np.geterr()

    def run(start, k):
        with np.errstate(**err):
            return task(start, k)

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(run, starts, sizes))


def _price_blocks(scaled: ScaledParams, n: int, seed: int):
    """The n prices exp(nu + sigma * z) in blocks of _BLOCK, drawn one after another."""
    for start in range(0, n, _BLOCK):
        yield _block_prices(scaled, seed, start, min(_BLOCK, n - start))[0]


def sample_prices(scaled: ScaledParams, n: int, seed: int) -> PriceSample:
    """Deterministic lognormal sample for the given seed."""
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    _check_seed(seed)
    values = np.empty(n)

    def fill(start, k):
        _block_prices(scaled, seed, start, k, out=values[start:start + k])

    _fan_out(fill, n)
    return PriceSample(values=values, seed=seed, n=n)


def _blocks(x: np.ndarray):
    return (x[start:start + _BLOCK] for start in range(0, x.size, _BLOCK))


def _sums(d: np.ndarray, ref: float) -> tuple[float, float]:
    """The sums of d - ref and (d - ref)**2; d is scratch and is overwritten."""
    d -= ref
    return float(np.sum(d)), float(np.sum(np.square(d, out=d)))


class _Moments:
    """Count, first value ref and the sums of d and d**2, d = x - ref, over blocks fed."""

    def __init__(self):
        self.n, self.ref, self.s1, self.s2 = 0, 0.0, 0.0, 0.0

    def add(self, d: np.ndarray) -> None:
        """Feed one block; d is scratch and is overwritten."""
        if self.n == 0:
            self.ref = float(d[0])
        self.add_sums(d.size, *_sums(d, self.ref))

    def add_sums(self, k: int, s1: float, s2: float) -> None:
        """Feed the _sums of one block of k values about ref."""
        self.s1 += s1
        self.s2 += s2
        self.n += k

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


def _censored(b, b_tilde, m, r, profit):
    """min(b, b_tilde) into m and, if `profit`, its reciprocal into r."""
    m = np.minimum(b, b_tilde, out=m)
    return (m, np.reciprocal(m, out=r)) if profit else (m,)


def _censored_estimates(blocks, b_tilde: float, profit: bool = True):
    """Estimates of E[min(b, b_tilde)] and, if `profit`, E[1 / min(b, b_tilde)] over blocks of b."""
    accs = [_Moments() for _ in range(1 + profit)]
    m, r = np.empty(_BLOCK), np.empty(_BLOCK)
    for b in blocks:
        for acc, d in zip(accs, _censored(b, b_tilde, m[:b.size], r[:b.size], profit)):
            acc.add(d)
    return accs[0].estimate(), accs[1].estimate() if profit else None


def _stream_estimates(scaled: ScaledParams, n: int, seed: int, b_tilde: float,
                      profit: bool = True):
    """_censored_estimates over the n prices of the seed's stream, drawn by _fan_out."""
    accs = [_Moments() for _ in range(1 + profit)]

    def censored(start, k):
        b, scratch = _block_prices(scaled, seed, start, k)
        return _censored(b, b_tilde, b, scratch, profit)

    def sums(start, k):
        return [(k, *_sums(d, acc.ref)) for acc, d in zip(accs, censored(start, k))]

    # block 0 first: its first values are the reference of every block's sums
    for acc, d in zip(accs, censored(0, min(n, _BLOCK))):
        acc.add(d)
    del d  # block 0's scratch, not held through the fan-out
    for block in _fan_out(sums, n, first=_BLOCK):
        for acc, block_sums in zip(accs, block):
            acc.add_sums(*block_sums)
    return accs[0].estimate(), accs[1].estimate() if profit else None


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
    _check_seed(seed)
    beta = censor_price(scaled.mu, scaled.sigma)
    return _stream_estimates(scaled, n, seed, beta, profit=False)[0]


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
    _check_seed(seed)
    sol = solve_normal_censor(scaled.mu, scaled.sigma)
    mart, prof = _stream_estimates(scaled, n, seed, sol.b_tilde)
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
