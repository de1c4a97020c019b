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
on, at most 3, and no more than the blocks.  Each block is
self-contained: it returns its count, mean and sum of squared
deviations about its own mean, and the blocks are merged in block order
by the pairwise update of Chan, Golub and LeVeque (The American
Statistician 37(3), 1983).  So the estimates are the same bits for any
worker count, a far outlier costs the other values no digits, and the
memory is O(workers x block), about 1.1 MB traced per worker and 3.3 MB
at the cap, for any n.  A constant (fully censored) sample has mean
equal to its value and standard error exactly 0.0.  `sample_prices`
draws each block into its own slice of the sample, and the estimators
on a materialized sample match the stream bit for bit.
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


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_draw(n, seed, n_min: int = 1) -> None:
    """DomainError unless n is an int of at least n_min and seed an int in [0, 2**128)."""
    if not (_is_int(n) and n >= n_min):
        raise DomainError(f"n must be an int of at least {n_min}, got {n!r}")
    if not (_is_int(seed) and 0 <= seed < 2**128):
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
    with np.errstate(over="ignore"):  # a price past the float range is inf
        return np.exp(x, out=x), p


def _fan_out(task, n: int) -> list:
    """task(start, k) for each block [start, start + k) of values 0 .. n - 1, in block order.

    The blocks are spread over min(_WORKERS, blocks) threads of a pool
    that lives for the call only; each task runs under the caller's
    numpy errstate, a context variable the threads do not inherit.
    """
    starts = range(0, n, _BLOCK)
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
    _check_draw(n, seed)
    values = np.empty(n)

    def fill(start, k):
        _block_prices(scaled, seed, start, k, out=values[start:start + k])

    _fan_out(fill, n)
    return PriceSample(values=values, seed=seed, n=n)


def _blocks(x: np.ndarray):
    return (x[start:start + _BLOCK] for start in range(0, x.size, _BLOCK))


def _mean(d: np.ndarray, k: int) -> float:
    """sum(d)/k, or the sum of d/k where the sum of d overflows."""
    total = float(np.sum(d))
    return total / k if math.isfinite(total) else float(np.sum(d / k))


def _stats(d: np.ndarray) -> tuple[int, float, float]:
    """Count, mean and M2, the sum of squared deviations about the mean, of one block.

    Two passes about the block's own mean, the deviations corrected by
    their own mean for the rounding of the first pass; d is scratch and
    is overwritten.  A constant block gets its value and M2 = 0.0 exactly,
    up to the float maximum.
    """
    k = d.size
    # a sum past the float range goes through d/k, and a square past it is
    # inf; a block that holds inf has a nan mean and M2
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _mean(d, k)
        d -= mean
        shift = _mean(d, k)
        d -= shift
        return k, mean + shift, float(np.sum(np.square(d, out=d)))


def _merge(stats) -> McEstimate:
    """The estimate over blocks' (k, mean, M2), combined in block order by Chan et al.'s update."""
    stats = iter(stats)
    n, mean, m2 = next(stats)
    for k, block_mean, block_m2 in stats:
        delta = block_mean - mean
        n += k
        mean += delta * k / n
        m2 += block_m2 + delta * delta * ((n - k) * k / n)
    var = m2 / (n - 1) if n > 1 else 0.0
    return McEstimate(mean=mean, std_error=math.sqrt(var) / math.sqrt(n), n=n)


def _estimate(x: np.ndarray) -> McEstimate:
    """Mean and standard error of x; x is a scratch array and is overwritten."""
    return _merge(_stats(block) for block in _blocks(x))


def _censored_stats(b, b_tilde, m, r):
    """_stats of min(b, b_tilde), into m, and of its reciprocal, into r."""
    m = np.minimum(b, b_tilde, out=m)
    # a price that underflowed to 0 or below 1/DBL_MAX has an infinite
    # reciprocal; it is taken before _stats overwrites m
    with np.errstate(divide="ignore", over="ignore"):
        r = np.reciprocal(m, out=r)
    return _stats(m), _stats(r)


def _merged(block_stats):
    """The _censored_estimates of the blocks' _censored_stats, merged in block order."""
    return tuple(_merge(stats) for stats in zip(*block_stats))


def _censored_estimates(blocks, b_tilde: float):
    """Estimates of E[min(b, b_tilde)] and E[1 / min(b, b_tilde)] over blocks of b."""
    m, r = np.empty(_BLOCK), np.empty(_BLOCK)
    return _merged([_censored_stats(b, b_tilde, m[:b.size], r[:b.size]) for b in blocks])


def _stream_estimates(scaled: ScaledParams, n: int, seed: int, b_tilde: float):
    """_censored_estimates over the n prices of the seed's stream, drawn by _fan_out."""
    def stats(start, k):
        b, scratch = _block_prices(scaled, seed, start, k)
        return _censored_stats(b, b_tilde, b, scratch)

    return _merged(_fan_out(stats, n))


def mc_censored_mean(sample: PriceSample, beta: float) -> McEstimate:
    """Estimate of E[min(b, beta)]; beta = +inf leaves the sample uncensored."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return _censored_estimates(_blocks(sample.values), beta)[0]


def mc_expected_profit(sample: PriceSample, b_tilde: float) -> McEstimate:
    """Estimate of E[1 / min(b, b_tilde)]; b_tilde = +inf gives the myopic profit."""
    if not b_tilde > 0.0:
        raise DomainError(f"b_tilde must be positive, got {b_tilde}")
    return _censored_estimates(_blocks(sample.values), b_tilde)[1]


def mc_martingale_check(scaled: ScaledParams, n: int, seed: int) -> McEstimate:
    """E[min(b, b_tilde)] estimate; deviation from 1 is the headline check."""
    _check_draw(n, seed, n_min=10_000)
    beta = censor_price(scaled.mu, scaled.sigma)
    return _stream_estimates(scaled, n, seed, beta)[0]


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
    # at large sigma b underflows: b**-2, 1/b and their sums are then inf
    with np.errstate(over="ignore", divide="ignore"):
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
    _check_draw(n, seed)
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
