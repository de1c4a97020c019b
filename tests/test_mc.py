"""Monte Carlo layer: determinism, distributional sanity, and the
brute-force policy search agreeing with the closed-form quantity."""

import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from censor_lab import censor, cli, mc
from censor_lab.censor import solve_normal_censor
from censor_lab.errors import DomainError
from censor_lab.mc import (
    _BLOCK,
    McEstimate,
    PriceSample,
    _censored_estimates,
    _estimate,
    _price_blocks,
    _stream_estimates,
    brute_force_optimal_u,
    mc_censored_mean,
    mc_expected_profit,
    mc_martingale_check,
    run_verification,
    sample_prices,
)
from censor_lab.model import ScaledParams
from censor_lab.profit import expected_profit
from censor_lab.special import inv_norm_cdf

SEED = 20260823
SCALED = ScaledParams(mu=0.05, sigma=0.3)
N = 200_000


@pytest.fixture(scope="module")
def sample():
    return sample_prices(SCALED, N, SEED)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_prices(SCALED, 1000, SEED)
        b = sample_prices(SCALED, 1000, SEED)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_stream(self):
        a = sample_prices(SCALED, 1000, SEED)
        b = sample_prices(SCALED, 1000, SEED + 1)
        assert not np.array_equal(a.values, b.values)

    def test_mean_matches_lognormal(self, sample):
        # E[b] = exp(mu); CLT bound with a generous multiplier
        est = McEstimate(mean=float(sample.values.mean()),
                         std_error=float(sample.values.std(ddof=1)
                                         / math.sqrt(sample.n)),
                         n=sample.n)
        assert est.deviation_in_se(math.exp(SCALED.mu)) < 4.0

    def test_median_matches_lognormal(self, sample):
        assert float(np.median(sample.values)) == pytest.approx(
            math.exp(SCALED.nu), rel=5e-3)

    def test_positive_prices(self, sample):
        assert np.all(sample.values > 0.0)

    def test_degenerate_small_sigma(self):
        tight = sample_prices(ScaledParams(mu=0.05, sigma=1e-8), 1000, SEED)
        assert np.all(np.abs(tight.values - math.exp(0.05)) < 1e-6)

    def test_n_validation(self):
        with pytest.raises(DomainError):
            sample_prices(SCALED, 0, SEED)

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, None, True, "1"])
    def test_seed_validation(self, seed):
        for draw in (lambda: sample_prices(SCALED, 10, seed),
                     lambda: run_verification(SCALED, 10, seed),
                     lambda: mc_martingale_check(SCALED, 10_000, seed)):
            with pytest.raises(DomainError, match=f"seed .*got {seed!r}"):
                draw()

    @pytest.mark.parametrize("n", [1000.5, 20000.0, "20000", None, True])
    def test_n_type_validation(self, n):
        for draw in (lambda: sample_prices(SCALED, n, SEED),
                     lambda: run_verification(SCALED, n, SEED),
                     lambda: mc_martingale_check(SCALED, n, SEED)):
            with pytest.raises(DomainError, match=f"n .*got {n!r}"):
                draw()

    @pytest.mark.parametrize("seed", [0, 2**128 - 1, np.uint64(7)])
    def test_seed_range_ends_accepted(self, seed):
        assert sample_prices(SCALED, 10, seed).n == 10


class TestEstimators:
    def test_uncensored_limit(self, sample):
        est = mc_censored_mean(sample, math.inf)
        assert est.mean == pytest.approx(float(sample.values.mean()), rel=1e-14)

    def test_tiny_censor_saturates(self, sample):
        est = mc_censored_mean(sample, 1e-9)
        assert est.mean == pytest.approx(1e-9, rel=1e-12)
        assert est.std_error == 0.0

    def test_tiny_censor_saturates_profit(self, sample):
        b_tilde = 1e-9
        est = mc_expected_profit(sample, b_tilde)
        assert est.mean == 1.0 / b_tilde
        assert est.std_error == 0.0
        assert est.deviation_in_se(1.0 / b_tilde) == 0.0

    @pytest.mark.parametrize("c", [1e305, 1.7e308])
    def test_constant_sample_near_float_max(self, c):
        # under the suite's warning filters: a block sum of such values
        # overflows, and the block's mean is then taken from the values / k
        est = _estimate(np.full(_BLOCK + 5, c))
        assert est.mean == c and est.std_error == 0.0
        values = np.full(70_000, c)
        est = mc_censored_mean(PriceSample(values=values, seed=0, n=values.size), math.inf)
        assert est.mean == c and est.std_error == 0.0

    def test_censored_below_uncensored(self, sample):
        sol = solve_normal_censor(SCALED.mu, SCALED.sigma)
        assert mc_censored_mean(sample, sol.b_tilde).mean \
            < mc_censored_mean(sample, math.inf).mean

    def test_martingale_at_solved_censor(self):
        est = mc_martingale_check(SCALED, 100_000, SEED)
        assert est.deviation_in_se(1.0) < 4.0

    def test_martingale_fails_at_perturbed_censor(self, sample):
        # 5% too high a censor breaks E[min(b, beta)] = 1 decisively
        sol = solve_normal_censor(SCALED.mu, SCALED.sigma)
        est = mc_censored_mean(sample, sol.b_tilde * 1.05)
        assert est.deviation_in_se(1.0) > 10.0

    def test_profit_matches_closed_form(self, sample):
        sol = solve_normal_censor(SCALED.mu, SCALED.sigma)
        est = mc_expected_profit(sample, sol.b_tilde)
        assert est.deviation_in_se(expected_profit(SCALED.mu, SCALED.sigma)) < 4.0

    def test_minimum_sample_size_enforced(self):
        with pytest.raises(DomainError):
            mc_martingale_check(SCALED, 9_999, SEED)

    def test_beta_validation(self, sample):
        with pytest.raises(DomainError):
            mc_censored_mean(sample, 0.0)
        with pytest.raises(DomainError):
            mc_expected_profit(sample, -1.0)

    @pytest.mark.parametrize("sigma", [3.0, 4.0])
    def test_heavy_tail_standard_error(self, sigma):
        # uncensored 1/b: a few values lie thousands of means out, and
        # moments about any point but a block's own mean lose digits there
        for seed in range(10):
            sample = sample_prices(ScaledParams(mu=0.05, sigma=sigma), N, seed)
            x = (1.0 / sample.values).astype(np.longdouble)
            d = x - x.mean()
            se = float(np.sqrt(np.sum(d * d) / (N - 1) / N))
            assert mc_expected_profit(sample, math.inf).std_error \
                == pytest.approx(se, rel=1e-14, abs=0.0), seed

    def test_deviation_zero_se(self):
        exact = McEstimate(mean=1.0, std_error=0.0, n=10)
        assert exact.deviation_in_se(1.0) == 0.0
        assert exact.deviation_in_se(2.0) == math.inf


class TestBruteForce:
    def test_matches_analytic_quantity(self):
        sol = solve_normal_censor(SCALED.mu, SCALED.sigma)
        bf = brute_force_optimal_u(SCALED)
        assert abs(bf.u_star - sol.u) <= bf.u_step

    def test_matches_on_second_parameter_point(self):
        scaled = ScaledParams(mu=0.1, sigma=0.5)
        sol = solve_normal_censor(scaled.mu, scaled.sigma)
        bf = brute_force_optimal_u(scaled)
        assert abs(bf.u_star - sol.u) <= bf.u_step

    def test_near_one_at_vanishing_noise(self):
        # sigma -> 0: the censor price tends to 1 and u = b^-2 -> 1
        bf = brute_force_optimal_u(ScaledParams(mu=0.05, sigma=0.01))
        assert bf.u_star > 0.99

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            brute_force_optimal_u(SCALED, u_points=100)
        with pytest.raises(DomainError):
            brute_force_optimal_u(SCALED, quad_points=500)


def _dense_objective(scaled, u_points, quad_points):
    """The raw objective on the full (u_points + 1) x quad_points grid."""
    q = (np.arange(quad_points) + 0.5) / quad_points
    b = np.exp(scaled.nu + scaled.sigma * inv_norm_cdf(q))
    b_inv2 = b ** -2.0
    u = np.linspace(0.0, 1.0, u_points + 1)
    z = np.clip(b_inv2[None, :] - u[:, None], 0.0, None)
    return u, np.mean(2.0 * np.sqrt(z + u[:, None]) - b[None, :] * z, axis=1) - u


def _assert_matches_dense(scaled, u_points=400, quad_points=10_000):
    u, objective = _dense_objective(scaled, u_points, quad_points)
    i = int(np.argmax(objective))
    bf = brute_force_optimal_u(scaled, u_points=u_points, quad_points=quad_points)
    assert bf.u_star == u[i], (scaled, bf.u_star, u[i])
    assert bf.objective == pytest.approx(objective[i], rel=1e-12, abs=0.0), scaled
    assert bf.u_step == u[1] - u[0]


class TestBruteForceAgainstDenseGrid:
    def test_log_uniform_sample_small_grid(self):
        rng = np.random.default_rng(20260823)
        mus = np.exp(rng.uniform(math.log(1e-6), math.log(50.0), 200))
        sigmas = np.exp(rng.uniform(math.log(1e-3), math.log(5.0), 200))
        for mu, sigma in zip(mus, sigmas):
            _assert_matches_dense(ScaledParams(mu=float(mu), sigma=float(sigma)),
                                  u_points=200, quad_points=2000)

    @pytest.mark.parametrize("mu, sigma", [(0.05, 0.3), (0.02, 0.2), (0.1, 0.4),
                                           (0.05, 0.5), (0.2, 0.3)])
    def test_criterion_pairs_default_grid(self, mu, sigma):
        _assert_matches_dense(ScaledParams(mu=mu, sigma=sigma))

    def test_peak_memory_at_defaults(self):
        tracemalloc.start()
        try:
            brute_force_optimal_u(SCALED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_independent_of_censor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("brute force must not touch the censor equation")

        for module in (censor, mc):
            monkeypatch.setattr(module, "solve_normal_censor", refuse)
        monkeypatch.setattr(censor, "censor_F", refuse)
        bf = brute_force_optimal_u(SCALED)
        assert 0.0 < bf.u_star < 1.0


def _generator_uniforms(seed, n):
    """The uniforms of the stream as drawn through numpy's Generator API."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return (rng.integers(0, 1 << 53, size=n, dtype=np.int64) + 0.5) / float(1 << 53)


class TestInPlaceArithmetic:
    @pytest.mark.parametrize("seed", [1, 42, 12345])
    def test_sample_matches_plain_expression(self, seed):
        n = 100_000
        plain = np.exp(SCALED.nu + SCALED.sigma * inv_norm_cdf(_generator_uniforms(seed, n)))
        assert np.array_equal(sample_prices(SCALED, n, seed).values, plain)

    @pytest.mark.parametrize("seed", [1, 42, 12345])
    def test_profit_matches_plain_expression(self, seed):
        sample = sample_prices(SCALED, 100_000, seed)
        b_tilde = solve_normal_censor(SCALED.mu, SCALED.sigma).b_tilde
        assert mc_expected_profit(sample, b_tilde) \
            == _estimate(1.0 / np.minimum(sample.values, b_tilde))


class TestVerificationReport:
    def test_composite_passes(self):
        report = run_verification(SCALED, 100_000, SEED)
        assert report.martingale_deviation_se <= mc.DEFAULT_SE_MULTIPLIER
        assert report.profit_deviation_se <= mc.DEFAULT_SE_MULTIPLIER
        assert abs(report.u_brute_force - report.u_analytic) <= report.u_step
        assert report.passed

    def test_no_warning_at_large_variance(self):
        # sigma = 30: (1/m - mean)**2 and the brute force's b**-2 overflow to
        # inf.  From sigma ~ 35 prices underflow to 0: 1/m and 1/b are inf,
        # as are the brute force's sums, and a block holding inf has a nan
        # mean.  Any warning of these, from the library or from numpy's own
        # Python code, is an error here.
        reports = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for sigma in (30.0, 35.0, 100.0, 1000.0):
                reports[sigma] = run_verification(ScaledParams(mu=0.05, sigma=sigma),
                                                  100_000, SEED)
        for report in reports.values():
            assert report.profit_closed_form == math.inf
            assert math.isnan(report.profit_deviation_se)
            assert report.u_analytic == report.u_brute_force == 0.0
            assert not report.passed

        low = reports[30.0]
        assert 0.0 < low.martingale.mean < 1.0
        assert math.isfinite(low.profit_mc.mean)
        assert low.profit_mc.std_error == math.inf

        # some prices still above 0, their squared deviations below the
        # smallest subnormal
        mid = reports[35.0]
        assert 0.0 < mid.martingale.mean < 1e-200
        assert mid.martingale.std_error == 0.0
        assert math.isnan(mid.profit_mc.mean)

        # every price underflows to 0
        for sigma in (100.0, 1000.0):
            report = reports[sigma]
            assert report.martingale.mean == report.martingale.std_error == 0.0
            assert report.martingale_deviation_se == math.inf
            assert math.isnan(report.profit_mc.mean) and math.isnan(report.profit_mc.std_error)


def _stream_uniforms(monkeypatch, seed, n):
    """The uniforms the block stream feeds to the inverse CDF."""
    seen = []

    def record(p, out=None):
        seen.append(p.copy())
        return inv_norm_cdf(p, out=out)

    monkeypatch.setattr(mc, "inv_norm_cdf", record)
    for _ in _price_blocks(SCALED, n, seed):
        pass
    return np.concatenate(seen)


class TestRawStream:
    @pytest.mark.parametrize("seed, head", [
        (42, ["0x1.a3f102fa9ac52p-1", "0x1.839335b2e643ep-3", "0x1.bc3e09cfe109ep-1"]),
        (12345, ["0x1.4af258141dad4p-1", "0x1.8c6ccd7516eacp-1", "0x1.92a7c623ec684p-1"]),
    ])
    def test_first_uniforms_pinned(self, monkeypatch, seed, head):
        u = _stream_uniforms(monkeypatch, seed, 3)
        assert [float(x).hex() for x in u] == head

    @pytest.mark.parametrize("seed", [42, 12345])
    def test_matches_generator_integers(self, monkeypatch, seed):
        # the raw Philox words are stable (NEP 19); Generator.integers is
        # not, so this pins the two together on the numpy at hand
        n = 100_000
        u = _stream_uniforms(monkeypatch, seed, n)
        assert np.array_equal(u, _generator_uniforms(seed, n))
        assert 0.0 < u.min() and u.max() < 1.0


class TestBlockStream:
    @pytest.mark.parametrize("n", [1000, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17])
    def test_streamed_equals_materialized(self, n):
        report = run_verification(SCALED, n, SEED)
        sample = sample_prices(SCALED, n, SEED)
        b_tilde = solve_normal_censor(SCALED.mu, SCALED.sigma).b_tilde
        assert report.martingale == mc_censored_mean(sample, b_tilde)
        assert report.profit_mc == mc_expected_profit(sample, b_tilde)
        assert report.martingale == _estimate(np.minimum(sample.values, b_tilde))
        assert report.profit_mc == _estimate(1.0 / np.minimum(sample.values, b_tilde))

    def test_sample_blocks_tile_the_sample(self):
        n = 2 * _BLOCK + 5
        blocks = [b.copy() for b in _price_blocks(SCALED, n, SEED)]
        assert [b.size for b in blocks] == [_BLOCK, _BLOCK, 5]
        assert np.array_equal(np.concatenate(blocks), sample_prices(SCALED, n, SEED).values)

    def test_fully_censored_over_several_blocks(self):
        b_tilde = 1e-9
        mart, prof = _censored_estimates(_price_blocks(SCALED, 3 * _BLOCK + 17, SEED), b_tilde)
        assert mart.mean == b_tilde and mart.std_error == 0.0
        assert prof.mean == 1.0 / b_tilde and prof.std_error == 0.0

    def test_peak_memory_at_default_n(self):
        run_verification(SCALED, 1000, SEED)  # lazy set-up is not the stream's memory
        tracemalloc.start()
        try:
            run_verification(SCALED, 10**6, SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


@pytest.fixture
def workers(monkeypatch):
    """Pins the stream's worker count: workers(k)."""
    return lambda k: monkeypatch.setattr(mc, "_WORKERS", k)


class TestParallelStream:
    @pytest.mark.parametrize("n", [1, 1000, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                   3 * _BLOCK + 17, 10**6])
    @pytest.mark.parametrize("seed", [1, 42, 12345])
    def test_same_bits_for_any_worker_count(self, workers, n, seed):
        b_tilde = solve_normal_censor(SCALED.mu, SCALED.sigma).b_tilde
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many thread switches while the blocks run
        try:
            for k in (1, 2, 3, 5):
                workers(k)
                results.append((sample_prices(SCALED, n, seed).values,
                                _stream_estimates(SCALED, n, seed, b_tilde),
                                mc_martingale_check(SCALED, n, seed) if n >= 10_000 else None))
        finally:
            sys.setswitchinterval(interval)
        values, estimates, martingale = results[0]
        for other_values, other_estimates, other_martingale in results[1:]:
            assert np.array_equal(other_values, values)
            assert other_estimates == estimates
            assert other_martingale == martingale
        # one worker draws the blocks one after another, as the serial stream does
        assert np.array_equal(np.concatenate(list(_price_blocks(SCALED, n, seed))), values)
        assert estimates == _censored_estimates(_price_blocks(SCALED, n, seed), b_tilde)

    def test_fully_censored_zero_standard_error(self, workers):
        workers(3)
        b_tilde = 1e-9
        mart, prof = _stream_estimates(SCALED, 3 * _BLOCK + 17, SEED, b_tilde)
        assert mart.mean == b_tilde and mart.std_error == 0.0
        assert prof.mean == 1.0 / b_tilde and prof.std_error == 0.0

    def test_no_thread_outlives_the_call(self, workers):
        workers(3)
        before = threading.active_count()
        run_verification(SCALED, 3 * _BLOCK + 17, SEED)
        sample_prices(SCALED, 3 * _BLOCK + 17, SEED)
        assert threading.active_count() == before

    def test_worker_error_reaches_the_caller(self, workers, monkeypatch):
        workers(3)
        third_block_head = _generator_uniforms(SEED, 2 * _BLOCK + 1)[-1]

        def fail_on_third_block(p, out=None):
            if p[0] == third_block_head:
                raise DomainError("third block")
            return inv_norm_cdf(p, out=out)

        monkeypatch.setattr(mc, "inv_norm_cdf", fail_on_third_block)
        before = threading.active_count()
        with pytest.raises(DomainError, match="third block"):
            run_verification(SCALED, 6 * _BLOCK, SEED)
        with pytest.raises(DomainError, match="third block"):
            sample_prices(SCALED, 6 * _BLOCK, SEED)
        assert threading.active_count() == before

    def test_workers_keep_the_callers_errstate(self, workers):
        # sigma = 40 takes most prices below the normal range
        workers(3)
        wide = ScaledParams(mu=0.05, sigma=40.0)
        assert np.all(sample_prices(wide, 3 * _BLOCK, SEED).values >= 0.0)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            sample_prices(wide, 3 * _BLOCK, SEED)

    @pytest.mark.parametrize("seed", ["1", "42"])
    def test_mc_check_json_bytes(self, workers, capsys, seed):
        outputs = []
        for k in (1, 2):
            workers(k)
            code = cli.main(["mc-check", "--n", "1000000", "--seed", seed, "--json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["n"] == 10**6
        assert code in (cli.EXIT_OK, cli.EXIT_VERIFICATION)
