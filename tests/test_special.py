"""Normal primitives checked against independent oracles.

The CDF pair is compared with adaptive quadrature of the density; the
far tail is bracketed by the alternating asymptotic series
phi(x)/x * (1 - 1/x^2 + 3/x^4 - ...), whose partial sums enclose the
true value; the inverse CDF is verified by round-tripping.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from censor_lab.errors import DomainError
from censor_lab.special import (
    exp_or_inf,
    hazard,
    inv_norm_cdf,
    log_norm_cdf,
    log_norm_cdf_complement,
    norm_cdf,
    norm_cdf_complement,
    norm_pdf,
)


def tail_series_brackets(x: float):
    """Partial sums of phi(x)/x*(1 - 1/x^2 + 3/x^4 - 15/x^6 + 105/x^8).

    Consecutive partial sums of this alternating series bracket the
    true complement for x > 0, giving an oracle independent of erfc.
    """
    inv2 = 1.0 / (x * x)
    terms = [1.0, -inv2, 3.0 * inv2**2, -15.0 * inv2**3, 105.0 * inv2**4]
    lead = norm_pdf(x) / x
    partial, sums = 0.0, []
    for t in terms:
        partial += t
        sums.append(lead * partial)
    lo = min(sums[-1], sums[-2])
    hi = max(sums[-1], sums[-2])
    return lo, hi


def log_tail_series_brackets(x: float):
    """Log-space version; usable where phi(x) itself underflows."""
    inv2 = 1.0 / (x * x)
    terms = [1.0, -inv2, 3.0 * inv2**2, -15.0 * inv2**3, 105.0 * inv2**4]
    log_lead = -0.5 * x * x - math.log(x * math.sqrt(2.0 * math.pi))
    partial, sums = 0.0, []
    for t in terms:
        partial += t
        sums.append(log_lead + math.log(partial))
    return min(sums[-1], sums[-2]), max(sums[-1], sums[-2])


class TestExpOrInf:
    def test_scalar_and_array_agree_across_the_threshold(self):
        x = np.array([-math.inf, -1.0, 0.0, 708.9, 709.0, 709.5, 1e4, math.inf])
        values = exp_or_inf(x)
        assert values.tolist() == [exp_or_inf(float(v)) for v in x]
        assert values[3] == math.exp(708.9)
        assert values[4:].tolist() == [math.inf] * 4


class TestDensityAndCdf:
    def test_pdf_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_pdf_symmetry(self):
        for x in [0.3, 1.7, 2.547, 9.0]:
            assert norm_pdf(x) == norm_pdf(-x)

    def test_cdf_quadrature_oracle(self):
        for x in [-3.0, -1.0, -0.2, 0.0, 0.5, 1.0, 2.547, 4.0]:
            ref, err = quad(norm_pdf, -12.0, x)
            assert norm_cdf(x) == pytest.approx(ref, abs=max(1e-13, 10 * err))

    def test_cdf_known_value(self):
        assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)

    def test_cdf_limits(self):
        assert norm_cdf(math.inf) == 1.0
        assert norm_cdf(-math.inf) == 0.0
        assert norm_cdf_complement(math.inf) == 0.0
        assert norm_cdf_complement(-math.inf) == 1.0

    def test_complement_tail_series_oracle(self):
        for x in [8.0, 10.0, 14.0, 20.0, 30.0, 38.0]:
            lo, hi = tail_series_brackets(x)
            val = norm_cdf_complement(x)
            assert lo <= val <= hi
            assert val == pytest.approx(0.5 * (lo + hi), rel=1e-10)

    def test_complement_known_value(self):
        assert norm_cdf_complement(10.0) == pytest.approx(7.619853024160527e-24,
                                                          rel=1e-10)

    def test_array_dispatch(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(norm_cdf(x),
                                   [norm_cdf(v) for v in x], rtol=1e-15)
        np.testing.assert_allclose(norm_cdf_complement(x),
                                   [norm_cdf_complement(v) for v in x],
                                   rtol=1e-15)

    @given(st.floats(-38.0, 38.0))
    def test_complement_identity(self, x):
        assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-15)
        assert norm_cdf_complement(x) == pytest.approx(1.0 - norm_cdf(x),
                                                       abs=1e-15)

    @given(st.floats(-38.0, 38.0), st.floats(1e-6, 4.0))
    def test_cdf_monotone(self, x, step):
        assert norm_cdf(x + step) >= norm_cdf(x)


class TestLogCdf:
    def test_matches_log_of_value_moderate(self):
        for x in [-5.0, -1.0, 0.0, 1.0, 5.0, 7.9]:
            assert log_norm_cdf_complement(x) == pytest.approx(
                math.log(norm_cdf_complement(x)), rel=1e-13)
            assert log_norm_cdf(x) == pytest.approx(
                math.log(norm_cdf(x)), rel=1e-13)

    def test_far_tail_against_series(self):
        for x in [10.0, 20.0, 38.0, 60.0, 150.0]:
            log_lo, log_hi = log_tail_series_brackets(x)
            assert log_lo <= log_norm_cdf_complement(x) <= log_hi

    def test_right_tail_of_log_cdf(self):
        # log Phi(x) = log1p(-(1 - Phi(x))) < 0 however small the complement;
        # the log of a rounded Phi(x) is off by 7% at x = 8 and 0.0 from 8.3
        for x in [5.0, 7.0, 8.0, 8.3, 10.0, 20.0]:
            val = log_norm_cdf(x)
            assert val < 0.0
            assert val == pytest.approx(math.log1p(-norm_cdf_complement(x)),
                                        rel=1e-13)

    def test_beyond_double_underflow(self):
        # Phi_bar(60) ~ 1e-783 underflows as a double; the log must not
        val = log_norm_cdf_complement(60.0)
        assert -1810.0 < val < -1780.0


class TestHazard:
    def test_at_zero(self):
        assert hazard(0.0) == pytest.approx(2.0 * norm_pdf(0.0), rel=1e-15)

    def test_definition_moderate(self):
        for x in [-8.0, -2.0, 0.0, 1.5, 5.0, 8.0]:
            assert hazard(x) == pytest.approx(
                norm_pdf(x) / norm_cdf_complement(x), rel=1e-12)

    @given(st.floats(-37.0, 200.0))
    def test_exceeds_identity_line(self, x):
        assert hazard(x) > x

    def test_large_x_envelope(self):
        for x in [1.0, 2.0, 10.0, 50.0, 300.0]:
            assert x < hazard(x) <= x + 1.0 / x

    def test_deep_negative_tail(self):
        # hazard(x) ~ phi(x) as x -> -inf; must stay positive, not underflow to junk
        assert hazard(-40.0) == pytest.approx(norm_pdf(-40.0), rel=1e-10)
        assert hazard(-100.0) >= 0.0


class TestInverseCdf:
    def test_median(self):
        assert inv_norm_cdf(0.5) == 0.0

    def test_known_quantile(self):
        assert inv_norm_cdf(0.975) == pytest.approx(1.959963985, abs=1e-8)

    def test_mu_hat_boundary(self):
        # -Phi^{-1}(exp(-log 2)) == 0: drift log 2 is the sign boundary
        assert -inv_norm_cdf(math.exp(-math.log(2.0))) == 0.0

    @given(st.floats(1e-15, 1.0 - 1e-15))
    @settings(max_examples=300)
    def test_roundtrip_in_p_space(self, p):
        assert norm_cdf(inv_norm_cdf(p)) == pytest.approx(p, abs=1e-11)

    def test_roundtrip_deep_tail(self):
        for p in [1e-300, 1e-100, 1e-30, 1e-16]:
            x = inv_norm_cdf(p)
            assert norm_cdf(x) == pytest.approx(p, rel=1e-10)

    @given(st.floats(-8.0, 4.0))
    def test_roundtrip_in_x_space(self, x):
        # upper range capped at 4: beyond that, Phi(x) rounds so close to
        # 1 that the double grid itself moves the quantile by > 1e-9
        assert inv_norm_cdf(norm_cdf(x)) == pytest.approx(x, abs=1e-9)

    def test_rejects_out_of_domain(self):
        for p in [0.0, 1.0, -0.5, 1.5]:
            with pytest.raises(DomainError):
                inv_norm_cdf(p)

    def test_array_input(self):
        p = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(norm_cdf(inv_norm_cdf(p)), p, atol=1e-12)

    def test_array_error_names_first_bad_element(self):
        p = np.full((3, 1000), 0.25)
        p[1, 7] = 1.0
        p[2, 0] = 0.0
        with pytest.raises(DomainError) as info:
            inv_norm_cdf(p)
        msg = str(info.value)
        assert "got 1.0 at flat index 1007" in msg
        assert len(msg) < 100  # no repr of the whole array

    def test_out_array(self):
        p = np.array([0.1, 0.5, 0.9])
        out = np.empty(3)
        assert inv_norm_cdf(p, out=out) is out
        assert np.array_equal(out, inv_norm_cdf(p))
        with pytest.raises(DomainError, match=r"got nan at flat index 1"):
            inv_norm_cdf(np.array([0.5, np.nan]), out=np.empty(2))
