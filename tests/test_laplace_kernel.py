"""Laplace-type integrals: numerics vs closed asymptotics."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from tailward import laplace_kernel
from tailward.errors import AssumptionError, DomainError, SpecError
from tailward.laplace_kernel import (
    LaplaceProblem,
    laplace_general,
    tail_integral_asymptotic,
    tail_integral_numeric,
)


# ---------------------------------------------------------------------------
# Truncated tail-mass integral
# ---------------------------------------------------------------------------

def test_exponential_case_has_closed_antiderivative():
    # alpha=1, beta=0, mu=1: int_0^d z e^(-(u+z)) dz = e^-u (1 - e^-d (1+d)).
    u, d = 2.0, 40.0
    expected = -u + math.log1p(-math.exp(-d) * (1 + d))
    got = tail_integral_numeric(u, 1.0, 0.0, 1.0, 1.0, d)
    assert got == pytest.approx(expected, rel=1e-10)


def test_small_u_limit_matches_direct_integral():
    # At u ~ 0 the integral approaches int_0^1 z e^(-z^2) dz = (1 - e^-1)/2.
    got = tail_integral_numeric(1e-12, 2.0, 0.0, 1.0, 1.0, 1.0)
    assert math.exp(got) == pytest.approx((1 - math.exp(-1)) / 2.0, rel=1e-6)


def test_underflowing_peak_keeps_the_direct_integral():
    # K u^alpha underflows at u = 1e-200, alpha = 2; the integrand must not
    # turn into 0 * inf there.
    got = tail_integral_numeric(1e-200, 2.0, 0.0, 1.0, 1.0, 1.0)
    assert got == pytest.approx(math.log((1 - math.exp(-1)) / 2.0), rel=1e-12)


def test_zero_length_interval_is_log_zero():
    assert tail_integral_numeric(2.0, 2.0, 0.0, 1.0, 1.0, 0.0) == -math.inf


def test_asymptotic_reference_value():
    # alpha=2, beta=0, mu=1, K=1, u=15.
    got = tail_integral_asymptotic(15.0, 2.0, 0.0, 1.0, 1.0)
    expected = -2 * math.log(2.0) + math.lgamma(2.0) - 2 * math.log(15.0) - 225.0
    assert got == pytest.approx(expected, rel=1e-14)


def test_asymptotic_coefficient_at_unit_gamma():
    # mu=1 gives Gamma(2)=1, so the coefficient is (K*alpha)^-2.
    got = tail_integral_asymptotic(10.0, 2.0, 0.0, 1.0, 3.0)
    expected = -2 * math.log(6.0) - 2 * math.log(10.0) - 3.0 * 100.0
    assert got == pytest.approx(expected, rel=1e-14)


def test_asymptotic_requires_decay_order_above_one():
    with pytest.raises(AssumptionError):
        tail_integral_asymptotic(10.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(AssumptionError):
        tail_integral_asymptotic(10.0, 0.5, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("beta", [-1.0, 0.0, 2.0])
@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_ratio_window_once_exponent_deep(alpha, beta, mu):
    # Once K u^alpha >= 150 the ratio sits within 5% and its deviation keeps
    # shrinking along a doubling ladder of u.
    u0 = 150.0 ** (1.0 / alpha)
    devs = []
    for factor in (2.0, 4.0, 8.0):
        u = u0 * factor
        ratio = math.exp(
            tail_integral_numeric(u, alpha, beta, mu, 1.0, 1.0)
            - tail_integral_asymptotic(u, alpha, beta, mu, 1.0)
        )
        devs.append(abs(ratio - 1.0))
    assert max(devs) < 0.05
    assert devs[0] >= devs[1] >= devs[2]


def _mp_reduced_log_tail_integral(u, alpha, beta, mu, K, delta):
    """log I(u) + K u^alpha by 50-digit quadrature, panels at the kernel scale."""
    with mpmath.workdps(50):
        u = mpmath.mpf(u)
        scale = 1 / (K * alpha * u ** (alpha - 1))
        points = [0] + [b * scale for b in (1, 10, 100) if b * scale < delta] + [delta]
        return mpmath.log(mpmath.quad(
            lambda z: z ** mu * (u + z) ** beta * mpmath.exp(-K * ((u + z) ** alpha - u ** alpha)),
            points,
        ))


@pytest.mark.parametrize("alpha,beta,mu", [(2.0, 0.0, 1.0), (1.5, -1.0, 0.5), (3.0, 2.0, 2.0)])
@pytest.mark.parametrize("u", [15.0, 1e3, 1e4, 1e5])
def test_deep_levels_match_mpmath(u, alpha, beta, mu):
    # Far out the peak K u^alpha swamps log I(u), so the remainder
    # log I(u) + K u^alpha is what is compared: exactly, from the float
    # result, against the reference, within the requested rtol 1e-10 plus
    # the rounding of log I(u) itself.
    got = tail_integral_numeric(u, alpha, beta, mu, 1.0, 1.0)
    with mpmath.workdps(50):
        reduced = mpmath.mpf(got) + mpmath.mpf(u) ** alpha
        err = float(abs(reduced - _mp_reduced_log_tail_integral(u, alpha, beta, mu, 1.0, 1.0)))
    assert err <= 1e-10 + np.spacing(abs(got))


def test_truncation_level_does_not_matter_at_depth():
    logs = [tail_integral_numeric(15.0, 2.0, 0.0, 1.0, 1.0, d) for d in (0.5, 1.0, 2.0)]
    for a in logs:
        for b in logs:
            assert math.exp(a - b) == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# Watson kernel
# ---------------------------------------------------------------------------

def _watson(u, mu, delta):
    """int_0^delta v**mu e**(-u v) dv as a boundary-minimum problem."""
    prob = LaplaceProblem(f=np.ones_like, S=lambda v: v, mu=mu + 1.0, a=delta)
    return laplace_general(prob, u, rtol=1e-11)


def test_watson_ratio_equals_incomplete_gamma():
    for u, mu, delta in ((100.0, 1.0, 1.0), (100.0, 1.5, 1.0), (7.0, 2.5, 3.0)):
        res = _watson(u, mu, delta)
        ratio = math.exp(res.numeric - res.asymptotic)
        assert ratio == pytest.approx(float(special.gammainc(mu + 1.0, u * delta)), abs=1e-6)


def test_watson_flat_case_is_exact():
    res = _watson(5.0, 0.0, math.inf)
    assert math.exp(res.numeric) == pytest.approx(0.2, rel=1e-10)
    assert math.exp(res.asymptotic) == pytest.approx(0.2, rel=1e-12)


@pytest.mark.parametrize("delta", [1.0, 2.0, math.inf])
def test_watson_deep_kernel_keeps_its_shoulder(delta):
    # At u*delta >~ 3000 a panel split only at (mu+1)/u and 10(mu+1)/u puts no
    # node on the e**-10 shoulder and drops 4.5e-5 of the mass at u = 1e4.
    u = 1e4
    exact = -math.expm1(-u * delta) / u
    assert math.exp(_watson(u, 0.0, delta).numeric) == pytest.approx(exact, rel=1e-12)


def test_watson_ratio_improves_with_depth():
    devs = []
    for u in (10.0, 100.0):
        res = _watson(u, 1.5, 1.0)
        devs.append(abs(math.exp(res.numeric - res.asymptotic) - 1.0))
    assert devs[0] > devs[1]


def test_watson_rejects_bad_parameters():
    with pytest.raises(SpecError):
        _watson(0.0, 1.0, 1.0)
    with pytest.raises(SpecError):
        _watson(10.0, -1.5, 1.0)
    with pytest.raises(SpecError):
        _watson(10.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# General boundary-minimum problems
# ---------------------------------------------------------------------------

def test_flat_problem_is_exact():
    prob = LaplaceProblem(
        f=lambda z: np.ones_like(z), S=lambda z: np.asarray(z, float), mu=1.0, a=50.0
    )
    res = laplace_general(prob, 4.0)
    assert math.exp(res.numeric) == pytest.approx(0.25, rel=1e-9)
    assert math.exp(res.asymptotic) == pytest.approx(0.25, rel=1e-12)


def test_product_substitution_problem_ratio():
    sigma, K, alpha, beta = 2.0, 1.0, 2.0, -3.0
    prob = LaplaceProblem(
        f=lambda z: (sigma - z) ** beta,
        S=lambda z: K * (sigma - z) ** (-alpha),
        mu=2.0,
        a=1.0,
    )
    res = laplace_general(prob, 400.0)
    assert math.exp(res.numeric - res.asymptotic) == pytest.approx(1.0, abs=0.02)
    # Closed form assembled by hand: 2 u^-2 e^(-u/4).
    assert res.asymptotic == pytest.approx(
        math.log(2.0) - 2 * math.log(400.0) - 100.0, rel=1e-6
    )


def test_constant_shift_of_minimum_scales_both_sides():
    base = LaplaceProblem(
        f=lambda z: np.ones_like(z), S=lambda z: np.asarray(z, float), mu=1.5, a=10.0
    )
    shifted = LaplaceProblem(
        f=lambda z: np.ones_like(z), S=lambda z: np.asarray(z, float) + 1.0,
        mu=1.5, a=10.0,
    )
    u = 6.0
    r0 = laplace_general(base, u)
    r1 = laplace_general(shifted, u)
    assert r1.numeric - r0.numeric == pytest.approx(-u, rel=1e-9)
    assert r1.asymptotic - r0.asymptotic == pytest.approx(-u, rel=1e-12)
    assert r1.numeric - r1.asymptotic == pytest.approx(r0.numeric - r0.asymptotic, abs=1e-8)


def test_decreasing_phase_is_rejected():
    prob = LaplaceProblem(
        f=lambda z: np.ones_like(z), S=lambda z: -np.asarray(z, float), mu=1.0, a=1.0
    )
    with pytest.raises(AssumptionError):
        laplace_general(prob, 3.0)


def test_vanishing_weight_at_zero_is_rejected():
    prob = LaplaceProblem(
        f=lambda z: np.asarray(z, float), S=lambda z: np.asarray(z, float), mu=1.0, a=1.0
    )
    with pytest.raises(AssumptionError):
        laplace_general(prob, 3.0)


def test_negative_weight_is_rejected_before_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrated before checking f(0)")

    monkeypatch.setattr(laplace_kernel, "log_quad", no_quadrature)
    prob = LaplaceProblem(
        f=lambda z: -np.ones_like(z), S=lambda z: np.asarray(z, float), mu=1.0, a=1.0
    )
    with pytest.raises(AssumptionError, match=r"f\(0\) > 0"):
        laplace_general(prob, 3.0)


def test_cross_module_consistency_with_tail_integral():
    # The boundary-minimum route and the direct truncated-kernel route
    # evaluate the same integral after the substitution S = K (sigma-z)^-a.
    sigma, K, alpha, beta, mu = 2.0, 1.0, 2.0, -3.0, 1.0
    u = 400.0
    prob = LaplaceProblem(
        f=lambda z: (sigma - z) ** beta,
        S=lambda z: K * (sigma - z) ** (-alpha),
        mu=mu + 1.0,
        a=1.0,
    )
    direct = laplace_general(prob, u).numeric

    def log_integrand(z):
        return (
            mu * np.log(np.maximum(z, 1e-320))
            + beta * np.log(sigma - z)
            - u * K * (sigma - z) ** (-alpha)
        )

    from tailward.quadrature import log_quad

    again = log_quad(log_integrand, 0.0, 1.0, rtol=1e-10)
    assert direct == pytest.approx(again, abs=1e-8)


def test_overflowing_peak_is_a_domain_error():
    # K u^alpha = 1e400 is not a double: both forms name the level instead
    # of a bare OverflowError from the float power.
    with pytest.raises(DomainError, match="u=1e\\+200"):
        tail_integral_numeric(1e200, 2.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="u=1e\\+200"):
        tail_integral_asymptotic(1e200, 2.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        tail_integral_asymptotic(1e150, 2.0, 0.0, 1.0, 1e20)
