"""Exact Brownian oracle: closed kernels, nesting, independent referees."""

import math

import numpy as np
import pytest
from scipy import special

import tailward as tw
from tailward.errors import DomainError, SpecError
from tailward.gp_extremes import bm_exact_oracle, eta_power_low_model, negate_model


def test_constant_slope_kernel():
    c = tw.make_model("constant(1.5)")
    assert bm_exact_oracle(c, None, 2.0) == pytest.approx(-6.0, rel=1e-14)


def test_negative_level_saturates_at_one():
    c = tw.make_model("constant(1.5)")
    assert bm_exact_oracle(c, None, -3.0) == 0.0


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_nonpositive_constant_slope_saturates_at_one(c):
    # A point mass is the kernel min(0, -2cv) at c, before any support check.
    assert bm_exact_oracle(tw.make_model(f"constant({c})"), None, 2.0) == 0.0


def test_uniform_slope_watson_value():
    eta = eta_power_low_model(0.0, 1.0, 1.0)  # uniform on [0, 1]
    got = math.exp(bm_exact_oracle(eta, None, 50.0))
    exact = (1 - math.exp(-100.0)) / 100.0
    assert got == pytest.approx(exact, rel=1e-9)
    assert got == pytest.approx(0.5 / 50.0, rel=0.02)


def test_power_edge_slope_incomplete_gamma_referee():
    # Independent closed form: for eta with CDF C x^mu on [0, C^(-1/mu)],
    # E e^(-2 eta u) = C Gamma(mu+1) (2u)^-mu P(mu, 2u W).
    for delta, C, mu, u in ((0.0, 1.0, 2.0, 30.0), (0.2, 2.0, 0.7, 25.0)):
        eta = eta_power_low_model(delta, C, mu)
        width = C ** (-1.0 / mu)
        s = 2.0 * u
        expected = (
            -s * delta
            + math.log(C)
            + math.lgamma(mu + 1.0)
            - mu * math.log(s)
            + math.log(special.gammainc(mu, s * width))
        )
        assert bm_exact_oracle(eta, None, u) == pytest.approx(expected, rel=1e-8)


def test_constant_offset_is_a_shift():
    eta = eta_power_low_model(0.0, 1.0, 1.0)
    a = bm_exact_oracle(eta, tw.make_model("constant(3)"), 47.0)
    b = bm_exact_oracle(eta, None, 50.0)
    assert a == b


def test_eta_power_low_model_law(rng):
    m = eta_power_low_model(0.3, 2.0, 2.0)
    width = 2.0 ** -0.5
    assert m.support == (0.3, 0.3 + width)
    assert np.exp(m.log_sf(0.3)) == pytest.approx(1.0)
    assert np.exp(m.log_sf(0.3 + width)) == 0.0
    mid = 0.3 + width / 2
    assert np.exp(m.log_sf(mid)) == pytest.approx(1.0 - 2.0 * (width / 2) ** 2, rel=1e-12)
    xs = np.asarray(m.sample(rng, 20000))
    assert np.all((xs >= 0.3) & (xs <= 0.3 + width))
    assert np.mean(xs > mid) == pytest.approx(float(np.exp(m.log_sf(mid))), abs=0.02)


@pytest.mark.parametrize("x", [5e-324, 1e-321])
def test_eta_power_low_density_just_above_its_edge_is_its_formula(x):
    # The formula once clamped x - delta to 1e-320.
    m = eta_power_low_model(0.0, 1.0, 0.5)
    assert m.log_density(x) == pytest.approx(math.log(0.5) - 0.5 * math.log(x), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("delta,C,mu,error,message", [
    # Checked as the slope tail EdgePower(C, -delta, mu) of a trend model.
    (math.nan, 1.0, 1.0, SpecError, "edge_power tail needs finite fields .* got sigma=nan"),
    (0.0, math.inf, 1.0, SpecError, "edge_power tail needs finite fields .* got C=inf"),
    (0.0, 1.0, math.nan, SpecError, "edge_power tail needs finite fields .* got mu=nan"),
    (0.0, 1.0, math.inf, SpecError, "edge_power tail needs finite fields .* got mu=inf"),
    (math.inf, 1.0, 1.0, SpecError, "edge_power tail needs finite fields .* got sigma=-inf"),
    (-0.5, 1.0, 1.0, SpecError, r"eta must be the edge tail EdgePower\(C, -delta, mu\) of -eta "
                                r"with delta >= 0"),
    # Width 1e300**-1000 = 0: a point mass at 0, whose exceedance is certain.
    (0.0, 1e300, 1e-3, DomainError, r"edge width C\*\*\(-1/mu\) for C=1e\+300, mu=0.001 "
                                     r"is not a positive finite double \(got 0.0\)"),
])
def test_eta_power_low_model_refuses_what_no_slope_law_has(delta, C, mu, error, message):
    # Each once built a law whose oracle gave log P = -inf.
    with pytest.raises(error, match=message):
        eta_power_low_model(delta, C, mu)


def test_negate_model_flips_law(rng):
    x = tw.make_model("pareto(1,2)")
    m = negate_model(x)
    assert m.support == (-math.inf, -1.0)
    assert np.exp(m.log_sf(-2.0)) == pytest.approx(1.0 - 0.25, rel=1e-12)
    assert float(m.log_density(-3.0)) == pytest.approx(
        float(tw.make_model("pareto(1,2)").log_density(3.0))
    )
    xs = np.asarray(m.sample(rng, 1000))
    assert np.all(xs <= -1.0)
    # The two tails swap: P(-X <= -1e40) = 1e-80 is X's own SF, a mass that
    # 1 - P(-X > -1e40) would round away.
    levels = np.array([-1e300, -1e40, -4.0, -1.0, 0.0])
    np.testing.assert_array_equal(m.log_cdf(levels), x.log_sf(-levels))
    np.testing.assert_array_equal(m.log_sf(levels), x.log_cdf(-levels))
    assert m.log_cdf(-1e40) == pytest.approx(-80.0 * math.log(10.0), rel=1e-15)
    assert negate_model(m).log_sf(1e40) == x.log_sf(1e40)


def test_offset_with_power_lower_tail_against_series():
    # At u far above the offset scale: P(S > u) ~ P(zeta < -u) + slope tail.
    eta = eta_power_low_model(0.0, 1.0, 1.0)
    zeta = negate_model(tw.make_model("pareto(1,0.5)"))
    u = 400.0
    got = math.exp(bm_exact_oracle(eta, zeta, u))
    leading = u ** -0.5
    assert got == pytest.approx(leading, rel=0.05)
    assert got > leading  # slope term adds mass


def _heavy_offset_oracle(u):
    # Uniform slope and zeta = -pareto(1, 0.5): the offset dominates, and
    # log P(sup > u) = log(u**-0.5 + slope term ~ 0.5/u) tends to -0.5 ln u.
    zeta = negate_model(tw.make_model("pareto(1,0.5)"))
    return bm_exact_oracle(eta_power_low_model(0.0, 1.0, 1.0), zeta, u)


def test_offset_mass_at_1e16_matches_a_high_precision_integral():
    # A 40-digit mpmath integral of the same mixture.  Taking P(zeta <= -u)
    # as 1 - P(zeta > -u) was 5e-9 nats off here.
    assert _heavy_offset_oracle(1e16) == pytest.approx(-18.4206807389523645, abs=1e-12)


@pytest.mark.parametrize("u", [
    1e32, 1e34,
    pytest.param(1e50, marks=pytest.mark.slow),
    pytest.param(1e300, marks=pytest.mark.slow),
])
def test_offset_mass_below_double_resolution_is_kept(u):
    # 1 - u**-0.5 rounds to 1 here, so the complement lost the offset mass
    # (0.105 nats at 1e32, ~37-40 nats beyond); the lower tail itself keeps it.
    assert _heavy_offset_oracle(u) == pytest.approx(-0.5 * math.log(u), rel=1e-14)


def test_requires_positive_slope_support():
    bad = negate_model(tw.make_model("pareto(1,2)"))  # negative support
    with pytest.raises(DomainError):
        bm_exact_oracle(bad, None, 2.0)


def test_nested_integral_matches_manual_composition():
    # zeta uniform on [1, 2] via the edge family: integrate the eta-average
    # over the offset by hand with a fine midpoint rule.
    eta = eta_power_low_model(0.1, 1.0, 1.0)
    zeta = tw.make_model("edge(2,1)")
    u = 5.0
    zs = 1.0 + (np.arange(20000) + 0.5) / 20000.0
    inner = [math.exp(bm_exact_oracle(eta, None, u + z)) for z in zs[::200]]
    coarse = float(np.mean(inner))
    got = math.exp(bm_exact_oracle(eta, zeta, u))
    assert got == pytest.approx(coarse, rel=5e-3)
