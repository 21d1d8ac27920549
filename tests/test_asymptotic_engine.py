"""Closed-form tail calculus: conditions, combination rules, conversions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import tailward as tw
from tailward.asymptotic_engine import model_condition
from tailward.oracle import sf_product_exact
from tailward.reports import FIXTURES, run_fixture
from tailward.errors import (
    AssumptionError,
    ConditionError,
    DivergentMoment,
    SpecError,
    Unsupported,
)
from tailward.quadrature import log_quad

W = tw.WeibullType
P = tw.PowerTail
E = tw.EdgePower


# ---------------------------------------------------------------------------
# check_condition
# ---------------------------------------------------------------------------

def test_power_vs_power_holds_with_witness_exponent():
    w = tw.check_condition("A", P(1, 3), P(1, 1))
    assert w.holds and w.chi == ("power", pytest.approx(2.0 / 3.0))


def test_power_vs_power_fails_for_equal_or_heavier_first():
    assert not tw.check_condition("B", P(1, 1), P(1, 2)).holds
    assert not tw.check_condition("A", P(1, 1), P(1, 1)).holds
    assert not tw.check_condition("A", P(5, 1), P(1, 1)).holds


def test_weibull_type_vs_power_holds():
    w = tw.check_condition("B", W(1, 0, 1, 2, 0), P(1, 2))
    assert w.holds and w.chi == ("power", 0.5)


def test_power_vs_weibull_type_fails():
    assert not tw.check_condition("A", P(1, 3), W(1, 0, 1, 2, 0)).holds


def test_unclassified_combinations_raise_unsupported():
    with pytest.raises(Unsupported):
        tw.check_condition("A", E(1, 0, 1), P(1, 1))
    with pytest.raises(Unsupported):
        tw.check_condition("A", W(1, 0, 1, 2, 0), W(1, 0, 2, 2, 0))
    with pytest.raises(Unsupported):
        tw.check_condition("C_alpha", E(1, 0, 1), alpha=1.0)


def test_moment_conditions_on_single_tails():
    assert tw.check_condition("D_alpha", P(1, 3), alpha=2.0).holds
    assert not tw.check_condition("D_alpha", P(1, 2), alpha=2.0).holds
    assert tw.check_condition("D_alpha", W(1, 5, 1, 0.5, 0), alpha=10.0).holds
    w = tw.check_condition("C_alpha", P(1, 4), alpha=2.0)
    assert w.holds and w.chi == ("power", pytest.approx(0.75))


@given(a1=st.floats(0.2, 10), a2=st.floats(0.2, 10))
@settings(max_examples=100, deadline=None)
def test_pair_witness_exponent_strictly_inside_unit_interval(a1, a2):
    w = tw.check_condition("A", P(1, a1), P(1, a2))
    if w.holds:
        assert a1 > a2
        assert 0.0 < w.chi[1] < 1.0


def _log_gap(f, g, u):
    """Closed-form ln f(u) - ln g(u) for an unshifted f against a power g."""
    if isinstance(f, P):
        return math.log(f.C / g.C) - (f.alpha - g.alpha) * math.log(u)
    return math.log(f.C / g.C) - f.K * u**f.alpha + (f.rho + g.alpha) * math.log(u)


def test_condition_implies_vanishing_log_tail_gap():
    # Whenever (A) holds, f(u) <= f(chi(u)) = o(g(u)), so the log survival
    # gap ln f(u) - ln g(u) must diverge to -inf. In closed form:
    #   power vs power:   ln(C_f/C_g) - (alpha_f - alpha_g) * ln u
    #   weibull vs power: ln(C_f/C_g) - K * u**alpha + (rho + alpha_g) * ln u
    # P(2,5) vs P(3,4.5) is certified with witness exponent 0.95 but its gap
    # diverges only like -0.5 * ln u: -7.31 at u = 1e6, so no fixed bound fits
    # all pairs; each level's gap is held to its pair's own closed form.
    pairs = [(P(1, 3), P(1, 1)), (W(1, 0, 1, 2, 0), P(1, 2)), (P(2, 5), P(3, 4.5))]
    levels = (1e2, 1e4, 1e6)
    for f, g in pairs:
        assert tw.check_condition("A", f, g).holds
        gaps = [tw.sf_eval(f, u) - tw.sf_eval(g, u) for u in levels]
        bounds = [_log_gap(f, g, u) for u in levels]
        assert gaps[0] > gaps[1] > gaps[2]
        assert bounds[0] > bounds[1] > bounds[2]
        for gap, bound in zip(gaps, bounds):
            assert gap == pytest.approx(bound, rel=0, abs=1e-9)


def test_model_condition_certificates():
    assert model_condition(tw.make_model("lognormal(0,1)"), "C_alpha", 7.0).holds
    assert model_condition(tw.make_model("constant(2)"), "D_alpha", 3.0).holds
    assert model_condition(tw.make_model("edge(2,1)"), "D_alpha", 1.0).holds
    assert not model_condition(tw.make_model("pareto(1,2)"), "D_alpha", 2.0).holds


# ---------------------------------------------------------------------------
# sum_mixed_tail
# ---------------------------------------------------------------------------

def test_sum_mixed_reference_fields():
    out = tw.sum_mixed_tail(W(1, 0, 1, 2, 0), E(1, 0, 1))
    assert out == W(0.5, -1.0, 1.0, 2.0, 0.0)


def test_sum_mixed_shift_carries_endpoint():
    out = tw.sum_mixed_tail(W(1, 0, 1, 2, 0), E(1, 1, 1))
    assert out.C == 0.5 and out.rho == -1.0 and out.shift == 1.0


def test_sum_mixed_second_reference():
    out = tw.sum_mixed_tail(W(1, 1, 0.5, 2, 0), E(1, 0, 2))
    assert out.C == pytest.approx(2.0, rel=1e-15)
    assert out.rho == pytest.approx(-1.0)
    assert out.K == 0.5 and out.alpha == 2.0


def test_sum_mixed_requires_decay_order_above_one():
    with pytest.raises(AssumptionError):
        tw.sum_mixed_tail(W(1, 0, 1, 1, 0), E(1, 0, 1))


def test_sum_mixed_requires_unshifted_input():
    with pytest.raises(AssumptionError):
        tw.sum_mixed_tail(W(1, 0, 1, 2, 1.0), E(1, 0, 1))


@given(
    c1=st.floats(0.1, 5),
    rho=st.floats(-3, 3),
    k=st.floats(0.2, 3),
    alpha=st.floats(1.1, 4),
    c2=st.floats(0.1, 5),
    mu=st.floats(0.2, 4),
    sigma=st.floats(-3, 3),
)
@settings(max_examples=100, deadline=None)
def test_sum_mixed_shift_reduction_property(c1, rho, k, alpha, c2, mu, sigma):
    # Combining against a shifted endpoint equals combining against the
    # zero-endpoint version and then relocating the shift field.
    x = W(c1, rho, k, alpha, 0.0)
    shifted = tw.sum_mixed_tail(x, E(c2, sigma, mu))
    base = tw.sum_mixed_tail(x, E(c2, 0.0, mu))
    assert shifted == W(base.C, base.rho, base.K, base.alpha, sigma)


# ---------------------------------------------------------------------------
# sum_dominant_tail
# ---------------------------------------------------------------------------

def test_sum_dominant_returns_heavier_tail():
    y = P(1, 1)
    assert tw.sum_dominant_tail(P(1, 3), y, True) is y
    assert tw.sum_dominant_tail(W(1, 0, 1, 2, 0), P(1, 2), True) == P(1, 2)


def test_sum_dominant_rejects_equal_power_orders():
    with pytest.raises(ConditionError):
        tw.sum_dominant_tail(P(1, 1), P(1, 1), True)


def test_sum_dominant_two_sided_uses_condition_b():
    assert tw.sum_dominant_tail(P(1, 3), P(1, 1), False) == P(1, 1)


# ---------------------------------------------------------------------------
# product_mixed_tail
# ---------------------------------------------------------------------------

def test_product_mixed_reference_fields():
    out = tw.product_mixed_tail(W(1, 0, 1, 2, 0), E(1, 2, 1))
    assert out.C == pytest.approx(4.0, rel=1e-14)
    assert out.rho == -2.0
    assert out.K == pytest.approx(0.25, rel=1e-15)
    assert out.alpha == 2.0 and out.shift == 0.0


def test_product_mixed_unit_endpoint_matches_sum_rate():
    # With endpoint 1 the product keeps the same decay rate as the sum rule.
    psum = tw.sum_mixed_tail(W(1, 0, 1, 2, 0), E(1, 0, 1))
    pprod = tw.product_mixed_tail(W(1, 0, 1, 2, 0), E(1, 1, 1))
    assert pprod.K == psum.K and pprod.alpha == psum.alpha
    assert pprod.C == pytest.approx(0.5, rel=1e-14)
    assert pprod.rho == -2.0


def test_product_mixed_allows_small_decay_order():
    out = tw.product_mixed_tail(W(1, 0, 1, 0.5, 0), E(1, 2, 1))
    assert out.alpha == 0.5 and out.K == pytest.approx(2 ** -0.5)


def test_product_mixed_requires_positive_endpoint():
    with pytest.raises(AssumptionError):
        tw.product_mixed_tail(W(1, 0, 1, 2, 0), E(1, 0, 1))


# ---------------------------------------------------------------------------
# product_power_tail
# ---------------------------------------------------------------------------

def test_product_power_lognormal_reference(lognormal01):
    out = tw.product_power_tail(lognormal01, P(1, 2))
    # C = E X**2 * 1 = exp(2m + 2s**2) with m = 0, s = 1: e**2.
    assert isinstance(out, P)
    assert out.alpha == 2.0
    assert out.C == pytest.approx(math.exp(2.0), rel=1e-12)


def test_product_power_constant_is_identity():
    out = tw.product_power_tail(tw.make_model("constant(1)"), P(3, 1.5))
    assert out == P(3.0, 1.5)


def test_product_power_rejects_failing_condition(pareto12):
    with pytest.raises(ConditionError):
        tw.product_power_tail(pareto12, P(1, 2))


def test_product_power_divergent_moment_surfaces():
    m = tw.make_model("pareto(1,2)")
    with pytest.raises((ConditionError, DivergentMoment)):
        tw.product_power_tail(m, P(1, 3))


# ---------------------------------------------------------------------------
# sum_tail / product_tail: which theorem applies to a pair of laws
# ---------------------------------------------------------------------------

def _classify(op, x_spec, y_spec):
    x, y = tw.make_model(x_spec), tw.make_model(y_spec)
    return (tw.sum_tail if op == "sum" else tw.product_tail)(x, y)


def _same_tail(got, want):
    assert type(got) is type(want)
    for k, v in want.__dict__.items():
        assert getattr(got, k) == pytest.approx(v, rel=1e-12), k


@pytest.mark.parametrize("op,x,y,claim,tail", [
    # Weibull-type with a bounded law, either order.
    ("sum", "weibull(1,2)", "edge(0,1)", "sum_mixed", W(0.5, -1.0, 1.0, 2.0, 0.0)),
    ("sum", "edge(0,1)", "weibull(1,2)", "sum_mixed", W(0.5, -1.0, 1.0, 2.0, 0.0)),
    ("product", "weibull(1,2)", "edge(2,1)", "product_mixed", W(4.0, -2.0, 0.25, 2.0, 0.0)),
    ("product", "edge(2,1)", "weibull(1,2)", "product_mixed", W(4.0, -2.0, 0.25, 2.0, 0.0)),
    # The dominating tail survives: condition (A) for a nonnegative other
    # operand, (B) for the real-valued normal, in either order.
    ("sum", "weibull(1,2)", "pareto(1,2)", "sum_dominant", P(1.0, 2.0)),
    ("sum", "pareto(1,2)", "weibull(1,2)", "sum_dominant", P(1.0, 2.0)),
    ("sum", "normal", "pareto(1,2)", "sum_dominant", P(1.0, 2.0)),
    ("sum", "pareto(1,2)", "normal", "sum_dominant", P(1.0, 2.0)),
    ("sum", "pareto(1,3)", "pareto(1,2)", "sum_dominant", P(1.0, 2.0)),
    ("sum", "pareto(1,2)", "pareto(1,3)", "sum_dominant", P(1.0, 2.0)),
    # A power factor against a non-power law: C scaled by E X^alpha = e^2.
    ("product", "lognormal(0,1)", "pareto(1,2)", "product_power", P(math.exp(2.0), 2.0)),
    ("product", "pareto(1,2)", "lognormal(0,1)", "product_power", P(math.exp(2.0), 2.0)),
    # Two powers: the heavier (alpha = 2) survives, scaled by the lighter
    # factor's second moment E Y^2 = 3 for Pareto(1, 3).
    ("product", "pareto(1,2)", "pareto(1,3)", "product_power", P(3.0, 2.0)),
    ("product", "pareto(1,3)", "pareto(1,2)", "product_power", P(3.0, 2.0)),
])
def test_classifier_picks_the_theorem(op, x, y, claim, tail):
    got, got_claim = _classify(op, x, y)
    assert got_claim == claim
    _same_tail(got, tail)


@pytest.mark.parametrize("op,x,y,error", [
    ("product", "pareto(1,2)", "pareto(1,2)", ConditionError),
    ("product", "normal", "pareto(1,2)", AssumptionError),
    ("product", "pareto(1,2)", "normal", AssumptionError),
    ("sum", "lognormal(0,1)", "lognormal(0,1)", Unsupported),
    ("product", "lognormal(0,1)", "lognormal(0,1)", Unsupported),
])
def test_classifier_rejects_pairs_outside_the_theorems(op, x, y, error):
    with pytest.raises(error):
        _classify(op, x, y)


@pytest.mark.parametrize("x,y", [("pareto(1,2)", "pareto(1,3)"), ("pareto(1,3)", "pareto(1,2)")])
def test_two_power_product_matches_the_exact_oracle(x, y):
    # For u >= 1, P(XY > u) = 3 u^-2 - 2 u^-3 exactly, so the oracle over the
    # classified tail 3 u^-2 is 1 - 2 / (3u), which tends to one.
    tail, _ = _classify("product", x, y)
    xm, ym = tw.make_model(x), tw.make_model(y)
    for u in (1e2, 1e4, 1e6):
        ratio = math.exp(sf_product_exact(xm, ym, u) - tw.sf_eval(tail, u))
        assert ratio == pytest.approx(1.0 - 2.0 / (3.0 * u), rel=1e-9)


def test_ratio_fixtures_take_claim_and_tail_from_the_engine():
    ratio_reports = [r for r in map(run_fixture, sorted(FIXTURES)) if r.kind == "ratio_table"]
    assert {r.claim for r in ratio_reports} == {
        "sum_mixed", "sum_dominant", "product_mixed", "product_power",
    }
    for r in ratio_reports:
        tail, claim = _classify(r.inputs["op"], r.inputs["x"], r.inputs["y"])
        assert r.claim == claim
        assert r.inputs["predicted"] == tw.tail_to_dict(tail)


# ---------------------------------------------------------------------------
# density_to_sf
# ---------------------------------------------------------------------------

def test_density_to_sf_power_case():
    assert tw.density_to_sf("power", C=2, alpha=3) == P(2, 3)


def test_density_to_sf_edge_case():
    assert tw.density_to_sf("edge", C=1, M=0, alpha=1) == E(1, 0, 1)


def test_density_to_sf_weibull_matches_gaussian_tail():
    out = tw.density_to_sf("weibull_type", C=1, beta=0, K=0.5, alpha=2)
    assert out == W(1.0, -1.0, 0.5, 2.0, 0.0)
    # Cross-check against the scaled erfc integral of the density at u=6.
    u = 6.0
    exact = math.sqrt(math.pi / 2.0) * special.erfc(u / math.sqrt(2.0))
    assert math.exp(tw.sf_eval(out, u)) == pytest.approx(exact, rel=0.03)


def test_density_to_sf_rejects_bad_parameters():
    with pytest.raises(SpecError):
        tw.density_to_sf("power", C=-1, alpha=2)
    with pytest.raises(SpecError):
        tw.density_to_sf("weibull_type", C=1, beta=0, K=0, alpha=2)
    with pytest.raises(SpecError):
        tw.density_to_sf("nope", C=1)


@pytest.mark.parametrize(
    "c,beta,k,alpha,u",
    [(1.0, 0.0, 0.5, 2.0, 8.0), (2.0, 1.0, 1.0, 1.5, 30.0)],
)
def test_density_to_sf_weibull_integrates_back(c, beta, k, alpha, u):
    # The quadrature of the density over (u, inf) must match the converted
    # survival form within 2% at tail depth K u^alpha >~ 30.
    tail = tw.density_to_sf("weibull_type", C=c, beta=beta, K=k, alpha=alpha)

    def log_density(x):
        return math.log(c) + beta * np.log(x) - k * x ** alpha

    num = log_quad(log_density, u, math.inf, rtol=1e-11)
    ratio = math.exp(num - tw.sf_eval(tail, u))
    assert 0.98 <= ratio <= 1.02
