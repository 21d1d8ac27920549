"""Tail families, the distribution registry and moment computation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import tailward as tw
from tailward import gp_extremes as gp
from tailward.errors import DivergentMoment, DomainError, SpecError
from tailward.tail_model import moment_by_quadrature

ALL_SPECS = [
    "weibull(1,2)",
    "weibull(0.5,3)",
    "pareto(1,2)",
    "pareto(2,1.5)",
    "edge(0,1)",
    "edge(2,1)",
    "edge(1,0.5)",
    "lognormal(0,1)",
    "normal()",
    "constant(1.5)",
]


# ---------------------------------------------------------------------------
# sf_eval
# ---------------------------------------------------------------------------

def test_sf_eval_weibull_type_log_value():
    assert tw.sf_eval(tw.WeibullType(1, 0, 1, 2, 0), 3.0) == pytest.approx(-9.0, abs=1e-14)


def test_sf_eval_power():
    got = tw.sf_eval(tw.PowerTail(2, 3), 10.0)
    assert got == pytest.approx(math.log(2) - 3 * math.log(10), rel=1e-15)


def test_sf_eval_edge():
    assert tw.sf_eval(tw.EdgePower(1, 2, 1), 1.5) == pytest.approx(math.log(0.5), rel=1e-15)


@pytest.mark.parametrize(
    "tail,u",
    [
        (tw.PowerTail(1, 1), 0.0),
        (tw.PowerTail(1, 1), -3.0),
        (tw.WeibullType(1, 0, 1, 2, 1.0), 1.0),
        (tw.WeibullType(1, 0, 1, 2, 1.0), 0.5),
        (tw.EdgePower(1, 2, 1), 2.0),
        (tw.EdgePower(1, 2, 1), 5.0),
        (tw.WeibullType(1, 0, 1, 2, 0), 1e200),  # (1e200)**2 overflows a float
    ],
)
def test_sf_eval_domain_errors(tail, u):
    with pytest.raises(DomainError):
        tw.sf_eval(tail, u)


@given(
    c=st.floats(0.1, 10),
    rho=st.floats(-3, 3),
    k=st.floats(0.1, 5),
    alpha=st.floats(0.3, 4),
    u=st.floats(0.5, 50),
)
@settings(max_examples=100, deadline=None)
def test_sf_eval_weibull_matches_direct_formula(c, rho, k, alpha, u):
    tail = tw.WeibullType(c, rho, k, alpha, 0.0)
    expected = math.log(c) + rho * math.log(u) - k * u ** alpha
    assert tw.sf_eval(tail, u) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_invalid_tail_parameters_raise():
    with pytest.raises(SpecError):
        tw.PowerTail(-1, 2)
    with pytest.raises(SpecError):
        tw.WeibullType(1, 0, 0, 2, 0)
    with pytest.raises(SpecError):
        tw.EdgePower(1, 0, 0)


# ---------------------------------------------------------------------------
# power_substitute
# ---------------------------------------------------------------------------

@given(p=st.floats(0.2, 3), u=st.floats(1.5, 20))
@settings(max_examples=50, deadline=None)
def test_power_substitute_evaluates_at_rescaled_argument(p, u):
    tail = tw.WeibullType(2.0, -1.0, 0.5, 1.5, 0.0)
    direct = tw.sf_eval(tail, u ** p)
    rescaled = tw.sf_eval(tw.power_substitute(tail, p), u)
    assert rescaled == pytest.approx(direct, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# Registry models
# ---------------------------------------------------------------------------

def test_weibull_sf_definition():
    m = tw.make_model("weibull(1,2)")
    assert np.exp(m.log_sf(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_edge_sf_and_sampler_shape(rng):
    m = tw.make_model("edge(0,1)")
    assert np.exp(m.log_sf(-0.25)) == pytest.approx(0.25, rel=1e-15)
    xs = m.sample(rng, 2000)
    assert np.all(xs <= 0.0) and np.all(xs >= -1.0)


def test_normal_declared_tail_mills_ratio():
    m = tw.make_model("normal()")
    u = 5.0
    declared = math.exp(tw.sf_eval(m.tail, u))
    expected_decl = (2 * math.pi) ** -0.5 / u * math.exp(-u * u / 2)
    assert declared == pytest.approx(expected_decl, rel=1e-12)
    exact = 0.5 * special.erfc(u / math.sqrt(2.0))
    assert 0.96 <= exact / declared <= 1.0


def test_make_model_spec_forms_equivalent():
    a = tw.make_model("weibull(1,2)")
    b = tw.make_model("weibull:K=1,alpha=2")
    c = tw.make_model({"family": "weibull", "params": {"K": 1, "alpha": 2}})
    assert a.params == b.params == c.params


@pytest.mark.parametrize(
    "spec",
    ["nosuch(1)", "edge(0,-1)", "weibull(0,1)", "pareto(1)", "weibull:bogus=3"],
)
def test_make_model_rejects_bad_specs(spec):
    with pytest.raises(SpecError):
        tw.make_model(spec)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_support_endpoints(spec):
    m = tw.make_model(spec)
    lo, hi = m.support
    if math.isfinite(lo):
        inside = lo + 1e-13 * max(1.0, abs(lo)) if lo != hi else lo - 1e-9
        assert np.exp(m.log_sf(inside if lo != hi else lo - 1e-9)) == pytest.approx(1.0, abs=1e-12)
    else:
        assert np.exp(m.log_sf(-1e12)) == pytest.approx(1.0, abs=1e-12)
    if math.isfinite(hi):
        assert np.exp(m.log_sf(hi)) == pytest.approx(0.0, abs=1e-12)
    else:
        assert np.exp(m.log_sf(1e12)) == pytest.approx(0.0, abs=1e-12)


SUPPORT_RULE_LAWS = {spec: tw.make_model(spec) for spec in ALL_SPECS}
SUPPORT_RULE_LAWS.update({
    "eta_power_low(0.3,2,1.5)": gp.eta_power_low_model(0.3, 2.0, 1.5),
    "neg pareto(1,2)": gp.negate_model(tw.make_model("pareto(1,2)")),
    "neg normal": gp.negate_model(tw.make_model("normal")),
})


@pytest.mark.parametrize("name", list(SUPPORT_RULE_LAWS))
def test_every_law_follows_the_support_rule(name):
    # log SF is 0 at or below lo and -inf at or above hi; log density is
    # -inf outside (lo, hi); scalars give floats, arrays keep their shape,
    # and nothing warns, not even at +-1e300.
    m = SUPPORT_RULE_LAWS[name]
    lo, hi = m.support
    points = [-1e300, 1e300]
    for end in (e for e in (lo, hi) if math.isfinite(e)):
        points += [end - 0.25, np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf), end + 0.25]
    points = np.array(points)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sf = [m.log_sf(float(x)) for x in points]
        dens = [m.log_density(float(x)) for x in points] if m.log_density else []
        assert m.log_sf(points[:, None]).shape == (len(points), 1)
        if m.log_density:
            assert m.log_density(points[:, None]).shape == (len(points), 1)
    assert all(type(v) is float for v in sf + dens), name
    for x, v in zip(points, sf):
        if x >= hi:
            assert v == -math.inf, (name, x, v)
        elif x <= lo:
            assert v == 0.0, (name, x, v)
        else:
            assert v <= 0.0, (name, x, v)
    for x, v in zip(points, dens):
        if x <= lo or x >= hi:
            assert v == -math.inf, (name, x, v)
        else:
            assert not math.isnan(v), (name, x, v)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_sf_nonincreasing_and_log_consistent(spec):
    m = tw.make_model(spec)
    lo, hi = m.support
    a = lo if math.isfinite(lo) else -10.0
    b = hi if math.isfinite(hi) else max(a + 1.0, 20.0)
    grid = np.linspace(a, b, 101)
    sf = np.exp(m.log_sf(grid))
    assert np.all(np.diff(sf) <= 1e-12)
    log_sf = m.log_sf(grid)
    mask = sf > 1e-300
    assert np.allclose(np.exp(log_sf[mask]), sf[mask], rtol=1e-12)


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s != "constant(1.5)"])
def test_empirical_sf_matches_within_three_binomial_se(spec, rng):
    m = tw.make_model(spec)
    n = 10 ** 5
    xs = np.asarray(m.sample(rng, n))
    lo, hi = m.support
    a = lo if math.isfinite(lo) else float(np.quantile(xs, 0.01))
    b = hi if math.isfinite(hi) else float(np.quantile(xs, 0.99))
    for q in np.linspace(0.15, 0.85, 5):
        u = a + q * (b - a)
        p = float(np.exp(m.log_sf(u)))
        emp = float(np.mean(xs > u))
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(emp - p) <= 3.0 * se + 1e-12, (spec, u, emp, p)


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s != "constant(1.5)"])
def test_sampler_kolmogorov_smirnov(spec, rng):
    m = tw.make_model(spec)
    xs = np.asarray(m.sample(rng, 10 ** 5))
    res = stats.kstest(xs, lambda v: 1.0 - np.exp(m.log_sf(v)))
    critical_1pct = 1.6276 / math.sqrt(len(xs))
    assert res.statistic < critical_1pct, (spec, res.statistic)


@pytest.mark.parametrize(
    "spec,u_star",
    [
        ("weibull(1,2)", 1.0),
        ("pareto(1,2)", 1.1),
        ("edge(2,1)", 1.5),
        ("normal()", 11.0),
    ],
)
def test_declared_tail_ratio_enters_and_stays_near_one(spec, u_star):
    # Beyond a model-specific u*, sf / declared tail stays within 1% and its
    # deviation from 1 keeps shrinking.
    m = tw.make_model(spec)
    hi = m.support[1]
    grid = np.linspace(u_star, min(hi - 1e-9, u_star + 12.0) if math.isfinite(hi) else u_star + 12.0, 7)
    devs = []
    for u in grid:
        ratio = math.exp(float(m.log_sf(u)) - tw.sf_eval(m.tail, float(u)))
        assert 0.99 <= ratio <= 1.01, (spec, u, ratio)
        devs.append(abs(ratio - 1.0))
    assert all(a >= b - 1e-12 for a, b in zip(devs, devs[1:])), (spec, devs)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def test_lognormal_moment_closed_form_and_quadrature(lognormal01):
    assert tw.moment(lognormal01, 2.0) == pytest.approx(math.exp(2.0), rel=1e-12)
    assert moment_by_quadrature(lognormal01, 2.0) == pytest.approx(
        math.exp(2.0), rel=1e-9
    )


def test_constant_moment():
    m = tw.make_model("constant(1)")
    assert tw.moment(m, 3.7) == 1.0


def test_divergent_moment_for_heavy_power_tail(pareto12):
    with pytest.raises(DivergentMoment):
        tw.moment(pareto12, 2.0)
    with pytest.raises(DivergentMoment):
        tw.moment(pareto12, 2.5)


def test_moment_requires_nonnegative_support():
    with pytest.raises(DomainError):
        tw.moment(tw.make_model("normal()"), 2.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.5])
@pytest.mark.parametrize("spec", ["weibull(1,2)", "weibull(0.5,3)", "lognormal(0,1)", "constant(1.5)"])
def test_quadrature_moment_matches_closed_form(spec, alpha):
    m = tw.make_model(spec)
    closed = tw.moment(m, alpha)
    quad = moment_by_quadrature(m, alpha)
    assert quad == pytest.approx(closed, rel=1e-7)


def test_pareto_moment_quadrature_against_hand_formula():
    # E X^a for SF = min(1, C x^-b): C^(a/b) * b / (b - a).
    m = tw.make_model("pareto(2,3)")
    a = 1.5
    expected = 2.0 ** (a / 3.0) * 3.0 / (3.0 - a)
    assert tw.moment(m, a) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("C,b", [(1.0, 2.0), (2.0, 3.0), (0.5, 1.5), (10.0, 0.8)])
@pytest.mark.parametrize("frac", [0.25, 0.9, 0.99, 0.999, 1.0 - 1e-9])
def test_pareto_moment_closed_form(C, b, frac):
    # E X^a for SF = min(1, C x^-b): C^(a/b) * b / (b - a), also as a -> b,
    # where the tail-integral quadrature cannot reach the mass.
    a = frac * b
    m = tw.make_model(f"pareto({C!r},{b!r})")
    assert tw.moment(m, a) == pytest.approx(C ** (a / b) * b / (b - a), rel=1e-12)


@pytest.mark.parametrize("a,expected", [(1.8, 10.0), (1.9, 20.0), (1.99, 200.0)])
def test_pareto_moment_near_the_tail_index(pareto12, a, expected):
    assert tw.moment(pareto12, a) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DivergentMoment):
        tw.moment(pareto12, np.nextafter(2.0, 3.0))


def test_edge_model_moment_by_quadrature():
    m = tw.make_model("edge(2,1)")  # uniform on [1, 2]
    assert tw.moment(m, 1.0) == pytest.approx(1.5, rel=1e-9)
    assert tw.moment(m, 2.0) == pytest.approx(7.0 / 3.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@given(
    c=st.floats(1e-3, 1e3),
    alpha=st.floats(1e-3, 50),
    rho=st.floats(-20, 20),
    shift=st.floats(-5, 5),
)
@settings(max_examples=100, deadline=None)
def test_tail_json_round_trip(c, alpha, rho, shift):
    for tail in (
        tw.PowerTail(c, alpha),
        tw.WeibullType(c, rho, alpha, alpha, shift),
        tw.EdgePower(c, shift, alpha),
    ):
        assert tw.tail_from_dict(tw.tail_to_dict(tail)) == tail
