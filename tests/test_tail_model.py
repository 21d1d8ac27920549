"""Tail families, the distribution registry and moment computation."""

import ast
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import tailward as tw
from tailward import gp_extremes as gp
from tailward.errors import DivergentMoment, DomainError, SpecError, as_double
from tailward.quadrature import log1mexp
from tailward.tail_model import _law_of, _tail_rank, law, moment_by_quadrature

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


@pytest.mark.parametrize("spec", ["weibull(1,2)", "weibull(2,0.5)", "pareto(1,2)"])
def test_law_formulas_hold_at_most_their_own_arrays(spec):
    # log_sf holds at most one argument-sized array and log_density two; the
    # weibull log_sf once held two, x ** alpha and -K * x ** alpha.
    m, x = tw.make_model(spec), np.linspace(0.5, 10.0, 8192)
    for formula, arrays in ((m.log_sf, 1), (m.log_density, 2)):
        formula(x)  # warm up
        tracemalloc.start()
        try:
            formula(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (arrays + 0.25) * x.nbytes, (formula, peak)


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
    b = tw.make_model(" weibull ( 1 , 2 ) ")
    c = tw.make_model({"family": "weibull", "params": {"K": 1, "alpha": 2}})
    assert a.params == b.params == c.params


@pytest.mark.parametrize(
    "spec",
    ["nosuch(1)", "edge(0,-1)", "weibull(0,1)", "pareto(1)", "weibull:bogus=3"],
)
def test_make_model_rejects_bad_specs(spec):
    with pytest.raises(SpecError):
        tw.make_model(spec)


@pytest.mark.parametrize("params,message", [
    # Each once escaped as a ValueError or TypeError.
    ({"C": "x", "alpha": 2}, 'pareto parameter C must be a number, got "x"'),
    ({"C": None, "alpha": 2}, "pareto parameter C must be a number, got null"),
    ({"C": 1, "alpha": 2, "z": 3}, "pareto has no parameter 'z'"),
    ({"C": 1}, r"is missing \['alpha'\]"),
    ([1, 2], "params must be a mapping"),
])
def test_dict_specs_pass_the_string_checks(params, message):
    with pytest.raises(SpecError, match=message):
        tw.make_model({"family": "pareto", "params": params})


@pytest.mark.parametrize("family", [None, ["pareto"], "nosuch"])
def test_dict_spec_with_an_unknown_family_is_a_spec_error(family):
    with pytest.raises(SpecError, match="unknown distribution family"):
        tw.make_model({"family": family, "params": {}})


def test_pareto_support_edge_beyond_the_doubles_is_a_spec_error():
    # C**(1/alpha) = 1e300**1e8 once ended in an OverflowError.
    with pytest.raises(SpecError, match=r"C=1e\+300, alpha=1e-08"):
        tw.make_model("pareto(1e300,1e-8)")


@pytest.mark.parametrize("cls,fields,bad", [
    (tw.PowerTail, (math.inf, 2.0), "C=inf"),
    (tw.PowerTail, (1.0, math.nan), "alpha=nan"),
    (tw.WeibullType, (1.0, math.nan, 1.0, 2.0), "rho=nan"),
    (tw.WeibullType, (1.0, 0.0, 1.0, 2.0, -math.inf), "shift=-inf"),
    (tw.EdgePower, (1.0, math.inf, 1.0), "sigma=inf"),
])
def test_tail_refuses_a_non_finite_field(cls, fields, bad):
    with pytest.raises(SpecError, match=f"needs finite fields with .* > 0, got {bad}$"):
        cls(*fields)


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
    "weibull(2,0.5)": tw.make_model("weibull(2,0.5)"),
    "edge law of EdgePower(2,1,1.5)": _law_of(tw.EdgePower(2.0, 1.0, 1.5)),
})


# A scalar must give the bits of the same point inside an array: numpy's
# scalar and array x**alpha (pow against sqrt or square) once differed, for
# example for weibull(2,0.5) at 1 - 2**-53.
BITWISE_POINTS = np.concatenate([np.linspace(-3.0, 5.0, 161), np.geomspace(1e-9, 1e9, 181),
                                 [1.0 - 2.0 ** -53]]).tolist()


@pytest.mark.parametrize("name", list(SUPPORT_RULE_LAWS))
def test_every_law_follows_the_support_rule(name):
    # log SF is 0 at or below lo and -inf at or above hi, log CDF the
    # reverse; log density is -inf outside (lo, hi); scalars give floats with
    # the bits of the same point inside an array, arrays keep their shape,
    # nothing warns, not even at +-1e300, and nothing writes into the points.
    m = SUPPORT_RULE_LAWS[name]
    lo, hi = m.support
    points = [-1e300, 1e300] + BITWISE_POINTS
    for end in (e for e in (lo, hi) if math.isfinite(e)):
        points += [end - 0.25, np.nextafter(end, -np.inf), end, np.nextafter(end, np.inf), end + 0.25]
    points = np.array(points)
    given = points.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sf = [m.log_sf(float(x)) for x in points]
        cdf = [m.log_cdf(float(x)) for x in points]
        dens = [m.log_density(float(x)) for x in points] if m.log_density else []
        assert m.log_sf(points[:, None]).shape == (len(points), 1)
        assert m.log_cdf(points[:, None]).shape == (len(points), 1)
        if m.log_density:
            assert m.log_density(points[:, None]).shape == (len(points), 1)
    assert all(type(v) is float for v in sf + cdf + dens), name
    assert m.log_sf(points).tobytes() == np.array(sf).tobytes(), name
    assert m.log_cdf(points).tobytes() == np.array(cdf).tobytes(), name
    if m.log_density:
        assert m.log_density(points).tobytes() == np.array(dens).tobytes(), name
    assert points.tobytes() == given, name
    for x, v, c in zip(points, sf, cdf):
        if x >= hi:
            assert (v, c) == (-math.inf, 0.0), (name, x, v, c)
        elif x <= lo:
            assert (v, c) == (0.0, -math.inf), (name, x, v, c)
        else:
            assert v <= 0.0 and c <= 0.0, (name, x, v, c)
    for x, v in zip(points, dens):
        if x <= lo or x >= hi:
            assert v == -math.inf, (name, x, v)
        else:
            assert not math.isnan(v), (name, x, v)


@pytest.mark.parametrize("name", [n for n, m in SUPPORT_RULE_LAWS.items()
                                  if m.family.startswith("neg_")])
def test_a_mirrored_law_is_its_source_at_minus_x_bit_for_bit(name):
    # The slope law too: no second mask, and each tail is the source's other one.
    m = SUPPORT_RULE_LAWS[name]
    source = {"eta_power_low(0.3,2,1.5)": _law_of(tw.EdgePower(2.0, -0.3, 1.5)),
              "neg pareto(1,2)": tw.make_model("pareto(1,2)"),
              "neg normal": tw.make_model("normal")}[name]
    x = np.array([-1e300, 1e300] + BITWISE_POINTS)
    assert m.support == (-source.support[1], -source.support[0])
    for mine, theirs in (("log_sf", "log_cdf"), ("log_cdf", "log_sf"),
                         ("log_density", "log_density")):
        assert getattr(m, mine)(x).tobytes() == getattr(source, theirs)(-x).tobytes(), mine
    draws = [f(np.random.Generator(np.random.Philox(7)), 5) for f in (m.sample, source.sample)]
    assert draws[0].tobytes() == (-draws[1]).tobytes()


def test_the_edge_law_takes_its_tail_constant():
    # SF(u) = C*(sigma - u)**mu on [sigma - C**(-1/mu), sigma]; C = 1 is the
    # registry's edge, bit for bit.
    m = _law_of(tw.EdgePower(4.0, 1.0, 2.0))
    assert m.support == (0.5, 1.0) and m.tail == tw.EdgePower(4.0, 1.0, 2.0)
    u = np.array([0.6, 0.75, 0.9, 0.999])
    np.testing.assert_allclose(np.exp(m.log_sf(u)), 4.0 * (1.0 - u) ** 2, rtol=1e-14)
    np.testing.assert_allclose(np.exp(m.log_density(u)), 8.0 * (1.0 - u), rtol=1e-14)
    xs = m.sample(np.random.Generator(np.random.Philox(3)), 10_000)
    assert xs.min() >= 0.5 and xs.max() <= 1.0
    assert np.mean(xs > 0.75) == pytest.approx(0.25, abs=0.02)
    registry, mine = tw.make_model("edge(2,0.5)"), _law_of(tw.EdgePower(1.0, 2.0, 0.5))
    assert (mine.support, mine.tail, mine.spec()) == (registry.support, registry.tail,
                                                      registry.spec())
    x = np.array(BITWISE_POINTS)
    for fn in ("log_sf", "log_cdf", "log_density"):
        assert getattr(mine, fn)(x).tobytes() == getattr(registry, fn)(x).tobytes(), fn


def test_the_law_of_a_power_tail_is_pareto():
    assert _law_of(tw.PowerTail(2.0, 1.5)) == tw.make_model("pareto(2,1.5)")
    with pytest.raises(SpecError, match="no exact law for tail"):
        _law_of(tw.WeibullType(1.0, 0.0, 1.0, 2.0))


def test_only_tail_model_builds_a_distribution_model():
    # Every exact law obeys the support rule because tail_model builds it:
    # through law(), or as negate_model's mirror of a law that already does.
    src = Path(tw.__file__).parent
    found = [f"{path.relative_to(src)}:{node.lineno}"
             for path in sorted(src.rglob("*.py")) if path.name != "tail_model.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "DistributionModel"]
    assert found == []


def test_only_tail_model_ranks_two_laws():
    # One operand rule: the oracles and conditional_sf take operands and
    # inverse map from _conditioning, the engine orders by _heavy_first, and
    # no other module ranks tails or orders two power orders.
    src = Path(tw.__file__).parent

    def names(path):
        return {getattr(node, "id", getattr(node, "attr", None))
                for node in ast.walk(ast.parse(path.read_text()))}

    def ordered_power_orders(path):
        tree = ast.parse(path.read_text())
        is_order = lambda e: isinstance(e, ast.Call) and getattr(
            e.func, "id", getattr(e.func, "attr", None)) == "power_order"
        bound = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(is_order(e) for e in ast.walk(node.value))
                 for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
        operand = lambda e: is_order(e) or (isinstance(e, ast.Name) and e.id in bound)
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Lt, ast.Gt, ast.LtE, ast.GtE)) for op in node.ops)
                and sum(map(operand, [node.left, *node.comparators])) >= 2]

    others = [p for p in sorted(src.rglob("*.py")) if p.name != "tail_model.py"]
    assert [str(p.relative_to(src)) for p in others if "_tail_rank" in names(p)] == []
    assert [f"{p.relative_to(src)}:{n}" for p in others for n in ordered_power_orders(p)] == []
    for module, rule in (("oracle", "_conditioning"), ("montecarlo", "_conditioning"),
                         ("asymptotic_engine", "_heavy_first")):
        used = names(src / f"{module}.py")
        assert rule in used and not {"_heavy_first", "_conditioning"} - {rule} & used, module


def test_tail_rank_orders_declared_tails_heaviest_first():
    # Powers by exponent; the lognormal by s, then m; weibull-type tails by
    # alpha, then K, then rho (the normal's rho = -1 is below weibull's 0).
    heaviest_first = ["pareto(2,0.5)", "pareto(1,2)", "lognormal(0,2)", "lognormal(1,1)",
                      "lognormal(0,1)", "weibull(1,0.5)", "weibull(1,1)", "weibull(2,1)",
                      "weibull(0.5,2)", "normal", "weibull(1,2)", "weibull(2,2)"]
    laws = [tw.make_model(s) for s in heaviest_first]
    assert sorted(reversed(laws), key=_tail_rank) == laws
    bounded = [tw.make_model("edge(2,1)"), tw.make_model("constant(3)"),
               gp.negate_model(tw.make_model("pareto(1,2)"))]
    assert {_tail_rank(m) for m in bounded} == {(3,)} and (3,) > max(map(_tail_rank, laws))
    with pytest.raises(SpecError, match="no tail rank for model 'neg_normal'"):
        _tail_rank(gp.negate_model(tw.make_model("normal")))


def _edge_log_cdf(sigma, mu, C, x):
    """log(1 - C*(sigma - x)**mu) at the double x, by mpmath at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.log1p(-mpmath.mpf(C) * (mpmath.mpf(sigma) - mpmath.mpf(x)) ** mu)


@pytest.mark.parametrize("sigma,mu", [(0.0, 1.0), (3.0, 2.0)])
def test_the_edge_log_cdf_keeps_its_relative_digits_at_both_ends(sigma, mu):
    # log1p(-SF) where SF < 1/2 and log1mexp(log SF) below: near the top
    # end log1mexp lost up to 2.4e-14 of edge(0,1) at 1e-300 from sigma and
    # 1.7e-15 of edge(3,2); near the bottom end log1p would lose 3.1e-11.
    m = tw.make_model(f"edge({sigma},{mu})")
    lo = m.support[0]
    for x in (sigma - 1e-300, sigma - 1e-15, sigma - 1e-8, sigma - 0.3,
              sigma - 0.9 * (sigma - lo), lo + 1e-12, float(np.nextafter(lo, sigma))):
        if x == sigma:
            continue
        ref = _edge_log_cdf(sigma, mu, 1.0, x)
        assert abs((m.log_cdf(x) - ref) / ref) < 5e-16, x


def test_the_slope_law_log_sf_keeps_its_relative_digits_near_its_edge():
    # The slope law is the edge law's mirror: its log SF is that log CDF.
    eta = gp.eta_power_low_model(0.1, 2.0, 2.0)
    for v in (float(np.nextafter(0.1, 1.0)), 0.1 + 1e-15, 0.1 + 1e-6, 0.5, 0.7):
        ref = _edge_log_cdf(-0.1, 2.0, 2.0, -v)
        assert abs((eta.log_sf(v) - ref) / ref) < 5e-16, v


def test_the_edge_log_cdf_is_log1p_of_the_sf_near_the_top_and_the_default_below():
    for name, m in SUPPORT_RULE_LAWS.items():
        if m.family != "edge":
            continue
        sigma, mu, C = m.tail.sigma, m.tail.mu, m.tail.C
        for x in BITWISE_POINTS:
            if m.support[0] < x < sigma:
                sf = C * (sigma - np.array([x])) ** mu
                want = np.log1p(-sf)[0] if sf[0] < 0.5 else log1mexp(m.log_sf(x))
                assert m.log_cdf(x) == want, (name, x)


def test_a_formula_that_returns_its_argument_has_a_copy_masked():
    # Formulas that hand back their argument, or a view of it.
    m = law("identity", {}, (0.0, 1.0), None, None, lambda x: x,
            log_density=lambda x: x.reshape(x.shape), log_cdf=lambda x: x[...])
    x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    assert m.log_sf(x).tolist() == [0.0, 0.0, 0.5, -math.inf, -math.inf]
    assert m.log_cdf(x).tolist() == [-math.inf, -math.inf, 0.5, 0.0, 0.0]
    assert m.log_density(x).tolist() == [-math.inf, -math.inf, 0.5, -math.inf, -math.inf]
    assert x.tolist() == [-1.0, 0.0, 0.5, 1.0, 2.0]


@pytest.mark.parametrize("name", [n for n, m in SUPPORT_RULE_LAWS.items()
                                  if not m.family.startswith("neg_") and m.family != "edge"])
def test_log_cdf_defaults_to_the_complement_of_the_sf(name):
    # A law that gives no lower tail of its own takes log(1 - SF) point by
    # point, by the arithmetic of quadrature.log1mexp.
    m = SUPPORT_RULE_LAWS[name]
    for x in [-1e300, 1e300] + BITWISE_POINTS:
        assert m.log_cdf(x) == log1mexp(min(m.log_sf(x), 0.0)), (name, x)


@pytest.mark.parametrize("spec,fn,x,formula", [
    ("weibull(1,0.5)", "log_density", 5e-324,
     lambda x: math.log(0.5) - 0.5 * math.log(x) - math.sqrt(x)),
    ("lognormal(0,1)", "log_density", 1e-322,
     lambda x: -math.log(x) - 0.5 * math.log(2 * math.pi) - 0.5 * math.log(x) ** 2),
    # The support edge 1e-300**1e8 underflows to 0.
    ("pareto(1e-300,1e-8)", "log_sf", 5e-324, lambda x: math.log(1e-300) - 1e-8 * math.log(x)),
])
def test_a_subnormal_argument_gets_the_law_formula(spec, fn, x, formula):
    # Each formula once clamped its argument to 1e-320: weibull(1,0.5) gave
    # 367.72 at 5e-324 instead of 371.53.
    assert getattr(tw.make_model(spec), fn)(x) == pytest.approx(formula(x), rel=1e-15, abs=0.0)


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

def quadrature_moment(model, alpha):
    """E X**alpha by the tail-integral identity, whatever the family."""
    direct, log = moment_by_quadrature(model, alpha)
    return as_double("quadrature moment", direct, log_compute=log)


def test_lognormal_moment_closed_form_and_quadrature(lognormal01):
    assert tw.moment(lognormal01, 2.0) == pytest.approx(math.exp(2.0), rel=1e-12)
    assert quadrature_moment(lognormal01, 2.0) == pytest.approx(
        math.exp(2.0), rel=1e-9
    )


def test_constant_moment():
    m = tw.make_model("constant(1)")
    assert tw.moment(m, 3.7) == 1.0
    assert tw.moment(tw.make_model("constant(0)"), 3.7) == 0.0


@pytest.mark.parametrize("spec,alpha,log_moment", [
    # A factor overflows (Gamma(172), Gamma(173.5), 1e300**0.5 * 1e300); the moment fits.
    ("weibull(2,1)", 171.0, -171.0 * math.log(2.0) + math.lgamma(172.0)),
    ("weibull(2,2)", 345.0, -172.5 * math.log(2.0) + math.lgamma(173.5)),
    ("pareto(1e300,1e300)", 5e299, 0.5 * math.log(1e300) + math.log(2.0)),
])
def test_a_moment_whose_direct_form_overflows_takes_its_log_form(spec, alpha, log_moment):
    assert tw.moment(tw.make_model(spec), alpha) == pytest.approx(
        math.exp(log_moment), rel=1e-12)


@pytest.mark.parametrize("spec,alpha,got", [
    ("weibull(1,1)", 200.0, "inf"),
    ("lognormal(0,1)", 40.0, "inf"),
    ("constant(1e300)", 2.0, "inf"),
    ("edge(1e300,1)", 2.0, "inf"),  # the quadrature family
    ("lognormal(-1000,1)", 1.0, "0.0"),
    ("constant(1e-300)", 2.0, "0.0"),
])
def test_a_moment_beyond_the_doubles_is_a_domain_error(spec, alpha, got):
    # Each once raised a bare OverflowError or answered 0.0.
    family = spec.split("(")[0]
    with pytest.raises(DomainError, match=rf"moment of order {alpha} of {family} is not a "
                                          rf"positive finite double \(got {got}\)"):
        tw.moment(tw.make_model(spec), alpha)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
def test_moment_order_is_positive_and_finite(weibull12, alpha):
    with pytest.raises(SpecError, match="moment order must be positive and finite"):
        tw.moment(weibull12, alpha)


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
    quad = quadrature_moment(m, alpha)
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


def _mpmath_edge_moment(sigma, mu, alpha):
    """int x**alpha dF over the edge law on [sigma - 1, sigma], at 40 digits."""
    with mpmath.workdps(40):
        s, m, a = mpmath.mpf(sigma), mpmath.mpf(mu), mpmath.mpf(alpha)
        return float(mpmath.quad(lambda x: x ** a * m * (s - x) ** (m - 1),
                                 [s - 1, s - mpmath.mpf(1) / 2, s]))


@pytest.mark.parametrize("alpha", [1e-8, 1e-3, 0.01, 1.0, 5.0])
@pytest.mark.parametrize("spec", ["edge(2,1)", "edge(1,1)", "edge(3,2)", "edge(2,0.5)"])
def test_edge_moment_against_mpmath(spec, alpha):
    # Small orders were low: moment(edge(2,1), 1e-3) read 0.52223 for 1.000386,
    # when the quadrature in u clamped u at 1e-320 and lost the mass u**(a-1) holds there.
    sigma, mu = tw.parse_model_spec(spec)[1].values()
    expected = _mpmath_edge_moment(sigma, mu, alpha)
    assert tw.moment(tw.make_model(spec), alpha) == pytest.approx(expected, rel=1e-9, abs=0.0)


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
        d = json.loads(json.dumps(tw.tail_to_dict(tail)))
        assert type(tail)(**{k: v for k, v in d.items() if k != "variant"}) == tail
