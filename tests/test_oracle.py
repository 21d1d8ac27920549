"""Conditioning oracles against brute force, closed forms and each other."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.stats import binomtest

import tailward as tw
from tailward import oracle, tail_model
from tailward.errors import DomainError, QuadratureFailure, SpecError, Unsupported
from tailward.gp_extremes import bm_exact_oracle, negate_model
from tailward.oracle import ratio_table, sf_product_exact, sf_sum_exact


def _wilson99(k: int, n: int) -> tuple[float, float]:
    """scipy's 99% Wilson score interval: a referee independent of tailward's."""
    ci = binomtest(k, n).proportion_ci(0.99, method="wilson")
    return ci.low, ci.high


def test_sum_with_constant_is_a_shift(weibull12):
    c = tw.make_model("constant(0)")
    assert sf_sum_exact(tw.make_model("weibull(1,1)"), c, 2.0) == pytest.approx(-2.0)
    assert sf_sum_exact(weibull12, tw.make_model("constant(1)"), 3.0) == pytest.approx(-4.0)


def test_sum_weibull_edge_against_midpoint_brute_force(weibull12, edge01):
    # Independent referee: 10^6-node midpoint rule for int_0^1 e^-(u+v)^2 dv.
    u = 2.0
    v = (np.arange(10 ** 6) + 0.5) / 10 ** 6
    brute = math.log(np.mean(np.exp(-((u + v) ** 2))))
    got = sf_sum_exact(weibull12, edge01, u)
    assert got == pytest.approx(brute, rel=1e-8)


def test_sum_of_standard_normals_is_scaled_normal():
    n = tw.make_model("normal()")
    for u in (1.0, 3.0, 5.0):
        expected = math.log(0.5 * special.erfc(u / math.sqrt(2.0) / math.sqrt(2.0)))
        assert sf_sum_exact(n, n, u) == pytest.approx(expected, rel=1e-9)


def test_product_with_constant_is_a_scaling(weibull12):
    c2 = tw.make_model("constant(2)")
    assert sf_product_exact(weibull12, c2, 3.0) == pytest.approx(-2.25)
    # Constant on the other side as well.
    assert sf_product_exact(c2, weibull12, 3.0) == pytest.approx(-2.25)


def test_product_constant_times_power(pareto12):
    one = tw.make_model("constant(1)")
    assert sf_product_exact(one, pareto12, 10.0) == pytest.approx(math.log(1e-2), rel=1e-12)


@pytest.mark.parametrize("op,a,b,u,expected", [
    ("product", "constant(0)", "weibull(1,2)", 1.0, -math.inf),
    ("product", "constant(3)", "weibull(1,2)", 10.0, -11.111111111111112),
    ("sum", "constant(3)", "weibull(1,2)", 10.0, -49.0),
    ("product", "constant(2)", "pareto(1,2)", 100.0, -7.824046010856292),
    ("sum", "constant(2)", "constant(3)", 4.0, 0.0),
    ("product", "constant(2)", "constant(3)", 4.0, 0.0),
])
def test_point_masses_are_exact_in_both_orders(op, a, b, u, expected):
    # The values of the point-mass swap the one operand rule replaced.
    f = sf_sum_exact if op == "sum" else sf_product_exact
    x, y = tw.make_model(a), tw.make_model(b)
    assert f(x, y, u) == expected
    assert f(y, x, u) == expected


def test_laws_without_a_power_order_keep_the_callers_order(weibull12):
    # The negated normal has no declared tail and an unbounded support.
    low = negate_model(tw.make_model("normal()"))
    assert sf_sum_exact(weibull12, low, 3.0) == pytest.approx(-3.5439907218769977, rel=1e-9)
    assert sf_sum_exact(low, weibull12, 3.0) == pytest.approx(-3.5439907218769977, rel=1e-9)


def test_product_needs_positive_supports(edge01, weibull12):
    with pytest.raises(DomainError):
        sf_product_exact(weibull12, edge01, 2.0)  # edge(0,1) lives on [-1, 0]
    with pytest.raises(DomainError):
        sf_product_exact(tw.make_model("normal()"), weibull12, 2.0)


def test_product_lognormal_pareto_monte_carlo_referee(lognormal01, pareto12):
    # 10^7-sample Monte Carlo with a 99% interval as an independent check at
    # a moderate level where direct sampling still resolves the tail.
    u = 30.0
    rng = np.random.default_rng(99)
    n = 10 ** 7
    xs = np.exp(rng.standard_normal(n))
    ys = (1.0 - rng.random(n)) ** -0.5  # pareto(1,2) inverse transform
    k = int(np.sum(xs * ys > u))
    lo, hi = _wilson99(k, n)
    got = math.exp(sf_product_exact(lognormal01, pareto12, u))
    assert lo <= got <= hi, (lo, got, hi, k)


def test_sum_oracle_symmetry(weibull12, edge01, pareto12):
    pairs = [
        (weibull12, edge01, 6.0),
        (tw.make_model("normal()"), tw.make_model("normal()"), 3.0),
        (tw.make_model("weibull(1,1)"), pareto12, 12.0),
    ]
    for x, y, u in pairs:
        a = sf_sum_exact(x, y, u)
        b = sf_sum_exact(y, x, u)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_sum_oracle_monotone_in_level(weibull12, edge01):
    grid = [2.0, 4.0, 6.0, 8.0, 10.0]
    vals = [sf_sum_exact(weibull12, edge01, u) for u in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_oracle_agrees_with_direct_monte_carlo(weibull12, edge01):
    # Wherever direct MC keeps >= 100 expected hits, the quadrature value
    # must sit inside the 99% interval.
    n = 10 ** 5
    ests = tw.estimate_sf(weibull12, edge01, "sum", [1.0, 2.0, 3.0], n, seed=3)
    for e in ests:
        truth = math.exp(sf_sum_exact(weibull12, edge01, e.u))
        if truth * n < 100:
            continue
        lo, hi = _wilson99(round(e.p_hat * e.n), e.n)
        assert lo <= truth <= hi


def test_unsupported_conditioning_without_density(weibull12):
    bad = tw.DistributionModel(
        family="opaque",
        params={},
        support=(0.0, 1.0),
        tail=None,
        log_sf=lambda u: np.where(np.asarray(u) < 1.0, 0.0, -np.inf),
        log_density=None,
        sampler=lambda rng, size=None: rng.random(size),
        log_cdf=lambda u: np.where(np.asarray(u) < 1.0, -np.inf, 0.0),
    )
    with pytest.raises(Unsupported):
        sf_sum_exact(weibull12, bad, 2.0)
    with pytest.raises(Unsupported):
        sf_product_exact(weibull12, bad, 2.0)
    with pytest.raises(Unsupported):
        bm_exact_oracle(bad, None, 2.0)
    with pytest.raises(Unsupported):
        bm_exact_oracle(weibull12, bad, 2.0)


def test_empty_interval_returns_the_saturated_mass(edge01, monkeypatch):
    # X + Y lives on [-2, 0]: nothing is left to integrate at either level.
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrated an empty interval")

    monkeypatch.setattr(oracle, "log_quad", no_quadrature)
    assert sf_sum_exact(edge01, edge01, 0.5) == -math.inf
    assert sf_sum_exact(edge01, edge01, -2.5) == 0.0


_LAWS = ("weibull(1,2)", "weibull(1,0.5)", "pareto(1,2)", "pareto(1,3)", "edge(0,1)",
         "edge(2,1)", "lognormal(0,1)", "normal", "constant(1)", "constant(0)")


@pytest.mark.parametrize("spec", _LAWS)
def test_mass_decades_are_the_full_grid_rule_cut_to_the_interval(spec):
    # The decades that seed the panels: every +-10**k where log SF_Y lies in
    # (-745, -1e-3), kept inside the open interval cut to Y's support.
    y = tw.make_model(spec)
    with np.errstate(all="ignore"):
        log_sf = np.asarray(y.log_sf(tail_model._DECADES))
    full = tail_model._DECADES[(log_sf > -745.0) & (log_sf < -1e-3)]
    intervals = [(0.5, 1e4), (-3.0, 2.0), (1e-3, 1e300),           # finite
                 (-math.inf, 10.0), (2.0, math.inf), (-math.inf, math.inf),  # lines
                 (5.0, 5.0), (7.0, 3.0),                            # empty
                 (-1e10, -2.0), (3.0, 1e10)]                        # out of support
    for lo, hi in intervals:
        cut_lo, cut_hi = max(lo, y.support[0]), min(hi, y.support[1])
        expected = full[(full > cut_lo) & (full < cut_hi)]
        got = tail_model._mass_decades(y, lo, hi)
        assert got.tolist() == expected.tolist(), (lo, hi)


# ---------------------------------------------------------------------------
# ratio_table
# ---------------------------------------------------------------------------

def test_ratio_table_self_comparison_is_unity(weibull12):
    c0 = tw.make_model("constant(0)")
    rows = ratio_table(weibull12, c0, "sum", weibull12.tail, [2.0, 3.0, 4.0])
    assert [list(row) for row in rows] == [
        ["u", "log_sf_exact", "log_h", "ratio", "method", "status"]] * 3
    for row in rows:
        assert row["status"] == "ok"
        assert row["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_ratio_table_empty_grid(weibull12, edge01):
    assert ratio_table(weibull12, edge01, "sum", weibull12.tail, []) == []


@pytest.mark.parametrize("grid,error,message", [
    ([4.0, 4.0], DomainError, "grid must be strictly increasing"),
    # A NaN level once passed the check and gave a failed row; as_number
    # refuses it, as every level reader does.
    ([math.nan], SpecError, r"level u\[0\] must be a number, got nan"),
    ([30.0, math.nan], SpecError, r"level u\[1\] must be a number, got nan"),
    ([math.nan, 30.0], SpecError, r"level u\[0\] must be a number, got nan"),
], ids=["grid0", "grid1", "grid2", "grid3"])
def test_ratio_table_requires_increasing_grid(monkeypatch, weibull12, edge01, grid, error,
                                              message):
    def no_oracle(*args):
        raise AssertionError("an oracle ran before the grid was checked")

    monkeypatch.setattr(oracle, "sf_sum_exact", no_oracle)
    with pytest.raises(error, match=message):
        ratio_table(weibull12, edge01, "sum", weibull12.tail, grid)


def test_ratio_table_marks_a_tail_that_overflows_as_a_failed_row(weibull12, edge01):
    pred = tw.sum_tail(weibull12, edge01)[0]
    ok, failed = ratio_table(weibull12, edge01, "sum", pred, [4.0, 1e200])
    assert ok["status"] == "ok"
    assert failed["status"].startswith("failed: ") and "u=1e+200" in failed["status"]
    assert math.isnan(failed["ratio"]) and math.isnan(failed["log_h"])


def test_ratio_table_marks_failed_rows_and_keeps_going(lognormal01, edge01):
    # Product with a negative-support factor fails per-row, not wholesale.
    pred = tw.PowerTail(1, 2)
    rows = ratio_table(lognormal01, edge01, "product", pred, [5.0, 10.0])
    assert all(r["status"].startswith("failed") for r in rows)
    assert len(rows) == 2


def test_extra_sum_pair_ratio_window():
    x = tw.make_model("weibull(0.5,3)")
    y = tw.make_model("edge(0,2)")
    pred = tw.sum_mixed_tail(x.tail, y.tail)
    rows = ratio_table(x, y, "sum", pred, [5.0, 6.0, 7.0, 8.0])
    devs = [abs(r["ratio"] - 1) for r in rows if r["status"] == "ok"]
    assert devs[-1] < 0.05
    assert devs[-3] >= devs[-2] >= devs[-1]


def test_extra_product_pair_ratio_window():
    x = tw.make_model("weibull(1,0.8)")
    y = tw.make_model("edge(1.5,1)")
    pred = tw.product_mixed_tail(x.tail, y.tail)
    rows = ratio_table(x, y, "product", pred, [300.0, 500.0, 800.0, 1200.0])
    devs = [abs(r["ratio"] - 1) for r in rows if r["status"] == "ok"]
    assert devs[-1] < 0.05
    assert devs[-3] >= devs[-2] >= devs[-1]


def test_product_power_level_beyond_1e8_is_not_absorbed(weibull12, pareto12):
    # At u = 1e12 the log value is ~ -1.8e19 on the first panels, where a
    # stopping test of the form err <= total + log(rtol) passed at once with
    # a value wrong by that much; the level must match the power tail.
    tail, claim = tw.product_tail(weibull12, pareto12)
    assert claim == "product_power"
    got = sf_product_exact(weibull12, pareto12, 1e12)
    assert got == pytest.approx(tw.sf_eval(tail, 1e12), abs=1e-6)


# ---------------------------------------------------------------------------
# Exact identities at every scale, in both operand orders
# ---------------------------------------------------------------------------

_IDENTITY_X = ("weibull(1,2)", "weibull(1,0.5)", "weibull(3,1)", "lognormal(0,1)",
               "lognormal(1,2)", "edge(2,1)", "edge(2,0.5)", "constant(3)")


@pytest.mark.parametrize("ys", ["pareto(1,2)", "pareto(1,0.5)", "pareto(4,3)"])
def test_product_with_a_pareto_factor_meets_its_identity(ys):
    # For Y ~ pareto(C, alpha) and X <= u * C**(-1/alpha), P(XY > u) is
    # exactly C * E[X**alpha] * u**(-alpha); an unbounded X only adds its
    # mass above that bound, negligible here except for lognormal(1,2) at
    # u = 1e4, where it moves the identity by up to 3.6 nats.  A level may
    # refuse, never return a wrong converged value.
    y = tw.make_model(ys)
    c, alpha = y.params["C"], y.params["alpha"]
    for xs in _IDENTITY_X:
        x = tw.make_model(xs)
        log_coef = math.log(c) + math.log(tw.moment(x, alpha))
        for u in (1e4, 1e12, 1e50, 1e300):
            if xs == "lognormal(1,2)" and u == 1e4:
                continue
            for a, b in ((x, y), (y, x)):
                try:
                    got = sf_product_exact(a, b, u)
                except QuadratureFailure:
                    continue
                assert got == pytest.approx(log_coef - alpha * math.log(u), abs=1e-7), (
                    a.family, b.family, u)


@pytest.mark.parametrize("xs", ["weibull(1,2)", "weibull(1,0.5)"])
def test_sum_with_a_pareto_term_meets_the_dominant_tail(xs, pareto12):
    x = tw.make_model(xs)
    tail, claim = tw.sum_tail(x, pareto12)
    assert claim == "sum_dominant"
    for u in (1e12, 1e50, 1e300):
        for a, b in ((x, pareto12), (pareto12, x)):
            got = sf_sum_exact(a, b, u)
            assert got == pytest.approx(tw.sf_eval(tail, u), abs=1e-8), (a.family, u)


# ---------------------------------------------------------------------------
# One operand rule: the heavier declared tail is exact in either order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ys,ref,rel", [
    # mpmath at 40 digits, E SF_Y(u - N) over half-unit panels on [-40, 40].
    ("weibull(1,0.5)", -99.99998737499676445, 1e-12),
    ("lognormal(0,1)", -45.56590923658439624, 1e-12),
])
def test_a_normal_plus_a_heavier_light_tail_meets_mpmath_in_both_orders(ys, ref, rel):
    # With the normal exact, the first missed by 2.0e-3 nats "converged" and
    # the second by 4.8e-7; the weibull-type or lognormal SF is now exact.
    n, y = tw.make_model("normal"), tw.make_model(ys)
    for a, b in ((n, y), (y, n)):
        assert sf_sum_exact(a, b, 1e4) == pytest.approx(ref, rel=rel)


_SWEEP_LAWS = ("normal", "weibull(1,1)", "weibull(1,2)", "weibull(1,0.5)", "weibull(2,2)",
               "pareto(1,2)", "pareto(2,0.5)", "lognormal(0,1)", "edge(0,1)", "edge(2,1)",
               "constant(2)")
_SWEEP_LEVELS = (1.5, 3.0, 10.0, 30.0, 100.0, 1e3, 1e4, 1e6, 1e8)


def _oracle_value(f, x, y, u):
    try:
        return f(x, y, u)
    except tw.errors.TailwardError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("op", ["sum", "product"])
def test_both_operand_orders_give_the_same_bits_where_the_ranks_differ(op):
    # 55 pairs of registry laws at 9 levels from 1.5 to 1e8: the value, or
    # the failure and its message, is bitwise the same in both orders.
    f = sf_sum_exact if op == "sum" else sf_product_exact
    laws = [tw.make_model(s) for s in _SWEEP_LAWS]
    moved = []
    for i, x in enumerate(laws):
        for y in laws[i + 1:]:
            if tail_model._tail_rank(x) == tail_model._tail_rank(y):
                continue
            for u in _SWEEP_LEVELS:
                a, b = _oracle_value(f, x, y, u), _oracle_value(f, y, x, u)
                if a != b:
                    moved.append((x.family, y.family, u, a, b))
    assert moved == []


def test_mass_below_the_least_positive_double_is_a_quadrature_failure():
    # weibull(1e8, 1e-8) holds ~1 of its mass below 5e-324, where no node
    # lies; P(X + Y > 1e16) >= P(Y > 1e16) = 1e-32 (log -73.68) for X >= 0,
    # yet the oracle once answered log -99,999,337.8 as converged.
    x, y = tw.make_model("weibull(1e8,1e-8)"), tw.make_model("pareto(1,2)")
    with pytest.raises(QuadratureFailure, match=r"below 5e-324, where no node lies"):
        sf_sum_exact(x, y, 1e16)
    row, = ratio_table(x, y, "sum", y.tail, [1e16])
    assert row["status"].startswith("failed: ") and math.isnan(row["log_sf_exact"])


@pytest.mark.parametrize("x,y,u", [
    # A point mass is the kernel at its value, exactly: constant(0) is exempt.
    ("pareto(1,2)", "constant(0)", 10.0),
    # Mass below 5e-324 far under rtol of the result passes.
    ("pareto(1,2)", "weibull(1,0.5)", 10.0),
    ("pareto(1,2)", "lognormal(0,1)", 1e16),
])
def test_a_law_with_no_unseen_mass_of_weight_keeps_its_value(x, y, u):
    x, y = tw.make_model(x), tw.make_model(y)
    assert math.isfinite(sf_sum_exact(x, y, u)) and math.isfinite(sf_sum_exact(y, x, u))
    if y.family == "constant":
        assert sf_sum_exact(x, y, u) == x.log_sf(u)
