"""Conditioning oracles against brute force, closed forms and each other."""

import math

import numpy as np
import pytest
from scipy import special

import tailward as tw
from tailward.errors import DomainError, Unsupported
from tailward.montecarlo import wilson_interval
from tailward.oracle import ratio_table, sf_product_exact, sf_sum_exact


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
    lo, hi = wilson_interval(k, n, z=2.5758293035489004)
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
        lo, hi = wilson_interval(round(e.p_hat * e.n), e.n, z=2.5758293035489004)
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
    )
    with pytest.raises(Unsupported):
        sf_sum_exact(weibull12, bad, 2.0)


# ---------------------------------------------------------------------------
# ratio_table
# ---------------------------------------------------------------------------

def test_ratio_table_self_comparison_is_unity(weibull12):
    c0 = tw.make_model("constant(0)")
    table = ratio_table(weibull12, c0, "sum", weibull12.tail, [2.0, 3.0, 4.0])
    for row in table.rows:
        assert row.status == "ok"
        assert row.ratio == pytest.approx(1.0, abs=1e-9)


def test_ratio_table_empty_grid(weibull12, edge01):
    table = ratio_table(weibull12, edge01, "sum", weibull12.tail, [])
    assert table.rows == ()


def test_ratio_table_requires_increasing_grid(weibull12, edge01):
    with pytest.raises(DomainError):
        ratio_table(weibull12, edge01, "sum", weibull12.tail, [4.0, 4.0])


def test_ratio_table_marks_failed_rows_and_keeps_going(lognormal01, edge01):
    # Product with a negative-support factor fails per-row, not wholesale.
    pred = tw.PowerTail(1, 2)
    table = ratio_table(lognormal01, edge01, "product", pred, [5.0, 10.0])
    assert all(r.status.startswith("failed") for r in table.rows)
    assert len(table.rows) == 2
    assert table.ratios() == []


def test_extra_sum_pair_ratio_window():
    x = tw.make_model("weibull(0.5,3)")
    y = tw.make_model("edge(0,2)")
    pred = tw.sum_mixed_tail(x.tail, y.tail)
    table = ratio_table(x, y, "sum", pred, [5.0, 6.0, 7.0, 8.0])
    devs = [abs(r - 1) for r in table.ratios()]
    assert devs[-1] < 0.05
    assert devs[-3] >= devs[-2] >= devs[-1]


def test_extra_product_pair_ratio_window():
    x = tw.make_model("weibull(1,0.8)")
    y = tw.make_model("edge(1.5,1)")
    pred = tw.product_mixed_tail(x.tail, y.tail)
    table = ratio_table(x, y, "product", pred, [300.0, 500.0, 800.0, 1200.0])
    devs = [abs(r - 1) for r in table.ratios()]
    assert devs[-1] < 0.05
    assert devs[-3] >= devs[-2] >= devs[-1]
