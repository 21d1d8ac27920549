"""Sampling estimators: correctness, intervals, reproducibility."""

import ast
import dataclasses
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailward as tw
from tailward import gp_extremes as gp
from tailward import montecarlo
from tailward.errors import DomainError, SpecError
from tailward.montecarlo import (
    _Z95,
    BLOCK_SIZE,
    TailEstimate,
    _map_blocks,
    block_rng,
    resolve_workers,
    wilson_interval,
)
from tailward.oracle import sf_product_exact, sf_sum_exact
from tailward.tail_model import _heavy_first


@given(k=st.integers(0, 1000), n=st.integers(1, 1000))
@settings(max_examples=200, deadline=None)
def test_wilson_interval_orders_and_bounds(k, n):
    k = min(k, n)
    lo, hi = wilson_interval(k, n)
    p = k / n
    assert 0.0 <= lo <= p <= hi <= 1.0


def test_wilson_interval_degenerate_counts():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi == 1.0


def test_direct_estimate_exponential_tail():
    m = tw.make_model("weibull(1,1)")
    est = tw.estimate_sf(m, tw.make_model("constant(0)"), "sum", [1.0], 10 ** 6, seed=0)[0]
    assert est.ci_lo <= math.exp(-1) <= est.ci_hi
    assert est.p_hat == pytest.approx(math.exp(-1), abs=3e-3)


def test_direct_estimate_below_support_is_one():
    m = tw.make_model("weibull(1,1)")
    est = tw.estimate_sf(m, tw.make_model("constant(0)"), "sum", [-0.5], 10 ** 3, seed=0)[0]
    assert est.p_hat == 1.0 and est.ci_hi == 1.0


def test_direct_estimate_is_deterministic_and_worker_independent():
    x = tw.make_model("weibull(1,2)")
    y = tw.make_model("pareto(1,2)")
    runs = [
        tw.estimate_sf(x, y, "sum", [3.0, 5.0], 50_000, seed=7, workers=w)
        for w in (1, 2, 8, None)
    ]
    assert runs[0] == runs[1] == runs[2] == runs[3]
    again = tw.estimate_sf(x, y, "sum", [3.0, 5.0], 50_000, seed=7, workers=1)
    assert again == runs[0]


def test_unknown_combine_is_rejected_before_sampling():
    def no_sampling(rng, size=None):
        raise AssertionError("sampled before checking combine")

    x = dataclasses.replace(tw.make_model("normal()"), sampler=no_sampling)
    for y in (tw.make_model("constant(0)"), tw.make_model("pareto(1,2)")):
        with pytest.raises(SpecError, match="unknown combine 'hypot'"):
            tw.estimate_sf(x, y, "hypot", [0.0], 10 ** 3, seed=0)


@pytest.mark.parametrize("estimator", ["estimate_sf", "conditional_sf", "sup_exceedance_mc"])
def test_a_nan_level_is_refused_before_sampling(monkeypatch, estimator):
    # A NaN level once got p_hat = 0 and the interval [0, 0.0038] at n = 1000.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the levels")

    monkeypatch.setattr(montecarlo, "_map_blocks", no_draw)
    monkeypatch.setattr(gp.estimators, "_map_blocks", no_draw)
    x, y = tw.make_model("normal()"), tw.make_model("pareto(1,2)")
    call = {
        "estimate_sf": lambda grid: tw.estimate_sf(x, y, "sum", grid, 10 ** 3, seed=0),
        "conditional_sf": lambda grid: tw.conditional_sf(x, y, "sum", grid, 10 ** 3, seed=0),
        "sup_exceedance_mc": lambda grid: gp.sup_exceedance_mc(grid, 5.0, 64, 16, 0),
    }[estimator]
    for grid, i in (([math.nan], 0), ([1.0, math.nan, 3.0], 1)):
        with pytest.raises(SpecError, match=rf"level u\[{i}\] must be a number, got nan"):
            call(grid)
    # An infinite level is a number: nothing exceeds +inf.
    monkeypatch.undo()
    assert [e.p_hat for e in call([math.inf])] == [0.0]


def test_estimate_requires_minimum_samples():
    with pytest.raises(SpecError):
        tw.estimate_sf(tw.make_model("normal()"), tw.make_model("constant(0)"), "sum", [0.0],
                       10, seed=0)


def test_conditional_constant_summand_gives_point_mass():
    x = tw.make_model("weibull(1,2)")
    est = tw.conditional_sf(x, tw.make_model("constant(0)"), "sum", [2.0], 10 ** 3, seed=0)[0]
    assert est.p_hat == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert est.ci_hi - est.ci_lo < 1e-9


def test_conditional_covers_quadrature_truth(weibull12, edge01):
    truth = math.exp(sf_sum_exact(weibull12, edge01, 8.0))
    est = tw.conditional_sf(weibull12, edge01, "sum", [8.0], 10 ** 5, seed=1)[0]
    assert est.ci_lo <= truth <= est.ci_hi


def test_conditional_product_tracks_power_prediction(lognormal01, pareto12):
    # Combined prediction: second moment times the power coefficient.
    est = tw.conditional_sf(lognormal01, pareto12, "product", [100.0], 10 ** 6, seed=2)[0]
    predicted = math.exp(2.0) * 100.0 ** -2
    half = (est.ci_hi - est.ci_lo) / 2
    assert abs(est.p_hat - predicted) <= half + 0.05 * predicted


def test_conditional_variance_never_exceeds_direct(weibull12, edge01):
    # Rao-Blackwell guarantee, measured on a fixture grid.
    n = 200_000
    grid = [1.0, 2.0, 3.0]
    direct = tw.estimate_sf(weibull12, edge01, "sum", grid, n, seed=5)
    conditional = tw.conditional_sf(weibull12, edge01, "sum", grid, n, seed=5)
    for d, c in zip(direct, conditional):
        var_direct = d.p_hat * (1 - d.p_hat)
        var_conditional = (((c.ci_hi - c.ci_lo) / 2) / 1.959963984540054) ** 2 * n
        assert var_conditional <= var_direct + 1e-9


def test_conditional_coverage_over_replications(weibull12, edge01):
    # 200 independent replications of the interval at n=2000; at least 180
    # must cover the quadrature truth (99%-level binomial bound on 95% CIs).
    truth = math.exp(sf_sum_exact(weibull12, edge01, 2.0))
    n_cover = 0
    for rep in range(200):
        est = tw.conditional_sf(weibull12, edge01, "sum", [2.0], 2000, seed=1000 + rep)[0]
        n_cover += est.ci_lo <= truth <= est.ci_hi
    assert n_cover >= 180, n_cover


def test_conditional_sum_conditions_on_the_light_variable(weibull12, pareto12):
    # Weibull(1,2) + Pareto(1,2) at u = 1000 (~1.0018e-6): the Pareto SF is
    # evaluated exactly and the Weibull sampled, whichever argument it is.
    truth = math.exp(sf_sum_exact(weibull12, pareto12, 1000.0))
    est = tw.conditional_sf(weibull12, pareto12, "sum", [1000.0], 10 ** 5, seed=3)[0]
    assert est.ci_lo <= truth <= est.ci_hi
    assert (est.ci_hi - est.ci_lo) / 2 < 1e-3 * est.p_hat
    swapped = tw.conditional_sf(pareto12, weibull12, "sum", [1000.0], 10 ** 5, seed=3)[0]
    assert swapped == est


def test_conditional_product_conditions_on_the_light_variable(lognormal01, pareto12):
    truth = math.exp(sf_product_exact(lognormal01, pareto12, 2700.0))
    est = tw.conditional_sf(lognormal01, pareto12, "product", [2700.0], 10 ** 5, seed=3)[0]
    assert est.ci_lo <= truth <= est.ci_hi
    assert (est.ci_hi - est.ci_lo) / 2 < 0.1 * est.p_hat


def test_conditional_evaluates_the_smaller_power_exponent(pareto12, weibull12, edge01):
    pareto13 = tw.make_model("pareto(1,3)")
    for x, y in ((pareto12, pareto13), (pareto13, pareto12)):
        exact, sampled = _heavy_first(x, y)
        assert exact is pareto12 and sampled is pareto13
    # No power tail: X stays the exact operand, as before.
    exact, sampled = _heavy_first(weibull12, edge01)
    assert exact is weibull12 and sampled is edge01
    a = tw.conditional_sf(pareto12, pareto13, "sum", [10.0, 100.0], 10 ** 4, seed=1)
    b = tw.conditional_sf(pareto13, pareto12, "sum", [10.0, 100.0], 10 ** 4, seed=1)
    assert a == b


@pytest.mark.parametrize("u", [10.0, 20.0])
def test_a_normal_plus_an_exponential_makes_the_exponential_exact_in_both_orders(u):
    # With the normal exact, u = 20 gave 4.0e-41 in [0, 9.6e-41] against the
    # exact 3.40e-9: the weights sat on the few largest Exp(1) draws.
    normal, exp1 = tw.make_model("normal"), tw.make_model("weibull(1,1)")
    est = tw.conditional_sf(normal, exp1, "sum", [u], 2000, seed=1000)
    assert tw.conditional_sf(exp1, normal, "sum", [u], 2000, seed=1000) == est
    assert est[0].ci_lo <= math.exp(sf_sum_exact(normal, exp1, u)) <= est[0].ci_hi


def test_a_tie_of_two_unbounded_light_tails_is_refused_before_any_draw(monkeypatch, pareto12,
                                                                       edge01):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking the pair")

    monkeypatch.setattr(montecarlo, "_map_blocks", no_draw)
    for spec in ("weibull(1,1)", "normal", "lognormal(0,1)"):
        with pytest.raises(DomainError, match=r"have one light tail, .*; use estimate_sf$"):
            tw.conditional_sf(tw.make_model(spec), tw.make_model(spec), "sum", [3.0], 1000, 0)
    monkeypatch.undo()
    # Power ties and bounded ties keep their estimate.
    for law in (pareto12, edge01):
        assert tw.conditional_sf(law, law, "sum", [-0.5, 3.0], 1000, seed=0)[0].p_hat > 0.0


def test_conditional_without_mass_reports_wilson_upper_bound(weibull12, edge01):
    n = 10 ** 3
    est = tw.conditional_sf(weibull12, edge01, "sum", [1000.0], n, seed=0)[0]
    assert est.p_hat == 0.0
    assert (est.ci_lo, est.ci_hi) == wilson_interval(0, n)
    assert est.ci_hi > 0.0
    assert est.ess == 0.0


# ---------------------------------------------------------------------------
# One mean statistic: an interval only where the effective sample size backs it
# ---------------------------------------------------------------------------

def _level(x, y, u, n):
    """conditional_sf of X + Y at u (seed 3), or its refusal."""
    try:
        return tw.conditional_sf(tw.make_model(x), tw.make_model(y), "sum", [u], n, seed=3,
                                 workers=1)[0]
    except DomainError as exc:
        return exc


def _exp_exp_level(u, n):
    return _level("weibull(1,1)", "weibull(1,1)", u, n)


_TIE = (r"weibull\{'K': 1\.0, 'alpha': 1\.0\} and weibull\{'K': 1\.0, 'alpha': 1\.0\} have "
        r"one light tail, so no conditional interval backs them; use estimate_sf")


@pytest.mark.parametrize("u", [10.0, 20.0, 40.0, 200.0])
def test_a_light_pair_level_covers_the_exact_tail_or_is_refused(u):
    # The weights e**(L - u) pile onto the largest draw of L: at u >= 20 the
    # ESS of 10**5 draws was 1.9, and at u = 10 the interval covered in 128
    # of 200 seeds at an ESS share of 1.3%.  Two laws of one light tail are
    # now refused at every level, before any draw.
    est = _exp_exp_level(u, 10 ** 5)
    assert isinstance(est, DomainError) and re.fullmatch(_TIE, str(est))


@pytest.mark.parametrize("u,refused", [(3.0, False), (5.0, False), (10.0, True), (20.0, True)])
def test_a_level_of_a_near_tie_covers_or_is_refused_for_its_ess(u, refused):
    # weibull(1,2) + weibull(2,2) is no tie (K = 1 is the heavier), but the
    # drawn law reaches u / 3, where the weights are largest, ever more
    # rarely: at u = 10 the ESS of 10**5 draws is 1.03.
    n = 10 ** 5
    est = _level("weibull(1,2)", "weibull(2,2)", u, n)
    if refused:
        assert isinstance(est, DomainError) and re.fullmatch(
            rf"conditional estimate at u = {u!r}: effective sample size [0-9.]+ of "
            rf"n = {n} is below 0\.0001 n; no normal interval backs it", str(est))
    else:
        exact = math.exp(sf_sum_exact(tw.make_model("weibull(1,2)"),
                                      tw.make_model("weibull(2,2)"), u))
        assert est.ci_lo <= exact <= est.ci_hi and est.ess >= 1e-4 * n


def test_weights_below_the_doubles_squared_never_give_a_zero_width_interval(monkeypatch):
    # At u = 400 every squared weight of Exp(1) exact, weibull(1,2) drawn is
    # below the doubles; the direct sums once gave the interval
    # [p_hat, p_hat].  The sums are now retaken at a power-of-two scale.
    scales = []
    sums = montecarlo._sums

    def record(w, centered=False):
        scales.append(sums(w, centered))
        return scales[-1]

    monkeypatch.setattr(montecarlo, "_sums", record)
    est = _level("weibull(1,1)", "weibull(1,2)", 400.0, 2000)
    assert [k for *_, k in scales] == [-573] and est.ess > 1500
    assert est.ci_lo < est.p_hat < est.ci_hi
    exact = math.exp(sf_sum_exact(tw.make_model("weibull(1,1)"), tw.make_model("weibull(1,2)"),
                                  400.0))
    assert est.ci_lo <= exact <= est.ci_hi


def test_a_light_pair_level_at_u_400_covers_or_is_refused():
    # The 2,000 draws' ESS was 40.3, above any floor that keeps the mc-bm
    # levels (ESS 1.1% of n), and log p_hat was -397.83 against -394.01.
    est = _exp_exp_level(400.0, 2000)
    assert isinstance(est, DomainError) or est.ci_lo <= 401.0 * math.exp(-400.0) <= est.ci_hi


def test_conditional_and_path_means_are_the_helpers_output_on_their_sums(monkeypatch):
    # One block of one part: the weights' sums as the estimator takes them.
    x, y = tw.make_model("weibull(1,2)"), tw.make_model("pareto(1,2)")
    exact, sampled = _heavy_first(x, y)
    draws = np.asarray(sampled.sample(block_rng(8, 0), 1000), dtype=float)
    level = montecarlo._add((0.0, 0.0, montecarlo._NO_MASS),
                            montecarlo._sums(np.exp(exact.log_sf(30.0 - draws))))
    p, lo, hi, ess = montecarlo._mean_interval(level, 1000, "level")
    est = tw.conditional_sf(x, y, "sum", [30.0], 1000, seed=8)[0]
    assert (est.p_hat, est.ci_lo, est.ci_hi, est.ess) == (p, max(0.0, lo), min(1.0, hi), ess)
    # A path mean: the same helper on the sums of its values about their mean.
    values = []

    def record(*args):
        values.append(path_values(*args))
        return values[-1]

    path_values = gp.estimators._path_values
    monkeypatch.setattr(gp.estimators, "_path_values", record)
    est = gp.pickands_estimate(1.4, 3.0, 70, 64, seed=8)
    sums = montecarlo._sums(values[0], centered=True)
    assert (est.value, est.ci_lo, est.ci_hi, est.ess) == montecarlo._mean_interval(
        sums, 70, "path", centered=True)


# ---------------------------------------------------------------------------
# Level-major blocks against the (draws x levels) broadcast they replaced
# ---------------------------------------------------------------------------

def _blocks(n):
    """(block index, draw count) of the n draws, in block order."""
    return [(b, min(BLOCK_SIZE, n - b * BLOCK_SIZE)) for b in range(-(-n // BLOCK_SIZE))]


def _broadcast_estimate_sf(x, y, combine, grid, n, seed):
    """Reference: every block compared against the whole grid at once."""
    grid = np.asarray(grid, dtype=float)
    counts = np.zeros(len(grid), dtype=np.int64)
    for b, count in _blocks(n):
        rng = block_rng(seed, b)
        xs = x.sample(rng, count)
        if y is not None:
            ys = y.sample(rng, count)
            xs = xs + ys if combine == "sum" else xs * ys
        counts += (xs[:, None] > grid[None, :]).sum(axis=0)
    return [TailEstimate(float(u), k / n, *wilson_interval(int(k), n), n, "direct", float(n))
            for u, k in zip(grid, counts)]


def _broadcast_conditional_sf(x, y, op, grid, n, seed):
    """Reference: one (draws x levels) array of exact SF values per block."""
    exact, sampled = _heavy_first(x, y)
    grid = np.asarray(grid, dtype=float)
    s1 = np.zeros(len(grid))
    s2 = np.zeros(len(grid))
    for b, count in _blocks(n):
        draws = np.asarray(sampled.sample(block_rng(seed, b), count), dtype=float)
        if op == "sum":
            args = grid[None, :] - draws[:, None]
        else:
            args = grid[None, :] / np.maximum(draws[:, None], 1e-320)
        w = np.exp(exact.log_sf(args))
        s1 += w.sum(axis=0)
        s2 += (w * w).sum(axis=0)
    out = []
    for u, t1, t2 in zip(grid, s1, s2):
        p = t1 / n
        if t1 > 0.0:
            half = _Z95 * math.sqrt(max(t2 / n - p * p, 0.0) / n)
            lo, hi = max(0.0, p - half), min(1.0, p + half)
        else:
            lo, hi = wilson_interval(0, n)
        out.append(TailEstimate(float(u), p, lo, hi, n, "conditional", t1 * t1 / t2 if t2 else 0.0))
    return out


_OPERANDS = {"sum": ("weibull(1,2)", "pareto(1,2)"), "product": ("lognormal(0,1)", "pareto(1,2)")}
# A constant law draws nothing from the stream: X + 0 and X * 1 count as X alone.
_NEUTRAL = {"sum": "constant(0)", "product": "constant(1)"}
_GRIDS = {"sum": [[30.0], [2.0, 5.0, 10.0, 30.0, 100.0, 300.0, 1000.0]],
          "product": [[100.0], [1.0, 3.0, 10.0, 100.0, 300.0, 1000.0, 2700.0]]}
_SIZES = (1000, BLOCK_SIZE, BLOCK_SIZE + 1, 50_000)


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("op", ["sum", "product"])
@pytest.mark.parametrize("with_y", [False, True])
def test_direct_estimate_equals_the_broadcast_counts(n, op, with_y):
    x, y = (tw.make_model(s) for s in _OPERANDS[op])
    partner = y if with_y else tw.make_model(_NEUTRAL[op])
    for grid in _GRIDS[op]:
        expected = _broadcast_estimate_sf(x, y if with_y else None, op, grid, n, seed=17)
        for workers in (1, 2, None):
            assert tw.estimate_sf(x, partner, op, grid, n, seed=17, workers=workers) == expected


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("op", ["sum", "product"])
def test_conditional_estimate_matches_the_broadcast_sums(n, op):
    # Only the order of each block's sums changed (pairwise/BLAS against
    # sequential along the draws), so the values agree to round-off.
    x, y = (tw.make_model(s) for s in _OPERANDS[op])
    for grid in _GRIDS[op]:
        expected = _broadcast_conditional_sf(x, y, op, grid, n, seed=17)
        runs = [tw.conditional_sf(x, y, op, grid, n, seed=17, workers=w)
                for w in (1, 2, 8, None)]
        assert runs[0] == runs[1] == runs[2] == runs[3]
        for got, ref in zip(runs[0], expected):
            assert (got.u, got.n, got.method) == (ref.u, ref.n, ref.method)
            for field in ("p_hat", "ci_lo", "ci_hi", "ess"):
                assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-12)


def _traced_peak(estimator, levels):
    """Bytes an estimator call at 50,000 draws holds at most, once warmed up."""
    x, y = tw.make_model("weibull(1,2)"), tw.make_model("pareto(1,2)")
    grid = list(np.geomspace(10.0, 1000.0, levels))
    estimator(x, y, "sum", grid, 50_000, seed=3, workers=1)  # warm caches
    tracemalloc.start()
    try:
        estimator(x, y, "sum", grid, 50_000, seed=3, workers=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimator", [tw.estimate_sf, tw.conditional_sf])
def test_estimator_memory_does_not_grow_with_the_grid(estimator):
    assert _traced_peak(estimator, 64) <= 1.25 * _traced_peak(estimator, 1)


@pytest.mark.parametrize("estimator", [tw.estimate_sf, tw.conditional_sf])
def test_estimator_peak_memory_is_about_two_blocks(estimator):
    # estimate_sf holds a block's two draw arrays (128 KiB each), combined
    # in place; conditional_sf one block of draws, a half-block buffer and
    # one half-block of log SF values.  With a new array for each step of
    # the samplers and estimators they peaked at 514 and 396 KiB.
    assert _traced_peak(estimator, 5) <= 2.25 * BLOCK_SIZE * 8


def test_block_rng_streams_are_stable():
    a = block_rng(1, 0).standard_normal(4)
    b = block_rng(1, 0).standard_normal(4)
    c = block_rng(1, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 5, 2 ** 32 + 3, 2 ** 63, 2 ** 64 - 1])
def test_block_rng_is_the_spawned_child_of_the_seed(seed):
    kids = np.random.SeedSequence(seed).spawn(66)
    for index in (0, 1, 63, 64, 65):
        child = np.random.Generator(np.random.SFC64(kids[index]))
        assert np.array_equal(block_rng(seed, index).standard_normal(9), child.standard_normal(9))


def test_seed_and_index_words_never_run_together():
    # SeedSequence([seed, index]) gives both pairs the entropy words [1, 5, 7].
    a = block_rng(5 * 2 ** 32 + 1, 7).random(4)
    b = block_rng(1, 7 * 2 ** 32 + 5).random(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 2, None])
@pytest.mark.parametrize("estimator", ["pickands", "econst", "sup"])
def test_path_i_is_draw_i_mod_64_of_its_chunks_stream(monkeypatch, estimator, workers):
    # 66 paths cross the first chunk edge.  Path i starts where path i - 1
    # of its chunk left block_rng(seed, i // 64), or at that stream's start
    # for i mod 64 = 0.
    seed, n_paths, n_steps = 2 ** 63 + 7, 66, 32
    drawn = {}  # the generator's state at the path's start -> the path drawn

    def spy(draw):
        def path(H, n, T, rng, work=None):
            start = repr(rng.bit_generator.state)
            out = draw(H, n, T, rng, work)
            drawn.setdefault(start, []).append(out.copy())
            return out
        return path

    monkeypatch.setattr(gp.estimators, "fbm_path", spy(gp.fbm_path))
    run, reference = {
        "pickands": (
            lambda: gp.pickands_estimate(1.4, 2.0, n_paths, n_steps, seed=seed, workers=workers),
            lambda rng: gp.fbm_path(0.7, 2 * n_steps, 4.0, rng)),
        "econst": (
            lambda: gp.econst_estimate("fbm", 1.0, 1.0, 2.0, n_paths, n_steps, seed=seed,
                                       H=0.3, workers=workers),
            lambda rng: gp.fbm_path(0.3, n_steps, 2.0, rng)),
        "sup": (
            lambda: gp.sup_exceedance_mc([0.5], 2.0, n_steps, n_paths, seed, workers=workers),
            lambda rng: gp.fbm_path(0.5, n_steps, 2.0, rng)),
    }[estimator]
    run()
    assert len(drawn) == n_paths
    for c in range(2):
        rng = block_rng(seed, c)
        for _ in range(min(64, n_paths - 64 * c)):
            start = repr(rng.bit_generator.state)
            assert len(drawn[start]) == 1
            assert np.array_equal(drawn[start][0], reference(rng))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("estimator", ["pickands", "econst", "sup"])
def test_a_path_estimate_keys_one_stream_per_chunk(monkeypatch, estimator, workers):
    # Path i once keyed stream (seed, i) of its own, and before that each
    # chunk of 64 paths also keyed one it never drew from.
    calls = []

    def counted(seed, index):
        calls.append(index)
        return block_rng(seed, index)

    monkeypatch.setattr(montecarlo, "block_rng", counted)
    n_paths = 130
    {"pickands": lambda: gp.pickands_estimate(1.4, 2.0, n_paths, 16, seed=3, workers=workers),
     "econst": lambda: gp.econst_estimate("fbm", 1.0, 1.0, 2.0, n_paths, 16, seed=3, H=0.3,
                                          workers=workers),
     "sup": lambda: gp.sup_exceedance_mc([0.5], 2.0, 16, n_paths, 3, workers=workers),
     }[estimator]()
    assert sorted(calls) == list(range(math.ceil(n_paths / 64)))


@pytest.mark.parametrize("n", [1, 8, 9, 29])
@pytest.mark.parametrize("workers", [1, 3])
def test_map_blocks_keys_each_block_and_keeps_block_order(n, workers):
    # Blocks of 8 units: n = 1, size, size + 1 and 3 * size + 5.
    def first_draws(rng, start, count):
        return start, count, rng.standard_normal(3)

    blocks = _map_blocks(first_draws, n, 8, 21, workers)
    assert [(start, count) for start, count, _ in blocks] == [
        (b * 8, min(8, n - b * 8)) for b in range(-(-n // 8))]
    for b, (_, _, draws) in enumerate(blocks):
        assert np.array_equal(draws, block_rng(21, b).standard_normal(3))


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield node, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_only_montecarlo_constructs_a_generator():
    # Every stream is keyed, and every pool sized, by the one rule in
    # montecarlo; a generator or a pool built anywhere else would bypass it.
    makers = {"Philox", "SFC64", "SeedSequence", "Generator", "default_rng",
              "ThreadPoolExecutor"}
    src = Path(tw.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        if path.name == "montecarlo.py" and path.parent == src:
            continue
        found += [f"{path.relative_to(src)}:{node.lineno} {name}"
                  for node, name in _called_names(ast.parse(path.read_text()))
                  if name in makers]
    assert found == []
    # Inside montecarlo, the one pool is the block map's, which the tail
    # estimators and the path estimators share.
    module = ast.parse((src / "montecarlo.py").read_text())
    pools = [fn.name for fn in module.body if isinstance(fn, ast.FunctionDef)
             for _, name in _called_names(fn) if name == "ThreadPoolExecutor"]
    assert pools == ["_map_blocks"]


def test_resolve_workers_honors_env_cap(monkeypatch):
    # The default is the CPUs the process may run on; a count is capped by
    # them and by TAILWARD_THREADS.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.delenv("TAILWARD_THREADS", raising=False)
    assert [resolve_workers(k) for k in (None, 1, 8)] == [4, 1, 4]
    monkeypatch.setenv("TAILWARD_THREADS", "2")
    assert [resolve_workers(k) for k in (None, 1, 8)] == [2, 1, 2]
    monkeypatch.setenv("TAILWARD_THREADS", "8")
    assert [resolve_workers(k) for k in (None, 1, 3, 16)] == [4, 1, 3, 4]
    for k in (0, -1):
        with pytest.raises(SpecError, match="workers must be at least 1"):
            resolve_workers(k)
    # Without an affinity mask, the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delenv("TAILWARD_THREADS")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert resolve_workers(None) == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers(None) == 1


@pytest.mark.parametrize("cap", ["0", "-2", "", "x", "1.5"])
def test_a_malformed_thread_cap_is_refused(monkeypatch, cap):
    # Each was once ignored, or ("0", "-2") taken as 1.
    monkeypatch.setenv("TAILWARD_THREADS", cap)
    with pytest.raises(SpecError, match="TAILWARD_THREADS must be a positive integer"):
        resolve_workers(None)


@pytest.mark.parametrize("n_blocks", [1, 2, 9])
@pytest.mark.parametrize("workers", [None, 1, 3, 10 ** 6])
def test_map_blocks_asks_for_no_more_threads_than_blocks_and_cpus(monkeypatch, n_blocks,
                                                                  workers):
    # A fake pool records the size it is asked for and starts no thread.
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.delenv("TAILWARD_THREADS", raising=False)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", FakePool)
    blocks = _map_blocks(lambda rng, start, count: start, 8 * n_blocks, 8, 0, workers)
    assert blocks == [8 * b for b in range(n_blocks)]
    expected = min(n_blocks, 4 if workers is None else workers, 4)
    assert (asked or [1]) == [expected]


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
def test_a_seed_outside_the_key_range_is_refused(seed):
    # The key was once seed mod 2**64: seeds 5 and 2**64 + 5, or -1 and
    # 2**64 - 1, gave the same stream under different recorded seeds.
    with pytest.raises(SpecError, match=r"seed must be in \[0, 2\*\*64\)"):
        block_rng(seed, 0)
    with pytest.raises(SpecError, match=r"seed must be in \[0, 2\*\*64\)"):
        gp.econst_estimate("bm", alpha=1.0, beta=1.0, T=1.0, n_paths=2, n_steps=4, seed=seed)


# ---------------------------------------------------------------------------
# Calibration: each accepted row covers the quadrature tail in >= 180 of 200
# seeds (the 99%-level binomial bound on 95% intervals); a refused row passes
# ---------------------------------------------------------------------------

_NEAR_TIES = "the weights' normal interval under-covers before its ESS is small"
_CALIBRATION_ROWS = [
    ("conditional_sf", "normal", "weibull(1,1)", "sum", 10.0),
    ("conditional_sf", "normal", "weibull(1,1)", "sum", 20.0),
    ("conditional_sf", "weibull(1,2)", "normal", "sum", 3.0),
    ("conditional_sf", "weibull(1,2)", "normal", "sum", 5.0),
    ("conditional_sf", "weibull(1,1)", "weibull(1,2)", "sum", 12.0),
    ("conditional_sf", "weibull(1,2)", "edge(0,1)", "sum", 4.0),
    ("conditional_sf", "weibull(1,2)", "pareto(1,2)", "sum", 10.0),
    ("conditional_sf", "weibull(1,2)", "pareto(1,2)", "sum", 100.0),
    ("conditional_sf", "weibull(1,2)", "pareto(1,2)", "sum", 1000.0),
    ("conditional_sf", "lognormal(0,1)", "weibull(1,1)", "product", 30.0),
    ("conditional_sf", "weibull(1,1)", "weibull(1,1)", "sum", 3.0),
    ("conditional_sf", "weibull(1,1)", "weibull(1,1)", "sum", 5.0),
    ("conditional_sf", "weibull(1,1)", "weibull(1,1)", "sum", 10.0),
    # 174 and 179 of 200: a sample-side check is still to come.
    pytest.param("conditional_sf", "weibull(1,2)", "weibull(2,2)", "sum", 4.0,
                 marks=pytest.mark.xfail(strict=True, reason=_NEAR_TIES)),
    pytest.param("conditional_sf", "lognormal(0,1)", "pareto(1,2)", "product", 100.0,
                 marks=pytest.mark.xfail(strict=True, reason=_NEAR_TIES)),
    ("estimate_sf", "weibull(1,1)", "weibull(1,1)", "sum", 5.0),
    ("estimate_sf", "normal", "normal", "sum", 2.0),
    ("estimate_sf", "lognormal(0,1)", "pareto(1,2)", "product", 10.0),
]


@pytest.mark.slow
@pytest.mark.parametrize("estimator,xs,ys,op,u", _CALIBRATION_ROWS)
def test_tail_estimator_intervals_cover_over_200_seeds(estimator, xs, ys, op, u):
    x, y = tw.make_model(xs), tw.make_model(ys)
    truth = math.exp((sf_sum_exact if op == "sum" else sf_product_exact)(x, y, u))
    covered = refused = 0
    for seed in range(1000, 1200):
        try:
            est = getattr(tw, estimator)(x, y, op, [u], 2000, seed, workers=1)[0]
        except DomainError:
            refused += 1
            continue
        covered += est.ci_lo <= truth <= est.ci_hi
    # Exp(1) + Exp(1) is a tie of one light tail: conditional_sf refuses it.
    assert refused == (200 if estimator == "conditional_sf" and xs == ys else 0)
    assert refused == 200 or covered >= 180, covered
