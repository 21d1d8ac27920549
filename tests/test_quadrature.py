"""Log-space adaptive quadrature against closed-form integrals."""

import math
from functools import partial

import numpy as np
import pytest

from tailward import make_model, quadrature
from tailward.errors import QuadratureFailure
from tailward.oracle import sf_product_exact, sf_sum_exact
from tailward.quadrature import (
    _row_log_abs_diff,
    _row_logsumexp,
    log1mexp,
    log_quad,
    log_quad_result,
    logsumexp_pair,
)


def test_exponential_on_half_line():
    val = log_quad(lambda x: -x, 0.0, math.inf)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_gaussian_full_line():
    val = log_quad(lambda x: -0.5 * np.log(2 * np.pi) - x * x / 2.0, -math.inf, math.inf)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_deep_tail_value_beyond_double_underflow():
    # int_0^inf exp(-a x) dx with the integrand shifted down by 5000 nats:
    # the log result must come back exact even though exp() would be 0.
    shift = 5000.0
    val = log_quad(lambda x: -2.0 * x - shift, 0.0, math.inf)
    assert val == pytest.approx(math.log(0.5) - shift, rel=1e-12)


def test_integrable_endpoint_singularity():
    # int_0^1 x^(-1/2) dx = 2
    val = log_quad(lambda x: -0.5 * np.log(np.maximum(x, 1e-320)), 0.0, 1.0)
    assert val == pytest.approx(math.log(2.0), abs=1e-9)


def test_empty_interval_is_log_zero():
    assert log_quad(lambda x: -x, 2.0, 2.0) == -math.inf


def test_zero_integrand_is_log_zero():
    assert log_quad(lambda x: np.full_like(x, -np.inf), 0.0, 1.0) == -math.inf


def test_breakpoints_split_a_step_integrand():
    def log_f(x):
        return np.where(x < 1.0, 0.0, -np.inf)

    val = log_quad(log_f, 0.0, 5.0, breakpoints=[1.0])
    assert val == pytest.approx(0.0, abs=1e-10)


def test_budget_exhaustion_raises_with_achieved_error(monkeypatch):
    # A wild oscillatory-magnitude integrand with a tiny node budget.
    def log_f(x):
        return np.sin(50 * x) * 30.0

    monkeypatch.setattr(quadrature, "_MAX_NODES", 60)
    with pytest.raises(QuadratureFailure, match="quadrature stalled at relative error"):
        log_quad(log_f, 0.0, 1.0, rtol=1e-13)
    res = log_quad_result(log_f, 0.0, 1.0, rtol=1e-13)
    assert not res.converged and res.n_nodes <= 60 and res.rel_error > 1e-13


def test_result_object_reports_convergence():
    res = log_quad_result(lambda x: -x, 0.0, math.inf, rtol=1e-10)
    assert res.converged
    assert res.rel_error <= 1e-10
    assert res.n_nodes >= 15


def test_heavy_tail_with_infinite_limit():
    # int_1^inf x^-2.5 dx = 2/3
    val = log_quad(lambda x: -2.5 * np.log(x), 1.0, math.inf)
    assert val == pytest.approx(math.log(2.0 / 3.0), rel=1e-9)


def test_nodes_beyond_the_doubles_do_not_warn():
    # int_0^inf (1+x)^-1.01 dx = 100.  The half-line map sends nodes to 1/0
    # and halves panels to width 0; that once raised a RuntimeWarning.
    res = log_quad_result(lambda x: -1.01 * np.log1p(x), 0.0, math.inf)
    assert not res.converged or res.log_value == pytest.approx(math.log(100.0), rel=1e-9)


def test_logsumexp_pair_basics():
    assert logsumexp_pair(-math.inf, -3.0) == -3.0
    assert logsumexp_pair(0.0, 0.0) == pytest.approx(math.log(2.0))


def test_log1mexp_stability():
    assert log1mexp(-1e-18) == pytest.approx(math.log(1e-18), rel=1e-6)
    assert log1mexp(-50.0) == pytest.approx(-math.exp(-50.0), rel=1e-6)
    assert log1mexp(0.0) == -math.inf


def test_stopping_test_holds_at_huge_log_values():
    # At |log value| ~ 1e19, total + log(rtol) rounds back to total, so a
    # sum-form test would accept any error; the integral is e^-1e19 * ~1e-19.
    res = log_quad_result(lambda x: -1e19 * (1.0 + x), 0.0, 1.0, rtol=1e-9)
    assert res.converged
    assert res.log_value == -1e19
    assert res.rel_error <= 1e-9


def _quad(log_f, a, b, **kwargs):
    res = log_quad_result(log_f, a, b, **kwargs)
    return res.log_value, res.log_error, res.n_nodes, res.converged


def _sqrt_kink(x):
    return 0.5 * np.log(np.abs(x - 1.0)) - x


def _normal(x):
    return -0.5 * np.log(2 * np.pi) - x * x / 2.0


_LOGNORMAL, _PARETO = make_model("lognormal(0,1)"), make_model("pareto(1,2)")
_WEIBULL = make_model("weibull(1,2)")
_ULP = 2.0 ** -52

# (log_value, log_error, n_nodes, converged) for one integral of each panel
# mix: both half-line maps, each alone, a one-split-per-round chain, bounded
# integrals seeded with breakpoints (repeated, outside the interval, at its
# ends, none at all) and both lines with cuts; then one oracle level of each
# flat benchmark pair, whose seeding cuts its decades to the interval.
# Compared with ==: a reduction that sums in another order, or a seeding
# that keeps another set of cuts, moves the last digit and fails here.
PINNED = {
    "exp-half-line": (partial(_quad, lambda x: -x, 0.0, math.inf),
                      (-2.6645352591003757e-15, -25.828064440396826, 225, True)),
    "normal-full-line": (partial(_quad, _normal, -math.inf, math.inf),
                         (-2.6645352591003757e-15, -28.35606242635742, 510, True)),
    "exp-negative-half-line": (partial(_quad, lambda x: x, -math.inf, 0.0),
                               (-2.6645352591003757e-15, -25.828064440396826, 225, True)),
    "power-2.5-chain": (partial(_quad, lambda x: -2.5 * np.log(x), 1.0, math.inf, rtol=1e-9),
                        (-0.4054651080809392, -21.880683476582035, 405, True)),
    "sqrt-kink-breakpoints": (partial(_quad, _sqrt_kink, 0.0, 4.0, breakpoints=[1.0, 2.5]),
                              (-0.28560759525775803, -23.914871951097435, 975, True)),
    "duplicate-breakpoints": (
        partial(_quad, _sqrt_kink, 0.0, 4.0, breakpoints=[2.5, 1.0, 2.5, 1.0, 1.0]),
        (-0.28560759525775803, -23.914871951097435, 975, True)),
    "breakpoints-outside-and-at-ends": (
        partial(_quad, _sqrt_kink, 0.0, 4.0,
                breakpoints=[-3.0, 0.0, 1.0, 4.0, 9.0, math.inf, -math.inf]),
        (-0.2856075952584757, -24.172628688411717, 1020, True)),
    "all-breakpoints-outside": (
        partial(_quad, lambda x: -x, 0.0, 4.0, breakpoints=(-1.0, 5.0)),
        (-0.018485446825889595, -25.324916414542436, 15, True)),
    "empty-breakpoint-array": (
        partial(_quad, _sqrt_kink, 0.0, 4.0, breakpoints=np.zeros(0)),
        (-0.2856075952586873, -24.261754853799022, 1005, True)),
    "half-line-with-cuts": (
        partial(_quad, lambda x: -2.5 * np.log(x), 1.0, math.inf, rtol=1e-9,
                breakpoints=np.array([10.0, 1e3, 1.0, 0.5, 1e5])),
        (-0.40546510777551714, -23.551345608364315, 1020, True)),
    "negative-half-line-with-cuts": (
        partial(_quad, lambda x: x, -math.inf, 0.0, breakpoints=(-30.0, -1.0, -5.0, 2.0)),
        (-2.7200464103316335e-15, -24.655702424227652, 150, True)),
    "full-line-with-cuts": (
        partial(_quad, _normal, -math.inf, math.inf, breakpoints=[3.0, -2.0, 0.0]),
        (-2.6645352591003757e-15, -28.322054983288712, 390, True)),
    "full-line-empty-cut-array": (
        partial(_quad, _normal, -math.inf, math.inf, breakpoints=np.array([])),
        (-2.6645352591003757e-15, -28.35606242635742, 510, True)),
    "level-sum-weibull-edge-u4": (
        partial(sf_sum_exact, _WEIBULL, make_model("edge(0,1)"), 4.0), -18.108660278008337),
    "level-product-weibull-edge-u12": (
        partial(sf_product_exact, _WEIBULL, make_model("edge(2,1)"), 12.0), -39.62332464191253),
    "level-product-lognormal-pareto-u1e3": (
        partial(sf_product_exact, _LOGNORMAL, _PARETO, 1e3), -11.815510685404245),
    "level-product-lognormal-pareto-u1e12": (
        partial(sf_product_exact, _LOGNORMAL, _PARETO, 1e12), -53.2620422318571),
    "level-product-lognormal-pareto-u1e300": (
        partial(sf_product_exact, _LOGNORMAL, _PARETO, 1e300), -1379.5510557964274),
    "level-sum-weibull-pareto-u1e3": (
        partial(sf_sum_exact, _WEIBULL, _PARETO, 1e3), -13.81373667305055),
    # One integral per masked branch of a round, pinned before the common
    # case lost its masks.  Panels right of the step hold only -inf, so
    # their row maxima are -inf.
    "step-without-breakpoint": (
        partial(_quad, lambda x: np.where(x < 1.3, 0.0, -np.inf), 0.0, 5.0),
        (0.26236426440951244, -22.83230970147526, 945, True)),
    # A 1-ulp panel is final at once; the other panel halves down to 1 ulp.
    "panels-at-resolution": (
        partial(_quad, lambda x: -x, 1.0, 1.0 + 8 * _ULP, rtol=1e-17,
                breakpoints=[1.0 + _ULP]),
        (-34.964211847437326, -67.54212933375474, 210, False)),
    # Half-line panels that reach t = 1 put nodes at x = inf (+inf values).
    "half-line-nodes-beyond-doubles": (
        partial(_quad, lambda x: x, 0.0, math.inf),
        (9007199254741028.0, 281474976710683.9, 1455, True)),
    "half-line-flat-nodes-beyond-doubles": (
        partial(_quad, lambda x: np.zeros_like(x), 0.0, math.inf),
        (36.54135369157065, 10.299857355018084, 174075, True)),
    # log of a negative number left of 1: NaN values, dropped as -inf.
    "nan-integrand": (
        partial(_quad, lambda x: 0.5 * np.log(x - 1.0), 0.0, 4.0),
        (1.242453324899237, -21.880058181864985, 495, True)),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_results_are_pinned_to_the_bit(name):
    call, expected = PINNED[name]
    assert call() == expected



def _reference_row_logsumexp(v):
    # The round's reductions as they were with every row masked.
    m = np.maximum.reduce(v, axis=1)
    ok = np.isfinite(m)
    s = np.add.reduce(np.exp(v - np.where(ok, m, 0.0)[:, None]), axis=1)
    return m + np.log(s, out=np.zeros(len(s)), where=ok)


def _reference_row_log_abs_diff(a, b):
    hi = np.maximum(a, b)
    d = np.minimum(np.minimum(a, b) - np.where(hi > -np.inf, hi, 0.0), -1e-300)
    return np.where(a == b, -np.inf, hi + np.log(-np.expm1(d)))


def _mixed_rows(rng, shape, special_frac):
    # Finite values over a wide range, with +-inf and NaN scattered in.
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pick = rng.random(shape)
    v[pick < special_frac] = -np.inf
    v[(pick >= special_frac) & (pick < 1.5 * special_frac)] = np.inf
    v[(pick >= 1.5 * special_frac) & (pick < 2.0 * special_frac)] = np.nan
    return v


@pytest.mark.parametrize("seed", range(6))
def test_row_reductions_match_the_masked_reference_bitwise(seed):
    # Each draw goes in twice: as drawn, and cleaned the way the kernel
    # cleans node values (NaN and +inf become -inf), which keeps most row
    # maxima finite.  A whole row of -inf is the zero panel.
    rng = np.random.default_rng(seed)
    for shape in ((1, 15), (40, 15), (33, 7), (2, 57)):
        for frac in (0.0, 0.02, 0.2):
            v = _mixed_rows(rng, shape, frac)
            a, b = _mixed_rows(rng, shape[0], frac), _mixed_rows(rng, shape[0], frac)
            b[::3] = a[::3]  # equal pairs, finite and infinite
            clean = [np.where(np.isfinite(arr), arr, -np.inf) for arr in (v, a, b)]
            cases = [(v, a, b), tuple(clean)]
            if shape[0] > 1:
                zero = [arr.copy() for arr in clean]
                for arr in zero:
                    arr[0] = -np.inf
                cases.append(tuple(zero))
            for v, a, b in cases:
                # Rows without a finite maximum may overflow in exp; the
                # masked path discards those terms, as it always has.
                with np.errstate(invalid="ignore", over="ignore"):
                    want = _reference_row_logsumexp(v)
                    got = _row_logsumexp(v)
                assert got.tobytes() == want.tobytes()
                with np.errstate(invalid="ignore", over="ignore"):
                    want = _reference_row_log_abs_diff(a, b)
                    got = _row_log_abs_diff(a, b)
                assert got.tobytes() == want.tobytes()
