"""Trend constants, closed tail forms and their internal identities."""

import math

import numpy as np
import pytest

import tailward as tw
from tailward.errors import (
    AssumptionError,
    BoundaryCase,
    DomainError,
    MissingEConstant,
    MissingPickands,
    SpecError,
)
from tailward.gp_extremes import (
    TrendModel,
    bm_sup_ratio_moment,
    pickands_exact,
    random_trend_tail,
    trend_constants,
    trend_tail,
    trend_tail_asymptotic,
)
from tailward.specfun import log_norm_sf


def eta_tail(delta, C, mu):
    """The slope's lower edge P(eta < delta + x) ~ C * x**mu, as the upper tail of -eta."""
    return tw.EdgePower(C, -delta, mu)


def test_brownian_constants_reference_values():
    k = trend_constants(TrendModel.fbm(0.5, 1.0), 1.0)
    assert k.K_s == pytest.approx(1.0)
    assert k.K_A == pytest.approx(2.0)
    assert k.K_B == pytest.approx(0.5)
    assert k.K_D == pytest.approx(1.0)
    assert k.K == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)


def test_constants_scaling_identities_hold_exactly():
    model = TrendModel.fbm(H=0.75, beta=2.0, pickands=0.7)
    for c in (0.5, 1.0, 4.0):
        k = trend_constants(model, c)
        assert k.s0 == pytest.approx(k.K_s * c ** (-1 / k.beta), rel=1e-14)
        assert k.A == pytest.approx(k.K_A * c ** (k.H / k.beta), rel=1e-14)
        assert k.B == pytest.approx(k.K_B * c ** ((k.H + 2) / k.beta), rel=1e-14)
        assert k.C == pytest.approx(
            k.K * c ** ((k.H / k.beta) * (2 / k.alpha_loc - 2)), rel=1e-14
        )
        assert math.isfinite(k.K) and k.K > 0


def test_missing_pickands_raises():
    model = TrendModel.fbm(H=0.75, beta=2.0)  # alpha_loc = 1.5, no value
    with pytest.raises(MissingPickands):
        trend_constants(model, 1.0)


def test_exact_pickands_values():
    assert pickands_exact(1.0) == 1.0
    assert pickands_exact(2.0) == pytest.approx(1 / math.sqrt(math.pi))
    assert pickands_exact(1.5) is None


def test_brownian_density_form_is_exact_exponential():
    # Unit slope, Brownian: the density form collapses to exp(-2u) exactly.
    m = TrendModel.fbm(0.5, 1.0)
    for u in (0.5, 3.0, 20.0):
        v = trend_tail_asymptotic(m, 1.0, u)
        assert v.log_g == pytest.approx(-2.0 * u, rel=1e-12)


def test_tail_forms_converge_to_each_other():
    m = TrendModel.fbm(0.5, 1.0)
    devs = [
        abs(math.exp(trend_tail_asymptotic(m, 1.0, u).log_f
                     - trend_tail_asymptotic(m, 1.0, u).log_g) - 1.0)
        for u in (2.0, 8.0, 32.0)
    ]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.01


def _random_draws():
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(10):
        H = rng.uniform(0.15, 0.85)
        beta = H + rng.uniform(0.2, 2.0)
        a = rng.uniform(0.3, 2.0)
        model = TrendModel(
            H=H, beta=beta, alpha_loc=a, d_ref=(1.0, rng.uniform(0.5, 2.0)),
            pickands=rng.uniform(0.4, 1.2),
        )
        draws.append((model, rng.uniform(0.5, 4.0), rng.uniform(1.0, 10.0)))
    return draws


def test_scaling_identity_ten_random_draws():
    for model, c, u in _random_draws():
        H, beta = model.H, model.beta
        v_c = trend_tail_asymptotic(model, c, u)
        v_1 = trend_tail_asymptotic(model, 1.0, c ** (H / (beta - H)) * u)
        assert abs(v_c.log_g - v_1.log_g) < 1e-12
        assert abs(v_c.log_f - v_1.log_f) < 1e-12


def _log_f_display(model, c, u):
    """The exact-tail form as displayed separately for alpha_loc < 2 and = 2."""
    k = trend_constants(model, c)
    a = model.alpha_loc
    one_minus_h = 1.0 - model.H / model.beta
    arg = k.A * u ** one_minus_h
    d_s0 = model.d_at(k.s0)
    if a < 2.0:
        log_coeff = (
            math.log(k.pickands) + 0.5 * math.log(math.pi) + math.log(d_s0) / a
            - 0.5 * math.log(k.B) - (1.0 / a - 0.5) * math.log(2.0)
            + (2.0 / a - 0.5) * math.log(k.A)
        )
        return log_coeff + one_minus_h * (2.0 / a - 1.0) * math.log(u) \
            + log_norm_sf(arg)
    return math.log(2.0) + 0.5 * math.log((k.A * d_s0 + k.B) / k.B) \
        + log_norm_sf(arg)


def test_log_f_equals_the_per_alpha_displays():
    cases = _random_draws()
    for H, beta, d_val in ((0.4, 1.5, 1.0), (0.7, 1.2, 0.6), (0.2, 2.5, 1.9)):
        model = TrendModel(H=H, beta=beta, alpha_loc=2.0, d_ref=(1.0, d_val))
        cases += [(model, c, u) for c, u in ((1.0, 2.0), (3.0, 5.0), (0.5, 40.0))]
    for model, c, u in cases:
        reference = _log_f_display(model, c, u)
        assert trend_tail_asymptotic(model, c, u).log_f == pytest.approx(
            reference, rel=1e-13, abs=0.0
        )


def test_alpha_loc_two_branch_is_finite_and_scales():
    model = TrendModel(H=0.4, beta=1.5, alpha_loc=2.0, d_ref=(1.0, 1.0))
    k = trend_constants(model, 3.0)
    assert k.pickands == pytest.approx(1 / math.sqrt(math.pi))
    v = trend_tail_asymptotic(model, 3.0, 5.0)
    assert math.isfinite(v.log_f) and math.isfinite(v.log_g)
    g_1 = trend_tail_asymptotic(model, 1.0, 3.0 ** (0.4 / 1.1) * 5.0).log_g
    assert v.log_g == pytest.approx(g_1, abs=1e-12)


# ---------------------------------------------------------------------------
# Random slope
# ---------------------------------------------------------------------------

def test_zero_edge_slope_reduces_to_power_half():
    tail = random_trend_tail(TrendModel.fbm(0.5, 1.0, eta=eta_tail(0.0, 1.0, 1.0)))
    assert tail == tw.PowerTail(0.5, 1.0)


def test_zero_edge_exponent_general_parameters():
    # Exponent mu (beta - H) / H for the zero-edge case.
    model = TrendModel.fbm(H=0.25, beta=1.0, eta=eta_tail(0.0, 2.0, 1.5),
                           pickands=0.8, e_const=0.37)
    tail = random_trend_tail(model)
    assert isinstance(tail, tw.PowerTail)
    assert tail.alpha == pytest.approx(1.5 * (1.0 - 0.25) / 0.25)
    assert tail.C == pytest.approx(2.0 * 0.37)


def test_zero_edge_requires_sup_ratio_moment():
    eta = eta_tail(0.0, 1.0, 1.0)  # slope tail order mu (beta - H) / H = 3
    slope_only = TrendModel.fbm(H=0.25, beta=1.0, eta=eta, pickands=0.8)
    slope_dominates = TrendModel.fbm(H=0.25, beta=1.0, eta=eta, pickands=0.8,
                                     zeta=tw.PowerTail(1.0, 5.0))
    with pytest.raises(MissingEConstant):
        random_trend_tail(slope_only)
    for model in (slope_only, slope_dominates):
        with pytest.raises(MissingEConstant):
            trend_tail(model)


def test_brownian_sup_ratio_moment_closed_form():
    assert bm_sup_ratio_moment(2.0) == pytest.approx(0.5, rel=1e-15)
    assert bm_sup_ratio_moment(4.0) == pytest.approx(0.5, rel=1e-15)
    assert bm_sup_ratio_moment(1.0) == pytest.approx(
        2 ** -0.5 * math.gamma(1.5), rel=1e-15
    )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.7, 10.0, 100.0, 340.0, 345.0])
def test_brownian_sup_ratio_moment_is_the_weibull_moment_bit_for_bit(alpha):
    # The ratio is weibull(2, 2).  Its moment keeps the bits of the closed
    # form 2**(-alpha/2) * Gamma(alpha/2 + 1), or of its log form where
    # Gamma overflows (alpha = 345).
    weibull = tw.make_model("weibull(2,2)")
    assert bm_sup_ratio_moment(alpha) == tw.moment(weibull, alpha)
    try:
        closed = 2.0 ** (-alpha / 2.0) * math.gamma(alpha / 2.0 + 1.0)
    except OverflowError:
        closed = math.exp(-alpha / 2.0 * math.log(2.0) + math.lgamma(alpha / 2.0 + 1.0))
    assert bm_sup_ratio_moment(alpha) == closed


@pytest.mark.parametrize("alpha,error", [
    (0.0, SpecError), (-1.0, SpecError), (math.nan, SpecError), (math.inf, SpecError),
    (400.0, DomainError),
])
def test_brownian_sup_ratio_moment_refuses_as_moment_does(alpha, error):
    with pytest.raises(error, match="moment"):
        bm_sup_ratio_moment(alpha)


@pytest.mark.parametrize("eta", [
    eta_tail(-0.5, 1.0, 1.0),  # an edge above 0: eta would be negative
    tw.PowerTail(1.0, 1.0),
    tw.WeibullType(1.0, 0.0, 1.0, 2.0),
])
def test_eta_is_the_edge_tail_of_minus_eta_at_a_nonpositive_edge(eta):
    with pytest.raises(SpecError, match=r"eta must be the edge tail EdgePower\(C, -delta, mu\)"):
        TrendModel.fbm(0.5, 1.0, eta=eta)


def test_a_zero_slope_edge_of_either_sign_is_the_zero_edge_case():
    # delta is read as -sigma: an edge at -0.0 and one at 0.0 give the same tail.
    tails = [random_trend_tail(TrendModel.fbm(0.5, 1.0, eta=tw.EdgePower(1.0, s, 1.0)))
             for s in (0.0, -0.0)]
    assert tails == [tw.PowerTail(0.5, 1.0)] * 2


def test_positive_edge_slope_brownian_watson_identity():
    # delta > 0: the closed form must equal the kernel-average asymptotic
    # C_eta Gamma(mu+1) (2u)^-mu e^(-2 delta u) field by field, to 1e-12.
    for delta, c_eta, mu in ((0.3, 1.0, 1.0), (0.7, 2.0, 1.5), (1.2, 0.5, 2.0)):
        tail = random_trend_tail(TrendModel.fbm(0.5, 1.0, eta=eta_tail(delta, c_eta, mu)))
        assert isinstance(tail, tw.WeibullType)
        assert tail.C == pytest.approx(c_eta * math.gamma(mu + 1) * 2.0 ** -mu, rel=1e-12)
        assert tail.rho == pytest.approx(-mu, rel=1e-12)
        assert tail.K == pytest.approx(2.0 * delta, rel=1e-12)
        assert tail.alpha == pytest.approx(1.0, rel=1e-12)
        assert tail.shift == 0.0


def test_positive_edge_general_exponents():
    model = TrendModel.fbm(H=0.25, beta=1.0, eta=eta_tail(0.5, 1.0, 1.0), pickands=0.8)
    tail = random_trend_tail(model)
    assert isinstance(tail, tw.WeibullType)
    assert tail.alpha == pytest.approx(2.0 * (1.0 - 0.25))
    k = trend_constants(model, 1.0)
    assert tail.K == pytest.approx(k.K_A ** 2 * 0.5 ** (2 * 0.25) / 2.0)


def test_random_trend_requires_eta():
    with pytest.raises(SpecError):
        random_trend_tail(TrendModel.fbm(0.5, 1.0))
    for zeta in (None, tw.PowerTail(1.0, 0.5), tw.EdgePower(1.0, -0.2, 1.0)):
        with pytest.raises(SpecError):
            trend_tail(TrendModel.fbm(0.5, 1.0, zeta=zeta))


# ---------------------------------------------------------------------------
# Random slope plus offset
# ---------------------------------------------------------------------------

def test_zeta_is_the_power_or_edge_tail_of_minus_zeta():
    # The supremum adds -zeta, so only the two tails the sum rules take are models.
    with pytest.raises(SpecError, match="zeta must be a power or edge tail of -zeta"):
        TrendModel.fbm(0.5, 1.0, eta=eta_tail(0.5, 1.0, 1.0),
                       zeta=tw.WeibullType(1.0, 0.0, 1.0, 2.0))


def test_offset_dominates_for_heavy_power_offset():
    model = TrendModel.fbm(
        0.5, 1.0, eta=eta_tail(0.0, 1.0, 1.0), zeta=tw.PowerTail(2.0, 0.5)
    )
    assert trend_tail(model) == (tw.PowerTail(2.0, 0.5), "offset_dominates")
    # The answer is the offset's own power tail: no sup-ratio moment is needed.
    model = TrendModel.fbm(H=0.25, beta=1.0, eta=eta_tail(0.0, 1.0, 1.0),
                           zeta=tw.PowerTail(1.0, 0.5), pickands=0.8)
    assert trend_tail(model) == (tw.PowerTail(1.0, 0.5), "offset_dominates")


def test_offset_dominates_any_positive_edge_slope():
    model = TrendModel.fbm(
        0.5, 1.0, eta=eta_tail(0.4, 1.0, 1.0), zeta=tw.PowerTail(1.0, 7.0)
    )
    assert trend_tail(model) == (tw.PowerTail(1.0, 7.0), "offset_dominates")


def test_slope_dominates_for_light_power_offset():
    model = TrendModel.fbm(
        0.5, 1.0, eta=eta_tail(0.0, 1.0, 1.0), zeta=tw.PowerTail(1.0, 3.0)
    )
    assert trend_tail(model) == (tw.PowerTail(0.5, 1.0), "slope_dominates")


def test_equal_power_orders_refuse_a_closed_form():
    model = TrendModel.fbm(
        0.5, 1.0, eta=eta_tail(0.0, 1.0, 1.0), zeta=tw.PowerTail(1.0, 1.0)
    )
    with pytest.raises(BoundaryCase):
        trend_tail(model)


def test_edge_offset_equals_sum_rule_composition():
    model = TrendModel(
        H=0.5, beta=2.0, alpha_loc=1.0, d_ref=(1.0, 1.0),
        eta=eta_tail(0.5, 1.0, 1.0), zeta=tw.EdgePower(1.0, -0.2, 1.0),
    )
    combined, case = trend_tail(model)
    assert case == "edge_offset"
    reference = tw.sum_mixed_tail(
        random_trend_tail(model), tw.EdgePower(1.0, -0.2, 1.0)
    )
    for fld in ("C", "rho", "K", "alpha", "shift"):
        assert getattr(combined, fld) == pytest.approx(
            getattr(reference, fld), rel=1e-12
        )


def test_edge_offset_needs_shallow_hurst():
    model = TrendModel.fbm(  # beta = 1 = 2H: decay order would be 1
        0.5, 1.0, eta=eta_tail(0.5, 1.0, 1.0), zeta=tw.EdgePower(1.0, -0.2, 1.0)
    )
    with pytest.raises(AssumptionError):
        trend_tail(model)


def test_edge_offset_needs_positive_slope_edge():
    model = TrendModel(
        H=0.5, beta=2.0, alpha_loc=1.0, d_ref=(1.0, 1.0),
        eta=eta_tail(0.0, 1.0, 1.0), zeta=tw.EdgePower(1.0, -0.2, 1.0),
    )
    with pytest.raises(AssumptionError):
        trend_tail(model)
