"""Closed-form tail calculus for sums and products of independent variables.

Each operation maps declared tail families to the tail family of the
combination, with the combination's hypotheses checked symbolically before
any formula is applied.  Domination conditions are decided on the tail
families, never on sampled function values: the conditions quantify over
all large u, which no finite sample can certify.

``sum_tail`` and ``product_tail`` are the classifiers: given two laws they
order them once by ``tail_model._heavy_first``, decide which theorem
applies and return its tail with the theorem's name.
One rule decides every domination condition, (A)/(B) between two tails and
(C_alpha)/(D_alpha) for a product's other factor: the law of smaller
:func:`~tailward.tail_model.power_order` dominates.
"""

from __future__ import annotations

import math

from .errors import (
    AssumptionError,
    ConditionError,
    SpecError,
    Unsupported,
    as_double,
)
from .tail_model import (
    AsymptoticTail,
    DistributionModel,
    EdgePower,
    PowerTail,
    WeibullType,
    _heavy_first,
    _moment_forms,
    power_order,
)

__all__ = [
    "sum_mixed_tail",
    "product_mixed_tail",
    "product_power_tail",
    "sum_tail",
    "product_tail",
]


# ---------------------------------------------------------------------------
# Sum
# ---------------------------------------------------------------------------

def sum_mixed_tail(x: WeibullType, y: EdgePower) -> WeibullType:
    """Tail of X + Y: X stretched-exponential, Y with a finite endpoint.

    The combination keeps X's decay rate; the endpoint of Y shifts the
    argument and its edge order mu tilts the power prefactor.
    """
    if not isinstance(x, WeibullType) or not isinstance(y, EdgePower):
        raise SpecError("sum_mixed_tail takes (WeibullType, EdgePower)")
    if x.alpha <= 1:
        raise AssumptionError(
            f"sum_mixed_tail requires decay order alpha > 1, got alpha={x.alpha}"
        )
    if x.shift != 0.0:
        raise AssumptionError("sum_mixed_tail requires an unshifted first tail")
    c = as_double("sum_mixed_tail: constant C of the combined tail", lambda: (
        x.C * y.C * (x.K * x.alpha) ** (-y.mu) * math.gamma(y.mu + 1.0)), log_compute=lambda: (
        math.log(x.C) + math.log(y.C) - y.mu * (math.log(x.K) + math.log(x.alpha))
        + math.lgamma(y.mu + 1.0)))
    rho = y.mu + x.rho - x.alpha * y.mu
    return WeibullType(c, rho, x.K, x.alpha, y.sigma)


# ---------------------------------------------------------------------------
# Product
# ---------------------------------------------------------------------------

def product_mixed_tail(x: WeibullType, y: EdgePower) -> WeibullType:
    """Tail of X * Y for positive X, Y: X stretched-exponential, Y bounded.

    No constraint on x.alpha here; the product rescales X's decay rate by
    sigma**-alpha instead of shifting the argument.
    """
    if not isinstance(x, WeibullType) or not isinstance(y, EdgePower):
        raise SpecError("product_mixed_tail takes (WeibullType, EdgePower)")
    if y.sigma <= 0:
        raise AssumptionError(
            f"product_mixed_tail requires a positive endpoint, got sigma={y.sigma}"
        )
    if x.shift != 0.0:
        raise AssumptionError("product_mixed_tail requires an unshifted first tail")
    c = as_double("product_mixed_tail: constant C of the combined tail", lambda: (
        x.C
        * y.C
        * math.gamma(y.mu + 1.0)
        * y.sigma ** (x.alpha * y.mu + y.mu - x.rho)
        * (x.K * x.alpha) ** (-y.mu)
    ), log_compute=lambda: (
        math.log(x.C)
        + math.log(y.C)
        + math.lgamma(y.mu + 1.0)
        + (x.alpha * y.mu + y.mu - x.rho) * math.log(y.sigma)
        - y.mu * (math.log(x.K) + math.log(x.alpha))
    ))
    rho = x.rho - x.alpha * y.mu
    k = as_double("product_mixed_tail: rate K of the combined tail",
                  lambda: x.K * y.sigma ** (-x.alpha))
    return WeibullType(c, rho, k, x.alpha, 0.0)


def product_power_tail(x_model: DistributionModel, y: PowerTail) -> PowerTail:
    """Tail of X * Y for positive X, Y with Y of power type.

    Conditions (C_alpha) and (D_alpha) on X, with alpha = y.alpha, hold
    exactly when X's power order exceeds alpha (see ``_require_dominance``);
    the product then inherits Y's exponent with the coefficient scaled by
    E X**alpha (its log form too: C can fit where the moment does not).
    """
    if not isinstance(y, PowerTail):
        raise SpecError("product_power_tail takes (DistributionModel, PowerTail)")
    _require_positive(x_model)
    if not power_order(x_model) > y.alpha:
        raise ConditionError(
            f"conditions (C_alpha) and (D_alpha) with alpha={y.alpha} fail for "
            f"{x_model.family} tail {x_model.tail}"
        )
    direct, log = _moment_forms(x_model, y.alpha)
    c = as_double("product_power_tail: constant C of the combined tail",
                  lambda: y.C * direct(), log_compute=lambda: math.log(y.C) + log())
    return PowerTail(c, y.alpha)


# ---------------------------------------------------------------------------
# Classification: which theorem applies to a pair of laws
# ---------------------------------------------------------------------------

def _require_positive(model: DistributionModel) -> None:
    if model.support[0] < 0 or model.support[1] <= 0:
        raise AssumptionError(
            f"product rules need positive variables; {model.family} has "
            f"support {model.support}"
        )


def _require_dominance(heavy: DistributionModel, light: DistributionModel, op: str) -> None:
    """Refuse a (heavy, light) pair of ``tail_model._heavy_first`` that is a tie."""
    # One comparison decides (A), (B), (C_alpha) and (D_alpha) on these
    # families.  Let f be the lighter tail, of power order b, and g the
    # heavier, of order a < b (a power, since a is finite).  The witness
    # chi(u) = u**e with a/b < e < 1 (any e in (0, 1) when b = inf) tends to
    # inf, is o(u), keeps the power g flat across a chi-window and gives
    # f(chi(u)) = o(u**-a) = o(g(u)): that is (A).  With a = b < inf no
    # witness exists (chi = o(u) makes f(chi(u)) / g(u) unbounded), and two
    # tails lighter than every power (a = b = inf) are outside the families.
    # (C_alpha) is (A) against u**-alpha and (D_alpha) adds
    # int f(u) u**(alpha-1) du < inf; both hold exactly when b > alpha.  (B)
    # asks (A) of the heavier of a real-valued law's two tails.  The
    # registry's only law with a declared tail that is unbounded below is
    # the normal, which is symmetric, so its right tail is that heavier tail
    # and (B) needs nothing more.
    oh, ol = power_order(heavy), power_order(light)
    if oh == ol == math.inf:
        raise Unsupported(
            f"no closed {op} rule for families {heavy.family!r} and {light.family!r}: "
            f"both tails are lighter than every power"
        )
    if oh == ol:
        raise ConditionError(
            f"equal power exponents {oh}: neither tail dominates the other "
            f"and no closed form applies"
        )


def sum_tail(x: DistributionModel, y: DistributionModel) -> tuple[AsymptoticTail, str]:
    """Tail of X + Y and the claim that gives it.

    A Weibull-type law plus a bounded one is ``sum_mixed``; otherwise the
    declared tail of smaller power order dominates the other and is kept as
    ``sum_dominant``.
    """
    x, y = _heavy_first(x, y)
    if isinstance(x.tail, WeibullType) and isinstance(y.tail, EdgePower):
        return sum_mixed_tail(x.tail, y.tail), "sum_mixed"
    if any(t is None or isinstance(t, EdgePower) for t in (x.tail, y.tail)):
        raise Unsupported(
            f"no closed sum rule for families {x.family!r} + {y.family!r}"
        )
    _require_dominance(x, y, "sum")
    return x.tail, "sum_dominant"


def product_tail(x: DistributionModel, y: DistributionModel) -> tuple[AsymptoticTail, str]:
    """Tail of X * Y for positive X, Y and the claim that gives it.

    A Weibull-type law times a bounded one is ``product_mixed``.  Otherwise
    the factor of smaller power order carries a power tail, and the product
    is ``product_power``: that tail scaled by the other factor's moment of
    its order.
    """
    for m in (x, y):
        _require_positive(m)
    x, y = _heavy_first(x, y)
    if isinstance(x.tail, WeibullType) and isinstance(y.tail, EdgePower):
        return product_mixed_tail(x.tail, y.tail), "product_mixed"
    _require_dominance(x, y, "product")
    return product_power_tail(y, x.tail), "product_power"
