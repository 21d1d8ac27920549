"""Closed-form tail calculus for sums and products of independent variables.

Each operation maps declared tail families to the tail family of the
combination, with the combination's hypotheses checked symbolically before
any formula is applied.  Domination conditions are decided on the tail
families, never on sampled function values: the conditions quantify over
all large u, which no finite sample can certify.

``sum_tail`` and ``product_tail`` are the classifiers: given two laws they
decide which theorem applies and return its tail with the theorem's name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    AssumptionError,
    ConditionError,
    SpecError,
    Unsupported,
)
from .tail_model import (
    AsymptoticTail,
    DistributionModel,
    EdgePower,
    PowerTail,
    WeibullType,
    moment,
)

__all__ = [
    "ConditionWitness",
    "check_condition",
    "model_condition",
    "sum_mixed_tail",
    "sum_dominant_tail",
    "product_mixed_tail",
    "product_power_tail",
    "sum_tail",
    "product_tail",
    "density_to_sf",
]


# ---------------------------------------------------------------------------
# Domination conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionWitness:
    """Outcome of a domination-condition check.

    ``chi`` records the witness function as a (family, exponent) pair,
    currently always a power u**e with 0 < e < 1, present only when the
    condition holds and a witness is part of the certificate.
    """

    kind: str  # "A" | "B" | "C_alpha" | "D_alpha"
    holds: bool
    chi: Optional[tuple[str, float]] = None


_KINDS_PAIR = ("A", "B")
_KINDS_SINGLE = ("C_alpha", "D_alpha")


def _require_unbounded(tail: AsymptoticTail, role: str, kind: str) -> None:
    if isinstance(tail, EdgePower):
        raise Unsupported(
            f"condition ({kind}) is about decay at +inf; the {role} tail has a "
            f"finite endpoint and is outside the classified families"
        )


def check_condition(kind: str, f: AsymptoticTail, g: AsymptoticTail | None = None,
                    alpha: float | None = None) -> ConditionWitness:
    """Decide a domination condition symbolically on tail families.

    Pair conditions (A)/(B) ask for chi with chi(u) -> inf, chi(u)/u -> 0,
    f(chi(u)) = o(g(u)) and g asymptotically flat across a chi-window.
    Single-tail conditions take a decay order alpha: (C_alpha) is (A)
    against the power u**-alpha, (D_alpha) additionally integrates
    f(u) u**(alpha-1) at infinity.

    Note on (C_alpha): its usual statement asks for a witness with
    chi(u) -> 0, but the product theorem that consumes it needs
    chi(u) -> inf, which is also what the power-tail witnesses below
    provide.  This implementation certifies the chi -> inf reading.
    """
    if kind in _KINDS_PAIR:
        if g is None:
            raise SpecError(f"condition ({kind}) needs two tails")
        _require_unbounded(f, "first", kind)
        _require_unbounded(g, "second", kind)
        if isinstance(f, PowerTail) and isinstance(g, PowerTail):
            if f.alpha > g.alpha:
                e = (f.alpha + g.alpha) / (2.0 * f.alpha)
                return ConditionWitness(kind, True, ("power", e))
            return ConditionWitness(kind, False)
        if isinstance(f, WeibullType) and isinstance(g, PowerTail):
            return ConditionWitness(kind, True, ("power", 0.5))
        if isinstance(f, PowerTail) and isinstance(g, WeibullType):
            # f is not even o(g); the condition cannot hold.
            return ConditionWitness(kind, False)
        raise Unsupported(
            f"no classification for ({kind}) with {type(f).__name__} vs "
            f"{type(g).__name__}"
        )
    if kind in _KINDS_SINGLE:
        if alpha is None or alpha <= 0:
            raise SpecError(f"condition ({kind}) needs a positive alpha")
        _require_unbounded(f, "first", kind)
        if isinstance(f, PowerTail):
            if f.alpha > alpha:
                if kind == "C_alpha":
                    e = (f.alpha + alpha) / (2.0 * f.alpha)
                    return ConditionWitness(kind, True, ("power", e))
                return ConditionWitness(kind, True)
            return ConditionWitness(kind, False)
        if isinstance(f, WeibullType):
            chi = ("power", 0.5) if kind == "C_alpha" else None
            return ConditionWitness(kind, True, chi)
        raise Unsupported(f"no classification for ({kind}) with {type(f).__name__}")
    raise SpecError(f"unknown condition kind {kind!r}")


def model_condition(model: DistributionModel, kind: str, alpha: float) -> ConditionWitness:
    """(C_alpha)/(D_alpha) for a model's exact survival function.

    Delegates to the declared tail when one exists.  Bounded-support models
    and the lognormal carry no in-family declaration but their survival
    functions are o(u**-b) for every b > 0, hence dominated by a compliant
    power tail; domination is inherited downward, so both conditions hold
    for every alpha.
    """
    if kind not in _KINDS_SINGLE:
        raise SpecError(f"model_condition decides C_alpha/D_alpha, not {kind!r}")
    if model.tail is not None and not isinstance(model.tail, EdgePower):
        return check_condition(kind, model.tail, alpha=alpha)
    if model.support[1] < math.inf or model.family == "lognormal":
        chi = ("power", 0.5) if kind == "C_alpha" else None
        return ConditionWitness(kind, True, chi)
    raise Unsupported(f"cannot certify ({kind}) for model {model.family!r}")


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
    c = x.C * y.C * (x.K * x.alpha) ** (-y.mu) * math.gamma(y.mu + 1.0)
    rho = y.mu + x.rho - x.alpha * y.mu
    return WeibullType(c, rho, x.K, x.alpha, y.sigma)


def sum_dominant_tail(
    x: AsymptoticTail, y: AsymptoticTail, x_nonnegative: bool
) -> AsymptoticTail:
    """Tail of X + Y when Y's tail dominates X's.

    For nonnegative X the one-sided condition (A) on (x, y) is enough; a
    real-valued X needs the two-sided condition (B), with ``x`` standing
    for the heavier of X's two tails (domination is monotone, so the
    heavier side decides).
    """
    kind = "A" if x_nonnegative else "B"
    witness = check_condition(kind, x, y)
    if not witness.holds:
        raise ConditionError(
            f"condition ({kind}) fails for {x} against {y}: the first tail "
            f"does not vanish relative to the second"
        )
    return y


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
    c = (
        x.C
        * y.C
        * math.gamma(y.mu + 1.0)
        * y.sigma ** (x.alpha * y.mu + y.mu - x.rho)
        * (x.K * x.alpha) ** (-y.mu)
    )
    rho = x.rho - x.alpha * y.mu
    k = x.K * y.sigma ** (-x.alpha)
    return WeibullType(c, rho, k, x.alpha, 0.0)


def product_power_tail(x_model: DistributionModel, y: PowerTail) -> PowerTail:
    """Tail of X * Y for positive X, Y with Y of power type.

    Requires E X**alpha < inf plus the moment-domination certificate for
    X's survival function; the product inherits Y's exponent with the
    coefficient scaled by the alpha-th moment of X.
    """
    if not isinstance(y, PowerTail):
        raise SpecError("product_power_tail takes (DistributionModel, PowerTail)")
    if x_model.support[0] < 0:
        raise AssumptionError(
            f"product_power_tail requires X supported on (0, inf), "
            f"support {x_model.support}"
        )
    for kind in ("C_alpha", "D_alpha"):
        witness = model_condition(x_model, kind, y.alpha)
        if not witness.holds:
            raise ConditionError(
                f"condition ({kind}) with alpha={y.alpha} fails for "
                f"{x_model.family} tail {x_model.tail}"
            )
    m = moment(x_model, y.alpha)
    return PowerTail(y.C * m, y.alpha)


# ---------------------------------------------------------------------------
# Classification: which theorem applies to a pair of laws
# ---------------------------------------------------------------------------

def sum_tail(x: DistributionModel, y: DistributionModel) -> tuple[AsymptoticTail, str]:
    """Tail of X + Y and the claim that gives it.

    A Weibull-type law plus a bounded one is ``sum_mixed``; otherwise the
    tail that dominates the other under (A), or (B) for a real-valued
    operand, is kept as ``sum_dominant``.
    """
    tx, ty = x.tail, y.tail
    if isinstance(tx, WeibullType) and isinstance(ty, EdgePower):
        return sum_mixed_tail(tx, ty), "sum_mixed"
    if isinstance(tx, EdgePower) and isinstance(ty, WeibullType):
        return sum_mixed_tail(ty, tx), "sum_mixed"
    if tx is None or ty is None:
        raise Unsupported(
            f"no closed sum rule for families {x.family!r} + {y.family!r}"
        )
    try:
        return sum_dominant_tail(tx, ty, x.support[0] >= 0), "sum_dominant"
    except ConditionError:
        pass
    return sum_dominant_tail(ty, tx, y.support[0] >= 0), "sum_dominant"


def product_tail(x: DistributionModel, y: DistributionModel) -> tuple[AsymptoticTail, str]:
    """Tail of X * Y for positive X, Y and the claim that gives it.

    A Weibull-type law times a bounded one is ``product_mixed``.  With a
    power-tailed factor the product is ``product_power``: it keeps the
    heavier power tail, scaled by the other factor's moment of that order.
    """
    for m in (x, y):
        if m.support[0] < 0:
            raise AssumptionError(
                f"product rules need positive variables; {m.family} has "
                f"support {m.support}"
            )
    tx, ty = x.tail, y.tail
    if isinstance(tx, WeibullType) and isinstance(ty, EdgePower):
        return product_mixed_tail(tx, ty), "product_mixed"
    if isinstance(tx, EdgePower) and isinstance(ty, WeibullType):
        return product_mixed_tail(ty, tx), "product_mixed"
    if isinstance(tx, PowerTail) and isinstance(ty, PowerTail):
        if tx.alpha == ty.alpha:
            raise ConditionError(
                "equal power exponents: neither factor's moment condition "
                "holds and no closed form applies"
            )
        if tx.alpha < ty.alpha:
            return product_power_tail(y, tx), "product_power"
        return product_power_tail(x, ty), "product_power"
    if isinstance(ty, PowerTail):
        return product_power_tail(x, ty), "product_power"
    if isinstance(tx, PowerTail):
        return product_power_tail(y, tx), "product_power"
    raise Unsupported(
        f"no closed product rule for families {x.family!r} * {y.family!r}"
    )


# ---------------------------------------------------------------------------
# Density-to-survival conversion
# ---------------------------------------------------------------------------

def density_to_sf(case: str, **params) -> AsymptoticTail:
    """Tail family implied by an asymptotic density form.

    power:   f(u) ~ C*alpha*u**(-alpha-1)        ->  PowerTail(C, alpha)
    weibull: f(u) ~ C*u**beta*exp(-K*u**alpha)   ->  WeibullType(C/(alpha*K),
                                                     beta+1-alpha, K, alpha, 0)
    edge:    f(u) ~ C*alpha*(M-u)**(alpha-1)     ->  EdgePower(C, M, alpha)
    """
    if case == "power":
        c, alpha = params["C"], params["alpha"]
        if c <= 0 or alpha <= 0:
            raise SpecError(f"power density needs C, alpha > 0, got {params}")
        return PowerTail(c, alpha)
    if case == "weibull_type":
        c, beta, k, alpha = params["C"], params["beta"], params["K"], params["alpha"]
        if c <= 0 or k <= 0 or alpha <= 0:
            raise SpecError(f"weibull density needs C, K, alpha > 0, got {params}")
        return WeibullType(c / (alpha * k), beta + 1.0 - alpha, k, alpha, 0.0)
    if case == "edge":
        c, m, alpha = params["C"], params["M"], params["alpha"]
        if c <= 0 or alpha <= 0:
            raise SpecError(f"edge density needs C, alpha > 0, got {params}")
        return EdgePower(c, m, alpha)
    raise SpecError(f"unknown density case {case!r}")
