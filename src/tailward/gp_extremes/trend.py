"""Supremum tail asymptotics for self-similar processes with power trends.

The base problem is P(sup_t (X(t) - c*t^beta) > u) for a centered
self-similar process X that is locally stationary after standardization.
Its closed asymptotic is assembled from a set of derived constants; the
random-trend and shifted variants (trend slope eta and offset zeta drawn
independently of X) reduce to the product/sum tail calculus of
:mod:`tailward.asymptotic_engine` through the self-similarity rescaling
u -> u**(1 - H/beta).

Slope and offset are both given as upper tails of their negatives, in the
families of :mod:`tailward.tail_model`.  Its moment rule gives the Brownian
sup-ratio moment, and the mirror of each tail's exact law is the slope or
offset law of the Brownian referee (:mod:`.bm_oracle`).  ``TrendModel.from_json``
is the one reader of a model's JSON, for ``gp tail``, ``gp constants`` and
the GP fixtures.  This module keeps what is specific to suprema.

``trend_tail`` is the one place that decides which regime gives the tail
of sup_t (X(t) - eta*t**beta - zeta):

* ``slope_only``       -- no offset: the random-slope tail;
* ``offset_dominates`` -- a power offset heavier than the supremum tail
  (always so for a positive slope edge): the offset's power tail;
* ``slope_dominates``  -- a power offset lighter than the zero-edge slope's
  power tail: the random-slope tail;
* ``edge_offset``      -- an offset with a finite lower edge: the sum rule
  shifts the Gaussian-type tail (needs delta > 0 and beta > 2H).

Equal power orders of slope and offset are refused with ``BoundaryCase``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from ..asymptotic_engine import product_mixed_tail, sum_mixed_tail
from ..errors import (
    AssumptionError,
    BoundaryCase,
    MissingEConstant,
    MissingPickands,
    SpecError,
    as_double,
    as_number,
)
from ..specfun import log_norm_sf
from ..tail_model import (
    AsymptoticTail,
    EdgePower,
    PowerTail,
    WeibullType,
    make_model,
    moment,
    power_substitute,
)

__all__ = [
    "TrendModel",
    "TrendConstants",
    "pickands_exact",
    "trend_constants",
    "trend_tail_asymptotic",
    "TrendTailValue",
    "random_trend_tail",
    "trend_tail",
    "bm_sup_ratio_moment",
]

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Model description
# ---------------------------------------------------------------------------

def _check_slope_edge(eta: EdgePower | None) -> None:
    """Refuse an eta that is not the edge tail of -eta at -delta <= 0."""
    if eta is not None and not (isinstance(eta, EdgePower) and eta.sigma <= 0.0):
        raise SpecError(f"eta must be the edge tail EdgePower(C, -delta, mu) of -eta "
                        f"with delta >= 0, got {eta!r}")


@dataclass(frozen=True)
class TrendModel:
    """Parameters of the conditionally Gaussian supremum problem.

    Slope and offset are given as upper tails of their negatives: ``eta`` as
    ``EdgePower(C, -delta, mu)``, delta = ess inf eta >= 0, when
    P(eta < delta + x) ~ C * x**mu; ``zeta`` as ``PowerTail(C, gamma)`` when
    P(zeta < -u) ~ C * u**-gamma, or ``EdgePower(C, -delta0, gamma)`` when
    ess inf zeta = delta0 and P(zeta < delta0 + x) ~ C * x**gamma.

    ``d_ref`` anchors the limit constant of local stationarity: the
    standardized process has D(s) = (s_ref / s)**alpha_loc * d_value, which
    is the homogeneous rule induced by self-similarity.
    """

    H: float
    beta: float
    alpha_loc: float
    d_ref: tuple[float, float]
    eta: Optional[EdgePower] = None
    zeta: Optional[PowerTail | EdgePower] = None
    pickands: Optional[float] = None
    e_const: Optional[float] = None

    def __post_init__(self):
        fields = {"H": self.H, "beta": self.beta, "alpha_loc": self.alpha_loc,
                  "d_ref.s": self.d_ref[0], "d_ref.value": self.d_ref[1],
                  "pickands": self.pickands, "e_const": self.e_const}
        for name, v in fields.items():
            if v is not None:
                as_number(f"trend model field {name}", v)
        if not (0 < self.H < 1):
            raise SpecError(f"H must be in (0, 1), got {self.H}")
        if not self.beta > self.H:
            raise SpecError(f"beta must exceed H, got beta={self.beta}, H={self.H}")
        if not (0 < self.alpha_loc <= 2):
            raise SpecError(f"alpha_loc must be in (0, 2], got {self.alpha_loc}")
        s_ref, d_val = self.d_ref
        if s_ref <= 0 or d_val <= 0:
            raise SpecError(f"d_ref must be positive, got {self.d_ref}")
        _check_slope_edge(self.eta)
        if not isinstance(self.zeta, (PowerTail, EdgePower, type(None))):
            raise SpecError(f"zeta must be a power or edge tail of -zeta, got {self.zeta!r}")

    def d_at(self, s: float) -> float:
        s_ref, d_val = self.d_ref
        return (s_ref / s) ** self.alpha_loc * d_val

    @classmethod
    def fbm(cls, H: float, beta: float, eta: EdgePower | None = None,
            zeta: PowerTail | EdgePower | None = None, pickands: float | None = None,
            e_const: float | None = None) -> "TrendModel":
        """Fractional Brownian motion: alpha_loc = 2H, D(s) = s**(-2H)."""
        return cls(H=H, beta=beta, alpha_loc=2.0 * H, d_ref=(1.0, 1.0),
                   eta=eta, zeta=zeta, pickands=pickands, e_const=e_const)

    def is_brownian(self) -> bool:
        return (
            self.H == 0.5
            and self.alpha_loc == 1.0
            and abs(self.d_at(1.0) - 1.0) < 1e-12
        )

    @classmethod
    def from_json(cls, obj) -> "TrendModel":
        """The model a decoded JSON object describes; the one reader of
        ``gp tail --model``, ``gp constants --model`` and the GP fixtures."""
        if not isinstance(obj, dict):
            raise SpecError(f"a trend model must be a JSON object, got {json.dumps(obj)}")
        preset = obj.get("preset")
        if preset is not None and (not isinstance(preset, str) or preset not in _PRESET_FIXES):
            raise SpecError(f"unknown preset {preset!r}; use 'bm' or 'fbm'")
        clash = [name for name in _PRESET_FIXES.get(preset, ()) if name in obj]
        if clash:
            raise SpecError(f"preset {preset!r} fixes {', '.join(clash)}; drop them")
        eta, zeta = (None if obj.get(k) is None else _json_object(obj[k], k)
                     for k in ("eta", "zeta"))
        parts = dict(
            eta=None if eta is None else _minus_tail(eta, "eta", "delta", "mu"),
            zeta=None if zeta is None else _minus_tail(zeta, "zeta", "delta0", "gamma",
                                                       -math.inf),
            **{k: None if obj.get(k) is None else _json_number(obj, k)
               for k in ("pickands", "e_const")})
        if preset is not None:
            H = 0.5 if preset == "bm" else _json_number(obj, "H")
            return cls.fbm(H, _json_number(obj, "beta", 1.0 if preset == "bm" else _REQUIRED),
                           **parts)
        d_ref = _json_object(obj.get("d_ref", {"s": 1.0, "value": 1.0}), "d_ref")
        return cls(H=_json_number(obj, "H"), beta=_json_number(obj, "beta"),
                   alpha_loc=_json_number(obj, "alpha_loc"),
                   d_ref=(_json_number(d_ref, "s", where="d_ref."),
                          _json_number(d_ref, "value", where="d_ref.")), **parts)


# The fields each preset sets itself; the caller may not give them.
_PRESET_FIXES = {"bm": ("H", "alpha_loc", "d_ref"), "fbm": ("alpha_loc", "d_ref")}

_REQUIRED = object()


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"trend model field {name} must be an object, got {json.dumps(value)}")
    return value


def _json_number(obj: dict, key: str, default=_REQUIRED, where: str = "") -> float:
    """obj[key] read by ``as_number``, or ``default`` where the key is absent."""
    name = where + key
    if key not in obj:
        if default is _REQUIRED:
            raise SpecError(f"trend model field {name} is missing")
        return default
    return as_number(f"trend model field {name}", obj[key])


def _minus_tail(obj: dict, name: str, edge: str, power: str, no_edge=_REQUIRED):
    """The upper tail of -X from X's JSON: an edge at -obj[edge], else a power."""
    where = name + "."
    delta = _json_number(obj, edge, no_edge, where)
    c, p = _json_number(obj, "C", where=where), _json_number(obj, power, where=where)
    try:
        return PowerTail(c, p) if delta == -math.inf else EdgePower(c, -delta, p)
    except SpecError as exc:
        raise SpecError(f"bad {name} spec {obj}: {exc}") from None


# ---------------------------------------------------------------------------
# Derived constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendConstants:
    s0: float
    A: float
    B: float
    C: float
    K_s: float
    K_A: float
    K_B: float
    K_D: float
    K: float
    pickands: float
    c: float
    H: float
    beta: float
    alpha_loc: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def pickands_exact(alpha_loc: float) -> float | None:
    if alpha_loc == 1.0:
        return 1.0
    if alpha_loc == 2.0:
        return 1.0 / math.sqrt(math.pi)
    return None


def trend_constants(model: TrendModel, c: float) -> TrendConstants:
    """All derived constants of the deterministic-trend asymptotic."""
    if c <= 0:
        raise SpecError(f"trend coefficient must be positive, got {c}")
    H, beta, a = model.H, model.beta, model.alpha_loc
    pickands = model.pickands if model.pickands is not None else pickands_exact(a)
    if pickands is None:
        raise MissingPickands(
            f"no exact Pickands constant for alpha_loc={a}; supply one or "
            f"estimate it first"
        )
    # Each constant is refused, by name, once it leaves the positive doubles.
    name = "trend_constants: constant {}".format
    base = H / (beta - H)
    k_s = as_double(name("K_s"), lambda: base ** (1.0 / beta))
    k_a = as_double(name("K_A"), lambda: base ** (-H / beta) * beta / (beta - H))
    k_b = as_double(name("K_B"), lambda: base ** (-(H + 2.0) / beta) * H * beta)
    k_d = as_double(name("K_D"), lambda: model.d_at(k_s))
    if a < 2.0:
        k = as_double(name("K"), lambda: (
            pickands
            * math.sqrt(math.pi)
            * k_d ** (1.0 / a)
            / (math.sqrt(k_b) * 2.0 ** (1.0 / a - 0.5))
            * k_a ** (2.0 / a - 1.5)
        ))
    else:
        k = as_double(name("K"), lambda: 2.0 / k_a * math.sqrt((k_a * k_d + k_b) / k_b))
    return TrendConstants(
        s0=as_double(name("s0"), lambda: k_s * c ** (-1.0 / beta)),
        A=as_double(name("A"), lambda: k_a * c ** (H / beta)),
        B=as_double(name("B"), lambda: k_b * c ** ((H + 2.0) / beta)),
        C=as_double(name("C"), lambda: k * c ** ((H / beta) * (2.0 / a - 2.0))),
        K_s=k_s,
        K_A=k_a,
        K_B=k_b,
        K_D=k_d,
        K=k,
        pickands=pickands,
        c=c,
        H=H,
        beta=beta,
        alpha_loc=a,
    )


@dataclass(frozen=True)
class TrendTailValue:
    log_f: float  # form with the exact Gaussian tail
    log_g: float  # form with the Gaussian density (large-u equivalent)


def trend_tail_asymptotic(model: TrendModel, c: float, u: float) -> TrendTailValue:
    """Both closed forms of the deterministic-trend exceedance at level u."""
    if not 0 < u < math.inf:
        raise SpecError(f"level must be positive and finite, got {u}")
    k = trend_constants(model, c)
    H, beta, a = model.H, model.beta, model.alpha_loc
    one_minus_h = 1.0 - H / beta
    arg = k.A * u ** one_minus_h
    log_g = math.log(k.C) + one_minus_h * (2.0 / a - 2.0) * math.log(u) \
        + (-0.5 * _LOG_2PI - 0.5 * arg * arg)  # log of the normal density
    # The exact-tail form is C * A * u**(...) * Q(arg); Q(x) ~ phi(x) / x gives log_g.
    log_f = math.log(k.C) + math.log(k.A) + one_minus_h * (2.0 / a - 1.0) * math.log(u) \
        + log_norm_sf(arg)
    return TrendTailValue(log_f=log_f, log_g=log_g)


# ---------------------------------------------------------------------------
# Random trend slope
# ---------------------------------------------------------------------------

def _rescaled_base_tail(model: TrendModel) -> WeibullType:
    """Tail of sup_s X(s)/(1 + s**beta) after the unit-slope rescaling."""
    k = trend_constants(model, 1.0)
    a = model.alpha_loc
    return WeibullType(
        C=k.K / math.sqrt(2.0 * math.pi),
        rho=2.0 / a - 2.0,
        K=k.K_A ** 2 / 2.0,
        alpha=2.0,
        shift=0.0,
    )


def bm_sup_ratio_moment(alpha: float) -> float:
    """E (sup_t B(t)/(1+t))**alpha: the ratio's square is Exp(2), so the ratio is weibull(2, 2)."""
    return moment(make_model("weibull(2,2)"), alpha)


def _sup_ratio_moment(model: TrendModel, alpha: float) -> float:
    if model.e_const is not None:
        return model.e_const
    if model.is_brownian() and model.beta == 1.0:
        return bm_sup_ratio_moment(alpha)
    raise MissingEConstant(
        f"no sup-ratio moment of order {alpha} available; set e_const on the "
        f"model (estimate it with econst_estimate)"
    )


def random_trend_tail(model: TrendModel) -> AsymptoticTail:
    """Tail of sup_t (X(t) - eta*t**beta) for a random slope eta.

    With ess inf eta = delta > 0 the slope concentrates near its edge and
    the tail stays of Gaussian type in u**(1-H/beta); with delta = 0 heavy
    slopes near zero dominate and the tail becomes a power whose exponent
    is mu*(beta-H)/H and whose coefficient carries the sup-ratio moment
    E (sup X(t)/(1+t**beta))**(beta*mu/H).
    """
    if model.eta is None:
        raise SpecError("random_trend_tail needs an eta spec on the model")
    eta = model.eta
    delta = -eta.sigma
    H, beta = model.H, model.beta
    h = H / beta
    if delta > 0.0:
        edge = EdgePower(
            C=as_double("random_trend_tail: edge constant C", lambda: (
                eta.C * (beta / H) ** eta.mu * delta ** ((1.0 + h) * eta.mu))),
            sigma=delta ** (-h),
            mu=eta.mu,
        )
        rescaled = product_mixed_tail(_rescaled_base_tail(model), edge)
        return power_substitute(rescaled, 1.0 - h)
    order = beta * eta.mu / H
    e_val = _sup_ratio_moment(model, order)
    return PowerTail(eta.C * e_val, eta.mu * (beta - H) / H)


# ---------------------------------------------------------------------------
# Random trend slope plus random offset
# ---------------------------------------------------------------------------

def trend_tail(model: TrendModel) -> tuple[AsymptoticTail, str]:
    """Tail of sup_t (X(t) - eta*t**beta - zeta) and the regime that gives it.

    The regime (listed in the module docstring) is decided once, from the
    tail orders, and only the tail it returns is built.
    """
    eta, zeta = model.eta, model.zeta
    if eta is None:
        raise SpecError("trend_tail needs an eta spec on the model")
    if zeta is None:
        return random_trend_tail(model), "slope_only"
    delta = -eta.sigma
    if isinstance(zeta, PowerTail):
        # A positive slope edge leaves a Gaussian-type tail, lighter than any power.
        slope_order = eta.mu * (model.beta - model.H) / model.H
        if delta > 0.0 or slope_order > zeta.alpha:
            return zeta, "offset_dominates"
        if slope_order < zeta.alpha:
            return random_trend_tail(model), "slope_dominates"
        raise BoundaryCase(
            "the supremum and offset tails decay at the same power order; "
            "neither dominates and no closed form is claimed"
        )
    if delta <= 0.0:
        raise AssumptionError(
            "a finite-edge offset needs a positive slope edge (delta > 0)"
        )
    if 2.0 * model.H >= model.beta:
        raise AssumptionError(
            f"finite-edge offset case needs beta > 2H, got beta={model.beta}, "
            f"H={model.H} (the shifted-sum rule needs decay order > 1)"
        )
    return sum_mixed_tail(random_trend_tail(model), zeta), "edge_offset"
