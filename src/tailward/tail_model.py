"""Algebraic tail families, exact reference distributions and moments.

Three tail families are closed under the sum/product calculus implemented in
:mod:`tailward.asymptotic_engine`:

* ``PowerTail``      -- SF(u) ~ C * u**(-alpha), unbounded support
* ``WeibullType``    -- SF(u) ~ C * u**rho * exp(-K * (u - shift)**alpha)
* ``EdgePower``      -- SF(u) ~ C * (sigma - u)**mu as u approaches the
  finite endpoint sigma from below

All survival evaluation is done and stored in log-space: the interesting u
push survival probabilities far below 1e-300.

Every exact law is built by :func:`law` and obeys one support rule: with
support (lo, hi), log SF is 0 at or below lo and -inf at or above hi, log
density is -inf outside the open interval (lo, hi), and a scalar argument
gives a float.  Constructors give only the formulas valid inside (lo, hi).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DivergentMoment, DomainError, SpecError
from .specfun import log_norm_sf

__all__ = [
    "PowerTail",
    "WeibullType",
    "EdgePower",
    "AsymptoticTail",
    "sf_eval",
    "power_substitute",
    "tail_to_dict",
    "tail_from_dict",
    "DistributionModel",
    "law",
    "make_model",
    "parse_model_spec",
    "power_order",
    "moment",
    "RatioRow",
    "RatioTable",
]


# ---------------------------------------------------------------------------
# Tail families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerTail:
    """SF(u) ~ C * u**(-alpha); essential supremum is infinite."""

    C: float
    alpha: float

    def __post_init__(self):
        if not (self.C > 0 and self.alpha > 0):
            raise SpecError(f"power tail needs C > 0 and alpha > 0, got {self}")


@dataclass(frozen=True)
class WeibullType:
    """SF(u) ~ C * u**rho * exp(-K * (u - shift)**alpha).

    Covers Gaussian (alpha=2), exponential (alpha=1) and stretched tails.
    """

    C: float
    rho: float
    K: float
    alpha: float
    shift: float = 0.0

    def __post_init__(self):
        if not (self.C > 0 and self.K > 0 and self.alpha > 0):
            raise SpecError(
                f"weibull-type tail needs C, K, alpha > 0, got {self}"
            )


@dataclass(frozen=True)
class EdgePower:
    """SF(u) ~ C * (sigma - u)**mu as u increases to the endpoint sigma."""

    C: float
    sigma: float
    mu: float

    def __post_init__(self):
        if not (self.C > 0 and self.mu > 0):
            raise SpecError(f"edge tail needs C > 0 and mu > 0, got {self}")


AsymptoticTail = PowerTail | WeibullType | EdgePower


def sf_eval(tail: AsymptoticTail, u: float) -> float:
    """Log of the asymptotic tail form at u, exact in log-space.

    Raises DomainError outside the variant's valid region, or where the
    log tail is not a finite double, instead of returning 0, -inf or inf.
    """
    if isinstance(tail, PowerTail):
        if u <= 0:
            raise DomainError(f"power tail defined for u > 0, got u={u}")
        value = math.log(tail.C) - tail.alpha * math.log(u)
    elif isinstance(tail, WeibullType):
        if u <= tail.shift or u <= 0:
            raise DomainError(
                f"weibull-type tail defined for u > max(shift, 0) = "
                f"{max(tail.shift, 0.0)}, got u={u}"
            )
        try:
            decay = tail.K * (u - tail.shift) ** tail.alpha
        except OverflowError:
            decay = math.inf
        value = math.log(tail.C) + tail.rho * math.log(u) - decay
    elif isinstance(tail, EdgePower):
        if u >= tail.sigma:
            raise DomainError(
                f"edge tail defined for u < sigma={tail.sigma}, got u={u}"
            )
        value = math.log(tail.C) + tail.mu * math.log(tail.sigma - u)
    else:
        raise SpecError(f"not an asymptotic tail: {tail!r}")
    if not math.isfinite(value):
        raise DomainError(f"log tail at u={u} is not a finite double")
    return value


def power_substitute(tail: AsymptoticTail, p: float) -> AsymptoticTail:
    """Tail of the same quantity observed at argument u**p (p > 0).

    If SF(v) ~ h(v) and v = u**p then SF, as a function of u, is asymptotic
    to h(u**p); for unshifted power and weibull-type forms h(u**p) stays
    inside the family with exponents scaled by p.
    """
    if p <= 0:
        raise SpecError(f"argument power must be positive, got {p}")
    if isinstance(tail, PowerTail):
        return PowerTail(tail.C, tail.alpha * p)
    if isinstance(tail, WeibullType):
        if tail.shift != 0.0:
            raise SpecError("argument rescaling of a shifted tail leaves the family")
        return WeibullType(tail.C, tail.rho * p, tail.K, tail.alpha * p, 0.0)
    raise SpecError("argument rescaling is defined for unbounded tails only")


_VARIANT_NAMES = {
    PowerTail: "power",
    WeibullType: "weibull_type",
    EdgePower: "edge_power",
}


def tail_to_dict(tail: AsymptoticTail) -> dict:
    d = {"variant": _VARIANT_NAMES[type(tail)]}
    d.update(tail.__dict__)
    return d


def tail_from_dict(d: dict) -> AsymptoticTail:
    try:
        variant = d["variant"]
        params = {k: float(v) for k, v in d.items() if k != "variant"}
        if variant == "power":
            return PowerTail(**params)
        if variant == "weibull_type":
            return WeibullType(**params)
        if variant == "edge_power":
            return EdgePower(**params)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad tail object {d!r}: {exc}") from exc
    raise SpecError(f"unknown tail variant {variant!r}")


# ---------------------------------------------------------------------------
# Exact reference distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionModel:
    """An exact law: vectorized log survival and log density, a sampler, metadata.

    Values are immutable after construction and safe to share across
    threads; samplers take an explicit numpy Generator so callers own all
    mutation.  ``tail`` is the exact asymptotic declaration where one exists
    inside the three families (lognormal and the degenerate constant have
    none).  Laws built by :func:`law` share one support rule: with
    ``support = (lo, hi)``, log SF is 0 at or below lo and -inf at or above
    hi, log density is -inf outside the open interval (lo, hi), and a
    scalar argument gives a float.
    """

    family: str
    params: dict = field(compare=False)
    support: tuple[float, float]
    tail: Optional[AsymptoticTail]
    log_sf: Callable = field(compare=False, repr=False)
    log_density: Optional[Callable] = field(compare=False, repr=False)
    sampler: Callable = field(compare=False, repr=False)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return self.sampler(rng, size)

    def spec(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}


def law(family: str, params: dict, support: tuple[float, float],
        tail: Optional[AsymptoticTail], sampler: Callable, log_sf: Callable,
        log_density: Optional[Callable] = None) -> DistributionModel:
    """A DistributionModel from formulas valid strictly inside the support.

    ``log_sf`` and ``log_density`` take a float array and need only be right
    on the open interval (lo, hi); what they give elsewhere, and any
    floating-point error they raise there, is discarded.  The support rule
    of :class:`DistributionModel` is applied here, with one mask per finite
    end, so a law with an infinite end pays no mask for it.
    """
    lo, hi = support

    def confine(formula, below, above):
        def evaluate(u):
            x = np.asarray(u, dtype=float)
            with np.errstate(all="ignore"):
                out = formula(x)
            if lo > -math.inf:
                out = np.where(x <= lo, below, out)
            if hi < math.inf:
                out = np.where(x >= hi, above, out)
            return float(out) if x.ndim == 0 else out
        return evaluate

    return DistributionModel(
        family=family,
        params=params,
        support=support,
        tail=tail,
        log_sf=confine(log_sf, 0.0, -np.inf),
        log_density=None if log_density is None else confine(log_density, -np.inf, -np.inf),
        sampler=sampler,
    )


def _make_weibull(K: float, alpha: float) -> DistributionModel:
    if not (K > 0 and alpha > 0):
        raise SpecError(f"weibull needs K > 0 and alpha > 0, got K={K}, alpha={alpha}")

    def log_sf(x):
        return -K * np.maximum(x, 0.0) ** alpha

    def log_density(x):
        body = math.log(K * alpha) + (alpha - 1) * np.log(np.maximum(x, 1e-320))
        return body - K * np.maximum(x, 0.0) ** alpha

    def sampler(rng, size=None):
        v = rng.random(size)
        return (-np.log1p(-v) / K) ** (1.0 / alpha)

    return law("weibull", {"K": K, "alpha": alpha}, (0.0, math.inf),
               WeibullType(1.0, 0.0, K, alpha, 0.0), sampler, log_sf, log_density)


def _make_pareto(C: float, alpha: float) -> DistributionModel:
    if not (C > 0 and alpha > 0):
        raise SpecError(f"pareto needs C > 0 and alpha > 0, got C={C}, alpha={alpha}")
    lo = C ** (1.0 / alpha)

    def log_sf(x):
        return math.log(C) - alpha * np.log(np.maximum(x, 1e-320))

    def log_density(x):
        return math.log(C * alpha) - (alpha + 1) * np.log(np.maximum(x, 1e-320))

    def sampler(rng, size=None):
        v = rng.random(size)
        return lo * (1.0 - v) ** (-1.0 / alpha)

    return law("pareto", {"C": C, "alpha": alpha}, (lo, math.inf),
               PowerTail(C, alpha), sampler, log_sf, log_density)


def _make_edge(sigma: float, mu: float) -> DistributionModel:
    # Support is fixed to [sigma-1, sigma] so SF(u) = (sigma-u)**mu exactly
    # there; the declared tail is an identity, not an asymptotic.
    if not mu > 0:
        raise SpecError(f"edge needs mu > 0, got mu={mu}")

    def log_sf(x):
        return mu * np.log(np.minimum(sigma - x, 1.0))

    def log_density(x):
        return math.log(mu) + (mu - 1) * np.log(np.maximum(sigma - x, 1e-320))

    def sampler(rng, size=None):
        v = rng.random(size)
        return sigma - v ** (1.0 / mu)

    return law("edge", {"sigma": sigma, "mu": mu}, (sigma - 1.0, sigma),
               EdgePower(1.0, sigma, mu), sampler, log_sf, log_density)


def _make_lognormal(m: float, s: float) -> DistributionModel:
    if not s > 0:
        raise SpecError(f"lognormal needs s > 0, got s={s}")

    def log_sf(x):
        return log_norm_sf((np.log(np.maximum(x, 1e-320)) - m) / s)

    def log_density(x):
        lx = np.log(np.maximum(x, 1e-320))
        return -lx - math.log(s) - 0.5 * math.log(2 * math.pi) - (lx - m) ** 2 / (2 * s * s)

    def sampler(rng, size=None):
        return np.exp(m + s * rng.standard_normal(size))

    # No declaration: the lognormal survival function is not asymptotic to
    # any member of the three families (it decays in powers of log u).
    return law("lognormal", {"m": m, "s": s}, (0.0, math.inf), None,
               sampler, log_sf, log_density)


def _make_normal() -> DistributionModel:
    def log_density(x):
        return -0.5 * math.log(2 * math.pi) - x * x / 2.0

    def sampler(rng, size=None):
        return rng.standard_normal(size)

    # Mills ratio: SF(u) ~ phi(u)/u.
    return law("normal", {}, (-math.inf, math.inf),
               WeibullType((2 * math.pi) ** -0.5, -1.0, 0.5, 2.0, 0.0),
               sampler, log_norm_sf, log_density)


def _make_constant(c: float) -> DistributionModel:
    def sampler(rng, size=None):
        if size is None:
            return float(c)
        return np.full(size, float(c))

    # The support (c, c) is empty inside: the two end masks give every value.
    return law("constant", {"c": c}, (c, c), None, sampler, np.zeros_like)


_FAMILIES = {
    "weibull": (_make_weibull, ("K", "alpha")),
    "pareto": (_make_pareto, ("C", "alpha")),
    "edge": (_make_edge, ("sigma", "mu")),
    "lognormal": (_make_lognormal, ("m", "s")),
    "normal": (_make_normal, ()),
    "constant": (_make_constant, ("c",)),
}

_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:[:(]\s*(.*?)\s*\)?)?\s*$")


def parse_model_spec(spec) -> tuple[str, dict]:
    """Parse ``weibull(1,2)``, ``weibull:K=1,alpha=2`` or a JSON-style dict."""
    if isinstance(spec, dict):
        family = spec.get("family")
        params = dict(spec.get("params", {}))
        if family not in _FAMILIES:
            raise SpecError(f"unknown distribution family {family!r}")
        return family, {k: float(v) for k, v in params.items()}
    if not isinstance(spec, str):
        raise SpecError(f"cannot parse model spec {spec!r}")
    m = _SPEC_RE.match(spec)
    if not m:
        raise SpecError(f"cannot parse model spec {spec!r}")
    family, arg_str = m.group(1), m.group(2)
    if family not in _FAMILIES:
        raise SpecError(f"unknown distribution family {family!r}")
    order = _FAMILIES[family][1]
    params: dict[str, float] = {}
    if arg_str:
        for i, part in enumerate(p for p in arg_str.split(",") if p.strip()):
            if "=" in part:
                k, v = part.split("=", 1)
                k = k.strip()
                if k not in order:
                    raise SpecError(f"{family} has no parameter {k!r}")
                params[k] = _parse_float(v, spec)
            else:
                if i >= len(order):
                    raise SpecError(f"too many parameters in {spec!r}")
                params[order[i]] = _parse_float(part, spec)
    missing = [k for k in order if k not in params]
    if missing:
        raise SpecError(f"{family} spec {spec!r} is missing {missing}")
    return family, params


def _parse_float(text: str, spec) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise SpecError(f"bad number {text!r} in {spec!r}") from exc


def make_model(spec) -> DistributionModel:
    """Build a registry distribution from a spec string or dict."""
    family, params = parse_model_spec(spec)
    ctor = _FAMILIES[family][0]
    return ctor(**params)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def power_order(model: DistributionModel) -> float:
    """Sup of the b with SF(u) = o(u**-b): the law's power order at +inf.

    A power tail has its exponent; bounded supports, weibull-type
    declarations and the lognormal (SF = o(u**-b) for every b) are lighter
    than every power.  E X**b < inf exactly when b < power_order.
    """
    tail = model.tail
    if isinstance(tail, PowerTail):
        return tail.alpha
    if isinstance(tail, WeibullType) or model.support[1] < math.inf or model.family == "lognormal":
        return math.inf
    raise SpecError(f"no power order for model {model.family!r}")


def _heavy_first(x: DistributionModel, y: DistributionModel):
    """(heavy, light): the smaller power order first, X on a tie; the one operand rule."""
    try:
        return (y, x) if power_order(y) < power_order(x) else (x, y)
    except SpecError:  # a law without a power order keeps the caller's order
        return x, y


def moment(model: DistributionModel, alpha: float) -> float:
    """E X**alpha for a model supported on [0, inf).

    Uses the closed form where one exists, otherwise the survival-function
    identity E X**alpha = alpha * int_0^inf SF(u) u**(alpha-1) du.  Raises
    DivergentMoment unless alpha < power_order(model).  The Pareto form
    matters: the identity's half-line map places no node beyond ~1e16, so
    a slowly decaying power tail would come out low yet "converged".
    """
    if alpha <= 0:
        raise SpecError(f"moment order must be positive, got {alpha}")
    if model.support[0] < 0:
        raise DomainError(
            f"moment is defined for nonnegative models, support {model.support}"
        )
    if model.family == "lognormal":
        m, s = model.params["m"], model.params["s"]
        return math.exp(alpha * m + alpha * alpha * s * s / 2.0)
    if model.family == "weibull":
        K, a = model.params["K"], model.params["alpha"]
        return K ** (-alpha / a) * math.gamma(alpha / a + 1.0)
    if model.family == "constant":
        return model.params["c"] ** alpha
    if model.family == "pareto":
        C, a = model.params["C"], model.params["alpha"]
        if not alpha < a:
            raise DivergentMoment(f"E X^{alpha} diverges for pareto with tail {model.tail}")
        return C ** (alpha / a) * a / (a - alpha)
    return moment_by_quadrature(model, alpha)


def moment_by_quadrature(model: DistributionModel, alpha: float, rtol: float = 1e-9) -> float:
    """The tail-integral identity evaluated with adaptive quadrature."""
    from .quadrature import log_quad

    lo, hi = model.support
    if lo < 0:
        raise DomainError("quadrature moment needs support within [0, inf)")
    if not power_order(model) > alpha:
        raise DivergentMoment(
            f"E X^{alpha} diverges for {model.family} with tail {model.tail}"
        )

    def log_integrand(u):
        with np.errstate(divide="ignore"):
            return model.log_sf(u) + (alpha - 1.0) * np.log(np.maximum(u, 1e-320))

    breaks = [b for b in (lo, hi) if 0.0 < b < math.inf]
    log_val = log_quad(log_integrand, 0.0, math.inf, rtol=rtol, breakpoints=breaks)
    return alpha * math.exp(log_val)


# ---------------------------------------------------------------------------
# Ratio tables (exact vs asymptotic, log-space stored)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioRow:
    u: float
    log_sf_exact: float
    log_h: float
    ratio: float
    method: str
    status: str = "ok"


@dataclass(frozen=True)
class RatioTable:
    rows: tuple[RatioRow, ...]

    def ratios(self) -> list[float]:
        return [r.ratio for r in self.rows if r.status == "ok"]
