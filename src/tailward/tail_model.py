"""Algebraic tail families, exact reference distributions and moments.

Three tail families are closed under the sum/product calculus implemented in
:mod:`tailward.asymptotic_engine`:

* ``PowerTail``      -- SF(u) ~ C * u**(-alpha), unbounded support
* ``WeibullType``    -- SF(u) ~ C * u**rho * exp(-K * (u - shift)**alpha)
* ``EdgePower``      -- SF(u) ~ C * (sigma - u)**mu as u approaches the
  finite endpoint sigma from below

All survival evaluation is done and stored in log-space: the interesting u
push survival probabilities far below 1e-300.
"""

from __future__ import annotations

import csv
import io
import json
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
    "make_model",
    "parse_model_spec",
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

    Raises DomainError outside the variant's valid region instead of
    silently returning 0 or -inf.
    """
    if isinstance(tail, PowerTail):
        if u <= 0:
            raise DomainError(f"power tail defined for u > 0, got u={u}")
        return math.log(tail.C) - tail.alpha * math.log(u)
    if isinstance(tail, WeibullType):
        if u <= tail.shift or u <= 0:
            raise DomainError(
                f"weibull-type tail defined for u > max(shift, 0) = "
                f"{max(tail.shift, 0.0)}, got u={u}"
            )
        return (
            math.log(tail.C)
            + tail.rho * math.log(u)
            - tail.K * (u - tail.shift) ** tail.alpha
        )
    if isinstance(tail, EdgePower):
        if u >= tail.sigma:
            raise DomainError(
                f"edge tail defined for u < sigma={tail.sigma}, got u={u}"
            )
        return math.log(tail.C) + tail.mu * math.log(tail.sigma - u)
    raise SpecError(f"not an asymptotic tail: {tail!r}")


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
    none).
    """

    family: str
    params: dict = field(compare=False)
    support: tuple[float, float]
    tail: Optional[AsymptoticTail]
    log_sf: Callable = field(compare=False, repr=False)
    log_density: Optional[Callable] = field(compare=False, repr=False)
    sampler: Callable = field(compare=False, repr=False)

    def sf(self, u):
        return np.exp(self.log_sf(u))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return self.sampler(rng, size)

    def spec(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}


def _as_array(u):
    return np.asarray(u, dtype=float)


def _scalar_like(u, out):
    """``out`` as a Python float when the argument ``u`` was a scalar."""
    if np.ndim(u) == 0:
        return float(out)
    return out


def _make_weibull(K: float, alpha: float) -> DistributionModel:
    if not (K > 0 and alpha > 0):
        raise SpecError(f"weibull needs K > 0 and alpha > 0, got K={K}, alpha={alpha}")

    def log_sf(u):
        x = _as_array(u)
        out = np.where(x > 0, -K * np.maximum(x, 0.0) ** alpha, 0.0)
        return _scalar_like(u, out)

    def log_density(u):
        x = _as_array(u)
        with np.errstate(divide="ignore"):
            body = math.log(K * alpha) + (alpha - 1) * np.log(np.maximum(x, 1e-320))
        out = np.where(x > 0, body - K * np.maximum(x, 0.0) ** alpha, -np.inf)
        return _scalar_like(u, out)

    def sampler(rng, size=None):
        v = rng.random(size)
        return (-np.log1p(-v) / K) ** (1.0 / alpha)

    return DistributionModel(
        family="weibull",
        params={"K": K, "alpha": alpha},
        support=(0.0, math.inf),
        tail=WeibullType(1.0, 0.0, K, alpha, 0.0),
        log_sf=log_sf,
        log_density=log_density,
        sampler=sampler,
    )


def _make_pareto(C: float, alpha: float) -> DistributionModel:
    if not (C > 0 and alpha > 0):
        raise SpecError(f"pareto needs C > 0 and alpha > 0, got C={C}, alpha={alpha}")
    lo = C ** (1.0 / alpha)

    def log_sf(u):
        x = _as_array(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = math.log(C) - alpha * np.log(np.maximum(x, 1e-320))
        out = np.where(x > lo, body, 0.0)
        return _scalar_like(u, out)

    def log_density(u):
        x = _as_array(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = math.log(C * alpha) - (alpha + 1) * np.log(np.maximum(x, 1e-320))
        out = np.where(x >= lo, body, -np.inf)
        return _scalar_like(u, out)

    def sampler(rng, size=None):
        v = rng.random(size)
        return lo * (1.0 - v) ** (-1.0 / alpha)

    return DistributionModel(
        family="pareto",
        params={"C": C, "alpha": alpha},
        support=(lo, math.inf),
        tail=PowerTail(C, alpha),
        log_sf=log_sf,
        log_density=log_density,
        sampler=sampler,
    )


def _make_edge(sigma: float, mu: float) -> DistributionModel:
    # Support is fixed to [sigma-1, sigma] so SF(u) = (sigma-u)**mu exactly
    # there; the declared tail is an identity, not an asymptotic.
    if not mu > 0:
        raise SpecError(f"edge needs mu > 0, got mu={mu}")

    def log_sf(u):
        x = _as_array(u)
        d = np.clip(sigma - x, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            out = mu * np.log(d)
        return _scalar_like(u, out)

    def log_density(u):
        x = _as_array(u)
        inside = (x > sigma - 1.0) & (x < sigma)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = math.log(mu) + (mu - 1) * np.log(np.maximum(sigma - x, 1e-320))
        out = np.where(inside, body, -np.inf)
        return _scalar_like(u, out)

    def sampler(rng, size=None):
        v = rng.random(size)
        return sigma - v ** (1.0 / mu)

    return DistributionModel(
        family="edge",
        params={"sigma": sigma, "mu": mu},
        support=(sigma - 1.0, sigma),
        tail=EdgePower(1.0, sigma, mu),
        log_sf=log_sf,
        log_density=log_density,
        sampler=sampler,
    )


def _make_lognormal(m: float, s: float) -> DistributionModel:
    if not s > 0:
        raise SpecError(f"lognormal needs s > 0, got s={s}")

    def log_sf(u):
        x = _as_array(u)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 1e-320)) - m) / s
        out = np.where(x > 0, log_norm_sf(z), 0.0)
        return _scalar_like(u, out)

    def log_density(u):
        x = _as_array(u)
        with np.errstate(divide="ignore"):
            lx = np.log(np.maximum(x, 1e-320))
        body = -lx - math.log(s) - 0.5 * math.log(2 * math.pi) - (lx - m) ** 2 / (2 * s * s)
        out = np.where(x > 0, body, -np.inf)
        return _scalar_like(u, out)

    def sampler(rng, size=None):
        return np.exp(m + s * rng.standard_normal(size))

    # No declaration: the lognormal survival function is not asymptotic to
    # any member of the three families (it decays in powers of log u).
    return DistributionModel(
        family="lognormal",
        params={"m": m, "s": s},
        support=(0.0, math.inf),
        tail=None,
        log_sf=log_sf,
        log_density=log_density,
        sampler=sampler,
    )


def _make_normal() -> DistributionModel:
    def log_sf(u):
        x = _as_array(u)
        out = log_norm_sf(x)
        return _scalar_like(u, out)

    def log_density(u):
        x = _as_array(u)
        out = -0.5 * math.log(2 * math.pi) - x * x / 2.0
        return _scalar_like(u, out)

    def sampler(rng, size=None):
        return rng.standard_normal(size)

    # Mills ratio: SF(u) ~ phi(u)/u.
    return DistributionModel(
        family="normal",
        params={},
        support=(-math.inf, math.inf),
        tail=WeibullType((2 * math.pi) ** -0.5, -1.0, 0.5, 2.0, 0.0),
        log_sf=log_sf,
        log_density=log_density,
        sampler=sampler,
    )


def _make_constant(c: float) -> DistributionModel:
    def log_sf(u):
        x = _as_array(u)
        out = np.where(x < c, 0.0, -np.inf)
        return _scalar_like(u, out)

    def sampler(rng, size=None):
        if size is None:
            return float(c)
        return np.full(size, float(c))

    return DistributionModel(
        family="constant",
        params={"c": c},
        support=(c, c),
        tail=None,
        log_sf=log_sf,
        log_density=None,
        sampler=sampler,
    )


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

def _moment_exists(model: DistributionModel, alpha: float) -> bool:
    """Decide E X**alpha < inf from the declared tail or support.

    Power tails need decay exponent > alpha; weibull-type declarations and
    bounded supports dominate every power; the lognormal dominates every
    power as well (its survival function is o(u**-b) for all b).
    """
    if model.support[1] < math.inf:
        return True
    tail = model.tail
    if isinstance(tail, PowerTail):
        return tail.alpha > alpha
    if isinstance(tail, WeibullType):
        return True
    if model.family == "lognormal":
        return True
    raise SpecError(f"no moment rule for model {model.family!r}")


def moment(model: DistributionModel, alpha: float) -> float:
    """E X**alpha for a model supported on [0, inf).

    Uses the closed form where one exists, otherwise the survival-function
    identity E X**alpha = alpha * int_0^inf SF(u) u**(alpha-1) du.
    """
    if alpha <= 0:
        raise SpecError(f"moment order must be positive, got {alpha}")
    if model.support[0] < 0:
        raise DomainError(
            f"moment is defined for nonnegative models, support {model.support}"
        )
    if not _moment_exists(model, alpha):
        raise DivergentMoment(
            f"E X^{alpha} diverges for {model.family} with tail {model.tail}"
        )
    if model.family == "lognormal":
        m, s = model.params["m"], model.params["s"]
        return math.exp(alpha * m + alpha * alpha * s * s / 2.0)
    if model.family == "weibull":
        K, a = model.params["K"], model.params["alpha"]
        return K ** (-alpha / a) * math.gamma(alpha / a + 1.0)
    if model.family == "constant":
        return model.params["c"] ** alpha
    return moment_by_quadrature(model, alpha)


def moment_by_quadrature(model: DistributionModel, alpha: float, rtol: float = 1e-9) -> float:
    """The tail-integral identity evaluated with adaptive quadrature."""
    from .quadrature import log_quad

    lo, hi = model.support
    if lo < 0:
        raise DomainError("quadrature moment needs support within [0, inf)")
    if not _moment_exists(model, alpha):
        raise DivergentMoment(f"E X^{alpha} diverges for {model.family}")

    def log_integrand(u):
        with np.errstate(divide="ignore"):
            return model.log_sf(u) + (alpha - 1.0) * np.log(np.maximum(u, 1e-320))

    breaks = [b for b in (lo, hi) if 0.0 < b < math.inf]
    log_val = log_quad(log_integrand, 0.0, math.inf, rtol=rtol, breakpoints=breaks)
    return alpha * math.exp(log_val)


# ---------------------------------------------------------------------------
# Ratio tables (exact vs asymptotic, log-space stored)
# ---------------------------------------------------------------------------

def _finite_or_null(value):
    """A JSON-ready copy of ``value`` with every non-finite float set to None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


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

    def to_json(self) -> str:
        """Strict JSON: a failed row's non-finite numbers become null."""
        rows = [row.__dict__ for row in self.rows]
        return json.dumps(_finite_or_null(rows), indent=2, allow_nan=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["u", "log_sf_exact", "log_h", "ratio", "method", "status"])
        for r in self.rows:
            writer.writerow([
                repr(r.u), repr(r.log_sf_exact), repr(r.log_h),
                repr(r.ratio), r.method, r.status,
            ])
        return buf.getvalue()

    @staticmethod
    def from_json(text: str) -> "RatioTable":
        rows = tuple(RatioRow(**obj) for obj in json.loads(text))
        return RatioTable(rows)
