"""Algebraic tail families, exact reference distributions and moments.

Three tail families are closed under the sum/product calculus implemented in
:mod:`tailward.asymptotic_engine`:

* ``PowerTail``      -- SF(u) ~ C * u**(-alpha), unbounded support
* ``WeibullType``    -- SF(u) ~ C * u**rho * exp(-K * (u - shift)**alpha)
* ``EdgePower``      -- SF(u) ~ C * (sigma - u)**mu as u approaches the
  finite endpoint sigma from below

All survival evaluation is done and stored in log-space: the interesting u
push survival probabilities far below 1e-300.

Every exact law is built by :func:`law`, or mirrored from one by
:func:`negate_model`, and obeys one support rule: with support (lo, hi),
log SF is 0 at or below lo and -inf at or above hi, log CDF the reverse,
log density is -inf outside the open interval (lo, hi), and a scalar
argument gives a float.  Constructors give only the formulas valid inside
(lo, hi).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DivergentMoment, DomainError, SpecError, as_double, as_number
from .quadrature import log1mexp, log_quad, logsumexp_pair
from .specfun import log_norm_sf

__all__ = [
    "PowerTail",
    "WeibullType",
    "EdgePower",
    "AsymptoticTail",
    "sf_eval",
    "power_substitute",
    "tail_to_dict",
    "DistributionModel",
    "law",
    "negate_model",
    "make_model",
    "parse_model_spec",
    "power_order",
    "moment",
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
        _check_fields(self, "C", "alpha")


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
        _check_fields(self, "C", "K", "alpha")


@dataclass(frozen=True)
class EdgePower:
    """SF(u) ~ C * (sigma - u)**mu as u increases to the endpoint sigma."""

    C: float
    sigma: float
    mu: float

    def __post_init__(self):
        _check_fields(self, "C", "mu")


AsymptoticTail = PowerTail | WeibullType | EdgePower


def _check_fields(tail: AsymptoticTail, *positive: str) -> None:
    """Every field of a tail is a finite double, and the ``positive`` ones are > 0."""
    bad = ", ".join(f"{k}={v!r}" for k, v in tail.__dict__.items()
                    if not (math.isfinite(v) and (v > 0 or k not in positive)))
    if bad:
        raise SpecError(f"{_VARIANT_NAMES[type(tail)]} tail needs finite fields with "
                        f"{', '.join(positive)} > 0, got {bad}")


def sf_eval(tail: AsymptoticTail, u: float) -> float:
    """Log of the asymptotic tail form at u, exact in log-space.

    Raises DomainError outside the variant's valid region, or where the
    log tail is not a finite double, instead of returning 0, -inf or inf.
    """
    if isinstance(tail, PowerTail):
        if u <= 0:
            raise DomainError(f"power tail defined for u > 0, got u={u}")
        log_tail = lambda: math.log(tail.C) - tail.alpha * math.log(u)
    elif isinstance(tail, WeibullType):
        if u <= tail.shift or u <= 0:
            raise DomainError(
                f"weibull-type tail defined for u > max(shift, 0) = "
                f"{max(tail.shift, 0.0)}, got u={u}"
            )
        log_tail = lambda: (math.log(tail.C) + tail.rho * math.log(u)
                            - tail.K * (u - tail.shift) ** tail.alpha)
    elif isinstance(tail, EdgePower):
        if u >= tail.sigma:
            raise DomainError(
                f"edge tail defined for u < sigma={tail.sigma}, got u={u}"
            )
        log_tail = lambda: math.log(tail.C) + tail.mu * math.log(tail.sigma - u)
    else:
        raise SpecError(f"not an asymptotic tail: {tail!r}")
    return as_double(f"log tail at u={u}", log_tail, positive=False)


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


# ---------------------------------------------------------------------------
# Exact reference distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionModel:
    """An exact law: vectorized log survival, log density and log CDF, a sampler, metadata.

    Values are immutable after construction and safe to share across
    threads; samplers take an explicit numpy Generator so callers own all
    mutation.  ``tail`` is the exact asymptotic declaration where one exists
    inside the three families (lognormal and the degenerate constant have
    none).  Every law follows the module's support rule on ``support``.
    """

    family: str
    params: dict = field(compare=False)
    support: tuple[float, float]
    tail: Optional[AsymptoticTail]
    log_sf: Callable = field(compare=False, repr=False)
    log_density: Optional[Callable] = field(compare=False, repr=False)
    sampler: Callable = field(compare=False, repr=False)
    log_cdf: Callable = field(compare=False, repr=False)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return self.sampler(rng, size)

    def spec(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}


def _own(draw):
    """The array a sampler drew, for its arithmetic to write into; None for
    a scalar draw, which numpy then returns as a new scalar."""
    return draw if isinstance(draw, np.ndarray) else None


# log(1 - e**v) of each value, by the scalar log1mexp's arithmetic.
_log_complement = np.vectorize(lambda v: log1mexp(min(v, 0.0)), otypes=[float])


def law(family: str, params: dict, support: tuple[float, float],
        tail: Optional[AsymptoticTail], sampler: Callable, log_sf: Callable,
        log_density: Optional[Callable] = None,
        log_cdf: Optional[Callable] = None) -> DistributionModel:
    """A DistributionModel from formulas valid strictly inside the support.

    ``log_sf``, ``log_density`` and ``log_cdf`` take a float array, which
    they must not write into, and return a float array of its shape, which
    ``law`` may overwrite at the ends.  They need only be right on the open
    interval (lo, hi); what they give elsewhere, and any floating-point
    error they raise there, is discarded.  The support rule of
    :class:`DistributionModel` is applied here, with one mask per finite
    end, so a law with an infinite end pays no mask for it.  A formula that
    returns its own argument gets a copy masked, never the caller's array.
    Without ``log_cdf`` the CDF is 1 - SF, which loses a lower-tail mass
    below ~1e-16; a law that knows its lower tail passes it.
    """
    lo, hi = support

    def confine(formula, below, above):
        def evaluate(u):
            x = np.asarray(u, dtype=float)
            scalar = x.ndim == 0
            if scalar:  # a one-element array: the same numpy path, the same bits
                x = x.reshape(1)
            with np.errstate(all="ignore"):
                out = formula(x)
            if np.may_share_memory(out, x):
                out = out.copy()
            if lo > -math.inf:
                np.copyto(out, below, where=x <= lo)
            if hi < math.inf:
                np.copyto(out, above, where=x >= hi)
            return float(out[0]) if scalar else out
        return evaluate

    return DistributionModel(
        family=family,
        params=params,
        support=support,
        tail=tail,
        log_sf=confine(log_sf, 0.0, -np.inf),
        log_density=None if log_density is None else confine(log_density, -np.inf, -np.inf),
        sampler=sampler,
        log_cdf=confine(log_cdf or (lambda x: _log_complement(log_sf(x))), -np.inf, 0.0),
    )


def negate_model(model: DistributionModel) -> DistributionModel:
    """The law of -X for a law with a density: its two tails swap.

    P(-X > x) = P(X < -x) and P(-X <= x) = P(X >= -x), each X's own tail:
    a continuous law puts no mass on the point -x.  X's callables follow the
    support rule, so their mirror images do, with no second mask."""
    if model.log_density is None:
        raise SpecError(f"negate_model needs a density; {model.family} has none")
    lo, hi = model.support

    def sampler(rng, size=None):
        v = model.sampler(rng, size)
        return np.negative(v, out=_own(v))

    return DistributionModel(
        family=f"neg_{model.family}", params=dict(model.params), support=(-hi, -lo),
        tail=None, log_sf=lambda x: model.log_cdf(np.negative(x)),
        log_density=lambda x: model.log_density(np.negative(x)), sampler=sampler,
        log_cdf=lambda x: model.log_sf(np.negative(x)))


def _make_weibull(K: float, alpha: float) -> DistributionModel:
    if not (K > 0 and alpha > 0):
        raise SpecError(f"weibull needs K > 0 and alpha > 0, got K={K}, alpha={alpha}")

    # K * alpha can underflow to 0 where neither factor does.
    log_k_alpha = math.log(K * alpha) if K * alpha > 0 else math.log(K) + math.log(alpha)

    # x ** alpha keeps numpy's square and square-root shortcuts; each formula
    # then works in its own arrays.
    def log_sf(x):
        t = x ** alpha
        t *= -K
        return t

    def log_density(x):
        t = np.log(x)
        t *= alpha - 1
        t += log_k_alpha
        p = x ** alpha
        p *= K
        t -= p
        return t

    def sampler(rng, size=None):
        v = rng.random(size)
        o = _own(v)
        v = np.negative(v, out=o)
        v = np.log1p(v, out=o)
        v = np.negative(v, out=o)
        v /= K
        v **= 1.0 / alpha
        return v

    return law("weibull", {"K": K, "alpha": alpha}, (0.0, math.inf),
               WeibullType(1.0, 0.0, K, alpha, 0.0), sampler, log_sf, log_density)


def _make_pareto(C: float, alpha: float) -> DistributionModel:
    if not (C > 0 and alpha > 0):
        raise SpecError(f"pareto needs C > 0 and alpha > 0, got C={C}, alpha={alpha}")
    try:
        lo = C ** (1.0 / alpha)
    except OverflowError:
        raise SpecError(f"pareto support edge C**(1/alpha) is beyond the doubles, "
                        f"got C={C}, alpha={alpha}") from None

    def log_sf(x):
        t = np.log(x)
        t *= alpha
        return np.subtract(math.log(C), t, out=t)

    def log_density(x):
        t = np.log(x)
        t *= alpha + 1
        return np.subtract(math.log(C * alpha), t, out=t)

    def sampler(rng, size=None):
        v = rng.random(size)
        v = np.subtract(1.0, v, out=_own(v))
        v **= -1.0 / alpha
        v *= lo
        return v

    return law("pareto", {"C": C, "alpha": alpha}, (lo, math.inf),
               PowerTail(C, alpha), sampler, log_sf, log_density)


def _make_edge(sigma: float, mu: float, C: float = 1.0) -> DistributionModel:
    # SF(u) = C*(sigma-u)**mu exactly on the support [sigma - C**(-1/mu), sigma]:
    # the tail is an identity, not an asymptotic.  The registry's edge is C = 1.
    if not mu > 0:
        raise SpecError(f"edge needs mu > 0, got mu={mu}")
    width = as_double(f"edge width C**(-1/mu) for C={C}, mu={mu}", lambda: C ** (-1.0 / mu))
    log_c = math.log(C)
    params = {"sigma": sigma, "mu": mu} if C == 1.0 else {"sigma": sigma, "mu": mu, "C": C}

    def log_sf(x):
        return mu * np.log(np.minimum(sigma - x, width)) + log_c

    def log_density(x):
        return math.log(C * mu) + (mu - 1) * np.log(sigma - x)

    def log_cdf(x):
        # log1p(-SF) near the top end, where the SF is below 1/2 and
        # log1mexp(log SF) would lose its relative digits; the default below.
        sf = C * (sigma - x) ** mu
        out = np.log1p(-np.minimum(sf, 0.5))
        far = ~(sf < 0.5)
        out[far] = _log_complement(log_sf(x[far]))
        return out

    def sampler(rng, size=None):
        v = rng.random(size)
        v /= C
        v **= 1.0 / mu
        return np.subtract(sigma, v, out=_own(v))

    return law("edge", params, (sigma - width, sigma),
               EdgePower(C, sigma, mu), sampler, log_sf, log_density, log_cdf)


def _make_lognormal(m: float, s: float) -> DistributionModel:
    if not s > 0:
        raise SpecError(f"lognormal needs s > 0, got s={s}")

    def log_sf(x):
        t = np.log(x)
        t -= m
        t /= s
        return log_norm_sf(t)

    def log_density(x):
        lx = np.log(x)
        out = np.negative(lx)
        out -= math.log(s)
        out -= 0.5 * math.log(2 * math.pi)
        lx -= m
        lx **= 2
        lx /= 2 * s * s
        out -= lx
        return out

    def sampler(rng, size=None):
        z = rng.standard_normal(size)
        z *= s
        z += m
        return np.exp(z, out=_own(z))

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

_SPEC_RE = re.compile(r"\s*([a-z_]+)\s*(?:\(([^()]*)\))?\s*")


def parse_model_spec(spec) -> tuple[str, dict]:
    """Parse ``family(p1, ..., pn)``, the family's parameters in order (just
    ``family`` when it has none), or a JSON-style dict.

    Both forms pass the same checks: a known family, exactly its parameters,
    each read by ``errors.as_number``; a string's slots are number text.
    """
    if isinstance(spec, dict):
        family, given = spec.get("family"), spec.get("params", {})
        if not isinstance(given, dict):
            raise SpecError(f"params must be a mapping in {spec!r}")
    elif isinstance(spec, str) and (m := _SPEC_RE.fullmatch(spec)):
        family, given = m.groups("")
    else:
        raise SpecError(f"cannot parse model spec {spec!r}")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise SpecError(f"unknown distribution family {family!r}")
    order = _FAMILIES[family][1]
    if not isinstance(given, dict):
        slots = given.split(",") if given.strip() else []
        if len(slots) != len(order):
            raise SpecError(f"{family} takes {len(order)} parameters {list(order)}, "
                            f"got {len(slots)} in {spec!r}")
        given = {k: _parse_float(v, spec) for k, v in zip(order, slots)}
    if unknown := [k for k in given if k not in order]:
        raise SpecError(f"{family} has no parameter {unknown[0]!r}")
    if missing := [k for k in order if k not in given]:
        raise SpecError(f"{family} spec {spec!r} is missing {missing}")
    return family, {k: as_number(f"{family} parameter {k}", given[k]) for k in order}


def _parse_float(text: str, spec: str) -> float:
    """The number a law string's slot spells."""
    try:
        return float(text)
    except ValueError:
        raise SpecError(f"bad number {text!r} in {spec!r}") from None


def make_model(spec) -> DistributionModel:
    """Build a registry distribution from a spec string or dict."""
    family, params = parse_model_spec(spec)
    return _FAMILIES[family][0](**params)


def _law_of(tail: PowerTail | EdgePower) -> DistributionModel:
    """The law whose SF is ``tail`` on its support: pareto, or the edge law."""
    if isinstance(tail, PowerTail):
        return _make_pareto(tail.C, tail.alpha)
    if isinstance(tail, EdgePower):
        return _make_edge(tail.sigma, tail.mu, tail.C)
    raise SpecError(f"no exact law for tail {tail!r}")


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

_DECADES = np.outer((-1.0, 1.0), 10.0 ** np.arange(-300, 301)).ravel()


def _mass_decades(y: DistributionModel, lo: float, hi: float) -> np.ndarray:
    # Panel edges at every decade +-10**k inside (lo, hi) and Y's support
    # where log SF_Y lies in (-745, -1e-3); cuts outside (lo, hi) would be
    # dropped by the quadrature, so SF_Y is not evaluated there.
    lo, hi = max(lo, y.support[0]), min(hi, y.support[1])
    decades = _DECADES[(_DECADES > lo) & (_DECADES < hi)]
    with np.errstate(all="ignore"):
        log_sf = np.asarray(y.log_sf(decades))
    return decades[(log_sf > -745.0) & (log_sf < -1e-3)]


_POWER, _LOGNORMAL, _WEIBULL, _BOUNDED = range(4)  # the classes of _tail_rank


def _tail_rank(model: DistributionModel) -> tuple:
    """A sort key for a law's upper tail, heaviest first: the one ranking of two laws.

    Power tails by exponent; then the lognormal, by s and then m, larger
    first; then unbounded weibull-type tails, by alpha and then K, smaller
    first, then rho, larger first; a bounded support last.  A law outside
    these classes is a SpecError.
    """
    tail, hi = model.tail, model.support[1]
    if isinstance(tail, PowerTail):
        return _POWER, tail.alpha
    if model.family == "lognormal":
        return _LOGNORMAL, -model.params["s"], -model.params["m"]
    if isinstance(tail, WeibullType) and hi == math.inf:
        return _WEIBULL, tail.alpha, tail.K, -tail.rho
    if hi < math.inf:
        return (_BOUNDED,)
    raise SpecError(f"no tail rank for model {model.family!r}")


def power_order(model: DistributionModel) -> float:
    """Sup of the b with SF(u) = o(u**-b): the law's power order at +inf.

    A power tail has its exponent; every other class of ``_tail_rank`` is
    lighter than every power.  E X**b < inf exactly when b < power_order.
    """
    rank = _tail_rank(model)
    return rank[1] if rank[0] == _POWER else math.inf


def _heavy_first(x: DistributionModel, y: DistributionModel):
    """(heavy, light) by ``_tail_rank``, X on a tie; the one operand rule."""
    try:
        return (y, x) if _tail_rank(y) < _tail_rank(x) else (x, y)
    except SpecError:  # a law without a rank keeps the caller's order
        return x, y


def _light_tie(x: DistributionModel, y: DistributionModel) -> bool:
    """Whether X and Y share one rank of an unbounded tail lighter than every power."""
    try:
        return _tail_rank(x) == _tail_rank(y) and _tail_rank(x)[0] in (_LOGNORMAL, _WEIBULL)
    except SpecError:
        return False


def _conditioning(x: DistributionModel, y: DistributionModel, op: str):
    """(exact, averaged, inverse) with P(X op Y > u) = E SF_exact(inverse(averaged)(u)):
    the one operand rule, op check and refusal of a product of negative values.
    ``inverse(v)`` maps u to u - v, or to u / v with v floored at 1e-320, and
    takes numpy's ``out=``."""
    if op not in ("sum", "product"):
        raise SpecError(f"unknown op {op!r}")
    exact, averaged = _heavy_first(x, y)
    for m in (exact, averaged) if op == "product" else ():
        if m.support[0] < 0:
            raise DomainError(f"a product needs positive supports, {m.family} has {m.support}")
    if op == "sum":
        return exact, averaged, lambda v: lambda u, out=None: np.subtract(u, v, out=out)

    def inverse(v):
        v = np.maximum(v, 1e-320)
        return lambda u, out=None: np.divide(u, v, out=out)
    return exact, averaged, inverse


def moment(model: DistributionModel, alpha: float) -> float:
    """E X**alpha for a model on [0, inf), a positive double or a DomainError
    (every moment of X = 0 is 0): one ``as_double`` of ``_moment_forms``."""
    direct, log = _moment_forms(model, alpha)
    if model.support[1] == 0.0:
        return 0.0
    return as_double(f"moment of order {alpha} of {model.family}", direct, log_compute=log)


def _moment_forms(model: DistributionModel, alpha: float):
    """(direct, log) forms of E X**alpha, which exists when alpha < power_order:
    a family's closed form, else the survival-function identity.  The Pareto
    form matters: the identity's half-line map places no node beyond ~1e16,
    so a slowly decaying power tail would come out low yet "converged"."""
    if not 0.0 < alpha < math.inf:
        raise SpecError(f"moment order must be positive and finite, got {alpha}")
    if model.support[0] < 0:
        raise DomainError(
            f"moment is defined for nonnegative models, support {model.support}"
        )
    if not alpha < power_order(model):
        raise DivergentMoment(f"E X^{alpha} diverges for {model.family} with tail {model.tail}")
    if model.family == "lognormal":
        m, s = model.params["m"], model.params["s"]
        log = lambda: alpha * m + alpha * alpha * s * s / 2.0
        return lambda: math.exp(log()), log
    if model.family == "weibull":
        K, a = model.params["K"], model.params["alpha"]
        return (lambda: K ** (-alpha / a) * math.gamma(alpha / a + 1.0),
                lambda: -alpha / a * math.log(K) + math.lgamma(alpha / a + 1.0))
    if model.family == "constant":
        c = model.params["c"]
        return lambda: c ** alpha, lambda: alpha * math.log(c)
    if model.family == "pareto":
        C, a = model.params["C"], model.params["alpha"]
        return (lambda: C ** (alpha / a) * a / (a - alpha),
                lambda: alpha / a * math.log(C) + math.log(a) - math.log(a - alpha))
    return moment_by_quadrature(model, alpha)


def moment_by_quadrature(model: DistributionModel, alpha: float):
    """(direct, log) forms of E X**alpha = s**alpha * (t_lo + int SF(s * t**(1/alpha)) dt)
    for a law on [0, inf), one quadrature over t = (u/s)**alpha from t_lo <= 1 to
    t_hi >= 1, the support's ends, at s = hi (an unbounded support: lo, or 1 if 0).
    So the mass below lo and the mass near u = 0 (below the doubles at a small
    order) are exact; each decade of u where SF moves, a sliver of t at a small
    order, is a panel."""
    lo, hi = model.support
    s = hi if 0.0 < hi < math.inf else (lo if lo > 0.0 else 1.0)
    log_t_lo = alpha * math.log(lo / s) if lo > 0.0 else -math.inf

    def log_integrand(t):
        with np.errstate(over="ignore"):
            return model.log_sf(s * t ** (1.0 / alpha))

    with np.errstate(over="ignore", under="ignore"):
        cuts = (_mass_decades(model, 0.0, math.inf) / s) ** alpha
    log_int = log_quad(log_integrand, math.exp(log_t_lo), (hi / s) ** alpha, rtol=1e-9,
                       breakpoints=cuts)
    log_val = alpha * math.log(s) + logsumexp_pair(log_t_lo, log_int)
    return lambda: math.exp(log_val), lambda: log_val
