"""Exact Brownian survival oracle for random-trend suprema.

For a standard Brownian motion with unit-power trend the conditional
supremum law is exponential: P(sup_t (B(t) - a*t) > v) = exp(-2*a*v) for
v >= 0 and any fixed slope a > 0.  Averaging that kernel over the laws of
the slope eta and offset zeta gives an exact survival function for

    sup_t (B(t) - eta*t - zeta),

independent of every closed-form asymptotic in this package.  Offsets with
zeta <= -u make the kernel saturate at 1; that mass is added analytically
as P(zeta <= -u) rather than integrated.  Both averages are
:func:`tailward.oracle.log_mixture`, the one mixture integral: the inner
one over eta is the outer one's kernel.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, SpecError
from ..oracle import log_mixture
from ..quadrature import log1mexp
from ..tail_model import DistributionModel, _scalar_like

__all__ = ["eta_power_low_model", "negate_model", "bm_exact_oracle"]


def eta_power_low_model(delta: float, C: float, mu: float) -> DistributionModel:
    """Law with CDF C*(x-delta)**mu on [delta, delta + C**(-1/mu)].

    Realizes an exact slope law whose lower-edge behaviour is the declared
    (delta, C, mu); the width is whatever makes the CDF reach one.
    """
    if delta < 0 or C <= 0 or mu <= 0:
        raise SpecError(f"bad eta parameters delta={delta}, C={C}, mu={mu}")
    width = C ** (-1.0 / mu)
    hi = delta + width

    def log_sf(u):
        x = np.asarray(u, dtype=float)
        inside = np.clip(x - delta, 0.0, width)
        cdf = np.minimum(C * inside ** mu, 1.0)
        with np.errstate(divide="ignore"):
            out = np.where(x >= hi, -np.inf, np.log1p(-np.minimum(cdf, 1.0 - 1e-17)))
        out = np.where(x < delta, 0.0, out)
        return _scalar_like(u, out)

    def log_density(u):
        x = np.asarray(u, dtype=float)
        inside = (x > delta) & (x < hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            body = math.log(C * mu) + (mu - 1.0) * np.log(
                np.maximum(x - delta, 1e-320)
            )
        out = np.where(inside, body, -np.inf)
        return _scalar_like(u, out)

    def sampler(rng, size=None):
        v = rng.random(size)
        return delta + (v / C) ** (1.0 / mu)

    return DistributionModel(
        family="eta_power_low",
        params={"delta": delta, "C": C, "mu": mu},
        support=(delta, hi),
        tail=None,
        log_sf=log_sf,
        log_density=log_density,
        sampler=sampler,
    )


def negate_model(model: DistributionModel) -> DistributionModel:
    """The law of -X for a model with a density."""
    if model.log_density is None:
        raise SpecError(f"negate_model needs a density; {model.family} has none")
    lo, hi = model.support

    def log_sf(u):
        # P(-X > u) = P(X < -u) = 1 - SF_X(-u) for a continuous law.
        x = np.asarray(u, dtype=float)
        base = np.minimum(model.log_sf(-x), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                base == 0.0, -np.inf, np.log(-np.expm1(np.maximum(base, -745.0)))
            )
        out = np.where(base < -745.0, 0.0, out)
        return _scalar_like(u, out)

    def log_density(u):
        x = np.asarray(u, dtype=float)
        out = model.log_density(-x)
        return _scalar_like(u, out)

    def sampler(rng, size=None):
        return -model.sampler(rng, size)

    return DistributionModel(
        family=f"neg_{model.family}",
        params=dict(model.params),
        support=(-hi, -lo),
        tail=None,
        log_sf=log_sf,
        log_density=log_density,
        sampler=sampler,
    )


def _log_mean_kernel(eta: DistributionModel, v: float, rtol: float) -> float:
    """log E_eta P(sup(B - eta*t) > v) for a fixed offset argument v."""
    if v <= 0:
        return 0.0
    scale = 1.0 / (2.0 * v)
    # A slope x <= 0 never lets the supremum stay below v: the kernel is 1.
    return log_mixture(eta, lambda x: np.minimum(-2.0 * x * v, 0.0),
                       -math.inf, math.inf, rtol=rtol,
                       breakpoints=(scale, 10 * scale, 100 * scale))


def bm_exact_oracle(
    eta: DistributionModel,
    zeta: DistributionModel | None,
    u: float,
    rtol: float = 1e-9,
) -> float:
    """log P(sup_t (B(t) - eta*t - zeta) > u), exact up to quadrature.

    eta must be positive almost surely (a point mass at c <= 0 is the
    saturated kernel); zeta may be any law with a density (or a constant),
    defaulting to zero.  Nested adaptive quadrature: outer over zeta, inner
    over eta at a tenth of the outer rtol.
    """
    lo, hi = eta.support
    if lo < min(hi, 0.0):
        raise DomainError(f"eta must be positive, support {eta.support}")
    if zeta is None:
        return _log_mean_kernel(eta, u, rtol)
    inner = np.vectorize(lambda z: _log_mean_kernel(eta, u + z, rtol / 10.0),
                         otypes=[float])
    # Kernel saturates at 1 for zeta <= -u: that mass is P(zeta <= -u).
    saturated = -math.inf
    if zeta.support[0] < -u:
        saturated = log1mexp(min(float(zeta.log_sf(-u)), 0.0))
    return log_mixture(zeta, inner, -u, math.inf, saturated, rtol)
