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
from ..tail_model import DistributionModel, law

__all__ = ["eta_power_low_model", "negate_model", "bm_exact_oracle"]


def eta_power_low_model(delta: float, C: float, mu: float) -> DistributionModel:
    """Law with CDF C*(x-delta)**mu on [delta, delta + C**(-1/mu)].

    Realizes an exact slope law whose lower-edge behaviour is the declared
    (delta, C, mu); the width is whatever makes the CDF reach one.
    """
    if delta < 0 or C <= 0 or mu <= 0:
        raise SpecError(f"bad eta parameters delta={delta}, C={C}, mu={mu}")
    width = C ** (-1.0 / mu)

    def log_sf(x):
        cdf = np.minimum(C * np.minimum(x - delta, width) ** mu, 1.0)
        return np.log1p(-np.minimum(cdf, 1.0 - 1e-17))

    def log_density(x):
        return math.log(C * mu) + (mu - 1.0) * np.log(np.maximum(x - delta, 1e-320))

    def sampler(rng, size=None):
        v = rng.random(size)
        return delta + (v / C) ** (1.0 / mu)

    return law("eta_power_low", {"delta": delta, "C": C, "mu": mu},
               (delta, delta + width), None, sampler, log_sf, log_density)


def negate_model(model: DistributionModel) -> DistributionModel:
    """The law of -X for a model with a density."""
    if model.log_density is None:
        raise SpecError(f"negate_model needs a density; {model.family} has none")
    lo, hi = model.support

    def log_sf(x):
        # P(-X > u) = P(X < -u) = 1 - SF_X(-u) for a continuous law.
        return np.log(-np.expm1(np.minimum(model.log_sf(-x), 0.0)))

    def log_density(x):
        return model.log_density(-x)

    def sampler(rng, size=None):
        return -model.sampler(rng, size)

    return law(f"neg_{model.family}", dict(model.params), (-hi, -lo), None,
               sampler, log_sf, log_density)


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
