"""Exact Brownian survival oracle for random-trend suprema.

For a standard Brownian motion with unit-power trend the conditional
supremum law is exponential: P(sup_t (B(t) - a*t) > v) = exp(-2*a*v) for
v >= 0 and any fixed slope a > 0.  Averaging that kernel over the laws of
the slope eta and offset zeta gives an exact survival function for

    sup_t (B(t) - eta*t - zeta),

independent of every closed-form asymptotic in this package.  Offsets with
zeta <= -u make the kernel saturate at 1; that mass is added analytically
as P(zeta <= -u), zeta's own lower tail, rather than integrated.  Both
averages are :func:`tailward.oracle.log_mixture`, the one mixture
integral: the inner one over eta is the outer one's kernel.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, SpecError, as_double
from ..oracle import log_mixture
from ..tail_model import DistributionModel, EdgePower, law
from .trend import _check_slope_edge

__all__ = ["eta_power_low_model", "negate_model", "bm_exact_oracle"]


def eta_power_low_model(delta: float, C: float, mu: float) -> DistributionModel:
    """Law with CDF C*(x-delta)**mu on [delta, delta + C**(-1/mu)].

    Realizes an exact slope law whose lower-edge behaviour is the declared
    (delta, C, mu), checked as a trend model's ``EdgePower(C, -delta, mu)``;
    the width is whatever makes the CDF reach one.
    """
    _check_slope_edge(EdgePower(C, -delta, mu))
    width = as_double(f"eta width C**(-1/mu) for C={C}, mu={mu}", lambda: C ** (-1.0 / mu))

    def log_sf(x):
        cdf = np.minimum(C * np.minimum(x - delta, width) ** mu, 1.0)
        return np.log1p(-cdf)

    def log_density(x):
        return math.log(C * mu) + (mu - 1.0) * np.log(x - delta)

    def sampler(rng, size=None):
        v = rng.random(size)
        v /= C
        v **= 1.0 / mu
        v += delta
        return v

    return law("eta_power_low", {"delta": delta, "C": C, "mu": mu},
               (delta, delta + width), None, sampler, log_sf, log_density)


def negate_model(model: DistributionModel) -> DistributionModel:
    """The law of -X for a model with a density: its two tails swap.

    P(-X > x) = P(X < -x) and P(-X <= x) = P(X >= -x), each X's own tail:
    a continuous law puts no mass on the point -x.
    """
    if model.log_density is None:
        raise SpecError(f"negate_model needs a density; {model.family} has none")
    lo, hi = model.support

    def sampler(rng, size=None):
        return -model.sampler(rng, size)

    return law(f"neg_{model.family}", dict(model.params), (-hi, -lo), None, sampler,
               lambda x: model.log_cdf(-x), lambda x: model.log_density(-x),
               log_cdf=lambda x: model.log_sf(-x))


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
    return log_mixture(zeta, inner, -u, math.inf, zeta.log_cdf(-u), rtol)
