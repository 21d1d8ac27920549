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

The module defines no law.  A trend model's slope and offset are upper
tails of -eta and -zeta, and their exact laws are the mirror images
``tail_model.negate_model(tail_model._law_of(tail))``: pareto for a power
tail, the edge law for an edge tail (``eta_power_low_model`` is the slope's).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, as_number
from ..oracle import log_mixture
from ..tail_model import DistributionModel, EdgePower, _law_of, negate_model
from .trend import _check_slope_edge

__all__ = ["eta_power_low_model", "bm_exact_oracle"]


def eta_power_low_model(delta: float, C: float, mu: float) -> DistributionModel:
    """Law with CDF C*(x-delta)**mu on [delta, delta + C**(-1/mu)]: the mirror
    image of the edge law of a trend model's slope tail EdgePower(C, -delta, mu)."""
    _check_slope_edge(eta := EdgePower(C, -delta, mu))
    return negate_model(_law_of(eta))


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
    u = as_number("level u", u, finite=False)
    lo, hi = eta.support
    if lo < min(hi, 0.0):
        raise DomainError(f"eta must be positive, support {eta.support}")
    if zeta is None:
        return _log_mean_kernel(eta, u, rtol)
    inner = np.vectorize(lambda z: _log_mean_kernel(eta, u + z, rtol / 10.0),
                         otypes=[float])
    # Kernel saturates at 1 for zeta <= -u: that mass is P(zeta <= -u).
    return log_mixture(zeta, inner, -u, math.inf, zeta.log_cdf(-u), rtol)
