"""Laplace-type integrals: log-space numerics and their closed asymptotics.

The central object is the truncated tail-mass integral

    I(u) = int_0^delta z**mu * (u+z)**beta * exp(-K*(u+z)**alpha) dz,

whose large-u behaviour drives the sum/product tail formulas.  Every
numeric routine factors exp(-K*u**alpha) out of the integrand before
quadrature so the remaining factor stays within double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AssumptionError, SpecError, as_double, as_number
from .quadrature import log_quad

__all__ = [
    "tail_integral_numeric",
    "tail_integral_asymptotic",
    "LaplaceProblem",
    "LaplaceResult",
    "laplace_general",
]


def _check_positive(**kv):
    for name, val in kv.items():
        if not val > 0:
            raise SpecError(f"{name} must be positive, got {val}")


def _log_peak(u: float, alpha: float, K: float) -> float:
    """K u**alpha, the log-peak both forms factor out, if it is a double."""
    return as_double(f"K*u**alpha at u={u} (alpha={alpha}, K={K})", lambda: K * u ** alpha,
                     positive=False)


def tail_integral_numeric(
    u: float,
    alpha: float,
    beta: float,
    mu: float,
    K: float,
    delta: float,
) -> float:
    """log I(u) by adaptive quadrature, exact up to rtol 1e-10."""
    _check_positive(u=u, alpha=alpha, mu=mu, K=K)
    delta = as_number("delta", delta, finite=False)
    if delta < 0:
        raise SpecError(f"delta must be nonnegative, got {delta}")
    if delta == 0:
        return -math.inf
    peak = _log_peak(u, alpha, K)  # integrand maximum sits at z = 0

    def log_rest(z):
        # K((u+z)^alpha - u^alpha) = K (u+z)^alpha (1 - (1 + z/u)^-alpha),
        # without the cancellation of two numbers near K u^alpha (the
        # difference is O(1) where the mass sits) and without overflow.
        with np.errstate(divide="ignore"):
            return (
                mu * np.log(np.maximum(z, 1e-320))
                + beta * np.log(u + z)
                + K * (u + z) ** alpha * np.expm1(-alpha * np.log1p(z / u))
            )

    # Panels seeded at 1, 10 and 100 kernel scales 1/slope, where the mass
    # sits; a slope beyond the doubles seeds none inside (0, delta).  Logs
    # near the top of the doubles overflow in the quadrature's differences,
    # to terms of 0; a result beyond the doubles is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        slope = K * alpha * np.float64(u) ** (alpha - 1.0)
        breaks = [b / slope for b in (1.0, 10.0, 100.0) if b < delta * slope]
        log_i = -peak + log_quad(log_rest, 0.0, delta, rtol=1e-10, breakpoints=breaks)
    if log_i == -math.inf:  # the integrand vanishes at every node
        return log_i
    return as_double(f"log I(u) at u={u}", lambda: log_i, positive=False)


def tail_integral_asymptotic(
    u: float, alpha: float, beta: float, mu: float, K: float
) -> float:
    """log of the closed large-u form of I(u); needs decay order alpha > 1."""
    _check_positive(u=u, mu=mu, K=K)
    if alpha <= 1:
        raise AssumptionError(
            f"closed form requires alpha > 1, got alpha={alpha}"
        )
    return as_double(f"log I(u) closed form at u={u}", lambda: (
        -(mu + 1.0) * math.log(K * alpha)
        + math.lgamma(mu + 1.0)
        + (beta - (alpha - 1.0) * (mu + 1.0)) * math.log(u)
        - _log_peak(u, alpha, K)
    ), positive=False)


# ---------------------------------------------------------------------------
# General Laplace problems with a boundary minimum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplaceProblem:
    """F(u) = int_0^a x**(mu-1) * f(x) * exp(-u*S(x)) dx.

    S must attain its minimum over [0, a] only at 0 and have a positive
    one-sided derivative there; f must be continuous with f(0) > 0.
    Function fields must be reentrant: problems are shared freely across
    threads.
    """

    f: Callable[[np.ndarray], np.ndarray]
    S: Callable[[np.ndarray], np.ndarray]
    mu: float
    a: float

    def __post_init__(self):
        _check_positive(mu=self.mu, a=self.a)


@dataclass(frozen=True)
class LaplaceResult:
    numeric: float     # log F(u) by quadrature
    asymptotic: float  # log of Gamma(mu) * f(0) * S'(0)**-mu * u**-mu * e**(-u*S(0))


def _derivative_at_zero(S, step: float = 2.0 ** -20) -> float:
    # One-sided second-order difference: (-3 S(0) + 4 S(h) - S(2h)) / (2h).
    # A power-of-two step is exact in binary, so affine S gives S'(0) exactly.
    s0, s1, s2 = (float(S(np.array([x]))[0]) for x in (0.0, step, 2 * step))
    return (-3.0 * s0 + 4.0 * s1 - s2) / (2.0 * step)


def laplace_general(problem: LaplaceProblem, u: float, rtol: float = 1e-10) -> LaplaceResult:
    """Evaluate a boundary-minimum Laplace integral and its leading form."""
    _check_positive(u=u)
    f, S, mu, a = problem.f, problem.S, problem.mu, problem.a
    f0 = float(f(np.array([0.0]))[0])
    if not f0 > 0.0:
        raise AssumptionError(f"laplace_general needs f(0) > 0, got f(0)={f0}")
    s0 = float(S(np.array([0.0]))[0])
    slope = _derivative_at_zero(S)
    if not slope > 1e-8:
        raise AssumptionError(
            f"S must be increasing at 0; finite differences give S'(0)={slope:.3e}"
        )

    def log_integrand(x):
        xs = np.maximum(x, 1e-320)
        with np.errstate(divide="ignore", invalid="ignore"):
            fx = np.asarray(f(x), dtype=float)
            out = (
                (mu - 1.0) * np.log(xs)
                + np.where(fx > 0, np.log(np.maximum(fx, 1e-320)), -np.inf)
                - u * (np.asarray(S(x), dtype=float) - s0)
            )
        return out

    # Panels seeded at the kernel scale 1/(u*S'(0)) where the mass sits.
    scale = mu / (u * slope)
    breaks = [b for b in (scale, 10 * scale, 100 * scale) if 0 < b < a]
    numeric = -u * s0 + log_quad(log_integrand, 0.0, a, rtol=rtol, breakpoints=breaks)
    asymptotic = (
        math.lgamma(mu)
        + math.log(f0)
        - mu * math.log(slope)
        - mu * math.log(u)
        - u * s0
    )
    return LaplaceResult(numeric=numeric, asymptotic=asymptotic)
