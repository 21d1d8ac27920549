"""Ground-truth survival functions for X+Y and X*Y via conditioning.

For independent X, Y the survival function of the sum is E SF_X(u - Y) and
that of the product (for positive variables) is E SF_X(u / Y), with X the
heavier law by ``tail_model._conditioning``: SF_X is exact at any level,
while a heavy Y would put its mass near u, beyond the panels' reach at
u ~ 1e300.  Adaptive log-space quadrature against Y's density, with panel
edges at every decade where SF_Y moves, sees Y's mass at any level and
stays accurate while SF_X underflows by thousands of orders of magnitude.
The decades are seeded only inside the integration interval: SF_Y is
evaluated at no decade the quadrature would drop.

Where SF_X saturates at 1 (arguments below X's support) the remaining mass
is exactly Y's own survival function and is added analytically; that
removes the endpoint singularity the infinite-range transform would
otherwise create.

``log_mixture`` is the one mixture integral, "a kernel averaged over an
independent law plus a saturated mass": the sum and product oracles here
and the exact Brownian oracle are all its callers.

These integrals are the referee for every closed-form tail in
:mod:`tailward.asymptotic_engine`; they never consult the closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (DomainError, QuadratureFailure, TailwardError, Unsupported, as_double,
                     as_number)
from .quadrature import log1mexp, log_quad, logsumexp_pair
from .tail_model import (AsymptoticTail, DistributionModel, _conditioning, _mass_decades,
                         sf_eval)

__all__ = ["log_mixture", "sf_sum_exact", "sf_product_exact", "ratio_table"]

_RTOL = 1e-9
_TINY = 5e-324  # the least positive double


def log_mixture(law: DistributionModel, log_kernel, lo: float, hi: float,
                saturated: float = -math.inf, rtol: float = _RTOL,
                breakpoints=()) -> float:
    """log(E[kernel(Y); lo < Y < hi] + e**saturated) for Y ~ law.

    ``log_kernel`` maps an array of values of Y to the log of the kernel.
    The interval is cut to Y's support; ``saturated`` is the log of the
    mass the caller accounts for outside it.  A constant law is the kernel
    at its value, which already covers that mass.
    """
    if law.family == "constant":
        with np.errstate(divide="ignore", over="ignore"):  # as at quadrature nodes
            return float(log_kernel(law.params["c"]))
    if law.log_density is None:
        raise Unsupported(
            f"mixture oracle needs a density for the conditioning law, "
            f"{law.family!r} has none"
        )
    lo, hi = max(lo, law.support[0]), min(hi, law.support[1])
    if hi <= lo:
        return saturated

    def log_f(y):
        return log_kernel(y) + law.log_density(y)

    body = log_quad(log_f, lo, hi, rtol=rtol, breakpoints=breakpoints)
    return logsumexp_pair(body, saturated)


def _sf_exact(x: DistributionModel, y: DistributionModel, op: str, u: float,
              rtol: float) -> float:
    """log P(X op Y > u) = log E SF_X(inverse(Y)(u)), Y the lighter law: both oracles."""
    u = as_number("level u", u, finite=False)
    if op == "product" and u <= 0:
        raise DomainError(f"product oracle needs u > 0, got u={u}")
    x, y, inverse = _conditioning(x, y, op)
    if math.isinf(u):  # P(X op Y > inf) = 0 and P(X op Y > -inf) = 1, with no limit inf - inf
        return -math.inf if u > 0 else 0.0
    # SF_X(inverse(yy)(u)) is 0 for yy <= lo and 1 for yy >= hi (x_lo > 0 for a product).
    x_lo, x_hi = x.support
    if op == "sum":
        lo, hi = u - x_hi, u - x_lo
    else:
        lo, hi = (u / e if e > 0.0 else math.inf for e in (x_hi, x_lo))
    upper = float(y.log_sf(hi)) if hi < y.support[1] else -math.inf

    def log_kernel(yy):
        return x.log_sf(inverse(yy)(u))

    log_sf = log_mixture(y, log_kernel, lo, hi, upper, rtol, _mass_decades(y, lo, hi))
    # No node lies below the least positive double.  The kernel grows with yy,
    # so its value there bounds the share of Y's mass in [0, 5e-324); a point
    # mass is evaluated exactly.
    if y.family != "constant" and 0.0 <= y.support[0] < _TINY:
        with np.errstate(all="ignore"):
            unseen = log1mexp(float(y.log_sf(_TINY))) + float(log_kernel(_TINY))
        if unseen > log_sf + math.log(rtol):
            raise QuadratureFailure(f"the mass of {y.family}{y.params} below {_TINY}, where no "
                                    f"node lies, may add e**{unseen:.6g} to e**{log_sf:.6g}")
    return log_sf


def sf_sum_exact(x: DistributionModel, y: DistributionModel, u: float,
                 rtol: float = _RTOL) -> float:
    """log P(X + Y > u) = log E SF_X(u - Y), Y the lighter law."""
    return _sf_exact(x, y, "sum", u, rtol)


def sf_product_exact(x: DistributionModel, y: DistributionModel, u: float,
                     rtol: float = _RTOL) -> float:
    """log P(X * Y > u) = log E SF_X(u / Y) for positive X, Y and u > 0."""
    return _sf_exact(x, y, "product", u, rtol)


def ratio_table(
    x: DistributionModel,
    y: DistributionModel,
    op: str,
    predicted: AsymptoticTail,
    grid,
) -> list[dict]:
    """Exact-vs-asymptotic survival ratios over a grid of levels.

    One row per level, the dict a verification report stores: ``u``,
    ``log_sf_exact``, ``log_h``, ``ratio``, ``method`` and ``status``.
    Rows where the oracle fails are marked and kept; a verification report
    never loses its remaining rows to one bad level.
    """
    oracle = {"sum": sf_sum_exact, "product": sf_product_exact}.get(op)
    if oracle is None:
        raise DomainError(f"unknown oracle op {op!r}")
    grid = [as_number(f"level u[{i}]", u, finite=False) for i, u in enumerate(grid)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("grid must be strictly increasing")
    rows = []
    for u in grid:
        log_h = log_sf = ratio = math.nan
        status = "ok"
        try:
            log_h = sf_eval(predicted, u)
            log_sf = oracle(x, y, u)
            ratio = as_double("exact-to-asymptotic ratio", lambda: math.exp(log_sf - log_h),
                              positive=False)
        except TailwardError as exc:
            status = f"failed: {exc}"
        rows.append({"u": u, "log_sf_exact": log_sf, "log_h": log_h,
                     "ratio": ratio, "method": "quadrature", "status": status})
    return rows
