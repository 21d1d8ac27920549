"""Monte Carlo estimators for the path-functional constants.

Both constants are expectations of path functionals of fractional Brownian
motion.  The Pickands constant is estimated through its sup/integral ratio
representation

    H_alpha = E[ max_t exp(Z(t)) / int exp(Z(t)) dt ],
    Z(t) = sqrt(2) B_{alpha/2}(t) - |t|**alpha  over t in R,

which localizes near t = 0 and therefore needs no divergent-horizon limit:
the naive (1/T) E exp max_{[0,T]} estimator spreads its mass uniformly over
exponentially rare path levels and is unusable at the horizons where its
own bias is acceptable.  The truncation to [-T, T] here costs
O(exp(-T**alpha)) and the grid bias is a one-sided fraction of a percent.

The sup-ratio moment E (sup_t X(t)/(1+t**beta))**alpha is estimated by a
plain path-maximum plug-in; grid suprema under-estimate continuous ones, so
comparisons against closed forms use one-sided tolerances.  Both are path
means with the statistic of every Monte Carlo mean in
:mod:`tailward.montecarlo`: mean +- z * sd / sqrt(n) (to first order the
percentile bootstrap interval; Efron & Tibshirani 1993, ch. 13) and the
effective sample size.  A sample with no spread, or with too small an
ESS, backs no interval and is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, SpecError, as_double, as_integer, as_number
from ..montecarlo import (
    TailEstimate, _levels, _map_blocks, _mean_interval, _sums, _wilson_table,
)
from ..tail_model import DistributionModel
from .fbm import _check_grid, _work_size, fbm_path

__all__ = [
    "McEstimate",
    "pickands_estimate",
    "econst_estimate",
    "sup_exceedance_mc",
]


@dataclass(frozen=True)
class McEstimate:
    """A path mean, its normal 95% interval and its ESS (sum v)**2 / sum v**2."""
    value: float
    ci_lo: float
    ci_hi: float
    n_paths: int
    T: float
    n_steps: int
    seed: int
    method: str
    ess: float  # effective sample size of the path values
    truncation_note: str = ""

    def __post_init__(self):
        # A sample whose values, mean or spread leave the doubles is refused,
        # never reported as inf or NaN.
        for name in ("value", "ci_lo", "ci_hi"):
            as_double(f"{self.method} estimate: {name}", lambda: getattr(self, name),
                      positive=False)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _check_paths(n_paths: int, least: int) -> None:
    if as_integer("n_paths", n_paths) < least:
        raise SpecError(f"need n_paths >= {least}, got {n_paths}")


# Paths per chunk, which is one stream, one workspace and one task of the map.
_CHUNK = 64  # it keys the streams, so it is part of every path estimate's bits


def _path_values(per_path, n_paths: int, seed: int, n_steps: int, workers: int | None):
    """Ordered map of a per-path functional; returns the sample values.

    Chunk c draws paths 64c ... 64c + 63 one after another from stream
    ``block_rng(seed, c)``, the rule of :mod:`tailward.montecarlo`:
    ``per_path(rng, work)`` gets that stream, moved on by the chunk's paths
    before it, and the chunk's float64 workspace of ``_work_size(n_steps)``
    entries, which it may overwrite freely: nothing in it outlives the call.
    """
    def run(rng, start: int, count: int) -> np.ndarray:
        work = np.empty(_work_size(n_steps))
        return np.array([per_path(rng, work) for _ in range(count)])

    return np.concatenate(_map_blocks(run, n_paths, _CHUNK, seed, workers))


def _path_mean(values: np.ndarray, method: str, **fields) -> McEstimate:
    """``_mean_interval`` of the path values, one block kept whole.

    A zero-width interval (every path gave the same value, or a spread
    below the doubles) backs nothing and is a DomainError, raised after
    McEstimate's refusal of a mean or an interval end beyond the doubles.
    """
    n = len(values)
    with np.errstate(over="ignore", invalid="ignore"):  # retaken, or refused as inf
        sums = _sums(values, centered=True)
    value, lo, hi, ess = _mean_interval(sums, n, f"{method} estimate", centered=True)
    est = McEstimate(value, lo, hi, n, method=method, ess=ess, **fields)
    if not lo < hi:
        what = (f"all {n} paths gave {value!r}" if sums[1] == 0.0 else
                f"the spread of {n} paths around {value!r} underflows")
        raise DomainError(f"{method} estimate: {what}; no interval backs it")
    return est


def _hurst(process: str, H: float) -> float:
    if process == "fbm":
        return H
    if process != "bm":
        raise SpecError(f"process must be 'bm' or 'fbm', got {process!r}")
    if H != 0.5:  # NaN included: a Brownian H is never dropped silently
        raise SpecError(f"process 'bm' has H = 0.5, got H={H}")
    return 0.5


def pickands_estimate(
    alpha_loc: float,
    T: float,
    n_paths: int,
    n_steps: int,
    seed: int = 0,
    workers: int | None = None,
) -> McEstimate:
    """Pickands constant for local-stationarity index alpha_loc in (0, 2].

    ``n_steps`` grid intervals cover each half of [-T, T].  The estimator is
    exact in expectation up to grid and horizon truncation; T is reported so
    callers can check stability by doubling it.
    """
    if not (0 < alpha_loc <= 2):
        raise SpecError(f"alpha_loc must be in (0, 2], got {alpha_loc}")
    H = alpha_loc / 2.0
    _check_grid(H, n_steps, T)
    _check_paths(n_paths, 2)
    dt = T / n_steps
    with np.errstate(over="ignore"):  # an infinite drift weighs exp(-inf) = 0
        drift = np.abs(np.linspace(-T, T, 2 * n_steps + 1)) ** alpha_loc
        omitted = math.exp(-(np.float64(T) ** alpha_loc))
    sqrt2 = math.sqrt(2.0)
    # Trapezoid weights for the denominator integral.
    w_trap = np.full(drift.shape, dt)
    w_trap[0] = w_trap[-1] = dt / 2.0

    def per_path(rng, work) -> float:
        # The ratio does not change when z moves by a constant, so the path
        # on [0, 2T] stands for B_H on [-T, T] (stationary increments) and
        # is not pinned to 0 at t = 0.  z = sqrt2 * b - drift, then the
        # trapezoid sum of exp(z - max z), in place.
        z = fbm_path(H, 2 * n_steps, 2 * T, rng, work)
        z *= sqrt2
        z -= drift
        z -= z.max()
        np.exp(z, out=z)
        total = float(np.dot(z, w_trap))
        return 1.0 / total if total > 0.0 else math.inf

    ratios = _path_values(per_path, n_paths, seed, 2 * n_steps, workers)
    return _path_mean(
        ratios, T=T, n_steps=n_steps, seed=seed,
        method="sup_integral_ratio",
        truncation_note=(
            f"paths truncated to [-T, T]; omitted mass decays like "
            f"exp(-T**alpha) ~ {omitted:.2e}"
        ),
    )


def econst_estimate(
    process: str,
    alpha: float,
    beta: float,
    T: float,
    n_paths: int,
    n_steps: int,
    seed: int = 0,
    H: float = 0.5,
    workers: int | None = None,
) -> McEstimate:
    """E (sup_{t>=0} X(t)/(1+t**beta))**alpha by path simulation.

    ``process`` is "fbm" with Hurst parameter H, or "bm" (H must be 0.5).
    The supremum is truncated at horizon T; beyond it the ratio decays like
    t**(H-beta), which the returned note quantifies.  The interval is the
    normal interval of the mean of the per-path values, as for Pickands.
    """
    hurst = _hurst(process, H)
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise SpecError(f"alpha and beta must be positive and finite, got {alpha}, {beta}")
    if beta <= hurst:
        raise SpecError(
            f"beta must exceed the Hurst parameter for the ratio to vanish "
            f"at infinity, got beta={beta}, H={hurst}"
        )
    _check_grid(hurst, n_steps, T)
    _check_paths(n_paths, 2)
    with np.errstate(over="ignore"):  # an infinite denominator gives ratio 0
        denom = 1.0 + np.linspace(0.0, T, n_steps + 1) ** beta

    def per_path(rng, work) -> float:
        path = fbm_path(hurst, n_steps, T, rng, work)
        return max(float(np.max(np.divide(path, denom, out=path))), 0.0)

    sups = _path_values(per_path, n_paths, seed, n_steps, workers)
    with np.errstate(over="ignore"):  # McEstimate refuses inf
        # One numpy scalar power per path: the bits of r ** alpha, and inf
        # where it overflows.
        vals = np.array([r ** alpha for r in sups])
        scale = float(np.float64(T) ** (hurst - beta))  # the note prints inf
    return _path_mean(
        vals, T=T, n_steps=n_steps, seed=seed,
        method="path_supremum",
        truncation_note=(
            f"supremum truncated at T={T}; the ratio decays like "
            f"t**({hurst - beta:.3g}) beyond it (scale {scale:.2e}); grid "
            f"suprema are biased low"
        ),
    )


def sup_exceedance_mc(
    u_grid,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    beta: float = 1.0,
    eta: DistributionModel | float = 1.0,
    zeta: DistributionModel | None = None,
    process: str = "bm",
    H: float = 0.5,
    workers: int | None = None,
) -> list[TailEstimate]:
    """Empirical P(sup_t (X(t) - eta*t**beta - zeta) > u) on a u-grid.

    The trend slope eta may be a finite real number or a law, and beta is
    positive and finite; anything else, a NaN level or a trend beyond the
    doubles at T is a SpecError before the first path (a drawn slope's
    trend may overflow to inf).  A path draws its noise, then its slope (if
    eta is a law), then its offset (if zeta is given), from its chunk's stream.
    Grid suprema under-sample the continuous supremum: the bias is
    one-sided (empirical <= truth).
    """
    hurst = _hurst(process, H)
    _check_grid(hurst, n_steps, T)
    _check_paths(n_paths, 1)
    if not 0 < beta < math.inf:
        raise SpecError(f"beta must be positive and finite, got {beta}")
    slope = eta if isinstance(eta, DistributionModel) else as_number("slope eta", eta)
    u_grid = _levels(u_grid)
    law = isinstance(slope, DistributionModel)
    # t**beta and a number's trend grow with t, so each fits when it does at T.
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        t_pow = np.linspace(0.0, T, n_steps + 1) ** beta
        if not math.isfinite(t_pow[-1] * (1.0 if law else slope)):
            raise SpecError(f"trend eta*T**beta is beyond the doubles, got T={T}, "
                            f"beta={beta}, eta={eta!r}")
    # A number's trend is one array, t_pow scaled in place; a law's is drawn per path.
    trend = None if law else np.multiply(t_pow, slope, out=t_pow)

    def per_path(rng, work) -> np.ndarray:
        path = fbm_path(hurst, n_steps, T, rng, work)
        drift = trend
        if drift is None:
            # slope * t_pow for a drawn slope, in the workspace past the path.
            with np.errstate(over="ignore"):
                drift = np.multiply(t_pow, float(slope.sample(rng)),
                                    out=work[n_steps + 1: 2 * n_steps + 2])
        offset = 0.0 if zeta is None else float(zeta.sample(rng))
        sup = float(np.max(np.subtract(path, drift, out=path))) - offset
        return sup > u_grid

    flags = _path_values(per_path, n_paths, seed, n_steps, workers)
    return _wilson_table(u_grid, flags.sum(axis=0).astype(int), n_paths)
