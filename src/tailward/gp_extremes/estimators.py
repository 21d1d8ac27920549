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
plain path-maximum plug-in with a bootstrap interval; grid suprema
under-estimate continuous ones, so comparisons against closed forms use
one-sided tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SpecError
from ..montecarlo import (
    _Z95, TailEstimate, _map_blocks, block_rng, resolve_workers, wilson_interval,
)
from ..tail_model import DistributionModel
from .fbm import fbm_path, two_sided_path

__all__ = [
    "McEstimate",
    "pickands_estimate",
    "econst_estimate",
    "sup_exceedance_mc",
]


@dataclass(frozen=True)
class McEstimate:
    value: float
    ci_lo: float
    ci_hi: float
    n_paths: int
    T: float
    n_steps: int
    seed: int
    method: str
    truncation_note: str = ""

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _mean_over_paths(per_path, n_paths: int, workers: int | None, chunk: int = 64):
    """Ordered map of a per-path functional; returns the sample values."""
    def run(b: int):
        start = b * chunk
        return np.array([per_path(i) for i in range(start, min(start + chunk, n_paths))])

    n_chunks = -(-n_paths // chunk)
    return np.concatenate(_map_blocks(run, n_chunks, resolve_workers(workers)))


def pickands_estimate(
    alpha_loc: float,
    T: float = 20.0,
    n_paths: int = 4000,
    n_steps: int = 1 << 12,
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
    dt = T / n_steps
    t = np.linspace(-T, T, 2 * n_steps + 1)
    drift = np.abs(t) ** alpha_loc
    sqrt2 = math.sqrt(2.0)
    # Trapezoid weights for the denominator integral.
    w_trap = np.full(t.shape, dt)
    w_trap[0] = w_trap[-1] = dt / 2.0

    def per_path(i: int) -> float:
        rng = block_rng(seed, i)
        b = two_sided_path(H, n_steps, T, rng)
        z = sqrt2 * b - drift
        m = z.max()
        denom = float(np.sum(w_trap * np.exp(z - m)))
        return 1.0 / denom

    ratios = _mean_over_paths(per_path, n_paths, workers)
    value = float(ratios.mean())
    half = _Z95 * float(ratios.std(ddof=1)) / math.sqrt(n_paths)
    return McEstimate(
        value=value,
        ci_lo=value - half,
        ci_hi=value + half,
        n_paths=n_paths,
        T=T,
        n_steps=n_steps,
        seed=seed,
        method="sup_integral_ratio",
        truncation_note=(
            f"paths truncated to [-T, T]; omitted mass decays like "
            f"exp(-T**alpha) ~ {math.exp(-T ** alpha_loc):.2e}"
        ),
    )


def econst_estimate(
    process: str,
    alpha: float,
    beta: float,
    T: float = 30.0,
    n_paths: int = 10_000,
    n_steps: int = 1 << 16,
    seed: int = 0,
    H: float = 0.5,
    workers: int | None = None,
    n_boot: int = 200,
) -> McEstimate:
    """E (sup_{t>=0} X(t)/(1+t**beta))**alpha by path simulation.

    ``process`` is "bm" or "fbm" (the latter with Hurst parameter H).
    The supremum is truncated at horizon T; beyond it the ratio decays like
    t**(H-beta), which the returned note quantifies.  The interval is a
    percentile bootstrap over path-level values.
    """
    if process == "bm":
        hurst = 0.5
    elif process == "fbm":
        hurst = H
    else:
        raise SpecError(f"process must be 'bm' or 'fbm', got {process!r}")
    if alpha <= 0 or beta <= 0:
        raise SpecError(f"alpha and beta must be positive, got {alpha}, {beta}")
    if beta <= hurst:
        raise SpecError(
            f"beta must exceed the Hurst parameter for the ratio to vanish "
            f"at infinity, got beta={beta}, H={hurst}"
        )
    t = np.linspace(0.0, T, n_steps + 1)
    denom = 1.0 + t ** beta

    def per_path(i: int) -> float:
        rng = block_rng(seed, i)
        path = fbm_path(hurst, n_steps, T, rng)
        r = float(np.max(path / denom))
        return max(r, 0.0) ** alpha

    vals = _mean_over_paths(per_path, n_paths, workers)
    value = float(vals.mean())
    boot_rng = block_rng(seed, 2 ** 62)
    idx = boot_rng.integers(0, n_paths, size=(n_boot, n_paths))
    boot_means = vals[idx].mean(axis=1)
    lo, hi = np.percentile(boot_means, [2.5, 97.5])
    scale = T ** (hurst - beta)
    return McEstimate(
        value=value,
        ci_lo=float(lo),
        ci_hi=float(hi),
        n_paths=n_paths,
        T=T,
        n_steps=n_steps,
        seed=seed,
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

    The trend slope eta may be a constant or a distribution; draws come
    after the path draw on the same per-path stream, so results are
    reproducible for any worker count.  Grid suprema under-sample the
    continuous supremum: the bias is one-sided (empirical <= truth).
    """
    hurst = 0.5 if process == "bm" else H
    u_grid = np.asarray(list(u_grid), dtype=float)
    t = np.linspace(0.0, T, n_steps + 1)
    t_pow = t ** beta

    def per_path(i: int) -> np.ndarray:
        rng = block_rng(seed, i)
        path = fbm_path(hurst, n_steps, T, rng)
        slope = eta if isinstance(eta, (int, float)) else float(eta.sample(rng))
        offset = 0.0 if zeta is None else float(zeta.sample(rng))
        sup = float(np.max(path - slope * t_pow)) - offset
        return sup > u_grid

    flags = _mean_over_paths(per_path, n_paths, workers)
    counts = flags.sum(axis=0).astype(int)
    out = []
    for u, k in zip(u_grid, counts):
        lo, hi = wilson_interval(int(k), n_paths)
        out.append(TailEstimate(float(u), k / n_paths, lo, hi, n_paths, "direct"))
    return out
