"""Sampling-based tail estimation with reproducible parallel streams.

The one stream rule: stream (seed, index) is an SFC64 generator seeded by
child ``index`` of ``SeedSequence(seed)``, numpy's pattern for parallel
streams.  ``_map_blocks`` cuts the work into blocks, and block b draws from
stream (seed, b): a block of tail draws, or a chunk of paths one after another.
Results come back in block order, so output is bitwise identical for any
worker count.  A map runs on min(blocks, requested count, CPUs the process
may use, TAILWARD_THREADS) threads; a count of None requests every CPU.
Indicator counts get Wilson intervals; every other Monte Carlo mean, of
weights or path values, gets ``_mean_interval``'s interval and ESS.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpecError, as_integer, as_number
from .tail_model import DistributionModel, _conditioning, _light_tie

__all__ = [
    "TailEstimate",
    "wilson_interval",
    "estimate_sf",
    "conditional_sf",
    "block_rng",
    "check_seed",
    "resolve_workers",
]

BLOCK_SIZE = 1 << 14
# A half-block buffer and per-level arrays (64 KiB) stay below glibc's default
# 128 KiB mmap threshold, so they are reused from the heap, not faulted in.
_PART_SIZE = BLOCK_SIZE // 2
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_ESS_FLOOR = 1e-4  # the least ESS, as a share of n, that backs a normal interval
_NO_MASS = -(1 << 16)  # the scale of an all-zero block: any other wins


def check_seed(seed: int) -> int:
    """The seed, if it fits the two uint32 words of a stream's entropy; else a SpecError."""
    if not 0 <= as_integer("seed", seed) < 1 << 64:
        raise SpecError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def block_rng(seed: int, index: int) -> np.random.Generator:
    """Stream (seed, index): SFC64 seeded by child ``index`` of SeedSequence(seed).

    Block ``index`` of every map draws from it, tail draws or a chunk's paths
    in turn.  The seed enters as exactly two uint32 words, so no (seed, index)
    pair spells another's entropy: ``SeedSequence([seed, index])`` would give
    (5 * 2**32 + 1, 7) and (1, 7 * 2**32 + 5) the same words.  SeedSequence
    pads the entropy of a spawned child to four words, so the two words
    give the child of ``SeedSequence(seed)`` for a seed below 2**32 too.
    """
    seed = check_seed(seed)
    words = np.array([seed & 0xFFFFFFFF, seed >> 32], dtype=np.uint32)
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(words, spawn_key=(index,))))


def resolve_workers(requested: int | None) -> int:
    """min(requested, CPUs, TAILWARD_THREADS): the most threads a map may run.

    None asks for the CPUs this process may run on.  A count below 1, or a
    TAILWARD_THREADS that is not a positive integer, is refused.
    """
    if requested is not None and as_integer("workers", requested) < 1:
        raise SpecError(f"workers must be at least 1, got {requested}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = cpus if requested is None else min(requested, cpus)
    cap = os.environ.get("TAILWARD_THREADS")
    if cap is not None:
        if not (cap.strip().isdigit() and int(cap) >= 1):
            raise SpecError(f"TAILWARD_THREADS must be a positive integer, got {cap!r}")
        workers = min(workers, int(cap))
    return workers


def _map_blocks(fn, n: int, size: int, seed: int, workers: int | None) -> list:
    """[fn(rng, start, count) for each block of n units], in block order.

    Block b holds count = min(size, n - start) units from start = b * size
    and draws from block_rng(seed, b).  The blocks run on min(blocks,
    resolve_workers(workers)) threads.
    """
    def run(b: int):
        start = b * size
        return fn(block_rng(seed, b), start, min(size, n - start))

    blocks = -(-n // size)
    workers = min(blocks, resolve_workers(workers))
    if workers <= 1:
        return [run(b) for b in range(blocks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(blocks)))


@dataclass(frozen=True)
class TailEstimate:
    u: float
    p_hat: float
    ci_lo: float
    ci_hi: float
    n: int
    method: str  # "direct" | "conditional"
    ess: float  # effective sample size; n for a direct estimate

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval; stays sane at p_hat in {0, 1}."""
    if n <= 0:
        raise SpecError(f"need a positive sample count, got {n}")
    p, z = successes / n, _Z95
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # The exact endpoints at k = 0 and k = n are 0 and 1; round-off misses them.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def _levels(grid) -> np.ndarray:
    """The levels of a u-grid, each read by ``as_number``, before any draw."""
    return np.array([as_number(f"level u[{i}]", u, finite=False) for i, u in enumerate(grid)],
                    dtype=float)


def _wilson_table(grid, counts, n: int) -> list[TailEstimate]:
    """Direct estimates k / n with Wilson intervals, one per level of grid."""
    return [TailEstimate(float(u), k / n, *wilson_interval(int(k), n), n, "direct", float(n))
            for u, k in zip(grid, counts)]


def _sums(w: np.ndarray, centered: bool = False) -> tuple[float, float, int]:
    """(sum v, sum (v - c)**2, k) of v = w / 2**k, c = 0 or mean(v) if centered.

    k = 0 unless the squares' direct sum leaves the normal doubles; then w is
    scaled by the power of two of its largest magnitude, a scale exact for
    normal doubles: the common case keeps its bits and makes no extra pass.
    Values that may overflow are summed under np.errstate(over="ignore").
    """
    def direct(v):
        s1 = float(v.sum())
        d = v - s1 / len(v) if centered else v
        return s1, float(np.dot(d, d))

    s1, s2 = direct(w)
    if sys.float_info.min <= s2 < math.inf:
        return s1, s2, 0
    top = float(np.max(np.abs(w)))
    k = math.frexp(top)[1] if top else _NO_MASS
    return (*direct(np.ldexp(w, -k)), k)


def _add(a, b):
    """The ``_sums`` of two blocks, in the units of the larger scale."""
    k = max(a[2], b[2])
    return (math.ldexp(a[0], a[2] - k) + math.ldexp(b[0], b[2] - k),
            math.ldexp(a[1], 2 * (a[2] - k)) + math.ldexp(b[1], 2 * (b[2] - k)), k)


def _mean_interval(sums, n: int, what: str, centered: bool = False):
    """(mean, lo, hi, ess) of n values from their ``_sums``: the one normal 95% interval.

    Streamed sums give the variance s2/n - mean**2; values kept whole, their
    squares about the mean and s2/(n - 1).  The ESS (sum v)**2 / sum v**2 =
    n / (1 + var/mean**2) of nonnegative values (Kong 1992) is refused below
    _ESS_FLOOR * n, where too few values carry the mean to back an interval.
    """
    s1, s2, k = sums
    p = s1 / n
    var = max(s2 / n - (0.0 if centered else p * p), 0.0)
    ess = n / (1.0 + var / p / p) if p else 0.0
    if 0.0 < ess < _ESS_FLOOR * n:
        raise DomainError(f"{what}: effective sample size {ess:.3g} of n = {n} is below "
                          f"{_ESS_FLOOR:g} n; no normal interval backs it")
    half = _Z95 * math.sqrt(var / (n - 1 if centered else n))
    with np.errstate(over="ignore"):  # an end beyond the doubles is inf
        return (*(float(np.ldexp(x, k)) for x in (p, p - half, p + half)), ess)


def estimate_sf(
    x: DistributionModel,
    y: DistributionModel,
    combine: str,
    grid,
    n: int,
    seed: int,
    workers: int | None = None,
) -> list[TailEstimate]:
    """Direct exceedance frequencies with Wilson intervals over a u-grid."""
    if as_integer("n", n) < 10 ** 3:
        raise SpecError(f"need n >= 1000 samples, got {n}")
    if combine not in ("sum", "product"):
        raise SpecError(f"unknown combine {combine!r}")
    grid = _levels(grid)

    def run_block(rng, start: int, count: int) -> np.ndarray:
        xs = x.sample(rng, count)
        ys = y.sample(rng, count)
        if combine == "sum":
            xs += ys
        else:
            xs *= ys
        return np.array([np.count_nonzero(xs > u) for u in grid], dtype=np.int64)

    counts = sum(_map_blocks(run_block, n, BLOCK_SIZE, seed, workers))
    return _wilson_table(grid, counts, n)


def conditional_sf(
    x: DistributionModel,
    y: DistributionModel,
    op: str,
    grid,
    n: int,
    seed: int,
    workers: int | None = None,
) -> list[TailEstimate]:
    """Rao-Blackwellized tail estimate: sample one operand, evaluate the other's SF.

    Averages SF_H(u - L) (or SF_H(u / L) for products of positive
    variables) over draws of L; the exact inner expectation can only shrink
    the variance relative to the direct indicator estimator.  H is the heavy
    operand, L the other one and the map from L to H's argument come from
    ``tail_model._conditioning`` (Asmussen & Kroese 2006, Adv. Appl. Probab.
    38).  Two laws of one unbounded light tail (Exp(1) + Exp(1)) are refused
    before any draw: the weights of either pile onto its largest draws, and
    the interval misses before their ESS is small.  The weights in [0, 1]
    are not indicators: the blocks stream the sums of w and w**2
    for ``_mean_interval``'s normal interval, clipped to [0, 1], and ESS
    (sum w)**2 / sum w**2.  A level whose ESS is below 10**-4 * n rests on a
    few draws (two light tails pile the weights onto the largest L): it is
    refused with a DomainError naming the level, the ESS and n.  A level
    where no draw carries mass is never refused: its interval is the Wilson
    interval for zero successes in n, never [0, 0], and its ESS 0.
    """
    if as_integer("n", n) < 10 ** 3:
        raise SpecError(f"need n >= 1000 samples, got {n}")
    exact, sampled, inverse = _conditioning(x, y, op)
    if _light_tie(x, y):
        raise DomainError(f"{x.family}{x.params} and {y.family}{y.params} have one light "
                          f"tail, so no conditional interval backs them; use estimate_sf")
    grid = _levels(grid)

    def run_block(rng, start: int, count: int) -> list:
        draws = np.asarray(sampled.sample(rng, count), dtype=float)
        # One level at a time over each half of the draws: one half-block
        # buffer takes the level's arguments, then its weights, so no array
        # grows with the grid or outlives its level.
        sums = [(0.0, 0.0, _NO_MASS)] * len(grid)
        buf = np.empty(min(count, _PART_SIZE))
        for lo in range(0, count, _PART_SIZE):
            at = inverse(draws[lo:lo + _PART_SIZE])
            w = buf[:min(_PART_SIZE, count - lo)]
            for j, u in enumerate(grid):
                np.exp(exact.log_sf(at(u, out=w)), out=w)
                sums[j] = _add(sums[j], _sums(w))
        return sums

    out = []
    for u, *blocks in zip(grid, *_map_blocks(run_block, n, BLOCK_SIZE, seed, workers)):
        level = functools.reduce(_add, blocks, (0.0, 0.0, _NO_MASS))
        p, lo, hi, ess = (_mean_interval(level, n, f"conditional estimate at u = {float(u)!r}")
                          if level[0] > 0.0 else (0.0, *wilson_interval(0, n), 0.0))
        out.append(TailEstimate(float(u), p, max(0.0, lo), min(1.0, hi), n, "conditional", ess))
    return out
