"""Sampling-based tail estimation with reproducible parallel streams.

The one stream rule: stream (seed, index) is an SFC64 generator seeded by
child ``index`` of ``SeedSequence(seed)``, numpy's pattern for parallel
streams.  ``_map_blocks`` cuts the draws or paths into blocks, block b
draws from stream (seed, b), and a path estimator draws path i from stream
(seed, i).  Results come back in block order, so output is bitwise
identical for any worker count.  A map runs on min(blocks, requested
count, CPUs the process may use, TAILWARD_THREADS) threads; a count of
None requests every CPU.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SpecError
from .tail_model import DistributionModel, _heavy_first

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


def check_seed(seed: int) -> int:
    """The seed, if it fits the two uint32 words of a stream's entropy; else a SpecError."""
    if not 0 <= seed < 1 << 64:
        raise SpecError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def block_rng(seed: int, index: int) -> np.random.Generator:
    """Stream (seed, index): SFC64 seeded by child ``index`` of SeedSequence(seed).

    The seed enters as exactly two uint32 words, so no (seed, index) pair
    spells another's entropy: ``SeedSequence([seed, index])`` would give
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
    if requested is not None and requested < 1:
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
    and draws from block_rng(seed, b); min(blocks, resolve_workers(workers))
    threads run.
    """
    def run(b: int):
        start = b * size
        return fn(block_rng(seed, b), start, min(size, n - start))

    n_blocks = -(-n // size)
    workers = min(n_blocks, resolve_workers(workers))
    if workers <= 1:
        return [run(b) for b in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(n_blocks)))


@dataclass(frozen=True)
class TailEstimate:
    u: float
    p_hat: float
    ci_lo: float
    ci_hi: float
    n: int
    method: str  # "direct" | "conditional"

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


def _wilson_table(grid, counts, n: int) -> list[TailEstimate]:
    """Direct estimates k / n with Wilson intervals, one per level of grid."""
    return [TailEstimate(float(u), k / n, *wilson_interval(int(k), n), n, "direct")
            for u, k in zip(grid, counts)]


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
    if n < 10 ** 3:
        raise SpecError(f"need n >= 1000 samples, got {n}")
    if combine not in ("sum", "product"):
        raise SpecError(f"unknown combine {combine!r}")
    grid = np.asarray(list(grid), dtype=float)

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
    operand, the one of smaller ``power_order`` (X on a tie), and L the
    other one (Asmussen & Kroese 2006, Adv. Appl. Probab. 38).  The weights
    in [0, 1] are not indicators, and the blocks stream only the sums of w
    and w**2, so the interval is its own: the normal one from those sums.
    When no draw carries mass, it is the Wilson interval for zero successes
    in n, never [0, 0].
    """
    if n < 10 ** 3:
        raise SpecError(f"need n >= 1000 samples, got {n}")
    if op not in ("sum", "product"):
        raise SpecError(f"unknown op {op!r}")
    if op == "product" and (x.support[0] < 0 or y.support[0] < 0):
        raise DomainError("conditional product estimator needs positive supports")
    exact, sampled = _heavy_first(x, y)
    combine = np.subtract if op == "sum" else np.divide
    grid = np.asarray(list(grid), dtype=float)

    def run_block(rng, start: int, count: int) -> np.ndarray:
        draws = np.asarray(sampled.sample(rng, count), dtype=float)
        if op == "product":
            np.maximum(draws, 1e-320, out=draws)
        # One level at a time over each half of the draws: one half-block
        # buffer takes the level's arguments, then its weights, so no array
        # grows with the grid or outlives its level.  Rows: the sums of w
        # and of w**2.
        sums = np.zeros((2, len(grid)))
        buf = np.empty(min(count, _PART_SIZE))
        for lo in range(0, count, _PART_SIZE):
            part = draws[lo:lo + _PART_SIZE]
            w = buf[:len(part)]
            for j, u in enumerate(grid):
                np.exp(exact.log_sf(combine(u, part, out=w)), out=w)
                sums[0, j] += w.sum()
                sums[1, j] += np.dot(w, w)
        return sums

    s1, s2 = sum(_map_blocks(run_block, n, BLOCK_SIZE, seed, workers))

    out = []
    for u, t1, t2 in zip(grid, s1, s2):
        p = t1 / n
        if t1 > 0.0:
            half = _Z95 * math.sqrt(max(t2 / n - p * p, 0.0) / n)
            lo, hi = max(0.0, p - half), min(1.0, p + half)
        else:
            lo, hi = wilson_interval(0, n)
        out.append(TailEstimate(float(u), p, lo, hi, n, "conditional"))
    return out
