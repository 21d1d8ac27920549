"""Exact-in-distribution fractional Brownian motion on regular grids.

Paths are generated by circulant embedding of the increment covariance,
one half-spectrum real FFT per path.  The circulant spectrum of fGn is
nonnegative for every H in (0, 1) (Craigmile 2003), so the embedding is
exact: round-off negatives are clipped, and a spectrum below the floor
raises EmbeddingFailure.  Path streams follow :mod:`tailward.montecarlo`:
chunk c of 64 paths draws them one after another from stream (seed, c).

A path's transform needs one buffer of 4n+2 floats.  A caller that draws
many paths passes one such buffer as ``work`` and gets each path back as a
view of it, valid until the next call with the same buffer; without
``work`` each path is a view of a buffer of its own.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from ..errors import EmbeddingFailure, SpecError

__all__ = [
    "fbm_path",
    "two_sided_path",
    "write_paths_binary",
    "read_paths_binary",
    "paths_to_csv",
]

_MAGIC = b"FBM1"


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _fgn_autocov(H: float, n: int) -> np.ndarray:
    """gamma(k) = ((k+1)**2H - 2 k**2H + |k-1|**2H) / 2 for k = 0 ... n."""
    p = np.arange(n + 2, dtype=float) ** (2 * H)  # k**2H for k = 0 ... n + 1
    gamma = p[1:] - 2 * p[:-1]
    gamma[1:] += p[:n]
    gamma[0] += p[1]
    gamma *= 0.5
    return gamma


def _circulant_sqrt_spectrum(H: float, n: int) -> np.ndarray:
    """(n+1)-point scale of the half spectrum of unit-spacing fGn.

    Entry k is sqrt(lambda_k / m) at the real edges k = 0, n and
    sqrt(lambda_k / (2m)) in between, with m = 2n.  Raises EmbeddingFailure
    if the circulant spectrum is negative beyond round-off.
    """
    m = 2 * n
    # The circulant's first row is the symmetric extension of gamma, so its
    # eigenvalues are the Hermitian FFT of gamma; half of them suffice.
    lam = np.fft.hfft(_fgn_autocov(H, n), m)[: n + 1]
    if lam.min() < -1e-8 * lam.max():
        raise EmbeddingFailure(f"circulant spectrum negative for H={H}, n={n}")
    scale = np.sqrt(np.maximum(lam, 0.0) / (2 * m))
    scale[[0, n]] *= math.sqrt(2.0)
    return scale


@lru_cache(maxsize=16)
def _conjugating_scale(H: float, n: int) -> np.ndarray:
    """Read-only (n+1, 2) table of [scale, -scale] rows.

    One real multiply of the half spectrum's (re, im) pairs by it scales
    them by ``_circulant_sqrt_spectrum(H, n)`` and conjugates them; it is
    the one cached copy of that spectrum.
    """
    scale = _circulant_sqrt_spectrum(H, n)
    table = np.stack([scale, -scale], axis=1)
    table.flags.writeable = False
    return table


def _work_size(n_steps: int) -> int:
    """Floats in a ``work`` buffer for paths of n_steps steps."""
    return 4 * n_steps + 2


def _check_grid(H: float, n_steps: int, T: float) -> None:
    """SpecError unless fbm_path can draw B_H on n_steps steps over [0, T]."""
    if not (0 < H <= 1):
        raise SpecError(f"Hurst parameter must be in (0, 1], got {H}")
    if not T > 0:
        raise SpecError(f"horizon must be positive, got {T}")
    if T == math.inf:
        raise SpecError(f"horizon must be finite, got {T}")
    if n_steps < 1 or (H != 1.0 and not _is_pow2(n_steps)):
        raise SpecError(f"n_steps must be a power of two, got {n_steps}")


def _fgn_unit(H: float, n: int, rng: np.random.Generator, buf: np.ndarray) -> np.ndarray:
    """n stationary fractional Gaussian noise values at unit spacing.

    ``buf`` has ``_work_size(n)`` floats; the values are buf[2n+2 : 3n+2].
    """
    if H == 0.5:
        return rng.standard_normal(out=buf[2 * n + 2: 3 * n + 2])
    table = _conjugating_scale(H, n)
    # One buffer holds the half spectrum w (n+1 complex) and the transform
    # output (2n real).  Draw the two edge normals, then the (re, im) pairs
    # of entries 1..n-1, into w.
    w = buf[: 2 * n + 2].view(complex)
    rng.standard_normal(out=buf[: 2 * n])
    w[0], w[n] = buf[0], buf[1]  # the edge entries are real
    # Scale and conjugate w in one real multiply of its (re, im) pairs:
    # np.fft.hfft(w, 2n), the real FFT of w's Hermitian extension, minus
    # hfft's conjugated copy of w.
    pairs = buf[: 2 * n + 2].reshape(n + 1, 2)
    np.multiply(pairs, table, out=pairs)
    return np.fft.irfft(w, 2 * n, norm="forward", out=buf[2 * n + 2: 4 * n + 2])[:n]


def fbm_path(
    H: float, n_steps: int, T: float, rng: np.random.Generator, work: np.ndarray | None = None,
) -> np.ndarray:
    """One path of B_H on the grid {k*T/n_steps}, length n_steps + 1.

    The path is written to ``work`` (float64, at least 4*n_steps + 2 entries;
    allocated when not given) as work[:n_steps + 1], and that view is returned.
    """
    _check_grid(H, n_steps, T)
    work = np.empty(_work_size(n_steps)) if work is None else work
    path = work[: n_steps + 1]
    if H == 1.0:
        # Covariance t*t': the path is a random slope through the origin.
        z = rng.standard_normal()
        return np.multiply(np.linspace(0.0, T, n_steps + 1), z, out=path)
    dt = T / n_steps
    # The fGn lies past the path's entries, in the upper half of work.
    fgn = _fgn_unit(H, n_steps, rng, work)
    fgn *= dt ** H
    path[0] = 0.0
    np.cumsum(fgn, out=path[1:])
    return path


def two_sided_path(
    H: float, half_steps: int, T: float, rng: np.random.Generator, work: np.ndarray | None = None,
) -> np.ndarray:
    """B_H on {-T, ..., T} pinned to 0 at t=0, via increment stationarity.

    Returns 2*half_steps + 1 values; entry half_steps is exactly 0.  ``work``
    is as in ``fbm_path`` for 2*half_steps steps.
    """
    base = fbm_path(H, 2 * half_steps, 2 * T, rng, work)
    base -= base[half_steps]
    return base


# ---------------------------------------------------------------------------
# Path dumps
# ---------------------------------------------------------------------------

def write_paths_binary(path_file, H: float, T: float, paths: np.ndarray) -> None:
    """Little-endian float64 dump: magic 'FBM1', H, n_steps, n_paths, T."""
    arr = np.ascontiguousarray(np.atleast_2d(np.asarray(paths, dtype="<f8")))
    n_paths, n_points = arr.shape
    header = _MAGIC + struct.pack("<dqqd", H, n_points - 1, n_paths, T)
    with open(path_file, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def read_paths_binary(path_file) -> tuple[float, float, np.ndarray]:
    with open(path_file, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise SpecError(f"not a path dump (magic {magic!r})")
        H, n_steps, n_paths, T = struct.unpack("<dqqd", fh.read(32))
        data = np.frombuffer(fh.read(), dtype="<f8")
    return H, T, data.reshape(int(n_paths), int(n_steps) + 1)


def paths_to_csv(H: float, T: float, paths: np.ndarray) -> str:
    arr = np.atleast_2d(np.asarray(paths, dtype=float))
    n_points = arr.shape[1]
    t = np.linspace(0.0, T, n_points)
    lines = ["t," + ",".join(f"path{i}" for i in range(arr.shape[0]))]
    for j in range(n_points):
        lines.append(",".join([repr(float(t[j]))] + [repr(float(v)) for v in arr[:, j]]))
    return "\n".join(lines) + "\n"
