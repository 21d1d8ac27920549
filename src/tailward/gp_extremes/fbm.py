"""Exact-in-distribution fractional Brownian motion on regular grids.

Paths are generated by circulant embedding of the increment covariance
(Davies & Harte 1987; Wood & Chan 1994), one half-spectrum real FFT per
path.  The circulant spectrum of fGn is nonnegative for every H in (0, 1)
(Craigmile 2003), so the embedding is exact: round-off negatives are
clipped, and a spectrum below the floor raises EmbeddingFailure.  Path
streams follow :mod:`tailward.montecarlo`: chunk c of 64 paths draws them
one after another from stream (seed, c).

The transform sums the noise as it makes it.  With theta_k = pi k / n, the
fGn at unit spacing is x_j = sum_k w_k exp(i theta_k j) over the 2n
Hermitian entries of its spectrum w, and the geometric sum

    sum_{j<J} exp(i theta j) = (exp(i theta J) - 1) / (exp(i theta) - 1)

turns its prefix sums into W_0 J + y_J - y_0, where W_0 = w_0 is the
increments' common mean and y is the transform of w_k / (exp(i theta_k) - 1)
for k >= 1.  One cached table per (H, n) holds both factors, so a path is
one multiply by it, one ``irfft`` and dt**H (W_0 J + y_J - y_0): no prefix
sum.  H = 1/2 (white noise, no transform) sums its normals; H = 1 is a
random slope.

A path's workspace is one float64 buffer of 4n+2 entries: the path is
work[:n+1], over the first 2n+2 floats, which first hold the n+1 complex
entries of the spectrum, and the transform fills work[2n+2:].  A caller
that draws many paths passes one such buffer as ``work`` and gets each path
back as a view of it, valid until the next call with the same buffer;
without ``work`` each path is a view of a buffer of its own.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from ..errors import EmbeddingFailure, SpecError, as_integer

__all__ = [
    "fbm_path",
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
def _summing_spectrum(H: float, n: int) -> np.ndarray:
    """Read-only (n+1)-point complex table: s_0, then s_k / (exp(i pi k/n) - 1).

    s is ``_circulant_sqrt_spectrum(H, n)``.  Multiplying a half spectrum of
    normals by it scales entry 0 to the increments' common mean and turns
    the transform of entries k >= 1 into the prefix sums of their noise, up
    to the constant y_0.  1 / (exp(i t) - 1) = -(1 + i cot(t/2)) / 2, which
    keeps its digits as t -> 0 and is -1/2 exactly at the real edge k = n.
    """
    scale = _circulant_sqrt_spectrum(H, n)
    half_theta = 0.5 * np.pi / n * np.arange(1, n + 1)
    table = np.empty(n + 1, dtype=complex)
    table[0] = scale[0]
    table[1:].real = -0.5 * scale[1:]
    table[1:].imag = -0.5 * scale[1:] / np.tan(half_theta)
    table[n] = -0.5 * scale[n]
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
    if as_integer("n_steps", n_steps) < 1 or (H != 1.0 and not _is_pow2(n_steps)):
        raise SpecError(f"n_steps must be a power of two, got {n_steps}")


def fbm_path(
    H: float, n_steps: int, T: float, rng: np.random.Generator, work: np.ndarray | None = None,
) -> np.ndarray:
    """One path of B_H on the grid {k*T/n_steps}, length n_steps + 1.

    For H in (0, 1) other than 1/2 the path is dt**H (W_0 J + y_J - y_0)
    from one transform of the normals' half spectrum times
    ``_summing_spectrum(H, n_steps)`` (see the module docstring); the 2n
    normals are drawn as the two real edge entries, then the (re, im) pairs
    of entries 1 ... n-1, and conjugated, the stream of a complex-FFT
    circulant generator.  The path is written to ``work`` (a writable
    C-contiguous float64 array of at least 4*n_steps + 2 entries, allocated
    when not given; anything else is a SpecError) as work[:n_steps + 1],
    and that view is returned.
    """
    _check_grid(H, n_steps, T)
    if work is None:
        work = np.empty(_work_size(n_steps))
    elif not (isinstance(work, np.ndarray) and work.ndim == 1 and work.flags.carray
              and work.dtype == np.float64 and work.size >= _work_size(n_steps)):
        # flags.carray: C-contiguous, aligned and writeable.
        raise SpecError(
            f"work must be a writable C-contiguous 1-D float64 array of at least "
            f"{_work_size(n_steps)} entries for {n_steps} steps, got "
            f"{getattr(work, 'dtype', type(work).__name__)} of shape {np.shape(work)}")
    n = n_steps
    path = work[: n + 1]
    if H == 1.0:
        # Covariance t*t': the path is a random slope through the origin.
        z = rng.standard_normal()
        return np.multiply(np.linspace(0.0, T, n + 1), z, out=path)
    dt_h = (T / n) ** H
    if H == 0.5:
        # White noise past the path's entries, summed into them.
        noise = rng.standard_normal(out=work[2 * n + 2: 3 * n + 2])
        noise *= dt_h
        path[0] = 0.0
        np.cumsum(noise, out=path[1:])
        return path
    table = _summing_spectrum(H, n)
    # Draw the two real edge normals, then the (re, im) pairs of entries
    # 1 ... n-1, into the half spectrum w; conjugate it and scale it.
    w = work[: 2 * n + 2].view(complex)
    rng.standard_normal(out=work[: 2 * n])
    w[0], w[n] = work[0], work[1]
    np.conjugate(w, out=w)
    np.multiply(w, table, out=w)
    w0 = w[0].real
    y = np.fft.irfft(w, 2 * n, norm="forward", out=work[2 * n + 2: 4 * n + 2])[: n + 1]
    # path = dt**H (W_0 J + y_J - y_0), over the spectrum's first half.
    np.multiply(np.arange(n + 1.0), w0, out=path)
    path += y
    path -= y[0]
    path *= dt_h
    return path


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
