"""Adaptive Gauss-Kronrod quadrature carried out entirely in log-space.

Rare-event integrands here span hundreds to thousands of orders of
magnitude: the integrand is supplied as its logarithm and every
accumulation is a log-sum-exp, so panels contributing below the global
maximum minus ~745 nats cost nothing instead of underflowing the result.

Panels are the rows of one (panels x 7) float64 table with the columns
t_lo, t_hi, sign, anchor, log K, log error and final.  A panel covers
[t_lo, t_hi] in transformed coordinates: sign 0 is the identity map and
sign +-1 the map x = anchor +- t/(1-t) onto a half-line; final marks a
panel at floating-point resolution, which is never split again.  Each
round evaluates its new rows with one integrand call and row-wise
log-sum-exps, then splits the selected rows by masks into a fixed order:
kept rows, rows at resolution, then each split row's (lo, hi) halves.  So
the result does not depend on scheduling and is bitwise reproducible.

A round's masks are needed only by unusual rows, and the common case skips
them: a row whose maximum is -inf (a panel where the integrand vanishes),
NaN or +inf takes the masked log-sum-exp; a node value that is NaN or +inf
(the half-line map at t = 1, log of a negative number) is replaced by
-inf; the half-line map runs only for mapped rows; a split round with a
panel at floating-point resolution marks it final.  Where a mask is
skipped it is the identity, so every operation that reaches a result
keeps its operands, their order and the layout numpy sums them in, and
the bits cannot move; tests/test_quadrature.py pins one integral per
masked branch and compares the row reductions bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure, as_number

__all__ = [
    "log_quad",
    "logsumexp_pair",
    "log1mexp",
    "log_quad_result",
    "QuadResult",
]

# 15-point Kronrod nodes on [-1, 1] and weights; the embedded 7-point Gauss
# rule uses the odd-index nodes.  Standard QUADPACK constants.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

_LOG_WK = np.log(_WK)
_LOG_WG = np.log(_WG)
_MAX_NODES = 10 ** 6  # integrand evaluations before a call stops unconverged


def logsumexp_pair(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log1mexp(x: float) -> float:
    """log(1 - exp(x)) for x <= 0, stable at both ends."""
    if x >= 0:
        return -math.inf if x == 0 else math.nan
    if x > -0.6931471805599453:  # log 2
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


# Columns of the panel table (see the module docstring).
_T_LO, _T_HI, _SIGN, _ANCHOR, _LOG_K, _LOG_ERR, _FINAL = range(7)


def _row_logsumexp(v: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row of a 2-D array.

    numpy sums a row in an order set by the layout: pairwise along a
    C-contiguous row, left to right down the columns of a Fortran-ordered
    array.  So every caller fixes the layout it passes, and the bits with it.

    When every row maximum is finite (the common case) the masks of the
    other branch are the identity and are skipped: the same subtraction,
    exp, row sum and log run on the same operands in the same order, so the
    bits cannot move.  Otherwise every row takes the masked branch: a row of
    -inf gives -inf, and a row with a NaN or +inf maximum gives that maximum.
    """
    m = np.maximum.reduce(v, axis=1)
    ok = np.isfinite(m)
    if np.count_nonzero(ok) == len(ok):
        return m + np.log(np.add.reduce(np.exp(v - m[:, None]), axis=1))
    s = np.add.reduce(np.exp(v - np.where(ok, m, 0.0)[:, None]), axis=1)
    return m + np.log(s, out=np.zeros(len(s)), where=ok)


def _row_log_abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log |exp(a) - exp(b)| elementwise, computed stably.

    Every element takes the one masked expression: an unmasked branch would
    make as many array passes, so there is nothing to skip.
    """
    hi = np.maximum(a, b)
    # Where both are -inf, lo - 0 keeps d at -inf instead of NaN.
    d = np.minimum(np.minimum(a, b) - np.where(hi > -np.inf, hi, 0.0), -1e-300)
    return np.where(a == b, -np.inf, hi + np.log(-np.expm1(d)))


def _eval_panels(log_f, pan: np.ndarray) -> None:
    """Fill the log K and log error columns with one integrand call."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        half = (pan[:, _T_HI] - pan[:, _T_LO]) / 2.0
        xs = ((pan[:, _T_HI] + pan[:, _T_LO]) / 2.0)[:, None] + half[:, None] * _XK
        mapped = np.count_nonzero(pan[:, _SIGN])
        if mapped:
            # Identity rows go through the map at t = 0 and keep their own nodes.
            sign = pan[:, _SIGN, None]
            t = np.where(sign != 0.0, xs, 0.0)
            one_minus = 1.0 - t
            log_jac = -2.0 * np.log(one_minus)
            xs = np.where(sign != 0.0, pan[:, _ANCHOR, None] + sign * (t / one_minus), xs)
        vals = np.asarray(log_f(xs.ravel()), dtype=float).reshape(xs.shape)
        if mapped:
            vals = vals + log_jac
        log_half = np.log(half)
    # NaN and non-finite combinations (endpoint overflow in the map, 0 * inf)
    # are measure-zero artifacts of the transform; drop them.  The maximum
    # is NaN or +inf exactly when some value is; -inf values stay as they are.
    if not vals.max() < np.inf:
        vals = np.where(np.isfinite(vals), vals, -np.inf)
    # Kronrod rows are C-contiguous (summed pairwise); the Gauss nodes, every
    # other Kronrod node, go into a Fortran-ordered array (summed left to
    # right), the layout the rule has always summed them in.
    log_k = _row_logsumexp(vals + _LOG_WK) + log_half
    log_g = _row_logsumexp(np.add(vals[:, 1::2], _LOG_WG, order="F")) + log_half
    pan[:, _LOG_K] = log_k
    pan[:, _LOG_ERR] = _row_log_abs_diff(log_k, log_g)


@dataclass
class QuadResult:
    log_value: float
    log_error: float
    n_nodes: int
    converged: bool

    @property
    def rel_error(self) -> float:
        if self.log_value == -math.inf:
            return 0.0
        return math.exp(self.log_error - self.log_value)


def log_quad_result(
    log_f,
    a: float,
    b: float,
    *,
    rtol: float = 1e-10,
    breakpoints=(),
) -> QuadResult:
    """Integrate exp(log_f) over (a, b); returns the log of the integral.

    ``log_f`` must accept a numpy array and return elementwise logs (-inf
    where the integrand vanishes).  Infinite endpoints are mapped onto
    (0, 1) with the rational substitution x = anchor +- t/(1-t).
    ``breakpoints`` (any iterable or array of numbers) are interior
    locations (support edges, kinks) that seed the initial panel set;
    points outside the open interval (a, b) and repeats are dropped; a NaN
    limit is a SpecError.
    """
    a = as_number("integration limit a", a, finite=False)
    b = as_number("integration limit b", b, finite=False)
    if a == b:
        return QuadResult(-math.inf, -math.inf, 0, True)
    if a > b:
        raise QuadratureFailure(f"reversed integration limits ({a}, {b})")

    cuts = np.asarray(breakpoints if isinstance(breakpoints, np.ndarray)
                      else list(breakpoints), dtype=float)
    cuts = np.sort(cuts[(cuts > a) & (cuts < b)])
    finite_lo = a if math.isfinite(a) else (float(cuts[0]) if len(cuts) else (min(b, 0.0) if math.isfinite(b) else 0.0))
    finite_hi = b if math.isfinite(b) else (float(cuts[-1]) if len(cuts) else (max(a, 0.0) if math.isfinite(a) else 0.0))
    rows = []
    if not math.isfinite(a):
        rows.append((0.0, 1.0, -1.0, finite_lo))
    if not math.isfinite(b):
        rows.append((0.0, 1.0, 1.0, finite_hi))
    edges = np.concatenate(([finite_lo], cuts, [finite_hi]))
    keep = edges[1:] > edges[:-1]  # drops repeated cuts and empty panels
    pan = np.zeros((len(rows) + np.count_nonzero(keep), 7))
    if rows:
        pan[:len(rows), :4] = rows
    pan[len(rows):, _T_LO] = edges[:-1][keep]
    pan[len(rows):, _T_HI] = edges[1:][keep]
    _eval_panels(log_f, pan)
    n_nodes = 15 * len(pan)
    log_rtol = math.log(rtol)

    while True:
        # The reductions sum each row in numpy's pairwise order, which holds
        # only for C-contiguous rows: a strided view such as pan[:, 4:6].T
        # is summed in another order and changes the last digit.
        total, err = _row_logsumexp(np.ascontiguousarray(pan[:, _LOG_K:_FINAL].T)).tolist()
        if total == -math.inf:
            return QuadResult(-math.inf, -math.inf, n_nodes, True)
        # Both tests compare differences: at |total| >~ 1e17, total + log_rtol
        # rounds back to total and any error would pass.
        if err - total <= log_rtol:
            return QuadResult(total, err, n_nodes, True)
        # Refine every panel whose error is within a factor ~e^3 of an even
        # share of the error budget; fixed order keeps this deterministic.
        threshold = log_rtol - math.log(len(pan)) - 3.0
        split = (pan[:, _LOG_ERR] - total > threshold) & (pan[:, _FINAL] == 0.0)
        n_split = np.count_nonzero(split)
        if not n_split or n_nodes + 30 * n_split > _MAX_NODES:
            return QuadResult(total, err, n_nodes, False)
        parents = pan[split]
        mid = (parents[:, _T_LO] + parents[:, _T_HI]) / 2.0
        # An interval at floating-point resolution cannot be halved.
        final = (mid <= parents[:, _T_LO]) | (mid >= parents[:, _T_HI])
        pieces = [pan[~split]]
        if np.count_nonzero(final):
            parents[final, _FINAL] = 1.0
            pieces.append(parents[final])
            parents, mid = parents[~final], mid[~final]
        children = parents.repeat(2, axis=0)
        children[0::2, _T_HI] = children[1::2, _T_LO] = mid
        if len(children):
            _eval_panels(log_f, children)
        n_nodes += 15 * len(children)
        pan = np.concatenate(pieces + [children])


def log_quad(
    log_f,
    a: float,
    b: float,
    *,
    rtol: float = 1e-10,
    breakpoints=(),
) -> float:
    """Like :func:`log_quad_result`, raising on unconverged integrals."""
    res = log_quad_result(log_f, a, b, rtol=rtol, breakpoints=breakpoints)
    if not res.converged:
        raise QuadratureFailure(
            f"quadrature stalled at relative error {res.rel_error:.3e} "
            f"(target {rtol:.1e}, {res.n_nodes} nodes)"
        )
    return res.log_value
