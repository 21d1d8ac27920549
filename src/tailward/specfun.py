"""Normal-tail kernels built on numpy and ``math``.

``log_norm_sf`` is the one place tailward computes standard-normal tails.
It goes element by element through ``math.erfc``, which beats some forty
numpy calls on the few dozen elements tailward passes at a time, up to
x = 37, just before erfc(x / sqrt 2) leaves the normal double range.
Past that it uses W. J. Cody's asymptotic rational form of the scaled
complement erfcx(t) = exp(t^2) erfc(t) (Cody 1969, Math. Comp. 23,
631-637; the coefficients of his SPECFUN routine CALERF), evaluated in
log space so nothing underflows.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_norm_sf"]

_INV_SQRT2 = 0.5 ** 0.5
_LN2 = math.log(2.0)
_INV_SQRT_PI = 0.56418958354775628695

# CALERF's coefficients for t > 4, highest power first:
# erfcx(t) = (1/sqrt(pi) - s * N(s) / D(s)) / t with s = 1/t^2.
_TAIL_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
             1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_TAIL_DEN = (1.0, 2.56852019228982242e00, 1.87295284992346725e00,
             5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3)
# erfc(37 / sqrt 2) ~ 1e-299 is a normal double; past x ~ 37.5 it turns
# subnormal and loses digits.
_X_ERFC_MAX = 37.0

# Module-level names are found faster than attributes in the per-element loop.
_erfc, _log2, _log1p = math.erfc, math.log2, math.log1p


def _horner(z: float, coefs) -> float:
    """coefs[0] z^k + ... + coefs[k]."""
    acc = 0.0
    for c in coefs:
        acc = acc * z + c
    return acc


def _erfcx_tail(t: float) -> float:
    s = 1.0 / (t * t)
    return (_INV_SQRT_PI - s * _horner(s, _TAIL_NUM) / _horner(s, _TAIL_DEN)) / t


def _log_q_tail(x: float) -> float:
    """log P(Z > x) for x > 37: log(erfcx(t) / 2) - x^2 / 2."""
    if x == math.inf:
        return -math.inf
    return math.log(0.5 * _erfcx_tail(x * _INV_SQRT2)) - 0.5 * x * x


def _log_norm_sf_list(values) -> list:
    # log Q(x) = log(erfc(t) / 2), t = x / sqrt 2; for x < 0 it is
    # log(1 - erfc(-t) / 2), kept accurate relative to its small size.
    return [
        ((_log2(0.5 * _erfc(x * _INV_SQRT2)) * _LN2 if x <= _X_ERFC_MAX else _log_q_tail(x))
         if x >= 0.0 else _log1p(-0.5 * _erfc(-x * _INV_SQRT2)))
        for x in values
    ]


def log_norm_sf(x):
    """log P(Z > x) for a standard normal Z, for a scalar or an array.

    Accurate to a few ulp of max(1, |result|) over the whole line,
    including the far tail where erfc underflows (x > 37.5); for x < 0 the
    result is also accurate relative to its own small size.  A scalar
    gives a float, an array a float array of the same shape.
    """
    a = np.asarray(x, dtype=float)
    values = _log_norm_sf_list(a.ravel().tolist())
    if a.ndim == 0:
        return values[0]
    return np.fromiter(values, dtype=float, count=a.size).reshape(a.shape)
