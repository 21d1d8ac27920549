"""Normal-tail kernels against scipy and mpmath."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from tailward.specfun import log_norm_sf

# Absolute error allowed, in units of max(1, |reference|).
TOL = 2e-15

GRID = np.linspace(-40.0, 40.0, 160_001)
MAGNITUDES = np.geomspace(1e-8, 1e6, 4001)
LOG_GRID = np.concatenate([-MAGNITUDES[::-1], MAGNITUDES])


def _assert_close(got, ref):
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    worst = int(np.argmax(err))
    assert err[worst] <= TOL, (err[worst], worst)


@pytest.mark.parametrize("points", [GRID, LOG_GRID], ids=["dense", "log-spaced"])
def test_log_norm_sf_matches_scipy(points):
    got = log_norm_sf(points)
    _assert_close(got, special.log_ndtr(-points))


SPOT_POINTS = [0.0, 1e-8, -0.3, 1.0, -1.0, 5.6, -8.0, 8.0, 30.0, 37.0, 40.0, -37.0, 1e3, 1e6]


def _mp_log_q(x: float) -> float:
    with mpmath.workdps(60):
        return float(mpmath.log(mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2))


@pytest.mark.parametrize("x", SPOT_POINTS)
def test_log_norm_sf_matches_mpmath(x):
    ref = _mp_log_q(x)
    for got in (log_norm_sf(x), log_norm_sf(np.array([x]))[0]):
        assert abs(got - ref) <= TOL * max(1.0, abs(ref))
        if x < 0:
            # log(1 - Q(|x|)) keeps its relative accuracy when it is tiny.
            assert got == pytest.approx(ref, rel=1e-12)


def test_log_norm_sf_special_values_and_shapes():
    got = log_norm_sf(np.array([math.inf, -math.inf, math.nan]))
    assert got[0] == -math.inf and got[1] == 0.0 and math.isnan(got[2])
    assert log_norm_sf(math.inf) == -math.inf
    assert log_norm_sf(-math.inf) == 0.0
    assert math.isnan(log_norm_sf(math.nan))
    assert isinstance(log_norm_sf(1.5), float)
    assert isinstance(log_norm_sf(np.float64(1.5)), float)
    assert log_norm_sf(np.zeros((2, 3))).shape == (2, 3)
    assert log_norm_sf(np.zeros((0,))).shape == (0,)
