"""Path estimators: bitwise equal to a per-path reference loop, inputs checked first."""

import math
import statistics

import numpy as np
import pytest
from scipy import stats

import tailward as tw
from tailward.errors import DomainError, SpecError
from tailward.gp_extremes import (
    econst_estimate,
    eta_power_low_model,
    fbm_path,
    negate_model,
    pickands_estimate,
    sup_exceedance_mc,
)
from tailward.gp_extremes import estimators
from tailward.montecarlo import _Z95, _mean_interval, _sums, block_rng, wilson_interval

# Each reference draws its paths one after another from each chunk's stream,
# block_rng(seed, c) for paths 64c ... 64c + 63, into fresh arrays where the
# estimators reuse one workspace per chunk.  Its interval is
# mean +- z * sd / sqrt(n) with the sd of numpy's two-pass std(ddof=1).


def _path_streams(seed, n_paths):
    """Path i's generator: chunk i // 64's stream, moved on by the paths before it."""
    for c in range(math.ceil(n_paths / 64)):
        rng = block_rng(seed, c)
        for _ in range(min(64, n_paths - 64 * c)):
            yield rng


def _reference_pickands(alpha_loc, T, n_paths, n_steps, seed):
    H = alpha_loc / 2.0
    dt = T / n_steps
    t = np.linspace(-T, T, 2 * n_steps + 1)
    drift = np.abs(t) ** alpha_loc
    w_trap = np.full(t.shape, dt)
    w_trap[0] = w_trap[-1] = dt / 2.0
    ratios = []
    for rng in _path_streams(seed, n_paths):
        # The path on [0, 2T], unpinned: the ratio ignores a constant shift.
        z = math.sqrt(2.0) * fbm_path(H, 2 * n_steps, 2 * T, rng) - drift
        ratios.append(1.0 / float(np.dot(np.exp(z - z.max()), w_trap)))
    return _normal_interval(np.array(ratios))


def _reference_econst(hurst, alpha, beta, T, n_paths, n_steps, seed):
    denom = 1.0 + np.linspace(0.0, T, n_steps + 1) ** beta
    vals = np.array([
        max(float(np.max(fbm_path(hurst, n_steps, T, rng) / denom)), 0.0) ** alpha
        for rng in _path_streams(seed, n_paths)
    ])
    return _normal_interval(vals)


def _normal_interval(values):
    value = float(values.mean())
    half = _Z95 * float(values.std(ddof=1)) / math.sqrt(len(values))
    return value, value - half, value + half


def _matches(est, ref):
    # The value bitwise; the ends to round-off, as the estimators take the
    # spread from the sums of one block (a dot product of the deviations).
    return est.value == ref[0] and (est.ci_lo, est.ci_hi) == pytest.approx(ref[1:], rel=1e-12)


def _reference_sup(u_grid, T, n_steps, n_paths, seed, beta, eta, zeta, hurst):
    t_pow = np.linspace(0.0, T, n_steps + 1) ** beta
    counts = np.zeros(len(u_grid), dtype=int)
    for rng in _path_streams(seed, n_paths):
        path = fbm_path(hurst, n_steps, T, rng)
        slope = eta if isinstance(eta, (int, float)) else float(eta.sample(rng))
        offset = 0.0 if zeta is None else float(zeta.sample(rng))
        counts += float(np.max(path - slope * t_pow)) - offset > np.asarray(u_grid)
    return [(k / n_paths, *wilson_interval(int(k), n_paths)) for k in counts]


@pytest.mark.parametrize("H", [0.5, 0.7])
def test_paths_drawn_in_turn_from_one_stream_are_independent(H):
    # 4,096 paths of 16 steps: 64 chunks, each drawing its 64 paths one
    # after another from its own stream.  Paths j and j + 1 of a chunk must
    # be uncorrelated, and the ends B_H(T) must have variance T**2H.
    T, n = 2.0, 4096
    ends = estimators._path_values(lambda rng, work: fbm_path(H, 16, T, rng, work)[-1],
                                   n, 23, 16, 1)
    chunks = ends.reshape(64, 64)
    r = np.corrcoef(chunks[:, :-1].ravel(), chunks[:, 1:].ravel())[0, 1]
    assert abs(r) < 4.0 / math.sqrt(n)
    # (n - 1) s**2 / T**2H is chi-square with n - 1 degrees of freedom.
    band = stats.chi2.ppf([0.0005, 0.9995], n - 1) / (n - 1) * T ** (2 * H)
    assert band[0] < ends.var(ddof=1) < band[1]


# workers=None is the default: one thread per available CPU.
SIZES = [(n, w) for n in (2, 65, 130) for w in (1, 2, None)]


@pytest.mark.parametrize("n_paths,workers", SIZES)
@pytest.mark.parametrize("alpha_loc", [0.6, 1.0, 1.4, 2.0])
def test_pickands_matches_the_reference_loop(alpha_loc, n_paths, workers):
    est = pickands_estimate(alpha_loc, T=3.0, n_paths=n_paths, n_steps=64, seed=5,
                            workers=workers)
    assert _matches(est, _reference_pickands(alpha_loc, 3.0, n_paths, 64, 5))


@pytest.mark.parametrize("n_paths,workers", SIZES)
@pytest.mark.parametrize("process,H", [("bm", 0.5), ("fbm", 0.3), ("fbm", 0.7), ("fbm", 1.0)])
def test_econst_matches_the_reference_loop(process, H, n_paths, workers):
    hurst = 0.5 if process == "bm" else H
    ref = _reference_econst(hurst, 1.5, 1.2, 8.0, n_paths, 128, 2 ** 63 + 1)
    kwargs = dict(T=8.0, n_paths=n_paths, n_steps=128, seed=2 ** 63 + 1, H=H, workers=workers)
    if ref[1] == ref[2]:
        # At H = 1 a path is t * Z: both paths of 2 may have Z < 0 and ratio 0.
        with pytest.raises(DomainError, match=f"all {n_paths} paths gave 0.0; no interval"):
            econst_estimate(process, 1.5, 1.2, **kwargs)
        return
    est = econst_estimate(process, 1.5, 1.2, **kwargs)
    assert _matches(est, ref)


@pytest.mark.parametrize("n_paths,workers", SIZES)
@pytest.mark.parametrize("process,H,slope", [
    ("bm", 0.5, 0.0), ("bm", 0.5, "random"), ("fbm", 0.3, "random"), ("fbm", 0.7, 1),
])
def test_sup_exceedance_matches_the_reference_loop(process, H, slope, n_paths, workers):
    # With slope 0 many suprema sit at the path's last point; the fine grid
    # of levels tells a supremum apart from the one a step earlier.
    if slope == "random":
        eta = eta_power_low_model(0.0, 1.0, 1.0)
        zeta = negate_model(tw.make_model({"family": "pareto", "params": {"C": 1.0, "alpha": 3.0}}))
    else:
        eta, zeta = slope, None
    grid = list(np.arange(0.0, 3.01, 0.0625))
    ests = sup_exceedance_mc(grid, T=6.0, n_steps=256, n_paths=n_paths, seed=9, beta=1.5,
                             eta=eta, zeta=zeta, process=process, H=H, workers=workers)
    ref = _reference_sup(grid, 6.0, 256, n_paths, 9, 1.5, eta, zeta, 0.5 if process == "bm" else H)
    assert [(e.p_hat, e.ci_lo, e.ci_hi) for e in ests] == ref


@pytest.mark.parametrize("call,message", [
    (lambda: pickands_estimate(1.0, 5.0, 0, 64), "n_paths >= 2, got 0"),
    (lambda: pickands_estimate(1.0, 5.0, 1, 64), "n_paths >= 2, got 1"),
    (lambda: pickands_estimate(1.0, 5.0, 16, 100), "power of two, got 100"),
    (lambda: pickands_estimate(1.0, -1.0, 16, 64), "horizon must be positive, got -1.0"),
    (lambda: econst_estimate("bm", 1.0, 1.0, 5.0, 1, 64), "n_paths >= 2, got 1"),
    (lambda: econst_estimate("fbm", 1.0, 1.0, 5.0, 16, 100, H=0.3), "power of two, got 100"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, process="bmm"), "'bmm'"),
    # "bm" once dropped any H and ran at H = 0.5.
    (lambda: econst_estimate("bm", 1.5, 1.2, 5.0, 16, 64, H=0.3),
     "process 'bm' has H = 0.5, got H=0.3"),
    (lambda: econst_estimate("bm", 1.5, 1.2, 5.0, 16, 64, H=math.nan),
     "process 'bm' has H = 0.5, got H=nan"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, process="bm", H=0.7),
     "process 'bm' has H = 0.5, got H=0.7"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 0, 0), "n_paths >= 1, got 0"),
    (lambda: sup_exceedance_mc([1.0], 0.0, 64, 16, 0), "horizon must be positive, got 0.0"),
    # A NaN slope, level or trend power once gave p_hat = 0; beta = -1
    # warned of a division by zero, and a string slope raised AttributeError.
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, eta=math.nan),
     "slope eta must be finite, got nan"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, eta=-math.inf),
     "slope eta must be finite, got -inf"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, eta=10 ** 400),
     "slope eta is beyond the doubles"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, eta="1"),
     'slope eta must be a number, got "1"'),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, beta=math.nan),
     "beta must be positive and finite, got nan"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, beta=-1.0),
     "beta must be positive and finite, got -1.0"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, beta=math.inf),
     "beta must be positive and finite, got inf"),
    (lambda: sup_exceedance_mc([0.5, math.nan], 5.0, 64, 16, 0),
     r"level u\[1\] must be a number, got nan"),
    # A trend beyond the doubles once warned of an overflow, and 0 * inf
    # gave every path a NaN supremum and p_hat = 0.
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, eta=0.0, beta=1e300),
     r"trend eta\*T\*\*beta is beyond the doubles, got T=5.0, beta=1e\+300, eta=0.0"),
    (lambda: sup_exceedance_mc([1.0], 1e200, 64, 16, 0, beta=2.0),
     r"trend eta\*T\*\*beta is beyond the doubles, got T=1e\+200, beta=2.0, eta=1.0"),
    (lambda: sup_exceedance_mc([1.0], 1e200, 64, 16, 0, beta=2.0,
                               eta=eta_power_low_model(0.0, 1.0, 1.0)),
     r"trend eta\*T\*\*beta is beyond the doubles, got T=1e\+200, beta=2.0, eta=Dist"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, eta=1e308),
     r"trend eta\*T\*\*beta is beyond the doubles, got T=5.0, beta=1.0, eta=1e\+308"),
    (lambda: sup_exceedance_mc([1.0], 5.0, 64, 16, 0, eta=-1e308, beta=2.0),
     r"trend eta\*T\*\*beta is beyond the doubles, got T=5.0, beta=2.0, eta=-1e\+308"),
])
def test_inputs_are_checked_before_the_first_path(monkeypatch, call, message):
    def no_path(*args, **kwargs):
        raise AssertionError("drew a path before checking the inputs")

    monkeypatch.setattr(estimators, "fbm_path", no_path)
    with pytest.raises(SpecError, match=message):
        call()


@pytest.mark.parametrize("process,H", [("bm", 0.5), ("fbm", 0.7)])
def test_a_numpy_scalar_slope_is_a_number(process, H):
    # eta=np.int64(1) once raised AttributeError: it is neither an int nor a
    # float, so it was taken for a law.  Every real 1 gives the bits of 1.0.
    kwargs = dict(T=5.0, n_steps=64, n_paths=70, seed=3, process=process, H=H, workers=1)
    ref = sup_exceedance_mc([0.0, 0.5, 1.0], eta=1.0, **kwargs)
    for eta in (np.int64(1), np.float32(1.0), np.float64(1.0), 1):
        assert sup_exceedance_mc([0.0, 0.5, 1.0], eta=eta, **kwargs) == ref


@pytest.mark.parametrize("process,H", [("bm", 0.5), ("fbm", 0.3)])
def test_a_drawn_slope_whose_trend_overflows_leaves_no_exceedance(process, H):
    # 1e308 * t overflows for t > 1, and once warned; the path can only
    # exceed at t = 0, as under the finite trend 1e300 * t.
    kwargs = dict(T=5.0, n_steps=64, n_paths=70, seed=3, process=process, H=H, workers=1)
    grid = [-1.0, 0.0, 0.5]
    ests = sup_exceedance_mc(grid, eta=tw.make_model("constant(1e308)"), **kwargs)
    assert ests == sup_exceedance_mc(grid, eta=1e300, **kwargs)
    assert [e.p_hat for e in ests] == [1.0, 0.0, 0.0]


def _interval(values):
    with np.errstate(over="ignore"):  # the squares' direct sum overflows, and is retaken
        sums = _sums(np.array(values), centered=True)
    return _mean_interval(sums, len(values), "m", centered=True)


@pytest.mark.parametrize("values", [
    [1.9e-301, 2.1e-301], [-3e-300, 5e-300, 1e-300], [1e-200, -1e-200, 2e-200, 5e-201],
])
def test_a_spread_whose_squares_underflow_still_backs_an_interval(values):
    # Every squared deviation is below the smallest double, so the plain sd
    # is 0; statistics.stdev sums the squares exactly.
    assert np.std(values, ddof=1) == 0.0
    value, lo, hi, _ = _interval(values)
    half = _Z95 * statistics.stdev(values) / math.sqrt(len(values))
    assert value == float(np.mean(values)) and lo < value < hi
    assert hi - value == pytest.approx(half, rel=1e-12)
    assert value - lo == pytest.approx(half, rel=1e-12)


@pytest.mark.parametrize("values", [[1e300, 1.5e300], [1e308, -1e308, 1e308]])
def test_a_spread_whose_squares_overflow_still_backs_an_interval(values):
    # The squared deviations (or z times the sd) overflow, yet the mean and
    # the half-width fit in a double.
    value, lo, hi, _ = _interval(values)
    half = _Z95 * (statistics.stdev(values) / math.sqrt(len(values)))
    assert value == float(np.mean(values))
    assert hi - value == pytest.approx(half, rel=1e-12)
    assert value - lo == pytest.approx(half, rel=1e-12)


def test_a_half_width_beyond_the_doubles_is_refused():
    assert _interval([1.7e308, -1.7e308])[1] == -math.inf
    with pytest.raises(DomainError, match="ci_lo is not a finite double"):
        estimators._path_mean(np.array([1.7e308, -1.7e308]), "m", T=1.0, n_steps=1, seed=0)


def test_a_half_width_below_the_doubles_is_still_refused():
    # The values differ in their last bit, and the half-width is below
    # the smallest subnormal.
    values = np.array([5e-324, 5e-324, 5e-324, 1e-323] + [5e-324] * 60)
    value, lo, hi, _ = _interval(values)
    assert lo == value == hi
    with pytest.raises(DomainError, match="the spread of 64 paths .* underflows"):
        estimators._path_mean(values, "m", T=1.0, n_steps=1, seed=0)
