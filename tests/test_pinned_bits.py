"""Sampler draws, law values and tail estimates pinned to recorded digests.

The broadcast references in test_montecarlo call the same samplers and law
formulas as the code they check, so they cannot see those bits move; these
pins can.  A digest is the first 16 hex digits of the SHA-256 of the
float64 bytes.  The pins were recorded before the samplers, the law end
masks and the estimators wrote into arrays they own.  The sampler pins draw
from Philox generators built here, the streams they were recorded on, so
they pin the sampler arithmetic whatever generator ``block_rng`` builds;
the stream pins and the estimate pins pin ``block_rng`` itself.  The
path-mean pins were re-recorded when chunk c of a path estimate came to
draw its 64 paths one after another from ``block_rng(seed, c)``, and the
64-path Pickands pin again when fractional paths came to be summed in their
transform and Pickands paths were no longer pinned to 0 at t = 0.  A path
mean can absorb the last-bit move of every path it averages, so raw
``fbm_path`` draws are pinned too.  The slope law's value pin was
re-recorded when it became the edge law's mirror image, and again, with the
edge laws' value pins, when the edge law's log CDF came to be log1p(-SF)
where SF < 1/2: only that log CDF, and the slope law's log SF (its mirror),
moved.
"""

import hashlib

import numpy as np
import pytest

import tailward as tw
from tailward import gp_extremes as gp
from tailward.montecarlo import BLOCK_SIZE, block_rng

LAWS = {spec: tw.make_model(spec) for spec in (
    "weibull(1,2)", "weibull(0.5,3)", "weibull(2,0.5)", "pareto(1,2)", "pareto(2,1.5)",
    "edge(0,1)", "edge(2,1)", "edge(1,0.5)", "lognormal(0,1)", "normal()", "constant(1.5)")}
LAWS.update({
    "eta_power_low(0.3,2,1.5)": gp.eta_power_low_model(0.3, 2.0, 1.5),
    "neg pareto(1,2)": gp.negate_model(tw.make_model("pareto(1,2)")),
    "neg lognormal(0,1)": gp.negate_model(tw.make_model("lognormal(0,1)")),
})
STREAMS = ((7, 3), (2 ** 64 - 1, 0))
SIZES = (1, BLOCK_SIZE, BLOCK_SIZE + 1)
POINTS = np.concatenate([np.linspace(-3.0, 5.0, 161), np.geomspace(1e-9, 1e9, 181),
                         [-1e300, 1e300, 0.3, 0.30000000000000004, 1.0 - 2.0 ** -53]])
# The mc-bm benchmark calls at 10**5 draws.
ESTIMATES = {
    "sum": ("weibull(1,2)", "pareto(1,2)", (10.0, 30.0, 100.0, 300.0, 1000.0)),
    "product": ("lognormal(0,1)", "pareto(1,2)", (10.0, 100.0, 1000.0, 2700.0)),
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in map(np.asarray, arrays):
        assert a.dtype == np.float64
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def philox(seed, index):
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def sample_digest(name):
    return digest(*[LAWS[name].sample(philox(s, b), n) for s, b in STREAMS for n in SIZES])


def scalar_draws(name):
    draws = [LAWS[name].sample(philox(s, b)) for s, b in STREAMS]
    assert all(isinstance(v, float) for v in draws), name
    return [float(v).hex() for v in draws]


def stream_digest(draw):
    return digest(*[draw(block_rng(s, b), n) for s, b in STREAMS for n in SIZES])


def law_digest(name):
    m = LAWS[name]
    return digest(*[f(POINTS) for f in (m.log_sf, m.log_cdf, m.log_density) if f])


def estimate_digest(estimator, op, workers):
    x, y, grid = ESTIMATES[op]
    ests = getattr(tw, estimator)(tw.make_model(x), tw.make_model(y), op, list(grid),
                                  10 ** 5, seed=31, workers=workers)
    return digest([[e.u, e.p_hat, e.ci_lo, e.ci_hi] for e in ests])


def path_mean_digest(estimator, workers, n_paths=64):
    return digest([PATH_MEANS[estimator](n_paths, workers).value])

# Path means at 2**8 steps: one chunk of 64 paths, or 130 paths in three
# chunks, the last holding two.
PATH_MEANS = {
    "pickands_estimate": lambda n_paths, workers: gp.pickands_estimate(
        1.4, 4.0, n_paths, 1 << 8, seed=41, workers=workers),
    "econst_estimate": lambda n_paths, workers: gp.econst_estimate(
        "fbm", 1.0, 1.0, 10.0, n_paths, 1 << 8, seed=41, H=0.7, workers=workers),
}


def fbm_path_digest(H):
    # Four paths drawn in turn from one stream, at 2**4, 2**8 (twice) and 2**12 steps.
    rng = block_rng(41, 0)
    return digest(*[gp.fbm_path(H, n, 4.0, rng) for n in (1 << 4, 1 << 8, 1 << 8, 1 << 12)])


SAMPLES = {
    "weibull(1,2)": "39bd7e96e86b7f62",
    "weibull(0.5,3)": "6f7062396b30b4cc",
    "weibull(2,0.5)": "f146956232c63069",
    "pareto(1,2)": "15502468a2f37bfd",
    "pareto(2,1.5)": "16746ac79251c612",
    "edge(0,1)": "b75c91620fb219d6",
    "edge(2,1)": "aa1611d3dcea8ad0",
    "edge(1,0.5)": "46a4c6b49e364e0d",
    "lognormal(0,1)": "64b7cb7b529823b7",
    "normal()": "4c8e855cc5f02925",
    "constant(1.5)": "1ca088e0bd06cd34",
    "eta_power_low(0.3,2,1.5)": "e94bcfdb8a1bb07d",
    "neg pareto(1,2)": "114e2198e0a0f091",
    "neg lognormal(0,1)": "657ce4832b86698d",
}
SCALARS = {
    "weibull(1,2)": ["0x1.9f543971c48efp-1", "0x1.08f55c3375308p-1"],
    "weibull(0.5,3)": ["0x1.188acc130c293p+0", "0x1.9fccf6e01c8a6p-1"],
    "weibull(2,0.5)": ["0x1.bb64b08be0e7ap-4", "0x1.25c24b4d2e370p-6"],
    "pareto(1,2)": ["0x1.63bcaa1c1d2c1p+0", "0x1.24ae03c50f35bp+0"],
    "pareto(2,1.5)": ["0x1.3b1375fc6c569p+1", "0x1.e5ce88b9a8202p+0"],
    "edge(0,1)": ["-0x1.edb31ec618b30p-2", "-0x1.e1290e2c6ef2cp-3"],
    "edge(2,1)": ["0x1.8493384e79d34p+0", "0x1.c3dade3a7221ap+0"],
    "edge(1,0.5)": ["0x1.88fc93c49f04ap-1", "0x1.e3bd25913be08p-1"],
    "lognormal(0,1)": ["0x1.8059fe6660863p-4", "0x1.01013795b2f2fp-4"],
    "normal()": ["-0x1.2edfec22026c5p+1", "-0x1.6263d495cd1d9p+1"],
    "constant(1.5)": ["0x1.8000000000000p+0", "0x1.8000000000000p+0"],
    "eta_power_low(0.3,2,1.5)": ["0x1.5fea972272688p-1", "0x1.14683328d9ed3p-1"],
    "neg pareto(1,2)": ["-0x1.63bcaa1c1d2c1p+0", "-0x1.24ae03c50f35bp+0"],
    "neg lognormal(0,1)": ["-0x1.8059fe6660863p-4", "-0x1.01013795b2f2fp-4"],
}
STREAM_DRAWS = {
    "random": (lambda rng, n: rng.random(n), "01226333df08be0b"),
    "standard_normal": (lambda rng, n: rng.standard_normal(n), "e85df617e506b574"),
    "standard_exponential": (lambda rng, n: rng.standard_exponential(n), "88642c6bd67e9843"),
}
LAW_VALUES = {
    "weibull(1,2)": "4a79bf60d9d1fe4a",
    "weibull(0.5,3)": "db9dbb24b2ffc45e",
    "weibull(2,0.5)": "d2997beb64c7a902",
    "pareto(1,2)": "760d1a6434c81776",
    "pareto(2,1.5)": "71f2039407032f0b",
    "edge(0,1)": "8628e21c3f755b2b",
    "edge(2,1)": "25df76e7dcc50df2",
    "edge(1,0.5)": "e3af6ebe42b4b345",
    "lognormal(0,1)": "e32bcae1f5a4c82e",
    "normal()": "0836e6eb4ce59c85",
    "constant(1.5)": "fa96f1caedf27610",
    "eta_power_low(0.3,2,1.5)": "24de51c5b7c37d1a",
    "neg pareto(1,2)": "d4208d98359d1441",
    "neg lognormal(0,1)": "daafe0f824e2d85c",
}
# The slope law's log density and support, pinned apart from its law value:
# they kept their bits when the law became the mirror of the edge law with
# constant C, while its log SF and log CDF (read by no oracle) moved, and
# when the edge law's log CDF moved again.
SLOPE_DENSITY = ("5f3297ce5554dd0d", ("0x1.3333333333333p-2", "0x1.dc23c93270c24p-1"))
ESTIMATE_PINS = {
    ("estimate_sf", "sum"): "58b8e4e406ead0a1",
    ("estimate_sf", "product"): "be8881fb398d6a60",
    ("conditional_sf", "sum"): "839caba66face41c",
    ("conditional_sf", "product"): "13f720a58c720796",
}
PATH_MEAN_PINS = {
    "pickands_estimate": "3da54b50f26d445b",
    "econst_estimate": "3a68605353ab9e25",
}
FBM_PATH_PINS = {
    0.3: "31dd122d69a5fb76",
    0.5: "0369cc94c38fc715",
    0.7: "a1cb6d7f88eb7d3e",
    1.0: "21fd78b4d243a844",
}
PATH_MEAN_PINS_130 = {
    "pickands_estimate": "b6deb8108f1bdfc7",
    "econst_estimate": "59f82e8a3c725017",
}


@pytest.mark.parametrize("name", list(LAWS))
def test_sampler_draws_keep_their_pinned_bits(name):
    assert sample_digest(name) == SAMPLES[name]


@pytest.mark.parametrize("name", list(LAWS))
def test_scalar_draws_keep_their_pinned_bits(name):
    assert scalar_draws(name) == SCALARS[name]


@pytest.mark.parametrize("name", list(STREAM_DRAWS))
def test_block_rng_draws_keep_their_pinned_bits(name):
    draw, pin = STREAM_DRAWS[name]
    assert stream_digest(draw) == pin


@pytest.mark.parametrize("name", list(LAWS))
def test_law_values_keep_their_pinned_bits(name):
    assert law_digest(name) == LAW_VALUES[name]


def test_slope_law_density_and_support_keep_their_pinned_bits():
    m = LAWS["eta_power_low(0.3,2,1.5)"]
    assert (digest(m.log_density(POINTS)), tuple(v.hex() for v in m.support)) == SLOPE_DENSITY


@pytest.mark.parametrize("workers", [1, None])
@pytest.mark.parametrize("op", list(ESTIMATES))
@pytest.mark.parametrize("estimator", ["estimate_sf", "conditional_sf"])
def test_tail_estimates_keep_their_pinned_bits(estimator, op, workers):
    assert estimate_digest(estimator, op, workers) == ESTIMATE_PINS[estimator, op]


@pytest.mark.parametrize("workers", [1, None])
@pytest.mark.parametrize("estimator", list(PATH_MEANS))
def test_path_means_keep_their_pinned_bits(estimator, workers):
    assert path_mean_digest(estimator, workers) == PATH_MEAN_PINS[estimator]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("estimator", list(PATH_MEANS))
def test_path_means_over_three_chunks_keep_their_pinned_bits(estimator, workers):
    assert path_mean_digest(estimator, workers, n_paths=130) == PATH_MEAN_PINS_130[estimator]


@pytest.mark.parametrize("H", list(FBM_PATH_PINS))
def test_fbm_paths_keep_their_pinned_bits(H):
    assert fbm_path_digest(H) == FBM_PATH_PINS[H]
