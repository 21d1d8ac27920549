"""Fractional Brownian paths: exact covariance, self-similarity, dumps."""

import math

import numpy as np
import pytest
from scipy import stats

from tailward.errors import EmbeddingFailure, SpecError
from tailward.gp_extremes import fbm as fbm_module
from tailward.gp_extremes import (
    fbm_path,
    paths_to_csv,
    read_paths_binary,
    write_paths_binary,
)
from tailward.montecarlo import block_rng


def _paths(H, n_steps, T, n_paths, seed=0):
    return np.array(
        [fbm_path(H, n_steps, T, block_rng(seed, i)) for i in range(n_paths)]
    )


def test_brownian_case_has_iid_increments():
    paths = _paths(0.5, 256, 1.0, 4000)
    inc = np.diff(paths, axis=1) * math.sqrt(256)
    corr = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
    assert abs(inc.mean()) < 0.01
    assert inc.var() == pytest.approx(1.0, abs=0.01)
    assert abs(corr) < 0.05


def test_brownian_covariance_is_min():
    paths = _paths(0.5, 256, 1.0, 10 ** 4, seed=3)
    prod = paths[:, 64] * paths[:, 192]  # B(0.25) * B(0.75)
    se = prod.std(ddof=1) / math.sqrt(len(prod))
    assert abs(prod.mean() - 0.25) <= 3 * se


def test_rough_path_covariance():
    # H=0.75: E B(0.5) B(1) = (0.5^1.5 + 1 - 0.5^1.5)/2 = 0.5.
    paths = _paths(0.75, 256, 1.0, 10 ** 4, seed=4)
    prod = paths[:, 128] * paths[:, 256]
    se = prod.std(ddof=1) / math.sqrt(len(prod))
    assert abs(prod.mean() - 0.5) <= 3 * se


def test_variance_scales_with_hurst_power():
    for H in (0.3, 0.6, 0.9):
        paths = _paths(H, 128, 2.0, 6000, seed=5)
        end_var = paths[:, -1].var(ddof=1)
        assert end_var == pytest.approx(2.0 ** (2 * H), rel=0.1)


def test_self_similarity_by_two_sample_ks():
    # Rescaled horizon-aT paths agree in law with horizon-T paths at t=T.
    H, a, T = 0.7, 4.0, 1.0
    end_scaled = _paths(H, 128, a * T, 4000, seed=6)[:, -1] * a ** -H
    end_base = _paths(H, 128, T, 4000, seed=7)[:, -1]
    res = stats.ks_2samp(end_scaled, end_base)
    assert res.pvalue > 0.01


def test_degenerate_hurst_one_is_linear():
    path = fbm_path(1.0, 32, 2.0, block_rng(0, 0))
    t = np.linspace(0, 2.0, 33)
    slope = path[-1] / 2.0
    assert np.allclose(path, slope * t)


def test_power_of_two_required_for_circulant():
    with pytest.raises(SpecError):
        fbm_path(0.7, 100, 1.0, block_rng(0, 0))
    with pytest.raises(SpecError):
        fbm_path(0.7, 0, 1.0, block_rng(0, 0))
    # H = 1 needs no circulant, but still at least one step.
    assert len(fbm_path(1.0, 3, 1.0, block_rng(0, 0))) == 4
    for n_steps in (0, -2):
        with pytest.raises(SpecError):
            fbm_path(1.0, n_steps, 1.0, block_rng(0, 0))


def test_seeded_path_reproduces():
    a = fbm_path(0.6, 64, 1.0, block_rng(9, 0))
    b = fbm_path(0.6, 64, 1.0, block_rng(9, 0))
    c = fbm_path(0.6, 64, 1.0, block_rng(10, 0))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_reused_workspace_paths_equal_fresh_paths():
    # One workspace for every call, as an estimator's chunk of paths uses
    # it; (H, n_steps) change from call to call and leave stale data behind.
    work = np.full(4 * 256 + 2, np.nan)
    cases = [(H, n) for n in (256, 16, 128, 2) for H in (0.3, 0.5, 0.7, 1.0)]
    for k, (H, n) in enumerate(cases):
        fresh = fbm_path(H, n, 1.5, block_rng(3, k))
        path = fbm_path(H, n, 1.5, block_rng(3, k), work=work)
        assert np.shares_memory(path, work) and path.shape == fresh.shape
        assert np.array_equal(path, fresh)


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7, 1.0])
def test_a_workspace_that_cannot_hold_the_path_is_refused(H):
    # A 10-float workspace once gave a 10-point Brownian path for 64 steps,
    # and an IndexError or ValueError at the other H.
    n = 64
    buf = np.empty(2 * (4 * n + 2))
    for work in (np.empty(10), np.empty(4 * n + 1), np.empty(4 * n + 2, dtype=np.float32),
                 buf[::2], np.empty((2, 2 * n + 1)), list(np.empty(4 * n + 2))):
        with pytest.raises(SpecError, match="work must be a writable C-contiguous"):
            fbm_path(H, n, 1.0, block_rng(0, 0), work=work)
    frozen = np.empty(4 * n + 2)
    frozen.flags.writeable = False
    with pytest.raises(SpecError, match="work must be a writable C-contiguous"):
        fbm_path(H, n, 1.0, block_rng(0, 0), work=frozen)
    # A longer buffer is fine: the path is its head.
    path = fbm_path(H, n, 1.0, block_rng(0, 0), work=np.empty(4 * n + 9))
    assert np.array_equal(path, fbm_path(H, n, 1.0, block_rng(0, 0)))


def test_binary_dump_round_trip(tmp_path):
    paths = _paths(0.6, 32, 1.5, 3)
    out = tmp_path / "paths.fbm"
    write_paths_binary(out, 0.6, 1.5, paths)
    header = out.read_bytes()[:4]
    assert header == b"FBM1"
    H, T, back = read_paths_binary(out)
    assert H == 0.6 and T == 1.5
    assert np.array_equal(back, paths)


def test_csv_dump_shape():
    paths = _paths(0.5, 8, 1.0, 2)
    text = paths_to_csv(0.5, 1.0, paths)
    lines = text.strip().splitlines()
    assert lines[0] == "t,path0,path1"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


# Complex-FFT circulant generator kept as the reference stream: the full
# 2n-point Hermitian vector from the same 2n normals, in the same order.
def _reference_fgn_unit(H, n, rng):
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * (np.abs(k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))
    c = np.concatenate([gamma[:n], gamma[n:n + 1], gamma[n - 1:0:-1]])
    sqrt_lam = np.sqrt(np.maximum(np.fft.fft(c).real, 0.0))
    m = 2 * n
    z_edge = rng.standard_normal(2)
    z_mid = rng.standard_normal((n - 1, 2))
    w = np.zeros(m, dtype=complex)
    w[0] = sqrt_lam[0] * z_edge[0] / math.sqrt(m)
    w[n] = sqrt_lam[n] * z_edge[1] / math.sqrt(m)
    interior = sqrt_lam[1:n] * (z_mid[:, 0] + 1j * z_mid[:, 1]) / math.sqrt(2 * m)
    w[1:n] = interior
    w[n + 1:] = np.conj(interior[::-1])
    return np.fft.fft(w).real[:n]


def _reference_path(H, n_steps, T, rng):
    fgn = _reference_fgn_unit(H, n_steps, rng) * (T / n_steps) ** H
    return np.concatenate([[0.0], np.cumsum(fgn)])


@pytest.mark.parametrize("H", [0.01, 0.05, 0.3, 0.7, 0.95, 0.99])
@pytest.mark.parametrize("n_steps", [1 << 4, 1 << 10, 1 << 14, 1 << 16])
def test_generator_keeps_the_reference_stream(H, n_steps):
    # The reference sums its noise; fbm_path sums it in the transform.  At
    # H = 0.01 and 2^16 steps y_J and y_0 are O(sqrt n) while the path, their
    # difference, is O(1): the most digits cancel there.
    for seed in range(5):
        ref = _reference_path(H, n_steps, 2.0, block_rng(seed, 3))
        path = fbm_path(H, n_steps, 2.0, block_rng(seed, 3))
        assert np.max(np.abs(path - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("H", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0])
def test_autocovariance_from_one_power_table_keeps_the_three_power_bits(H):
    for n in (1, 2, 16, 1024, 1 << 14, 1 << 15):
        k = np.arange(n + 1, dtype=float)
        ref = 0.5 * ((k + 1) ** (2 * H) - 2 * k ** (2 * H) + np.abs(k - 1) ** (2 * H))
        assert fbm_module._fgn_autocov(H, n).tobytes() == ref.tobytes(), n


def test_circulant_spectrum_nonnegative_on_hurst_grid():
    # Worst min/max eigenvalue ratio here is about -6.4e-10 (H = 0.9999,
    # n = 2^16), well above the -1e-8 round-off floor: no EmbeddingFailure.
    spectrum = fbm_module._circulant_sqrt_spectrum
    hursts = [k / 100 for k in range(1, 100)] + [0.999, 0.9999]
    for H in hursts:
        for k in range(1, 17):
            assert np.all(spectrum(H, 1 << k) >= 0.0)


def test_cached_spectrum_is_read_only():
    # The worker threads share this table.
    table = fbm_module._summing_spectrum(0.3, 64)
    assert table.shape == (65,) and table.dtype == complex
    scale = fbm_module._circulant_sqrt_spectrum(0.3, 64)
    direct = scale[1:] / (np.exp(1j * np.pi * np.arange(1, 65) / 64) - 1.0)
    assert table[0] == scale[0] and table[64].imag == 0.0
    assert np.allclose(table[1:], direct, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        table[0] = 1.0


def test_negative_spectrum_raises_embedding_failure(monkeypatch):
    # Autocovariance 1 at lag 1 only: circulant eigenvalues 2cos(pi k/n).
    monkeypatch.setattr(fbm_module, "_fgn_autocov", lambda H, n: np.eye(1, n + 1, 1)[0])
    with pytest.raises(EmbeddingFailure):
        fbm_path(0.123, 64, 1.0, block_rng(0, 0))
