import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from scalolab.errors import NumericError
from scalolab.exponents import MemoryParams
from scalolab.hermite import expansion_from_coeffs
from scalolab.spectral import ShortRangeSpec, SpectralModel, autocov_X
from scalolab.synthesis import (
    _Embedding,
    _embedding_for,
    export_path,
    integrate_K,
    sample_gaussian,
    sample_gaussian_pair,
    sample_path,
    stream,
    transform_path,
)
from scalolab.wavelet import build_bank, wavelet_coeffs

from oracles import rosenblatt_sample


def model(d, K=0):
    return SpectralModel(MemoryParams(d, K))


def test_identical_seed_identical_path():
    m = model(0.4)
    a = sample_gaussian(m, 1024, seed=7)
    b = sample_gaussian(m, 1024, seed=7)
    c = sample_gaussian(m, 1024, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def test_seeded_draws_are_pinned():
    # both samplers draw from the one circulant embedding; these digests pin
    # the draw layout, which changes only with a version bump
    ros = {
        (0.42, 7, 1, 1024): "2f909ca4c20034d0",
        (0.3, 130, 5, 2048): "d0db70f8ffbd1cc9",
        (0.45, 1, 0, 512): "9b9d187f079b2ac5",
        (0.27, 200, 99, 256): "b641ae56c86d3ab1",
        (0.35, 64, 2**40, 4096): "e22bf1d43ee6eb94",
    }
    for (d, reps, seed, n), digest in ros.items():
        assert _sha(rosenblatt_sample(d, reps, seed, n)) == digest, (d, reps, seed, n)
    ma = ShortRangeSpec("ma", 0.1, (1.0, 0.5))
    # (real half, imaginary half): Monte Carlo replicates 2i and 2i+1
    gauss = [
        (model(0.3), 1000, 3, 5, "bd1f58d71a861742", "3753bfbf87968d84"),
        (model(0.42, K=1), 4096, 11, (1 << 32) | 7, "016316713695b580", "3f453cb13f6eb385"),
        (SpectralModel(MemoryParams(0.2, 0), ma), 2048, 0, 0, "25675d1f0de3a6cb", "8b38f8066d4240a1"),
    ]
    for m, N, seed, index, digest, imag_digest in gauss:
        assert _sha(sample_gaussian(m, N, seed, index)) == digest, (m, N, seed, index)
        xr, xi = sample_gaussian_pair(m, N, seed, index)
        assert (_sha(xr), _sha(xi)) == (digest, imag_digest), (m, N, seed, index)


def test_cached_embedding_is_read_only():
    # every later draw reads the cached square root: none may write it
    m = model(0.37)
    emb = _embedding_for(m, 1024)
    with pytest.raises(ValueError):
        emb.sqrt_eigs *= 2.0
    before = emb.sqrt_eigs.copy()
    pairs = [sample_gaussian_pair(m, 1024, 5, i) for i in range(3)]
    assert _embedding_for(m, 1024) is emb
    np.testing.assert_array_equal(emb.sqrt_eigs, before)
    for (xr, xi), (nr, ni) in zip(pairs, pairs[1:]):
        assert not np.shares_memory(xr, xi)
        assert not any(np.shares_memory(a, b) for a in (xr, xi) for b in (nr, ni))


def test_embedding_rejects_a_non_finite_correlation():
    # autocov_X stops an overflowing model first; a correlation handed in
    # directly is checked here
    with pytest.raises(NumericError, match="non-finite correlation"):
        _Embedding(np.array([1.0, math.inf, 0.5]))


def test_pair_draw_allocates_one_complex_buffer():
    # the draw's temporaries, counted in bytes: one complex buffer of M
    # points (16 M bytes) and the two real paths of N = M/2 points, with at
    # most one real normal block besides, within 32 M bytes
    m, N = model(0.3), 2**14
    M = _embedding_for(m, N).M
    sample_gaussian_pair(m, N, 1)  # warm: the embedding is cached
    tracemalloc.start()
    try:
        sample_gaussian_pair(m, N, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * M + 64 * 1024, peak


def test_sample_path_is_integrated_transform_of_its_gaussian():
    m = model(0.3, K=2)
    g = expansion_from_coeffs({2: 2.0})
    x, y = sample_path(m, g, 512, seed=4, stream_index=9)
    np.testing.assert_array_equal(x, sample_gaussian(m, 512, 4, 9))
    np.testing.assert_array_equal(y, integrate_K(g(x), 2))
    np.testing.assert_array_equal(sample_path(m, None, 512, 4, 9)[1], integrate_K(x, 2))
    np.testing.assert_array_equal(transform_path(m, g, x), y)


def test_pair_halves_are_independent_paths_with_the_target_covariance():
    # one stream's two halves: each has the model's autocovariance, and the
    # cross-covariance between them vanishes at every lag
    m = model(0.35)
    reps, N, lags = 300, 2**12, 6
    rho = autocov_X(m, lags).values[:lags]
    auto, cross = np.empty((2, reps, lags)), np.empty((2, reps, lags))
    for r in range(reps):
        xr, xi = sample_gaussian_pair(m, N, 8, r)
        for lag in range(lags):
            auto[0, r, lag] = np.mean(xr[: N - lag] * xr[lag:])
            auto[1, r, lag] = np.mean(xi[: N - lag] * xi[lag:])
            cross[0, r, lag] = np.mean(xr[: N - lag] * xi[lag:])
            cross[1, r, lag] = np.mean(xi[: N - lag] * xr[lag:])
    se = lambda a: a.std(axis=1, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(cross.mean(axis=1)) < 4.0 * se(cross))
    assert np.all(np.abs(auto.mean(axis=1) - rho) < 4.0 * se(auto))


def test_streams_are_independent_by_index():
    m = model(0.3)
    a = sample_gaussian(m, 512, seed=7, stream_index=0)
    b = sample_gaussian(m, 512, seed=7, stream_index=1)
    assert not np.array_equal(a, b)


def test_white_noise_limit():
    m = model(1e-3)
    x = sample_gaussian(m, 2**14, seed=3)
    acf1 = float(np.mean(x[:-1] * x[1:]))
    assert abs(acf1) < 3.0 / math.sqrt(len(x))


def test_marginal_variance_near_one():
    m = model(0.4)
    xs = np.array([sample_gaussian(m, 2**12, 11, r) for r in range(120)])
    assert np.mean(xs**2) == pytest.approx(1.0, abs=0.02)


def test_sample_acf_matches_target():
    d = 0.4
    m = model(d)
    reps, N = 200, 2**14
    rho = autocov_X(m, 20).values
    xs = np.array([sample_gaussian(m, N, 21, r) for r in range(reps)])
    for lag in range(1, 21):
        per_rep = np.mean(xs[:, : N - lag] * xs[:, lag:], axis=1)
        est = per_rep.mean()
        se = per_rep.std(ddof=1) / math.sqrt(reps)
        assert abs(est - rho[lag]) < 3.0 * se + 1e-4, f"lag {lag}"


# --- transform ------------------------------------------------------------------


def test_apply_identity():
    x = np.linspace(-1, 1, 33)
    np.testing.assert_array_equal(expansion_from_coeffs({1: 1.0})(x), x)


def test_apply_rank2_centered_and_variance():
    m = model(0.3)
    xs = np.array([sample_gaussian(m, 2**12, 33, r) for r in range(100)])
    e = expansion_from_coeffs({2: 2.0})
    vals = e(xs)
    se = vals.mean(axis=1).std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 3 * se
    assert np.mean(vals**2) == pytest.approx(e.parseval_mass, rel=0.1)


# --- integration ------------------------------------------------------------------


def test_integrate_identity_and_ones():
    s = np.array([3.0, -1.0, 2.0])
    np.testing.assert_array_equal(integrate_K(s, 0), s)
    np.testing.assert_array_equal(integrate_K(np.ones(4), 1), [1.0, 2.0, 3.0, 4.0])


def test_integrate_difference_roundtrip():
    rng = np.random.default_rng(5)
    s = rng.standard_normal(4096)
    back = np.diff(integrate_K(s, 2), n=2)
    np.testing.assert_allclose(back, s[2:], atol=1e-10)


def test_integration_constants_invisible_to_wavelets():
    # adding a degree-(K-1) polynomial (a different choice of integration
    # constants) leaves every wavelet coefficient unchanged when M >= K
    rng = np.random.default_rng(17)
    s = rng.standard_normal(2048)
    K = 2
    y = integrate_K(s, K)
    y_shifted = y + 3.7 + 0.25 * np.arange(len(y))
    bank = build_bank("db2", jmax=6)  # M = 2 >= K
    for j in (2, 4):
        a = wavelet_coeffs(y, bank, j)
        b = wavelet_coeffs(y_shifted, bank, j)
        np.testing.assert_allclose(a, b, atol=1e-8 * max(1.0, np.max(np.abs(y_shifted))))


def test_stationarity_of_differenced_path():
    # replicate-averaged half-sample comparison: under long memory the
    # within-path fluctuation scale decays like n^(d-1/2), so the honest
    # standard error comes from the Monte Carlo spread across paths
    reps = 40
    m = model(0.35, K=1)
    dm, dv = np.empty(reps), np.empty(reps)
    for r in range(reps):
        _, y = sample_path(m, expansion_from_coeffs({1: 1.0}), 2**13, seed=12, stream_index=r)
        dy = np.diff(y, n=1)
        h1, h2 = dy[: len(dy) // 2], dy[len(dy) // 2 :]
        dm[r] = h1.mean() - h2.mean()
        dv[r] = h1.var() - h2.var()
    assert abs(dm.mean()) < 3 * dm.std(ddof=1) / math.sqrt(reps)
    assert abs(dv.mean()) < 3 * dv.std(ddof=1) / math.sqrt(reps)


def test_export_roundtrip(tmp_path):
    m = model(0.3)
    y = sample_gaussian(m, 128, seed=9)
    p = tmp_path / "path.csv"
    export_path(y, p, sidecar={"seed": 9, "n": 128})
    lines = p.read_text().strip().splitlines()
    assert len(lines) == 128
    np.testing.assert_allclose([float(v) for v in lines], y, rtol=1e-15)
    side = json.loads((tmp_path / "path.csv.json").read_text())
    assert side["seed"] == 9


def test_export_writes_the_bytes_of_csv_writer(tmp_path):
    # more than one write chunk, with the values whose text is special
    y = np.random.default_rng(5).standard_normal(2**16 + 3) * 10.0 ** np.linspace(-300, 300, 2**16 + 3)
    y[:7] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e-300]
    export_path(y, tmp_path / "path.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        for v in y:
            wr.writerow([f"{v:.17g}"])
    assert (tmp_path / "path.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
