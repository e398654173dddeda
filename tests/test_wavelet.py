import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalolab.errors import FilterValidationError, ScaleTooCoarseError
from scalolab.exponents import MemoryParams
from scalolab.spectral import SpectralModel
from scalolab.synthesis import sample_gaussian, stream
from scalolab.wavelet import (
    build_bank,
    daubechies_scaling,
    mirror_highpass,
    n_coeffs,
    scalogram,
    wavelet_coeffs,
)


def test_daubechies_reference_taps():
    # db2 scaling filter admits the closed form sqrt(2)/8 * (1±sqrt(3), 3±sqrt(3))
    h = daubechies_scaling(2)
    s3 = math.sqrt(3.0)
    ref = math.sqrt(2.0) / 8.0 * np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3])
    np.testing.assert_allclose(h, ref, rtol=1e-12)


@pytest.mark.parametrize("M", [1, 2, 3, 4, 6])
def test_daubechies_orthonormal_shifts(M):
    h = daubechies_scaling(M)
    assert len(h) == 2 * M
    assert np.dot(h, h) == pytest.approx(1.0, abs=1e-12)
    for k in range(1, M):
        assert abs(np.dot(h[2 * k :], h[: len(h) - 2 * k])) < 1e-12
    assert h.sum() == pytest.approx(math.sqrt(2.0), rel=1e-14)


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_highpass_vanishing_moments(M):
    g = mirror_highpass(daubechies_scaling(M))
    t = np.arange(len(g), dtype=float)
    for m in range(M):
        assert abs(np.dot(t**m, g)) < 1e-10


def test_build_bank_validation():
    bank = build_bank("db2", jmax=8)
    v = bank.validation
    assert v.support_bound <= 2 * bank.M
    assert v.max_moment_residual < 1e-10
    assert v.envelope_alpha > 1.0
    assert len(v.limit_gaps) >= 2
    # locally uniform convergence: sup gaps shrink across consecutive levels
    assert v.limit_gaps[-1] < v.limit_gaps[0]


def test_build_bank_rejects_unknown_family():
    with pytest.raises(FilterValidationError):
        build_bank("sym4")


def test_bank_is_built_once_and_read_only():
    # one bank per normalised (family, jmax), shared by every caller, so
    # nothing a caller does can change what the next one gets
    bank = build_bank("DB2", 8)
    assert build_bank("db2", 8) is bank
    assert isinstance(bank.filters, tuple)
    for arr in (bank.taps(3), bank.taps(1), bank.scaling, bank.highpass):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        bank.jmax = 9
    with pytest.raises(dataclasses.FrozenInstanceError):
        bank.validation.envelope_alpha = 2.0
    assert isinstance(bank.validation.limit_gaps, tuple)


def test_haar_transfer_zero_at_dc(bank_haar):
    for j in (1, 3, 5):
        assert abs(bank_haar.transfer(j, 0.0)[0]) < 1e-12


@pytest.mark.parametrize("family", ["haar", "db2", "db4", "db6"])
def test_transfer_matches_dense_dft_of_taps(family):
    bank = build_bank(family, jmax=8)
    lams = np.linspace(-math.pi, math.pi, 301)
    for j in range(1, 9):
        taps = bank.taps(j)
        assert len(taps) == bank.filter_length(j)
        dense = np.exp(-1j * np.outer(lams, np.arange(len(taps)))) @ taps
        np.testing.assert_allclose(bank.transfer(j, lams), dense, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(dense)))


def test_db2_second_moment_zero(bank_db2):
    for j in (1, 4, 8):
        taps = bank_db2.taps(j)
        t = np.arange(len(taps), dtype=float)
        assert abs(np.dot(t, taps)) < 1e-10 * len(taps)


# --- coefficient counts ------------------------------------------------------


def test_n_coeffs_golden():
    assert n_coeffs(1024, 4, 3) == 124


def test_n_coeffs_degenerate():
    with pytest.raises(ScaleTooCoarseError):
        n_coeffs(4, 4, 0)
    with pytest.raises(ScaleTooCoarseError):
        n_coeffs(64, 4, 6)


def test_n_coeffs_asymptotic_count():
    N = 2**16
    for j in range(1, 9):
        nj = n_coeffs(N, 4, j)
        assert abs(nj - N * 2.0**-j) <= 8  # 2^-j N + O(1)


# --- transforms ---------------------------------------------------------------


def test_constant_is_annihilated(bank_db2):
    w = wavelet_coeffs(np.ones(4096), bank_db2, 3)
    assert np.max(np.abs(w)) < 1e-10


def test_ramp_is_annihilated_with_two_moments(bank_db2):
    series = np.arange(8192, dtype=float)
    w = wavelet_coeffs(series, bank_db2, 4)
    assert np.max(np.abs(w)) < 1e-8 * np.max(np.abs(series))


def test_polynomials_below_M_annihilated(bank_db2):
    t = np.arange(2**13, dtype=float)
    series = 2.0 - 0.3 * t  # degree < M = 2
    for j in (2, 5):
        w = wavelet_coeffs(series, bank_db2, j)
        assert np.max(np.abs(w)) < 1e-8 * np.max(np.abs(series))


def test_white_noise_coefficient_variance(bank_db2):
    rng = stream(99, 0)
    reps, N, j = 150, 2**13, 4
    taps = bank_db2.taps(j)
    expect = float(np.dot(taps, taps))  # unit-variance white input
    vals = []
    for _ in range(reps):
        w = wavelet_coeffs(rng.standard_normal(N), bank_db2, j)
        vals.append(np.mean(w**2))
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(reps))
    assert abs(est - expect) < 4 * se


_BANKS = {M: build_bank(f"db{M}", jmax=12) for M in range(1, 7)}


@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 6), N=st.integers(64, 20_000), seed=st.integers(0, 2**32 - 1))
def test_wavelet_coeffs_matches_direct_convolution(M, N, seed):
    # W_{j,k} = sum_r g_j[r] Y_{2^j k - r} over the cascade taps, at every
    # scale the series supports, against the one-pass pyramid
    bank = _BANKS[M]
    y = np.random.default_rng(seed).standard_normal(N)
    for j in range(1, bank.jmax + 1):
        taps = bank.taps(j)
        if len(taps) > N // 4 or 2.0**-j * (N - bank.T + 1) - bank.T + 1 < 1:
            break
        w = wavelet_coeffs(y, bank, j)
        s = scalogram(y, bank, j)
        assert s.k_start == math.ceil((len(taps) - 1) / 2**j)
        assert s.n == len(w) == n_coeffs(N, bank.T, j)
        ks = s.k_start + np.arange(s.n)
        r = np.arange(len(taps))
        t = 2**j * ks[:, None] - r[None, :]
        assert t.min() >= 0 and t.max() < N  # every tap on observed data
        direct = y[t] @ taps
        np.testing.assert_allclose(w, direct, rtol=1e-12, atol=1e-12 * np.max(np.abs(direct)))
        assert s.sigma2 == pytest.approx(np.mean(direct**2), rel=1e-12)


def test_scale_too_coarse_for_filter_length(bank_db2):
    with pytest.raises(ScaleTooCoarseError):
        wavelet_coeffs(np.zeros(256), bank_db2, 8)


# --- scalogram ------------------------------------------------------------------


def test_scalogram_zero_series(bank_db2):
    assert scalogram(np.zeros(4096), bank_db2, 3).sigma2 == 0.0


def test_scalogram_quadratic_scaling(bank_db2):
    rng = stream(8, 0)
    y = rng.standard_normal(4096)
    base = scalogram(y, bank_db2, 3).sigma2
    assert scalogram(2.5 * y, bank_db2, 3).sigma2 == pytest.approx(2.5**2 * base, rel=1e-12)


def test_scalogram_slope_smoke(bank_db2):
    # light slope sanity at rank one (tighter version runs in acceptance)
    d, K = 0.35, 0
    m = SpectralModel(MemoryParams(d, K))
    xs = np.array([sample_gaussian(m, 2**14, 77, r) for r in range(30)])
    slopes = []
    for x in xs:
        lvals = [math.log2(scalogram(x, bank_db2, j).sigma2) for j in (4, 5, 6, 7)]
        slopes.append(np.polyfit([4, 5, 6, 7], lvals, 1)[0])
    assert np.mean(slopes) == pytest.approx(2 * (K + d), abs=0.12)


def test_coeff_weak_stationarity_halves(bank_db2):
    d = 0.3
    m = SpectralModel(MemoryParams(d, 1))
    from scalolab.synthesis import integrate_K, sample_gaussian

    x = sample_gaussian(m, 2**14, seed=31)
    y = integrate_K(x, 1)
    w = wavelet_coeffs(y, bank_db2, 4)
    h1, h2 = w[: len(w) // 2], w[len(w) // 2 :]
    v1, v2 = np.mean(h1**2), np.mean(h2**2)
    se = np.std(w**2, ddof=1) / math.sqrt(len(h1))
    assert abs(v1 - v2) < 5 * se
