import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalolab.config import _MAX_MOMENTS
from scalolab.errors import FilterValidationError, ScaleTooCoarseError
from scalolab.exponents import MemoryParams
from scalolab.spectral import SpectralModel
from scalolab.synthesis import sample_gaussian, stream
from scalolab.wavelet import (
    _MOMENT_TOL,
    _ORTHO_TOL,
    _built_bank,
    _k_fold_pair,
    _moment_residual,
    _orthonormality_residual,
    build_bank,
    daubechies_scaling,
    mirror_highpass,
    n_coeffs,
    scalograms,
    wavelet_coeffs,
)

from oracles import asymptotic_transfer, cascade_taps, transfer


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
    # (a) the kept check: every g_j of db1-db4 has M vanishing moments, each
    # moment normalised by the moment of |g_j|
    for M in (1, 2, 3, 4):
        bank = build_bank(f"db{M}", jmax=8)
        for j in range(1, 9):
            taps = cascade_taps(bank, j)
            t = np.arange(len(taps), dtype=float)
            for m in range(M):
                resid = abs(np.dot(t**m, taps)) / (np.dot(t**m, np.abs(taps)) + 1.0)
                assert resid < 1e-10
    # (b) locally uniform convergence: the sup gaps of the rescaled transfer
    # moduli shrink across the last four levels
    bank, lams = build_bank("db2", jmax=8), np.linspace(-8 * math.pi, 8 * math.pi, 1024)
    cur = [np.abs(asymptotic_transfer(bank, lams, j)) for j in range(5, 9)]
    gaps = [np.max(np.abs(b - a)) for a, b in zip(cur, cur[1:])]
    assert gaps[-1] < gaps[0]
    # (c) db40's taps lose their moments in floating point, and the build says so
    with pytest.raises(FilterValidationError, match="vanishing moments"):
        build_bank("db40", 10)


@pytest.mark.parametrize("jmax", [1, 16])
def test_build_bank_verdicts_at_the_moment_cap(jmax):
    # the base pair's rounding alone decides, at every depth: db28 misses the
    # orthonormality tolerance (residual 1.09e-8), db34 and db36 the moment one
    for M in (26, 27):
        assert build_bank(f"db{M}", jmax).M == M
    with pytest.raises(FilterValidationError, match="^orthonormality: residual .* exceeds 1e-08 at order 28$"):
        build_bank("db28", jmax)
    for M in (34, 36):
        with pytest.raises(FilterValidationError, match="^vanishing moments: normalised moment residual"):
            build_bank(f"db{M}", jmax)


@pytest.mark.parametrize("M", range(1, _MAX_MOMENTS + 1))
def test_admitted_orders_pass_both_bank_checks_tenfold(M):
    # every order a configuration admits passes each check with a 10x margin,
    # so a platform whose roots round differently keeps the same verdicts
    h = daubechies_scaling(M)
    assert _moment_residual(mirror_highpass(h), M) <= _MOMENT_TOL / 10
    assert _orthonormality_residual(h) <= _ORTHO_TOL / 10


def test_orthonormality_residual_reads_every_even_shift():
    # db2's taps with the last one moved: the shift-2 product and the norm both move
    h = daubechies_scaling(2).copy()
    assert _orthonormality_residual(h) < 1e-15
    h[3] += 1e-6
    assert _orthonormality_residual(h) == pytest.approx(abs(h[0] * h[2] + h[1] * h[3]), rel=1e-6)


def test_deep_bank_holds_its_base_pair_alone():
    # the cascade taps of db27 to level 16 would hold 27 MB
    tracemalloc.start()
    try:
        bank = _built_bank.__wrapped__(27, 16)  # past the cache: a build, not a lookup
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bank.filter_length(16) == 65535 * 53 + 1
    assert peak < 2**20


def test_build_bank_rejects_unknown_family():
    with pytest.raises(FilterValidationError):
        build_bank("sym4")


def test_bank_is_built_once_and_read_only():
    # one bank per normalised (family, jmax), shared by every caller, so
    # nothing a caller does can change what the next one gets
    bank = build_bank("DB2", 8)
    assert build_bank("db2", 8) is bank
    for arr in (bank.scaling, bank.highpass):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        bank.jmax = 9


def test_haar_is_db1():
    # a bank is keyed on its moment order: both names share one bank and one limit-law memo entry
    assert build_bank("haar") is build_bank("db1")


def test_haar_transfer_zero_at_dc(bank_haar):
    for j in (1, 3, 5):
        assert abs(transfer(bank_haar, j, 0.0)[0]) < 1e-12


@pytest.mark.parametrize("family", ["haar", "db2", "db4", "db6"])
def test_transfer_matches_dense_dft_of_taps(family):
    bank = build_bank(family, jmax=8)
    lams = np.linspace(-math.pi, math.pi, 301)
    for j in range(1, 9):
        taps = cascade_taps(bank, j)
        assert len(taps) == bank.filter_length(j)
        dense = np.exp(-1j * np.outer(lams, np.arange(len(taps)))) @ taps
        np.testing.assert_allclose(transfer(bank, j, lams), dense, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(dense)))


def test_db2_second_moment_zero(bank_db2):
    for j in (1, 4, 8):
        taps = cascade_taps(bank_db2, j)
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
    w = wavelet_coeffs(np.ones(4096), bank_db2, [3])[3]
    assert np.max(np.abs(w)) < 1e-10


def test_ramp_is_annihilated_with_two_moments(bank_db2):
    series = np.arange(8192, dtype=float)
    w = wavelet_coeffs(series, bank_db2, [4])[4]
    assert np.max(np.abs(w)) < 1e-8 * np.max(np.abs(series))


def test_polynomials_below_M_annihilated(bank_db2):
    t = np.arange(2**13, dtype=float)
    series = 2.0 - 0.3 * t  # degree < M = 2
    for w in wavelet_coeffs(series, bank_db2, (2, 5)).values():
        assert np.max(np.abs(w)) < 1e-8 * np.max(np.abs(series))


def test_white_noise_coefficient_variance(bank_db2):
    rng = stream(99, 0)
    reps, N, j = 150, 2**13, 4
    taps = cascade_taps(bank_db2, j)
    expect = float(np.dot(taps, taps))  # unit-variance white input
    vals = []
    for _ in range(reps):
        w = wavelet_coeffs(rng.standard_normal(N), bank_db2, [j])[j]
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
    taps_of = {}
    for j in range(1, bank.jmax + 1):
        taps = cascade_taps(bank, j)
        if len(taps) > N // 4 or 2.0**-j * (N - bank.T + 1) - bank.T + 1 < 1:
            break
        taps_of[j] = taps
    js = list(taps_of)
    coeffs = wavelet_coeffs(y, bank, js)
    for s in scalograms(y, bank, js):
        j, w, taps = s.j, coeffs[s.j], taps_of[s.j]
        k_start = math.ceil((len(taps) - 1) / 2**j)  # smallest interior location
        assert s.n == len(w) == n_coeffs(N, bank.T, j)
        ks = k_start + np.arange(s.n)
        r = np.arange(len(taps))
        t = 2**j * ks[:, None] - r[None, :]
        assert t.min() >= 0 and t.max() < N  # every tap on observed data
        direct = y[t] @ taps
        np.testing.assert_allclose(w, direct, rtol=1e-12, atol=1e-12 * np.max(np.abs(direct)))
        assert s.sigma2 == pytest.approx(np.mean(direct**2), rel=1e-12)


def test_scale_too_coarse_for_filter_length(bank_db2):
    with pytest.raises(ScaleTooCoarseError):
        wavelet_coeffs(np.zeros(256), bank_db2, [8])
    with pytest.raises(ScaleTooCoarseError, match="outside built range"):
        bank_db2.filter_length(bank_db2.jmax + 1)


# --- scalogram ------------------------------------------------------------------


def test_scalogram_zero_series(bank_db2):
    assert scalograms(np.zeros(4096), bank_db2, [3])[0].sigma2 == 0.0


def test_scalogram_quadratic_scaling(bank_db2):
    rng = stream(8, 0)
    y = rng.standard_normal(4096)
    base = scalograms(y, bank_db2, [3])[0].sigma2
    assert scalograms(2.5 * y, bank_db2, [3])[0].sigma2 == pytest.approx(2.5**2 * base, rel=1e-12)


def test_scalogram_slope_smoke(bank_db2):
    # light slope sanity at rank one (tighter version runs in acceptance)
    d, K = 0.35, 0
    m = SpectralModel(MemoryParams(d, K))
    xs = np.array([sample_gaussian(m, 2**14, 77, r) for r in range(30)])
    slopes = []
    for x in xs:
        lvals = [math.log2(s.sigma2) for s in scalograms(x, bank_db2, (4, 5, 6, 7))]
        slopes.append(np.polyfit([4, 5, 6, 7], lvals, 1)[0])
    assert np.mean(slopes) == pytest.approx(2 * (K + d), abs=0.12)


def test_coeff_weak_stationarity_halves(bank_db2):
    d = 0.3
    m = SpectralModel(MemoryParams(d, 1))
    from scalolab.synthesis import integrate_K, sample_gaussian

    x = sample_gaussian(m, 2**14, seed=31)
    y = integrate_K(x, 1)
    w = wavelet_coeffs(y, bank_db2, [4])[4]
    h1, h2 = w[: len(w) // 2], w[len(w) // 2 :]
    v1, v2 = np.mean(h1**2), np.mean(h2**2)
    se = np.std(w**2, ddof=1) / math.sqrt(len(h1))
    assert abs(v1 - v2) < 5 * se


def _k_fold_reference(z, bank, j, K):
    """W_j of Y = Sigma^K z in long double, by direct convolution of z with
    the cascade taps of g_j divided by (1 - z)^K (K running sums, each
    dropping its last entry), at Y's interior locations k_j, k_j + 1, ..."""
    taps = cascade_taps(bank, j).astype(np.longdouble)
    for _ in range(K):
        taps = np.cumsum(taps)[:-1]
    k = 0
    for _ in range(j):
        k = (k + bank.T) // 2
    full = np.convolve(np.asarray(z, dtype=np.longdouble), taps)  # entry t is the output at Y position t
    return full[2**j * k :: 2**j][: n_coeffs(len(z), bank.T, j)]


@pytest.mark.parametrize("family, K", [("db4", 3), ("db5", 4)])
def test_k_fold_pass_matches_the_extended_precision_reference(family, K):
    # the pass on the increments Z with the K-fold filters gives Y's
    # coefficients to rounding; the pass on a float64 Y loses about
    # log10(max|Y| / |W_j|) digits (1.5e-4 of max|W| at K = 3, 0.73 at K = 4)
    bank = build_bank(family, 10)
    z = sample_gaussian(SpectralModel(MemoryParams(0.35, K)), 2**16, 0)
    pyr, sums = wavelet_coeffs(z, bank, range(3, 7), K), scalograms(z, bank, range(3, 7), K)
    for s in sums:
        ref = _k_fold_reference(z, bank, s.j, K)
        assert len(pyr[s.j]) == len(ref) == s.n
        assert np.max(np.abs(pyr[s.j] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(s.sigma2 - np.mean(ref * ref)) <= 1e-12 * np.mean(ref * ref)


def test_k_fold_filters_divide_the_bank_pair():
    # h~_K = (1 + z)^K h and (1 - z)^K g~_K = g for every K <= M; at K = 0 the bank's own taps
    P = np.polynomial.polynomial
    bank = build_bank("db5", 6)
    assert all(a is b for a, b in zip(_k_fold_pair(bank, 0), (bank.scaling, bank.highpass)))
    for K in range(1, bank.M + 1):
        h, g = _k_fold_pair(bank, K)
        np.testing.assert_allclose(h, P.polymul(bank.scaling, P.polypow([1.0, 1.0], K)), rtol=1e-14, atol=0)
        np.testing.assert_allclose(P.polymul(g, P.polypow([1.0, -1.0], K)), bank.highpass, rtol=0, atol=1e-14)


@pytest.mark.parametrize("M", range(1, _MAX_MOMENTS + 1))
def test_k_fold_filters_need_k_vanishing_moments(M):
    # the dropped entries stay below 2.5e-9 of |g|'s through K = M (db27) and
    # read at least 6.7e-7 of them at K = M + 1, g's first nonvanishing moment
    bank = build_bank(f"db{M}", 2)
    _k_fold_pair(bank, M)
    with pytest.raises(FilterValidationError, match=f"{M + 1}-fold integration needs {M + 1} vanishing moments"):
        _k_fold_pair(bank, M + 1)
