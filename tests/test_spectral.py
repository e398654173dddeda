import math

import numpy as np
import pytest

from scalolab.errors import SingularityError
from scalolab.exponents import MemoryParams
from scalolab.hermite import expansion_from_coeffs
from scalolab.spectral import (
    _autocov_exact_raw,
    SpectralModel,
    autocov_X,
    autocov_transformed,
    convolve_density,
    density_at,
    farima_gamma0,
    farima_rho,
    grid_autocov,
    spectral_grid,
)
from scalolab.synthesis import _Embedding, sample_gaussian

from oracles import _autocov_grid_raw, ma_autocov_per_lag

def model(d, K=0, ma=(1.0,)):
    return SpectralModel(MemoryParams(d, K), ma)


# --- oracle: closed-form correlation of the pure fractional model -----------


def rho_oracle(d, kmax):
    g = math.gamma
    return [g(k + d) * g(1 - d) / (g(k + 1 - d) * g(d)) for k in range(kmax + 1)]


# --- density -----------------------------------------------------------------


def test_density_at_pi():
    m = model(0.3)
    assert density_at(m, math.pi) == pytest.approx((1 / (2 * math.pi)) * 2.0**-0.6)


def test_density_even():
    m = model(0.27)
    for lam in (0.3, 1.1, 2.9):
        assert density_at(m, lam) == pytest.approx(density_at(m, -lam))


def test_density_singularity_and_domain():
    m = model(0.3)
    with pytest.raises(SingularityError):
        density_at(m, 0.0)
    with pytest.raises(ValueError):
        density_at(m, 4.0)


def test_density_origin_power_law():
    m = model(0.3)
    for lam in (1e-3, 1e-4):
        assert density_at(m, lam) * lam**0.6 == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-5)


# --- autocovariance ------------------------------------------------------------


def test_autocov_matches_farima_oracle():
    cov = autocov_X(model(0.3), 64)
    np.testing.assert_allclose(cov, rho_oracle(0.3, 64), rtol=1e-12)
    assert _autocov_exact_raw(model(0.3), 64)[0] == pytest.approx(farima_gamma0(0.3), rel=1e-12)


def test_autocov_grid_matches_exact():
    # dense-grid Fourier inversion is the independent reference for the closed form
    m = model(0.35)
    g = _autocov_grid_raw(m, 64, 2**20)
    np.testing.assert_allclose(g / g[0], autocov_X(m, 64), atol=1e-10)
    mm = SpectralModel(MemoryParams(0.3, 0), (1.0, 0.4, -0.1))
    g2 = _autocov_grid_raw(mm, 48, 2**20)
    np.testing.assert_allclose(g2 / g2[0], autocov_X(mm, 48), atol=1e-8)


@pytest.mark.parametrize("coeffs", [(1.0, 0.4), (1.0, 0.4, -0.1), (1.0, -0.5, 0.3, 0.2, -0.1)])
def test_ma_autocov_equals_the_per_lag_sum(coeffs):
    mm = model(0.3, ma=coeffs)
    assert np.array_equal(_autocov_exact_raw(mm, 4096), ma_autocov_per_lag(mm, 4096))


# every tap set that the tests draw from or check against an oracle
TAPS = [(1.0,), (2.5,), (1.0, 0.4), (1.0, 0.5), (1.0, 0.4, -0.1), (1.0, -0.4, 0.2), (1.0, 2.0, 1.0),
        (1.0, -0.5, 0.3, 0.2, -0.1)]


@pytest.mark.parametrize("taps", TAPS)
@pytest.mark.parametrize("d", [0.1, 0.3, 0.45])
def test_correlations_do_not_read_the_scale_of_the_taps(taps, d):
    # f*'s level is the taps' squared scale, and gamma(0) divides it out: a
    # power of two scales every product exactly, 1e+-100 to a few ulps of rho(0) = 1
    ref = autocov_X(model(d, ma=taps), 1024)
    for s in (2.0**300, 2.0**-300):
        assert np.array_equal(autocov_X(model(d, ma=tuple(s * t for t in taps)), 1024), ref), s
    for s in (1e100, 1e-100):
        got = autocov_X(model(d, ma=tuple(s * t for t in taps)), 1024)
        assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps, s


def test_autocov_white_limit():
    cov = autocov_X(model(1e-3), 32)
    assert np.max(np.abs(cov[1:])) < 5e-3


def test_autocov_tail_slope():
    cov = autocov_X(model(0.3), 512)
    ks = np.arange(50, 513)
    slope = np.polyfit(np.log(ks), np.log(cov[50:]), 1)[0]
    assert slope == pytest.approx(2 * 0.3 - 1, abs=0.05)


def test_autocov_positive_semidefinite():
    assert _Embedding(autocov_X(model(0.42), 256)).exact


# --- transformed covariance ------------------------------------------------------


def test_autocov_transformed_rank2():
    rho = autocov_X(model(0.35), 32)
    out = autocov_transformed(expansion_from_coeffs({2: 2.0}), rho)
    np.testing.assert_allclose(out, 2.0 * rho**2, rtol=1e-12)


def test_autocov_transformed_identity():
    rho = autocov_X(model(0.3), 32)
    out = autocov_transformed(expansion_from_coeffs({1: 1.0}), rho)
    np.testing.assert_allclose(out, rho, rtol=1e-15)


def test_autocov_transformed_variance_is_parseval_mass():
    rho = autocov_X(model(0.3), 8)
    e = expansion_from_coeffs({1: 0.7, 2: 1.1, 5: 3.0})
    out = autocov_transformed(e, rho)
    assert out[0] == pytest.approx(e.parseval_mass, rel=1e-12)


def test_autocov_transformed_monte_carlo_cross_check():
    # synthesis-side check: sample covariance of H2(X) against 2 rho^2
    d = 0.35
    m = model(d)
    xs = np.array([sample_gaussian(m, 2**12, 505, r) for r in range(500)])
    h2 = xs * xs - 1.0
    rho = autocov_X(m, 10)
    expect = 2.0 * rho**2
    for lag in range(5):
        prods = h2[:, : h2.shape[1] - lag] * h2[:, lag:]
        est = prods.mean()
        se = prods.mean(axis=1).std(ddof=1) / math.sqrt(len(prods))
        assert abs(est - expect[lag]) < 4 * se + 1e-3


# --- grid duality -----------------------------------------------------------------


def test_grid_duality_self_consistent():
    m = model(0.3)
    lams, vals, dlam = spectral_grid(m, 2**18)
    gam1 = grid_autocov(vals, 128)
    for q in (2, 3, 4):
        conv = convolve_density(vals, q, dlam)
        gam_q = grid_autocov(conv, 128)
        assert np.max(np.abs(gam_q - gam1**q)) < 1e-6


def test_grid_covariance_close_to_exact():
    # the dense grid reproduces the true correlation well at moderate lags
    m = model(0.3)
    lams, vals, dlam = spectral_grid(m, 2**20)
    gam = grid_autocov(vals, 64)
    rho_grid = gam / gam[0]
    np.testing.assert_allclose(rho_grid, rho_oracle(0.3, 64), atol=5e-3)
