import math

import numpy as np
import pytest

from scalolab.errors import SingularityError
from scalolab.exponents import MemoryParams, delta
from scalolab.hermite import expansion_from_coeffs
from scalolab.spectral import (
    GeneralizedDensity,
    ShortRangeSpec,
    SpectralModel,
    autocov_X,
    autocov_transformed,
    convolve_density,
    density_at,
    farima_gamma0,
    farima_rho,
    generalized_density,
    grid_autocov,
    holder_fit,
    spectral_grid,
)
from scalolab.synthesis import _Embedding, sample_gaussian

FLAT = ShortRangeSpec("constant", 1.0 / (2.0 * math.pi))


def model(d, K=0, sr=FLAT):
    return SpectralModel(MemoryParams(d, K), sr)


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
        assert density_at(m, lam) * lam**0.6 == pytest.approx(m.f_star_at_zero(), rel=1e-5)


# --- autocovariance ------------------------------------------------------------


def test_autocov_matches_farima_oracle():
    cov = autocov_X(model(0.3), 64)
    np.testing.assert_allclose(cov.values, rho_oracle(0.3, 64), rtol=1e-12)
    assert cov.variance == pytest.approx(farima_gamma0(0.3), rel=1e-12)


def test_autocov_grid_matches_exact():
    m = model(0.35)
    e = autocov_X(m, 64, method="exact")
    g = autocov_X(m, 64, method="grid")
    np.testing.assert_allclose(g.values, e.values, atol=1e-10)
    mm = SpectralModel(MemoryParams(0.3, 0), ShortRangeSpec("ma", 0.2, (1.0, 0.4, -0.1)))
    e2 = autocov_X(mm, 48, method="exact")
    g2 = autocov_X(mm, 48, method="grid")
    np.testing.assert_allclose(g2.values, e2.values, atol=1e-8)


def test_autocov_white_limit():
    cov = autocov_X(model(1e-3), 32)
    assert np.max(np.abs(cov.values[1:])) < 5e-3


def test_autocov_tail_slope():
    cov = autocov_X(model(0.3), 512)
    ks = np.arange(50, 513)
    slope = np.polyfit(np.log(ks), np.log(cov.values[50:]), 1)[0]
    assert slope == pytest.approx(2 * 0.3 - 1, abs=0.05)


def test_autocov_positive_semidefinite():
    assert _Embedding(autocov_X(model(0.42), 256).values).exact


# --- transformed covariance ------------------------------------------------------


def test_autocov_transformed_rank2():
    rho = autocov_X(model(0.35), 32)
    out = autocov_transformed(expansion_from_coeffs({2: 2.0}), rho)
    np.testing.assert_allclose(out.values, 2.0 * rho.values**2, rtol=1e-12)


def test_autocov_transformed_identity():
    rho = autocov_X(model(0.3), 32)
    out = autocov_transformed(expansion_from_coeffs({1: 1.0}), rho)
    np.testing.assert_allclose(out.values, rho.values, rtol=1e-15)


def test_autocov_transformed_variance_is_parseval_mass():
    rho = autocov_X(model(0.3), 8)
    e = expansion_from_coeffs({1: 0.7, 2: 1.1, 5: 3.0})
    out = autocov_transformed(e, rho)
    assert out.values[0] == pytest.approx(e.parseval_mass, rel=1e-12)


def test_generalized_density_even_and_nonnegative():
    # includes a short-memory remainder so the lag-window path is exercised
    gd = GeneralizedDensity(
        expansion_from_coeffs({1: 1.0, 3: 1.0, 5: 0.5}), model(0.3), size=2**16
    )
    lams, vals = gd.grid()
    assert vals.min() > -1e-12 * vals.max()
    pos = lams > 0
    mirrored = np.interp(-lams[pos][::-1], lams, vals)
    np.testing.assert_allclose(mirrored, vals[pos][::-1], rtol=1e-8, atol=1e-12)


def test_autocov_transformed_monte_carlo_cross_check():
    # synthesis-side check: sample covariance of H2(X) against 2 rho^2
    d = 0.35
    m = model(d)
    xs = np.array([sample_gaussian(m, 2**12, 505, r) for r in range(500)])
    h2 = xs * xs - 1.0
    rho = autocov_X(m, 10)
    expect = 2.0 * rho.values**2
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


# --- generalized density ----------------------------------------------------------


def test_generalized_density_rank_one_is_scaled_input():
    m = model(0.3)
    gd = GeneralizedDensity(expansion_from_coeffs({1: 2.0}), m, size=2**18)
    for lam in (0.4, 1.0, 2.5):
        assert gd.at(lam) == pytest.approx(4.0 * density_at(m, lam), rel=1e-6)
    assert gd.f_star_at_zero == pytest.approx(4.0 * m.f_star_at_zero(), rel=1e-12)


def test_generalized_density_memory_slope():
    d, K = 0.3, 1
    gd = GeneralizedDensity(expansion_from_coeffs({1: 1.0, 3: 1.0}), model(d, K), size=2**18)
    ls = np.geomspace(1e-3, 1e-2, 9)
    slope = np.polyfit(np.log(ls), np.log(gd.at(ls)), 1)[0]
    assert slope == pytest.approx(-2 * (K + delta(1, d)), abs=0.02)


def test_generalized_density_rank_two_level():
    d = 0.4
    gd = GeneralizedDensity(expansion_from_coeffs({2: 2.0}), model(d), size=2**18)
    # f_{G,K}(lam) |lam|^{2 d0} stays near the short-range level at the origin
    for lam in (1e-2, 1e-3):
        val = gd.at(lam) * abs(2 * math.sin(lam / 2)) ** (2 * delta(2, d))
        assert val == pytest.approx(gd.f_star_at_zero, rel=0.1)


def test_generalized_density_holder_bounded():
    d = 0.3
    gd = GeneralizedDensity(expansion_from_coeffs({1: 1.0, 3: 2.0}), model(d), size=2**18)
    from scalolab.exponents import zeta_exponent

    zeta = zeta_exponent(2.0, d, 1, 3)
    c_all, c_inner = holder_fit(gd, zeta)
    assert math.isfinite(c_all) and c_all > 0
    assert c_inner <= 2.0 * c_all  # no blow-up toward the origin


def test_generalized_density_rejects_origin_and_caches():
    m = model(0.3)
    e = expansion_from_coeffs({1: 1.0})
    with pytest.raises(SingularityError):
        GeneralizedDensity(e, m, size=2**16).at(0.0)
    v1, f1 = generalized_density(e, m, 0.7, size=2**16)
    v2, f2 = generalized_density(e, m, 0.7, size=2**16)
    assert v1 == v2 and f1 == f2


def test_generalized_density_csv_export(tmp_path):
    m = model(0.3)
    gd = GeneralizedDensity(expansion_from_coeffs({1: 1.0}), m, size=2**16)
    out = tmp_path / "dens.csv"
    gd.to_csv(out, stride=1024)
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "lambda,density"
    assert len(rows) > 10
    lam, val = map(float, rows[5].split(","))
    assert val == pytest.approx(gd.at(lam), rel=1e-6)
