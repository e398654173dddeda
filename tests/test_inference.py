import json
import math
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from scalolab import inference
from scalolab.config import parse_config
from scalolab.errors import (
    BoundaryValueError,
    DegenerateScalogramError,
    InvalidTargetError,
)
from scalolab.exponents import MemoryParams, delta
from scalolab.harness import run
from scalolab.hermite import expansion_from_coeffs
from scalolab.inference import (
    _lp_integral,
    calibrate_test,
    d0_from_scalograms,
    estimate_d0,
    invert_target,
    limit_constants,
    regression_weights,
    rosenblatt_quantile,
    run_test,
)
from scalolab.spectral import SpectralModel
from scalolab.synthesis import sample_gaussian, stream
from scalolab.wavelet import build_bank

from oracles import asymptotic_transfer, level_rfft, rosenblatt_sample

LOG2 = math.log(2.0)


def model(d, K=0):
    return SpectralModel(MemoryParams(d, K))


# --- weights -------------------------------------------------------------------


def test_weights_two_point():
    w = regression_weights(1)
    np.testing.assert_allclose(w, [-1 / (2 * LOG2), 1 / (2 * LOG2)], rtol=1e-14)


def test_weights_three_point():
    w = regression_weights(2)
    np.testing.assert_allclose(w, np.array([-1.0, 0.0, 1.0]) / (4 * LOG2), rtol=1e-14)


@given(st.integers(1, 10))
def test_weight_identities(p):
    w = regression_weights(p)
    assert abs(w.sum()) < 1e-12
    assert abs(np.dot(np.arange(p + 1), w) - 1 / (2 * LOG2)) < 1e-12


# --- estimator -----------------------------------------------------------------


def test_exact_self_similar_injection():
    a = 0.61803
    fake = [5.5 * 2.0 ** (2 * a * j) for j in range(2, 9)]
    assert d0_from_scalograms(fake) == pytest.approx(a, abs=1e-10)


def test_degenerate_scalogram_error():
    with pytest.raises(DegenerateScalogramError):
        d0_from_scalograms([1.0, 0.0, 2.0])


def test_estimator_scale_invariance(bank_db2):
    rng = stream(40, 0)
    y = np.cumsum(rng.standard_normal(2**13))
    a = estimate_d0(y, bank_db2, 3, 3).d0_hat
    b = estimate_d0(123.456 * y, bank_db2, 3, 3).d0_hat
    assert a == pytest.approx(b, abs=1e-12)


def test_estimator_moment_precondition(bank_db2):
    y = np.zeros(2**12) + stream(1, 1).standard_normal(2**12)
    with pytest.raises(ValueError, match="vanishing moments"):
        estimate_d0(y, bank_db2, 3, 2, params=MemoryParams(0.3, 2), q0=1)


def test_estimator_mean_with_integration(bank_db2):
    # K = 1, rank one: memory parameter K + d = 1.3
    d, K = 0.3, 1
    m = model(d, K)
    reps = 60
    vals = []
    for r in range(reps):
        x = sample_gaussian(m, 2**15, seed=606, stream_index=r)
        from scalolab.synthesis import integrate_K

        rep = estimate_d0(integrate_K(x, K), bank_db2, 4, 4,
                          params=m.params, q0=1, zeta=2.0)
        vals.append(rep.d0_hat)
    assert np.mean(vals) == pytest.approx(1.3, abs=0.05)
    assert rep.rate_stat == pytest.approx((2**15 * 2.0**-8) ** -(0.5 - d))
    assert rep.rate_bias == pytest.approx(2.0 ** (-2.0 * 4))


# --- limit constants: rank one ---------------------------------------------------


def brute_var_q0(bank, d, K, S=256, P=64, J=9):
    """Independent evaluation of Var(Q_0): modulus-only integrals computed
    straight from the deep-scale taps, no shared code with the fast path."""
    lam = -math.pi + (np.arange(S) + 0.5) * (2 * math.pi / S)
    xs = lam[None, :] + 2 * math.pi * np.arange(-P, P + 1)[:, None]
    g = asymptotic_transfer(bank, xs.ravel(), j=J).reshape(xs.shape)
    dsum = np.sum(np.abs(xs) ** (-2 * (d + K)) * np.abs(g) ** 2, axis=0)
    integral = float(np.sum(dsum**2)) * (2 * math.pi / S)
    # L1 on a fine half-line grid
    u = np.linspace(1e-4, 64 * math.pi, 120_000)
    gu = asymptotic_transfer(bank, u, j=J)
    L1 = 2.0 * float(np.trapezoid(np.abs(gu) ** 2 * u ** (-2 * (d + K)), u))
    return 4 * math.pi / L1**2 * integral


def test_cov_q_diagonal_matches_brute_force(bank_db2):
    d, K, p = 0.3, 0, 3
    law = limit_constants(bank_db2, MemoryParams(d, K), 1, p)
    brute = brute_var_q0(bank_db2, d, K)
    assert law.cov_Q[0, 0] == pytest.approx(brute, rel=0.02)
    # diagonal halves per offset
    diag = np.diag(law.cov_Q)
    for u in range(p):
        assert diag[u + 1] == pytest.approx(diag[u] / 2.0, rel=1e-9)
    assert law.sigma_d0 > 0
    assert law.u_N_exponent == 0.5
    # symmetric positive semidefinite
    np.testing.assert_allclose(law.cov_Q, law.cov_Q.T, rtol=1e-12)
    assert np.linalg.eigvalsh(law.cov_Q).min() > -1e-10
    # one tail change per offset, a relative change
    tails = law.provenance["tail_change"]
    assert len(tails) == p + 1
    assert all(0.0 <= t < 1.0 for t in tails)


@pytest.mark.parametrize("jmax, p", [(8, 3), (7, 6)])
def test_cov_q_matches_shell_and_phase_sum_over_trusted_zone(jmax, p):
    # cov_Q[0, m] holds the offset-m integral
    # sum_v int_0^{2 pi} |sum_l phi(x) e^{-i 2^-m v x}|^2 dlam, x = lam + 2 pi l,
    # phi(x) = |x|^{-2d} g_inf(x) conj(g_inf(2^-m x)); here it is summed shell by
    # shell and phase by phase at the midpoints x = pi k / S, odd |k| < F/4, with
    # the shape from the product-formula oracle at levels J and J - m.  At
    # jmax 7 the deepest offsets span more residues than the zone holds samples
    bank, d = build_bank("db2", jmax), 0.3
    law = limit_constants(bank, MemoryParams(d, 0), 1, p)
    S, J = law.provenance["S"], law.provenance["J"]
    shells = 2**J // 4  # F/4 = 2 S * shells
    lam = math.pi / S * (2 * np.arange(S) + 1)
    xs = lam[None, :] + 2 * math.pi * np.arange(-shells, shells)[:, None]
    g0 = asymptotic_transfer(bank, xs.ravel(), j=J).reshape(xs.shape)
    for m in range(p + 1):
        gm = asymptotic_transfer(bank, 2.0**-m * xs.ravel(), j=J - m).reshape(xs.shape)
        phi = np.abs(xs) ** (-2 * d) * g0 * np.conj(gm)
        brute = sum(float(np.sum(np.abs(np.sum(phi * np.exp(-1j * 2.0**-m * v * xs), axis=0)) ** 2))
                    for v in range(2**m)) * (2 * math.pi / S)
        got = law.cov_Q[0, m] * law.L_values["L1"] ** 2 / (4 * math.pi * 2.0 ** ((2 * d - 2) * m))
        assert got == pytest.approx(brute, rel=1e-10)


@pytest.mark.parametrize("family, jmax, p",
                         [("db2", 8, 3), ("db3", 10, 4), ("db2", 7, 6), ("db2", 8, 6), ("db2", 9, 0)])
def test_limit_shape_cascade_matches_per_level_rfft(family, jmax, p):
    # the shape cascades the level-1 transfer down to J; each level it keeps,
    # J - p to J, matches that level's own rfft.  db2 jmax 7 p 6 reads level 1
    # itself, jmax 8 p 6 starts the reduced set at level 2 and p 0 keeps only J
    bank = build_bank(family, jmax)
    shape = inference._LimitShape(bank, p)
    n = shape.trusted_rmax
    for m in range(p + 1):
        ref = level_rfft(bank, shape.J - m, shape.F)
        tol = 1e-12 * np.abs(ref).max()
        if m == 0:
            np.testing.assert_allclose(shape.g0, ref, rtol=0, atol=tol)
        np.testing.assert_allclose(shape.odd[m], ref[1:n:2], rtol=0, atol=tol)
    with pytest.raises(ValueError, match="bank too shallow"):
        inference._LimitShape(bank, shape.J)


def test_rank_one_limit_constants_memory():
    # the shape is held on the trusted zone only, one offset level at a time;
    # full-period level arrays would peak at 176 MiB here
    bank = build_bank("db2", 10)
    inference._limit_law.cache_clear()
    tracemalloc.start()
    try:
        limit_constants(bank, MemoryParams(0.35, 0), 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_rank_two_limit_constants_memory():
    bank = build_bank("db2", 10)
    inference._limit_law.cache_clear()
    tracemalloc.start()
    try:
        limit_constants(bank, MemoryParams(0.42, 0), 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("q0, d", [(1, 0.35), (2, 0.42)])
def test_limit_law_runs_no_fft(monkeypatch, q0, d):
    def banned(*args, **kwargs):
        raise AssertionError("the limit law ran an FFT")

    for name in ("rfft", "fft"):
        monkeypatch.setattr(inference.np.fft, name, banned)
    inference._limit_law.cache_clear()
    law = limit_constants(build_bank("db2", 8), MemoryParams(d, 0), q0, 3)
    assert law.kind == ("gaussian" if q0 == 1 else "rosenblatt")


def test_limit_cache_keyed_on_bank_contents():
    # two builds with the same family and depth are the same bank, so the
    # second call is a cache hit rather than a recomputation
    first, second = build_bank("db2", 8), build_bank("db2", 8)
    law = limit_constants(first, MemoryParams(0.3, 0), 1, 1)
    assert limit_constants(second, MemoryParams(0.3, 0), 1, 1) is law
    # a bank built by hand with the same (family, jmax) but other taps is
    # another bank: it gets its own law, whose L1 sees the doubled taps
    other = replace(first, filters=tuple(2.0 * t for t in first.filters))
    other_law = limit_constants(other, MemoryParams(0.3, 0), 1, 1)
    assert other_law is not law
    assert other_law.L_values["L1"] == pytest.approx(4.0 * law.L_values["L1"], rel=1e-12)


def test_cached_limit_law_is_read_only():
    # the law is the memo's own object: a caller cannot change it for the next
    law = limit_constants(build_bank("db2", 8), MemoryParams(0.3, 0), 1, 2)
    with pytest.raises(ValueError):
        law.cov_Q[0, 0] = 0.0
    with pytest.raises(FrozenInstanceError):
        law.sigma_d0 = 0.0
    assert isinstance(law.provenance["tail_change"], tuple)


# --- limit constants: rank two ----------------------------------------------------


class _TableShape:
    """Stub limit shape carrying an explicit |g|^2 table (test injection)."""

    def __init__(self, xs, ys):
        self._xs, self._ys = xs, ys
        self.S = 1024
        self.F = 2**22
        self.trusted_rmax = self.F // 4

    def abs2_grid(self, rmax):
        return self._xs, self._ys


def _annulus_shape(a0, b, npts=400_001):
    # indicator of a0 <= |x| <= b: bounded integrand, so the plain Riemann
    # table is exact up to discretisation (the true limit shapes vanish at 0,
    # which is what the production quadrature relies on)
    xs = np.linspace(0.0, 4 * b, npts)
    ys = ((xs >= a0) & (xs <= b)).astype(float)
    return _TableShape(xs, ys)


def _convolution_kernel_constant(d: float) -> float:
    """C_B(d) = int |v|^{-2d} |1-v|^{-2d} dv, orthant by orthant in Beta form,
    sanity-checked by direct quadrature of the central piece."""
    from scipy.special import beta

    cb = beta(1 - 2 * d, 1 - 2 * d) + 2 * beta(1 - 2 * d, 4 * d - 1)
    central = integrate.quad(
        lambda v: abs(v) ** (-2 * d) * abs(1 - v) ** (-2 * d),
        -1.0, 2.0, points=[0.0, 1.0], limit=400,
    )[0]
    assert central < cb  # the Beta form includes the tails the quad omits
    return cb


def _third_riesz_constant(d: float) -> float:
    """C_3(d) = C_B(d) * int |u|^{2a-1} |1-u|^{a-1} du with a = 1 - 2d, by
    quadrature: algebraic weights take the singularities at 0 and 1."""
    a = 1 - 2 * d

    def f(u):
        return abs(u) ** (2 * a - 1) * abs(1 - u) ** (a - 1)

    pieces = (
        integrate.quad(lambda u: (1 - u) ** (a - 1), -1, 0, weight="alg", wvar=(0, 2 * a - 1)),
        integrate.quad(lambda u: 1.0, 0, 1, weight="alg", wvar=(2 * a - 1, a - 1)),
        integrate.quad(lambda u: u ** (2 * a - 1), 1, 2, weight="alg", wvar=(a - 1, 0)),
        integrate.quad(f, -math.inf, -1, epsabs=0, epsrel=1e-12, limit=200),
        integrate.quad(f, 2, math.inf, epsabs=0, epsrel=1e-12, limit=200),
    )
    return _convolution_kernel_constant(d) * sum(v for v, _ in pieces)


def test_lp_box_indicator_matches_analytic():
    d = 0.4
    a0, b = 0.05, 3.0
    shape = _annulus_shape(a0, b)
    one = 1 - 2 * d
    # p = 1: integral of |u|^{-2d} over a0 <= |u| <= b
    assert _lp_integral(shape, 1, d, 0) == pytest.approx(2 * (b**one - a0**one) / one, rel=1e-3)
    # p = 2 collapses to C_B(d) * int_{a0<=|s|<=b} |s|^{1-4d} ds
    two = 2 - 4 * d
    expect2 = _convolution_kernel_constant(d) * 2 * (b**two - a0**two) / two
    assert _lp_integral(shape, 2, d, 0) == pytest.approx(expect2, rel=1e-3)
    # p = 3 collapses to C_3(d) * int_{a0<=|s|<=b} |s|^{2-6d} ds
    three = 3 - 6 * d
    expect3 = _third_riesz_constant(d) * 2 * (b**three - a0**three) / three
    assert _lp_integral(shape, 3, d, 0) == pytest.approx(expect3, rel=1e-3)
    # the reduction needs delta(p, d) > 0
    with pytest.raises(ValueError, match="not long-range dependent"):
        _lp_integral(shape, 3, 0.3, 0)


def test_l2_of_bank_matches_reduction_oracle(bank_db2):
    # 1-D reduction: int int |g(u+v)|^2 |u+v|^{-2K} |u|^{-2d}|v|^{-2d} du dv
    # equals C_B(d) * int |g(s)|^2 |s|^{1-4d-2K} ds
    d = 0.4
    u = np.linspace(1e-4, 128 * math.pi, 400_000)
    gu = np.abs(asymptotic_transfer(bank_db2, u, j=10)) ** 2
    for K in (0, 1):
        law = limit_constants(bank_db2, MemoryParams(d, K), 2, 1)
        expect = _convolution_kernel_constant(d) * 2.0 * float(np.trapezoid(gu * u ** (1 - 4 * d - 2 * K), u))
        assert law.L_values["L2"] == pytest.approx(expect, rel=1e-3)
        assert law.c_scale > 0
        assert law.u_N_exponent == pytest.approx(1 - 2 * d)


def test_rank_two_integrated_null_calibration(tmp_path):
    # rank 2 with one integration (d0 = 1 + delta(2, 0.42) = 1.34): the
    # rejection rate under the null stays in the criterion-10 band
    alpha, reps = 0.1, 200
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.42, "K": 1}, "g": "hermite:2",
        "bank": {"family": "db2", "jmax": 10}, "n": 2**16, "j": 5, "p": 3,
        "d0_star": 1.34, "alpha": alpha, "replicates": reps, "seed": 3, "out": str(tmp_path),
    })
    (csv_path, _) = run(cfg)
    header, row = open(csv_path).read().strip().splitlines()
    rate = float(dict(zip(header.split(","), row.split(",")))["rejection_rate"])
    assert abs(rate - alpha) <= 2 * math.sqrt(alpha * (1 - alpha) / reps) + 0.04


# --- second-chaos sampler ----------------------------------------------------------


def test_rosenblatt_domain():
    with pytest.raises(ValueError):
        rosenblatt_sample(0.2, 10, seed=1)


def test_rosenblatt_moments():
    d = 0.35
    draws = rosenblatt_sample(d, 8000, seed=12, n_internal=2**13)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean()) < 3 * se
    target = 4 * math.gamma(1 - 2 * d) ** 2 * math.sin(math.pi * d) ** 2 / (d * (4 * d - 1))
    assert draws.var() == pytest.approx(target, rel=0.15)
    assert stats.skew(draws) > 3 * math.sqrt(6.0 / len(draws))


def test_rosenblatt_stable_across_internal_lengths():
    d = 0.35
    a = rosenblatt_sample(d, 3000, seed=21, n_internal=2**13)
    b = rosenblatt_sample(d, 3000, seed=22, n_internal=2**14)
    assert stats.ks_2samp(a, b).statistic < 0.05


def test_rosenblatt_determinism():
    a = rosenblatt_sample(0.3, 64, seed=5, n_internal=2**10)
    b = rosenblatt_sample(0.3, 64, seed=5, n_internal=2**10)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("d", [0.26, 0.3, 0.35, 0.42, 0.48])
def test_rosenblatt_quantile_converges_in_kernel_cells(d, monkeypatch):
    q, prov = rosenblatt_quantile(d, 0.95)
    assert prov["m"] == inference._KERNEL_CELLS
    monkeypatch.setattr(inference, "_KERNEL_CELLS", 2 * prov["m"])
    q2, prov2 = rosenblatt_quantile(d, 0.95)
    assert prov2["m"] == 2 * prov["m"]
    assert q2 == pytest.approx(q, rel=1e-3)


@pytest.mark.parametrize("d", [0.3, 0.42])
def test_rosenblatt_cdf_is_a_distribution(d):
    law = inference._second_chaos_law(d, inference._KERNEL_CELLS)
    y = np.linspace(-5 * law.sd, 30 * law.sd, 3001)
    F = law.cdf(y)
    assert F.min() >= 0.0 and F.max() <= 1.0
    assert np.all(np.diff(F) >= -1e-12)  # rounding only
    for prob in (0.05, 0.5, 0.95, 0.995):
        q, _ = rosenblatt_quantile(d, prob)
        assert abs(law.cdf(q)[0] - prob) < 1e-6
    # positively skewed: the median sits below the mean 0
    assert rosenblatt_quantile(d, 0.5)[0] < 0.0


# d = 0.3 stays out: the Monte Carlo oracle's finite-n bias grows as d -> 1/4
# (KS 0.019 there against the 0.0215 bound, where these two read below 0.01)
@pytest.mark.parametrize("d", [0.35, 0.42])
def test_rosenblatt_cdf_matches_monte_carlo_oracle(d):
    draws = rosenblatt_sample(d, 4000, 77, 2**14)
    law = inference._second_chaos_law(d, inference._KERNEL_CELLS)
    assert stats.kstest(draws, law.cdf).statistic < 1.36 / math.sqrt(len(draws))


def test_rosenblatt_quantile_memoised_per_d(monkeypatch):
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(np.shape(a)) or eigvalsh(a))
    inference._second_chaos_law.cache_clear()
    v1, prov1 = rosenblatt_quantile(0.37, 0.95)
    v2, prov2 = rosenblatt_quantile(0.37, 0.9)
    v3, prov3 = rosenblatt_quantile(0.37, 0.95)
    half = inference._KERNEL_CELLS // 2
    assert solves == [(2, half, half)]  # one call: the kernel matrix's two centrosymmetric halves
    assert v1 == v3 and v2 < v1 and prov1 == prov2 == prov3
    assert prov1["method"] == "eigenvalue CF inversion" and 0.0 < prov1["tail_var_share"] < 0.1
    with pytest.raises(ValueError):
        rosenblatt_quantile(0.2, 0.95)
    with pytest.raises(ValueError):
        rosenblatt_quantile(0.37, 1.0)


# --- target inversion ---------------------------------------------------------------


def test_invert_target_rank_one():
    d_star, K_star = invert_target(1.3, 1)
    assert (d_star, K_star) == (pytest.approx(0.3), 1)


def test_invert_target_rank_two():
    d_star, K_star = invert_target(0.32, 2)
    assert K_star == 0
    assert delta(2, d_star) == pytest.approx(0.32)


def test_invert_target_invalid():
    for bad in (0.75, 1.0, 2.5, -0.2, 0.0):
        with pytest.raises(InvalidTargetError):
            invert_target(bad, 1)
    with pytest.raises(BoundaryValueError):
        invert_target(0.3, 2)  # d* = 0.4 sits on the boundary lattice


# --- hypothesis test -----------------------------------------------------------------


def test_run_test_alpha_one_always_rejects(bank_db2):
    d = 0.35
    x = sample_gaussian(model(d), 2**14, seed=71)
    rep = run_test(x, bank_db2, d0_star=0.35, alpha=1.0, K_bar=0,
                   expansion=expansion_from_coeffs({1: 1.0}), j0=4, p=3)
    assert rep.s_N == pytest.approx(0.0, abs=1e-12)
    assert rep.decision


def test_run_test_report_fields(bank_db2):
    d = 0.35
    x = sample_gaussian(model(d), 2**15, seed=72)
    rep = run_test(x, bank_db2, d0_star=0.35, alpha=0.1, K_bar=0,
                   expansion=expansion_from_coeffs({1: 1.0}), j0=4, p=3)
    assert rep.kind == "gaussian"
    assert rep.q0 == 1 and rep.K_star == 0
    assert rep.d_star == pytest.approx(0.35)
    assert rep.nu_c_star is None  # single-term expansion: infinite threshold
    assert rep.reduction_ratio is None
    assert rep.bias_ratio > 0
    assert rep.u_N == pytest.approx(math.sqrt(2**15 * 2.0**-7))
    loaded = json.loads(json.dumps(asdict(rep), default=float))
    assert loaded["decision"] == rep.decision
    assert loaded["estimation"]["d0_hat"] == pytest.approx(rep.d0_hat)


def test_run_test_rank_two_quantile_path(bank_db2):
    # transform with consecutive ranks: finite critical exponent reported
    d_true = 0.41
    m = model(d_true)
    x = sample_gaussian(m, 2**15, seed=73)
    g = expansion_from_coeffs({2: 2.0, 3: 1.0})
    y = g(x)
    rep = run_test(y, bank_db2, d0_star=0.32, alpha=0.1, K_bar=0, expansion=g,
                   j0=4, p=3)
    assert rep.kind == "rosenblatt"
    assert rep.q0 == 2
    # consecutive ranks starting at q0: the marker rank is q0 itself, so the
    # critical exponent collapses to 1
    assert rep.nu_c_star == pytest.approx(1.0, rel=1e-9)
    assert rep.reduction_ratio == pytest.approx(2**15 * 2.0**-7 / 2.0**7)
    assert rep.u_N == pytest.approx((2**15 * 2.0**-7) ** (1 - 2 * rep.d_star))
    assert rep.s_N > 0
    assert rep.quantile_provenance["kind"] == "rosenblatt"
    zq, _ = rosenblatt_quantile(rep.d_star, 0.95)
    assert rep.s_N == pytest.approx(rep.quantile_provenance["c_scale"] * zq / rep.u_N, rel=1e-12)


def test_calibrate_test_is_run_test_without_the_series(bank_db2):
    # a calibration fixes every field but the three that read the series
    x = sample_gaussian(model(0.41), 2**14, seed=74)
    series_fields = ("d0_hat", "decision", "estimation")
    for coeffs, d0_star in (({1: 1.0}, 0.41), ({2: 2.0, 3: 1.0}, 0.32)):
        g = expansion_from_coeffs(coeffs)
        cal = asdict(calibrate_test(bank_db2, len(x), d0_star, 0.1, 0, g, 4, 3, beta_smooth=1.5))
        rep = asdict(run_test(x, bank_db2, d0_star, 0.1, 0, g, 4, 3, beta_smooth=1.5))
        assert all(cal.pop(k) is None and rep.pop(k) is not None for k in series_fields)
        assert cal == rep


def test_run_test_requires_enough_moments(bank_db2):
    x = np.zeros(2**12) + stream(2, 2).standard_normal(2**12)
    with pytest.raises(ValueError, match="K_bar"):
        run_test(x, bank_db2, 0.3, 0.1, K_bar=2,
                 expansion=expansion_from_coeffs({1: 1.0}), j0=3, p=2)
