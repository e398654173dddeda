"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Monte Carlo criteria use fixed seeds; the two long-running distributional
criteria are marked slow (deselect with -m "not slow").
"""

import math

import numpy as np
import pytest
from scipy import stats

from scalolab.exponents import (
    MemoryParams,
    chaos_exponents,
    critical_exponent,
    critical_exponent_report,
    delta,
    delta_plus,
    rank_profile,
)
from scalolab.hermite import (
    expand,
    expansion_from_coeffs,
    gauss_hermite_rule,
    hermite_eval,
)
from scalolab.inference import estimate_d0, limit_constants, rosenblatt_sample, run_test
from scalolab.spectral import (
    SpectralModel,
    autocov_X,
    convolve_density,
    grid_autocov,
    spectral_grid,
)
from scalolab.synthesis import integrate_K, sample_gaussian
from scalolab.wavelet import build_bank, n_coeffs, scalogram

from test_exponents import nu_c_oracle


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


ILLUSTRATION = (1, 3, 4, 5, 24)


@pytest.fixture(scope="module")
def bank():
    return build_bank("db2", jmax=11)


@pytest.fixture(scope="module")
def deep_bank():
    return build_bank("db2", jmax=13)


# -------------------------------------------------------------- criterion 1


def test_accept_01_nu_c_golden_suite():
    cases = {
        0.2: ({0}, {1, 2}),
        0.3: ({0, 1}, {0, 1, 2}),
        0.48: ({0, 1, 18}, {0, 1, 2, 3}),
    }
    ok = True
    for d, (q_expect, jd_expect) in cases.items():
        prof = rank_profile(ILLUSTRATION, d)
        ok &= set(prof.Q_set) == q_expect and set(prof.Jd_set) == jd_expect
    rep = critical_exponent_report(rank_profile(ILLUSTRATION, 0.3), 0.3)
    ok &= (not rep.nu_c.is_infinite) and abs(rep.nu_c.value - 8.0 / 3.0) < 1e-12
    # brute-force evaluation of every branch argument by the oracle
    ok &= abs(nu_c_oracle(ILLUSTRATION, 0.3) - 8.0 / 3.0) < 1e-12
    cands = dict(rep.candidates)
    ok &= abs(cands["q1"] - 8.0) < 1e-12
    ok &= abs(cands["gap r=0"] - 8.0 / 3.0) < 1e-12
    ok &= abs(cands["gap r=1"] - 4.0) < 1e-12
    _report(1, "critical-exponent golden suite", ok,
            f"nu_c(0.3) = {rep.nu_c.value:.6f}")


# -------------------------------------------------------------- criterion 2


def test_accept_02_nu_c_properties():
    rng = np.random.default_rng(20260808)
    ok = True
    # positivity on 10^4 fuzzed admissible profiles
    for _ in range(10_000):
        size = rng.integers(1, 7)
        idx = tuple(sorted(rng.choice(np.arange(1, 31), size=size, replace=False)))
        q0 = idx[0]
        lo = 0.5 * (1.0 - 1.0 / q0) + 1e-3
        d = float(rng.uniform(lo, 0.499))
        nu = critical_exponent(rank_profile(idx, d), d)
        if not nu.as_float() > 0.0:
            ok = False
            break
    # monotonicity in d over 10^3 profiles x 50-point grids
    viol = 0
    for _ in range(1000):
        size = rng.integers(2, 7)
        idx = tuple(sorted(rng.choice(np.arange(1, 31), size=size, replace=False)))
        q0 = idx[0]
        lo = 0.5 * (1.0 - 1.0 / q0) + 1e-3
        grid = np.linspace(lo, 0.497, 50)
        vals = [critical_exponent(rank_profile(idx, d), d).as_float() for d in grid]
        pairs = zip(vals, vals[1:])
        if q0 == 1:
            good = all(a >= b - 1e-9 for a, b in pairs)
        else:
            good = all(a <= b + 1e-9 for a, b in pairs)
        viol += not good
    ok &= viol == 0
    _report(2, "critical-exponent properties", ok, f"monotonicity violations: {viol}")


# -------------------------------------------------------------- criterion 3


def test_accept_03_exponent_inequality_suite():
    ds = np.linspace(0.02, 0.48, 20)
    ok = True
    msgs = []
    # strict domination of the p = 0 growth exponents (grid to 50)
    for d in ds:
        sup = max(
            delta_plus(q, d) + delta_plus(qp, d)
            for q in range(1, 51) for qp in range(q, 51) if (q, qp) != (1, 1)
        )
        if not sup < 2 * d:
            ok = False
            msgs.append(f"domination fails at d={d}")
    # monotonicity and the beta-prime inequality on the exhaustive grid
    for d in ds:
        for q in range(1, 31):
            for qp in range(q, 31):
                for p in range(0, min(q, qp) + 1):
                    ce = chaos_exponents(q, qp, p, d)
                    if ce.beta_prime > ce.beta + ce.beta_second + 1e-12:
                        ok = False
                        msgs.append(f"beta' inequality fails at {(q, qp, p, d)}")
                    up = chaos_exponents(q, qp + 1, p, d)
                    if up.alpha < ce.alpha - 1e-12:
                        ok = False
                        msgs.append(f"alpha not monotone in q' at {(q, qp, p, d)}")
                    if q + 1 <= qp:
                        uq = chaos_exponents(q + 1, qp, p, d)
                        if uq.alpha < ce.alpha - 1e-12:
                            ok = False
                            msgs.append(f"alpha not monotone in q at {(q, qp, p, d)}")
                    if p + 1 <= min(q, qp):
                        upp = chaos_exponents(q, qp, p + 1, d)
                        if upp.alpha > ce.alpha + 1e-12:
                            ok = False
                            msgs.append(f"alpha not monotone in p at {(q, qp, p, d)}")
                        if ce.alpha < 0.5 and upp.alpha < 0.5 and p >= 1:
                            if upp.beta_prime < ce.beta_prime - 1e-12:
                                ok = False
                                msgs.append(f"beta' not monotone on alpha<1/2 at {(q, qp, p, d)}")
    # exact flatness of alpha away from adjacent orders when d <= 1/4
    for d in ds[ds <= 0.25]:
        for q in range(1, 31):
            for qp in range(q, 31):
                if qp == q + 1:
                    continue
                for p in range(0, min(q, qp - 1) + 1):
                    if chaos_exponents(q, qp, p, d).alpha != 0.5:
                        ok = False
                        msgs.append(f"alpha != 1/2 at {(q, qp, p, d)}")
    _report(3, "exponent inequality suite", ok, "; ".join(msgs[:3]))


# -------------------------------------------------------------- criterion 4


def test_accept_04_spectral_duality():
    model = SpectralModel(MemoryParams(0.3, 0))
    lams, vals, dlam = spectral_grid(model, 2**20)
    gam1 = grid_autocov(vals, 128)
    worst_cov = 0.0
    worst_dens = 0.0
    for q in (2, 3, 4):
        conv = convolve_density(vals, q, dlam)
        # covariance of the q-fold convolution against the q-th power
        gam_q = grid_autocov(conv, 128)
        worst_cov = max(worst_cov, float(np.max(np.abs(gam_q - gam1**q))))
        # density of the q-th covariance power against the q-fold convolution
        gam_full = 2.0 * math.pi * np.real(np.fft.ifft(vals))
        dens_back = np.real(np.fft.fft(gam_full**q)) / (2.0 * math.pi)
        rel = np.max(np.abs(dens_back - conv)) / np.max(np.abs(conv))
        worst_dens = max(worst_dens, float(rel))
    ok = worst_cov < 1e-6 and worst_dens < 1e-6
    _report(4, "spectral duality", ok,
            f"sup cov err {worst_cov:.2e}, sup density err {worst_dens:.2e}")


# -------------------------------------------------------------- criterion 5


def test_accept_05_hermite_layer():
    ok = True
    msgs = []
    e = expand(lambda x: x**3)
    if set(e.coeffs) != {1, 3} or abs(e.coeffs[1] - 3) > 1e-10 or abs(e.coeffs[3] - 6) > 1e-10:
        ok = False
        msgs.append(f"cubic expansion {e.coeffs}")
    rng = np.random.default_rng(7)
    a = rng.standard_normal(5)

    def poly(x):
        val = np.polynomial.polynomial.polyval(x, a)
        mean = a[0] + a[2] + 3 * a[4]
        return val - mean

    ep = expand(poly)
    if abs(ep.parseval_mass - ep.second_moment) > 1e-10 * max(1.0, ep.second_moment):
        ok = False
        msgs.append("polynomial mass mismatch")
    ee = expand(lambda x: np.exp(x / 2.0) - math.exp(0.125))
    exact = math.exp(0.5) - math.exp(0.25)
    if abs(ee.parseval_mass - exact) > 0.01 * exact:
        ok = False
        msgs.append("exp-centered mass off by more than 1%")
    x, w = gauss_hermite_rule(256)
    H = [hermite_eval(q, x) for q in range(13)]
    worst = 0.0
    for q in range(13):
        for qp in range(13):
            val = float(w @ (H[q] * H[qp]))
            expect = math.factorial(q) if q == qp else 0.0
            norm = math.sqrt(math.factorial(q) * math.factorial(qp))
            worst = max(worst, abs(val - expect) / norm)
    if worst > 1e-8:
        ok = False
        msgs.append(f"orthogonality {worst:.2e}")
    _report(5, "Hermite layer", ok, "; ".join(msgs) or f"orthogonality err {worst:.1e}")


# -------------------------------------------------------- criteria 6 and 7


SLOPE_CONFIGS = ((1, 0.3, 0), (1, 0.4, 1), (2, 0.4, 0))


def _slope_run(bank, q0, d, K, N, reps, seed):
    model = SpectralModel(MemoryParams(d, K))
    js = np.arange(4, 9)
    slopes = np.empty(reps)
    d0_hats = np.empty(reps)
    for r in range(reps):
        x = sample_gaussian(model, N, seed=seed, stream_index=r)
        g = hermite_eval(q0, x)
        y = integrate_K(g, K)
        logs = [math.log2(scalogram(y, bank, j).sigma2) for j in js]
        slopes[r] = np.polyfit(js, logs, 1)[0]
        rep = estimate_d0(y, bank, 4, 4)
        d0_hats[r] = rep.d0_hat
    return slopes, d0_hats


@pytest.fixture(scope="module")
def slope_results(bank):
    out = {}
    for i, (q0, d, K) in enumerate(SLOPE_CONFIGS):
        out[(q0, d, K)] = _slope_run(bank, q0, d, K, 2**15, 100, seed=900 + i)
    return out


def test_accept_06_scalogram_slope_law(slope_results):
    ok = True
    details = []
    for (q0, d, K), (slopes, _) in slope_results.items():
        target = 2 * (K + delta(q0, d))
        got = float(slopes.mean())
        details.append(f"(q0={q0}, d={d}, K={K}): {got:.3f} vs {target:.3f}")
        ok &= abs(got - target) <= 0.1
    _report(6, "scalogram slope law", ok, "; ".join(details))


def test_accept_07_estimator_consistency(bank, slope_results):
    ok = True
    details = []
    for (q0, d, K), (_, d0_hats) in slope_results.items():
        d0 = K + delta(q0, d)
        err = float(np.mean(np.abs(d0_hats - d0)))
        details.append(f"(q0={q0}, d={d}, K={K}): mean|err| = {err:.4f}")
        ok &= err < 0.05
    # rate sign-check: quadrupling N shrinks the RMSE
    q0, d, K = 1, 0.3, 0
    d0 = K + delta(q0, d)
    _, small = slope_results[(q0, d, K)]
    rmse_small = float(np.sqrt(np.mean((small - d0) ** 2)))
    model = SpectralModel(MemoryParams(d, K))
    big = np.empty(100)
    for r in range(100):
        x = sample_gaussian(model, 2**17, seed=970, stream_index=r)
        big[r] = estimate_d0(x, bank, 4, 4).d0_hat
    rmse_big = float(np.sqrt(np.mean((big - d0) ** 2)))
    details.append(f"rmse N=2^15: {rmse_small:.4f} -> N=2^17: {rmse_big:.4f}")
    ok &= rmse_big < rmse_small
    _report(7, "estimator consistency", ok, "; ".join(details))


# -------------------------------------------------------------- criterion 8


def test_accept_08_gaussian_limit(bank):
    d, K, N, j0, p = 0.3, 0, 2**16, 5, 3
    model = SpectralModel(MemoryParams(d, K))
    law = limit_constants(bank, MemoryParams(d, K), 1, p)
    reps = 500
    d0_hats = np.empty(reps)
    for r in range(reps):
        x = sample_gaussian(model, N, seed=1080, stream_index=r)
        d0_hats[r] = estimate_d0(x, bank, j0, p).d0_hat
    u = math.sqrt(N * 2.0 ** -(j0 + p))
    stud = (d0_hats - d) * u / law.sigma_d0
    ad = stats.anderson(stud, "norm", method="interpolate")
    ad_ok = ad.pvalue > 0.01  # 1% level; the interpolated p-value is floored at 0.01
    var_ratio = float(np.var(stud, ddof=1))
    var_ok = 1.0 / 1.5 < var_ratio < 1.5
    ok = ad_ok and var_ok
    _report(8, "Gaussian studentized limit", ok,
            f"AD stat {ad.statistic:.3f} (p {ad.pvalue:.3f}), "
            f"variance ratio {var_ratio:.3f}")


# -------------------------------------------------------------- criterion 9


@pytest.mark.slow
def test_accept_09_rosenblatt_limit(deep_bank):
    d, K, N, j = 0.4, 0, 2**18, 8
    model = SpectralModel(MemoryParams(d, K))
    taps = deep_bank.taps(j)
    L = len(taps)
    rho = autocov_X(model, L + 5).values
    Rg = np.correlate(taps, taps, mode="full")[L - 1:]
    gam = 2.0 * rho[:L] ** 2
    sigma2 = Rg[0] * gam[0] + 2.0 * float(np.dot(Rg[1:L], gam[1:L]))
    nj = n_coeffs(N, deep_bank.T, j)
    reps = 400
    V = np.empty(reps)
    for r in range(reps):
        x = sample_gaussian(model, N, seed=1090, stream_index=r)
        V[r] = nj ** (1 - 2 * d) * (scalogram(x * x - 1.0, deep_bank, j).sigma2 / sigma2 - 1.0)
    skew = float(stats.skew(V))
    skew_se = math.sqrt(6.0 / reps)
    law = limit_constants(deep_bank, MemoryParams(d, K), 2, 1)
    scale = 2.0 * law.L_values["L1"] / law.L_values["L2"]  # u = 0 scaling
    oracle = scale * rosenblatt_sample(d, 20_000, seed=4242, n_internal=2**14)
    ks = stats.ks_2samp(V, oracle).statistic
    ad = stats.anderson(V, "norm", method="interpolate")
    gauss_rejected = ad.pvalue <= 0.01
    ok = (skew > 3 * skew_se) and (ks < 0.1) and gauss_rejected
    _report(9, "second-chaos (Rosenblatt) limit", ok,
            f"skew {skew:.2f} (3se {3*skew_se:.2f}), KS {ks:.3f}, "
            f"AD {ad.statistic:.1f} (p {ad.pvalue:.3f}): {gauss_rejected}")


# -------------------------------------------------------------- criterion 10


def test_accept_10_test_calibration_and_power(bank):
    d0_star, alpha, N, j0, p = 0.35, 0.1, 2**16, 5, 3
    exp_h1 = expansion_from_coeffs({1: 1.0})
    reps = 500
    law = limit_constants(bank, MemoryParams(0.35, 0), 1, p)
    null_model = SpectralModel(MemoryParams(0.35, 0))
    rejects = 0
    for r in range(reps):
        x = sample_gaussian(null_model, N, seed=1100, stream_index=r)
        rep = run_test(x, bank, d0_star, alpha, 0, exp_h1, j0, p, law=law)
        rejects += rep.decision
    rate = rejects / reps
    slack = 2 * math.sqrt(alpha * (1 - alpha) / reps) + 0.04
    cal_ok = abs(rate - alpha) <= slack

    alt_model = SpectralModel(MemoryParams(0.45, 0))  # true d0 = d0* + 0.1
    power_rejects = 0
    for r in range(reps):
        x = sample_gaussian(alt_model, N, seed=1101, stream_index=r)
        rep = run_test(x, bank, d0_star, alpha, 0, exp_h1, j0, p, law=law)
        power_rejects += rep.decision
    power = power_rejects / reps
    power_ok = power > 0.8
    ok = cal_ok and power_ok
    _report(10, "test calibration and power", ok,
            f"H0 rate {rate:.3f} in {alpha}±{slack:.3f}; power {power:.3f}")


# -------------------------------------------------------------- criterion 11


@pytest.mark.slow
def test_accept_11_reduction_principle_trend(deep_bank):
    d, K, N = 0.4, 0, 2**18
    model = SpectralModel(MemoryParams(d, K))
    prof = rank_profile({2, 3}, d)
    nu = critical_exponent(prof, d)
    js = (10, 11, 12)
    # large-scale regime: coefficient counts well below the critical growth
    ratios = [N * 2.0**-j / 2.0 ** (j * nu.as_float()) for j in js]
    assert all(r < 0.3 for r in ratios)
    reps = 200
    sG = {j: np.empty(reps) for j in js}
    sL = {j: np.empty(reps) for j in js}
    for r in range(reps):
        x = sample_gaussian(model, N, seed=1110, stream_index=r)
        h2 = x * x - 1.0
        g = h2 + (x**3 - 3.0 * x) / 6.0  # leading rank-2 term plus rank-3 tail
        for j in js:
            sG[j][r] = scalogram(g, deep_bank, j).sigma2
            sL[j][r] = scalogram(h2, deep_bank, j).sigma2
    gaps = []
    for j in js:
        a, b = sG[j] - sG[j].mean(), sL[j] - sL[j].mean()
        gaps.append(float(np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(b**2))))
    ok = gaps[0] > gaps[1] > gaps[2]
    _report(11, "reduction-principle trend", ok,
            f"relative L2 gaps across j={js}: " + ", ".join(f"{g:.4f}" for g in gaps))
