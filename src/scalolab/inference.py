"""Log-scale regression estimation of the memory parameter, asymptotic
limit-law constants, the second-chaos (Rosenblatt) law and its
deterministic quantile, and the two-sided hypothesis test on the memory
parameter.

The estimator is d0_hat = sum_i w_i log sigma2_hat_{j0+i} with least-squares
contrast weights satisfying sum w_i = 0 and sum i w_i = 1/(2 log 2), so a
log2-linear scalogram maps to its slope/2.  Its fluctuation limit is
Gaussian when the leading Hermite rank is 1 and Rosenblatt otherwise; the
constants of both laws are deterministic quadratures of the filter bank's
limit shape (no Monte Carlo, no seed), sampled over its trusted zone only.
At rank one each offset's covariance is the lag-domain sum of the limit
wavelet spectral density (Moulines, Roueff & Taqqu 2007), one fold of the
shape samples; at rank >= 2 the shape integrals reduce to one dimension.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import (
    DegenerateScalogramError,
    FilterValidationError,
    InvalidTargetError,
    QuadratureError,
)
from .exponents import (
    MemoryParams,
    check_off_boundary,
    critical_exponent_report,
    delta,
    rank_profile,
    zeta_exponent,
)
from .hermite import HermiteExpansion, hermite_rank
from .wavelet import FilterBank, scalograms

LOG2 = math.log(2.0)


def regression_weights(p: int) -> np.ndarray:
    """Least-squares contrast weights w_0..w_p over scale offsets 0..p.

    Projection of the scale index onto its centered version, rescaled so
    that sum_i i*w_i = 1/(2 log 2); then sum_i w_i = 0 holds exactly and a
    scalogram proportional to 2^(2 a j) regresses to exactly a.
    """
    if p < 1:
        raise ValueError("need at least two scales (p >= 1)")
    x = np.arange(p + 1, dtype=float)
    xc = x - x.mean()
    return xc / (xc @ xc) / (2.0 * LOG2)


@dataclass
class EstimationReport:
    """Estimate plus everything needed to reproduce and sanity-check it."""

    d0_hat: float
    j0: int
    p: int
    n: list
    sigma2: list
    weights: list
    rate_stat: Optional[float] = None  # (N 2^-jc)^-(1/2-d), coarsest scale
    rate_bias: Optional[float] = None  # 2^(-zeta j0), finest scale
    notes: str = ""


def d0_from_scalograms(sigma2s) -> float:
    """Apply the contrast weights to given per-scale scalogram values."""
    s2 = np.asarray(sigma2s, dtype=float)
    if np.any(s2 <= 0.0):
        raise DegenerateScalogramError("scalogram values must be positive for log regression")
    w = regression_weights(len(s2) - 1)
    return float(w @ np.log(s2))


def estimate_d0(
    series,
    bank: FilterBank,
    j0: int,
    p: int,
    params: Optional[MemoryParams] = None,
    q0: Optional[int] = None,
    zeta: Optional[float] = None,
) -> EstimationReport:
    """Memory-parameter estimate from scales j0..j0+p.

    When (params, q0) are supplied the bank must carry at least
    K + delta(q0) vanishing moments, and the report includes the predicted
    statistical and bias rates (the latter needs zeta too).
    """
    series = np.asarray(series, dtype=float)
    if params is not None and q0 is not None:
        need = params.K + delta(q0, params.d)
        if bank.M < need:
            raise FilterValidationError(
                f"bank has M={bank.M} vanishing moments; theory requires M >= {need:.3g}"
            )
    sums = scalograms(series, bank, range(j0, j0 + p + 1))
    s2 = [s.sigma2 for s in sums]
    d0_hat = d0_from_scalograms(s2)  # raises on a zero scalogram value
    rate_stat = rate_bias = None
    if params is not None:
        jc = j0 + p
        rate_stat = float((len(series) * 2.0**-jc) ** -(0.5 - params.d))
        if zeta is not None:
            rate_bias = float(2.0 ** (-zeta * j0))
    return EstimationReport(
        d0_hat=d0_hat, j0=j0, p=p,
        n=[s.n for s in sums], sigma2=s2,
        weights=list(regression_weights(p)),
        rate_stat=rate_stat, rate_bias=rate_bias,
    )


# --- limit-law constants ---------------------------------------------------


_GRID_S = 1024  # grid points per pi of absolute frequency
_SHAPE_J = 11  # deepest filter level standing in for the limit shape
_TAIL_TOL = 1e-4  # largest share of a shape integral its outer half may carry


class _LimitShape:
    """Limit transfer shape g_inf sampled at x_r = pi r / S, r = 0..F/4.

    Level J stands in for the limit and is kept; g_inf(2^-m x) on the same
    grid is level J-m, built afresh by `level(m)`.  Each level's samples
    are its F-point rfft (F = 2 S 2^J) cut to the trusted zone, the
    |omega| <= pi/2 of the filter's fundamental domain: beyond it the
    2 pi-periodic transfer no longer approximates the decaying limit shape.
    The taps are real, so g_inf(-x) = conj(g_inf(x)).
    """

    def __init__(self, bank: FilterBank):
        self.bank = bank
        self.S = _GRID_S
        self.J = min(bank.jmax, _SHAPE_J)
        self.F = 2 * self.S * 2**self.J
        self.trusted_rmax = self.F // 4
        self.g0 = self.level(0)

    def level(self, m: int) -> np.ndarray:
        lev = self.J - m
        if lev < 1:
            raise ValueError(f"bank too shallow: offset {m} needs filters down to level {lev}")
        zone = np.fft.rfft(self.bank.taps(lev), n=self.F)[: self.trusted_rmax + 1]
        return zone * 2.0 ** (-lev / 2.0)

    def abs2_grid(self, rmax: int) -> tuple[np.ndarray, np.ndarray]:
        """(x_r, |g_inf(x_r)|^2) for r = 0..rmax on the positive axis."""
        rmax = min(rmax, self.trusted_rmax)
        return math.pi * np.arange(rmax + 1) / self.S, np.abs(self.g0[: rmax + 1]) ** 2


def _riesz_constant(p: int, d: float) -> float:
    """C_p(d), with the p-fold convolution of |u|^(-2d) equal to
    C_p(d) |s|^(-2 delta(p, d)) while delta(p, d) > 0 (Riesz composition,
    Stein 1970, Singular Integrals, ch. V).  With a = 1 - 2d, convolving
    |u|^(ka-1) with |u|^(a-1) gives |s|^((k+1)a-1) times
    B(ka, a) + B(ka, 1-(k+1)a) + B(a, 1-(k+1)a), the integrals over
    (0, 1), (-inf, 0) and (1, inf)."""
    a = 1.0 - 2.0 * d
    if p * a >= 1.0:
        raise ValueError(f"rank {p} is not long-range dependent at d={d}")

    def beta(x: float, y: float) -> float:
        return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))

    c = 1.0
    for k in range(1, p):
        b = 1.0 - (k + 1) * a
        c *= beta(k * a, a) + beta(k * a, b) + beta(a, b)
    return c


def _lp_integral(shape: _LimitShape, p: int, d: float, K: int) -> float:
    """L_p = int_{R^p} |g_inf(u_1+..+u_p)|^2 |sum u|^(-2K) prod |u_i|^(-2d) du.

    The integrand depends on u only through s = sum u, so
    L_p = C_p(d) int_R |g_inf(s)|^2 |s|^(-2(delta(p, d)+K)) ds, a Riemann
    sum on the sampled grid (the integrand vanishes at 0 since
    M > delta + K); the outer half of the range must contribute negligibly.
    """
    c_p = _riesz_constant(p, d)
    rcap = min(1024 * shape.S, shape.trusted_rmax)
    xs, ys = shape.abs2_grid(rcap)
    step = float(xs[1] - xs[0])
    vals = ys[1:] * xs[1:] ** (-2.0 * (delta(p, d) + K))
    total = 2.0 * step * float(vals.sum())
    tail = 2.0 * step * float(vals[len(vals) // 2 :].sum())
    if total <= 0.0:
        raise QuadratureError("limit-shape integral collapsed to zero")
    if tail > _TAIL_TOL * total:
        raise QuadratureError(
            f"limit-shape integral tail {tail / total:.2e} above tolerance; "
            "decay of the transfer function is too slow"
        )
    return c_p * total


def _cov_q_integral(shape: _LimitShape, d: float, K: int, m: int) -> tuple[float, float]:
    """sum_{v=0}^{2^m - 1} int_0^{2 pi} |sum_l phi(x) e^{-i 2^-m v x}|^2 dlam
    with x = lam + 2 pi l and phi(x) = |x|^{-2(d+K)} g_inf(x) conj(g_inf(2^-m x)),
    by the midpoint rule at x_k = pi k / S, k odd, over the trusted zone
    |k| < F/4.

    The phase at x_k depends only on k mod N, N = 2 S 2^m.  Writing the
    shells as l = l1 + 2^m l2 turns the sum over v into a 2^m-point DFT
    over l1, which Parseval collapses: the value is
    2^m (2 pi / S) sum_{k' odd} |c_k'|^2, with c the samples phi(x_k) folded
    modulo N.  Also returns the tail change, the relative change of the
    value when the outer half of the zone is dropped.
    """
    S, n = shape.S, shape.trusted_rmax
    gm = shape.g0 if m == 0 else shape.level(m)
    k = np.arange(1, n, 2)
    phi = (math.pi / S * k) ** (-2.0 * (d + K)) * shape.g0[1:n:2] * np.conj(gm[1:n:2])
    half = S * 2**m  # odd residues modulo N

    def fold(a: np.ndarray) -> float:
        # zero-padded to whole periods: deep offsets have more residues than samples
        a = np.concatenate([a, np.zeros(-len(a) % half, complex)]).reshape(-1, half).sum(axis=0)
        # phi(-x) = conj(phi(x)): residue of -k is N - k
        c = a + np.conj(a[::-1])
        return 2**m * (2.0 * math.pi / S) * float(np.vdot(c, c).real)

    total = fold(phi)
    return total, abs(total - fold(phi[: len(phi) // 2])) / total


@dataclass
class LimitLaw:
    """Distributional constants for the estimator's fluctuation limit.

    Every constant is a deterministic quadrature of the bank's sampled
    limit shape; `provenance` records the grid (S, J) and, at rank one,
    each offset's `tail_change`: the relative change of its cov_Q integral
    when the outer half of the trusted zone is dropped, a measure of the
    error from standing level J in for the limit shape."""

    kind: str  # "gaussian" or "rosenblatt"
    q0: int
    d: float
    K: int
    p: int
    u_N_exponent: float  # u_N = (N 2^-jc)^u_N_exponent
    cov_Q: Optional[np.ndarray] = None  # (p+1)x(p+1), offsets u = 0..p
    sigma_d0: Optional[float] = None  # sqrt(w' cov_Q w) in estimator index order
    L_values: dict = field(default_factory=dict)
    c_scale: Optional[float] = None  # multiplies the second-chaos limit variable
    provenance: dict = field(default_factory=dict)


_TAIL_CHANGE_TOL = 0.1  # above it, an offset's integral is not resolved by the bank


def limit_constants(bank: FilterBank, params: MemoryParams, q0: int, p: int) -> LimitLaw:
    """Limit-law constants for the estimator over scales jc-p..jc.

    Rank one: the per-offset covariance of the normalised scalogram
    fluctuations is integrated from the bank's limit shape, and the
    estimator variance is the contrast quadratic form in it.  Rank >= 2:
    the shape integrals L_{q0} and L_{q0-1} (`_lp_integral`, one 1-D
    quadrature each, no random draw) give the scale factor multiplying the
    second-chaos limit variable.
    """
    if q0 < 1:
        raise ValueError("rank must be >= 1")
    return _limit_law(_SameBank(bank), params.d, params.K, q0, p)


class _SameBank:
    """Cache key of a bank: build_bank is deterministic, so (family, jmax)
    identifies it.  The bank rides along for the cache miss."""

    def __init__(self, bank: FilterBank):
        self.bank, self.key = bank, (bank.family, bank.jmax)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


@lru_cache(maxsize=16)
def _limit_law(same: _SameBank, d: float, K: int, q0: int, p: int) -> LimitLaw:
    shape = _LimitShape(same.bank)
    w = regression_weights(p)
    if q0 == 1:
        L1 = _lp_integral(shape, 1, d, K)
        ints, tails = zip(*(_cov_q_integral(shape, d, K, m) for m in range(p + 1)))
        cov = np.empty((p + 1, p + 1))
        for u in range(p + 1):
            for up in range(u, p + 1):
                m = up - u
                val = 4.0 * math.pi * 2.0 ** (2.0 * (d + K) * m - up - m) / L1**2 * ints[m]
                cov[u, up] = cov[up, u] = val
        # estimator uses scale j0+i = jc-(p-i): offset u = p-i
        var = float(w[::-1] @ cov @ w[::-1])
        if var <= 0:
            raise QuadratureError("estimator variance came out nonpositive")
        return LimitLaw(
            kind="gaussian", q0=1, d=d, K=K, p=p, u_N_exponent=0.5,
            cov_Q=cov, sigma_d0=math.sqrt(var),
            L_values={"L1": L1},
            provenance={"S": shape.S, "J": shape.J, "tail_change": list(tails)},
        )
    Lq0 = _lp_integral(shape, q0, d, K)
    Lq0m1 = _lp_integral(shape, q0 - 1, d, K)
    # scale of the normalised fluctuation sigma2_hat/sigma2 - 1: the
    # c_{q0} dependence cancels in the ratio, leaving q0 L_{q0-1}/L_{q0}
    # (verified against simulated scalogram fluctuations across scales)
    ratio = q0 * Lq0m1 / Lq0
    drift = float(np.dot(w, 2.0 ** ((2.0 * d - 1.0) * (p - np.arange(p + 1)))))
    return LimitLaw(
        kind="rosenblatt", q0=q0, d=d, K=K, p=p, u_N_exponent=1.0 - 2.0 * d,
        L_values={f"L{q0}": Lq0, f"L{q0-1}": Lq0m1},
        c_scale=ratio * drift,
        provenance={"S": shape.S, "J": shape.J},
    )


# --- second-chaos limit law ------------------------------------------------

_KERNEL_CELLS = 512  # cells discretising the kernel |x - y|^(2d-1) on [0, 1]
_LOG_CF_CUTOFF = -36.0  # the inversion integral stops where log|phi(t)| falls below


def _bisect(pred, lo: float, hi: float) -> float:
    """Where the monotone predicate turns false, to the last bit; hi (> 0)
    doubles first until pred(hi) is false."""
    while pred(hi):
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return hi


class _SecondChaosLaw:
    """sum_k lam_k (eps_k^2 - 1), lam_k the eigenvalues of the kernel
    c_d |x - y|^(2d-1) on [0, 1] with c_d = 2 Gamma(1-2d) sin(pi d) (the
    law of the limit of n^(-2d) sum_t H_2(X_t) / f*(0), X a unit-variance
    path of short-range level f*(0)), from m cell averages: a Toeplitz
    matrix whose row is the second difference of |t|^(2d+1)/(2d(2d+1)).
    A centred Gaussian carries the rest of the closed-form variance.  The
    characteristic function phi is sampled once on the trapezoid grid of
    the Gil-Pelaez inversion; quantiles found from it are kept by prob."""

    def __init__(self, d: float, m: int):
        F = np.abs(np.arange(-1.0, m + 1.0)) ** (2 * d + 1) / (2 * d * (2 * d + 1))
        c_d = 2.0 * math.gamma(1.0 - 2.0 * d) * math.sin(math.pi * d)
        i = np.arange(m)
        toeplitz = (F[2:] - 2.0 * F[1:-1] + F[:-2])[np.abs(i[:, None] - i)]
        lam = c_d * m ** (-2.0 * d) * np.linalg.eigvalsh(toeplitz)
        self.m, self.var = m, c_d**2 / (d * (4.0 * d - 1.0))
        self.tail_var = self.var - 2.0 * float(lam @ lam)
        self.sd = math.sqrt(self.var)
        # the trapezoid aliases mass lying 2 pi / h away from y: put that
        # 40 sd below, and 40 scales of the exp(-x / (2 lam_max)) tail above
        self.h = 2.0 * math.pi / (40.0 * (self.sd + 2.0 * float(np.abs(lam).max())))
        t_max = _bisect(lambda t: -0.25 * np.log1p(4.0 * t * t * lam**2).sum()
                        - 0.5 * self.tail_var * t * t > _LOG_CF_CUTOFF, 0.0, 1.0)
        t = self.h * np.arange(1, math.ceil(t_max / self.h) + 1)
        log_cf = -0.5 * self.tail_var * t * t + 0j
        for lk in lam:
            log_cf -= 0.5 * np.log(1.0 - 2j * t * lk) + 1j * t * lk
        self.t, self.cf, self.quantiles = t, np.exp(log_cf), {}

    def cdf(self, y) -> np.ndarray:
        """F(y) = 1/2 - (1/pi) int_0^inf Im(e^{-ity} phi(t)) / t dt by the
        trapezoid rule, whose t -> 0 term is -y (the law is centred)."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        # 256 points at a time bound the (points, steps) temporary
        s = np.concatenate([np.imag(np.exp(-1j * np.multiply.outer(ys, self.t)) * self.cf) @ (1.0 / self.t)
                            for ys in np.split(y, range(256, y.size, 256))])
        return np.clip(0.5 - self.h / math.pi * (s - 0.5 * y), 0.0, 1.0)


_second_chaos_law = lru_cache(maxsize=64)(_SecondChaosLaw)  # the per-d memo


def rosenblatt_quantile(d: float, prob: float) -> tuple[float, dict]:
    """Quantile of the second-chaos limit law of index d, with provenance.

    Deterministic: the law's eigen-representation (Dobrushin & Major 1979;
    Veillette & Taqqu 2013) is inverted by Gil-Pelaez / Imhof (1961), see
    `_SecondChaosLaw`, and memoised per d in process; no seed, no file.
    The provenance records the kernel cells m and the Gaussian tail term's
    share of the variance."""
    if not (0.25 < d < 0.5):
        raise ValueError(f"second-chaos limit requires d in (1/4, 1/2), got {d}")
    if not (0.0 < prob < 1.0):
        raise ValueError("prob must lie in (0, 1)")
    law = _second_chaos_law(float(d), _KERNEL_CELLS)
    if prob not in law.quantiles:  # a process running many sweeps asks once per run
        law.quantiles[prob] = _bisect(lambda y: law.cdf(y)[0] < prob, -10.0 * law.sd, law.sd)
    return law.quantiles[prob], {"method": "eigenvalue CF inversion", "d": float(d), "m": law.m,
               "tail_var_share": law.tail_var / law.var, "steps": len(law.t)}


# --- hypothesis test -------------------------------------------------------


def invert_target(d0_star: float, q0: int) -> tuple[float, int]:
    """Split a hypothesised memory parameter into (d*, K*).

    K* is the integer part under the convention d0* in (K*, K*+1/2); d*
    solves K* + delta(q0, d*) = d0*.  Values on the half-integer lattice
    or with fractional part outside (0, 1/2) are rejected, as are d* on
    the logarithmic-correction lattice.
    """
    if not math.isfinite(d0_star) or d0_star <= 0.0:
        raise InvalidTargetError(f"target memory parameter must be positive, got {d0_star!r}")
    K_star = math.floor(d0_star)
    frac = d0_star - K_star
    if not (0.0 < frac < 0.5):
        raise InvalidTargetError(
            f"d0*={d0_star!r} admits no valid split: fractional part must lie in (0, 1/2)"
        )
    d_star = (frac + (q0 - 1) / 2.0) / q0
    check_off_boundary(d_star)
    return d_star, K_star


@dataclass
class TestReport:
    """Decision and full provenance of the memory-parameter test; a
    `calibrate_test` report leaves the three series-dependent fields unset."""

    d0_star: float
    alpha: float
    d0_hat: Optional[float]
    s_N: float
    decision: Optional[bool]  # True = reject
    q0: int
    d_star: float
    K_star: int
    u_N: float
    kind: str
    nu_c_star: Optional[float]  # None encodes an infinite critical exponent
    reduction_ratio: Optional[float]  # (N 2^-jc) / 2^(jc nu_c*); small is good
    zeta_star: float
    bias_ratio: float  # 2^(-zeta jc) * u_N; small is good
    quantile_provenance: dict = field(default_factory=dict)
    estimation: Optional[EstimationReport] = None


def calibrate_test(bank: FilterBank, N: int, d0_star: float, alpha: float, K_bar: int,
                   expansion: HermiteExpansion, j0: int, p: int, beta_smooth: float = 2.0) -> TestReport:
    """The test's critical value s_N and side-condition ratios for series of
    length N on scales j0..j0+p: everything but the series values decides them.

    s_N is the (1-alpha/2) quantile of the estimator's limit law under the
    hypothesis, scaled back by the normalisation rate u_N.  The two
    asymptotic side conditions (reduction regime and bias negligibility) are
    reported as finite-sample ratios and never enforced; callers decide what
    "much smaller than 1" means.  A rank-one law whose tail_change exceeds
    _TAIL_CHANGE_TOL raises QuadratureError.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if bank.M <= K_bar:
        raise FilterValidationError(f"need M > K_bar (bank has M={bank.M}, K_bar={K_bar})")
    q0, q1 = hermite_rank(expansion)
    d_star, K_star = invert_target(d0_star, q0)
    jc = j0 + p
    n_base = N * 2.0**-jc
    law = limit_constants(bank, MemoryParams(d_star, K_star), q0, p)
    u_N = n_base**law.u_N_exponent

    if law.kind == "gaussian":
        for m, t in enumerate(law.provenance["tail_change"]):
            if t > _TAIL_CHANGE_TOL:
                raise QuadratureError(f"limit law offset m={m}: tail_change {t:.3g} exceeds "
                                      f"{_TAIL_CHANGE_TOL} (bank jmax too shallow for p={p})")
        zq = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        s_N = law.sigma_d0 * zq / u_N
        prov = {"kind": "gaussian", "sigma_d0": law.sigma_d0, **law.provenance}
    else:
        zq, prov = rosenblatt_quantile(d_star, 1.0 - alpha / 2.0)
        s_N = law.c_scale * zq / u_N
        prov = {"kind": "rosenblatt", "c_scale": law.c_scale, **prov}

    profile = rank_profile(expansion.nonzero_indices(), d_star)
    nu_rep = critical_exponent_report(profile, d_star)
    if nu_rep.nu_c.is_infinite:
        nu_val, red_ratio = None, None
    else:
        nu_val = nu_rep.nu_c.value
        red_ratio = n_base / 2.0 ** (jc * nu_val)
    zeta_star = zeta_exponent(beta_smooth, d_star, q0, q1)
    bias_ratio = 2.0 ** (-zeta_star * jc) * u_N
    return TestReport(
        d0_star=d0_star, alpha=alpha, d0_hat=None, s_N=float(s_N),
        decision=None, q0=q0, d_star=d_star, K_star=K_star,
        u_N=float(u_N), kind=law.kind,
        nu_c_star=nu_val, reduction_ratio=red_ratio,
        zeta_star=zeta_star, bias_ratio=float(bias_ratio),
        quantile_provenance=prov,
    )


def run_test(
    series,
    bank: FilterBank,
    d0_star: float,
    alpha: float,
    K_bar: int,
    expansion: HermiteExpansion,
    j0: int,
    p: int,
    beta_smooth: float = 2.0,
) -> TestReport:
    """Two-sided test of the memory parameter taking the hypothesised value:
    rejects when |d0_hat - d0*| exceeds the critical value s_N of
    `calibrate_test`.  The series is estimated first, so an input both the
    estimate and the calibration reject fails on the estimate."""
    est = estimate_d0(series, bank, j0, p)
    cal = calibrate_test(bank, len(series), d0_star, alpha, K_bar, expansion, j0, p, beta_smooth)
    return replace(cal, d0_hat=est.d0_hat, decision=abs(est.d0_hat - d0_star) > cal.s_N,
                   estimation=est)
