"""Log-scale regression estimation of the memory parameter, asymptotic
limit-law constants, the second-chaos (Rosenblatt) law (a deterministic
quantile, and a Monte Carlo sampler kept as its oracle), and the two-sided
hypothesis test on the memory parameter.

The estimator is d0_hat = sum_i w_i log sigma2_hat_{j0+i} with least-squares
contrast weights satisfying sum w_i = 0 and sum i w_i = 1/(2 log 2), so a
log2-linear scalogram maps to its slope/2.  Its fluctuation limit is
Gaussian when the leading Hermite rank is 1 and Rosenblatt otherwise; the
constants of both laws are deterministic quadratures of the filter bank's
limit shape (no Monte Carlo, no seed).
"""

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import (
    DegenerateScalogramError,
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
from .spectral import farima_gamma0, farima_rho
from .synthesis import _Embedding, stream
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

    def to_dict(self) -> dict:
        return {
            "d0_hat": self.d0_hat, "j0": self.j0, "p": self.p,
            "n": self.n, "sigma2": self.sigma2, "weights": self.weights,
            "rate_stat": self.rate_stat, "rate_bias": self.rate_bias,
            "notes": self.notes,
        }


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
            raise ValueError(
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


def _level_samples(bank: FilterBank, level: int, F: int) -> np.ndarray:
    """FFT samples of the rescaled transfer at level `level` on the common
    absolute-frequency grid x_r = pi r / S (F = 2 S gamma_J)."""
    taps = bank.taps(level)
    pad = np.zeros(F)
    pad[: len(taps)] = taps
    return np.fft.fft(pad) * 2.0 ** (-level / 2.0)


_GRID_S = 1024  # grid points per pi of absolute frequency
_SHAPE_J = 11  # deepest filter level standing in for the limit shape
_TAIL_TOL = 1e-4  # largest share of a shape integral its outer half may carry
_SHIFT_P0, _SHIFT_PMAX = 64, 2048  # first and largest shift range of the cov_Q series
_SERIES_TOL = 1e-8  # relative change at which the cov_Q series counts as converged


class _LimitShape:
    """Sampled limit transfer shape |g_inf| on a uniform frequency grid.

    Level J approximates the limit; evaluations at 2^-m-scaled arguments
    reuse level J-m so that every lookup lands on the same grid.
    """

    def __init__(self, bank: FilterBank, max_m: int = 6):
        self.bank = bank
        self.S = _GRID_S
        self.J = min(bank.jmax, _SHAPE_J)
        if self.J < max_m + 1:
            max_m = self.J - 1
        self.max_m = max_m
        self.F = 2 * self.S * 2**self.J
        self._levels: dict[int, np.ndarray] = {}

    def level(self, m: int) -> np.ndarray:
        if self.J - m < 1:
            raise ValueError(
                f"bank too shallow: offset {m} needs filters down to level {self.J - m}"
            )
        if m not in self._levels:
            if len(self._levels) > 3:
                self._levels.clear()
            self._levels[m] = _level_samples(self.bank, self.J - m, self.F)
        return self._levels[m]

    @property
    def trusted_rmax(self) -> int:
        """Largest grid index whose lookup stays within |omega| <= pi/2 of the
        sampled filter's fundamental domain; beyond it the 2 pi-periodic
        transfer no longer approximates the decaying limit shape."""
        return self.F // 4

    @property
    def trusted_shift_cap(self) -> int:
        """Largest frequency shift l keeping lam + 2 pi l inside the trusted zone."""
        return max(1, 2**self.J // 4 - 1)

    def abs2_grid(self, rmax: int) -> tuple[np.ndarray, np.ndarray]:
        """(x_r, |g_inf(x_r)|^2) for r = 0..rmax on the positive axis."""
        rmax = min(rmax, self.trusted_rmax)
        lvl = self.level(0)
        r = np.arange(rmax + 1)
        return math.pi * r / self.S, np.abs(lvl[r]) ** 2


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


def _cov_q_integral(shape: _LimitShape, d: float, K: int, m: int) -> tuple[float, dict]:
    """sum_{v=0}^{2^m - 1} int_{-pi}^{pi} |sum_l |x|^{-2(d+K)} e^{-i 2^-m v x}
    g_inf(x) conj(g_inf(2^-m x))|^2 dlam with x = lam + 2 pi l, truncated
    adaptively in l.  Also returns the series state: the largest |l| summed,
    the last relative change and whether that change fell below tolerance."""
    S = shape.S
    F = shape.F
    lvl0 = shape.level(0)
    lvlm = shape.level(m)
    i = np.arange(S)
    twom = 2.0**-m
    vs = np.arange(2**m)

    # beyond the trusted zone the periodic transfer stops decaying, so the
    # shift range is capped there; the genuine tail it drops is negligible
    Pmax = min(_SHIFT_PMAX, shape.trusted_shift_cap)
    P = min(_SHIFT_P0, Pmax)
    acc = np.zeros((2**m, S), dtype=complex)
    result = None
    l_done = 0
    while True:
        if l_done:
            ls = np.concatenate([np.arange(l_done, P + 1), np.arange(-P, -l_done + 1)])
        else:
            ls = np.arange(-P, P + 1)
        for l in ls:
            k = 2 * i + 1 + 2 * S * l
            x = (math.pi / S) * k
            g0 = lvl0[np.mod(k, F)]
            gm = lvlm[np.mod(k, F)]
            t = np.abs(x) ** (-2.0 * (d + K)) * g0 * np.conj(gm)
            if m == 0:
                acc[0] += t
            else:
                for v in vs:
                    acc[v] += t * np.exp(-1j * twom * v * x)
        l_done = P + 1
        integral = float(np.sum(np.abs(acc) ** 2)) * (2.0 * math.pi / S)
        if result is not None:
            change = abs(integral - result) / max(abs(integral), 1e-300)
            if change < _SERIES_TOL or P >= Pmax:
                return integral, {"m": m, "max_shift": int(P), "last_change": change,
                                  "converged": change < _SERIES_TOL}
        result = integral
        P *= 2


@dataclass
class LimitLaw:
    """Distributional constants for the estimator's fluctuation limit.

    Every constant is a deterministic quadrature of the bank's sampled
    limit shape; `provenance` records the grid and, at rank one, the state
    of each offset's shift series."""

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


_limit_cache: dict = {}


def limit_constants(bank: FilterBank, params: MemoryParams, q0: int, p: int) -> LimitLaw:
    """Limit-law constants for the estimator over scales jc-p..jc.

    Rank one: the per-offset covariance of the normalised scalogram
    fluctuations is integrated from the bank's limit shape, and the
    estimator variance is the contrast quadratic form in it.  Rank >= 2:
    the shape integrals L_{q0} and L_{q0-1} (`_lp_integral`, one 1-D
    quadrature each, no random draw) give the scale factor multiplying the
    second-chaos limit variable.
    """
    # build_bank is deterministic, so (family, jmax) identifies the bank
    key = (bank.family, bank.jmax, params.d, params.K, q0, p)
    if key in _limit_cache:
        return _limit_cache[key]
    d, K = params.d, params.K
    if q0 < 1:
        raise ValueError("rank must be >= 1")
    shape = _LimitShape(bank, max_m=p)
    w = regression_weights(p)
    if q0 == 1:
        L1 = _lp_integral(shape, 1, d, K)
        ints, series = zip(*(_cov_q_integral(shape, d, K, m) for m in range(p + 1)))
        cov = np.empty((p + 1, p + 1))
        for u in range(p + 1):
            for up in range(u, p + 1):
                m = up - u
                val = 4.0 * math.pi * 2.0 ** (2.0 * (d + K) * m - up - m) / L1**2 * ints[m]
                cov[u, up] = cov[up, u] = val
        # estimator uses scale j0+i = jc-(p-i): offset u = p-i
        var = 0.0
        for ii in range(p + 1):
            for jj in range(p + 1):
                var += w[ii] * w[jj] * cov[p - ii, p - jj]
        if var <= 0:
            raise QuadratureError("estimator variance came out nonpositive")
        law = LimitLaw(
            kind="gaussian", q0=1, d=d, K=K, p=p, u_N_exponent=0.5,
            cov_Q=cov, sigma_d0=math.sqrt(var),
            L_values={"L1": L1},
            provenance={"S": shape.S, "J": shape.J, "series_tol": _SERIES_TOL,
                        "shift_series": list(series)},
        )
    else:
        Lq0 = _lp_integral(shape, q0, d, K)
        Lq0m1 = _lp_integral(shape, q0 - 1, d, K)
        # scale of the normalised fluctuation sigma2_hat/sigma2 - 1: the
        # c_{q0} dependence cancels in the ratio, leaving q0 L_{q0-1}/L_{q0}
        # (verified against simulated scalogram fluctuations across scales)
        ratio = q0 * Lq0m1 / Lq0
        drift = float(np.dot(w, 2.0 ** ((2.0 * d - 1.0) * (p - np.arange(p + 1)))))
        law = LimitLaw(
            kind="rosenblatt", q0=q0, d=d, K=K, p=p, u_N_exponent=1.0 - 2.0 * d,
            L_values={f"L{q0}": Lq0, f"L{q0-1}": Lq0m1},
            c_scale=ratio * drift,
            provenance={"S": shape.S, "J": shape.J},
        )
    if len(_limit_cache) > 16:
        _limit_cache.clear()
    _limit_cache[key] = law
    return law


# --- second-chaos limit sampler -------------------------------------------


def rosenblatt_sample(d: float, reps: int, seed: int, n_internal: int = 2**14) -> np.ndarray:
    """Monte Carlo draws approximating the second-chaos self-similar limit
    variable of index d at unit time.

    Each draw is a normalised partial sum of H_2 over an exact-covariance
    fractionally-integrated Gaussian path of length n: with f*(0) the
    short-range level of that path's spectral density,
    draw = n^(-2d) * sum_t H_2(X_t) / f*(0).  This converges in
    distribution as n grows; n is finite here, so draws are a documented
    approximation (mean -> 0, positive skewness, variance
    4 Gamma(1-2d)^2 sin(pi d)^2 / (d (4d-1))).
    """
    if not (0.25 < d < 0.5):
        raise ValueError(f"second-chaos limit requires d in (1/4, 1/2), got {d}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    n = int(n_internal)
    emb = _Embedding(farima_rho(d, n))
    # unit-variance path: effective short-range level is 1/(2 pi gamma0)
    norm = (n ** (-2.0 * d)) * 2.0 * math.pi * farima_gamma0(d)
    rng = stream(seed, 0x526F73)
    out = np.empty(reps)
    done = 0
    rows = max(1, min(64, (reps + 1) // 2))
    # reused buffers: fresh mid-sized ones would be mmapped and faulted in per block
    zr, zi, sq = np.empty((rows, emb.M)), np.empty((rows, emb.M)), np.empty((rows, n))
    while done < reps:
        # both halves of the FFT are independent paths
        y = emb.spectrum(rng, zr, zi) / math.sqrt(emb.M)
        for part in (np.real(y), np.imag(y)):
            if done >= reps:
                break
            x = part[:, :n]
            np.multiply(x, x, out=sq)
            sq -= 1.0
            draws = norm * np.sum(sq, axis=1)
            take = min(len(draws), reps - done)
            out[done : done + take] = draws[:take]
            done += take
    return out


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
    normalisation of `rosenblatt_sample`), from m cell averages: a Toeplitz
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
    if prob not in law.quantiles:  # a Monte Carlo row asks once per replicate
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
    """Decision and full provenance of the memory-parameter test."""

    d0_star: float
    alpha: float
    d0_hat: float
    s_N: float
    decision: bool  # True = reject
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
    estimation: Optional[dict] = None

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["estimation"] = self.estimation
        return out

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True, default=float)


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
    law: Optional[LimitLaw] = None,
) -> TestReport:
    """Two-sided test of the memory parameter taking the hypothesised value.

    Rejects when |d0_hat - d0*| exceeds the (1-alpha/2) quantile of the
    estimator's limit law under the hypothesis, scaled back by the
    normalisation rate u_N.  The two asymptotic side conditions (reduction
    regime and bias negligibility) are reported as finite-sample ratios and
    never enforced; callers decide what "much smaller than 1" means.
    """
    series = np.asarray(series, dtype=float)
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if bank.M <= K_bar:
        raise ValueError(f"need M > K_bar (bank has M={bank.M}, K_bar={K_bar})")
    q0, q1 = hermite_rank(expansion)
    d_star, K_star = invert_target(d0_star, q0)
    params = MemoryParams(d_star, K_star)

    report = estimate_d0(series, bank, j0, p)
    jc = j0 + p
    n_base = len(series) * 2.0**-jc
    if law is None:
        law = limit_constants(bank, params, q0, p)
    u_N = n_base**law.u_N_exponent

    if law.kind == "gaussian":
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

    decision = abs(report.d0_hat - d0_star) > s_N
    return TestReport(
        d0_star=d0_star, alpha=alpha, d0_hat=report.d0_hat, s_N=float(s_N),
        decision=bool(decision), q0=q0, d_star=d_star, K_star=K_star,
        u_N=float(u_N), kind=law.kind,
        nu_c_star=nu_val, reduction_ratio=red_ratio,
        zeta_star=zeta_star, bias_ratio=float(bias_ratio),
        quantile_provenance=prov, estimation=report.to_dict(),
    )
