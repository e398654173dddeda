"""Log-scale regression estimation of the memory parameter, asymptotic
limit-law constants, the second-chaos (Rosenblatt) law and its
deterministic quantile, and the two-sided hypothesis test on the memory
parameter.

The estimator is d0_hat = sum_i w_i log sigma2_hat_{j0+i} with least-squares
contrast weights satisfying sum w_i = 0 and sum i w_i = 1/(2 log 2), so a
log2-linear scalogram maps to its slope/2.  Its fluctuation limit is
Gaussian when the leading Hermite rank is 1 and Rosenblatt otherwise; the
constants of both laws are deterministic quadratures of the filter bank's
limit shape (no Monte Carlo, no seed), sampled over its trusted zone only
and with no FFT: the level-1 and scaling filters are evaluated by Horner's
rule, and every deeper level follows by the wavelet cascade on the
frequency grid.  At rank one each offset's covariance is the lag-domain sum
of the limit wavelet spectral density (Moulines, Roueff & Taqqu 2007), one
fold of the shape samples; at rank >= 2 the shape integrals reduce to one
dimension.
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


def _unit_roots(count: int, period: int) -> np.ndarray:
    """exp(-2 pi i t / period) for t = 0..count-1, each the product of a
    coarse and a fine table entry (t = 1024 a + b): two short `exp` tables
    instead of one over every t."""
    rows = -(-count // 1024)
    coarse = np.exp(-2j * math.pi * 1024 / period * np.arange(rows))
    fine = np.exp(-2j * math.pi / period * np.arange(1024))
    return np.multiply.outer(coarse, fine).ravel()[:count]


def _horner(c: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    """out <- sum_k c_k z^k, in place."""
    out[:] = c[-1]
    for ck in c[-2::-1]:
        out *= z
        out += ck


class _LimitShape:
    """Limit transfer shape g_inf sampled at x_r = pi r / S, r = 0..F/4
    (F = 2 S 2^J), with no transform: the bank's level-1 taps and scaling
    filter, evaluated by Horner's rule, and the wavelet cascade on the
    frequency grid.

    Level J stands in for the limit: g0 holds 2^(-J/2) g_J-hat(2 pi r / F)
    over the trusted zone r <= F/4, the |omega| <= pi/2 of the filter's
    fundamental domain, beyond which the 2 pi-periodic transfer no longer
    approximates the decaying limit shape.  g_inf(2^-m x) on the same grid
    is level J-m; `odd[m]` keeps its samples at the odd r < F/4, all that
    the offset-m covariance reads, for m = 0..depth.

    Each level follows from the next shallower one by the cascade
    g_{j+1}-hat(omega) = g_j-hat(2 omega) h-hat(omega): on the grid,
    G_{j+1}[r] = G_j[2r] H[r], with G[F - r] = conj(G[r]) because the taps
    are real.  The shallowest level a law reads, lo = J - depth, and every
    deeper one are read only on [0, F/4] and at the even r of (F/4, F/2],
    so each is held on just that reduced set, r = 0..F/4 and then those
    even r, as is H.  Level lo - k is read only at the multiples of 2^k in
    [0, F/2]: levels 1..lo-1 together take about F/2 multiplies (the
    frequency form of the product formula of Moulines, Roueff & Taqqu 2007).
    """

    def __init__(self, bank: FilterBank, depth: int = 0):
        self.S = _GRID_S
        self.J = min(bank.jmax, _SHAPE_J)
        self.F = 2 * self.S * 2**self.J
        self.trusted_rmax = n = self.F // 4
        lo = self.J - depth
        if lo < 1:
            raise ValueError(f"bank too shallow: offset {depth} needs filters down to level {lo}")
        h = self._reduced(bank.scaling)
        g = self._reduced(bank.taps(1)) if lo == 1 else self._level(bank.taps(1), h, lo)
        odd = []
        for lev in range(lo, self.J):
            odd.append(g[1:n:2].copy())
            last = lev == self.J - 1
            self._double(g, last)
            top = n + 1 if last else len(g)
            g[:top] *= h[:top]
        self.g0 = g[: n + 1]
        self.odd = [self.g0[1:n:2], *reversed(odd)]

    def _reduced(self, taps: np.ndarray) -> np.ndarray:
        """2^(-1/2) taps-hat on the reduced set, by Horner's rule in
        z = e^{-2 pi i r / F}; at r = F/4 + 2k, z = -i e^{-2 pi i k / (F/2)}."""
        n = self.trusted_rmax
        c = taps * 2.0**-0.5
        out = np.empty(n + 1 + n // 2, complex)
        _horner(c, _unit_roots(n + 1, self.F), out[: n + 1])
        _horner(c, -1j * _unit_roots(n // 2 + 1, self.F // 2)[1:], out[n + 1 :])
        return out

    def _level(self, g1: np.ndarray, h: np.ndarray, lo: int) -> np.ndarray:
        """Level lo >= 2 on the reduced set, cascaded from level 1 in one
        buffer.  Level lo - k is held at r = 2^k s, s = 0..F/2^(k+1): its
        transfer on unit roots of period F/2^k, whose samples past the half
        period, which the next level reads, mirror these."""
        n = self.trusted_rmax
        g = np.empty(n + 1 + n // 2, complex)
        m = (self.F >> lo) + 1
        _horner(g1 * 2.0**-0.5, _unit_roots(m, self.F >> (lo - 1)), g[:m])
        for k in range(lo - 1, 1, -1):  # level lo - k to lo - k + 1, at r = 2^(k-1) s
            np.conjugate(g[m - 2 :: -1], out=g[m : 2 * m - 1])
            m = 2 * m - 1
            # H at r = 2^(k-1) s: h[r] up to F/4, then h[n + j] at r = F/4 + 2j
            g[: m // 2 + 1] *= h[: n + 1 : 2 ** (k - 1)]
            g[m // 2 + 1 : m] *= h[n + 2 ** (k - 2) :: 2 ** (k - 2)]
        np.conjugate(g[n - 2 :: -2], out=g[n + 1 :])
        g *= h
        return g

    def _double(self, g: np.ndarray, last: bool) -> None:
        """g[r] <- g[2r] in place on the reduced set, or on r <= F/4 alone
        when `last`.  The copies forward (g[r] <- g[2r], r <= F/8) go in
        disjoint doubling blocks, so none needs a temporary."""
        n, e = self.trusted_rmax, self.trusted_rmax // 2
        if not last:
            # r = F/4 + 2k reads conj(G[F/2 - 4k]), the multiples of 4 below F/2
            tail = np.empty(e, complex)
            up = tail[::-1]
            up[: e // 2 + 1] = g[0 : n + 1 : 4]
            up[e // 2 + 1 :] = g[n + 2 : n + e : 2]
            np.conjugate(tail, out=tail)
        b = 1
        while b < e:
            g[b : 2 * b] = g[2 * b : 4 * b : 2]
            b *= 2
        g[e] = g[n]
        g[e + 1 : n + 1] = g[n + 1 :]  # 2r in (F/4, F/2]: the even tail
        if not last:
            g[n + 1 :] = tail

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


def _cov_q_integrals(shape: _LimitShape, d: float, K: int, p: int):
    """For m = 0..p, the offset-m integral
    sum_{v=0}^{2^m - 1} int_0^{2 pi} |sum_l phi(x) e^{-i 2^-m v x}|^2 dlam
    with x = lam + 2 pi l and phi(x) = |x|^{-2(d+K)} g_inf(x) conj(g_inf(2^-m x)),
    by the midpoint rule at x_k = pi k / S, k odd, over the trusted zone
    |k| < F/4; the factors of phi that do not depend on m are formed once.

    The phase at x_k depends only on k mod N, N = 2 S 2^m.  Writing the
    shells as l = l1 + 2^m l2 turns the sum over v into a 2^m-point DFT
    over l1, which Parseval collapses: the value is
    2^m (2 pi / S) sum_{k' odd} |c_k'|^2, with c the samples phi(x_k) folded
    modulo N.  Yields (value, tail change), the tail change being the
    relative change of the value when the outer half of the zone is dropped.
    """
    S, n = shape.S, shape.trusted_rmax

    def fold(a: np.ndarray, m: int) -> float:
        half = S * 2**m  # odd residues modulo N
        # zero-padded to whole periods: deep offsets have more residues than samples
        a = np.concatenate([a, np.zeros(-len(a) % half, complex)]).reshape(-1, half).sum(axis=0)
        # phi(-x) = conj(phi(x)): residue of -k is N - k
        c = a + np.conj(a[::-1])
        return 2**m * (2.0 * math.pi / S) * float(np.vdot(c, c).real)

    base = (math.pi / S * np.arange(1, n, 2)) ** (-2.0 * (d + K)) * shape.odd[0]
    for m in range(p + 1):
        phi = base * np.conj(shape.odd[m])
        total = fold(phi, m)
        yield total, abs(total - fold(phi[: len(phi) // 2], m)) / total


@dataclass(frozen=True)
class LimitLaw:
    """Distributional constants for the estimator's fluctuation limit.

    Every constant is a deterministic quadrature of the bank's sampled
    limit shape; `provenance` records the grid (S, J) and, at rank one,
    each offset's `tail_change`: the relative change of its cov_Q integral
    when the outer half of the trusted zone is dropped, a measure of the
    error from standing level J in for the limit shape.  A law is the memo's
    own object, so its cov_Q is read-only."""

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
    return _limit_law(bank, params.d, params.K, q0, p)


@lru_cache(maxsize=16)  # keyed on the bank's identity: build_bank returns one per (family, jmax)
def _limit_law(bank: FilterBank, d: float, K: int, q0: int, p: int) -> LimitLaw:
    shape = _LimitShape(bank, p if q0 == 1 else 0)
    w = regression_weights(p)
    if q0 == 1:
        L1 = _lp_integral(shape, 1, d, K)
        ints, tails = zip(*_cov_q_integrals(shape, d, K, p))
        cov = np.empty((p + 1, p + 1))
        for u in range(p + 1):
            for up in range(u, p + 1):
                m = up - u
                val = 4.0 * math.pi * 2.0 ** (2.0 * (d + K) * m - up - m) / L1**2 * ints[m]
                cov[u, up] = cov[up, u] = val
        # estimator uses scale j0+i = jc-(p-i): offset u = p-i
        var = float(w[::-1] @ cov @ w[::-1])
        cov.setflags(write=False)
        if var <= 0:
            raise QuadratureError("estimator variance came out nonpositive")
        return LimitLaw(
            kind="gaussian", q0=1, d=d, K=K, p=p, u_N_exponent=0.5,
            cov_Q=cov, sigma_d0=math.sqrt(var),
            L_values={"L1": L1},
            provenance={"S": shape.S, "J": shape.J, "tail_change": tails},
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
    Being symmetric Toeplitz, it is centrosymmetric: with m even, its
    eigenvalues are those of the m/2-square blocks A + BJ and A - BJ (A, B
    its top-left and top-right blocks, J the exchange), solved in one call.
    A centred Gaussian carries the rest of the closed-form variance.  The
    characteristic function phi is sampled once on the trapezoid grid of
    the Gil-Pelaez inversion; quantiles found from it are kept by prob."""

    def __init__(self, d: float, m: int):
        F = np.abs(np.arange(-1.0, m + 1.0)) ** (2 * d + 1) / (2 * d * (2 * d + 1))
        c_d = 2.0 * math.gamma(1.0 - 2.0 * d) * math.sin(math.pi * d)
        row = F[2:] - 2.0 * F[1:-1] + F[:-2]
        i = np.arange(m // 2)
        a, bj = row[np.abs(i[:, None] - i)], row[m - 1 - i[:, None] - i]  # bj: Hankel
        lam = c_d * m ** (-2.0 * d) * np.sort(np.linalg.eigvalsh(np.stack([a + bj, a - bj])).ravel())
        self.m, self.var = m, c_d**2 / (d * (4.0 * d - 1.0))
        self.tail_var = self.var - 2.0 * float(lam @ lam)
        self.sd = math.sqrt(self.var)
        # the trapezoid aliases mass lying 2 pi / h away from y: put that
        # 40 sd below, and 40 scales of the exp(-x / (2 lam_max)) tail above
        self.h = 2.0 * math.pi / (40.0 * (self.sd + 2.0 * float(np.abs(lam).max())))
        t_max = _bisect(lambda t: -0.25 * np.log1p(4.0 * t * t * lam**2).sum()
                        - 0.5 * self.tail_var * t * t > _LOG_CF_CUTOFF, 0.0, 1.0)
        t = self.h * np.arange(1, math.ceil(t_max / self.h) + 1)
        # log(1 - 2itl) = log1p(4 t^2 l^2) / 2 - i atan(2tl), summed over l
        # 256 steps at a time to bound the (steps, eigenvalues) temporary
        re, im = np.empty_like(t), np.empty_like(t)
        for i in range(0, len(t), 256):
            x = np.multiply.outer(2.0 * t[i : i + 256], lam)
            im[i : i + 256] = np.arctan(x).sum(axis=1)
            re[i : i + 256] = np.log1p(np.square(x, out=x)).sum(axis=1)
        log_cf = (-0.5 * self.tail_var * t * t - 0.25 * re) + 1j * (0.5 * im - t * lam.sum())
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
        red_ratio = n_base * 2.0 ** (-jc * nu_val)  # underflows to 0 at large nu_c
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
