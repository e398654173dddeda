"""Log-scale regression estimation of the memory parameter, asymptotic
limit-law constants, the second-chaos (Rosenblatt) law and its
deterministic quantile, and the two-sided hypothesis test on the memory
parameter.

The estimator is d0_hat = sum_i w_i log sigma2_hat_{j0+i} with least-squares
contrast weights satisfying sum w_i = 0 and sum i w_i = 1/(2 log 2), so a
log2-linear scalogram maps to its slope/2.  Its fluctuation limit is
Gaussian when the leading Hermite rank is 1 and Rosenblatt otherwise; the
constants of both laws are deterministic quadratures of the filter bank's
limit shape (no Monte Carlo, no seed), sampled over its trusted zone only,
with no FFT and in one pass of fixed-size strips: in each strip the product
formula of Moulines, Roueff & Taqqu (2007) gives every level from three
factors of the scaling filter, evaluated by Horner's rule, and a coarser
level read from small tables that the wavelet cascade fills on a grid 8
times coarser.  At rank one each offset's covariance is the lag-domain sum
of the limit wavelet spectral density, its shape samples folded strip by
strip into one accumulator per offset; at rank >= 2 the shape integrals
reduce to one dimension.
"""

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    DegenerateScalogramError,
    FilterValidationError,
    InvalidTargetError,
    NumericError,
    QuadratureError,
    ScaleTooCoarseError,
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


def d0_from_scalograms(sigma2s) -> float:
    """Apply the contrast weights to given per-scale scalogram values."""
    s2 = np.asarray(sigma2s, dtype=float)
    bad = np.flatnonzero(~np.isfinite(s2))
    if bad.size:
        raise NumericError(f"scalogram value at position {bad[0]} is not finite ({float(s2[bad[0]])})")
    if np.any(s2 <= 0.0):
        raise DegenerateScalogramError("scalogram values must be positive for log regression")
    w = regression_weights(len(s2) - 1)
    return float(w @ np.log(s2))


def require_moments(bank: FilterBank, params: MemoryParams, q0: int):
    """Rejects a bank with fewer than K + delta(q0) vanishing moments, below
    which the scalogram slope does not estimate d0 = K + delta(q0)."""
    need = params.K + delta(q0, params.d)
    if bank.M < need:
        raise FilterValidationError(f"bank has M={bank.M} vanishing moments; theory requires M >= {need:.3g}")


def estimate_d0(series, bank: FilterBank, j0: int, p: int, K: int = 0) -> EstimationReport:
    """Memory-parameter estimate from scales j0..j0+p of Y = Sigma^K series alone.

    The report's predicted rates depend on the model: estimate mode sets
    them, and here they stay unset."""
    sums = scalograms(series, bank, range(j0, j0 + p + 1), K)
    s2 = [s.sigma2 for s in sums]
    return EstimationReport(
        d0_hat=d0_from_scalograms(s2),  # raises on a zero scalogram value
        j0=j0, p=p, n=[s.n for s in sums], sigma2=s2, weights=list(regression_weights(p)),
    )


# --- limit-law constants ---------------------------------------------------


_GRID_S = 1024  # grid points per pi of absolute frequency
_SHAPE_J = 11  # deepest filter level standing in for the limit shape
_TAIL_TOL = 1e-4  # largest share of a shape integral its outer half may carry
_STRIP = 2**15  # shape samples per strip


def _unit_roots(out: np.ndarray, period: int) -> np.ndarray:
    """out[t] <- exp(-2 pi i t / period), t = 0..len(out)-1, each the
    product of a coarse and a fine table entry (t = 1024 a + b): two short
    `exp` tables instead of one over every t."""
    rows, rest = divmod(len(out), 1024)
    coarse = np.exp(-2j * math.pi * 1024 / period * np.arange(rows + 1))
    fine = np.exp(-2j * math.pi / period * np.arange(1024))
    np.multiply.outer(coarse[:rows], fine, out=out[: 1024 * rows].reshape(rows, 1024))
    np.multiply(coarse[rows], fine[:rest], out=out[1024 * rows :])
    return out


def _horner(c: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    """out <- sum_k c_k z^k, in place."""
    out[:] = c[-1]
    for ck in c[-2::-1]:
        out *= z
        out += ck


class _ShapeStrips:
    """Limit transfer shape g_inf and its coarser levels at x_r = pi r / S,
    r = 1..F/4 (F = 2 S 2^J), a strip of B points at a time, with no
    transform and no array over the whole grid.

    Level J stands in for the limit: G_J[r] = 2^(-J/2) g_J-hat(2 pi r / F)
    over the trusted zone r <= F/4, the |omega| <= pi/2 of the filter's
    fundamental domain, beyond which the 2 pi-periodic transfer no longer
    approximates the decaying limit shape.  g_inf(2^-m x) is level J - m,
    read at the odd r alone, m = 0..depth.  By the product formula of
    Moulines, Roueff & Taqqu (2007), G_j[r] = H[r] H[2r] H[4r] G_{j-3}[8r]
    (H the scaling filter's transfer, by Horner's rule in each strip), and
    G_{j-3}[8r] repeats every F/8 and mirrors by conjugation past F/16 (the
    taps are real): the rows of `tables` hold levels j - 3 at the F/16 + 1
    multiples of 8 of half a period, cascaded from level 1 by
    G_{j+1}[8m] = G_j[16m] H[8m].  A level j <= 3 is
    H[r]..H[2^(j-2) r] G_1[2^(j-1) r], all by Horner's rule.
    """

    def __init__(self, bank: FilterBank, depth: int = 0):
        self.S = _GRID_S
        self.J = J = min(bank.jmax, _SHAPE_J)
        self.F = 2 * self.S * 2**J
        self.trusted_rmax = self.F // 4
        self.depth, self.lo = depth, J - depth
        if self.lo < 1:
            raise ScaleTooCoarseError(f"bank too shallow: offset {depth} needs filters down to level {self.lo}; "
                                      f"the rank-one limit law takes p < min(jmax, {_SHAPE_J}) = {J}")
        self.B = min(_STRIP, self.F // 16)
        self.h, self.g1 = bank.scaling * 2.0**-0.5, bank.highpass * 2.0**-0.5
        self.tlo = max(self.lo, 4) - 3  # rows hold levels tlo..J-3
        self.tables = self._tables() if J >= 4 else None

    def _tables(self) -> np.ndarray:
        """Levels below tlo pass through rows 0 and 1 (or a spare) in turn."""
        e, tlo, thi = self.F // 16, self.tlo, self.J - 3
        z, H = np.empty(e + 1, complex), np.empty(e + 1, complex)
        _horner(self.h, _unit_roots(z, 2 * e), H)
        rows = np.empty((thi - tlo + 1, e + 1), complex)
        spare = (rows[0], rows[1] if thi > tlo else np.empty(e + 1, complex))
        at = [None] + [spare[(tlo - j) % 2] for j in range(1, tlo)] + list(rows)  # level j's buffer
        _horner(self.g1, z, at[1])
        for j in range(1, thi):
            cur, nxt = at[j], at[j + 1]
            np.multiply(cur[::2], H[: e // 2 + 1], out=nxt[: e // 2 + 1])
            # past the half period, G_j[16m] = conj(G_j[F - 16m])
            np.conjugate(cur[e - 2 :: -2], out=nxt[e // 2 + 1 :])
            nxt[e // 2 + 1 :] *= H[e // 2 + 1 :]
        return rows

    def strips(self):
        """Yields (r0, g, odd) for r = r0+1..r0+B: g holds G_J there and
        odd[m] holds G_{J-m} at the odd r, m = 0..depth.  The next strip
        overwrites the arrays."""
        B, J, lo, e = self.B, self.J, self.lo, self.F // 16
        fine = _unit_roots(np.empty(B + 1, complex), self.F)[1:]
        z, a, t, g = (np.empty(B, complex) for _ in range(4))
        odd = [g[::2]] + [np.empty(B // 2, complex) for _ in range(self.depth)]
        level = [(g, 1)] + [(o, 2) for o in odd[1:]]  # level J - m, on every r or on the odd ones
        for r0 in range(0, self.trusted_rmax, B):
            np.multiply(fine, cmath.exp(-2j * math.pi * r0 / self.F), out=z)
            a[:] = 1.0
            for k in range(min(J, 3)):  # z = e^{-2 pi i 2^k r / F}, a = H[r]..H[2^(k-1) r]
                if k + 1 >= lo:
                    out, st = level[J - k - 1]
                    _horner(self.g1, z[::st], out)
                    out *= a[::st]
                _horner(self.h, z, t)
                a *= t
                z *= z
            # a strip lies in one quarter [qE, (q+1)E] of a period of G[8r],
            # E = F/16: G[8r] = row[r - qE] for q even, conj(row[(q+1)E - r]) for q odd
            q, o = divmod(r0, e)
            for j in range(max(lo, 4), J + 1):
                (out, st), row = level[J - j], self.tables[j - 3 - self.tlo]
                if q % 2:
                    np.conjugate(row[e - o - B : e - o][::-st], out=out)
                    out *= a[::st]
                else:
                    np.multiply(a[::st], row[o + 1 : o + B + 1 : st], out=out)
            yield r0, g, odd


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


def _lp_integral(p: int, d: float, half: float, total: float) -> float:
    """L_p = int_{R^p} |g_inf(u_1+..+u_p)|^2 |sum u|^(-2K) prod |u_i|^(-2d) du.

    The integrand depends on u only through s = sum u, so L_p = C_p(d) times
    int_R |g_inf(s)|^2 |s|^(-2(delta(p, d)+K)) ds, whose Riemann sums on
    the grid and its inner half are given: the integrand vanishes at 0
    (M > delta + K), and the outer half must contribute negligibly."""
    c_p = _riesz_constant(p, d)
    if total <= 0.0:
        raise QuadratureError("limit-shape integral collapsed to zero")
    if total - half > _TAIL_TOL * total:
        raise QuadratureError(
            f"limit-shape integral tail {(total - half) / total:.2e} above tolerance; "
            "decay of the transfer function is too slow"
        )
    return c_p * total


def _shape_sums(shape: _ShapeStrips, exps: list, fold: bool):
    """One pass over the shape's strips: for each exponent e, the Riemann
    sums (half, total) of int_R |g_inf(x)|^2 |x|^(-e) dx over r = 1..n/2
    and r = 1..n (n = F/4).  With `fold`, also each offset's (value, tail
    change: the value's relative change when r > n/2 is dropped),
    m = 0..depth, of sum_{v<2^m} int_0^{2 pi} |sum_l phi(x) e^{-i 2^-m v x}|^2
    dlam, x = lam + 2 pi l, phi(x) = |x|^(-e) g_inf(x) conj(g_inf(2^-m x)),
    e = exps[0] = 2(d + K), by the midpoint rule at x_k = pi k / S, k odd,
    |k| < F/4.  The phase at x_k depends only on k mod N, N = 2 S 2^m;
    shells l = l1 + 2^m l2 turn the sum over v into a 2^m-point DFT over l1,
    which Parseval collapses to 2^m (2 pi / S) sum_{k' odd} |c_k'|^2, c the
    samples phi(x_k) folded modulo N, to which each strip adds its own.
    """
    S, n, B, step = shape.S, shape.trusted_rmax, shape.B, math.pi / shape.S
    sums = np.zeros(len(exps))
    acc = [np.zeros(S * 2**m, complex) for m in range(shape.depth + 1 if fold else 0)]  # odd residues
    phi = np.empty(B // 2, complex)

    def folded() -> list:
        # phi(-x) = conj(phi(x)) puts the residue of -k at N - k
        cs = (a + np.conj(a[::-1]) for a in acc)
        return [2**m * (2.0 * math.pi / S) * float(np.vdot(c, c).real) for m, c in enumerate(cs)]

    for r0, g, odd in shape.strips():
        x = step * np.arange(r0 + 1, r0 + B + 1)
        g2 = np.square(g.real) + np.square(g.imag)
        for i, e in enumerate(exps):
            w = x ** -e
            if fold and i == 0:
                base = w[::2] * odd[0]
            w *= g2
            sums[i] += w.sum()
        for m, a in enumerate(acc):
            np.multiply(base, np.conjugate(odd[m], out=phi), out=phi)
            k, o = min(len(a), B // 2), r0 // 2 % len(a)
            a[o : o + k] += phi.reshape(-1, k).sum(axis=0)
        if r0 + B == n // 2:
            inner = sums.copy(), folded()
    lsums = [(2.0 * step * h, 2.0 * step * t) for h, t in zip(inner[0], sums)]
    return lsums, [(v, abs(v - h) / v) for v, h in zip(folded(), inner[1])]


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
    u_N_exponent: float  # u_N = (N 2^-jc)^u_N_exponent
    cov_Q: Optional[np.ndarray] = None  # (p+1)x(p+1), offsets u = 0..p
    sigma_d0: Optional[float] = None  # sqrt(w' cov_Q w) in estimator index order
    L_values: dict = field(default_factory=dict)
    c_scale: Optional[float] = None  # multiplies the second-chaos limit variable
    provenance: dict = field(default_factory=dict)


_TAIL_CHANGE_TOL = 0.1  # above it, an offset's integral is not resolved by the bank


@lru_cache(maxsize=16)  # keyed on the bank's identity: build_bank returns one per (M, jmax)
def limit_constants(bank: FilterBank, params: MemoryParams, q0: int, p: int) -> LimitLaw:
    """Limit-law constants for the estimator over scales jc-p..jc.

    Rank one: the per-offset covariance of the normalised scalogram
    fluctuations is integrated from the bank's limit shape, and the
    estimator variance is the contrast quadratic form in it.  Rank >= 2:
    the shape integrals L_{q0} and L_{q0-1} (`_lp_integral`, one 1-D
    quadrature each, no random draw) give the scale factor multiplying the
    second-chaos limit variable.  Memoised on the arguments (MemoryParams
    is a frozen dataclass); the returned law is shared, its arrays read-only.
    """
    if q0 < 1:
        raise ValueError("rank must be >= 1")
    d, K = params.d, params.K
    shape = _ShapeStrips(bank, p if q0 == 1 else 0)
    ranks = (1,) if q0 == 1 else (q0, q0 - 1)
    lsums, covs = _shape_sums(shape, [2.0 * (delta(q, d) + K) for q in ranks], q0 == 1)
    L = {f"L{q}": _lp_integral(q, d, *s) for q, s in zip(ranks, lsums)}
    w = regression_weights(p)
    if q0 == 1:
        ints, tails = zip(*covs)
        cov = np.empty((p + 1, p + 1))
        for u in range(p + 1):
            for up in range(u, p + 1):
                m = up - u
                val = 4.0 * math.pi * 2.0 ** (2.0 * (d + K) * m - up - m) / L["L1"] ** 2 * ints[m]
                cov[u, up] = cov[up, u] = val
        # estimator uses scale j0+i = jc-(p-i): offset u = p-i
        var = float(w[::-1] @ cov @ w[::-1])
        cov.setflags(write=False)
        if var <= 0:
            raise QuadratureError("estimator variance came out nonpositive")
        return LimitLaw(
            kind="gaussian", u_N_exponent=0.5,
            cov_Q=cov, sigma_d0=math.sqrt(var), L_values=L,
            provenance={"S": shape.S, "J": shape.J, "tail_change": tails},
        )
    # scale of the normalised fluctuation sigma2_hat/sigma2 - 1: the
    # c_{q0} dependence cancels in the ratio, leaving q0 L_{q0-1}/L_{q0}
    # (verified against simulated scalogram fluctuations across scales)
    ratio = q0 * L[f"L{q0 - 1}"] / L[f"L{q0}"]
    drift = float(np.dot(w, 2.0 ** ((2.0 * d - 1.0) * (p - np.arange(p + 1)))))
    return LimitLaw(
        kind="rosenblatt", u_N_exponent=1.0 - 2.0 * d,
        L_values=L, c_scale=ratio * drift,
        provenance={"S": shape.S, "J": shape.J},
    )


# --- second-chaos limit law ------------------------------------------------

_KERNEL_CELLS = 512  # cells discretising the kernel |x - y|^(2d-1) on [0, 1]
_LOG_CF_CUTOFF = -36.0  # the inversion integral stops where log|phi(t)| falls below
_MAX_STEPS = 2**20  # inversion grid steps: the grid grows tenfold per digit of d* nearer 1/2


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
    path whose spectral density is f*(0) |lam|^(-2d) near 0), from m cell
    averages: a Toeplitz matrix whose row is the second difference of
    |t|^(2d+1)/(2d(2d+1)).
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
        c = c_d * m ** (-2.0 * d)
        lam = c * np.sort(np.linalg.eigvalsh(np.stack([a + bj, a - bj])).ravel())
        self.m, self.var = m, c_d**2 / (d * (4.0 * d - 1.0))
        # sum lam^2 is the matrix's squared Frobenius norm: no eigen-solver rounding
        frob = m * row[0] ** 2 + 2.0 * float(((m - np.arange(1, m)) * np.square(row[1:])).sum())
        self.tail_var = self.var - 2.0 * c * c * frob
        self.sd = math.sqrt(self.var)
        # the trapezoid aliases mass lying 2 pi / h away from y: put that
        # 40 sd below, and 40 scales of the exp(-x / (2 lam_max)) tail above
        self.h = 2.0 * math.pi / (40.0 * (self.sd + 2.0 * float(np.abs(lam).max())))
        t_max = _bisect(lambda t: -0.25 * np.log1p(4.0 * t * t * lam**2).sum()
                        - 0.5 * self.tail_var * t * t > _LOG_CF_CUTOFF, 0.0, 1.0)
        steps = math.ceil(t_max / self.h)
        if steps > _MAX_STEPS:
            raise QuadratureError(f"second-chaos law at d*={d!r} needs {steps} inversion steps, past the cap "
                                  f"{_MAX_STEPS}: d0_star lies too close to its half-integer bound")
        t = self.h * np.arange(1, steps + 1)
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
    share of the variance.  The inversion grid grows tenfold for each digit
    of d nearer 1/2: past _MAX_STEPS steps (d above about 0.4998) it raises
    QuadratureError."""
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
    """Decision and full provenance of the memory-parameter test, whose reject rule is `rejects`;
    a `calibrate_test` report leaves the three series-dependent fields unset."""

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

    def rejects(self, d0_hat: float) -> bool:
        """Whether the estimate d0_hat rejects d0*: |d0_hat - d0*| > s_N."""
        return abs(d0_hat - self.d0_star) > self.s_N

    def decided(self, est: EstimationReport) -> "TestReport":
        """This calibration's report on the estimate `est`."""
        return replace(self, d0_hat=est.d0_hat, decision=self.rejects(est.d0_hat), estimation=est)


def calibrate_test(bank: FilterBank, N: int, d0_star: float, alpha: float, K_bar: int,
                   expansion: HermiteExpansion, j0: int, p: int) -> TestReport:
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
    if bank.M < d0_star:  # d0* = K* + delta(q0, d*): require_moments under the hypothesis
        raise InvalidTargetError(f"d0*={d0_star:.3g} needs a bank with M >= d0* vanishing moments, got M={bank.M}")
    jc = j0 + p
    n_base = N * 2.0**-jc
    law = limit_constants(bank, MemoryParams(d_star, K_star), q0, p)
    u_N = n_base**law.u_N_exponent

    if law.kind == "gaussian":
        for m, t in enumerate(law.provenance["tail_change"]):
            if t > _TAIL_CHANGE_TOL:
                raise QuadratureError(f"limit law offset m={m}: tail_change {t:.3g} exceeds "
                                      f"{_TAIL_CHANGE_TOL} (bank jmax too shallow for p={p})")
        from statistics import NormalDist  # loaded only by a Gaussian test

        zq = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        s_N = law.sigma_d0 * zq / u_N
        prov = {"kind": "gaussian", "sigma_d0": law.sigma_d0, **law.provenance}
    else:
        zq, prov = rosenblatt_quantile(d_star, 1.0 - alpha / 2.0)
        s_N = law.c_scale * zq / u_N
        prov = {"kind": "rosenblatt", "c_scale": law.c_scale, **prov}

    profile = rank_profile(expansion.nonzero_indices(), d_star)
    nu_c = critical_exponent_report(profile, d_star).nu_c
    nu_val, red_ratio = None, None
    if not math.isinf(nu_c):
        nu_val, red_ratio = nu_c, n_base * 2.0 ** (-jc * nu_c)  # underflows to 0 at large nu_c
    zeta_star = zeta_exponent(d_star, q0, q1)
    bias_ratio = 2.0 ** (-zeta_star * jc) * u_N
    return TestReport(
        d0_star=d0_star, alpha=alpha, d0_hat=None, s_N=float(s_N),
        decision=None, q0=q0, d_star=d_star, K_star=K_star,
        u_N=float(u_N), kind=law.kind,
        nu_c_star=nu_val, reduction_ratio=red_ratio,
        zeta_star=zeta_star, bias_ratio=float(bias_ratio),
        quantile_provenance=prov,
    )

