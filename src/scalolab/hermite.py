"""Hermite polynomials (probabilists' convention) and expansion of a
square-integrable transform G in the Hermite basis.

A user callable is expanded by Gauss-Hermite quadrature of E[G(X) H_q(X)]
for X standard normal (`expand`); the configured transform menu has exact
coefficients (`config.GSpec.expansion`).  Both truncate with `truncated`,
and ranks are read off the thresholded coefficient map.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import NonIntegrabilityError

DEFAULT_QMAX = 40
DEFAULT_QUAD_ORDER = 256
ZERO_TOL = 1e-10


def _hermite_polys(x: np.ndarray, qmax: int):
    """H_0(x), ..., H_qmax(x) in turn, by the three-term recurrence
    H_{q+1} = x H_q - q H_{q-1}; no step is taken past H_qmax.

    H_0 is a read-only view of 1 and H_1 is x itself, never written; each
    later H is computed in place in one of at most three arrays of x's
    shape, and from H_3 on H_qmax in the array of H_{qmax-1}.  So a yielded
    array may be overwritten once the generator moves on: read it first.
    """
    yield np.broadcast_to(1.0, x.shape)
    h_prev, h, spare = 1.0, x, []  # spare: our arrays that hold no H still needed
    for q in range(1, qmax + 1):
        yield h
        if q == qmax:
            return
        new = h if q > 1 and q + 1 == qmax else spare.pop() if spare else np.empty_like(x)
        np.multiply(x, h, out=new)
        if q == 1:
            new -= 1.0  # 1 H_0
        else:  # q H_{q-1}, in its own array from H_2 on
            scaled = np.multiply(h_prev, q, out=h_prev if q > 2 else np.empty_like(x))
            new -= scaled
            spare.append(scaled)
        h_prev, h = h, new


def hermite_eval(q: int, x):
    """H_q(x), probabilists' convention: H_0 = 1, H_1 = x, H_2 = x^2 - 1.

    Accepts scalars or arrays; an array result is the caller's own, never x.
    """
    if q < 0:
        raise ValueError("Hermite index must be >= 0")
    for h in _hermite_polys(np.asarray(x, dtype=float), q):
        pass
    if q < 2:
        h = h.copy()  # a view of 1 or x itself
    return h if h.shape else float(h)


def hermite_series(coeffs: dict[int, float], x):
    """Evaluate sum_q (c_q / q!) H_q(x) with a single recurrence sweep.

    Each c_q is divided by the exact q!, so c_q = q! gives H_q to the bit.
    The first term is written into the result and the
    last is scaled in the recurrence's own array; the sum is zeros plus each
    term, to the bit."""
    x = np.asarray(x, dtype=float)
    qmax, out = max(coeffs, default=0), None
    for q, h in enumerate(_hermite_polys(x, qmax)):
        if q in coeffs:
            t = np.multiply(h, coeffs[q] / float(math.factorial(q)), out=h if 1 < q == qmax else np.empty_like(x))
            if out is None:
                out, t = t, 0.0  # t + 0.0 is zeros + t, to the sign of a zero
            out += t
    return np.zeros_like(x) if out is None else out


@lru_cache(maxsize=16)
def gauss_hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating against the standard normal density.

    The nodes are the zeros of q_n, q_k = H_k / sqrt(k!) following q_{k+1} = (x q_k - sqrt(k) q_{k-1}) / sqrt(k+1),
    whose Jacobi matrix Golub & Welsch (1969) diagonalise.  Each positive zero is bracketed by bisection on
    the Sturm count, the sign changes along q_0(x), ..., q_n(x) (Barth, Martin & Wilkinson 1967), then takes
    three Newton steps; the weights 1 / (n q_{n-1}^2) are formed in log space.  No step calls BLAS, so the
    rule is the same to the bit under any thread count.  Every q_k is finite through order 700 (past 716 the
    bisection overflows, so a higher order raises ValueError); both arrays are the memo's own, so read-only.
    """
    if order > 700:
        raise ValueError(f"Gauss-Hermite order {order} past 700, where the Sturm-count bisection overflows")
    def qs(x):  # q_0(x), ..., q_n(x), one row each
        q = np.empty((order + 1, len(x)))
        q[0], q[1] = 1.0, x
        for k in range(1, order):
            q[k + 1] = (x * q[k] - math.sqrt(k) * q[k - 1]) / math.sqrt(k + 1)
        return q

    lo, hi = np.zeros(order // 2), np.full(order // 2, 2.0 * math.sqrt(order + 1.0))  # the zeros lie below sqrt(4n+2)
    for _ in range(16):  # brackets of width 2^-16 hi, from which three Newton steps reach rounding
        s = np.signbit(qs(mid := (lo + hi) / 2))
        above = (s[1:] != s[:-1]).sum(axis=0) > np.arange(order // 2)  # the (i+1)-th largest zero lies above mid
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    x = (lo + hi) / 2
    for _ in range(3):  # Newton, q_n' = sqrt(n) q_{n-1}
        x = x - (q := qs(x))[-1] / (math.sqrt(order) * q[-2])
    x = np.concatenate((-x, [0.0] * (order % 2), x[::-1]))  # q_n(-x) = (-1)^n q_n(x)
    w = np.exp(-math.log(order) - 2.0 * np.log(np.abs(qs(x)[-2])))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass
class HermiteExpansion:
    """Thresholded Hermite coefficient map of a centered transform.

    coeffs maps rank q >= 1 to c_q = E[G(X) H_q(X)]; exact zeros are
    dropped.  parseval_mass is sum c_q^2/q!, which equals second_moment,
    E[G(X)^2], when the truncation captures everything.  mean_shift records
    the constant subtracted by auto-centering (0 when G was already centered).
    """

    coeffs: dict[int, float]
    parseval_mass: float
    mean_shift: float = 0.0
    second_moment: float = field(default=float("nan"))

    def nonzero_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def __call__(self, x):
        return hermite_series(self.coeffs, x)


def expand(G: Callable[[np.ndarray], np.ndarray]) -> HermiteExpansion:
    """Expand G in Hermite polynomials H_1..H_DEFAULT_QMAX by Gauss-Hermite
    quadrature of order m = DEFAULT_QUAD_ORDER.

    The rule of order m is exact for polynomial integrands up to degree
    2m-1, so polynomial transforms up to degree DEFAULT_QMAX are expanded
    exactly (to rounding).  A nonzero mean is subtracted automatically with a
    warning, since the downstream theory assumes E[G(X)] = 0.  `truncated`
    sets the quadrature noise to exact zero, which would otherwise corrupt
    the gap sets.

    Raises NonIntegrabilityError when the second moment fails to stabilise
    between quadrature orders m and 2m.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        (x, w), (x2, w2) = gauss_hermite_rule(DEFAULT_QUAD_ORDER), gauss_hermite_rule(2 * DEFAULT_QUAD_ORDER)
        # G may write into its argument, or return a scalar
        gx, gx2 = (np.broadcast_to(np.asarray(G(t.copy()), dtype=float), t.shape).astype(float)
                   for t in (x, x2))
        m2_raw, m2_ref = float(w @ gx**2), float(w2 @ gx2**2)
    if not (np.isfinite(m2_raw) and np.isfinite(m2_ref)):
        raise NonIntegrabilityError("E[G(X)^2] is not finite under quadrature")
    if m2_ref > 2.0 * m2_raw + 1.0:
        raise NonIntegrabilityError(
            f"second moment grows under refinement ({m2_raw:.6g} -> {m2_ref:.6g}); "
            "G does not appear square-integrable against the normal density"
        )

    scale = math.sqrt(max(m2_ref, 1.0))
    mean = float(w2 @ gx2)
    mean_shift = 0.0
    if abs(mean) > ZERO_TOL * scale:
        warnings.warn(
            f"transform has nonzero mean {mean:.3g} under N(0,1); auto-centering",
            stacklevel=2,
        )
        mean_shift = mean
    gx = gx - mean_shift

    coeffs = {q: float(w @ (gx * h)) for q, h in enumerate(_hermite_polys(x, DEFAULT_QMAX)) if q}
    return truncated(coeffs, m2_ref - mean_shift**2, mean_shift)


def truncated(coeffs: dict[int, float], second_moment: float, mean_shift: float = 0.0) -> HermiteExpansion:
    """The expansion keeping each c_q with |c_q|/sqrt(q!) >= ZERO_TOL * max(1, ||G + mean_shift||_2).

    Rank extraction requires honest zeros: a coefficient under the floor,
    relative to the L2 norm of the uncentred G, is set to exact zero.
    """
    threshold = ZERO_TOL * max(1.0, math.sqrt(second_moment + mean_shift**2))
    kept = {q: c for q, c in coeffs.items() if abs(c) / math.sqrt(math.factorial(q)) >= threshold}
    mass = sum(c * c / math.factorial(q) for q, c in kept.items())
    return HermiteExpansion(kept, mass, mean_shift, second_moment)


def expansion_from_coeffs(coeffs: dict[int, float]) -> HermiteExpansion:
    """Wrap an explicit coefficient map (already centered, ranks >= 1)."""
    clean = {int(q): float(c) for q, c in coeffs.items() if c != 0.0}
    if any(q < 1 for q in clean):
        raise ValueError("expansion ranks must be >= 1 (centered transform)")
    if not clean:
        raise ValueError("coefficient map has no nonzero entry")
    mass = sum(c * c / math.factorial(q) for q, c in clean.items())
    return HermiteExpansion(clean, mass, second_moment=mass)


def hermite_rank(expansion: HermiteExpansion) -> tuple[int, Optional[int]]:
    """Leading rank q0 and next nonzero rank q1 (None when single-term)."""
    idx = expansion.nonzero_indices()
    if not idx:
        raise ValueError("expansion has no nonzero coefficient")
    return idx[0], (idx[1] if len(idx) > 1 else None)

