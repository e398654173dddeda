"""Hermite polynomials (probabilists' convention) and numerical expansion
of a square-integrable transform G in the Hermite basis.

Coefficients are computed by Gauss-Hermite quadrature of E[G(X) H_q(X)]
for X standard normal; ranks are read off the thresholded coefficient map.
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


def hermite_eval(q: int, x):
    """H_q(x) by the three-term recurrence H_{q+1} = x H_q - q H_{q-1}.

    Probabilists' convention: H_0 = 1, H_1 = x, H_2 = x^2 - 1.
    Accepts scalars or arrays.
    """
    if q < 0:
        raise ValueError("Hermite index must be >= 0")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if q == 0:
        return h_prev if h_prev.shape else float(h_prev)
    h = x.copy()
    for k in range(1, q):
        h_prev, h = h, x * h - k * h_prev
    return h if h.shape else float(h)


def hermite_series(coeffs: dict[int, float], x):
    """Evaluate sum_q (c_q / q!) H_q(x) with a single recurrence sweep."""
    x = np.asarray(x, dtype=float)
    if not coeffs:
        return np.zeros_like(x)
    qmax = max(coeffs)
    out = np.zeros_like(x)
    h_prev = np.ones_like(x)  # H_0
    h = x.copy()  # H_1
    if 0 in coeffs:
        out += coeffs[0] * h_prev
    fact = 1.0
    for q in range(1, qmax + 1):
        fact *= q
        if q in coeffs:
            out += (coeffs[q] / fact) * h
        h_prev, h = h, x * h - q * h_prev
    return out


@lru_cache(maxsize=16)
def gauss_hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights integrating against the standard normal density.

    Golub-Welsch applied to the probabilists' recurrence (scipy's
    roots_hermitenorm stays stable past order 512, where numpy's variant
    overflows); rescaling the weights by sqrt(2*pi) turns the e^{-x^2/2}
    weight into the N(0,1) density.
    """
    from scipy.special import roots_hermitenorm

    x, w = roots_hermitenorm(order)
    return x, w / math.sqrt(2.0 * math.pi)


@dataclass
class HermiteExpansion:
    """Thresholded Hermite coefficient map of a centered transform.

    coeffs maps rank q >= 1 to c_q = E[G(X) H_q(X)]; exact zeros are
    dropped.  parseval_mass is sum c_q^2/q!, which equals E[G(X)^2] when
    the truncation captures everything.  mean_shift records the constant
    subtracted by auto-centering (0 when G was already centered).
    """

    coeffs: dict[int, float]
    qmax: int
    parseval_mass: float
    quadrature_order: int
    mean_shift: float = 0.0
    second_moment: float = field(default=float("nan"))

    def nonzero_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def __call__(self, x):
        return hermite_series(self.coeffs, x)


def expand(
    G: Callable[[np.ndarray], np.ndarray],
    qmax: int = DEFAULT_QMAX,
    quad_order: int = DEFAULT_QUAD_ORDER,
    zero_tol: float = ZERO_TOL,
) -> HermiteExpansion:
    """Expand G in Hermite polynomials by Gauss-Hermite quadrature.

    The rule of order m is exact for polynomial integrands up to degree
    2m-1, so polynomial transforms up to degree qmax are expanded exactly
    (to rounding).  A nonzero mean is subtracted automatically with a
    warning, since the downstream theory assumes E[G(X)] = 0.  Coefficients
    with |c_q|/sqrt(q!) below zero_tol (relative to the L2 norm of G) are
    set to exact zero: rank extraction requires honest zeros, and leaving
    quadrature noise in place would corrupt the gap sets.

    Raises NonIntegrabilityError when the second moment fails to stabilise
    between quadrature orders m and 2m.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, w = gauss_hermite_rule(quad_order)
        gx = np.asarray(G(x), dtype=float)
        if gx.shape != x.shape:
            gx = np.broadcast_to(gx, x.shape).astype(float)
        m2_raw = float(w @ gx**2)

        x2, w2 = gauss_hermite_rule(2 * quad_order)
        gx2 = np.asarray(G(x2), dtype=float)
        if gx2.shape != x2.shape:
            gx2 = np.broadcast_to(gx2, x2.shape).astype(float)
        m2_ref = float(w2 @ gx2**2)
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
    if abs(mean) > zero_tol * scale:
        warnings.warn(
            f"transform has nonzero mean {mean:.3g} under N(0,1); auto-centering",
            stacklevel=2,
        )
        mean_shift = mean
    gx = gx - mean_shift

    coeffs: dict[int, float] = {}
    h_prev = np.ones_like(x)
    h = x.copy()
    fact = 1.0
    threshold = zero_tol * max(1.0, scale)
    for q in range(1, qmax + 1):
        fact *= q
        cq = float(w @ (gx * h))
        if abs(cq) / math.sqrt(fact) >= threshold:
            coeffs[q] = cq
        h_prev, h = h, x * h - q * h_prev

    mass = sum(c * c / math.factorial(q) for q, c in coeffs.items())
    return HermiteExpansion(
        coeffs=coeffs,
        qmax=qmax,
        parseval_mass=mass,
        quadrature_order=quad_order,
        mean_shift=mean_shift,
        second_moment=m2_ref - mean_shift**2,
    )


def expansion_from_coeffs(coeffs: dict[int, float], qmax: Optional[int] = None) -> HermiteExpansion:
    """Wrap an explicit coefficient map (already centered, ranks >= 1)."""
    clean = {int(q): float(c) for q, c in coeffs.items() if c != 0.0}
    if any(q < 1 for q in clean):
        raise ValueError("expansion ranks must be >= 1 (centered transform)")
    if not clean:
        raise ValueError("coefficient map has no nonzero entry")
    qm = qmax if qmax is not None else max(clean)
    mass = sum(c * c / math.factorial(q) for q, c in clean.items())
    return HermiteExpansion(clean, qm, mass, quadrature_order=0, second_moment=mass)


def hermite_rank(expansion: HermiteExpansion) -> tuple[int, Optional[int]]:
    """Leading rank q0 and next nonzero rank q1 (None when single-term)."""
    idx = expansion.nonzero_indices()
    if not idx:
        raise ValueError("expansion has no nonzero coefficient")
    return idx[0], (idx[1] if len(idx) > 1 else None)

