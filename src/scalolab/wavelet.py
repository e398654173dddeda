"""Dyadic wavelet filter banks, wavelet coefficients, and scalograms.

A bank is an orthonormal Daubechies-type mirror pair (h, g) with M vanishing
moments.  The scale-j filter is the cascade g_{j+1}(z) = g_j(z^2) h(z) from
g_1 = g, whose transfer functions, rescaled by gamma_j^(1/2), converge to a
limit shape; no code forms its taps, since the Mallat pyramid and the limit
law both run on the base pair.  Each g_j keeps g's factor (1 - z)^M, so
building a bank checks g's vanishing moments to _MOMENT_TOL.

W_{j,k} = sum_t g_j(2^j k - t) Y_t is computed with interior taps only, for
all scales of a series in one Mallat pyramid pass.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FilterValidationError, NumericError, ScaleTooCoarseError

_MOMENT_TOL = 1e-8


def daubechies_scaling(M: int) -> np.ndarray:
    """Orthonormal scaling filter with M vanishing moments (length 2M).

    Built by spectral factorisation: the roots of the moment polynomial
    P(y) = sum_{k<M} C(M-1+k, k) y^k are mapped to the z-plane through
    y = (2 - z - 1/z)/4 and the minimum-phase half is kept alongside the
    (1+z)^M binomial factor.  Normalised so the taps sum to sqrt(2).
    """
    if M < 1:
        raise ValueError("need at least one vanishing moment")
    if M == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)
    pc = [math.comb(M - 1 + k, k) for k in range(M)]
    yroots = np.roots(pc[::-1])
    poly = np.poly1d([1.0])
    for y in yroots:
        b = 2.0 - 4.0 * y
        disc = np.sqrt(complex(b * b - 4.0))
        z1, z2 = (b + disc) / 2.0, (b - disc) / 2.0
        z = z1 if abs(z1) < 1.0 else z2
        poly = poly * np.poly1d([1.0, -z])
    poly = poly * np.poly1d([1.0, 1.0]) ** M
    h = np.real(poly.coeffs)
    return h * (math.sqrt(2.0) / h.sum())


def mirror_highpass(h: np.ndarray) -> np.ndarray:
    """Quadrature mirror of the scaling filter: g[n] = (-1)^n h[L-1-n]."""
    n = np.arange(len(h))
    return ((-1.0) ** n) * h[::-1]


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Read-only base pair (h, g) with M vanishing moments, for scales j = 1..jmax, gamma_j = 2^j."""

    M: int
    jmax: int
    scaling: np.ndarray
    highpass: np.ndarray
    T: int  # support length of the base pair (2M)

    def filter_length(self, j: int) -> int:
        """Number of taps of g_j."""
        if not (1 <= j <= self.jmax):
            raise ScaleTooCoarseError(f"scale {j} outside built range 1..{self.jmax}")
        return _filter_length(self.T, j)


def _filter_length(T: int, j: int) -> int:
    """Number of taps of g_j for a base pair of support T: (2^j - 1)(T - 1) + 1."""
    return (2**j - 1) * (T - 1) + 1


def _parse_family(family: str) -> int:
    fam = family.lower().strip()
    if fam in ("haar", "db1"):
        return 1
    if fam.startswith("db"):
        try:
            M = int(fam[2:])
        except ValueError:
            raise FilterValidationError(f"cannot parse family {family!r}") from None
        if M < 1:
            raise FilterValidationError("vanishing-moment order must be >= 1")
        return M
    raise FilterValidationError(f"unknown filter family {family!r}")


def _check_moments(g: np.ndarray, M: int) -> None:
    """Raise unless g has M vanishing moments, each moment normalised by the
    moment of |g|."""
    worst = 0.0
    t = np.arange(len(g), dtype=float)
    for m in range(M):
        num = abs(float(np.dot(t**m, g)))
        den = float(np.dot(t**m, np.abs(g))) + 1.0
        worst = max(worst, num / den)
    if worst > _MOMENT_TOL:
        raise FilterValidationError(
            f"vanishing moments: normalised moment residual {worst:.2e} exceeds "
            f"{_MOMENT_TOL:.0e} (uniform-smoothness envelope cannot hold at order {M})"
        )


def build_bank(family: str = "db2", jmax: int = 10) -> FilterBank:
    """Base pair of a Daubechies-type family, built once per (M, jmax): `haar` is `db1`.

    Raises FilterValidationError when the family is unknown or its taps
    lose their vanishing moments (db34 does, in floating point); consumers
    that need a specific moment order check M themselves.
    """
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    return _built_bank(_parse_family(family), operator.index(jmax))


@lru_cache(maxsize=None)
def _built_bank(M: int, jmax: int) -> FilterBank:
    h = daubechies_scaling(M)
    g = mirror_highpass(h)
    _check_moments(g, M)
    for taps in (h, g):
        taps.setflags(write=False)
    return FilterBank(M=M, jmax=jmax, scaling=h, highpass=g, T=2 * M)


def n_coeffs(N: int, T: int, j: int) -> int:
    """Number of wavelet coefficients at scale j from N observations with a
    base support of length T: floor(2^-j (N - T + 1) - T + 1).

    Raises ScaleTooCoarseError when fewer than one coefficient remains.
    """
    if N < 1 or T < 1 or j < 0:
        raise ValueError("N, T must be positive and j >= 0")
    n = math.floor(2.0 ** (-j) * (N - T + 1) - T + 1)
    if n < 1:
        raise ScaleTooCoarseError(
            f"scale {j} leaves {n} coefficient(s) for N={N}, T={T}"
        )
    return n


def wavelet_coeffs(series, bank: FilterBank, scales) -> dict:
    """{j: values} for the requested scales from one pass, values[i] =
    W_{j, k_j + i} over the first n_j interior coefficients of scale j, k_j
    its smallest interior location; no padding is ever applied.

    Raises ScaleTooCoarseError unless every filter fits in N/4 taps, which
    leaves each scale at least its n_j interior coefficients.

    The approximation a[n] = sum_t phi_i(2^i n - t) Y_t, with phi_i(z) =
    prod_{l<i} h(z^(2^l)), is held on its interior n = lo, lo + 1, ...
    Filtering it with g (or h) and keeping even absolute positions 2n gives
    scale i+1 (or the next approximation), starting at ceil((lo + T - 1)/2).
    """
    series = np.asarray(series, dtype=float)
    N, T = len(series), bank.T
    for j in scales:
        if bank.filter_length(j) > N // 4:
            raise ScaleTooCoarseError(
                f"scale {j} filter ({bank.filter_length(j)} taps) too long for N={N} (cap N/4)"
            )
    top, a, lo = max(scales), series, 0
    out = {}
    for j in range(1, top + 1):
        k_min = (lo + T) // 2
        # np 'valid' convolution: entry s is the filter output at absolute
        # position lo + s + T - 1, so even positions start at s = first
        first = 2 * k_min - lo - (T - 1)
        if j in scales:
            out[j] = np.convolve(a, bank.highpass, "valid")[first::2][: n_coeffs(N, T, j)]
        if j < top:
            a = np.convolve(a, bank.scaling, "valid")[first::2]
        lo = k_min
    return out


@dataclass
class ScalogramSummary:
    """Per-scale second-moment summary of the wavelet coefficients."""

    j: int
    n: int
    sigma2: float


def scalograms(series, bank: FilterBank, scales) -> list:
    """Scalograms of the given scales, in order, from one pyramid pass, each
    over the first n_j interior coefficients of its scale."""
    scales = list(scales)
    with np.errstate(over="ignore", invalid="ignore"):  # a value past float range is named below
        pyr = wavelet_coeffs(series, bank, scales)
        out = [ScalogramSummary(j, len(pyr[j]), float(np.mean(pyr[j] * pyr[j]))) for j in scales]
    for s in out:
        if not math.isfinite(s.sigma2):
            raise NumericError(f"scalogram at scale {s.j} is not finite: its coefficients or their squares overflow")
    return out
