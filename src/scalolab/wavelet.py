"""Dyadic wavelet filter banks, wavelet coefficients, and scalograms.

A bank is an orthonormal Daubechies-type mirror pair (h, g) with M vanishing
moments.  The scale-j filter is the cascade g_{j+1}(z) = g_j(z^2) h(z) from
g_1 = g, whose transfer functions, rescaled by gamma_j^(1/2), converge to a
limit shape; no code forms its taps, since the Mallat pyramid and the limit
law both run on the base pair.  Each g_j keeps g's factor (1 - z)^M, so
building a bank checks g's vanishing moments to _MOMENT_TOL, and h's
orthonormality, which the limit law assumes, to _ORTHO_TOL.

W_{j,k} = sum_t g_j(2^j k - t) Y_t is computed with interior taps only, for
all scales of a series in one Mallat pyramid pass, also from the increments
Z of Y = Sigma^K Z: Y, whose float64 form loses log10(max|Y| / |W_j|) digits,
is never formed.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FilterValidationError, NumericError, ScaleTooCoarseError

_MOMENT_TOL = 1e-8  # of g's largest normalised moment
_ORTHO_TOL = 1e-8  # of max_m |sum_k h_k h_{k+2m} - delta_m|


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
        """Number of taps of g_j: (2^j - 1)(T - 1) + 1."""
        if not (1 <= j <= self.jmax):
            raise ScaleTooCoarseError(f"scale {j} outside built range 1..{self.jmax}")
        return (2**j - 1) * (self.T - 1) + 1


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


def _moment_residual(g: np.ndarray, M: int) -> float:
    """The largest of g's first M moments, each normalised by the moment of |g| (plus one)."""
    t = np.arange(len(g), dtype=float)
    return max(abs(float(np.dot(t**m, g))) / (float(np.dot(t**m, np.abs(g))) + 1.0) for m in range(M))


def _orthonormality_residual(h: np.ndarray) -> float:
    """max_m |sum_k h_k h_{k+2m} - delta_m| over the shifts m that overlap."""
    return max(abs(float(np.dot(h[2 * m :], h[: len(h) - 2 * m])) - (m == 0)) for m in range(len(h) // 2))


def build_bank(family: str = "db2", jmax: int = 10) -> FilterBank:
    """Base pair of a Daubechies-type family, built once per (M, jmax): `haar` is `db1`.

    Raises FilterValidationError when the family is unknown or its taps
    fail the moment or the orthonormality check (db28 fails the second, in
    floating point); consumers that need a specific moment order check M
    themselves.
    """
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    return _built_bank(_parse_family(family), operator.index(jmax))


@lru_cache(maxsize=None)
def _built_bank(M: int, jmax: int) -> FilterBank:
    h = daubechies_scaling(M)
    g = mirror_highpass(h)
    moments, ortho = _moment_residual(g, M), _orthonormality_residual(h)
    if moments > _MOMENT_TOL:
        raise FilterValidationError(f"vanishing moments: normalised moment residual {moments:.2e} exceeds "
                                    f"{_MOMENT_TOL:.0e} (uniform-smoothness envelope cannot hold at order {M})")
    if ortho > _ORTHO_TOL:
        raise FilterValidationError(f"orthonormality: residual {ortho:.2e} exceeds {_ORTHO_TOL:.0e} at order {M}")
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


def _k_fold_pair(bank: FilterBank, K: int) -> tuple:
    """(h~_K, g~_K) = ((1 + z)^K h, g / (1 - z)^K), whose pass on Z gives the coefficients of
    Y = Sigma^K Z (Moulines, Roueff & Taqqu 2007): h convolved K times with [1, 1], and K running
    sums of g, each dropping its last entry, which must vanish (g keeps a factor 1 - z) to
    _MOMENT_TOL of the same sums of |g|.  At K = 0, the bank's own pair."""
    h, g, gabs = bank.scaling, bank.highpass, np.abs(bank.highpass)
    for i in range(1, K + 1):
        h, g, gabs = np.convolve(h, [1.0, 1.0]), np.cumsum(g), np.cumsum(gabs)
        if abs(g[-1]) > _MOMENT_TOL * gabs[-1]:
            raise FilterValidationError(f"{K}-fold integration needs {K} vanishing moments: sum {i} of db{bank.M}'s g"
                                        f" leaves {abs(g[-1]) / gabs[-1]:.2e} of |g|'s, above {_MOMENT_TOL:.0e}")
        g, gabs = g[:-1], gabs[:-1]
    return h, g


def wavelet_coeffs(series, bank: FilterBank, scales, K: int = 0) -> dict:
    """{j: values} for the requested scales from one pass, values[i] =
    W_{j, k_j + i} of Y = Sigma^K series (zero before its start) over the first
    n_j interior coefficients of scale j, k_j its smallest interior location.

    Raises ScaleTooCoarseError unless every filter fits in N/4 taps, which leaves
    each scale its n_j interior coefficients, and FilterValidationError if M < K.

    The approximation a[n] = sum_t phi_i(2^i n - t) Z_t, phi_i(z) = prod_{l<i}
    h~_K(z^(2^l)), is held on its interior n = lo, lo + 1, ...  Filtering it with
    g~_K (or h~_K, of L taps) and keeping even absolute positions 2n gives scale
    i+1 (or the next approximation, from ceil((lo + L - 1)/2)).  Z is padded on
    the left with 2^top K zeros, which puts Y's k_j at k_j + 2^(top - j) K.
    """
    series = np.asarray(series, dtype=float)
    N, T = len(series), bank.T
    for j in scales:
        if bank.filter_length(j) > N // 4:
            raise ScaleTooCoarseError(f"scale {j} filter ({bank.filter_length(j)} taps) too long for N={N} (cap N/4)")
    top, (h, g) = max(scales), _k_fold_pair(bank, K)
    a, lo, k = np.concatenate((np.zeros(2**top * K), series)) if K else series, 0, 0
    out = {}
    for j in range(1, top + 1):
        k = (k + T) // 2
        # np 'valid' convolution with L taps: entry s is the filter output at
        # absolute position lo + s + L - 1, so even position 2m is entry 2m - lo - (L - 1)
        if j in scales:
            first = 2 * (k + 2 ** (top - j) * K) - lo - (len(g) - 1)
            out[j] = np.convolve(a, g, "valid")[first::2][: n_coeffs(N, T, j)]
        if j < top:
            k_a = (lo + len(h)) // 2
            a = np.convolve(a, h, "valid")[2 * k_a - lo - (len(h) - 1) :: 2]
            lo = k_a
    return out


@dataclass
class ScalogramSummary:
    """Per-scale second-moment summary of the wavelet coefficients."""

    j: int
    n: int
    sigma2: float


def scalograms(series, bank: FilterBank, scales, K: int = 0) -> list:
    """Scalograms of Y = Sigma^K series at the given scales, in order, from
    one pyramid pass, each over the first n_j interior coefficients of its scale."""
    scales = list(scales)
    with np.errstate(over="ignore", invalid="ignore"):  # a value past float range is named below
        pyr = wavelet_coeffs(series, bank, scales, K)
        out = [ScalogramSummary(j, len(pyr[j]), float(np.mean(pyr[j] * pyr[j]))) for j in scales]
    for s in out:
        if not math.isfinite(s.sigma2):
            raise NumericError(f"scalogram at scale {s.j} is not finite: its coefficients or their squares overflow")
    return out
