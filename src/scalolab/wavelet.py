"""Dyadic wavelet filter banks, wavelet coefficients, and scalograms.

Filters come from compactly supported orthonormal (Daubechies-type) mirror
pairs (h, g) with M vanishing moments, extended to coarser scales by the
cascade g_{j+1}(z) = g_j(z^2) h(z): the family whose transfer functions,
rescaled by gamma_j^(1/2), converge to a limit shape.  The cascade taps are
the reference filters; transfers use the product formula g_j-hat(lam) =
g-hat(2^(j-1) lam) prod_{i<j-1} h-hat(2^i lam), and every bank records
diagnostics for finite support, the smoothness envelope and convergence.

W_{j,k} = sum_t g_j(2^j k - t) Y_t is computed with interior taps only, for
all scales of a series in one Mallat pyramid pass.
"""

import math
import operator
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import FilterValidationError, ScaleTooCoarseError

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


def _dft(taps: np.ndarray, lams: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(np.exp(-1j * lams), taps)  # Horner in e^{-i lam}


@dataclass(frozen=True)
class WValidation:
    """Numeric diagnostics for the bank's admissibility assumptions."""

    support_bound: float  # measured A with supp(g_j) within gamma_j * [-A, A]
    max_moment_residual: float  # worst normalised moment below order M
    envelope_alpha: float  # fitted decay exponent (> 1 required)
    envelope_constant: float  # fitted envelope constant across scales
    envelope_table: tuple = ()  # ((alpha, (C_1, .., C_jmax)), ...) in fit order
    limit_gaps: tuple = ()  # sup-norm gaps across last scales
    notes: str = ""


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Read-only family of per-scale filters g_j, j = 1..jmax, gamma_j = 2^j."""

    family: str
    M: int
    jmax: int
    scaling: np.ndarray
    highpass: np.ndarray
    filters: tuple  # filters[j-1] holds the taps of g_j, support starting at 0
    T: int  # support length of the base pair (2M)
    validation: Optional[WValidation] = None  # set by build_bank

    def _scale(self, j: int) -> int:
        if not (1 <= j <= self.jmax):
            raise ScaleTooCoarseError(f"scale {j} outside built range 1..{self.jmax}")
        return j

    def taps(self, j: int) -> np.ndarray:
        return self.filters[self._scale(j) - 1]

    def filter_length(self, j: int) -> int:
        """Number of taps of g_j."""
        return _filter_length(self.T, self._scale(j))

    def transfer(self, j: int, lams) -> np.ndarray:
        """DFT of g_j at the given frequencies, by the product formula."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        out = _dft(self.highpass, 2.0 ** (self._scale(j) - 1) * lams)
        for i in range(j - 1):
            out *= _dft(self.scaling, 2.0**i * lams)
        return out

    def asymptotic_transfer(self, lams, j: Optional[int] = None) -> np.ndarray:
        """Limit shape estimate gamma_j^(-1/2) g_j-hat(gamma_j^(-1) lam) at the
        deepest built scale (or at j if given)."""
        jj = self.jmax if j is None else j
        g = 2.0**jj
        return self.transfer(jj, np.asarray(lams, dtype=float) / g) / math.sqrt(g)


def _filter_length(T: int, j: int) -> int:
    """Number of taps of g_j for a base pair of support T: (2^j - 1)(T - 1) + 1."""
    return (2**j - 1) * (T - 1) + 1


def _cascade(g1: np.ndarray, h: np.ndarray, jmax: int) -> list:
    filts = [np.asarray(g1, dtype=float)]
    for _ in range(1, jmax):
        prev = filts[-1]
        up = np.zeros(2 * len(prev) - 1)
        up[::2] = prev
        filts.append(np.convolve(up, h))
    return filts


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


def _validate_bank(bank: FilterBank) -> WValidation:
    M, js = bank.M, range(1, bank.jmax + 1)
    # finite support: measured A (always finite for compactly supported taps)
    A = max(bank.filter_length(j) / 2.0**j for j in js)

    # vanishing moments up to order M-1, normalised by the moment scale
    worst = 0.0
    for j in js:
        taps = bank.taps(j)
        t = np.arange(len(taps), dtype=float)
        for m in range(M):
            num = abs(float(np.dot(t**m, taps)))
            den = float(np.dot(t**m, np.abs(taps))) + 1.0
            worst = max(worst, num / den)
    if worst > _MOMENT_TOL:
        raise FilterValidationError(
            f"vanishing moments: normalised moment residual {worst:.2e} exceeds "
            f"{_MOMENT_TOL:.0e} (uniform-smoothness envelope cannot hold at order {M})"
        )

    # smoothness envelope |g_j-hat(lam)| <= C gamma^(1/2)|gamma lam|^M / (1+gamma|lam|)^(alpha+M)
    lam_grid = np.concatenate([
        np.geomspace(1e-4, 0.1, 120), np.linspace(0.1, math.pi, 240)
    ])
    moduli = [np.abs(bank.transfer(j, lam_grid)) for j in js]
    table = {}
    best_alpha, best_C = None, None
    for alpha in (3.0, 2.5, 2.0, 1.5, 1.25, 1.05):
        Cs = []
        for j, mod in zip(js, moduli):
            gam = 2.0**j
            env = gam**0.5 * np.abs(gam * lam_grid) ** M / (1.0 + gam * lam_grid) ** (alpha + M)
            Cs.append(float(np.max(mod / env)))
        stable = Cs[-1] <= 1.5 * max(Cs[:-1] or Cs)
        table[alpha] = tuple(Cs)
        if stable and best_alpha is None:
            best_alpha, best_C = alpha, max(Cs)
    if best_alpha is None:
        best_alpha, best_C = 1.05, max(table[1.05])
        warnings.warn("smoothness envelope constant grows across scales; recorded anyway")

    # locally uniform convergence of the rescaled transfer moduli
    lam_w = np.linspace(-8.0 * math.pi, 8.0 * math.pi, 1024)
    last = range(max(1, bank.jmax - 3), bank.jmax + 1)
    cur = [np.abs(bank.asymptotic_transfer(lam_w, j)) for j in last]
    gaps = [float(np.max(np.abs(b - a))) for a, b in zip(cur, cur[1:])]
    return WValidation(
        support_bound=A,
        max_moment_residual=worst,
        envelope_alpha=best_alpha,
        envelope_constant=best_C,
        envelope_table=tuple(table.items()),
        limit_gaps=tuple(gaps),
        notes="phase of the limit shape not tracked; modulus convergence only",
    )


def build_bank(family: str = "db2", jmax: int = 10) -> FilterBank:
    """Per-scale filters of a Daubechies-type family, built and validated once per (family, jmax).

    Raises FilterValidationError naming the violated assumption when the
    structural checks fail.  Envelope and limit-shape diagnostics are
    advisory at build time; consumers that need a specific moment order
    check M themselves.
    """
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    return _built_bank(family.lower().strip(), _parse_family(family), operator.index(jmax))


@lru_cache(maxsize=None)
def _built_bank(family: str, M: int, jmax: int) -> FilterBank:
    h = daubechies_scaling(M)
    g1 = mirror_highpass(h)
    filters = _cascade(g1, h, jmax)
    for taps in (h, *filters):  # filters[0] is g1
        taps.setflags(write=False)
    bank = FilterBank(family=family, M=M, jmax=jmax, scaling=h, highpass=g1,
                      filters=tuple(filters), T=2 * M)
    return replace(bank, validation=_validate_bank(bank))


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


def _pyramid(series: np.ndarray, bank: FilterBank, scales) -> dict:
    """{j: (k_min, values)}, values[i] = W_{j, k_min + i}, for all interior
    coefficients of the requested scales from one pass.

    The approximation a[n] = sum_t phi_i(2^i n - t) Y_t, with phi_i(z) =
    prod_{l<i} h(z^(2^l)), is held on its interior n = lo, lo + 1, ...
    Filtering it with g (or h) and keeping even absolute positions 2n gives
    scale i+1 (or the next approximation), starting at ceil((lo + T - 1)/2).
    """
    top = max(bank._scale(j) for j in scales)
    a, lo, T = series, 0, bank.T
    out = {}
    for j in range(1, top + 1):
        if len(a) < T:
            raise ScaleTooCoarseError(
                f"filter length {bank.filter_length(j)} exceeds series length {len(series)}"
            )
        k_min = (lo + T) // 2
        # np 'valid' convolution: entry s is the filter output at absolute
        # position lo + s + T - 1, so even positions start at s = first
        first = 2 * k_min - lo - (T - 1)
        if j in scales:
            out[j] = (k_min, np.convolve(a, bank.highpass, "valid")[first::2])
        if j < top:
            a = np.convolve(a, bank.scaling, "valid")[first::2]
        lo = k_min
    return out


def wavelet_coeffs(series, bank: FilterBank, j: int) -> np.ndarray:
    """The first n_j interior coefficients W_{j, k} at scale j (dyadic lattice).

    The k-range starts at the smallest interior location; no padding is ever
    applied, matching the interior-only coefficient count.
    """
    return scalograms(series, bank, [j], keep_coeffs=True)[0].coeffs


@dataclass
class ScalogramSummary:
    """Per-scale second-moment summary of the wavelet coefficients."""

    j: int
    n: int
    sigma2: float
    k_start: int = 0
    coeffs: Optional[np.ndarray] = None


def scalograms(series, bank: FilterBank, scales, keep_coeffs: bool = False) -> list:
    """Scalograms of the given scales, in order, from one pyramid pass, each
    over the first n_j interior coefficients of its scale."""
    series = np.asarray(series, dtype=float)
    scales, N = list(scales), len(series)
    for j in scales:
        if bank.filter_length(j) > N // 4:
            raise ScaleTooCoarseError(
                f"scale {j} filter ({bank.filter_length(j)} taps) too long for N={N} (cap N/4)"
            )
    pyr = _pyramid(series, bank, scales)
    out = []
    for j in scales:
        k_start, vals = pyr[j]
        n = n_coeffs(N, bank.T, j)
        if len(vals) < n:
            raise ScaleTooCoarseError(
                f"only {len(vals)} interior coefficients available at scale {j}, need {n}"
            )
        w = vals[:n]
        out.append(ScalogramSummary(
            j=j, n=n, sigma2=float(np.mean(w * w)), k_start=k_start,
            coeffs=w if keep_coeffs else None,
        ))
    return out


def scalogram(series, bank: FilterBank, j: int) -> ScalogramSummary:
    """Average of squared wavelet coefficients at scale j."""
    return scalograms(series, bank, [j])[0]
