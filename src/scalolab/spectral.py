"""Spectral densities and autocovariances of the Gaussian input and of
its Hermite transform.

The input spectral density is f(lambda) = |1 - e^{-i lambda}|^{-2d} f*(lambda)
with a short-range factor f* from a small analytic menu.  Its
autocovariance is exact: the fractionally-integrated factor has a
closed-form covariance (Gamma ratios) and the moving-average factor mixes a
finite number of its lags.  The covariance of G(X) follows from Hermite
orthogonality.  A dense FFT grid of f, with its q-fold self-convolutions,
serves the spectral side of the covariance-density duality.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SingularityError
from .exponents import MemoryParams
from .hermite import HermiteExpansion

DEFAULT_GRID = 2**20
_ANALYTIC_CELLS = 16  # cells on each side of 0 integrated analytically


@dataclass(frozen=True)
class ShortRangeSpec:
    """Short-range factor f*: either a positive constant, or the squared
    transfer of a finite moving average, scale*|sum_m theta_m e^{-im lam}|^2.

    Both menu entries are smooth, so their Hoelder exponent is the maximal
    beta = 2; that value feeds the bias-exponent arithmetic.
    """

    kind: str = "constant"
    value: float = 1.0 / (2.0 * math.pi)
    ma_coeffs: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.kind not in ("constant", "ma"):
            raise ValueError(f"unknown short-range kind {self.kind!r}")
        if self.kind == "constant" and not self.value > 0:
            raise ValueError("constant short-range level must be positive")
        if self.kind == "ma":
            if len(self.ma_coeffs) < 1:
                raise ValueError("ma_coeffs must be nonempty")
            if abs(sum(self.ma_coeffs)) < 1e-12:
                raise ValueError("MA transfer vanishes at 0; f*(0) must be positive")

    def at(self, lams):
        lams = np.asarray(lams, dtype=float)
        if self.kind == "constant":
            return np.full_like(lams, self.value)
        theta = np.asarray(self.ma_coeffs)
        tr = np.zeros_like(lams, dtype=complex)
        for m, t in enumerate(theta):
            tr += t * np.exp(-1j * m * lams)
        return self.value * np.abs(tr) ** 2

    def at_zero(self) -> float:
        if self.kind == "constant":
            return self.value
        return self.value * float(sum(self.ma_coeffs)) ** 2

    def ma_autocorr(self) -> np.ndarray:
        """a_l = sum_m theta_m theta_{m+l}, l = 0..len-1 (kind 'ma' only)."""
        theta = np.asarray(self.ma_coeffs, dtype=float)
        full = np.correlate(theta, theta, mode="full")
        return full[len(theta) - 1:]


@dataclass(frozen=True)
class SpectralModel:
    """Long-memory input spectrum: memory/integration params, short-range
    factor, and its smoothness exponent (analytic for the built-in menu)."""

    params: MemoryParams
    short_range: ShortRangeSpec = ShortRangeSpec()
    beta_smooth: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.beta_smooth <= 2.0):
            raise ValueError("beta_smooth must lie in (0, 2]")

    @property
    def d(self) -> float:
        return self.params.d

    @property
    def K(self) -> int:
        return self.params.K


def density_at(model: SpectralModel, lam):
    """f(lambda) = |1-e^{-i lambda}|^{-2d} f*(lambda) on (-pi, pi], lambda != 0.

    |1-e^{-i lambda}| = 2|sin(lambda/2)|.  Diverges at 0; callers that need
    mass near the origin integrate the singularity analytically instead.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam_arr == 0.0):
        raise SingularityError("spectral density diverges at lambda = 0")
    if np.any((lam_arr <= -math.pi) | (lam_arr > math.pi)):
        raise ValueError("lambda must lie in (-pi, pi]")
    vals = np.abs(2.0 * np.sin(lam_arr / 2.0)) ** (-2.0 * model.d) * model.short_range.at(lam_arr)
    return vals if np.ndim(lam) else float(vals[0])


def farima_rho(d: float, L: int) -> np.ndarray:
    """Correlation of the pure fractionally-integrated model, lags 0..L:
    rho(k) = prod_{i<=k} (i-1+d)/(i-d)."""
    k = np.arange(1, L + 1, dtype=float)
    return np.concatenate([[1.0], np.cumprod((k - 1.0 + d) / (k - d))])


def farima_gamma0(d: float) -> float:
    """Variance of the unit-innovation fractionally-integrated model,
    i.e. the integral of (1/2pi)|1-e^{-i lam}|^{-2d}."""
    return math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2


@dataclass
class CovarianceSequence:
    """Covariance values at lags 0..lag_cap plus the raw variance of the
    sequence they were normalised by (1.0 when unnormalised)."""

    values: np.ndarray
    lag_cap: int
    variance: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.lag_cap + 1:
            raise ValueError("values must cover lags 0..lag_cap")


def _autocov_exact_raw(model: SpectralModel, L: int) -> np.ndarray:
    """Closed-form covariance for the analytic short-range menu."""
    d = model.d
    sr = model.short_range
    g0 = farima_gamma0(d)
    if sr.kind == "constant":
        return 2.0 * math.pi * sr.value * g0 * farima_rho(d, L)
    a = sr.ma_autocorr()
    nlag = len(a) - 1
    rho = farima_rho(d, L + nlag)
    out = np.zeros(L + 1)
    for k in range(L + 1):
        s = a[0] * rho[k]
        for l in range(1, nlag + 1):
            s += a[l] * (rho[abs(k - l)] + rho[k + l])
        out[k] = s
    return 2.0 * math.pi * sr.value * g0 * out


def autocov_X(model: SpectralModel, L: int) -> CovarianceSequence:
    """Correlation sequence rho(0..L) of the input model, rho(0) = 1, from the
    closed forms of the analytic menu.  The returned variance field holds
    the raw gamma(0) so callers can undo the normalisation.
    """
    if L < 1:
        raise ValueError("lag cap must be >= 1")
    gamma = _autocov_exact_raw(model, L)
    g0 = gamma[0]
    if not math.isfinite(g0):
        raise NumericError(f"autocovariance gamma(0) = {g0}: the model's covariance overflows a float")
    return CovarianceSequence(gamma / g0, L, variance=g0)


def autocov_transformed(expansion: HermiteExpansion, rho: CovarianceSequence) -> CovarianceSequence:
    """Covariance of G(X_t) from the input correlation: orthogonality across
    Hermite orders gives gamma_G(k) = sum_q (c_q^2/q!) rho(k)^q."""
    if abs(rho.values[0] - 1.0) > 1e-12:
        raise ValueError("input covariance must be normalised to rho(0) = 1")
    out = np.zeros_like(rho.values)
    for q, c in expansion.coeffs.items():
        out += (c * c / math.factorial(q)) * rho.values**q
    return CovarianceSequence(out, rho.lag_cap, variance=1.0)


# --- dense spectral grid and self-convolutions ---------------------------


def spectral_grid(model: SpectralModel, size: int = DEFAULT_GRID) -> tuple[np.ndarray, np.ndarray, float]:
    """Sample f on the FFT-ordered grid lam_m = 2 pi m / size, m in FFT order.

    Cells within _ANALYTIC_CELLS of the origin carry the analytic mass of
    |lam|^{-2d} over the cell divided by the cell width: convolving
    integrable singularities needs the mass, not the midpoint value.
    Returns (lams, values, dlam).
    """
    d = model.d
    dlam = 2.0 * math.pi / size
    lams = 2.0 * math.pi * np.fft.fftfreq(size)
    vals = np.empty(size)
    far = np.abs(lams) > _ANALYTIC_CELLS * dlam
    vals[far] = np.abs(2.0 * np.sin(lams[far] / 2.0)) ** (-2.0 * d) * model.short_range.at(lams[far])
    one = 1.0 - 2.0 * d
    for m in range(-_ANALYTIC_CELLS, _ANALYTIC_CELLS + 1):
        lam_c = m * dlam
        lo, hi = abs(lam_c) - dlam / 2.0, abs(lam_c) + dlam / 2.0
        if m == 0:
            mass = 2.0 * (dlam / 2.0) ** one / one
        else:
            mass = (hi**one - lo**one) / one
        idx = m % size
        vals[idx] = model.short_range.at(np.array([lam_c]))[0] * mass / dlam
    return lams, vals, dlam


def convolve_density(values: np.ndarray, q: int, dlam: float) -> np.ndarray:
    """q-fold circular self-convolution of a density sampled on the FFT grid."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q == 1:
        return values.copy()
    t = np.fft.fft(values)
    return np.real(np.fft.ifft(t**q)) * dlam ** (q - 1)


def grid_autocov(values: np.ndarray, L: int) -> np.ndarray:
    """gamma(k) = sum_m v_m e^{i k lam_m} dlam for k = 0..L; with dlam = 2pi/size
    this collapses to 2pi * ifft(values)."""
    return 2.0 * math.pi * np.real(np.fft.ifft(values))[: L + 1]

