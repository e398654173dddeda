"""Spectral densities and autocovariances of the Gaussian input and of
its Hermite transform.

The input spectral density is f(lambda) = |1 - e^{-i lambda}|^{-2d} f*(lambda)
with a smooth short-range factor f* = |sum_m theta_m e^{-im lambda}|^2 / (2 pi),
the squared transfer of a finite moving average with taps theta (one tap
for a flat f*).  Its level is fixed: every result reads the input through
its correlations, which divide it out.  A trigonometric polynomial, f* is
smooth (Hoelder exponent 2), so the bias exponent zeta reads the Hermite
ranks alone (`exponents.zeta_exponent`).  The autocovariance is exact: the
fractionally-integrated factor has a closed-form covariance (Gamma ratios)
and the moving average mixes a finite number of its lags.  The covariance
of G(X) follows from Hermite orthogonality.  A dense FFT grid of f, with
its q-fold self-convolutions, serves the spectral side of the
covariance-density duality.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SingularityError
from .exponents import MemoryParams
from .hermite import HermiteExpansion

DEFAULT_GRID = 2**20
_ANALYTIC_CELLS = 16  # cells on each side of 0 integrated analytically
_LEVEL = 1.0 / (2.0 * math.pi)  # f*'s level, which every correlation divides out


@dataclass(frozen=True)
class SpectralModel:
    """Long-memory input spectrum, exactly what the draw reads: the memory
    and integration params and the MA taps theta of the short-range factor f*."""

    params: MemoryParams
    ma: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not any(self.ma) or abs(sum(self.ma)) < 1e-12 * sum(map(abs, self.ma)):
            raise ValueError("MA transfer vanishes at 0; f*(0) must be positive")

    @property
    def d(self) -> float:
        return self.params.d

    @property
    def K(self) -> int:
        return self.params.K


def _ma_autocorr(model: SpectralModel) -> np.ndarray:
    """a_l = sum_m theta_m theta_{m+l}, l = 0..len(ma)-1, the taps as every
    reader takes them: f*(lam) = (a_0 + 2 sum_l a_l cos(l lam)) / (2 pi)."""
    theta = np.asarray(model.ma, dtype=float)
    return np.correlate(theta, theta, mode="full")[len(theta) - 1:]


def _short_range_at(model: SpectralModel, lams: np.ndarray) -> np.ndarray:
    """f*(lam) at each of lams."""
    a = _ma_autocorr(model)
    return _LEVEL * (a[0] + 2.0 * sum(a[l] * np.cos(l * lams) for l in range(1, len(a))))


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
    vals = np.abs(2.0 * np.sin(lam_arr / 2.0)) ** (-2.0 * model.d) * _short_range_at(model, lam_arr)
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


def _autocov_exact_raw(model: SpectralModel, L: int) -> np.ndarray:
    """Closed-form covariance at lags 0..L: the moving average mixes the
    fractionally-integrated correlation over its lags."""
    a = _ma_autocorr(model)
    nlag = len(a) - 1
    rho = farima_rho(model.d, L + nlag)
    # per lag k, the sum a_0 rho(k) + sum_l a_l (rho(|k-l|) + rho(k+l)) in that order
    k = np.arange(L + 1)
    out = a[0] * rho[: L + 1]
    for l in range(1, nlag + 1):
        out += a[l] * (rho[np.abs(k - l)] + rho[l : L + 1 + l])
    return farima_gamma0(model.d) * out  # times 2 pi _LEVEL, which is 1.0 exactly


def autocov_X(model: SpectralModel, L: int) -> np.ndarray:
    """The input model's correlations rho(0..L), rho(0) = 1, from the closed
    form: an array whose index is the lag."""
    if L < 1:
        raise ValueError("lag cap must be >= 1")
    gamma = _autocov_exact_raw(model, L)
    g0 = gamma[0]
    if not math.isfinite(g0):
        raise NumericError(f"autocovariance gamma(0) = {g0}: the model's covariance overflows a float")
    return gamma / g0


def autocov_transformed(expansion: HermiteExpansion, rho: np.ndarray) -> np.ndarray:
    """Covariance of G(X_t) at the lags of the input correlation array rho:
    orthogonality across Hermite orders gives gamma_G(k) = sum_q (c_q^2/q!) rho(k)^q."""
    if abs(rho[0] - 1.0) > 1e-12:
        raise ValueError("input covariance must be normalised to rho(0) = 1")
    out = np.zeros_like(rho)
    for q, c in expansion.coeffs.items():
        out += (c * c / math.factorial(q)) * rho**q
    return out


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
    vals[far] = np.abs(2.0 * np.sin(lams[far] / 2.0)) ** (-2.0 * d) * _short_range_at(model, lams[far])
    one = 1.0 - 2.0 * d
    for m in range(-_ANALYTIC_CELLS, _ANALYTIC_CELLS + 1):
        lam_c = m * dlam
        lo, hi = abs(lam_c) - dlam / 2.0, abs(lam_c) + dlam / 2.0
        if m == 0:
            mass = 2.0 * (dlam / 2.0) ** one / one
        else:
            mass = (hi**one - lo**one) / one
        idx = m % size
        vals[idx] = _short_range_at(model, lam_c) * mass / dlam
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

