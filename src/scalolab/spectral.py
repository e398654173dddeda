"""Spectral densities and autocovariances of the Gaussian input, its
Hermite components, and the (possibly integrated) transformed series.

The input spectral density is f(lambda) = |1 - e^{-i lambda}|^{-2d} f*(lambda)
with a short-range factor f* from a small analytic menu.  Autocovariances
are computed semi-analytically: the fractionally-integrated factor has a
closed-form covariance (Gamma ratios), and any smooth remainder is handled
by dense-grid Fourier inversion.  The density of the transformed series is
assembled from FFT self-convolutions of f for the long-memory ranks plus a
lag-windowed estimate of the bounded remainder.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResolutionError, SingularityError
from .exponents import MemoryParams, delta
from .hermite import HermiteExpansion, expansion_from_coeffs

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

    def f_star(self, lams):
        return self.short_range.at(lams)

    def f_star_at_zero(self) -> float:
        return self.short_range.at_zero()


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
    vals = np.abs(2.0 * np.sin(lam_arr / 2.0)) ** (-2.0 * model.d) * model.f_star(lam_arr)
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


def _autocov_grid_raw(model: SpectralModel, L: int, grid: int) -> np.ndarray:
    """Fourier inversion on a dense grid; the fractional singular factor is
    handled by subtracting f*(0)|1-e|^{-2d} (inverted in closed form) and
    transforming only the smooth remainder."""
    d = model.d
    lams = 2.0 * math.pi * np.fft.fftfreq(grid)
    resid = np.zeros(grid)
    nz = lams != 0.0
    base = np.abs(2.0 * np.sin(lams[nz] / 2.0)) ** (-2.0 * d)
    resid[nz] = (model.f_star(lams[nz]) - model.f_star_at_zero()) * base
    gamma_resid = 2.0 * math.pi * np.real(np.fft.ifft(resid))[: L + 1]
    gamma_far = 2.0 * math.pi * model.f_star_at_zero() * farima_gamma0(d) * farima_rho(d, L)
    return gamma_far + gamma_resid


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


def autocov_X(
    model: SpectralModel,
    L: int,
    method: str = "auto",
    grid_size: int = DEFAULT_GRID,
) -> CovarianceSequence:
    """Correlation sequence rho(0..L) of the input model, rho(0) = 1.

    method='exact' uses the closed forms of the analytic menu, 'grid' the
    dense-grid Fourier inversion (with a refinement drift check on the
    variance), 'auto' picks exact when available.  The returned variance
    field holds the raw gamma(0) so callers can undo the normalisation.
    """
    if L < 1:
        raise ValueError("lag cap must be >= 1")
    if method == "auto":
        method = "exact"
    if method == "exact":
        gamma = _autocov_exact_raw(model, L)
    elif method == "grid":
        gamma = _autocov_grid_raw(model, L, grid_size)
        coarse = _autocov_grid_raw(model, min(L, 8), grid_size // 2)
        drift = abs(coarse[0] - gamma[0]) / abs(gamma[0])
        if drift > 1e-3:
            raise ResolutionError(
                f"variance drifted by {drift:.2e} between grid refinements"
            )
    else:
        raise ValueError(f"unknown method {method!r}")
    g0 = gamma[0]
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
    vals[far] = np.abs(2.0 * np.sin(lams[far] / 2.0)) ** (-2.0 * d) * model.f_star(lams[far])
    one = 1.0 - 2.0 * d
    for m in range(-_ANALYTIC_CELLS, _ANALYTIC_CELLS + 1):
        lam_c = m * dlam
        lo, hi = abs(lam_c) - dlam / 2.0, abs(lam_c) + dlam / 2.0
        if m == 0:
            mass = 2.0 * (dlam / 2.0) ** one / one
        else:
            mass = (hi**one - lo**one) / one
        idx = m % size
        vals[idx] = model.f_star(np.array([lam_c]))[0] * mass / dlam
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


class GeneralizedDensity:
    """Spectral density of Y where the K-th difference of Y equals G(X).

    f_{G,K}(lam) = |1-e^{-i lam}|^{-2K} f_G(lam): the long-memory ranks
    (q < 1/(1-2d)) of G contribute q-fold FFT self-convolutions of f, the
    short-memory remainder a bounded density recovered from its lag-windowed
    covariance.  The input model is assumed unit-variance-compatible (the
    expansion's coefficients refer to a standard normal marginal); all
    outputs scale covariantly if it is not.
    """

    def __init__(
        self,
        expansion: HermiteExpansion,
        model: SpectralModel,
        size: int = DEFAULT_GRID,
        remainder_lags: int = 2**14,
    ):
        from .exponents import rank_profile  # local import keeps module load light

        self.expansion = expansion
        self.model = model
        self.size = size
        d = model.d
        profile = rank_profile(expansion.nonzero_indices(), d)  # validates long memory
        self.q0 = profile.q0
        self.delta_q0 = delta(self.q0, d)
        self.d0 = model.K + self.delta_q0

        lams, f_vals, dlam = spectral_grid(model, size)
        self._lams = lams
        self._dlam = dlam
        threshold = 1.0 / (1.0 - 2.0 * d)
        explicit = [q for q in expansion.nonzero_indices() if q < threshold]
        remainder = [q for q in expansion.nonzero_indices() if q >= threshold]

        fG = np.zeros(size)
        self._conv_q0 = None
        for q in explicit:
            conv = convolve_density(f_vals, q, dlam)
            if q == self.q0:
                self._conv_q0 = conv
            cq = expansion.coeffs[q]
            fG += (cq * cq / math.factorial(q)) * conv
        if remainder:
            lag_cap = min(remainder_lags, size // 4)
            rho = autocov_X(model, lag_cap, method="auto")
            gamma_rem = np.zeros(lag_cap + 1)
            rv = rho.values * rho.variance  # raw gamma, consistent with the raw convolutions
            for q in remainder:
                cq = expansion.coeffs[q]
                gamma_rem += (cq * cq / math.factorial(q)) * rv**q
            # Parzen lag window keeps the truncated estimate nonnegative-ish
            k = np.arange(lag_cap + 1) / lag_cap
            win = np.where(k <= 0.5, 1 - 6 * k**2 * (1 - k), 2 * (1 - k) ** 3)
            spectrum = np.zeros(size, dtype=complex)
            spectrum[0] = gamma_rem[0]
            wg = gamma_rem[1:] * win[1:]
            spectrum[1 : lag_cap + 1] = wg
            spectrum[size - lag_cap : size] = wg[::-1]
            fG += np.real(np.fft.fft(spectrum)) / (2.0 * math.pi)
        self._fG = fG

        # short-range level of the leading rank's factorised density; the
        # leading term contributes (c_{q0}/q0!)^2 f_{H_{q0}}, so the level of
        # f_G* at the origin is c_{q0}^2 / q0!^2 times that of f*_{H_{q0}}
        if self.q0 == 1:
            fstar_hq0 = model.f_star_at_zero()
        else:
            window = (np.abs(lams) >= 1e-3) & (np.abs(lams) <= 1e-2)
            ratio = (
                math.factorial(self.q0)
                * self._conv_q0[window]
                * np.abs(2.0 * np.sin(lams[window] / 2.0)) ** (2.0 * self.delta_q0)
            )
            fstar_hq0 = float(np.median(ratio))
        cq0 = expansion.coeffs[self.q0]
        self.f_star_at_zero = (cq0 / math.factorial(self.q0)) ** 2 * fstar_hq0

        order = np.argsort(lams)
        self._sorted_lams = lams[order]
        self._sorted_fG = fG[order]

    def f_G(self, lam):
        """Density of the stationary transformed series at lam (interp on grid)."""
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        vals = np.interp(lam_arr, self._sorted_lams, self._sorted_fG)
        return vals if np.ndim(lam) else float(vals[0])

    def at(self, lam):
        """f_{G,K}(lam) = |1-e^{-i lam}|^{-2K} f_G(lam); rejects lam = 0."""
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        if np.any(lam_arr == 0.0):
            raise SingularityError("generalized density diverges at lambda = 0")
        vals = self.f_G(lam_arr)
        K = self.model.K
        if K:
            vals = vals * np.abs(2.0 * np.sin(lam_arr / 2.0)) ** (-2.0 * K)
        return vals if np.ndim(lam) else float(vals[0])

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (lams, f_G values) covering (-pi, pi]."""
        return self._sorted_lams.copy(), self._sorted_fG.copy()

    def to_csv(self, path, stride: int = 128):
        """Two-column (lambda, f_{G,K}) dump, grid decimated by `stride`."""
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["lambda", "density"])
            K = self.model.K
            for lam, v in zip(self._sorted_lams[::stride], self._sorted_fG[::stride]):
                if lam == 0.0:
                    continue
                if K:
                    v = v * abs(2.0 * math.sin(lam / 2.0)) ** (-2.0 * K)
                wr.writerow([f"{lam:.10g}", f"{v:.10g}"])


@lru_cache(maxsize=8)
def _cached_density(exp_key, model: SpectralModel, size) -> GeneralizedDensity:
    return GeneralizedDensity(expansion_from_coeffs(dict(exp_key)), model, size)


def generalized_density(
    expansion: HermiteExpansion,
    model: SpectralModel,
    lam: float,
    size: int = DEFAULT_GRID,
) -> tuple[float, float]:
    """(f_{G,K}(lam), f_G*(0)) for the transformed series; lam != 0.

    The grid build is cached across calls with the same expansion/model.
    """
    exp_key = tuple(sorted(expansion.coeffs.items()))
    gd = _cached_density(exp_key, model, size)  # the frozen model is its own key
    return gd.at(lam), gd.f_star_at_zero


def holder_fit(gd: GeneralizedDensity, zeta: float, lo: float = 1e-3, hi: float = 1e-1) -> tuple[float, float]:
    """Fit the constant in |f_G*(lam) - f_G*(0)| <= C f_G*(0) |lam|^zeta.

    Returns (C over the full window, C over its inner half).  Only the
    existence of a finite constant is claimed, so callers assert that the
    ratio stays bounded as lam shrinks (inner <= outer up to slack).
    """
    lams, fG = gd.grid()
    sel = (np.abs(lams) >= lo) & (np.abs(lams) <= hi)
    lam_w = lams[sel]
    fstar = fG[sel] * np.abs(2.0 * np.sin(lam_w / 2.0)) ** (2.0 * gd.delta_q0)
    ratio = np.abs(fstar - gd.f_star_at_zero) / (gd.f_star_at_zero * np.abs(lam_w) ** zeta)
    inner = np.abs(lam_w) <= math.sqrt(lo * hi)
    c_all = float(np.max(ratio))
    c_inner = float(np.max(ratio[inner])) if inner.any() else c_all
    return c_all, c_inner
