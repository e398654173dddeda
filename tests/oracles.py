"""Independent references that only the tests use.

`rosenblatt_sample` is the Monte Carlo oracle of the second-chaos law,
`_autocov_grid_raw` the dense-grid oracle of the closed-form covariance,
`transfer` / `asymptotic_transfer` the product-formula oracle of a bank's
transfer functions, against which the cascade taps and the limit shape are
checked, and `level_rfft` the per-level transform that the limit shape's
frequency-domain cascade replaces.
`rosenblatt_sample` draws from the package's circulant embedding; its
seeded draws are pinned in `test_synthesis.py`.
"""

import math
from typing import Optional

import numpy as np

from scalolab.spectral import SpectralModel, farima_gamma0, farima_rho
from scalolab.synthesis import _Embedding, stream


def rosenblatt_sample(d: float, reps: int, seed: int, n_internal: int = 2**14) -> np.ndarray:
    """Monte Carlo draws approximating the second-chaos self-similar limit
    variable of index d at unit time.

    Each draw is a normalised partial sum of H_2 over an exact-covariance
    fractionally-integrated Gaussian path of length n: with f*(0) the
    short-range level of that path's spectral density,
    draw = n^(-2d) * sum_t H_2(X_t) / f*(0).  This converges in
    distribution as n grows; n is finite here, so draws are a documented
    approximation (mean -> 0, positive skewness, variance
    4 Gamma(1-2d)^2 sin(pi d)^2 / (d (4d-1))).
    """
    if not (0.25 < d < 0.5):
        raise ValueError(f"second-chaos limit requires d in (1/4, 1/2), got {d}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    n = int(n_internal)
    emb = _Embedding(farima_rho(d, n))
    # unit-variance path: effective short-range level is 1/(2 pi gamma0)
    norm = (n ** (-2.0 * d)) * 2.0 * math.pi * farima_gamma0(d)
    rng = stream(seed, 0x526F73)
    out = np.empty(reps)
    done = 0
    rows = max(1, min(64, (reps + 1) // 2))
    # reused buffers: fresh mid-sized ones would be mmapped and faulted in per block
    z, y, sq = np.empty((rows, emb.M)), np.empty((rows, emb.M), dtype=complex), np.empty((rows, n))
    while done < reps:
        # one (rows, M) block of weighted complex noise, transformed in place;
        # both halves of each row are independent paths
        y.real = rng.standard_normal(out=z)
        y.imag = rng.standard_normal(out=z)
        y *= emb.sqrt_eigs
        np.fft.fft(y, axis=1, out=y)
        y *= 1.0 / math.sqrt(emb.M)
        for part in (y.real, y.imag):
            if done >= reps:
                break
            x = part[:, :n]
            np.multiply(x, x, out=sq)
            sq -= 1.0
            draws = norm * np.sum(sq, axis=1)
            take = min(len(draws), reps - done)
            out[done : done + take] = draws[:take]
            done += take
    return out


def _autocov_grid_raw(model: SpectralModel, L: int, grid: int) -> np.ndarray:
    """Fourier inversion on a dense grid; the fractional singular factor is
    handled by subtracting f*(0)|1-e|^{-2d} (inverted in closed form) and
    transforming only the smooth remainder.  An independent reference for
    the closed form of `spectral._autocov_exact_raw`."""
    d = model.d
    lams = 2.0 * math.pi * np.fft.fftfreq(grid)
    resid = np.zeros(grid)
    nz = lams != 0.0
    base = np.abs(2.0 * np.sin(lams[nz] / 2.0)) ** (-2.0 * d)
    resid[nz] = (model.short_range.at(lams[nz]) - model.short_range.at_zero()) * base
    gamma_resid = 2.0 * math.pi * np.real(np.fft.ifft(resid))[: L + 1]
    gamma_far = 2.0 * math.pi * model.short_range.at_zero() * farima_gamma0(d) * farima_rho(d, L)
    return gamma_far + gamma_resid


def _dft(taps: np.ndarray, lams: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(np.exp(-1j * lams), taps)  # Horner in e^{-i lam}


def transfer(bank, j: int, lams) -> np.ndarray:
    """DFT of g_j at the given frequencies, by the product formula
    g_j-hat(lam) = g-hat(2^(j-1) lam) prod_{i<j-1} h-hat(2^i lam)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    out = _dft(bank.highpass, 2.0 ** (bank._scale(j) - 1) * lams)
    for i in range(j - 1):
        out *= _dft(bank.scaling, 2.0**i * lams)
    return out


def asymptotic_transfer(bank, lams, j: Optional[int] = None) -> np.ndarray:
    """Limit shape estimate gamma_j^(-1/2) g_j-hat(gamma_j^(-1) lam) at the
    deepest built scale (or at j if given)."""
    jj = bank.jmax if j is None else j
    g = 2.0**jj
    return transfer(bank, jj, np.asarray(lams, dtype=float) / g) / math.sqrt(g)


def level_rfft(bank, lev: int, F: int) -> np.ndarray:
    """2^(-lev/2) g_lev-hat(2 pi r / F) for r = 0..F/4, by one F-point rfft
    of the level's taps."""
    return np.fft.rfft(bank.taps(lev), n=F)[: F // 4 + 1] * 2.0 ** (-lev / 2.0)
