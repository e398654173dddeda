"""Independent references that only the tests use.

`rosenblatt_sample` is the Monte Carlo oracle of the second-chaos law,
`_autocov_grid_raw` the dense-grid oracle of the closed-form covariance,
`ma_autocov_per_lag` the per-lag loop oracle of its vectorised MA sum,
`cascade_taps` the taps of g_j by the cascade, the direct-convolution
oracle of the pyramid and of the limit law's levels (no code in the package
forms them), `transfer` / `asymptotic_transfer` the product-formula oracle
of a bank's transfer functions, against which the cascade taps and the limit
shape are checked, `level_rfft` the per-level transform against which the
limit law's strips and level tables are checked, and `one_shot_pair` the
circulant draw with one M-point FFT per transform, against which the
package's four-step draw is checked.  `hermite_polys` is the three-term
recurrence with a fresh array per step, against which the package's
in-place recurrence is checked bit for bit.
`rosenblatt_sample` draws from the package's circulant embedding; its
seeded draws are pinned in `test_synthesis.py`.
"""

import math
from typing import Optional

import numpy as np

from scalolab.spectral import SpectralModel, autocov_X, farima_gamma0, farima_rho
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
    w = np.concatenate([emb.sqrt_eigs, emb.sqrt_eigs[-2:0:-1]])  # mode k > M/2 takes mode M - k's weight
    while done < reps:
        # one (rows, M) block of weighted complex noise, transformed in place;
        # both halves of each row are independent paths
        y.real = rng.standard_normal(out=z)
        y.imag = rng.standard_normal(out=z)
        y *= w
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


def one_shot_pair(model: SpectralModel, N: int, seed: int, stream_index: int = 0) -> tuple:
    """`sample_gaussian_pair` as one M-point FFT of the concatenated
    correlation (the eigenvalues) and one of the weighted normals (the
    draw): the same stream, its first 2M normals, mode m taking normals 2m
    and 2m + 1 as its real and imaginary parts."""
    rho = autocov_X(model, N)
    eigs = np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real
    M = len(eigs)
    z = stream(seed, stream_index).standard_normal(2 * M)
    y = np.fft.fft((z[0::2] + 1j * z[1::2]) * np.sqrt(np.clip(eigs, 0.0, None)))
    return y[:N].real / math.sqrt(M), y[:N].imag / math.sqrt(M)


def hermite_polys(x: np.ndarray, qmax: int):
    """H_0(x), ..., H_qmax(x) by H_{q+1} = x H_q - q H_{q-1}, each a new array."""
    h_prev, h = np.ones_like(x), x.copy()
    yield h_prev
    for q in range(1, qmax + 1):
        yield h
        if q < qmax:
            h_prev, h = h, x * h - q * h_prev


def hermite_series(coeffs: dict, x: np.ndarray) -> np.ndarray:
    """sum_q (c_q / q!) H_q(x), accumulated from zeros over `hermite_polys`."""
    out = np.zeros_like(x)
    for q, h in enumerate(hermite_polys(x, max(coeffs, default=0))):
        if q in coeffs:
            out += (coeffs[q] / float(math.factorial(q))) * h
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
    transfer = sum(t * np.exp(-1j * m * lams[nz]) for m, t in enumerate(model.ma))
    at_zero = sum(model.ma) ** 2 / (2.0 * math.pi)  # f*(0)
    resid[nz] = (np.abs(transfer) ** 2 / (2.0 * math.pi) - at_zero) * base
    gamma_resid = 2.0 * math.pi * np.real(np.fft.ifft(resid))[: L + 1]
    gamma_far = 2.0 * math.pi * at_zero * farima_gamma0(d) * farima_rho(d, L)
    return gamma_far + gamma_resid


def ma_autocov_per_lag(model: SpectralModel, L: int) -> np.ndarray:
    """The closed-form MA covariance summed lag by lag in Python: the oracle
    of the vectorised sum in `spectral._autocov_exact_raw`, whose additions
    it makes in the same order."""
    theta = np.asarray(model.ma)
    a = np.correlate(theta, theta, mode="full")[len(theta) - 1:]
    nlag = len(a) - 1
    rho = farima_rho(model.d, L + nlag)
    out = np.zeros(L + 1)
    for k in range(L + 1):
        s = a[0] * rho[k]
        for l in range(1, nlag + 1):
            s += a[l] * (rho[abs(k - l)] + rho[k + l])
        out[k] = s
    return 2.0 * math.pi * (1.0 / (2.0 * math.pi)) * farima_gamma0(model.d) * out


def cascade_taps(bank, j: int) -> np.ndarray:
    """Taps of g_j, support starting at 0, by the cascade g_{j+1}(z) =
    g_j(z^2) h(z) from g_1 = g: the filter the pyramid applies at scale j."""
    filts = [np.asarray(bank.highpass, dtype=float)]
    for _ in range(1, j):
        prev = filts[-1]
        up = np.zeros(2 * len(prev) - 1)
        up[::2] = prev
        filts.append(np.convolve(up, bank.scaling))
    return filts[-1]


def _dft(taps: np.ndarray, lams: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(np.exp(-1j * lams), taps)  # Horner in e^{-i lam}


def transfer(bank, j: int, lams) -> np.ndarray:
    """DFT of g_j at the given frequencies, by the product formula
    g_j-hat(lam) = g-hat(2^(j-1) lam) prod_{i<j-1} h-hat(2^i lam)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    out = _dft(bank.highpass, 2.0 ** (j - 1) * lams)
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
    return np.fft.rfft(cascade_taps(bank, lev), n=F)[: F // 4 + 1] * 2.0 ** (-lev / 2.0)
