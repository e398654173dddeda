"""Sample-path synthesis: exact-covariance Gaussian input via circulant
embedding, pointwise nonlinear transform, and K-fold integration.

Every simulated series, in every mode and Monte Carlo replicate, is
`transform_path` of a Gaussian path X drawn from counter-based Philox
streams keyed by (seed, stream index), so generation is reproducible and
embarrassingly parallel; one stream's FFT yields two paths.  A pair's M
modes take the stream's first 2M normals, mode m normals 2m and 2m + 1 as
its real and imaginary parts.
"""

import json
import math
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import NumericError
from .spectral import SpectralModel, autocov_X


def stream(seed: int, index: int = 0) -> "np.random.Generator":
    """Independent reproducible generator for (seed, stream index)."""
    # a plain list holding a seed >= 2^63 becomes float64, which rounds neighbouring seeds to one key
    key = np.array([seed & (2**64 - 1), index & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _split(m: int) -> int:
    """The largest divisor of m whose square is at most m."""
    f = math.isqrt(m)
    while m % f:
        f -= 1
    return f


def _gather(part: np.ndarray, scale: float) -> np.ndarray:
    """part / scale, flattened in C order; part is a view across the rows of
    `_Embedding.dft`'s buffer, read 64 of them at a time so that its strided
    reads stay in cache."""
    out = np.empty(part.shape)
    for k in range(0, part.shape[1], 64):
        np.divide(part[:, k : k + 64], scale, out=out[:, k : k + 64])
    return out.reshape(-1)


class _Embedding:
    """Circulant square root of the covariance to lag n, reusable across draws.

    The only circulant embedding in the package.  `exact` records whether
    the embedding was nonnegative definite, so that draws have the target
    covariance exactly (always so for the pure fractional model).
    The eigenvalues of a symmetric circulant satisfy lambda_k = lambda_{M-k}
    (Wood & Chan 1994), so `sqrt_eigs` holds modes 0..M/2 alone, and a draw
    weights mode k > M/2 by entry M - k: the weights are exactly symmetric.
    `sqrt_eigs` is read-only: one cached embedding serves every later draw.
    Both the eigenvalues and every draw come from `dft`, which transforms the
    draw's own buffer in place by short batched FFTs.
    """

    def __init__(self, rho: np.ndarray):
        # checked before the FFT, which would warn on it; a finite correlation,
        # at most 1 in size, has finite eigenvalues
        if not np.isfinite(rho).all():
            raise NumericError("circulant embedding of a non-finite correlation: the model's covariance overflows")
        # rho covers lags 0..n; the circulant extension has period M = 2n
        self.M = M = 2 * len(rho) - 2
        self.N1 = _split(M)
        R = _split(M // self.N1)
        # twiddles W_M^(k1 n2) at n2 = a R + b, as W_M^(k1 a R) W_M^(k1 b):
        # two tables of about N1 sqrt(M / N1) points each, where one would
        # hold M (as the first does when M / N1 is prime and R = 1)
        k1 = np.arange(self.N1)[:, None]
        self._twiddles = (np.exp(-2j * math.pi / M * (k1 * np.arange(0, M // self.N1, R)))[:, :, None],
                          np.exp(-2j * math.pi / M * (k1 * np.arange(R)))[:, None, :])
        y = np.zeros(M, complex)
        y.real[: len(rho)], y.real[len(rho) :] = rho, rho[-2:0:-1]
        # modes 0..M/2 in natural order, cut from the transform's head as a draw cuts its path
        eigs = _gather(self.dft(y)[: M // 2 // self.N1 + 1].real, 1.0)[: M // 2 + 1]
        self.exact = bool(eigs.min() >= -1e-10 * eigs.max())
        if not self.exact:
            import logging  # only this warning logs: loaded here, not by every run

            logging.getLogger(__name__).warning(
                "circulant embedding not nonnegative definite (min eig %.3e); "
                "falling back to approximate spectral synthesis with clipped modes",
                eigs.min(),
            )
        self.sqrt_eigs = np.sqrt(np.clip(eigs, 0.0, None, out=eigs), out=eigs)
        self.sqrt_eigs.setflags(write=False)

    def dft(self, y: np.ndarray) -> np.ndarray:
        """The DFT of the M points of y, computed in y by the four-step
        algorithm (Bailey 1990): FFTs of length N1 down the columns of
        B = y.reshape(N1, M / N1), the twiddles, then FFTs along its rows.
        Returns B.T, a view whose C-order flattening is DFT(y); no call
        allocates M points."""
        B = y.reshape(self.N1, -1)
        np.fft.fft(B, axis=0, out=B)
        rows = B.reshape(self.N1, -1, self._twiddles[1].shape[2])
        for t in self._twiddles:
            rows *= t
        np.fft.fft(B, axis=1, out=B)
        return B.T


@lru_cache(maxsize=8)
def _embedding_for(model: SpectralModel, N: int) -> _Embedding:
    return _Embedding(autocov_X(model, N))


def _drawn(model: SpectralModel, N: int, seed: int, stream_index: int) -> tuple:
    """The rows of stream (seed, stream_index)'s transform that hold its
    first N points, and the scale that divides them: a draw's one complex
    buffer, drawn, weighted and transformed in place."""
    emb = _embedding_for(model, N)
    # mode m >= h takes mode M - m's weight through the reversed view
    w, h = emb.sqrt_eigs, len(emb.sqrt_eigs)
    y = np.empty(emb.M, dtype=complex)
    stream(seed, stream_index).standard_normal(out=y.view(float))
    y[:h] *= w
    y[h:] *= w[-2:0:-1]
    return emb.dft(y)[: -(-N // emb.N1)], math.sqrt(emb.M)  # the first N points and fewer than N1 more


def sample_gaussian_pair(model: SpectralModel, N: int, seed: int, stream_index: int = 0) -> tuple:
    """Two independent unit-variance Gaussian paths of length N with the
    model's correlation: the real and the imaginary half of one transform of
    stream (seed, stream_index); only the two paths outlive the call.
    The stream's first 2M normals fill the M modes in one call: mode m takes
    normals 2m (real) and 2m + 1 (imaginary).
    Exact in distribution when the circulant embedding is nonnegative
    definite; otherwise negative modes are clipped (logged warning) and the
    covariance is approximate."""
    head, scale = _drawn(model, N, seed, stream_index)
    return _gather(head.real, scale)[:N], _gather(head.imag, scale)[:N]


def sample_gaussian(model: SpectralModel, N: int, seed: int, stream_index: int = 0) -> np.ndarray:
    """The real half of `sample_gaussian_pair`, the only half gathered: one path per stream."""
    head, scale = _drawn(model, N, seed, stream_index)
    return _gather(head.real, scale)[:N]


def integrate_K(series: np.ndarray, K: int) -> np.ndarray:
    """K-fold cumulative summation with zero initial values.

    Accumulation runs in extended precision so that K-fold differencing
    recovers the input to near machine accuracy; any residual constant is
    invisible downstream to filters with >= K vanishing moments.
    """
    if K < 0:
        raise ValueError("integration order must be >= 0")
    out = np.asarray(series, dtype=float)
    for _ in range(K):
        out = np.cumsum(out.astype(np.longdouble))
    return np.asarray(out, dtype=float)


def transform_path(model: SpectralModel, g: Optional[Callable], x: np.ndarray) -> np.ndarray:
    """Y = K-fold integral of g(X) for a Gaussian path X, g a centred
    transform (None for the identity); the one place a series Y is formed."""
    return integrate_K(x if g is None else g(x), model.K)


def export_path(series: np.ndarray, csv_path, sidecar: Optional[dict] = None):
    """Single-column CSV plus a JSON sidecar recording config and seed."""
    with open(csv_path, "w", newline="") as fh:
        # the rows csv.writer makes of one unquoted field each, 2^12 at a time in
        # one format call: a larger block's formatted rows outweigh a cold simulate's draw
        for i in range(0, len(series), 2**12):
            block = series[i : i + 2**12].tolist()
            fh.write(("%.17g\r\n" * len(block)) % tuple(block))
    if sidecar is not None:
        with open(str(csv_path) + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
