"""Sample-path synthesis: exact-covariance Gaussian input via circulant
embedding, pointwise nonlinear transform, and K-fold integration.

Every simulated series, in every mode and Monte Carlo replicate, is
`transform_path` of a Gaussian path X drawn from counter-based Philox
streams keyed by (seed, stream index), so generation is reproducible and
embarrassingly parallel; one stream's FFT yields two paths.
"""

import json
import logging
import math
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import NumericError
from .spectral import SpectralModel, autocov_X

log = logging.getLogger(__name__)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent reproducible generator for (seed, stream index)."""
    # a plain list holding a seed >= 2^63 becomes float64, which rounds neighbouring seeds to one key
    key = np.array([seed & (2**64 - 1), index & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Embedding:
    """Circulant square root of the covariance to lag n, reusable across draws.

    The only circulant embedding in the package.  `exact` records whether
    the embedding was nonnegative definite, so that draws have the target
    covariance exactly (always so for the pure fractional model).
    `sqrt_eigs` is read-only: one cached embedding serves every later draw.
    """

    def __init__(self, rho: np.ndarray):
        # checked before the FFT, which would warn on it; a finite correlation,
        # at most 1 in size, has finite eigenvalues
        if not np.isfinite(rho).all():
            raise NumericError("circulant embedding of a non-finite correlation: the model's covariance overflows")
        # rho covers lags 0..n; the circulant extension has period M = 2n
        c = np.concatenate([rho, rho[-2:0:-1]])
        eigs = np.real(np.fft.fft(c))
        self.exact = bool(eigs.min() >= -1e-10 * eigs.max())
        if not self.exact:
            log.warning(
                "circulant embedding not nonnegative definite (min eig %.3e); "
                "falling back to approximate spectral synthesis with clipped modes",
                eigs.min(),
            )
        self.sqrt_eigs = np.sqrt(np.clip(eigs, 0.0, None))
        self.sqrt_eigs.setflags(write=False)
        self.M = len(c)


@lru_cache(maxsize=8)
def _embedding_for(model: SpectralModel, N: int) -> _Embedding:
    return _Embedding(autocov_X(model, N).values)


def sample_gaussian_pair(model: SpectralModel, N: int, seed: int, stream_index: int = 0) -> tuple:
    """Two independent unit-variance Gaussian paths of length N with the
    model's correlation: the real and the imaginary half of one FFT of
    stream (seed, stream_index); only the two paths outlive the call.
    Exact in distribution when the circulant embedding is nonnegative
    definite; otherwise negative modes are clipped (logged warning) and the
    covariance is approximate."""
    emb = _embedding_for(model, N)
    rng = stream(seed, stream_index)
    # one complex buffer, weighted and transformed in place; the generator
    # fills only contiguous arrays, so each normal block is a temporary
    y = np.empty(emb.M, dtype=complex)
    y.real = rng.standard_normal(emb.M)
    y.imag = rng.standard_normal(emb.M)
    y *= emb.sqrt_eigs
    np.fft.fft(y, out=y)
    return y[:N].real / math.sqrt(emb.M), y[:N].imag / math.sqrt(emb.M)


def sample_gaussian(model: SpectralModel, N: int, seed: int, stream_index: int = 0) -> np.ndarray:
    """The real half of `sample_gaussian_pair`: one path per stream."""
    return sample_gaussian_pair(model, N, seed, stream_index)[0]


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
    transform (None for the identity)."""
    return integrate_K(x if g is None else g(x), model.K)


def sample_path(model: SpectralModel, g: Optional[Callable], N: int, seed: int,
                stream_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) on stream (seed, stream_index): an exact-covariance Gaussian
    path X of length N and Y = `transform_path(model, g, X)`."""
    x = sample_gaussian(model, N, seed, stream_index)
    return x, transform_path(model, g, x)


def export_path(series: np.ndarray, csv_path, sidecar: Optional[dict] = None):
    """Single-column CSV plus a JSON sidecar recording config and seed."""
    with open(csv_path, "w", newline="") as fh:
        # the rows csv.writer makes of one unquoted field each, 2^16 at a time
        for i in range(0, len(series), 2**16):
            fh.write("".join(map("{:.17g}\r\n".format, series[i : i + 2**16].tolist())))
    if sidecar is not None:
        with open(str(csv_path) + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
