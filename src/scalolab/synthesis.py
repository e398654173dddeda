"""Sample-path synthesis: exact-covariance Gaussian input via circulant
embedding, pointwise nonlinear transform, and K-fold integration.

`sample_path` is the one path builder: every simulated series, in every
mode and Monte Carlo replicate, is its Y = K-fold integral of G(X).
Randomness flows from counter-based Philox streams keyed by
(seed, stream index), so replicate generation is reproducible and
embarrassingly parallel.
"""

import csv
import json
import logging
import math
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .hermite import HermiteExpansion
from .spectral import SpectralModel, autocov_X

log = logging.getLogger(__name__)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent reproducible generator for (seed, stream index)."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), index & (2**64 - 1)]))


class _Embedding:
    """Circulant square root of the covariance to lag n, reusable across draws.

    The only circulant embedding in the package: path synthesis and the
    second-chaos sampler both draw from it.  `exact` records whether the
    embedding was nonnegative definite, so that draws have the target
    covariance exactly (always so for the pure fractional model).
    """

    def __init__(self, rho: np.ndarray):
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
        self.M = len(c)

    def spectrum(self, rng: np.random.Generator, zr: np.ndarray, zi: np.ndarray) -> np.ndarray:
        """FFT of one block of weighted complex noise, refilling the (rows, M)
        buffers zr and zi in place.  Divided by sqrt(M), the real and the
        imaginary part of each row are two independent paths whose first
        M/2 points have the target covariance."""
        return np.fft.fft((rng.standard_normal(out=zr) + 1j * rng.standard_normal(out=zi))
                          * self.sqrt_eigs, axis=1)


@lru_cache(maxsize=8)
def _embedding_for(model: SpectralModel, N: int) -> _Embedding:
    return _Embedding(autocov_X(model, N, method="auto").values)


def sample_gaussian(model: SpectralModel, N: int, seed: int, stream_index: int = 0) -> np.ndarray:
    """One unit-variance Gaussian path of length N with the model's correlation.

    Exact in distribution when the circulant embedding is nonnegative
    definite; otherwise negative modes are clipped (logged warning) and the
    covariance is approximate.
    """
    emb = _embedding_for(model, N)
    y = emb.spectrum(stream(seed, stream_index), np.empty((1, emb.M)), np.empty((1, emb.M)))
    return np.real(y[0, :N]) / math.sqrt(emb.M)


def sample_gaussian_batch(model: SpectralModel, N: int, seed: int, reps: int, base_index: int = 0) -> np.ndarray:
    """reps paths, one Philox stream per replicate: row r uses (seed, base_index + r)."""
    return np.array([sample_gaussian(model, N, seed, base_index + r) for r in range(reps)])


def apply_G(g: Union[HermiteExpansion, Callable], x: np.ndarray) -> np.ndarray:
    """Pointwise transform of the Gaussian path.

    A HermiteExpansion is evaluated as its (centered) coefficient series;
    a bare callable is applied as-is — callers pass pre-centered callables
    or rely on the expansion's recorded mean shift.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(g, HermiteExpansion):
        out = g(x)
        return out
    return np.asarray(g(x), dtype=float)


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


def difference_K(series: np.ndarray, K: int) -> np.ndarray:
    """K-fold differencing; inverse of integrate_K up to the first K points."""
    out = np.asarray(series, dtype=float)
    for _ in range(K):
        out = np.diff(out)
    return out


def sample_path(model: SpectralModel, g: Optional[Callable], N: int, seed: int,
                stream_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) on stream (seed, stream_index): an exact-covariance Gaussian
    path X of length N and Y = K-fold integral of g(X), g a centred
    transform (None for the identity)."""
    x = sample_gaussian(model, N, seed, stream_index)
    y = x if g is None else apply_G(g, x)
    return x, integrate_K(y, model.K)


def export_path(series: np.ndarray, csv_path, sidecar: Optional[dict] = None):
    """Single-column CSV plus a JSON sidecar recording config and seed."""
    with open(csv_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        for v in series:
            wr.writerow([f"{v:.17g}"])
    if sidecar is not None:
        side_path = str(csv_path) + ".json"
        with open(side_path, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
