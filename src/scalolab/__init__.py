"""scalolab: wavelet scalogram analysis of nonlinear long-memory time series.

Synthesis of Hermite-subordinated long-range-dependent series, multiscale
wavelet scalograms, log-scale regression estimation of the memory
parameter, critical-exponent arithmetic for the scalogram reduction
principle, and a hypothesis test on the memory parameter with Gaussian or
second-chaos (Rosenblatt) calibration.
"""

__version__ = "0.10.0"

from .exponents import (  # noqa: F401
    ChaosExponents,
    MemoryParams,
    RankProfile,
    chaos_exponents,
    critical_exponent_report,
    rank_profile,
    zeta_exponent,
)
from .hermite import (  # noqa: F401
    HermiteExpansion,
    expand,
    expansion_from_coeffs,
    hermite_eval,
    hermite_rank,
)
from .spectral import (  # noqa: F401
    SpectralModel,
    autocov_X,
    autocov_transformed,
    density_at,
)
from .synthesis import (  # noqa: F401
    integrate_K,
    sample_gaussian,
)
from .wavelet import (  # noqa: F401
    FilterBank,
    ScalogramSummary,
    build_bank,
    n_coeffs,
    scalograms,
    wavelet_coeffs,
)
from .inference import (  # noqa: F401
    EstimationReport,
    LimitLaw,
    TestReport,
    calibrate_test,
    estimate_d0,
    limit_constants,
    regression_weights,
)
