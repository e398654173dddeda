"""scalolab: wavelet scalogram analysis of nonlinear long-memory time series.

Synthesis of Hermite-subordinated long-range-dependent series, multiscale
wavelet scalograms, log-scale regression estimation of the memory
parameter, critical-exponent arithmetic for the scalogram reduction
principle, and a hypothesis test on the memory parameter with Gaussian or
second-chaos (Rosenblatt) calibration.
"""

__version__ = "0.3.0"

from .exponents import (  # noqa: F401
    ChaosExponents,
    CriticalExponent,
    MemoryParams,
    RankProfile,
    chaos_exponents,
    critical_exponent,
    critical_exponent_report,
    delta_exponents,
    rank_profile,
    rate_bound,
    zeta_exponent,
)
from .hermite import (  # noqa: F401
    HermiteExpansion,
    decay_check,
    expand,
    expansion_from_coeffs,
    hermite_eval,
    hermite_rank,
)
from .spectral import (  # noqa: F401
    CovarianceSequence,
    GeneralizedDensity,
    ShortRangeSpec,
    SpectralModel,
    autocov_X,
    autocov_transformed,
    density_at,
    generalized_density,
)
from .synthesis import (  # noqa: F401
    apply_G,
    integrate_K,
    sample_gaussian,
    sample_path,
)
from .wavelet import (  # noqa: F401
    FilterBank,
    ScalogramSummary,
    build_bank,
    multiscale_scalogram,
    n_coeffs,
    scalogram,
    scalograms,
    wavelet_coeffs,
)
from .inference import (  # noqa: F401
    EstimationReport,
    LimitLaw,
    TestReport,
    estimate_d0,
    limit_constants,
    regression_weights,
    rosenblatt_sample,
    run_test,
)
