"""Pure exponent arithmetic for Hermite-subordinated long-memory series.

Everything here is closed-form: the per-rank memory exponents delta(q),
the chaos-order exponents (alpha, beta, beta') controlling second-moment
bounds of scalogram components, the rank profile of an expansion
(gap sets, markers), the critical exponent governing when the scalogram
of G(X) reduces to that of its leading Hermite term, and the Hoelder
exponent used to budget scalogram bias.

All functions are stateless and safe to call concurrently.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import BoundaryValueError, LongMemoryError

#: absolute tolerance used to decide whether s*(1-2d) equals 1 exactly,
#: i.e. whether d sits on the logarithmic-correction lattice.
LATTICE_TOL = 1e-12


def _check_d(d: float) -> None:
    if not (0.0 < d < 0.5):
        raise ValueError(f"memory parameter d must lie in (0, 1/2), got {d!r}")


def delta(q: int, d: float) -> float:
    """Memory exponent of the q-th Hermite component: q*d - (q-1)/2.

    By convention delta(0) = 1/2.  The component is long-range dependent
    exactly when delta(q) > 0, i.e. q < 1/(1-2d).
    """
    _check_d(d)
    if q < 0:
        raise ValueError("rank q must be >= 0")
    if q == 0:
        return 0.5
    return q * d - (q - 1) / 2.0


def delta_plus(q: int, d: float) -> float:
    """max(delta(q, d), 0); the realised memory parameter of rank q."""
    return max(delta(q, d), 0.0)


def epsilon_flag(p: int, d: float) -> int:
    """1 when some s in {1..p} satisfies s*(1-2d) = 1 (within LATTICE_TOL),
    which is exactly when logarithmic corrections appear at order p."""
    _check_d(d)
    for s in range(1, p + 1):
        if abs(s * (1.0 - 2.0 * d) - 1.0) <= LATTICE_TOL:
            return 1
    return 0


def check_off_boundary(d: float) -> None:
    """Raise BoundaryValueError when d sits on the logarithmic lattice
    {1/2 - 1/(2q), q = 1..128}, within LATTICE_TOL."""
    if epsilon_flag(128, d):
        q = round(1.0 / (1.0 - 2.0 * d))
        raise BoundaryValueError(
            f"d={d!r} sits on the boundary lattice (d = 1/2 - 1/(2*{q})); "
            "power-law rates acquire logarithmic corrections there. "
            "Perturb d slightly to proceed."
        )


def lambda_weight(a: tuple[int, ...], d: float) -> float:
    """Combinatorial weight prod_i (a_i!)^(1-2d) attached to a multi-index."""
    _check_d(d)
    out = 1.0
    for ai in a:
        out *= math.factorial(ai) ** (1.0 - 2.0 * d)
    return out


@dataclass(frozen=True)
class MemoryParams:
    """Long-memory input model: spectral exponent d and integration order K."""

    d: float
    K: int = 0

    def __post_init__(self):
        _check_d(self.d)
        if not (isinstance(self.K, int) and self.K >= 0):
            raise ValueError(f"integration order K must be a nonnegative int, got {self.K!r}")


@dataclass(frozen=True)
class ChaosExponents:
    """Exponents controlling the L2 bound of one chaos component (q, q', p).

    alpha is the sample-size decay rate, beta/beta_second the per-argument
    scale growth rates, beta_prime the joint scale growth rate, epsilon the
    logarithmic-correction flag at order q+q'-2p, and lambda_factor the
    factorial weight of the bound.
    """

    alpha: float
    beta: float
    beta_second: float
    beta_prime: float
    epsilon: int
    lambda_factor: float


def chaos_exponents(q: int, q_prime: int, p: int, d: float) -> ChaosExponents:
    """Exponents for the chaos component indexed (q, q', p), 0 <= p <= min(q, q').

    alpha(q,q',p) = 1/2 for p = 0 and min(1 - delta+(q-p) - delta+(q'-p), 1/2)
    otherwise; beta(q,p) = max(delta+(p) + delta+(q-p) - 1/2, 0);
    beta'(q,q',p) = max(2 delta+(p) + delta+(q-p) + delta+(q'-p) - 1, -1/2).
    """
    _check_d(d)
    if not (1 <= q <= q_prime):
        raise ValueError(f"need 1 <= q <= q', got q={q}, q'={q_prime}")
    if not (0 <= p <= min(q, q_prime)):
        raise ValueError(f"need 0 <= p <= min(q, q'), got p={p}")
    if p == 0:
        alpha = 0.5
    else:
        alpha = min(1.0 - delta_plus(q - p, d) - delta_plus(q_prime - p, d), 0.5)
    beta = max(delta_plus(p, d) + delta_plus(q - p, d) - 0.5, 0.0)
    beta_second = max(delta_plus(p, d) + delta_plus(q_prime - p, d) - 0.5, 0.0)
    beta_prime = max(
        2.0 * delta_plus(p, d) + delta_plus(q - p, d) + delta_plus(q_prime - p, d) - 1.0,
        -0.5,
    )
    eps = epsilon_flag(q + q_prime - 2 * p, d)
    lam = math.sqrt(
        lambda_weight((q - p, p), d) * lambda_weight((q_prime - p, p), d)
    )
    return ChaosExponents(alpha, beta, beta_second, beta_prime, eps, lam)


@dataclass(frozen=True)
class RankProfile:
    """Combinatorics of the nonzero Hermite coefficient indices of G.

    q_indices lists the nonzero ranks in increasing order (q_0 < q_1 < ...).
    gap_sets maps a gap parameter r to the set of positions l whose successor
    rank exceeds it by exactly r+1; ell_markers holds the smallest such
    position per gap.  Q_set keeps the gaps r whose bridging rank r+1 is
    itself long-range dependent at this d, and Jd_set is the union of the
    corresponding gap sets.
    """

    q_indices: tuple[int, ...]
    q0: int
    q1: Optional[int]
    gap_sets: dict[int, frozenset[int]]
    ell_markers: dict[int, int]
    Q_set: frozenset[int]
    Jd_set: frozenset[int]


def rank_profile(coeff_indices, d: float) -> RankProfile:
    """Build the rank profile of an expansion given its nonzero ranks.

    Requires the leading rank to satisfy q0 < 1/(1-2d), i.e. the transformed
    series is long-range dependent; otherwise LongMemoryError is raised.
    """
    _check_d(d)
    q = tuple(sorted(set(int(v) for v in coeff_indices)))
    if not q:
        raise ValueError("coeff_indices must be nonempty")
    if q[0] < 1:
        raise ValueError("expansion ranks must be positive integers")
    q0 = q[0]
    if not q0 < 1.0 / (1.0 - 2.0 * d):
        raise LongMemoryError(
            f"leading rank q0={q0} violates q0 < 1/(1-2d) = {1.0/(1.0-2.0*d):.6g}; "
            "the transformed series is short-range dependent"
        )
    q1 = q[1] if len(q) > 1 else None

    gap_sets: dict[int, set[int]] = {}
    for ell in range(len(q) - 1):
        r = q[ell + 1] - q[ell] - 1
        gap_sets.setdefault(r, set()).add(ell)
    frozen_gaps = {r: frozenset(s) for r, s in gap_sets.items()}
    ell_markers = {r: min(s) for r, s in gap_sets.items()}
    Q_set = frozenset(r for r in frozen_gaps if delta(r + 1, d) > 0.0)
    Jd_set = frozenset().union(*(frozen_gaps[r] for r in Q_set)) if Q_set else frozenset()
    return RankProfile(q, q0, q1, frozen_gaps, ell_markers, Q_set, Jd_set)


@dataclass
class CriticalExponentReport:
    """Critical exponent (math.inf when infinite) together with the branch
    taken and every branch input."""

    nu_c: float
    branch: str
    inputs: dict = field(default_factory=dict)
    candidates: list = field(default_factory=list)


def critical_exponent_report(profile: RankProfile, d: float) -> CriticalExponentReport:
    """Evaluate the critical exponent case by case, recording the inputs.

    The exponent is the growth threshold: when the per-scale coefficient
    count grows slower than (scale factor)^nu_c, the scalogram of G(X)
    behaves like that of its leading Hermite term.
    """
    _check_d(d)
    q = profile.q_indices
    q0 = profile.q0
    I0 = profile.gap_sets.get(0, frozenset())
    inputs = {
        "q0": q0,
        "q1": profile.q1,
        "I0": sorted(I0),
        "Q_set": sorted(profile.Q_set),
        "Jd_set": sorted(profile.Jd_set),
        "ell_markers": dict(sorted(profile.ell_markers.items())),
    }

    def rep(nu, branch, cands=()):
        return CriticalExponentReport(nu, branch, inputs, list(cands))

    if len(q) == 1:
        return rep(math.inf, "single-term")

    if q0 == 1:
        if d <= 0.25:
            if not I0:
                return rep(math.inf, "rank-one, d<=1/4, no consecutive ranks")
            ell0 = profile.ell_markers[0]
            val = (d + 0.5 - 2.0 * delta_plus(q[ell0], d)) / d
            inputs["q_ell0"] = q[ell0]
            return rep(val, "rank-one, d<=1/4, consecutive ranks")
        # d > 1/4: the first candidate always involves the second rank
        q1 = profile.q1
        cand0 = (1.0 - 2.0 * delta_plus(q1 - 1, d)) / (2.0 * d - 0.5)
        if not profile.Jd_set:
            inputs["candidate_q1"] = cand0
            return rep(cand0, "rank-one, d>1/4, no long-memory gaps")
        cands = [("q1", cand0)]
        for r in sorted(profile.Q_set):
            qlr = q[profile.ell_markers[r]]
            dr = delta(r + 1, d)
            cands.append((f"gap r={r}", (2.0 * d + 0.5 - 2.0 * delta_plus(qlr, d) - dr) / dr))
        val = min(v for _, v in cands)
        return rep(val, "rank-one, d>1/4, long-memory gaps", cands)

    # q0 >= 2
    if not I0:
        return rep(math.inf, "rank>=2, no consecutive ranks")
    ell0 = profile.ell_markers[0]
    val = 1.0 + 4.0 * (delta(q0, d) - delta_plus(q[ell0], d)) / (1.0 - 2.0 * d)
    inputs["q_ell0"] = q[ell0]
    return rep(val, "rank>=2, consecutive ranks")


def zeta_exponent(d: float, q0: int, q1: Optional[int] = None) -> float:
    """Hoelder exponent of the short-range factor of the transformed density.

    Returns 2*(delta(q0) - delta+(q1)), with delta+(q1) taken as 0 when no
    second rank exists.  It is at most 2*delta(q0) <= 2d < 1, so the input's
    f*, a trigonometric polynomial of Hoelder exponent 2, never binds it
    (Moulines, Roueff & Taqqu 2007 take the minimum of the two).  For
    q0 >= 2 the exponent must be strictly below 2*delta(q0); when it reaches
    that bound it is shrunk by the relative factor 1e-6 (the strict
    inequality admits no canonical choice).
    """
    _check_d(d)
    dpq1 = delta_plus(q1, d) if q1 is not None else 0.0
    zeta = 2.0 * (delta(q0, d) - dpq1)
    if q0 >= 2:
        cap = 2.0 * delta(q0, d)
        if zeta >= cap:
            zeta = cap * (1.0 - 1e-6)
    return zeta
