import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalolab.errors import BoundaryValueError, LongMemoryError
from scalolab.exponents import (
    chaos_exponents,
    check_off_boundary,
    critical_exponent_report,
    delta,
    delta_plus,
    epsilon_flag,
    rank_profile,
    zeta_exponent,
)

# --- independent oracle: the critical exponent evaluated straight from the
# case list, with its own gap bookkeeping (kept deliberately separate from
# the library implementation) ----------------------------------------------


def nu_c_oracle(q_indices, d):
    q = sorted(q_indices)
    dd = lambda m: m * d - (m - 1) / 2.0 if m >= 1 else 0.5
    ddp = lambda m: max(dd(m), 0.0)
    gaps = {}
    for ell in range(len(q) - 1):
        gaps.setdefault(q[ell + 1] - q[ell] - 1, []).append(ell)
    I0 = gaps.get(0, [])
    Q = {r for r in gaps if dd(r + 1) > 0}
    Jd = [ell for r in Q for ell in gaps[r]]
    if len(q) == 1:
        return math.inf
    q0, q1 = q[0], q[1]
    if q0 == 1:
        if d <= 0.25:
            if not I0:
                return math.inf
            return (d + 0.5 - 2 * ddp(q[min(I0)])) / d
        cands = [(1 - 2 * ddp(q1 - 1)) / (2 * d - 0.5)]
        if Jd:
            for r in Q:
                lr = min(gaps[r])
                cands.append((2 * d + 0.5 - 2 * ddp(q[lr]) - dd(r + 1)) / dd(r + 1))
        return min(cands)
    if not I0:
        return math.inf
    return 1 + 4 * (dd(q0) - ddp(q[min(I0)])) / (1 - 2 * d)


# --- delta ------------------------------------------------------------------


def test_delta_examples():
    assert (delta(1, 0.3), delta_plus(1, 0.3)) == (pytest.approx(0.3), pytest.approx(0.3))
    assert delta(2, 0.25) == pytest.approx(0.0, abs=1e-15)
    assert delta_plus(2, 0.25) == 0.0
    assert delta(3, 0.3) == pytest.approx(-0.1)
    assert delta_plus(3, 0.3) == 0.0
    assert (delta(0, 0.17), delta_plus(0, 0.17)) == (0.5, 0.5)


def test_delta_domain_errors():
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            delta(1, bad)
        with pytest.raises(ValueError):
            delta_plus(1, bad)
    with pytest.raises(ValueError):
        delta(-1, 0.3)
    with pytest.raises(ValueError):
        delta_plus(-1, 0.3)


@given(st.floats(0.01, 0.49), st.integers(0, 40))
def test_delta_plus_nonincreasing(d, q):
    assert delta_plus(q + 1, d) <= delta_plus(q, d) + 1e-15


# --- chaos exponents ---------------------------------------------------------


def test_chaos_exponent_examples():
    for q in (1, 2, 5):
        for d in (0.1, 0.3, 0.45):
            assert chaos_exponents(q, q + 1, q, d).alpha == pytest.approx(0.5 - d)
    assert chaos_exponents(2, 2, 1, 0.3).alpha == pytest.approx(0.4)
    ce = chaos_exponents(1, 2, 0, 0.2)
    assert ce.alpha == 0.5
    assert ce.beta_prime == pytest.approx(0.2)


def test_chaos_exponent_ordering_errors():
    with pytest.raises(ValueError):
        chaos_exponents(3, 2, 1, 0.3)
    with pytest.raises(ValueError):
        chaos_exponents(2, 3, 5, 0.3)
    with pytest.raises(ValueError):
        chaos_exponents(2, 3, -1, 0.3)


def test_lambda_factor_at_least_one():
    assert chaos_exponents(4, 6, 2, 0.3).lambda_factor >= 1.0


def test_chaos_epsilon_field_flags_lattice_order():
    # order q + q' - 2p = 5 and d = 0.4 sits on the 5-step lattice
    assert chaos_exponents(3, 4, 1, 0.4).epsilon == 1
    assert chaos_exponents(3, 4, 1, 0.3).epsilon == 0


@given(
    st.integers(1, 25), st.integers(0, 25), st.integers(0, 25),
    st.floats(0.02, 0.48),
)
def test_beta_prime_bounded_by_beta_sum(q, dq, p_raw, d):
    q_prime = q + dq
    p = p_raw % (min(q, q_prime) + 1)
    ce = chaos_exponents(q, q_prime, p, d)
    assert ce.beta_prime <= ce.beta + ce.beta_second + 1e-12


def test_epsilon_boundary_detection():
    assert epsilon_flag(5, 0.4) == 1  # 5*(1-0.8) = 1
    assert epsilon_flag(4, 0.4) == 0
    assert epsilon_flag(2, 0.25) == 1
    for d in (0.25, 0.4):
        with pytest.raises(BoundaryValueError):
            check_off_boundary(d)
    check_off_boundary(0.3)
    with pytest.raises(BoundaryValueError):
        check_off_boundary(1.0 / 3.0)
    check_off_boundary(0.35)


# --- rank profile ------------------------------------------------------------


def test_rank_profile_illustration():
    prof = rank_profile({1, 3, 4, 5, 24}, 0.3)
    assert prof.q_indices == (1, 3, 4, 5, 24)
    assert prof.gap_sets[0] == frozenset({1, 2})
    assert prof.gap_sets[1] == frozenset({0})
    assert prof.gap_sets[18] == frozenset({3})
    assert prof.ell_markers == {0: 1, 1: 0, 18: 3}
    assert prof.Q_set == frozenset({0, 1})
    assert prof.Jd_set == frozenset({0, 1, 2})


def test_rank_profile_small_d_case():
    prof = rank_profile({1, 3, 4, 5, 24}, 0.2)
    assert prof.Q_set == frozenset({0})
    assert prof.Jd_set == frozenset({1, 2})


def test_rank_profile_single_term():
    prof = rank_profile({2}, 0.3)
    assert prof.gap_sets == {}
    assert prof.Q_set == frozenset()
    assert prof.Jd_set == frozenset()
    assert prof.q1 is None


def test_rank_profile_long_memory_violation():
    with pytest.raises(LongMemoryError):
        rank_profile({3}, 0.3)  # needs q0 < 1/(1-2d) = 2.5
    rank_profile({2}, 0.3)  # boundary-side fine


@given(
    st.sets(st.integers(1, 30), min_size=1, max_size=8),
    st.floats(0.02, 0.48),
)
def test_rank_profile_invariants(indices, d):
    q0 = min(indices)
    if not q0 < 1.0 / (1.0 - 2.0 * d):
        with pytest.raises(LongMemoryError):
            rank_profile(indices, d)
        return
    prof = rank_profile(indices, d)
    q = prof.q_indices
    assert prof.q0 == q[0] == q0
    for r, s in prof.gap_sets.items():
        for ell in s:
            assert q[ell + 1] - q[ell] == r + 1
    cap = math.floor(1.0 / (1.0 - 2.0 * d)) - 1
    assert all(0 <= r <= cap for r in prof.Q_set)
    expect_jd = frozenset().union(*(prof.gap_sets[r] for r in prof.Q_set)) if prof.Q_set else frozenset()
    assert prof.Jd_set == expect_jd
    for r, s in prof.gap_sets.items():
        assert prof.ell_markers[r] == min(s)


# --- critical exponent -------------------------------------------------------


def test_critical_exponent_illustration_golden():
    prof = rank_profile({1, 3, 4, 5, 24}, 0.3)
    rep = critical_exponent_report(prof, 0.3)
    assert rep.nu_c == pytest.approx(8.0 / 3.0, rel=1e-12)
    # candidate arguments checked one by one: q1 branch 8, gap r=0 gives 8/3,
    # gap r=1 gives 4
    cands = dict(rep.candidates)
    assert cands["q1"] == pytest.approx(8.0)
    assert cands["gap r=0"] == pytest.approx(8.0 / 3.0)
    assert cands["gap r=1"] == pytest.approx(4.0)
    assert nu_c_oracle({1, 3, 4, 5, 24}, 0.3) == pytest.approx(8.0 / 3.0)


def test_critical_exponent_single_term_infinite():
    for idx, d in (({1}, 0.3), ({2}, 0.4), ({7}, 0.47)):
        nu = critical_exponent_report(rank_profile(idx, d), d).nu_c
        assert nu == math.inf


def test_critical_exponent_rank2_consecutive():
    # consecutive ranks starting at q0 >= 2 with the marker rank still
    # long-range dependent: closed form 1 + 2 (q_{l0} - q0)
    d = 0.45
    prof = rank_profile({2, 5, 6}, d)  # l0 = 1, q_{l0} = 5, delta(5) = 0.25 > 0
    nu = critical_exponent_report(prof, d).nu_c
    assert nu == pytest.approx(1 + 2 * (5 - 2), rel=1e-12)
    assert nu == pytest.approx(nu_c_oracle({2, 5, 6}, d), rel=1e-12)


def test_critical_exponent_even_transform_infinite():
    # only even ranks, no consecutive pair
    d = 0.4
    nu = critical_exponent_report(rank_profile({2, 4, 6, 8}, d), d).nu_c
    assert nu == math.inf


def test_critical_exponent_is_a_float():
    # +inf is a float: a single term and a rank set without consecutive
    # ranks give math.inf itself, every other case a finite float
    for idx, d in (({2}, 0.4), ({1, 3, 5}, 0.2), ({2, 4, 6, 8}, 0.4)):
        nu = critical_exponent_report(rank_profile(idx, d), d).nu_c
        assert type(nu) is float and nu == math.inf
    for idx, d in (({1, 3, 4, 5, 24}, 0.3), ({2, 5, 6}, 0.45), ({1, 2}, 0.2)):
        nu = critical_exponent_report(rank_profile(idx, d), d).nu_c
        assert type(nu) is float and math.isfinite(nu)


@given(
    st.sets(st.integers(1, 28), min_size=1, max_size=7),
    st.floats(0.02, 0.48),
)
@settings(max_examples=300)
def test_critical_exponent_matches_oracle_and_positive(indices, d):
    q0 = min(indices)
    if not q0 < 1.0 / (1.0 - 2.0 * d):
        return
    prof = rank_profile(indices, d)
    nu = critical_exponent_report(prof, d).nu_c
    oracle = nu_c_oracle(indices, d)
    if math.isinf(oracle):
        assert nu == math.inf
    else:
        assert nu == pytest.approx(oracle, rel=1e-12)
    assert nu > 0.0


# --- zeta ---------------------------------------------------------------------


def test_zeta_examples():
    assert zeta_exponent(0.3, 1, 3) == pytest.approx(0.6)
    z = zeta_exponent(0.3, 2, None)
    assert z == pytest.approx(0.2 * (1 - 1e-6), rel=1e-9)
    assert z < 2 * delta(2, 0.3)
    # delta+(2) = 0.4 at d = 0.45: the second rank lowers zeta to 2 (0.45 - 0.4)
    assert zeta_exponent(0.45, 1, 2) == pytest.approx(0.1)


def test_zeta_domain_error():
    for bad in (0.0, -1.0, 0.5):
        with pytest.raises(ValueError):
            zeta_exponent(bad, 1, None)
    with pytest.raises(ValueError):
        zeta_exponent(0.3, -1, None)


@given(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True), st.integers(1, 30),
       st.none() | st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_zeta_is_twice_the_rank_gap(d, q0, gap):
    # at every d the config admits (off the lattice), zeta is 2 (delta(q0) - delta+(q1))
    # to the bit, below 1, and shrunk by 1e-6 exactly when q0 >= 2 and delta+(q1) = 0,
    # where it would reach 2 delta(q0)
    if epsilon_flag(128, d):
        return
    q1 = None if gap is None else q0 + gap
    dp1 = 0.0 if q1 is None else delta_plus(q1, d)
    rank_term = 2.0 * (delta(q0, d) - dp1)
    z = zeta_exponent(d, q0, q1)
    assert z == (rank_term * (1.0 - 1e-6) if q0 >= 2 and dp1 == 0.0 else rank_term)
    assert z < 1.0


# --- monotonicity spot checks (exhaustive sweeps live in the acceptance suite) --


def test_alpha_monotonicity_spot():
    d = 0.37
    for q, qp, p in ((2, 4, 1), (3, 5, 2), (1, 3, 1)):
        base = chaos_exponents(q, qp, p, d).alpha
        assert chaos_exponents(q + 1, qp + 1, p, d).alpha >= base - 1e-12
        assert chaos_exponents(q, qp + 1, p, d).alpha >= base - 1e-12
        if p + 1 <= min(q, qp):
            assert chaos_exponents(q, qp, p + 1, d).alpha <= base + 1e-12


def test_nu_c_monotone_in_d_spot():
    idx = {1, 3, 4, 5, 24}
    grid = [0.05 + 0.44 * i / 30 for i in range(31)]
    vals = [critical_exponent_report(rank_profile(idx, d), d).nu_c for d in grid]
    assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))
    idx2 = {2, 3, 6}
    grid2 = [0.26 + 0.23 * i / 30 for i in range(31)]
    vals2 = [critical_exponent_report(rank_profile(idx2, d), d).nu_c for d in grid2]
    assert all(a <= b + 1e-10 for a, b in zip(vals2, vals2[1:]))
