import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalolab.errors import NonIntegrabilityError
from scalolab.hermite import (
    HermiteExpansion,
    expand,
    expansion_from_coeffs,
    gauss_hermite_rule,
    hermite_eval,
    hermite_rank,
    hermite_series,
)

# --- oracle: exact integer-coefficient conversion of monomials into the
# Hermite basis via the linearisation x * H_q = H_{q+1} + q H_{q-1} ----------


def monomial_hermite_coeffs(n: int) -> dict:
    """x^n = sum_q a_q H_q(x) with exact rational (here integer) a_q."""
    coeffs = {0: 1.0}  # x^0 = H_0
    for _ in range(n):
        nxt: dict = {}
        for q, a in coeffs.items():
            nxt[q + 1] = nxt.get(q + 1, 0.0) + a
            if q >= 1:
                nxt[q - 1] = nxt.get(q - 1, 0.0) + a * q
        coeffs = nxt
    return {q: a for q, a in coeffs.items() if a != 0.0}


def test_monomial_oracle_sanity():
    assert monomial_hermite_coeffs(3) == {3: 1.0, 1: 3.0}  # x^3 = H3 + 3 H1
    assert monomial_hermite_coeffs(2) == {2: 1.0, 0: 1.0}


# --- evaluation ---------------------------------------------------------------


def test_hermite_eval_values():
    assert hermite_eval(0, 5.0) == 1.0
    assert hermite_eval(1, 5.0) == 5.0
    assert hermite_eval(2, 3.0) == 8.0
    assert hermite_eval(4, 0.0) == 3.0


def test_hermite_eval_matches_recurrence_oracle():
    xs = np.linspace(-3, 3, 11)
    h_prev, h = np.ones_like(xs), xs.copy()
    for q in range(1, 15):
        np.testing.assert_allclose(hermite_eval(q, xs), h, rtol=1e-12)
        h_prev, h = h, xs * h - q * h_prev


def test_orthogonality_table():
    x, w = gauss_hermite_rule(256)
    H = [hermite_eval(q, x) for q in range(13)]
    for q in range(13):
        for qp in range(13):
            val = float(w @ (H[q] * H[qp]))
            expect = math.factorial(q) if q == qp else 0.0
            norm = math.sqrt(math.factorial(q) * math.factorial(qp))
            assert abs(val - expect) / norm < 1e-8


# --- expansion ----------------------------------------------------------------


def test_expand_cubic_exact():
    e = expand(lambda x: x**3)
    assert set(e.coeffs) == {1, 3}
    # oracle: x^3 = H_3 + 3 H_1 and c_q = q! a_q under the c_q/q! convention
    oracle = monomial_hermite_coeffs(3)
    assert e.coeffs[1] == pytest.approx(oracle[1] * math.factorial(1), rel=1e-12)
    assert e.coeffs[3] == pytest.approx(oracle[3] * math.factorial(3), rel=1e-12)


def test_expand_pure_rank_two():
    e = expand(lambda x: x * x - 1.0)
    assert set(e.coeffs) == {2}
    assert e.coeffs[2] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.filterwarnings("ignore:transform has nonzero mean")
def test_expand_even_transform_kills_odd_ranks():
    # |x| has a kink, so its quadrature mean carries ~1e-4 error and the
    # auto-centering warning fires; the even/odd structure is exact regardless
    e = expand(lambda x: np.abs(x) - math.sqrt(2.0 / math.pi))
    assert all(q % 2 == 0 for q in e.coeffs)


@pytest.mark.filterwarnings("ignore:transform has nonzero mean")
def test_expand_cannot_write_into_the_cached_rule():
    # the rule is memoised per order: a G that works in place gets a copy,
    # and the cached nodes and weights refuse writes
    x, w = gauss_hermite_rule(256)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    expand(lambda x: np.abs(x, out=x) - math.sqrt(2.0 / math.pi))
    e = expand(lambda x: x**3)
    assert set(e.coeffs) == {1, 3}
    assert e.coeffs[1] == pytest.approx(3.0, rel=1e-12)
    assert e.coeffs[3] == pytest.approx(6.0, rel=1e-12)


def test_parseval_polynomial_exact():
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal(6)

    def G(x):
        return np.polynomial.polynomial.polyval(x, coeffs) - sum(
            c * (math.prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0.0)
            for n, c in enumerate(coeffs)
        )

    e = expand(G)
    assert e.parseval_mass == pytest.approx(e.second_moment, rel=1e-10)


def test_parseval_exp_centered_within_one_percent():
    e = expand(lambda x: np.exp(x / 2.0) - math.exp(0.125), quad_order=128)
    exact = math.exp(0.5) - math.exp(0.25)
    assert e.parseval_mass == pytest.approx(exact, rel=0.01)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_expand_linear_in_G(a, b):
    e1 = expand(lambda x: x**2 - 1.0, qmax=8, quad_order=64)
    e2 = expand(lambda x: x**3, qmax=8, quad_order=64)
    e3 = expand(lambda x: a * (x**2 - 1.0) + b * x**3, qmax=8, quad_order=64)
    for q in set(e1.coeffs) | set(e2.coeffs) | set(e3.coeffs):
        combo = a * e1.coeffs.get(q, 0.0) + b * e2.coeffs.get(q, 0.0)
        assert e3.coeffs.get(q, 0.0) == pytest.approx(combo, abs=1e-8)


def test_expand_auto_centers_with_warning():
    with pytest.warns(UserWarning, match="auto-centering"):
        e = expand(lambda x: x + 2.0)
    assert e.mean_shift == pytest.approx(2.0, abs=1e-10)
    assert set(e.coeffs) == {1}


def test_expand_divergent_raises():
    with pytest.raises(NonIntegrabilityError):
        expand(lambda x: np.exp(x * x / 2.0))


def test_series_evaluation_roundtrip():
    e = expand(lambda x: x**3)
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(hermite_series(e.coeffs, xs), xs**3, atol=1e-10)
    np.testing.assert_allclose(e(xs), xs**3, atol=1e-10)


# --- rank ----------------------------------------------------------------------


def test_hermite_rank_examples():
    assert hermite_rank(expansion_from_coeffs({1: 3.0, 3: 6.0})) == (1, 3)
    assert hermite_rank(expansion_from_coeffs({2: 2.0})) == (2, None)
    illustration = expansion_from_coeffs({1: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 24: 1.0})
    assert hermite_rank(illustration) == (1, 3)


def test_hermite_rank_empty_errors():
    with pytest.raises(ValueError):
        expansion_from_coeffs({})
    with pytest.raises(ValueError):
        expansion_from_coeffs({3: 0.0})
