import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scalolab import hermite
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


def _points() -> np.ndarray:
    x = np.random.default_rng(27).standard_normal(4000) * 4.0
    x[:6] = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e200]  # signed zeros, and H_q overflowing to +-inf
    return x


def test_hermite_eval_matches_recurrence_oracle():
    # bit for bit the recurrence with a fresh array per step
    x = _points()
    with np.errstate(over="ignore", invalid="ignore"):
        for q, ref in enumerate(oracles.hermite_polys(x, 40)):
            h = hermite_eval(q, x)
            assert h.tobytes() == ref.tobytes(), q
            # the caller's own array: writing into it leaves x as it was
            assert h.flags.owndata and h.flags.writeable and not np.shares_memory(h, x), q


def test_hermite_series_is_the_reference_sum_bit_for_bit():
    x, rng = _points(), np.random.default_rng(28)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(200):
            ranks = rng.choice(41, size=rng.integers(1, 7), replace=False)
            coeffs = {int(q): float(rng.choice([rng.standard_normal(), 0.0, -0.0])) for q in ranks}
            assert hermite_series(coeffs, x).tobytes() == oracles.hermite_series(coeffs, x).tobytes(), coeffs
    assert hermite_series({}, x).tobytes() == oracles.hermite_series({}, x).tobytes()
    # -0.0 terms sum to +0.0, as zeros plus each term does
    for coeffs in ({1: -1.0}, {2: -0.0, 3: 1.0}, {0: 1.0, 2: 0.5}):
        for t in (np.array([0.0, -0.0, 1.0]), np.array(0.0)):
            assert hermite_series(coeffs, t).tobytes() == oracles.hermite_series(coeffs, t).tobytes()


def test_hermite_series_divides_by_the_exact_factorial():
    # c_q = q! makes the series H_q itself: a running float product of
    # 1..q departs from q! at q = 28, and the term then misses H_q by an ulp
    x = _points()
    with np.errstate(over="ignore", invalid="ignore"):
        for q in range(1, 41):
            got = hermite_series({q: float(math.factorial(q))}, x)
            assert np.array_equal(got, hermite_eval(q, x), equal_nan=True), q


@pytest.mark.parametrize("G", [lambda t: t**3 - 3.0 * t, lambda t: np.exp(t), lambda t: np.abs(t),
                               lambda t: np.sin(2.0 * t)], ids=["cubic", "exp", "abs", "sin"])
def test_expand_coefficients_are_the_reference_recurrences(G, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exp and abs are auto-centred
        got = expand(G)
        monkeypatch.setattr(hermite, "_hermite_polys", oracles.hermite_polys)
        ref = expand(G)
    assert got == ref and got.coeffs


def _traced_peak(f, *args) -> int:
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hermite_evaluation_holds_at_most_three_arrays():
    # in x's arrays of 8n bytes, the result included; a fresh array per
    # step holds 5 for the series and 4 for every H_q from q = 2
    n = 2**16
    x = np.random.default_rng(3).standard_normal(n)
    slack = 64 * 1024
    assert _traced_peak(hermite_series, {2: 2.0, 3: 1.0}, x) <= 3 * 8 * n + slack
    assert _traced_peak(hermite_eval, 2, x) <= 1 * 8 * n + slack
    for q in range(41):
        assert _traced_peak(hermite_eval, q, x) <= 3 * 8 * n + slack, q


def test_orthogonality_table():
    x, w = gauss_hermite_rule(256)
    H = [hermite_eval(q, x) for q in range(13)]
    for q in range(13):
        for qp in range(13):
            val = float(w @ (H[q] * H[qp]))
            expect = math.factorial(q) if q == qp else 0.0
            norm = math.sqrt(math.factorial(q) * math.factorial(qp))
            assert abs(val - expect) / norm < 1e-8


def _reference_rule(order: int):
    """scipy's Golub-Welsch rule, its weights rescaled to the N(0,1) density."""
    from scipy.special import roots_hermitenorm

    x, w = roots_hermitenorm(order)
    return x, w / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("order", [256, 512])
def test_gauss_hermite_rule_matches_the_reference(order):
    x, w = gauss_hermite_rule(order)
    x_ref, w_ref = _reference_rule(order)
    assert np.max(np.abs(x - x_ref)) <= 5e-14
    assert np.all(np.isfinite(w))
    held = w_ref > 1e-300  # below, both sides are rounding or underflow
    np.testing.assert_allclose(w[held], w_ref[held], rtol=1e-11, atol=0)
    assert abs(w.sum() - 1.0) <= 1e-14


def test_gauss_hermite_rule_raises_past_its_clean_range():
    # past order 716 the bisection's q_k overflow and nodes turn NaN: 700 is the last order taken
    x, w = gauss_hermite_rule(700)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w)) and len(x) == 700
    with pytest.raises(ValueError, match="order 1024"):
        gauss_hermite_rule(1024)


def test_gauss_hermite_rule_is_the_same_under_any_blas_thread_count():
    # an eigen-solve moves with OpenBLAS's thread count; the rule makes no BLAS call
    code = ("import hashlib; from scalolab.hermite import gauss_hermite_rule as g; "
            "print(hashlib.sha256(b''.join(a.tobytes() for n in (256, 512) for a in g(n))).hexdigest())")
    digests = []
    for threads in ("1", "2"):
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert r.returncode == 0, r.stderr
        digests.append(r.stdout)
    here = hashlib.sha256(b"".join(a.tobytes() for n in (256, 512) for a in gauss_hermite_rule(n))).hexdigest()
    assert digests == [here + "\n"] * 2


_TRANSFORMS = {"cubic-H3": lambda x: x**3 - 3.0 * x, "exp": np.exp, "abs": np.abs, "sin": lambda x: np.sin(2.0 * x),
               "exp-centered": lambda x: np.exp(x / 2.0) - math.exp(0.125), "shift": lambda x: x + 2.0,
               "cubic": lambda x: x**3}


@pytest.mark.parametrize("name", sorted(_TRANSFORMS))
def test_expand_keeps_the_reference_rule_ranks(name, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exp, abs and the shift are auto-centred
        got = expand(_TRANSFORMS[name])
        monkeypatch.setattr(hermite, "gauss_hermite_rule", _reference_rule)
        ref = expand(_TRANSFORMS[name])
    assert set(got.coeffs) == set(ref.coeffs)
    assert max(abs(got.coeffs[q] - c) / math.sqrt(math.factorial(q)) for q, c in ref.coeffs.items()) <= 1e-13


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
    e = expand(lambda x: np.exp(x / 2.0) - math.exp(0.125))
    exact = math.exp(0.5) - math.exp(0.25)
    assert e.parseval_mass == pytest.approx(exact, rel=0.01)


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_expand_linear_in_G(a, b):
    e1 = expand(lambda x: x**2 - 1.0)
    e2 = expand(lambda x: x**3)
    e3 = expand(lambda x: a * (x**2 - 1.0) + b * x**3)
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
