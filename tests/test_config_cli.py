import dataclasses
import functools
import hashlib
import json
import math
import os
import pickle
import platform
import re
import subprocess
import sys
import types
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import scalolab.config
import scalolab.harness as harness
import scalolab.inference
import scalolab.synthesis
import scalolab.wavelet
from scalolab import cli
from scalolab.config import ConfigError, ingest, parse_config, parse_g_spec
from scalolab.errors import NumericError
from scalolab.harness import run
from scalolab.hermite import expansion_from_coeffs, hermite_eval
from scalolab.inference import calibrate_test, estimate_d0
from scalolab.synthesis import export_path, sample_gaussian, sample_gaussian_pair
from scalolab.wavelet import build_bank

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# --- transform specs -------------------------------------------------------


def test_g_spec_shorthand_and_forms():
    assert parse_g_spec("hermite:3").coeffs == ((3, 6.0),)
    assert parse_g_spec("exp-centered").kind == "exp-centered"
    g = parse_g_spec({"kind": "polynomial", "coeffs": ["0", "1/2", "3"]})
    assert g.coeffs == (0.0, 0.5, 3.0)
    g2 = parse_g_spec({"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": "1"}})
    assert g2.coeffs == ((2, 2.0), (3, 1.0))


@pytest.mark.parametrize("q", [1, 2, 3, 28, 40, 170])
def test_hermite_rank_is_its_one_term_series(q):
    # the series divides q! by the exact q!, so the one term is H_q to the bit
    x = np.random.default_rng(q).standard_normal(4096)
    for spec in (f"hermite:{q}", {"kind": "hermite", "q": q}):
        g = parse_g_spec(spec)
        assert np.array_equal(g(x), hermite_eval(q, x))
        assert g.expansion() == expansion_from_coeffs({q: float(math.factorial(q))})


def test_g_spec_errors():
    with pytest.raises(ConfigError, match="g.kind"):
        parse_g_spec({"kind": "mystery"})
    with pytest.raises(ConfigError, match="g.q"):
        parse_g_spec({"kind": "hermite"})
    with pytest.raises(ConfigError, match="g.coeffs"):
        parse_g_spec({"kind": "polynomial", "coeffs": ["one"]})


def test_g_spec_polynomial_centering_and_expansion():
    g = parse_g_spec({"kind": "polynomial", "coeffs": [1, 0, 1]})  # 1 + x^2
    xs = np.array([0.0, 1.0, -2.0])
    np.testing.assert_allclose(g(xs), xs**2 - 1.0)  # mean removed exactly
    e = g.expansion()
    assert set(e.coeffs) == {2}


def test_g_spec_exact_hermite_expansions():
    e = parse_g_spec("hermite:4").expansion()
    assert e.coeffs == {4: 24.0}
    ill = parse_g_spec({"kind": "hermite-coeffs",
                        "coeffs": {"1": 1, "3": 1, "4": 1, "5": 1, "24": 1}}).expansion()
    assert ill.nonzero_indices() == (1, 3, 4, 5, 24)


def test_g_spec_builtin_rank_structure():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sgn = parse_g_spec("sign").expansion()
        ab = parse_g_spec("abs-centered").expansion()
        ex = parse_g_spec("exp-centered").expansion()
    assert not caught  # the exact maps are centred: no auto-centering warning
    assert all(q % 2 == 1 for q in sgn.coeffs)  # odd transform
    assert sgn.nonzero_indices()[0] == 1
    assert all(q % 2 == 0 for q in ab.coeffs)  # even transform
    assert ab.nonzero_indices()[0] == 2
    assert ex.nonzero_indices()[0] == 1 and 2 in ex.coeffs


def _normal_moment(m: int) -> int:
    return 0 if m % 2 else math.prod(range(m - 1, 0, -2))


def _hermite_at_zero(n: int) -> int:
    return (-1) ** (n // 2) * _normal_moment(n)


def _hermite_power_series(q: int) -> dict:
    """H_q(x) = sum_k (-1)^k q! / (k! (q-2k)! 2^k) x^(q-2k), as {power: Fraction}."""
    f = math.factorial
    return {q - 2 * k: Fraction((-1) ** k * f(q), f(k) * f(q - 2 * k) * 2**k) for k in range(q // 2 + 1)}


_POLY = ("1/3", "-2", "5/7", "0", "1/11", "3/2")  # degree 5, rational coefficients


def _exact_reference(kind: str, q: int) -> float:
    """c_q = E[G(X) H_q(X)] in exact arithmetic from the power series of H_q:
    the normal moments for the polynomial, and for e^{X/2} the shifted moments
    E[e^{X/2} X^m] = e^{1/8} E[(X + 1/2)^m]."""
    h = _hermite_power_series(q)
    if kind == "polynomial":
        a = [Fraction(c) for c in _POLY]
        return float(sum(c * hc * _normal_moment(n + m) for n, c in enumerate(a) for m, hc in h.items()))
    shifted = lambda m: sum(math.comb(m, j) * Fraction(1, 2 ** (m - j)) * _normal_moment(j)  # noqa: E731
                            for j in range(m + 1))
    return math.exp(0.125) * float(sum(hc * shifted(m) for m, hc in h.items()))


def _quad_reference(kind: str, q: int) -> float:
    """c_q = E[G(X) H_q(X)] of the menu transform itself, the callable every
    simulation applies, by adaptive quadrature split at the kink x = 0."""
    from scipy import integrate

    G = parse_g_spec(kind)
    f = lambda x: G(x) * hermite_eval(q, x) * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad flags roundoff at epsrel 1e-14
        return sum(integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-14, limit=200)[0]
                   for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)))


def test_g_spec_menu_expansions_are_exact():
    # every kept rank against its closed form (Nourdin & Peccati 2012, ch. 1),
    # and ranks q <= 10 against an independent reference.  Quadrature of the
    # smooth e^{x/2} loses 3e-12 to cancellation at q = 9, so that reference
    # is exact arithmetic, like the polynomial's
    r = math.sqrt(2.0 / math.pi)
    a = [Fraction(c) for c in _POLY]
    poly_mean = sum(c * _normal_moment(n) for n, c in enumerate(a))
    poly_m2 = sum(c * cp * _normal_moment(n + m) for n, c in enumerate(a) for m, cp in enumerate(a))
    poly_var = poly_m2 - poly_mean**2
    cases = {  # kind: (closed form, Var G, reference, kept ranks)
        "exp-centered": (lambda q: math.exp(0.125) * 2.0**-q, math.exp(0.5) - math.exp(0.25),
                         lambda q: _exact_reference("exp-centered", q), tuple(range(1, 15))),
        "sign": (lambda q: r * _hermite_at_zero(q - 1) if q % 2 else 0.0, 1.0,
                 lambda q: _quad_reference("sign", q), tuple(range(1, 40, 2))),
        "abs-centered": (lambda q: 0.0 if q % 2 else r * (_hermite_at_zero(q) + q * _hermite_at_zero(q - 2)),
                         1.0 - 2.0 / math.pi, lambda q: _quad_reference("abs-centered", q),
                         tuple(range(2, 41, 2))),
        "polynomial": (lambda q: _exact_reference("polynomial", q), float(poly_var),
                       lambda q: _exact_reference("polynomial", q), (1, 2, 3, 4, 5)),
    }
    for kind, (closed, var, reference, ranks) in cases.items():
        spec = {"kind": "polynomial", "coeffs": list(_POLY)} if kind == "polynomial" else kind
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            e = parse_g_spec(spec).expansion()
        assert not caught, kind
        assert e.nonzero_indices() == ranks, kind
        assert e.mean_shift == 0.0
        assert e.second_moment == pytest.approx(var, rel=1e-12), kind
        assert e.parseval_mass <= e.second_moment * (1 + 1e-12), kind
        if kind == "polynomial":  # a finite series: the truncation drops nothing
            assert e.parseval_mass == pytest.approx(var, rel=1e-12)
        for q in range(1, 41):  # the ranks left out fall below the 1e-10 floor
            if q in ranks:
                assert e.coeffs[q] == pytest.approx(closed(q), rel=1e-12, abs=0.0), (kind, q)
            else:
                assert abs(closed(q)) / math.sqrt(math.factorial(q)) < 1e-10 * max(1.0, math.sqrt(var))
        for q in range(1, 11):
            tol = {"rel": 1e-12, "abs": 0.0} if q in ranks else {"abs": 1e-13}  # a zero by parity
            assert e.coeffs.get(q, 0.0) == pytest.approx(reference(q), **tol), (kind, q)
    # the exact-arithmetic reference of exp-centered is of e^{x/2} - e^{1/8}: so is the callable
    x = np.linspace(-8.0, 8.0, 1601)
    got = parse_g_spec("exp-centered")(x)
    ref = np.array([math.exp(v / 2.0) - math.exp(0.125) for v in x])
    assert np.all(np.abs(got - ref) <= 4e-16 * (np.exp(x / 2.0) + math.exp(0.125)))  # an ulp of each term


# --- config validation ------------------------------------------------------


def test_parse_config_field_paths():
    with pytest.raises(ConfigError, match="mode"):
        parse_config({"mode": "dance"})
    with pytest.raises(ConfigError, match="model.d"):
        parse_config({"mode": "simulate", "model": {"d": 0.9}, "n": 128})
    with pytest.raises(ConfigError, match="^n:"):
        parse_config({"mode": "simulate", "model": {"d": 0.3}})
    with pytest.raises(ConfigError, match="input_csv"):
        parse_config({"mode": "estimate", "model": {"d": 0.3}, "j": 3, "p": 2})
    deep = functools.reduce(lambda x, _: [x], range(10**5), [])  # deeper than the stack
    with pytest.raises(ConfigError, match="^<root>: nested too deeply"):
        parse_config({"mode": "nu-c", "g": "hermite:1", "d_values": [0.3], "schedule": deep})


def test_parse_config_rejects_boundary_lattice_d():
    with pytest.raises(ConfigError, match="model.d"):
        parse_config({"mode": "simulate", "model": {"d": 0.25}, "n": 128})
    # the critical-exponent mode tolerates lattice values
    cfg = parse_config({"mode": "nu-c", "g": "hermite:1",
                        "d_values": [0.25], "out": "/tmp"})
    assert cfg.d_values == [0.25]


def test_parse_config_mode_requirements():
    with pytest.raises(ConfigError, match="d0_star"):
        parse_config({"mode": "test", "model": {"d": 0.3}, "g": "hermite:1",
                      "n": 256, "j": 3, "p": 2, "alpha": 0.1})
    with pytest.raises(ConfigError, match="alpha"):
        parse_config({"mode": "test", "model": {"d": 0.3}, "g": "hermite:1",
                      "n": 256, "j": 3, "p": 2, "d0_star": 0.3, "alpha": 1.7})


_CAPPED = {"mode": "mc-experiment", "model": {"d": 0.3}, "g": "hermite:1", "n": 4096,
           "bank": {"family": "db2", "jmax": 8}, "j": 1, "p": 1, "out": "unused"}


# parse time only: a value at or past a cap is never run
@pytest.mark.parametrize("field, at, past", [
    ("n", {"n": 2**22}, {"n": 2**22 + 1}),
    ("schedule[0].n", {"schedule": [{"n": 2**22}]}, {"schedule": [{"n": 2**22 + 1}]}),
    ("bank.jmax", {"bank": {"family": "db2", "jmax": 16}}, {"bank": {"family": "db2", "jmax": 17}}),
    ("bank.family", {"bank": {"family": "db27", "jmax": 8}}, {"bank": {"family": "db28", "jmax": 8}}),
    ("model.K", {"model": {"d": 0.3, "K": 26}}, {"model": {"d": 0.3, "K": 27}}),
    ("workers", {"workers": 64}, {"workers": 65}),
    ("replicates", {"replicates": 10**6}, {"replicates": 10**6 + 1}),
    ("g.q", {"g": {"kind": "hermite", "q": 170}}, {"g": {"kind": "hermite", "q": 171}}),
    ("g.coeffs", {"g": {"kind": "hermite-coeffs", "coeffs": {"1": 1, "170": 1}}},
     {"g": {"kind": "hermite-coeffs", "coeffs": {"1": 1, "171": 1}}}),
])
def test_parse_config_caps(field, at, past):
    parse_config({**_CAPPED, **at})
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}: "):
        parse_config({**_CAPPED, **past})


# --- ingestion ----------------------------------------------------------------


def test_ingest_roundtrip(tmp_path):
    y = np.linspace(-1, 1, 100)
    p = tmp_path / "series.csv"
    export_path(y, p)
    series, prov = ingest(p)
    np.testing.assert_allclose(series, y, rtol=1e-15)
    assert prov["rows"] == 100
    assert len(prov["sha256"]) == 64


def test_ingest_header_skip(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("value\n" + "\n".join(str(i) for i in range(80)))
    series, prov = ingest(p)
    assert prov["header_skipped"]
    assert len(series) == 80


def test_ingest_nan_row_named(tmp_path):
    p = tmp_path / "bad.csv"
    rows = [str(i) for i in range(80)]
    rows[9] = "nan"
    p.write_text("\n".join(rows))
    with pytest.raises(ConfigError, match="row 10"):
        ingest(p)


def test_ingest_unparsable_row_named(tmp_path):
    p = tmp_path / "bad2.csv"
    rows = [str(i) for i in range(70)]
    rows[64] = "oops"
    p.write_text("\n".join(rows))
    with pytest.raises(ConfigError, match="row 65"):
        ingest(p)


def test_ingest_byte_order_mark_without_header(tmp_path):
    # float("\ufeff1.0") fails, so a mark left on the first row read it as a header
    p = tmp_path / "bom.csv"
    p.write_text("\n".join(str(i + 1.0) for i in range(80)), encoding="utf-8-sig")
    series, prov = ingest(p)
    assert len(series) == 80 and prov["rows"] == 80 and not prov["header_skipped"]
    assert series[0] == 1.0
    # the digest is over the file's bytes, mark included
    assert prov["sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()


def test_ingest_byte_order_mark_then_header(tmp_path):
    p = tmp_path / "bomh.csv"
    p.write_text("value\n" + "\n".join(str(i) for i in range(80)), encoding="utf-8-sig")
    series, prov = ingest(p)
    assert prov["header_skipped"] and len(series) == 80 and prov["rows"] == 80


def test_ingest_two_column_row_named(tmp_path):
    p = tmp_path / "wide.csv"
    rows = [str(i) for i in range(80)]
    rows[11] = "1.0,2.0"
    p.write_text("\n".join(rows))
    with pytest.raises(ConfigError, match="row 12: expected a single column, got 2"):
        ingest(p)


@pytest.mark.parametrize("row", [
    pytest.param("1_000", id="digit-groups"),  # float reads 1000
    pytest.param("\u0661", id="arabic-indic-one"),  # float reads 1.0
    pytest.param("\uff12.5", id="fullwidth-two"),
    pytest.param("1.5\u00a0", id="no-break-space"),
])
@pytest.mark.parametrize("at", [0, 40])
def test_ingest_rejects_rows_float_reads_past_ascii(tmp_path, row, at):
    p = tmp_path / "quirk.csv"
    rows = [str(i) for i in range(80)]
    rows[at] = row
    p.write_text("\n".join(rows), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^input_csv: row {at + 1}: "):
        ingest(p)


def test_ingest_header_may_hold_any_text(tmp_path):
    # any first line float cannot read is the header: one with non-ASCII text or
    # "_" leaves the rows alone, and so does a line of one NUL byte
    for header in ("\u03c3_j", "\x00"):
        p = tmp_path / "h.csv"
        p.write_text(header + "\n" + "\n".join(str(i) for i in range(80)), encoding="utf-8")
        series, prov = ingest(p)
        assert prov["header_skipped"] and len(series) == 80 and series[-1] == 79.0


def test_ingest_too_short(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("\n".join("1" for _ in range(10)))
    with pytest.raises(ConfigError, match="at least 64"):
        ingest(p)


# --- harness modes --------------------------------------------------------------


def test_simulate_deterministic(tmp_path):
    base = {"mode": "simulate", "model": {"d": 0.3, "K": 0}, "g": "hermite:1",
            "n": 128, "seed": 41}
    p1 = run(parse_config({**base, "out": str(tmp_path / "a")}))
    p2 = run(parse_config({**base, "out": str(tmp_path / "b")}))
    assert open(p1[0]).read() == open(p2[0]).read()
    side = json.loads(open(p1[0] + ".json").read())
    assert side["seed"] == 41 and side["version"]


def test_nuc_mode_illustration(tmp_path, capsys):
    cfg = parse_config({
        "mode": "nu-c",
        "g": {"kind": "hermite-coeffs",
              "coeffs": {"1": 1, "3": 1, "4": 1, "5": 1, "24": 1}},
        "d_values": [0.2, 0.3, 0.48],
        "out": str(tmp_path),
    })
    paths = run(cfg)
    assert capsys.readouterr().out == ""  # the CLI prints the artifact paths
    r = _cli("nu-c", "--config", _write(tmp_path, "nu.json", {**cfg.raw, "out": str(tmp_path / "c")}))
    assert r.returncode == 0
    assert r.stdout.splitlines() == [str(tmp_path / "c" / "nu_c_report.json")]
    rep = json.loads(open(paths[0]).read())["reports"]
    assert rep[0]["Q_set"] == [0] and rep[0]["Jd_set"] == [1, 2]
    assert rep[1]["Q_set"] == [0, 1] and rep[1]["Jd_set"] == [0, 1, 2]
    assert rep[2]["Q_set"] == [0, 1, 18] and rep[2]["Jd_set"] == [0, 1, 2, 3]
    assert rep[1]["nu_c"] == pytest.approx(8.0 / 3.0)


def test_analyze_and_estimate_modes(tmp_path):
    sim = parse_config({"mode": "simulate", "model": {"d": 0.3, "K": 0},
                        "g": "hermite:1", "n": 4096, "seed": 4,
                        "out": str(tmp_path / "sim")})
    path_csv, _ = run(sim)
    est = parse_config({"mode": "estimate", "model": {"d": 0.3, "K": 0},
                        "g": "hermite:1", "bank": {"family": "db2", "jmax": 8},
                        "input_csv": path_csv, "j": 3, "p": 3,
                        "out": str(tmp_path / "est")})
    (rp,) = run(est)
    rep = json.loads(open(rp).read())
    assert abs(rep["estimate"]["d0_hat"] - 0.3) < 0.25
    # zeta = 2 delta(1) = 0.6 for a single rank-1 term at d = 0.3
    assert rep["estimate"]["rate_bias"] == pytest.approx(2.0 ** (-0.6 * 3), rel=1e-12)
    # (N 2^-jc)^-(1/2 - d) at the coarsest scale jc = 6
    assert rep["estimate"]["rate_stat"] == pytest.approx((4096 * 2.0**-6) ** -(0.5 - 0.3), rel=1e-12)
    # rank 3 at d = 0.2 has short memory, delta(3) = -0.4: no bias rate
    short = parse_config({**est.raw, "g": "hermite:3", "model": {"d": 0.2, "K": 0},
                          "out": str(tmp_path / "short")})
    assert json.loads(open(run(short)[0]).read())["estimate"]["rate_bias"] is None
    assert rep["input"]["sha256"]
    ana = parse_config({"mode": "analyze", "model": {"d": 0.3, "K": 0},
                        "bank": {"family": "db2", "jmax": 8},
                        "input_csv": path_csv, "j": 3, "p": 2,
                        "out": str(tmp_path / "ana")})
    paths = run(ana)
    rows = open(paths[0]).read().strip().splitlines()
    assert rows[0] == "j,n_j,sigma2"
    assert len(rows) == 4  # scales 3..5


def test_a_csv_run_that_reads_no_model_needs_none(tmp_path):
    # analyze on a CSV, and estimate on one without g, read the series alone: a model may be given or not
    series = tmp_path / "y.csv"
    export_path(np.cumsum(np.random.default_rng(7).standard_normal(4096)), series)
    base = {"input_csv": str(series), "bank": {"family": "db2", "jmax": 8}, "j": 3, "p": 2}
    read = {}
    for mode, name in (("analyze", "scalogram.csv"), ("estimate", "estimate_report.json")):
        for i, model in enumerate(({"model": {"d": 0.3}}, {}, {"model": {}})):  # an empty object is absent
            out = tmp_path / f"{mode}-{i}"
            assert cli.main([mode, "--config", _write(tmp_path, "c.json", {"mode": mode, **base, **model,
                                                                           "out": str(out)})]) == 0
            text = (out / name).read_text()
            read.setdefault(mode, []).append(text if mode == "analyze" else json.loads(text)["estimate"]["d0_hat"])
    assert read["analyze"][0].startswith("j,n_j,sigma2")
    assert read["analyze"] == read["analyze"][:1] * 3 and read["estimate"] == read["estimate"][:1] * 3


@pytest.mark.parametrize("mode, change, field", [
    # g's moment rule and predicted rates, the test's limit law and a simulated series read the model
    pytest.param("estimate", {"input_csv": "y.csv", "g": "hermite:1"}, "model", id="estimate-csv-with-g"),
    pytest.param("test", {"input_csv": "y.csv", "g": "hermite:1", "d0_star": 0.3, "alpha": 0.1}, "model",
                 id="test-csv"),
    *(pytest.param(mode, {"n": 4096}, "model", id=f"{mode}-simulated") for mode in ("analyze", "estimate")),
    pytest.param("test", {"n": 4096, "g": "hermite:1", "d0_star": 0.3, "alpha": 0.1}, "model", id="test-simulated"),
    # neither a CSV nor a length to simulate: the series is named first
    *(pytest.param(mode, {}, "input_csv", id=f"{mode}-no-series") for mode in ("analyze", "estimate", "test")),
])
def test_parse_config_names_a_missing_model_where_one_is_read(mode, change, field):
    with pytest.raises(ConfigError, match=f"^{field}: required for mode {mode!r}"):
        parse_config({"mode": mode, "bank": {"family": "db2", "jmax": 8}, "j": 3, "p": 2, **change})


def test_a_preset_beside_an_empty_schedule_runs(tmp_path):
    cfg = parse_config({"mode": "mc-experiment", "model": {"d": 0.3}, "g": "hermite:1", "n": 4096,
                        "bank": {"family": "db2", "jmax": 8}, "j": 3, "p": 2, "replicates": 2,
                        "preset": "slope", "schedule": [], "out": str(tmp_path / "mc")})
    rep = json.loads(Path(run(cfg)[-1]).read_text())
    assert [row["regime"] for row in rep["results"]] == ["slope"]


def test_mc_experiment_order_invariance(tmp_path):
    # two rows sharing one pool: a chunk of tasks crosses the row boundary;
    # the second run tests d0* at rank 2, each row against its own s_N
    estimate = {"mode": "mc-experiment", "model": {"d": 0.3, "K": 0},
                "g": "hermite:1", "bank": {"family": "db2", "jmax": 6},
                "n": 1024, "j": 2, "p": 2, "replicates": 6, "seed": 10,
                "schedule": [{"n": 1024, "j": 2}, {"n": 2048, "j": 3, "replicates": 5}]}
    tested = {**estimate, "model": {"d": 0.42, "K": 0}, "g": "hermite:2",
              "bank": {"family": "db2", "jmax": 8}, "d0_star": 0.34, "alpha": 0.1,
              "schedule": [{"n": 4096, "j": 3}, {"n": 8192, "j": 4, "replicates": 5}]}
    for name, base in (("estimate", estimate), ("tested", tested)):
        (c1, r1) = run(parse_config({**base, "out": str(tmp_path / name / "w1")}))
        (c2, r2) = run(parse_config({**base, "workers": 2, "out": str(tmp_path / name / "w2")}))
        assert open(c1).read() == open(c2).read()
        assert json.loads(open(r1).read())["results"] == json.loads(open(r2).read())["results"]
    assert "rejection_rate" in open(c1).readline()


def test_mc_experiment_slope_preset_end_to_end(tmp_path):
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.3, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 8}, "n": 4096, "j": 3, "p": 3,
        "replicates": 20, "seed": 5, "preset": "slope", "out": str(tmp_path),
    })
    (csv_path, _) = run(cfg)
    header, row = open(csv_path).read().strip().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert rec["regime"] == "slope"
    assert abs(float(rec["slope"]) - 2 * 0.3) < 0.12  # configured tolerance


def test_mc_experiment_schedule_rows(tmp_path):
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.3, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 6}, "n": 1024, "j": 2, "p": 2,
        "replicates": 5, "seed": 10,
        "schedule": [{"n": 1024, "j": 2}, {"n": 2048, "j": 3}],
        "out": str(tmp_path),
    })
    (csv_path, rep_path) = run(cfg)
    rows = open(csv_path).read().strip().splitlines()
    assert len(rows) == 3
    rep = json.loads(open(rep_path).read())
    assert rep["results"][0]["n"] == 1024 and rep["results"][1]["n"] == 2048


def test_mc_test_uses_hypothesised_law(tmp_path):
    # a power row: the test is calibrated at d* from d0*, not at the model's d
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.35, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 8}, "n": 4096, "j": 3, "p": 2,
        "d0_star": 0.2, "alpha": 0.1, "replicates": 40, "seed": 10, "out": str(tmp_path),
    })
    (csv_path, _) = run(cfg)
    header, row = open(csv_path).read().strip().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    bank, expansion = build_bank("db2", 8), cfg.g.expansion()
    # replicates 2i and 2i+1 are the two halves of stream i
    cal = calibrate_test(bank, 4096, 0.2, 0.1, 0, expansion, 3, 2)
    decisions = [cal.decided(estimate_d0(x, bank, 3, 2)).decision
                 for i in range(20) for x in sample_gaussian_pair(cfg.model, 4096, 10, i)]
    assert float(rec["rejection_rate"]) == np.mean(decisions)


def test_mc_report_is_strict_json(tmp_path):
    # two replicates: normality_p is undefined below 20 and reads null
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.3, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 6}, "n": 1024, "j": 2, "p": 2,
        "replicates": 2, "seed": 10, "out": str(tmp_path),
    })
    (csv_path, rep_path) = run(cfg)

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    (rec,) = json.loads(open(rep_path).read(), parse_constant=reject)["results"]
    assert rec["normality_p"] is None
    assert all(math.isfinite(rec[k]) for k in ("mean_d0", "sd", "rmse", "skewness"))
    assert "nan" in open(csv_path).read().splitlines()[1].split(",")


@pytest.mark.parametrize("n", [3, 8, 20, 21, 200, 5000])
@pytest.mark.parametrize("draw", [
    pytest.param(lambda rng, n: rng.standard_normal(n), id="gaussian"),
    pytest.param(lambda rng, n: rng.exponential(size=n), id="exponential"),
    pytest.param(lambda rng, n: rng.standard_t(2, n), id="student-t2"),
    pytest.param(lambda rng, n: 0.35 + 1e-3 * rng.standard_normal(n), id="d0-scale"),
    pytest.param(lambda rng, n: np.arange(float(n)), id="symmetric"),  # skewness exactly 0
    pytest.param(lambda rng, n: np.full(n, 0.35), id="constant"),  # NaN on both sides
])
def test_mc_row_statistics_match_scipy(n, draw):
    from scipy import stats

    sample = draw(np.random.default_rng(n), n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small and constant samples warn
        ref = stats.skew(sample), stats.normaltest(sample).pvalue
    assert not np.isnan(ref[1]) or n < 8 or np.ptp(sample) == 0  # NaN only where undefined
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = harness._skewness(sample), harness._normality_p(sample)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_mc_pairs_take_both_halves_of_one_stream(tmp_path, monkeypatch):
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.3, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 6}, "n": 1024, "j": 2, "p": 2,
        "replicates": 5, "seed": 10,
        "schedule": [{"n": 1024, "j": 2}, {"n": 2048, "j": 3}],
        "out": str(tmp_path),
    })
    plan = harness._plan(cfg)
    seen = []
    monkeypatch.setattr(harness, "_mc_replicate", lambda plan, pos, x: seen.append(x) or {})
    for pos, n in enumerate((1024, 2048)):
        for i in range(3):
            seen.clear()
            assert len(harness._mc_pair(plan, pos, i)) == (2 if i < 2 else 1)  # 5 replicates
            np.testing.assert_array_equal(seen[0], sample_gaussian(cfg.model, n, 10, (pos << 32) | i))
            if i < 2:
                np.testing.assert_array_equal(
                    seen[1], sample_gaussian_pair(cfg.model, n, 10, (pos << 32) | i)[1])


def test_pool_worker_takes_the_parents_plan(tmp_path, monkeypatch):
    # the worker initializer gets the plan the parent built, through pickle:
    # no worker parses the config, builds a bank or integrates a limit shape
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.35, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 7}, "n": 4096, "j": 3, "p": 2,
        "d0_star": 0.35, "alpha": 0.1, "replicates": 2, "seed": 6, "out": str(tmp_path),
    })
    plan = harness._plan(cfg)
    expected = harness._mc_pair(plan, 0, 0)

    def rebuilt(*args, **kwargs):
        raise AssertionError("a worker rebuilt part of the plan")

    for module, name in ((scalolab.config, "parse_config"), (harness, "build_bank"),
                         (scalolab.inference, "_ShapeStrips")):
        monkeypatch.setattr(module, name, rebuilt)
    scalolab.wavelet._built_bank.cache_clear()
    scalolab.inference.limit_constants.cache_clear()
    monkeypatch.setattr(harness, "_worker_plan", None)
    harness._init_worker(pickle.loads(pickle.dumps(plan)))
    recs = harness._pool_pair((0, 0))
    assert len(recs) == 2 and all(set(rec) == {"d0_hat", "reject"} for rec in recs)
    assert recs == expected


def test_mc_plan_built_once_per_run(tmp_path, monkeypatch):
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.42, "K": 0}, "g": "hermite:2",
        "bank": {"family": "db2", "jmax": 8}, "n": 4096, "j": 3, "p": 2,
        "d0_star": 0.34, "alpha": 0.1, "replicates": 3, "seed": 4, "out": str(tmp_path),
    })
    calls = {"parse_config": 0, "eigvalsh": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(scalolab.config, "parse_config")
    counted(np.linalg, "eigvalsh")  # the quantile's one eigen-solve
    scalolab.inference._second_chaos_law.cache_clear()
    run(cfg)
    assert calls == {"parse_config": 0, "eigvalsh": 1}
    # the Monte Carlo oracle of the second-chaos law lives in the tests only
    package = Path(scalolab.__file__).parent
    assert not [p.name for p in package.glob("*.py") if "rosenblatt_sample" in p.read_text()]


@pytest.mark.parametrize("mode", ["estimate", "test"])
def test_single_run_expands_g_once(tmp_path, monkeypatch, mode):
    # parse_config expands g; the plan and the series read its expansion
    calls, expansion = [], scalolab.config.GSpec.expansion
    monkeypatch.setattr(scalolab.config.GSpec, "expansion", lambda g: calls.append(g) or expansion(g))
    cfg = parse_config({
        "mode": mode, "model": {"d": 0.3}, "g": "exp-centered", "bank": {"family": "db2", "jmax": 8},
        "n": 4096, "j": 3, "p": 2, "seed": 2, "out": str(tmp_path),
        **({"d0_star": 0.3, "alpha": 0.1} if mode == "test" else {}),
    })
    run(cfg)
    assert len(calls) == 1


def test_sweep_builds_the_lead_term_once(tmp_path, monkeypatch):
    # the plan builds what a row's replicates share: six replicates of a
    # large-scale row make its leading Hermite term once
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.41}, "g": {"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": 1}},
        "bank": {"family": "db2", "jmax": 12}, "n": 2**16, "j": 2, "p": 1, "preset": "large-scale",
        "replicates": 6, "seed": 3, "out": str(tmp_path),
    })
    calls, lead = [], harness.expansion_from_coeffs
    monkeypatch.setattr(harness, "expansion_from_coeffs", lambda coeffs: calls.append(coeffs) or lead(coeffs))
    (_, rep_path) = run(cfg)
    assert [k for k in json.loads(open(rep_path).read())["results"][0] if k.startswith("rel_gap_j")]
    assert calls == [{2: 2.0}]


def test_no_analysis_forms_y(tmp_path, monkeypatch, capsys):
    # a simulated series enters the pyramid as G(X) with the K-fold filters:
    # simulate, which exports Y, integrates once, and no other mode at all
    calls, integrate = [], harness.integrate_K
    monkeypatch.setattr(harness, "integrate_K", lambda *args: calls.append(args) or integrate(*args))
    base = {"model": {"d": 0.3, "K": 2}, "g": {"kind": "hermite-coeffs", "coeffs": {"1": 1, "2": 1}},
            "bank": {"family": "db3", "jmax": 10}, "n": 4096, "j": 3, "p": 2, "seed": 1}
    runs = {"simulate": {}, "analyze": {}, "estimate": {}, "test": {"d0_star": 2.3, "alpha": 0.1},
            "mc-experiment": {"j": 2, "p": 1, "preset": "small-scale", "replicates": 2, "workers": 1}}
    for mode, change in runs.items():
        cfgp = _write(tmp_path, f"{mode}.json", _read_by(mode, {**base, **change, "out": str(tmp_path / mode)}))
        assert cli.main([mode, "--config", cfgp]) == 0, capsys.readouterr().err
        if mode == "simulate":
            assert len(calls) == 1
            monkeypatch.setattr(harness, "integrate_K", lambda *args: pytest.fail("an analysis formed Y"))
    row = json.loads((tmp_path / "mc-experiment" / "mc_report.json").read_text())["results"][0]
    assert [k for k in row if k.startswith("rel_gap_j")]


def test_estimate_at_k_5_reads_d0(tmp_path):
    # a pass on the float64 Y reads d0_hat 1.2024 here: too few of Y's digits survive at scale 3
    cfgp = _write(tmp_path, "e.json", {
        "mode": "estimate", "model": {"d": 0.35, "K": 5}, "g": "hermite:1", "bank": {"family": "db6", "jmax": 12},
        "n": 2**16, "j": 3, "p": 3, "seed": 0, "out": str(tmp_path / "e")})
    assert cli.main(["estimate", "--config", cfgp]) == 0
    assert json.loads((tmp_path / "e" / "estimate_report.json").read_text())["estimate"]["d0_hat"] == \
        pytest.approx(5.35, abs=0.1)


def test_failed_run_leaves_no_partial_output(tmp_path, monkeypatch):
    # 100 rows cannot carry scales up to 6; only the run finds that out
    series = tmp_path / "short.csv"
    export_path(np.sin(np.arange(100.0)), series)
    out = tmp_path / "boom"
    cfg = parse_config({"mode": "estimate", "model": {"d": 0.3}, "input_csv": str(series),
                        "bank": {"family": "db2", "jmax": 8},
                        "j": 3, "p": 3, "out": str(out), "seed": 1})
    with pytest.raises(Exception):
        run(cfg)
    assert not any(out.iterdir()) if out.exists() else True

    # runs that fail once a file is written: analyze in its report, on a NaN
    # scalogram, and simulate in its sidecar
    seen = []

    def listed(fn):
        def wrapper(*args, **kwargs):
            seen.append(sorted(os.listdir(out)))
            return fn(*args, **kwargs)
        return wrapper

    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    scalograms = harness.scalograms
    for mode, patches, expected, written in (
        ("analyze", [(harness, "_write_report", listed(harness._write_report)),
                     (harness, "scalograms", lambda *a: [dataclasses.replace(s, sigma2=math.nan)
                                                         for s in scalograms(*a)])],
         NumericError, ["scalogram.csv"]),
        ("simulate", [(scalolab.synthesis, "json", types.SimpleNamespace(dump=listed(disk_full)))],
         OSError, ["path.csv", "path.csv.json"]),
    ):
        seen.clear()
        scales = {"bank": {"family": "db2", "jmax": 8}, "j": 2, "p": 2} if mode == "analyze" else {}
        cfg = parse_config({"mode": mode, "model": {"d": 0.3}, "g": "hermite:1", "n": 4096, **scales,
                            "out": str(out), "seed": 1})
        with monkeypatch.context() as mp:
            for target, name, value in patches:
                mp.setattr(target, name, value)
            with pytest.raises(expected):
                run(cfg)
        assert seen == [written], mode
        assert list(out.iterdir()) == [], mode


# --- CLI ------------------------------------------------------------------------


def _cli(*args, timeout=None):
    return subprocess.run([sys.executable, "-m", "scalolab.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def test_cli_exit_codes(tmp_path):
    bad = _write(tmp_path, "bad.json", {"mode": "simulate", "model": {"d": 2.0}, "n": 128})
    r = _cli("simulate", "--config", bad)
    assert r.returncode == 2
    assert "model.d" in r.stderr

    missing = _cli("simulate", "--config", str(tmp_path / "nope.json"))
    assert missing.returncode == 2

    ok = _write(tmp_path, "ok.json", {
        "mode": "simulate", "model": {"d": 0.3}, "g": "hermite:1",
        "n": 128, "seed": 3, "out": str(tmp_path / "out"),
    })
    r2 = _cli("simulate", "--config", ok)
    assert r2.returncode == 0
    # stdout names every file the run writes: the sidecar carries the config,
    # seed and version that reproduce the path
    out = tmp_path / "out"
    assert r2.stdout.splitlines() == [str(out / "path.csv"), str(out / "path.csv.json")]
    assert sorted(p.name for p in out.iterdir()) == ["path.csv", "path.csv.json"]


# the keys of the shared configs below that each mode never reads
_UNREAD = {"simulate": ("bank", "j", "p", "d0_star", "alpha", "replicates", "d_values"),
           "analyze": ("d0_star", "alpha", "replicates", "d_values"),
           "estimate": ("d0_star", "alpha", "replicates", "d_values"), "test": ("replicates", "d_values"),
           "mc-experiment": ("d_values",), "nu-c": ("n", "bank", "j", "p", "d0_star", "alpha", "replicates")}


def _read_by(mode, raw):
    """raw less the keys `mode` never reads: a series read from input_csv leaves n unread, and analyze's g"""
    csv = (("n", "g") if mode == "analyze" else ("n",)) if "input_csv" in raw else ()
    return {k: v for k, v in raw.items() if k not in (*_UNREAD[mode], *csv)}


@pytest.mark.parametrize("mode, change, field", [
    pytest.param("estimate", {"bank": {"family": "sym4", "jmax": 8}}, "bank.family",
                 id="bank0-bank.family"),
    # scales 5..8 with p = 3
    pytest.param("estimate", {"bank": {"family": "db2", "jmax": 6}}, "bank.jmax",
                 id="bank1-bank.jmax"),
    pytest.param("estimate", {"p": 0}, "p", id="p-zero"),
    pytest.param("test", {"alpha": "0.1"}, "alpha", id="alpha-string"),
    pytest.param("test", {"d0_star": 0.75}, "d0_star", id="d0_star-no-split"),
    pytest.param("mc-experiment", {"replicates": "3"}, "replicates", id="replicates-string"),
    # scale 12 filter: 12286 taps against n/4 = 1024
    pytest.param("estimate", {"bank": {"family": "db2", "jmax": 12}, "j": 9, "p": 3}, "j",
                 id="db2-filter-over-quarter-n"),
    pytest.param("estimate", {"bank": {"family": "db6", "jmax": 10}, "j": 7, "p": 2}, "j",
                 id="db6-filter-over-quarter-n"),
    pytest.param("estimate", {"n": 32}, "n", id="n-below-64"),
    # rank 1 turns d0* = 0.25 into d* = 0.25 = 1/2 - 1/(2*2), known only once G is expanded
    pytest.param("test", {"d0_star": 0.25, "j": 3, "p": 2}, "d0_star", id="d0_star-boundary-lattice"),
    pytest.param("test", {"quantile_reps": 500}, "quantile_reps", id="quantile_reps-retired"),
    pytest.param("mc-experiment", {"quantile_n_internal": 1024}, "quantile_n_internal",
                 id="quantile_n_internal-retired"),
    pytest.param("nu-c", {"d_values": [0.7]}, "d_values[0]", id="d_values-above-half"),
    pytest.param("nu-c", {"d_values": ["x"]}, "d_values[0]", id="d_values-string"),
    pytest.param("nu-c", {"d_values": 0.3}, "d_values", id="d_values-not-a-list"),
    # values of the wrong JSON shape, each named without a traceback
    pytest.param("estimate", {"bank": 5}, "bank", id="bank-not-an-object"),
    pytest.param("simulate", {"model": {"d": 0.3, "short_range": 5}}, "model.short_range",
                 id="short_range-not-an-object"),
    pytest.param("simulate", {"model": {"d": 0.3, "ma": 3}}, "model.ma", id="ma-coeffs-not-a-list"),
    pytest.param("simulate", {"out": 7}, "out", id="out-number"),
    # os.path.exists(1) is true: fd 1 is a file descriptor
    pytest.param("estimate", {"input_csv": 1}, "input_csv", id="input_csv-number"),
    pytest.param("simulate", {"g": "hermite:x"}, "g", id="hermite-shorthand-rank"),
    pytest.param("test", {"g": {"kind": "polynomial", "coeffs": ["0", "1e400"]}}, "g.coeffs",
                 id="polynomial-coeff-overflow"),
    pytest.param("test", {"g": {"kind": "hermite-coeffs", "coeffs": {"1": "1e400"}}}, "g.coeffs",
                 id="hermite-coeff-overflow"),
    pytest.param("nu-c", {"g": {"kind": "hermite-coeffs", "coeffs": {"1": "0"}}}, "g.coeffs",
                 id="hermite-coeffs-all-zero"),
    pytest.param("test", {"enforce_preconditions": 5}, "enforce_preconditions",
                 id="enforce-not-an-object"),
    # a misspelt bound would otherwise turn enforcement off without a word
    pytest.param("test", {"enforce_preconditions": {"reduction_mx": 0.5}},
                 "enforce_preconditions.reduction_mx", id="enforce-unknown-key"),
    pytest.param("test", {"enforce_preconditions": {"bias_max": "0.1"}},
                 "enforce_preconditions.bias_max", id="enforce-bound-string"),
    # a non-finite number anywhere is named by its key path before it reaches a report
    pytest.param("nu-c", {"g": {"kind": "hermite-coeffs", "coeffs": {"1": math.nan}}}, "g.coeffs.1",
                 id="nan-in-unread-key"),
    pytest.param("test", {"enforce_preconditions": {"reduction_max": math.inf}},
                 "enforce_preconditions.reduction_max", id="enforce-bound-infinity"),
    # ranks past 170 overflow q!, and orders past db27 fail or nearly fail the bank's checks
    pytest.param("simulate", {"g": "hermite:171"}, "g", id="hermite-shorthand-rank-171"),
    pytest.param("simulate", {"g": {"kind": "hermite", "q": 171}}, "g.q", id="hermite-rank-171"),
    pytest.param("simulate", {"g": {"kind": "hermite-coeffs", "coeffs": {"1": 1, "400": 1}}}, "g.coeffs",
                 id="hermite-coeffs-rank-400"),
    pytest.param("estimate", {"bank": {"family": "db600", "jmax": 8}}, "bank.family", id="db600"),
    # the taps' scale is f*'s level, which no correlation reads: no key sets it
    *(pytest.param("simulate", {"model": {"d": 0.3, "ma": [1.0, 0.5], "scale": s}}, "model.scale",
                   id=f"ma-scale-{s}") for s in (0, -1)),
    # |sum theta| is 5e-14 of sum |theta|, under the 1e-12 floor
    pytest.param("simulate", {"model": {"d": 0.3, "ma": [1e6, -999999.9999999]}}, "model.ma",
                 id="ma-transfer-vanishes-at-0"),
    pytest.param("simulate", {"model": {"d": "0.3"}}, "model.d", id="d-string"),
    pytest.param("mc-experiment", {"schedule": [{"n": 4096, "k_bar": 7}]}, "schedule[0].k_bar",
                 id="schedule-row-k_bar"),
    # a misspelt key would otherwise leave its value at the default without a word
    pytest.param("mc-experiment", {"replicats": 50}, "replicats", id="top-level-unknown-key"),
    pytest.param("simulate", {"model": {"d": 0.3, "k": 1}}, "model.k", id="model-unknown-key"),
    # 0.10's beta, f*'s Hoelder exponent, is no key, whatever its value: the bias
    # exponent reads the Hermite ranks alone
    pytest.param("simulate", {"model": {"d": 0.3, "beta": 2.0}}, "model.beta", id="beta-unknown-key"),
    pytest.param("simulate", {"model": {"d": 0.3, "beta": [2]}}, "model.beta", id="beta-list"),
    pytest.param("simulate", {"model": {"d": 0.3, "beta": 3}}, "model.beta", id="beta-above-2"),
    pytest.param("simulate", {"model": {"d": 0.3, "beta": -1}}, "model.beta", id="beta-negative"),
    pytest.param("estimate", {"model": {"d": 0.3, "beta": math.nan}}, "model.beta", id="beta-nan"),
    # 0.10's short_range object, in each of its forms, is no key: the taps are model.ma
    pytest.param("simulate", {"model": {"d": 0.3, "short_range": {"kind": "ma", "coefs": [1.0, 0.5]}}},
                 "model.short_range", id="short_range-unknown-key"),
    pytest.param("simulate", {"model": {"d": 0.3, "short_range": {"coeffs": [1, 0.9]}}},
                 "model.short_range", id="short_range-coeffs-without-kind"),
    pytest.param("simulate", {"model": {"d": 0.3, "short_range": {"kind": "constant", "scale": 3}}},
                 "model.short_range", id="short_range-constant-scale"),
    pytest.param("simulate", {"model": {"d": 0.3, "short_range": {"kind": "ma", "value": 5}}},
                 "model.short_range", id="short_range-ma-value"),
    # a schedule's rows run as given: the preset would label none of them
    pytest.param("mc-experiment", {"preset": "large-scale", "schedule": [{"n": 4096}]}, "preset",
                 id="preset-beside-schedule"),
    # a key its mode never reads would be dropped without a word
    pytest.param("estimate", {"preset": "bogus"}, "preset", id="preset-outside-mc"),
    pytest.param("estimate", {"schedule": [{"n": 8192}]}, "schedule", id="schedule-outside-mc"),
    pytest.param("mc-experiment", {"input_csv": "series.csv"}, "input_csv", id="input_csv-in-mc"),
    pytest.param("estimate", {"bank": {"family": "db2", "jmx": 8}}, "bank.jmx", id="bank-unknown-key"),
    pytest.param("simulate", {"g": {"kind": "hermite", "q": 2, "coefs": {"1": 1}}}, "g.coefs",
                 id="g-unknown-key"),
    # a g key its kind does not read would be dropped without a word
    pytest.param("simulate", {"g": {"kind": "sign", "q": 3}}, "g.q", id="g-sign-q"),
    pytest.param("simulate", {"g": {"kind": "hermite", "q": 2, "coeffs": {"1": 1}}}, "g.coeffs",
                 id="g-hermite-coeffs"),
    pytest.param("simulate", {"g": {"kind": "polynomial", "q": 5, "coeffs": [0, 1]}}, "g.q", id="g-polynomial-q"),
    pytest.param("simulate", {"g": {"kind": "exp-centered", "coeffs": [1]}}, "g.coeffs", id="g-exp-centered-coeffs"),
    # parse_config expands g: a constant is zero once centred, no rank to simulate or analyze
    pytest.param("analyze", {"g": {"kind": "polynomial", "coeffs": ["1"]}, "j": 2, "p": 2}, "g.coeffs",
                 id="analyze-zero-transform"),
])
def test_cli_rejects_bad_bank_config(tmp_path, mode, change, field):
    cfgp = _write(tmp_path, "e.json", _read_by(mode, {
        "mode": mode, "model": {"d": 0.3}, "g": "hermite:1", "n": 4096,
        "bank": {"family": "db2", "jmax": 8}, "j": 5, "p": 3, "seed": 1,
        "d0_star": 0.3, "alpha": 0.1, "replicates": 2, "out": str(tmp_path / "e"), **change,
    }))
    r = _cli(mode, "--config", cfgp)
    assert r.returncode == 2
    assert f"config error: {field}:" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("mode, change", [
    pytest.param("test", {"j": 5}, id="test"),
    pytest.param("mc-experiment", {"preset": "large-scale", "j": 2, "replicates": 2}, id="large-scale"),
])
def test_cli_side_condition_ratio_underflows_at_large_nu_c(tmp_path, mode, change):
    # d = 0.001 with ranks 1 and 2 gives nu_c = 499: 2^(j nu_c) overflows a
    # float, its reciprocal underflows to 0
    out = tmp_path / "o"
    cfgp = _write(tmp_path, "e.json", {
        "mode": mode, "model": {"d": 0.001}, "g": {"kind": "hermite-coeffs", "coeffs": {"1": 1, "2": 1}},
        "bank": {"family": "db2", "jmax": 10}, "n": 4096, "p": 1, "seed": 1,
        "d0_star": 0.001, "alpha": 0.1, "out": str(out), **change,
    })
    r = _cli(mode, "--config", cfgp)
    assert r.returncode == 0, r.stderr
    if mode == "test":
        rep = json.loads((out / "test_report.json").read_text())["test"]
        assert rep["nu_c_star"] == pytest.approx(499.0) and rep["reduction_ratio"] == 0.0
    else:
        row = json.loads((out / "mc_report.json").read_text())["results"][0]
        assert row["regime"] == "large-scale"


@pytest.mark.parametrize("mode, change, field", [
    pytest.param("nu-c", {"g": "hermite:3", "d_values": [0.2]}, "d_values[0]",
                 id="nu-c-short-memory-rank"),
    pytest.param("mc-experiment", {"preset": "large-scale", "g": "hermite:3", "model": {"d": 0.2}},
                 "model.d", id="mc-short-memory-rank"),
    pytest.param("estimate", {"bank": {"family": "db1", "jmax": 8}, "model": {"d": 0.3, "K": 1}},
                 "bank.family", id="estimate-too-few-moments"),
    # without g (None leaves it out) a simulated series is the identity, of rank 1: estimate's moment
    # rule rejects db2 below d0 = 3.3, and analyze, which has none, cannot build db2's 3-fold filters
    *(pytest.param(mode, {"g": None, "bank": {"family": "db2", "jmax": 8}, "model": {"d": 0.3, "K": 3},
                          "j": 3, "p": 2}, "bank.family", id=f"{mode}-without-g-too-few-moments")
      for mode in ("estimate", "analyze")),
    pytest.param("test", {"k_bar": 2}, "k_bar", id="test-k_bar-not-below-M"),
    pytest.param("estimate", {"input_csv": "const", "j": 1, "p": 1}, "input_csv",
                 id="estimate-constant-series"),
    # db2 has M = 2 below d0 = 3.35, of the model (K 3) or of the hypothesis
    # alone (K 0): the test's limit law would come out with a nonpositive variance
    *(pytest.param(mode, {"model": {"d": 0.35, "K": K}, "d0_star": 3.35, "bank": {"family": "db2", "jmax": 10},
                          "n": 2**14, "j": 3, "p": 2}, field, id=f"{mode}-too-few-moments-K{K}")
      for mode, K, field in (("test", 3, "bank.family"), ("test", 0, "d0_star"), ("mc-experiment", 0, "d0_star"))),
    # db34's taps miss the moment check by rounding: db34 is past the cap, which names it first
    pytest.param("estimate", {"bank": {"family": "db34", "jmax": 2}, "j": 1, "p": 1}, "bank.family",
                 id="estimate-db34-moments"),
    # parse_config expands g (test_parse_config_rejects_g_it_cannot_expand): finite coefficients
    # whose exact E[G(X)^2] overflows a float, 1e320 and 200! from x^200
    pytest.param("test", {"g": {"kind": "polynomial", "coeffs": ["0", "1e160"]}}, "g.coeffs",
                 id="polynomial-second-moment-overflow"),
    pytest.param("estimate", {"g": {"kind": "polynomial", "coeffs": ["0"] * 200 + ["1"]}}, "g.coeffs",
                 id="polynomial-degree-200-overflow"),
    # and a constant polynomial, zero once centred: no rank to estimate or test
    *(pytest.param(mode, {"g": {"kind": "polynomial", "coeffs": ["1"]}}, "g.coeffs",
                   id=f"{mode}-zero-transform")
      for mode in ("simulate", "nu-c", "estimate", "test", "mc-experiment")),
    # a preset picks its own j: ranks 2 and 3 at d 0.41 leave n 8192 no large-scale scale, and j 1, p 8
    # pass the check, but the small-scale preset moves j to 2, so its row needs scale 10
    *(pytest.param("mc-experiment", {"model": {"d": 0.41}, "g": {"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": 1}},
                                     "bank": {"family": "db2", "jmax": jmax}, "n": 8192, "j": 1, "p": p,
                                     "preset": preset}, field, id=f"{preset}-row-{field}")
      for preset, jmax, p, field in (("large-scale", 9, 1, "n"), ("small-scale", 9, 8, "bank.jmax"),
                                     ("small-scale", 10, 8, "p"))),
])
def test_cli_rejects_input_during_run_exit_2(tmp_path, mode, change, field):
    # each passes the key and type check and is rejected later, by parse_config's
    # expansion of g or once the run starts, naming the field that supplied the
    # rejected value
    if change.get("input_csv") == "const":
        series = tmp_path / "const.csv"
        export_path(np.ones(100), series)
        change = {**change, "input_csv": str(series)}
    cfgp = _write(tmp_path, "e.json", _read_by(mode, {k: v for k, v in {
        "mode": mode, "model": {"d": 0.3}, "g": "hermite:1", "n": 4096,
        "bank": {"family": "db2", "jmax": 8}, "j": 5, "p": 3, "seed": 1,
        "d0_star": 0.3, "alpha": 0.1, "replicates": 2, "out": str(tmp_path / "e"), **change,
    }.items() if v is not None}))
    r = _cli(mode, "--config", cfgp)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith(f"config error: {field}: ")
    assert "Traceback" not in r.stderr



@pytest.mark.parametrize("coeffs", [["1"], ["0", "1e160"], ["0"] * 200 + ["1"]],
                         ids=["zero-transform", "second-moment-overflow", "degree-200-overflow"])
def test_parse_config_rejects_g_it_cannot_expand(coeffs):
    # the run's rejections of g above happen in parse_config, before any run starts
    with pytest.raises(ConfigError) as e:
        parse_config({"mode": "estimate", "model": {"d": 0.3}, "g": {"kind": "polynomial", "coeffs": coeffs},
                      "n": 4096, "bank": {"family": "db2", "jmax": 8}, "j": 5, "p": 3})
    assert e.value.field == "g.coeffs"


# a JSON true is a Python int equal to 1, which each of these fields would take
@pytest.mark.parametrize("mode, change, field", [
    *(pytest.param("estimate", {key: True}, key, id=key) for key in ("j", "p")),
    pytest.param("mc-experiment", {"replicates": True}, "replicates", id="replicates"),
    pytest.param("mc-experiment", {"workers": True}, "workers", id="workers"),
    pytest.param("test", {"k_bar": True}, "k_bar", id="k_bar"),
    pytest.param("mc-experiment", {"schedule": [{"replicates": True}]}, "schedule[0].replicates",
                 id="schedule-replicates"),
    pytest.param("simulate", {"seed": True}, "seed", id="seed"),
    pytest.param("test", {"alpha": True}, "alpha", id="alpha"),
    pytest.param("simulate", {"bank": {"family": "db2", "jmax": True}}, "bank.jmax", id="bank.jmax"),
    pytest.param("simulate", {"model": {"d": 0.3, "K": True}}, "model.K", id="model.K"),
    pytest.param("simulate", {"g": {"kind": "hermite", "q": True}}, "g.q", id="g.q"),
    pytest.param("simulate", {"model": {"d": 0.3, "ma": [True, 0.5]}}, "model.ma", id="model.ma"),
    # 0.10's beta is no key: true is rejected as unknown, as any value of it is
    pytest.param("simulate", {"model": {"d": 0.3, "beta": True}}, "model.beta", id="model.beta"),
])
def test_cli_rejects_json_true_as_a_number(tmp_path, mode, change, field):
    cfgp = _write(tmp_path, "e.json", {
        "mode": mode, "model": {"d": 0.3}, "g": "hermite:1", "n": 4096,
        "bank": {"family": "db2", "jmax": 8}, "j": 5, "p": 3, "seed": 1,
        "d0_star": 0.3, "alpha": 0.1, "replicates": 2, "out": str(tmp_path / "e"), **change,
    })
    r = _cli(mode, "--config", cfgp)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith(f"config error: {field}: ")
    assert not (tmp_path / "e").exists()


# the MA covariance overflows a float: gamma(0) is inf, its correlations inf / inf
@pytest.mark.parametrize("mode", ["simulate", "estimate"])
def test_cli_overflowing_covariance_exits_3(tmp_path, mode):
    out = tmp_path / "o"
    cfgp = _write(tmp_path, "c.json", {
        "mode": mode, "model": {"d": 0.3, "ma": [1e200, 1]},
        "n": 4096, "seed": 1, "out": str(out), **({"j": 5, "p": 3} if mode == "estimate" else {}),
    })
    r = _cli(mode, "--config", cfgp)
    assert r.returncode == 3, r.stderr
    assert "numeric failure: autocovariance gamma(0) = inf: the model's covariance overflows" in r.stderr
    assert "Traceback" not in r.stderr
    assert "RuntimeWarning" not in r.stderr  # checked before the correlations divide by it
    assert not any(out.iterdir())


@pytest.mark.parametrize("taps", [[1e-13], [1e-6]])
def test_cli_one_small_tap_draws_the_flat_path(tmp_path, taps):
    # the transfer at 0 is judged against the taps' own size: one small tap
    # is the flat model at a small level, which the correlations divide out
    paths = []
    for name, model in (("flat", {"d": 0.3}), ("small", {"d": 0.3, "ma": taps})):
        out = tmp_path / name
        cfgp = _write(tmp_path, f"{name}.json", {"mode": "simulate", "model": model, "n": 1024, "seed": 1,
                                                 "out": str(out)})
        r = _cli("simulate", "--config", cfgp)
        assert r.returncode == 0, r.stderr
        paths.append(ingest(out / "path.csv")[0])
    assert np.abs(paths[1] - paths[0]).max() <= 1e-15 * np.abs(paths[0]).max()


# a CSV of values near 1e200 is finite, but its wavelet coefficients' squares are not
@pytest.mark.parametrize("mode", ["analyze", "estimate"])
def test_cli_overflowing_scalogram_names_the_scale(tmp_path, mode):
    series = tmp_path / "big.csv"
    export_path(1e200 * (1.0 + np.random.default_rng(0).standard_normal(4096)), series)
    out = tmp_path / "o"
    cfgp = _write(tmp_path, "c.json", {"mode": mode, "model": {"d": 0.3}, "input_csv": str(series),
                                       "bank": {"family": "db2", "jmax": 8}, "j": 3, "p": 2, "out": str(out)})
    r = _cli(mode, "--config", cfgp)
    assert r.returncode == 3, r.stderr
    assert "numeric failure: scalogram at scale 3 is not finite" in r.stderr
    assert "RuntimeWarning" not in r.stderr and "Traceback" not in r.stderr
    assert not out.exists() or not any(out.iterdir())


def test_cli_mc_experiment_applies_the_vanishing_moment_rule(tmp_path):
    # db2 has M = 2 < K + delta(1) = 3.35: estimate rejects this bank, and so
    # must a sweep, whose replicates would read d0 near M + 1/2
    out = tmp_path / "o"
    cfgp = _write(tmp_path, "c.json", {"mode": "mc-experiment", "model": {"d": 0.35, "K": 3}, "g": "hermite:1",
                                       "n": 2**14, "j": 3, "p": 2, "bank": {"family": "db2", "jmax": 10},
                                       "replicates": 4, "out": str(out)})
    r = _cli("mc-experiment", "--config", cfgp)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("config error: bank.family: bank has M=2 vanishing moments; "
                               "theory requires M >= 3.35")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_report_with_a_non_finite_number_raises_numeric_error(tmp_path, value):
    cfg = parse_config({"mode": "simulate", "model": {"d": 0.3}, "n": 128, "out": str(tmp_path)})
    art = harness._Artifacts(str(tmp_path))
    with pytest.raises(NumericError, match="^x_report.json: Out of range float values"):
        harness._write_report(cfg, art, "x_report.json", body={"d0_hat": value})
    assert art.paths == [str(tmp_path / "x_report.json")]  # for run to delete


@pytest.mark.parametrize("field, content", [
    pytest.param("<config>", None, id="config-directory"),
    pytest.param("<config>", b'{"mode": "estimate"}\xff', id="config-not-utf8"),
    pytest.param("<config>", b'{"note": ' + b"[" * 10**5 + b"]" * 10**5 + b"}", id="config-nested-too-deeply"),
    pytest.param("<config>", b'{"seed": ' + b"1" * 5000 + b"}", id="config-integer-of-5000-digits"),
    pytest.param("input_csv", None, id="csv-directory"),
    pytest.param("input_csv", b"x\n1.0\n\xff\n", id="csv-not-utf8"),
    # rows Python's float reads, as 1000 and 1.0
    pytest.param("input_csv", b"x\n" + b"1_000\n" * 80, id="csv-digit-groups"),
    pytest.param("input_csv", b"x\n" + "\u0661\n".encode() * 80, id="csv-arabic-indic-digit"),
])
def test_cli_unreadable_input_exit_2(tmp_path, field, content):
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    cfgp = str(bad) if field == "<config>" else _write(tmp_path, "e.json", {
        "mode": "estimate", "model": {"d": 0.3}, "input_csv": str(bad),
        "bank": {"family": "db2", "jmax": 8}, "j": 3, "p": 3, "out": str(tmp_path / "e"),
    })
    r = _cli("estimate", "--config", cfgp)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith(f"config error: {field}: ")
    assert "Traceback" not in r.stderr


def test_cli_scales_too_coarse_for_input_csv_exit_2(tmp_path):
    series = tmp_path / "short.csv"
    export_path(np.sin(np.arange(100.0)), series)
    cfgp = _write(tmp_path, "e.json", {
        "mode": "estimate", "model": {"d": 0.3}, "input_csv": str(series),
        "bank": {"family": "db2", "jmax": 8}, "j": 3, "p": 3, "out": str(tmp_path / "e"),
    })
    r = _cli("estimate", "--config", cfgp)
    assert r.returncode == 2
    assert r.stderr.startswith("config error: input_csv: scale 4 filter")
    assert "Traceback" not in r.stderr


def test_pyproject_version_matches_package():
    # reports embed __version__: the packaging metadata must not drift from it
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == scalolab.__version__


_README_MATH = {"nu_c", "n_j"}  # symbols of the maths in the layout table, not names in the code


def test_readme_layout_names_resolve():
    # every snake_case name the layout table shows is defined in a scalolab
    # module or in tests/oracles.py: a deleted function leaves the table too
    import importlib

    import oracles

    text = (ROOT / "README.md").read_text()
    start = text.index("| module")
    table = text[start : text.index("\n\n", start)]
    modules = [scalolab, oracles, *(importlib.import_module(f"scalolab.{p.stem}")
                                    for p in Path(scalolab.__file__).parent.glob("*.py"))]
    names = set(re.findall(r"`(_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+)`", table)) - _README_MATH
    assert len(names) > 30
    assert sorted(n for n in names if not any(hasattr(m, n) for m in modules)) == []


def test_readme_config_table_lists_every_top_level_key():
    # one row names each key a configuration may hold at its top level, and no
    # row names another, with the modes that read it: a key added to or retired
    # from the schema, or read by another mode, moves the table
    text = (ROOT / "README.md").read_text()
    start = text.index("| field | read by | meaning |")
    rows = [row.split("|") for row in text[start : text.index("\n\n", start)].splitlines()[2:]]
    modes, reads = scalolab.config._MODES, scalolab.config._READS[""]
    read_by = {k: set(modes) if row[2].strip() == "every mode" else set(row[2].strip().split(", "))
               for row in rows for k in re.findall(r"`(\w+)`", row[1])}
    assert sorted(read_by) == sorted(scalolab.config._KEYS[""])
    assert read_by == {k: {m for m in modes if k in ("mode", "seed", "out", *reads[m])} for k in read_by}
    # the sweep's conditional read names the test's keys
    rules = text.index("\n- ", start)  # the list of conditional reads below the table
    (rule,) = [item for item in text[rules : text.index("\n\n", rules)].split("\n- ") if "only as a test" in item]
    assert set(re.findall(r"`(\w+)`", rule)) == set(scalolab.config._TEST)


def test_readme_model_row_lists_every_model_key():
    # the model row names each key a model may hold and none that 0.10's model
    # or short_range object held: a key added to or retired from it moves the row
    text = (ROOT / "README.md").read_text()
    (row,) = [line for line in text.splitlines() if line.startswith("| `model` |")]
    named = set(re.findall(r"`(\w+)`", row)) | set(re.findall(r'"(\w+)":', row))
    assert set(scalolab.config._KEYS["model"]) <= named
    assert not named & {"short_range", "value", "scale", "beta"}


def test_experiment_configs_smoke(tmp_path):
    # README's Experiments section runs each config in experiments/ by one
    # command, and names no other; each passes the configuration check
    configs = sorted(p.name for p in (ROOT / "experiments").glob("*.json"))
    text = (ROOT / "README.md").read_text()
    start = text.index("## Experiments\n")
    section = text[start : text.index("\n## ", start)]
    assert sorted(re.findall(r"scalolab mc-experiment --config experiments/(\S+)\n", section)) == configs
    for name in configs:
        assert parse_config(json.loads((ROOT / "experiments" / name).read_text())).mode == "mc-experiment"
    # the null calibration at a size set here, as a reader would edit it
    raw = json.loads((ROOT / "experiments" / "calibration_null.json").read_text())
    out = tmp_path / "null"
    cfgp = _write(tmp_path, "null.json", {**raw, "n": 4096, "replicates": 4, "out": str(out)})
    assert cli.main(["mc-experiment", "--config", cfgp]) == 0
    (row,) = json.loads((out / "mc_report.json").read_text())["results"]
    assert 0.0 <= row["rejection_rate"] <= 1.0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page faults")
@pytest.mark.parametrize("model, g, d0_star, preset", [
    pytest.param({"d": 0.35, "K": 0}, "hermite:1", 0.35, None, id="model0-hermite:1-0.35"),
    pytest.param({"d": 0.42, "K": 0}, "hermite:2", 0.34, None, id="model1-hermite:2-0.34"),
    pytest.param({"d": 0.35, "K": 0}, "hermite:1", None, None, id="model2-hermite:1-None"),
    pytest.param({"d": 0.41, "K": 0}, {"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": 1}}, None, "small-scale",
                 id="small-scale-gaps"),
])
def test_fault_probe_sweep_reuses_freed_replicate_arrays(tmp_path, model, g, d0_star, preset):
    # After set-up, a replicate's arrays (MBs at n = 2^16) come from blocks
    # the last replicate freed: about 500 minor faults per replicate would
    # mean glibc maps each afresh.  The draw's transform allocates no block
    # of its own, and the embedding's build has already freed one as large
    # as the draw's buffer, which lifts glibc's mmap threshold above every
    # replicate array; a sweep with no test, and so no limit law in its
    # set-up, must not fault either, nor one whose replicates also evaluate
    # the lead term at the gap scales.
    cfg = tmp_path / "mc.json"
    test = {} if d0_star is None else {"d0_star": d0_star, "alpha": 0.1}
    cfg.write_text(json.dumps({"mode": "mc-experiment", "model": model, "g": g, "n": 2**16, "j": 5, "p": 3,
                               "bank": {"family": "db2", "jmax": 10}, "preset": preset, **test}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "fault_probe.py"), str(cfg)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    faults = [int(line.split(", ")[1].split()[0]) for line in r.stdout.splitlines()]
    assert len(faults) == 4 and max(faults[1:]) < 50, r.stdout


def test_cold_cli_pairs_smoke():
    # the repository on both sides, one round of the five tiny cold modes
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "cold_cli_pairs.py"), str(ROOT), str(ROOT),
                        "--rounds", "1", "--size", "tiny"], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    rows = [ln.split() for ln in r.stdout.splitlines()[2:]]
    assert [(row[0], row[1]) for row in rows] == [(m, s) for m in ("simulate", "analyze", "estimate", "test",
                                                                   "nu-c", "all")
                                                  for s in ("parent", "change", "ratio")]
    assert all(float(x) > 0 for row in rows for x in row[2:6] if row[1] != "ratio")


_BENCHMARK_CONFIGS = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
import run
from scalolab.config import parse_config

for name, w in run.WORKLOADS.items():
    for size in ("config", "tiny") if "config" in w else ():
        for workers in (1, 2):  # the keys perfbench/child.py adds to a sweep's config
            parse_config({**w[size], "replicates": 3, "seed": 1, "workers": workers, "out": "unused"})
# the test run child.law_scale makes of the mc-gauss sweep
parse_config({**run.WORKLOADS["mc-gauss"]["config"], "mode": "test", "seed": 1, "out": "unused"})
for size in ("full", "tiny"):
    for mode, path in run.cli_configs(types.SimpleNamespace(size=size, seed=3), sys.argv[2], 0).items():
        with open(path) as fh:
            assert parse_config(json.load(fh)).mode == mode
print("ok")
"""


def test_benchmark_configs_pass_the_config_check(tmp_path):
    # a schema change that rejects a config of perfbench fails here, not in a
    # benchmark run; a child imports perfbench/run.py, which pins the BLAS
    # variables, and writes no bytecode there
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    r = subprocess.run([sys.executable, "-c", _BENCHMARK_CONFIGS, str(ROOT / "perfbench"), str(tmp_path)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "ok\n"


def test_benchmark_reduction_workload_is_the_large_scale_experiment():
    # perfbench times the large-scale reduction experiment at its own
    # replicate count and seed; a child reads run.py as the check above does
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    code = 'import json, sys; sys.path.insert(0, sys.argv[1]); import run; ' \
           'print(json.dumps(run.WORKLOADS["reduction-deep"]["config"]))'
    r = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    experiment = json.loads((ROOT / "experiments" / "reduction_large-scale.json").read_text())
    assert json.loads(r.stdout) == {k: v for k, v in experiment.items() if k not in ("replicates", "seed", "out")}


def test_cli_import_loads_no_scipy():
    code = "import sys, scalolab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_cli_import_loads_no_process_machinery():
    # a process pool is imported only by a sweep that runs on two workers or more
    code = "import sys, scalolab.cli; print('multiprocessing' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_cli_import_loads_modules_only_where_used():
    # each is imported by the code that needs it: the logger by the one
    # warning, hashlib by ingest, NormalDist by a Gaussian test, csv by the
    # table writers; numpy.random by the first draw
    lazy = ["csv", "hashlib", "logging", "numpy.random", "statistics"]
    code = f"import sys, scalolab.cli; print([m for m in {lazy!r} if m in sys.modules])"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_cli_freezes_the_heap_only_as_the_program(tmp_path):
    # main() as the program (argv from sys.argv) freezes what the imports
    # made; main(argv) called by another program leaves its heap as it was
    cfgp = _write(tmp_path, "n.json", {"mode": "nu-c", "g": "hermite:2", "d_values": [0.3],
                                        "out": str(tmp_path / "o")})
    code = ("import gc, sys, scalolab.cli\n"
            "before = gc.get_freeze_count()\n"
            "rc = scalolab.cli.main(['nu-c', '--config', sys.argv[1]])\n"
            "print(rc, gc.get_freeze_count() == before)\n"
            "sys.argv = ['scalolab', 'nu-c', '--config', sys.argv[1]]\n"
            "rc = scalolab.cli.main()\n"
            "print(rc, gc.get_freeze_count() > 0)")
    r = subprocess.run([sys.executable, "-c", code, cfgp], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert [ln for ln in r.stdout.splitlines() if not ln.endswith(".json")] == ["0 True", "0 True"]


def test_cli_rank_one_test_loads_no_scipy(tmp_path):
    # the Gaussian critical value comes from the standard library
    out = tmp_path / "t"
    cfgp = _write(tmp_path, "t.json", {
        "mode": "test", "model": {"d": 0.35, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 7}, "n": 4096, "j": 3, "p": 2, "seed": 6,
        "d0_star": 0.35, "alpha": 0.1, "out": str(out),
    })
    code = ("import sys, scalolab.cli; rc = scalolab.cli.main(sys.argv[1:]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code, "test", "--config", cfgp],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0 []"
    rep = json.loads((out / "test_report.json").read_text())["test"]
    assert rep["kind"] == "gaussian"
    # one tail change per offset, a relative change
    tails = rep["quantile_provenance"]["tail_change"]
    assert len(tails) == 3 and all(0.0 <= t < 1.0 for t in tails)


def test_cli_sweeps_load_no_scipy(tmp_path):
    # skewness and normality_p come from numpy; every menu transform has
    # exact Hermite coefficients, so no mode runs quadrature.  Nor does any
    # run load numpy.polynomial until a polynomial G is evaluated
    base = {"mode": "mc-experiment", "model": {"d": 0.35, "K": 0}, "g": "hermite:1",
            "bank": {"family": "db2", "jmax": 7}, "n": 4096, "j": 3, "p": 2,
            "replicates": 3, "seed": 6}
    runs = [
        ("mc-experiment", {**base, "d0_star": 0.35, "alpha": 0.1}),
        ("mc-experiment", {**base, "model": {"d": 0.42, "K": 0}, "g": "hermite:2", "d0_star": 0.34,
                           "alpha": 0.1}),
        ("mc-experiment", {**base, "model": {"d": 0.41, "K": 0},
                           "g": {"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": 1}},
                           "bank": {"family": "db2", "jmax": 8}, "n": 2**13, "j": 2, "p": 1,
                           "preset": "small-scale"}),
    ]
    menu = [("exp-centered", 0.35), ("sign", 0.35), ("abs-centered", 0.42),
            ({"kind": "polynomial", "coeffs": ["0", "1", "0", "1/3"]}, 0.35)]
    for g, d in menu:
        cfg = {**base, "model": {"d": d, "K": 0}, "g": g, "d0_star": d if d < 0.4 else 0.34, "alpha": 0.1,
               "d_values": [0.3, 0.42]}
        runs += [(mode, _read_by(mode, cfg)) for mode in ("test", "estimate", "nu-c", "mc-experiment")]
    paths = [_write(tmp_path, f"c{i}.json", {**c, "out": str(tmp_path / f"o{i}")})
             for i, (_, c) in enumerate(runs)]
    code = ("import sys, scalolab.cli\n"
            "for mode, p in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    rc = scalolab.cli.main([mode, '--config', p])\n"
            "    print('scipy:', rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "    print('numpy.polynomial:', 'numpy.polynomial' in sys.modules)")
    argv = [a for (mode, _), p in zip(runs, paths) for a in (mode, p)]
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert [ln for ln in r.stdout.splitlines() if ln.startswith("scipy:")] == ["scipy: 0 []"] * len(runs)
    polynomial = [ln for ln in r.stdout.splitlines() if ln.startswith("numpy.polynomial:")]
    assert polynomial[:-4] == ["numpy.polynomial: False"] * (len(runs) - 4)  # the last four run a polynomial
    assert all((tmp_path / f"o{i}" / "mc_report.json").exists() for i in range(3))


def test_cli_test_on_unresolved_law_exits_3(tmp_path):
    # p = jmax - 1 leaves offsets m = 4..6 on levels too shallow for the
    # limit shape: their tail_change reads 0.23, 1.02 and 0.35
    out = tmp_path / "t"
    cfgp = _write(tmp_path, "t.json", {
        "mode": "test", "model": {"d": 0.3, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 7}, "n": 4096, "j": 1, "p": 6, "seed": 6,
        "d0_star": 0.3, "alpha": 0.1, "out": str(out),
    })
    r = _cli("test", "--config", cfgp)
    assert r.returncode == 3
    assert "numeric failure: limit law offset m=4: tail_change 0.228 exceeds 0.1" in r.stderr
    assert "Traceback" not in r.stderr
    assert not (out / "test_report.json").exists()


def test_cli_seed_and_out_overrides(tmp_path):
    cfgp = _write(tmp_path, "c.json", {
        "mode": "simulate", "model": {"d": 0.3}, "g": "hermite:1",
        "n": 128, "seed": 3, "out": str(tmp_path / "o1"),
    })
    r1 = _cli("simulate", "--config", cfgp, "--out", str(tmp_path / "o2"), "--seed", "9")
    assert r1.returncode == 0
    side = json.loads((tmp_path / "o2" / "path.csv.json").read_text())
    assert side["seed"] == 9


def test_cli_checks_the_config_once_under_the_mode_argument(tmp_path):
    # the file's own mode is not checked first: a test config with no test
    # fields simulates, and a config with no mode runs
    cfg = {"mode": "test", "model": {"d": 0.3}, "g": "hermite:1", "n": 128, "seed": 3}
    r = _cli("simulate", "--config", _write(tmp_path, "t.json", {**cfg, "out": str(tmp_path / "a")}))
    assert r.returncode == 0, r.stderr
    side = json.loads((tmp_path / "a" / "path.csv.json").read_text())
    assert side["config"] == {**cfg, "mode": "simulate", "out": str(tmp_path / "a")}  # the merged object
    nomode = {k: v for k, v in cfg.items() if k != "mode"}
    r = _cli("simulate", "--config", _write(tmp_path, "n.json", nomode), "--out", str(tmp_path / "b"))
    assert r.returncode == 0, r.stderr
    side = json.loads((tmp_path / "b" / "path.csv.json").read_text())
    assert side["config"] == {**nomode, "mode": "simulate", "out": str(tmp_path / "b")}
    # still rejected, with exit 2: invalid JSON and a value that is no object
    (tmp_path / "bad.json").write_text("{")
    r = _cli("simulate", "--config", str(tmp_path / "bad.json"))
    assert r.returncode == 2 and r.stderr.startswith("config error: <config>: invalid JSON")
    r = _cli("simulate", "--config", _write(tmp_path, "list.json", [nomode]), "--seed", "4")
    assert r.returncode == 2 and r.stderr.startswith("config error: <root>: ")
    assert "Traceback" not in r.stderr


def test_cli_precondition_enforcement_exit_4(tmp_path):
    cfgp = _write(tmp_path, "t.json", {
        "mode": "test", "model": {"d": 0.35, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 7},
        "n": 4096, "j": 3, "p": 2, "seed": 6,
        "d0_star": 0.35, "alpha": 0.1, "k_bar": 0,
        "enforce_preconditions": {"bias_max": 0.0},
        "out": str(tmp_path / "t"),
    })
    r = _cli("test", "--config", cfgp)
    assert r.returncode == 4
    assert "precondition" in r.stderr


def test_cli_mc_experiment_enforces_preconditions_exit_4(tmp_path, capsys):
    out = tmp_path / "o"
    cfgp = _write(tmp_path, "m.json", {
        "mode": "mc-experiment", "model": {"d": 0.35, "K": 0}, "g": "hermite:1",
        "bank": {"family": "db2", "jmax": 7}, "n": 4096, "j": 3, "p": 2, "seed": 6, "replicates": 2,
        "d0_star": 0.35, "alpha": 0.1, "enforce_preconditions": {"bias_max": 0.0}, "out": str(out),
    })
    assert cli.main(["mc-experiment", "--config", cfgp]) == 4
    assert capsys.readouterr().err.startswith("precondition hard-fail: bias ratio ")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("mode", ["test", "mc-experiment"])
def test_rank_one_offset_past_the_limit_shape_exits_2_naming_p(tmp_path, capsys, mode):
    # the rank-one limit law reads levels min(jmax, 11) down to min(jmax, 11) - p >= 1
    out = tmp_path / "o"
    cfgp = _write(tmp_path, "c.json", {
        "model": {"d": 0.35}, "g": "hermite:1", "bank": {"family": "db2", "jmax": 12}, "n": 2**16, "j": 1,
        "p": 11, "d0_star": 0.35, "alpha": 0.1, "out": str(out), **({"replicates": 2} if mode != "test" else {}),
    })
    assert cli.main([mode, "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: p: bank too shallow: offset 11 ") and "p < min(jmax, 11) = 11" in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("mode, extra", [("estimate", {}), ("estimate", {"d0_star": 0.35, "alpha": 0.1}),
                                         ("analyze", {}), ("mc-experiment", {}), ("mc-experiment", {"d0_star": 0.35}),
                                         ("mc-experiment", {"alpha": 0.1})])
def test_a_bound_no_calibration_reads_exits_2(tmp_path, capsys, mode, extra):
    # only a run that calibrates the test reads enforce_preconditions, or d0_star and alpha: elsewhere a bound
    # would go unread.  A key of extra is named first, as it comes first
    base = {"model": {"d": 0.35}, "g": "hermite:1", "bank": {"family": "db2", "jmax": 7}, "n": 4096, "j": 3,
            "p": 2, "out": str(tmp_path / "o"), **({"replicates": 2} if mode == "mc-experiment" else {}), **extra}
    cfgp = _write(tmp_path, "c.json", {**base, "enforce_preconditions": {"bias_max": 0.0}})
    assert cli.main([mode, "--config", cfgp]) == 2
    field = next(iter(extra), "enforce_preconditions")
    assert capsys.readouterr().err.startswith(f"config error: {field}: not read by mode {mode!r}")
    # no bound at all (null is absent) is nothing unread
    cfgp = _write(tmp_path, "c.json", {**base, "enforce_preconditions": {"bias_max": None}})
    assert cli.main([mode, "--config", cfgp]) == (2 if extra else 0)


_ON_SERIES = {"model": {"d": 0.3}, "bank": {"family": "db2", "jmax": 8}, "j": 3, "p": 2}
_SIMULATED, _ON_CSV = {**_ON_SERIES, "n": 4096}, {**_ON_SERIES, "input_csv": "series.csv"}
_TESTED = {"g": "hermite:1", "d0_star": 0.3, "alpha": 0.1}


@pytest.mark.parametrize("mode, base, change, field", [
    # the test's keys and a sweep's controls beside a single estimate
    pytest.param("estimate", _SIMULATED, {"d0_star": 0.3, "alpha": 0.1, "replicates": 50, "workers": 8}, "d0_star",
                 id="estimate-test-and-sweep-keys"),
    *(pytest.param("estimate", _SIMULATED, {key: value}, key, id=f"estimate-{key}")
      for key, value in (("d0_star", 0.3), ("alpha", 0.1), ("k_bar", 0), ("replicates", 50), ("workers", 8))),
    *(pytest.param("test", {**_SIMULATED, **_TESTED}, {key: value}, key, id=f"test-{key}")
      for key, value in (("replicates", 50), ("workers", 2))),
    *(pytest.param("simulate", {"model": {"d": 0.3}, "n": 4096}, {key: value}, key, id=f"simulate-{key}")
      for key, value in (("bank", {"family": "db2", "jmax": 8}), ("j", 3), ("p", 2))),
    # nu-c builds no bank, whatever family it names
    pytest.param("nu-c", {"g": "hermite:1", "d_values": [0.3]}, {"bank": {"family": "db36"}}, "bank", id="nu-c-bank"),
    # a series read from a CSV has its own length, and analyze transforms none
    *(pytest.param(mode, {**_ON_CSV, **(_TESTED if mode == "test" else {})}, {"n": 999999}, "n",
                   id=f"{mode}-input_csv-n") for mode in ("analyze", "estimate", "test")),
    pytest.param("analyze", _ON_CSV, {"g": "hermite:1"}, "g", id="analyze-input_csv-g"),
    # a sweep tests d0* with both d0_star and alpha, or not at all
    *(pytest.param("mc-experiment", {**_SIMULATED, "g": "hermite:1"}, {key: value}, key,
                   id=f"mc-experiment-{key}-alone") for key, value in (("d0_star", 0.3), ("alpha", 0.1))),
])
def test_cli_rejects_a_key_its_mode_does_not_read(tmp_path, mode, base, change, field):
    # the key would be dropped without a word: the CLI names it, and the config without it is accepted
    parse_config({**base, "mode": mode})
    out = tmp_path / "o"
    r = _cli(mode, "--config", _write(tmp_path, "c.json", {**base, **change, "out": str(out)}))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith(f"config error: {field}: not read by mode {mode!r}")
    assert not out.exists()


# each input is read by every mode listed with it; mc-experiment simulates n rows in place of a CSV
_BASE = {"model": {"d": 0.35}, "g": "hermite:1", "bank": {"family": "db2", "jmax": 8}, "n": 4096, "j": 3, "p": 2,
         "seed": 1, "d0_star": 0.35, "alpha": 0.1, "replicates": 2}
_ALL_THREE, _CALIBRATED = ("estimate", "test", "mc-experiment"), ("test", "mc-experiment")


@pytest.mark.parametrize("modes, change, field", [
    pytest.param(_ALL_THREE, {"model": {"d": 0.35, "K": 1}, "bank": {"family": "db1", "jmax": 8}, "d0_star": 1.35},
                 "bank.family", id="moment-shortfall"),
    # with db27, the deepest bank admitted, a transform zero once centred is named
    pytest.param(_ALL_THREE, {"g": {"kind": "polynomial", "coeffs": ["1"]}, "bank": {"family": "db27", "jmax": 2},
                              "j": 1, "p": 1}, "g.coeffs", id="zero-transform-db27"),
    # too short to ingest, and the bank has too few moments: the bank comes first
    pytest.param(_ALL_THREE, {"input_csv": "rows-10", "model": {"d": 0.35, "K": 1},
                              "bank": {"family": "db1", "jmax": 8}, "d0_star": 1.35},
                 "bank.family", id="short-csv-moment-shortfall"),
    pytest.param(_CALIBRATED, {"k_bar": 2}, "k_bar", id="k_bar-not-below-M"),
    pytest.param(_CALIBRATED, {"d0_star": 3.35}, "d0_star", id="M-below-d0_star"),
    # a constant series, whose scalogram is zero: the calibration comes first
    pytest.param(_CALIBRATED, {"input_csv": "zeros", "d0_star": 3.35}, "d0_star", id="zero-csv-M-below-d0_star"),
])
def test_modes_agree_on_the_field_an_input_fails(tmp_path, capsys, modes, change, field):
    if "input_csv" in change:
        kind, series = change["input_csv"], tmp_path / "series.csv"
        export_path(np.arange(10.0) if kind == "rows-10" else np.zeros(4096), series)
        change = {**change, "input_csv": str(series)}
    for mode in modes:
        raw = {**_BASE, **change, "out": str(tmp_path / mode)}
        if mode == "mc-experiment":
            raw.pop("input_csv", None)
        raw = _read_by(mode, raw)
        assert cli.main([mode, "--config", _write(tmp_path, f"{mode}.json", raw)]) == 2, mode
        assert capsys.readouterr().err.startswith(f"config error: {field}: "), mode


def test_estimate_test_and_mc_read_one_d0_hat(tmp_path):
    # a single run is replicate 0 of its plan: the real half of stream 0
    base = {"model": {"d": 0.35, "K": 1}, "g": "exp-centered", "bank": {"family": "db3", "jmax": 10},
            "n": 2**14, "j": 3, "p": 3, "seed": 11, "d0_star": 1.35, "alpha": 0.1, "replicates": 1}
    reports = {}
    for mode, name in (("estimate", "estimate_report.json"), ("test", "test_report.json"),
                       ("mc-experiment", "mc_report.json")):
        cfgp = _write(tmp_path, f"{mode}.json", _read_by(mode, {**base, "out": str(tmp_path / mode)}))
        assert cli.main([mode, "--config", cfgp]) == 0
        reports[mode] = json.loads((tmp_path / mode / name).read_text())
    d0_hat = reports["estimate"]["estimate"]["d0_hat"]
    assert reports["test"]["test"]["d0_hat"] == d0_hat
    assert reports["mc-experiment"]["results"][0]["mean_d0"] == d0_hat
    assert reports["test"]["test"]["decision"] == (reports["mc-experiment"]["results"][0]["rejection_rate"] == 1.0)


def test_cli_rank_two_test_end_to_end(tmp_path):
    out = tmp_path / "t"
    cfgp = _write(tmp_path, "t.json", {
        "mode": "test", "model": {"d": 0.42, "K": 0}, "g": "hermite:2",
        "bank": {"family": "db2", "jmax": 8}, "n": 4096, "j": 3, "p": 2, "seed": 5,
        "d0_star": 0.34, "alpha": 0.1, "out": str(out),
    })
    r = _cli("test", "--config", cfgp)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [str(out / "test_report.json")]
    rep = json.loads((out / "test_report.json").read_text())["test"]
    assert rep["kind"] == "rosenblatt"
    prov = rep["quantile_provenance"]
    assert prov["method"] == "eigenvalue CF inversion" and prov["m"] >= 256
    assert 0.0 <= prov["tail_var_share"] < 0.01
    assert sorted(os.listdir(out)) == ["test_report.json"]  # no quantile cache file


def test_cli_rank_two_test_near_the_bound_exits_3_in_bounded_time(tmp_path):
    # d0* 0.4998 puts d* at 0.4999, where the second-chaos inversion grid
    # would take 2.2 M steps: the run stops at the step cap and names d0_star
    out = tmp_path / "t"
    cfgp = _write(tmp_path, "t.json", {
        "mode": "test", "model": {"d": 0.4807}, "g": "hermite:2",
        "bank": {"family": "db3", "jmax": 8}, "n": 4096, "j": 2, "p": 2, "seed": 1,
        "d0_star": 0.4998, "alpha": 0.1, "out": str(out),
    })
    r = _cli("test", "--config", cfgp, timeout=10)
    assert r.returncode == 3, r.stderr
    assert "numeric failure:" in r.stderr and "d0_star" in r.stderr and "d*=0.4999" in r.stderr
    assert not out.exists() or not any(out.iterdir())


def test_mc_one_replicate_preset_row_has_nan_gap(tmp_path):
    cfg = parse_config({
        "mode": "mc-experiment", "model": {"d": 0.41, "K": 0},
        "g": {"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": 1}},
        "bank": {"family": "db2", "jmax": 8}, "n": 2**13, "j": 2, "p": 1,
        "preset": "small-scale", "replicates": 1, "seed": 3, "out": str(tmp_path),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = run(cfg)
    rows = json.loads(open(paths[1]).read())["results"]
    gaps = [v for k, v in rows[0].items() if k.startswith("rel_gap_j")]
    assert gaps and all(v is None for v in gaps)  # NaN in mc_results.csv, null in the report
    header, row = open(paths[0]).read().strip().splitlines()
    rec = dict(zip(header.split(","), row.split(",")))
    assert all(math.isnan(float(rec[k])) for k in rec if k.startswith("rel_gap_j"))
