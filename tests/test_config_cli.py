import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import scalolab.config
import scalolab.harness as harness
import scalolab.inference
from scalolab.config import ConfigError, ingest, parse_config, parse_g_spec
from scalolab.harness import run
from scalolab.inference import run_test
from scalolab.synthesis import export_path, sample_gaussian, sample_gaussian_pair
from scalolab.wavelet import build_bank

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# --- transform specs -------------------------------------------------------


def test_g_spec_shorthand_and_forms():
    assert parse_g_spec("hermite:3").q == 3
    assert parse_g_spec("exp-centered").kind == "exp-centered"
    g = parse_g_spec({"kind": "polynomial", "coeffs": ["0", "1/2", "3"]})
    assert g.poly_coeffs == (0.0, 0.5, 3.0)
    g2 = parse_g_spec({"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": "1"}})
    assert g2.hermite_coeffs == ((2, 2.0), (3, 1.0))


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
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # kinked transforms carry tiny quad means
        sgn = parse_g_spec("sign").expansion()
        ab = parse_g_spec("abs-centered").expansion()
    assert all(q % 2 == 1 for q in sgn.coeffs)  # odd transform
    assert sgn.nonzero_indices()[0] == 1
    assert all(q % 2 == 0 for q in ab.coeffs)  # even transform
    assert ab.nonzero_indices()[0] == 2
    ex = parse_g_spec("exp-centered").expansion()
    assert ex.nonzero_indices()[0] == 1 and 2 in ex.coeffs


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
    (path_csv,) = run(sim)
    est = parse_config({"mode": "estimate", "model": {"d": 0.3, "K": 0},
                        "g": "hermite:1", "bank": {"family": "db2", "jmax": 8},
                        "input_csv": path_csv, "j": 3, "p": 3,
                        "out": str(tmp_path / "est")})
    (rp,) = run(est)
    rep = json.loads(open(rp).read())
    assert abs(rep["estimate"]["d0_hat"] - 0.3) < 0.25
    assert rep["input"]["sha256"]
    ana = parse_config({"mode": "analyze", "model": {"d": 0.3, "K": 0},
                        "bank": {"family": "db2", "jmax": 8},
                        "input_csv": path_csv, "j": 3, "p": 2,
                        "out": str(tmp_path / "ana")})
    paths = run(ana)
    rows = open(paths[0]).read().strip().splitlines()
    assert rows[0] == "j,n_j,sigma2"
    assert len(rows) == 4  # scales 3..5


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
    decisions = [run_test(x, bank, 0.2, 0.1, 0, expansion, 3, 2).decision
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
                         (scalolab.inference, "_LimitShape")):
        monkeypatch.setattr(module, name, rebuilt)
    harness._bank.cache_clear()
    scalolab.inference._limit_law.cache_clear()
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


def test_failed_run_leaves_no_partial_output(tmp_path):
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


# --- CLI ------------------------------------------------------------------------


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "scalolab.cli", *args],
                          capture_output=True, text=True)


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
    assert (tmp_path / "out" / "path.csv").exists()


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
])
def test_cli_rejects_bad_bank_config(tmp_path, mode, change, field):
    cfgp = _write(tmp_path, "e.json", {
        "mode": mode, "model": {"d": 0.3}, "g": "hermite:1", "n": 4096,
        "bank": {"family": "db2", "jmax": 8}, "j": 5, "p": 3, "seed": 1,
        "d0_star": 0.3, "alpha": 0.1, "replicates": 2, "out": str(tmp_path / "e"), **change,
    })
    r = _cli(mode, "--config", cfgp)
    assert r.returncode == 2
    assert f"config error: {field}:" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("mode, change, field", [
    pytest.param("nu-c", {"g": "hermite:3", "d_values": [0.2]}, "d_values[0]",
                 id="nu-c-short-memory-rank"),
    pytest.param("mc-experiment", {"preset": "large-scale", "g": "hermite:3", "model": {"d": 0.2}},
                 "model.d", id="mc-short-memory-rank"),
    pytest.param("estimate", {"bank": {"family": "db1", "jmax": 8}, "model": {"d": 0.3, "K": 1}},
                 "bank.family", id="estimate-too-few-moments"),
    pytest.param("test", {"k_bar": 2}, "k_bar", id="test-k_bar-not-below-M"),
    pytest.param("estimate", {"input_csv": "const", "j": 1, "p": 1}, "input_csv",
                 id="estimate-constant-series"),
])
def test_cli_rejects_input_during_run_exit_2(tmp_path, mode, change, field):
    # each passes the configuration check and is rejected only once the run
    # starts, which names the field that supplied the rejected value
    if change.get("input_csv") == "const":
        series = tmp_path / "const.csv"
        export_path(np.ones(100), series)
        change = {**change, "input_csv": str(series)}
    cfgp = _write(tmp_path, "e.json", {
        "mode": mode, "model": {"d": 0.3}, "g": "hermite:1", "n": 4096,
        "bank": {"family": "db2", "jmax": 8}, "j": 5, "p": 3, "seed": 1,
        "d0_star": 0.3, "alpha": 0.1, "replicates": 2, "out": str(tmp_path / "e"), **change,
    })
    r = _cli(mode, "--config", cfgp)
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
    assert "config error: scale" in r.stderr
    assert "Traceback" not in r.stderr


def test_pyproject_version_matches_package():
    # reports embed __version__: the packaging metadata must not drift from it
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == scalolab.__version__


def test_calibration_script_smoke(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "calibration_experiment.py"),
                        "--n", "4096", "--reps", "4", "--out", str(tmp_path)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    labels = [line.split(" ", 1)[0] for line in r.stdout.splitlines()]
    assert labels == ["null", "alt"]


def test_cli_import_loads_no_scipy():
    code = "import sys, scalolab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


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
    # skewness and normality_p come from numpy; a polynomial G needs no quadrature
    base = {"mode": "mc-experiment", "model": {"d": 0.35, "K": 0}, "g": "hermite:1",
            "bank": {"family": "db2", "jmax": 7}, "n": 4096, "j": 3, "p": 2,
            "replicates": 3, "seed": 6}
    configs = [
        {**base, "d0_star": 0.35, "alpha": 0.1},
        {**base, "model": {"d": 0.42, "K": 0}, "g": "hermite:2", "d0_star": 0.34, "alpha": 0.1},
        {**base, "model": {"d": 0.41, "K": 0}, "g": {"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": 1}},
         "bank": {"family": "db2", "jmax": 8}, "n": 2**13, "j": 2, "p": 1, "preset": "small-scale"},
    ]
    paths = [_write(tmp_path, f"c{i}.json", {**c, "out": str(tmp_path / f"o{i}")})
             for i, c in enumerate(configs)]
    code = ("import sys, scalolab.cli\n"
            "for p in sys.argv[1:]:\n"
            "    rc = scalolab.cli.main(['mc-experiment', '--config', p])\n"
            "    print('scipy:', rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert [ln for ln in r.stdout.splitlines() if ln.startswith("scipy:")] == ["scipy: 0 []"] * 3
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
