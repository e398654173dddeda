#!/usr/bin/env python3
"""scalolab benchmark: Monte Carlo sweep throughput, set-up time and cold
CLI latency over four workloads, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload mc-gauss --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout that holds `src/scalolab`; it uses
that source tree, never an installed copy.  Every measurement runs in a
fresh interpreter started from here with BLAS pinned to one thread;
set-up and replicate times of `mc-gauss` and `cli-cold` are calibrated for
CPU speed (calib.py).  The first line of standard output is a header
(machine, versions, commit); the last line is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the end-to-end metrics with
`--trace 0` and the per-layer metrics with `--trace 1`.  See
perfbench/README.md for what each metric means and which layer should
move it.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

# one BLAS thread here and, through the environment, in every child; set
# before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PY = sys.executable or "python3"

N16, N18 = 2**16, 2**18

# Each Monte Carlo workload is one mc-experiment config; seed, replicates,
# workers and out are set per pass.  "tiny" shrinks sizes for the smoke test
# only: its numbers are not comparable and the statistical checks are off.
GAUSS = {"mode": "mc-experiment", "model": {"d": 0.35, "K": 0}, "g": "hermite:1",
         "bank": {"family": "db2", "jmax": 10}, "n": N16, "j": 5, "p": 3,
         "d0_star": 0.35, "alpha": 0.1}
WORKLOADS = {
    "mc-gauss": {
        "config": GAUSS,
        "tiny": {**GAUSS, "bank": {"family": "db2", "jmax": 7}, "n": 2**12, "j": 2, "p": 2},
        "slices": 3, "min_reps": 100, "law_check": True, "trace_reps": 40, "w2_reps": 64,
        # calibrated for CPU speed, as cli-cold is (README.md)
        "calibrate": True,
    },
    "mc-rosenblatt": {
        "config": {**GAUSS, "model": {"d": 0.42, "K": 0}, "g": "hermite:2", "d0_star": 0.34},
        # the tiny run leaves the test out: a quantile draw alone takes seconds
        "tiny": {**GAUSS, "model": {"d": 0.42, "K": 0}, "g": "hermite:2", "d0_star": None,
                 "alpha": None, "bank": {"family": "db2", "jmax": 7}, "n": 2**12, "j": 2, "p": 2},
        # one replicate takes longer than a run: time one pass of two, so a
        # cost paid per pass and one paid per replicate read differently.
        # The traced run skips the untraced pass before the traced one, which
        # would bring it near three minutes.
        "slices": 1, "min_reps": 2, "chunk": 2, "law_check": False, "trace_reps": 2, "w2_reps": 0,
        "bracket": False,
    },
    "reduction-deep": {
        # the large-scale preset of scripts/reduction_gap.py
        "config": {"mode": "mc-experiment", "model": {"d": 0.41, "K": 0},
                   "g": {"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": 1}},
                   "bank": {"family": "db2", "jmax": 13}, "n": N18, "j": 10, "p": 1,
                   "preset": "large-scale"},
        # no scale is in the large-scale regime at a size that builds fast
        "tiny": {"mode": "mc-experiment", "model": {"d": 0.41, "K": 0},
                 "g": {"kind": "hermite-coeffs", "coeffs": {"2": 2, "3": 1}},
                 "bank": {"family": "db2", "jmax": 8}, "n": 2**13, "j": 2, "p": 1,
                 "preset": "small-scale"},
        "slices": 1, "min_reps": 1, "law_check": False, "trace_reps": 6, "w2_reps": 0,
    },
    "cli-cold": {"cli": True},
}
CLI_MODES = ("simulate", "analyze", "estimate", "test", "nu-c")

# A pass of about this many seconds; the rate is the median over passes.
PASS_S = 1.0
SETUP_SAMPLES = 3  # cli-cold: fresh interpreters timing `import scalolab.cli`

E2E_UNITS = {"setup_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.s": "s",
    **{f"{m}.self_s": "s/rep" for m in ("config", "hermite", "spectral", "synthesis",
                                         "wavelet", "inference", "exponents", "cli")},
    "harness.other_s": "s/rep",
    "harness.parallel_eff": "ratio",
    "config.parse_config.calls_per_rep": "calls/rep",
    "config.ingest.s": "s",
    "spectral.autocov_X.s": "s",
    "synthesis.sample_gaussian.self_s": "s/rep",
    "synthesis.sample_gaussian.first_s": "s",
    "synthesis.apply_G.self_s": "s/rep",
    "synthesis.export_path.s": "s",
    "wavelet.build_bank.s": "s",
    "wavelet.scalogram.self_s": "s/rep",
    "wavelet.scalogram.calls_per_rep": "calls/rep",
    "wavelet.scalogram.useful_ratio": "ratio",
    "inference.estimate_d0.calls_per_rep": "calls/rep",
    "inference.run_test.self_s": "s/rep",
    "inference.limit_constants.s": "s",
    "inference.limit_constants.hit_ratio": "ratio",
    "inference.rosenblatt_quantile.s": "s",
    "inference.rosenblatt_quantile.useful_ratio": "ratio",
    "exponents.critical_exponent_report.s": "s",
    **{f"cli.{m}.s": "s" for m in CLI_MODES},
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def timed_call(argv, cwd=ROOT):
    """Run a fresh interpreter to completion; (wall seconds, exit code, stdout)."""
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env={**os.environ, "PYTHONPATH": SRC},
                          stdout=subprocess.PIPE, text=True)
    return perf_counter() - t0, proc.returncode, proc.stdout


def header(args):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # the config layout differs across numpy releases
        blas = "unknown"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or commit
    return {"benchmark": "scalolab perfbench", "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": metadata.version("scipy"), "blas": blas,
            "blas_threads": 1, "commit": commit}


# --- Monte Carlo workloads -------------------------------------------------


def sweep_child(spec, tag, out):
    spec = {**spec, "out": os.path.join(out, tag)}
    spec_path = os.path.join(out, f"{tag}.spec.json")
    result_path = os.path.join(out, f"{tag}.result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    # a calibrated child asks for a kernel timing on each line it writes;
    # the kernel runs here while the child waits (see calib.py)
    with subprocess.Popen([PY, os.path.join(HERE, "child.py"), "sweep", spec_path, result_path],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": SRC}, text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        for _ in proc.stdout:
            proc.stdin.write(f"{calib.reference_s()!r}\n")
            proc.stdin.flush()
        code = proc.wait()
    if code != 0:
        raise RuntimeError(f"benchmark child {tag} exited with {code}")
    with open(result_path) as fh:
        return json.load(fh)


def pooled(passes):
    """Replicate-weighted mean, sd and rejection rate over several reports."""
    rows = [(p["reps"], p["results"][0]) for p in passes]
    n = sum(r for r, _ in rows)
    mean = sum(r * row["mean_d0"] for r, row in rows) / n
    ss = sum((r - 1) * row["sd"] ** 2 + r * (row["mean_d0"] - mean) ** 2 for r, row in rows)
    rej = sum(r * row["rejection_rate"] for r, row in rows) / n if "rejection_rate" in rows[0][1] else None
    return n, mean, math.sqrt(ss / (n - 1)) if n > 1 else 0.0, rej


def check_pass(rec, cfg):
    """Structural check of one harness pass; returns a list of problems."""
    if "error" in rec:
        return [f"{rec['label']}: harness raised {rec['error']}"]
    problems = []
    rows = rec["results"]
    row = rows[0] if len(rows) == 1 else {}
    if row.get("replicates") != rec["reps"]:
        problems.append(f"{rec['label']}: expected one row of {rec['reps']} replicates")
    if not all(math.isfinite(row.get(k, math.nan)) for k in ("mean_d0", "sd", "rmse")):
        problems.append(f"{rec['label']}: non-finite d0_hat summary")
    if cfg.get("d0_star") is not None:
        rate = row.get("rejection_rate", -1.0)
        if not 0.0 <= rate <= 1.0:
            problems.append(f"{rec['label']}: rejection rate {rate!r} outside [0, 1]")
    if cfg.get("preset") and rec["reps"] > 1:
        gaps = [v for k, v in row.items() if k.startswith("rel_gap_j")]
        if not gaps or not all(math.isfinite(g) and g > 0 for g in gaps):
            problems.append(f"{rec['label']}: relative gaps {gaps!r} not positive numbers")
    return problems


def check_law(passes, cfg, law_scale):
    """Rank-one sweep statistics against the limit law and the test's level."""
    n, mean, sd, rej = pooled(passes)
    se = law_scale / math.sqrt(n)
    alpha = cfg["alpha"]
    slack = 2.0 * math.sqrt(alpha * (1.0 - alpha) / n) + 0.04  # acceptance criterion 10
    note(f"{n} replicates: mean d0_hat {mean:.5f}, sd / (sigma_d0/u_N) {sd / law_scale:.3f}, "
         f"rejection rate {rej:.3f}")
    problems = []
    if abs(mean - cfg["d0_star"]) > 5.0 * se:
        problems.append(f"mean d0_hat {mean:.5f} is more than 5 law SEs ({se:.5f}) from {cfg['d0_star']}")
    # at n = 2^16 the sample sd runs near the law's (0.9 to 1.1 seen); a
    # wrong estimator scale moves it out of this band
    if not 0.75 <= sd / law_scale <= 1.25:
        problems.append(f"sd / (sigma_d0/u_N) = {sd / law_scale:.3f} outside [0.75, 1.25]")
    if abs(rej - alpha) > slack:
        problems.append(f"rejection rate {rej:.3f} outside {alpha} +- {slack:.3f}")
    return problems


def run_mc(name, args, out):
    w = WORKLOADS[name]
    cfg = w["tiny"] if args.size == "tiny" else w["config"]
    full = args.size == "full"
    spec = {"config": cfg, "seed": 1000 * args.seed, "seconds": args.seconds,
            "pass_s": PASS_S if full else 0.1, "min_reps": w["min_reps"] if full else 1,
            "law_check": w["law_check"] and full, "chunk": w.get("chunk"),
            "calibrate": w.get("calibrate", False)}
    if args.trace:
        return traced_mc(w, spec, full, out)

    # the timed window is split over `slices` fresh interpreters, each paying
    # its own set-up: that samples set-up as often and spreads the timed
    # passes over the whole run, which averages out slow drifts in CPU speed
    slices = w["slices"] if full else 1
    children, passes, setup, raw_setup = [], [], [], []
    for k in range(slices):
        ref = calib.reference_s() if spec["calibrate"] else None
        res = sweep_child({**spec, "mode": "timed", "seed": spec["seed"] + 100 * k,
                           "seconds": args.seconds / slices,
                           "min_reps": math.ceil(spec["min_reps"] / slices),
                           "law_check": spec["law_check"] and k == 0}, f"slice{k}", out)
        children.append(res)
        passes += res["passes"]
        # time to the first replicate: subtracting a steady replicate would
        # leave the difference of two noisy 15 s quantile draws on mc-rosenblatt
        raw_setup.append(res["import_s"] + res["pass1_s"])
        setup.append(raw_setup[-1] * (2.0 * calib.REF_NOMINAL_S / (ref + res["setup_ref"])
                                      if "setup_ref" in res else 1.0))
        if "error" in res["passes"][-1]:
            break
    ok = [p for p in passes if "error" not in p]
    timed = [p for p in ok if p["label"] == "sweep"] or [p for p in ok if p["label"] == "sizing"]
    rate = statistics.median(p["reps"] / (p["wall"] * p.get("factor", 1.0)) for p in timed) if timed else math.nan
    raw_rate = statistics.median(p["reps"] / p["wall"] for p in timed) if timed else math.nan
    note(f"rate: median of {len(timed)} passes, {sum(p['reps'] for p in timed)} replicates; "
         f"setup samples {[round(x, 3) for x in setup]}" +
         (f"; uncalibrated: rate {raw_rate:.4g}/s, setup {[round(x, 3) for x in raw_setup]}"
          if spec["calibrate"] else ""))
    problems = [msg for p in passes for msg in check_pass(p, cfg)]
    attempted = sum(p["reps"] for p in passes)
    failed = sum(p["reps"] for p in passes if check_pass(p, cfg))
    if spec["law_check"] and not problems:
        law_problems = check_law(ok, cfg, children[0]["law_scale"])
        if law_problems:  # the check is on the pooled replicates: all of them fail
            problems += law_problems
            failed = attempted
    metrics = {"setup_s": statistics.median(setup), "reps_per_s": rate,
               "peak_rss_mb": children_rss_mb()}
    return problems, attempted, failed, metrics


def traced_mc(w, spec, full, out):
    import tracer

    spans = os.path.join(out, "spans.json")
    res = sweep_child({**spec, "mode": "traced", "trace_reps": w["trace_reps"],
                       "bracket": w.get("bracket", True),
                       "w2_reps": w["w2_reps"] if full else 0, "spans": spans}, "traced", out)
    passes = res["passes"]
    problems = [msg for p in passes for msg in check_pass(p, spec["config"])]
    with open(spans) as fh:
        trace = json.load(fh)
    m = tracer.summarise([trace], {"sweep"}, res["trace_reps"])
    m["trace.coverage_frac"] = tracer.covered_s(trace) / (res["pass1_s"] + res["traced_wall"])
    m["trace.overhead_frac"] = res["traced_wall"] / res["untraced_wall"] - 1.0
    m["harness.parallel_eff"] = (res["w1_wall"] / res["w2_wall"] / 2.0) if "w2_wall" in res else 0.0
    m["import.s"] = res["import_s"]
    for mode in CLI_MODES:
        m[f"cli.{mode}.s"] = 0.0
    attempted = sum(p["reps"] for p in passes)
    failed = sum(p["reps"] for p in passes if check_pass(p, spec["config"]))
    return problems, attempted, failed, m


# --- cold CLI workload -----------------------------------------------------


def cli_configs(args, out, rnd):
    """Config file per mode for one round; analyze reads simulate's CSV."""
    tiny = args.size == "tiny"
    n = 2**12 if tiny else N16
    jmax = 7 if tiny else 10
    seed = 1000 * args.seed + rnd
    rank1 = {"model": {"d": 0.35, "K": 0}, "g": "hermite:1", "bank": {"family": "db2", "jmax": jmax},
             "n": n, "j": 2 if tiny else 5, "p": 2 if tiny else 3}
    cfgs = {
        "simulate": {"model": {"d": 0.3, "K": 1}, "g": "exp-centered", "n": n, "seed": seed},
        "analyze": {"model": {"d": 0.3, "K": 1}, "bank": {"family": "db3", "jmax": jmax},
                    "input_csv": os.path.join(out, "simulate", "path.csv"),
                    "j": 2 if tiny else 4, "p": 2 if tiny else 3},
        "estimate": {**rank1, "seed": seed + 1},
        "test": {**rank1, "seed": seed + 2, "d0_star": 0.35, "alpha": 0.1},
        # H1 + H3 crosses the short/long-memory branches and has infinite nu_c
        "nu-c": {"g": {"kind": "hermite-coeffs", "coeffs": {"1": 1, "3": 1}},
                 "d_values": [0.1, 0.2, 0.3, 0.36, 0.41]},
    }
    paths = {}
    for mode, cfg in cfgs.items():
        paths[mode] = os.path.join(out, f"{mode}.config.json")
        with open(paths[mode], "w") as fh:
            json.dump({"mode": mode, **cfg, "out": os.path.join(out, mode)}, fh)
    return paths


def cli_round(args, out, rnd, spans_dir=None, before=None, clock=None):
    """One cold invocation per mode, each after `before(index)` if given;
    returns {mode: (wall, factor, code, stdout)}, with the calibration
    factor from `clock` if given, else 1."""
    paths = cli_configs(args, out, rnd)
    res = {}
    for i, mode in enumerate(CLI_MODES):
        if before:
            before(i)
        argv = [mode, "--config", paths[mode]]
        if spans_dir is None:
            cmd = [PY, "-m", "scalolab.cli"] + argv
        else:
            cmd = [PY, os.path.join(HERE, "child.py"), "cli",
                   os.path.join(spans_dir, f"{mode}.json"), "--"] + argv
        wall, code, stdout = timed_call(cmd)
        res[mode] = (wall, clock.factor() if clock else 1.0, code, stdout)
    return res


def check_cli(mode, code, stdout, out, golden):
    if code != 0:
        return [f"{mode}: exit code {code}"]
    mode_dir = os.path.join(out, mode) + os.sep
    listed = [line.strip() for line in stdout.splitlines() if line.strip().startswith(mode_dir)]
    expected = {"simulate": {"path.csv"}, "analyze": {"scalogram.csv", "analyze_report.json"},
                "estimate": {"estimate_report.json"}, "test": {"test_report.json"},
                "nu-c": {"nu_c_report.json"}}[mode]
    problems = []
    missing = expected - {os.path.basename(p) for p in listed}
    if missing:
        problems.append(f"{mode}: artifacts {sorted(missing)} not listed on stdout")
    parsed = {}
    for p in listed:
        try:
            with open(p, newline="") as fh:
                if p.endswith(".json"):
                    parsed[os.path.basename(p)] = json.load(fh)
                else:
                    rows = [r.split(",") for r in fh.read().splitlines()]
                    [float(x) for r in rows[1:] for x in r]
                    if len(rows) < 2:
                        raise ValueError("no data rows")
                    parsed[os.path.basename(p)] = rows
        except (OSError, ValueError) as exc:
            problems.append(f"{mode}: artifact {p} does not parse: {exc}")
    if problems or golden is None:
        return problems
    # deterministic outputs must equal the ones recorded from the seed commit
    if mode == "analyze":
        got = [int(r[1]) for r in parsed["scalogram.csv"][1:]]
        if got != golden["analyze_n_j"]:
            problems.append(f"analyze: n_j {got} != {golden['analyze_n_j']}")
    if mode in ("estimate", "test"):
        rep = parsed[f"{mode}_report.json"]
        got = (rep["estimate"] if mode == "estimate" else rep["test"]["estimation"])["n"]
        if got != golden["rank1_n_j"]:
            problems.append(f"{mode}: n_j {got} != {golden['rank1_n_j']}")
    if mode == "nu-c":
        table = [{k: r[k] for k in ("d", "branch", "nu_c", "nu_c_infinite")}
                 for r in parsed["nu_c_report.json"]["reports"]]
        if not same_table(table, golden["nu_c_table"]):
            problems.append(f"nu-c: table {table} != {golden['nu_c_table']}")
    return problems


def same_table(a, b):
    def close(x, y):
        if isinstance(x, float) and isinstance(y, float):
            return x == y or abs(x - y) <= 1e-12 * max(abs(x), abs(y))
        return x == y
    return len(a) == len(b) and all(ra.keys() == rb.keys() and all(close(ra[k], rb[k]) for k in ra)
                                    for ra, rb in zip(a, b))


class CliTally:
    """Wall times, failures and check messages of cold CLI invocations."""

    def __init__(self, out, golden):
        self.out, self.golden = out, golden
        self.walls = {m: [] for m in CLI_MODES}  # calibrated
        self.raw_walls = {m: [] for m in CLI_MODES}
        self.problems = []
        self.attempted = self.failed = 0

    def record(self, res):
        for mode, (wall, factor, code, stdout) in res.items():
            bad = check_cli(mode, code, stdout, self.out, self.golden)
            self.attempted += 1
            self.failed += bool(bad)
            self.problems.extend(bad)
            self.walls[mode].append(wall * factor)
            self.raw_walls[mode].append(wall)


def run_cli(args, out):
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    tally = CliTally(out, golden if args.size == "full" else None)
    if args.trace:
        return traced_cli(args, out, tally)

    setup, raw_setup = [], []
    probe = "import time; t = time.perf_counter(); import scalolab.cli; print(time.perf_counter() - t)"
    clock = calib.Clock()

    def import_probe(i):
        # interleaved with the first round's modes, so set-up and cold runs
        # sample the same stretch of the run
        if i % 2 == 0 and len(setup) < SETUP_SAMPLES:
            _, code, stdout = timed_call([PY, "-c", probe])
            if code != 0:
                tally.problems.append(f"import scalolab.cli exited with {code}")
            else:
                raw_setup.append(float(stdout))
                setup.append(raw_setup[-1] * clock.factor())

    t0, rnd = perf_counter(), 0
    while rnd == 0 or perf_counter() - t0 < args.seconds:
        tally.record(cli_round(args, out, rnd, before=import_probe, clock=clock))
        rnd += 1
    note(f"{rnd} round(s) of {len(CLI_MODES)} modes; calibrated walls " +
         ", ".join(f"{m} {[round(x, 2) for x in v]}" for m, v in tally.walls.items()) +
         f"; setup samples {[round(x, 3) for x in setup]}; uncalibrated: rate "
         f"{len(CLI_MODES) / sum(statistics.median(v) for v in tally.raw_walls.values()):.4g}/s, "
         f"setup {[round(x, 3) for x in raw_setup]}")
    metrics = {"setup_s": statistics.median(setup) if setup else math.nan,
               "reps_per_s": len(CLI_MODES) / sum(statistics.median(v) for v in tally.walls.values()),
               "peak_rss_mb": children_rss_mb()}
    return tally.problems, tally.attempted, tally.failed, metrics


def traced_cli(args, out, tally):
    import tracer

    # the traced round between two untraced rounds of the same configs:
    # their mean is the base of the tracer's overhead and the cold times
    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir)
    rounds = []
    for k in range(3):
        rounds.append(cli_round(args, out, 0, spans_dir if k == 1 else None))
        tally.record(rounds[-1])
    traced = rounds[1]
    untraced = {mode: (rounds[0][mode][0] + rounds[2][mode][0]) / 2.0 for mode in CLI_MODES}
    traces = []
    for mode in CLI_MODES:
        with open(os.path.join(spans_dir, f"{mode}.json")) as fh:
            traces.append(json.load(fh))
    m = tracer.summarise(traces, set(CLI_MODES), len(CLI_MODES))
    traced_wall = sum(res[0] for res in traced.values())
    # the import is a layer of its own here; interpreter start is not covered
    covered = sum(tracer.covered_s(tr) + tr["import_s"] for tr in traces)
    m["trace.coverage_frac"] = covered / traced_wall
    m["trace.overhead_frac"] = traced_wall / sum(untraced.values()) - 1.0
    m["harness.parallel_eff"] = 0.0
    m["import.s"] = statistics.median(tr["import_s"] for tr in traces)
    for mode in CLI_MODES:
        m[f"cli.{mode}.s"] = untraced[mode]
    return tally.problems, tally.attempted, tally.failed, m


def note(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def children_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --- entry point -----------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0, help="timed sweep length per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long smoke run, numbers not comparable")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "scalolab", "__init__.py")):
        print(f"perfbench: no scalolab source tree at {SRC}", file=sys.stderr)
        return 2

    out = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    print(json.dumps({"header": header(args)}), flush=True)
    try:
        if WORKLOADS[args.workload].get("cli"):
            problems, attempted, failed, metrics = run_cli(args, out)
        else:
            problems, attempted, failed, metrics = run_mc(args.workload, args, out)
    finally:
        if not args.trace:  # a traced run keeps its spans
            shutil.rmtree(out, ignore_errors=True)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    units = E2E_UNITS if not args.trace else PER_LAYER_UNITS
    result = {"correct": not problems and failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k] if math.isfinite(metrics[k]) else None, "unit": u}
                          for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
