"""In-process side of the benchmark, started by run.py in a fresh interpreter.

    child.py sweep SPEC.json RESULT.json
        Import scalolab, run a one-replicate Monte Carlo pass (the set-up
        pass), then, per the spec, either time warm passes for a while or
        run the traced passes.  Writes timings and the harness reports.
    child.py cli SPANS.json -- MODE --config PATH [...]
        Import scalolab.cli, wrap the layers, call scalolab.cli.main with
        the remaining arguments, write the spans and exit with main's code.

Both paths reach the library only through its user-facing entry points:
`scalolab.harness.run(parse_config(...))` and `scalolab.cli.main`.
"""

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import(name):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = perf_counter()
    __import__(name)
    elapsed = perf_counter() - t0
    mod = sys.modules["scalolab"]
    if not os.path.abspath(mod.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"scalolab imported from {mod.__file__}, not from this checkout")
    return elapsed


class Sweeper:
    """Runs Monte Carlo passes of one workload config through the harness."""

    def __init__(self, spec):
        from scalolab.config import parse_config
        import scalolab.harness

        self.spec = spec
        self.parse = parse_config
        self.harness = scalolab.harness
        self.passes = []
        self.clock = None  # once set, every pass records its calibration factor

    def config(self, reps, seed, workers=1):
        raw = {**self.spec["config"], "replicates": reps, "seed": seed,
               "workers": workers, "out": self.spec["out"]}
        return self.parse(raw)

    def run(self, cfg, label):
        """One timed harness.run call; the report is read back untimed."""
        t0 = perf_counter()
        try:
            paths = self.harness.run(cfg)
        except Exception as exc:  # counted as failed replicates, never hidden
            wall = perf_counter() - t0
            rec = {"label": label, "reps": cfg.replicates, "wall": wall, "error": repr(exc)}
        else:
            wall = perf_counter() - t0
            report = next(p for p in paths if p.endswith("mc_report.json"))
            with open(report) as fh:
                rec = {"label": label, "reps": cfg.replicates, "wall": wall,
                       "results": json.load(fh)["results"]}
        if self.clock:
            rec["factor"] = self.clock.factor()
        self.passes.append(rec)
        return rec


def law_scale(sw, seed):
    """sigma_d0 / u_N of the rank-one limit law, read from a `test` report
    on the same bank and scales: s_N is that scale times the normal quantile."""
    from scipy.stats import norm

    c = sw.spec["config"]
    cfg = sw.parse({**c, "mode": "test", "seed": seed, "out": sw.spec["out"]})
    paths = sw.harness.run(cfg)
    with open(next(p for p in paths if p.endswith("test_report.json"))) as fh:
        s_N = json.load(fh)["test"]["s_N"]
    return s_N / float(norm.ppf(1.0 - c["alpha"] / 2.0))


def sweep(spec):
    out = {"import_s": _import("scalolab.harness")}
    sw = Sweeper(spec)
    seed = spec["seed"]
    if spec["mode"] == "timed":
        first = sw.run(sw.config(1, seed), "setup")
        out["pass1_s"] = first["wall"]
        if "error" not in first:
            if spec["calibrate"]:
                from calib import Clock

                sw.clock = Clock(parent_ref)
                out["setup_ref"] = sw.clock.last
            # size passes from one warm replicate, unless the workload fixes
            # the pass size, then time passes of about pass_s each until
            # both the time and the replicate floor are met
            t0 = perf_counter()
            chunk, done, i = spec.get("chunk"), 0, 1
            if not chunk:
                sizing = sw.run(sw.config(1, seed + 1), "sizing")
                chunk = max(1, round(spec["pass_s"] / max(sizing["wall"], 1e-6)))
                done, i = 1, 2
            while ((perf_counter() - t0 < spec["seconds"] or done < spec["min_reps"])
                   and "error" not in sw.passes[-1]):
                sw.run(sw.config(chunk, seed + i), "sweep")
                done += chunk
                i += 1
            sw.clock = None
            if spec["law_check"] and "error" not in sw.passes[-1]:
                out["law_scale"] = law_scale(sw, seed)
    else:
        from tracer import Tracer

        reps = spec["trace_reps"]
        # configs are parsed before the wrappers go in: only the harness's
        # own parsing belongs to the trace
        cfgs = [sw.config(1, seed)] + [sw.config(reps, seed + 1) for _ in range(3)]
        bases = []
        tr = Tracer()

        def traced(cfg, run):
            tr.run = run
            tr.install()
            try:
                return sw.run(cfg, run)["wall"]
            finally:
                tr.uninstall()

        out["pass1_s"] = traced(cfgs[0], "setup")
        # the same pass untraced just before (where the spec allows the
        # time) and just after the traced one: the base of the overhead
        if spec["bracket"]:
            bases.append(sw.run(cfgs[1], "untraced")["wall"])
        out["traced_wall"] = traced(cfgs[2], "sweep")
        bases.append(sw.run(cfgs[3], "untraced")["wall"])
        out["untraced_wall"] = sum(bases) / len(bases)
        tr.dump(spec["spans"])
        out["trace_reps"] = reps
        if spec["w2_reps"]:
            out["w1_wall"] = sw.run(sw.config(spec["w2_reps"], seed + 2), "w1")["wall"]
            out["w2_wall"] = sw.run(sw.config(spec["w2_reps"], seed + 2, workers=2), "w2")["wall"]
    out["passes"] = sw.passes
    return out


def parent_ref() -> float:
    """The reference kernel's time, measured by run.py on request."""
    _PROTOCOL.write("ref\n")
    _PROTOCOL.flush()
    return float(sys.stdin.readline())


def cli(spans_path, argv):
    import_s = _import("scalolab.cli")
    from tracer import Tracer
    import scalolab.cli

    tr = Tracer()
    tr.run = argv[0]
    tr.install()
    try:
        code = scalolab.cli.main(argv)
    finally:
        tr.uninstall()
        tr.dump(spans_path, import_s=import_s)
    return code


_PROTOCOL = sys.stdout


def main():
    global _PROTOCOL
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if sys.argv[1] == "sweep":
        # stdout carries only kernel-time requests to run.py; anything the
        # library prints goes to stderr
        _PROTOCOL = os.fdopen(os.dup(1), "w")
        os.dup2(2, 1)
        with open(sys.argv[2]) as fh:
            spec = json.load(fh)
        result = sweep(spec)
        with open(sys.argv[3], "w") as fh:
            json.dump(result, fh)
        return 0
    if sys.argv[1] == "cli":
        return cli(sys.argv[2], sys.argv[4:])
    raise SystemExit(f"unknown child command {sys.argv[1]!r}")


if __name__ == "__main__":
    sys.exit(main())
