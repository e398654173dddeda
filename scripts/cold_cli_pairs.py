#!/usr/bin/env python3
"""Wall and CPU time of cold CLI runs from two checkouts, in alternating pairs.

    python scripts/cold_cli_pairs.py PARENT CHANGE [--rounds N] [--size tiny] [--seed S]

PARENT and CHANGE are checkouts that each hold `src/scalolab`.  Each round
writes the five configs of perfbench's cli-cold workload (`cli_configs` in
perfbench/run.py, read and never changed) and, mode by mode, runs
`python -m scalolab.cli` once from each checkout: round k runs PARENT first
when k is even and CHANGE first when k is odd.  A run's CPU time is the
user plus system time its process used (`RUSAGE_CHILDREN` before and after),
which moves much less than its wall time when the machine's speed drifts.
Every run must exit 0.

For each mode, and for the sum over the modes of a round ("all"), prints
each side's median and minimum wall and CPU time in ms, and the median over
rounds of the paired ratio CHANGE / PARENT.
"""

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

from run import CLI_MODES, cli_configs  # noqa: E402  (pins BLAS to one thread, as the benchmark does)

SIDES = ("parent", "change")


def cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_run(checkout, mode, config):
    """One `scalolab <mode>` in a fresh interpreter; (wall s, CPU s)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    cpu0, t0 = cpu_s(), perf_counter()
    proc = subprocess.run([sys.executable, "-m", "scalolab.cli", mode, "--config", config], cwd=checkout,
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall, cpu = perf_counter() - t0, cpu_s() - cpu0
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {mode} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, cpu


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    checkouts = dict(zip(SIDES, map(os.path.abspath, (args.parent, args.change))))
    for side, path in checkouts.items():
        if not os.path.isdir(os.path.join(path, "src", "scalolab")):
            ap.error(f"{side} {path} holds no src/scalolab")

    # times[side][mode] = [(wall, cpu) per round]
    times = {side: {mode: [] for mode in CLI_MODES} for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        for rnd in range(args.rounds):
            order = SIDES if rnd % 2 == 0 else SIDES[::-1]
            configs = {}
            for side in order:
                out = os.path.join(tmp, side, str(rnd))
                os.makedirs(out)
                configs[side] = cli_configs(args, out, rnd)
            for mode in CLI_MODES:
                for side in order:
                    times[side][mode].append(cold_run(checkouts[side], mode, configs[side][mode]))
    for side in SIDES:
        times[side]["all"] = [tuple(map(sum, zip(*runs))) for runs in zip(*times[side].values())]

    print(f"{args.rounds} round(s), size {args.size}; times in ms; ratio = change / parent, median over rounds")
    print(f"{'mode':9} {'side':7} {'wall med':>9} {'wall min':>9} {'cpu med':>8} {'cpu min':>8}")
    for mode in (*CLI_MODES, "all"):
        for side in SIDES:
            wall, cpu = zip(*times[side][mode])
            print(f"{mode:9} {side:7} {1e3 * statistics.median(wall):9.1f} {1e3 * min(wall):9.1f} "
                  f"{1e3 * statistics.median(cpu):8.1f} {1e3 * min(cpu):8.1f}")
        pairs = list(zip(times["parent"][mode], times["change"][mode]))
        wall_ratio = statistics.median(c[0] / p[0] for p, c in pairs)
        cpu_ratio = statistics.median(c[1] / p[1] for p, c in pairs)
        better = sum(c[1] < p[1] for p, c in pairs)
        print(f"{mode:9} {'ratio':7} {wall_ratio:9.3f} {'':9} {cpu_ratio:8.3f}   change lower CPU in "
              f"{better} of {len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
