#!/usr/bin/env python3
"""Replicates per second and minor page faults per replicate of repeated
Monte Carlo passes in one process.

    PYTHONPATH=src python scripts/fault_probe.py CONFIG.json [--passes 4] [--reps 64]

CONFIG.json holds an mc-experiment config; each of the passes runs it
through `harness.run` on one worker with the given replicates, pass i
seeded with the config's seed plus i.  The first pass pays the set-up (bank,
embedding, limit law); the later ones show the steady state, in which the
allocator either reuses the blocks a replicate freed (no faults) or maps
and touches fresh pages for each large array, which glibc does while its
mmap threshold stays below the array size.  Each line ends with the
process's peak resident set so far (`ru_maxrss`), so a change in what a
replicate holds shows without the benchmark.
"""

import argparse
import json
import resource
import tempfile
from time import perf_counter

from scalolab.config import parse_config
from scalolab.harness import run


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("config", help="an mc-experiment config (JSON)")
    ap.add_argument("--passes", type=int, default=4)
    ap.add_argument("--reps", type=int, default=64, help="replicates per pass")
    args = ap.parse_args()
    with open(args.config) as fh:
        raw = json.load(fh)
    with tempfile.TemporaryDirectory() as out:
        for i in range(args.passes):
            cfg = parse_config({**raw, "mode": "mc-experiment", "replicates": args.reps,
                                "seed": (raw.get("seed") or 0) + i, "workers": 1, "out": out})
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = perf_counter()
            run(cfg)
            wall = perf_counter() - t0
            usage = resource.getrusage(resource.RUSAGE_SELF)
            print(f"pass {i}: {args.reps / wall:.1f} reps/s, {(usage.ru_minflt - faults) / args.reps:.0f} minor "
                  f"faults per replicate, peak RSS {usage.ru_maxrss / 1024:.1f} MB")


if __name__ == "__main__":
    main()
