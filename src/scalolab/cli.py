"""Command-line entry point: scalolab <mode> --config path [--seed N] [--out dir].

Exit codes: 0 success, 2 input rejected (by the configuration check or
during the run), 3 numeric failure, 4 precondition hard-fail (only when the
config opts into enforcement).
"""

import argparse
import gc
import sys

from .config import _MODES, parse_config, read_config
from .errors import NumericError, PreconditionError, UserInputError
from .harness import run


def main(argv=None) -> int:
    if argv is None:
        # run as the program: the imports' objects live until exit, so move
        # them out of the collector's reach, for this run's collections and
        # the one at exit.  A caller passing argv keeps its heap as it was
        gc.freeze()
    parser = argparse.ArgumentParser(
        prog="scalolab",
        description="Wavelet scalogram toolkit for nonlinear long-memory series",
    )
    parser.add_argument("mode", choices=_MODES)
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        raw = read_config(args.config)
        if isinstance(raw, dict):  # parse_config names any other value <root>
            overrides = {"mode": args.mode, "seed": args.seed, "out": args.out}
            raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
        paths = run(parse_config(raw))
    except UserInputError as exc:
        # a ConfigError, from the check or named by the run, leads with its field
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition hard-fail: {exc}", file=sys.stderr)
        return 4
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
