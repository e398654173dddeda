"""Every CLI mode's artifacts, pinned by digest.

Each mode runs through `cli.main` at n = 4096; analyze, and a second
estimate and rank-1 test, read simulate's CSV.  A JSON artifact is digested
with every value that names a file under the run's directory removed (the
config's `out` and `input_csv`, an ingested CSV's `path`); a CSV is digested
byte for byte.  A digest changes only with a version bump, when the change
says what moved and why.  No rank-2 test is pinned: its report's digest
differs between one and two OpenBLAS threads.
"""

import hashlib
import json

import scalolab
from scalolab import cli

SIMULATED = {"model": {"d": 0.3, "K": 1}, "g": "hermite:1", "n": 4096, "seed": 7}
ESTIMATED = {"model": {"d": 0.3}, "g": "hermite:1", "bank": {"family": "db2", "jmax": 8},
             "n": 4096, "j": 3, "p": 2, "seed": 11}
TESTED = {**ESTIMATED, "d0_star": 0.3, "alpha": 0.1}

PINNED = {
    "simulate": {"path.csv": "76fc5058baed222c", "path.csv.json": "65e1e8f9f710777e"},
    "analyze": {"analyze_report.json": "d7ab5f2065ebf07d", "scalogram.csv": "627a25e06057fb79"},
    "estimate": {"estimate_report.json": "1bd203738f75be8c"},
    "estimate-csv": {"estimate_report.json": "f79056e989117bdb"},
    "test": {"test_report.json": "9e58d188706fbc45"},
    "test-csv": {"test_report.json": "4464258dd7bccf36"},
    "mc-experiment": {"mc_report.json": "5e249e69c36f79f2", "mc_results.csv": "5d2b00e59f3a52e2"},
    "nu-c": {"nu_c_report.json": "f44b7b9ee7cd4e2f"},
}


def _scrubbed(obj, root: str):
    """obj without the entries whose value is a path under root."""
    if isinstance(obj, dict):
        return {k: _scrubbed(v, root) for k, v in obj.items()
                if not (isinstance(v, str) and v.startswith(root))}
    if isinstance(obj, list):
        return [_scrubbed(v, root) for v in obj]
    return obj


def _run(tmp_path, mode: str, cfg: dict, name: str = "") -> dict:
    """{file name: 16-hex digest} of the files a `mode` run of cfg writes
    into the directory `name` (by default the mode's)."""
    out = tmp_path / (name or mode)
    cfgp = tmp_path / f"{name or mode}.json"
    cfgp.write_text(json.dumps({"mode": mode, "out": str(out), **cfg}))
    assert cli.main([mode, "--config", str(cfgp)]) == 0
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.dumps(_scrubbed(json.loads(data), str(tmp_path)), sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()[:16]
    return digests


def test_cli_artifacts_are_pinned(tmp_path):
    assert scalolab.__version__ == "0.10.0"
    runs = {"simulate": _run(tmp_path, "simulate", SIMULATED)}
    on_csv = {"model": {"d": 0.3, "K": 1}, "input_csv": str(tmp_path / "simulate" / "path.csv"),
              "bank": {"family": "db2", "jmax": 8}, "j": 3, "p": 2}
    runs["analyze"] = _run(tmp_path, "analyze", on_csv)
    runs["estimate-csv"] = _run(tmp_path, "estimate", {**on_csv, "g": "hermite:1"}, "estimate-csv")
    runs["test-csv"] = _run(tmp_path, "test", {**on_csv, "g": "hermite:1", "d0_star": 1.3, "alpha": 0.1},
                            "test-csv")
    runs["estimate"] = _run(tmp_path, "estimate", ESTIMATED)
    runs["test"] = _run(tmp_path, "test", TESTED)
    runs["mc-experiment"] = _run(tmp_path, "mc-experiment", {**TESTED, "replicates": 4, "workers": 1})
    runs["nu-c"] = _run(tmp_path, "nu-c", {
        "model": {"d": 0.3}, "g": {"kind": "hermite-coeffs", "coeffs": {"1": 1, "3": 1, "4": 1, "5": 1}},
        "d_values": [0.1, 0.3, 0.45]})
    assert runs == PINNED
