"""The configuration under attack and under replay.

The fuzz mutates a small valid config of each mode and asserts that the
CLI answers with an exit code, never an escaping exception.  The replay
reruns each mode from the config embedded in its own reports and compares
the artifacts.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from scalolab import cli
from scalolab.config import _NUMBERS, parse_config
from scalolab.errors import UserInputError

_CSV = "series.csv"  # stands for a 512-row series the test writes
_SERIES = {"model": {"d": 0.3}, "g": "hermite:1", "n": 512, "bank": {"family": "db2", "jmax": 8}, "j": 1, "p": 2}
# one small valid config per mode; together they hold every key path of _NUMBERS
_BASES = {
    "simulate": {"model": {"d": 0.3, "K": 0, "ma": [1.0, 0.5]},
                 "g": {"kind": "hermite", "q": 1}, "n": 256, "seed": 1},
    "analyze": {**{k: v for k, v in _SERIES.items() if k not in ("n", "g")},  # read from a CSV, not simulated
                "input_csv": _CSV},
    "estimate": {**_SERIES, "seed": 3},
    "test": {**_SERIES, "model": {"d": 0.35}, "d0_star": 0.35, "alpha": 0.1, "k_bar": 0, "seed": 4,
             "enforce_preconditions": {"reduction_max": 10.0, "bias_max": 10.0}},
    # tests d0* under loose bounds, so the fuzz reaches the plan's calibration and enforcement
    "mc-experiment": {**_SERIES, "replicates": 2, "workers": 1, "seed": 5, "d0_star": 0.3, "alpha": 0.1,
                      "enforce_preconditions": {"reduction_max": 10.0, "bias_max": 10.0},
                      "schedule": [{"n": 512, "j": 1, "p": 2, "replicates": 2}]},
    "nu-c": {"g": {"kind": "hermite-coeffs", "coeffs": {"1": 1, "3": 1}}, "d_values": [0.1, 0.3]},
}
# the most a config that runs may ask for; a larger size is drawn only past its cap
_SIZES = {"n": 4096, "replicates": 4, "bank.jmax": 8}
_SWAPS = [True, False, "x", "0.3", [1], {"a": 1}, None, 0, -1, 1e308]


def _slots(obj, path=(), key=""):
    """(path, _NUMBERS key) of every value inside a JSON value, keyed as
    parse_config keys it: a schedule row's keys read as the top level's."""
    if isinstance(obj, dict):
        items = [(k, k if key in ("", "schedule[]") else f"{key}.{k}") for k in obj]
    elif isinstance(obj, list):
        items = [(i, f"{key}[]") for i in range(len(obj))]
    else:
        items = []
    for k, child in items:
        yield path + (k,), child
        yield from _slots(obj[k], path + (k,), child)


def _edges(key: str) -> list:
    """The numbers just past, at and just inside each finite end of the
    key's rule; at a size's upper end only the one past it."""
    if key == "workers":
        return [1, 2]
    if key not in _NUMBERS:
        return []
    rule, out = _NUMBERS[key], []
    for end, outward in ((rule.lo, -1), (rule.hi, 1)):
        if not math.isfinite(end):
            continue
        if rule.integer:
            near = [end + outward, end, end - outward]
        else:
            near = [math.nextafter(end, outward * math.inf), end, math.nextafter(end, -outward * math.inf)]
        out += near[:1] if outward > 0 and key in _SIZES else near
    return out


@st.composite
def _mutated(draw):
    """A mode and its base config after one to three mutations: a value
    dropped, swapped for another type, nested in a list or an object, or a
    number moved to a range end."""
    mode = draw(st.sampled_from(sorted(_BASES)))
    raw = copy.deepcopy(_BASES[mode])
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["edge", "drop", "swap", "nest"]))
        slots = [s for s in _slots(raw) if how != "edge" or _edges(s[1])]
        if not slots:
            break
        path, key = draw(st.sampled_from(slots))
        parent = raw
        for k in path[:-1]:
            parent = parent[k]
        if how == "drop":
            del parent[path[-1]]
            continue
        if how == "edge":
            value = draw(st.sampled_from(_edges(key)))
        elif how == "nest":
            value = draw(st.sampled_from([[parent[path[-1]]], {"value": parent[path[-1]]}]))
        else:
            value = draw(st.sampled_from(_SWAPS))
        parent[path[-1]] = copy.deepcopy(value)  # shares nothing with _SWAPS or another slot
    return mode, raw


def _parsed(mode: str, raw: dict):
    """The config the CLI runs, or None when parse_config rejects it."""
    try:
        return parse_config({**raw, "mode": mode, "out": "unused"})
    except UserInputError:
        return None


def _small(cfg) -> bool:
    """False for a config that would run with a size past the fuzz's limits."""
    if cfg is None:
        return True
    sizes = [(row.n, row.replicates) for row in cfg.rows] or [(cfg.n, cfg.replicates)]
    return ((cfg.bank is None or cfg.bank.jmax <= _SIZES["bank.jmax"]) and cfg.workers in (1, 2)
            and all((n or 0) <= _SIZES["n"] and replicates <= _SIZES["replicates"] for n, replicates in sizes))


@settings(max_examples=1000, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_mutated())
@example(("simulate", {**_BASES["simulate"], "g": "hermite:171"}))
@example(("analyze", {**_BASES["analyze"], "bank": {"family": "db600", "jmax": 8}}))
def test_cli_answers_every_mutated_config_with_an_exit_code(case):
    mode, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        if raw.get("input_csv") == _CSV:
            raw = {**raw, "input_csv": os.path.join(tmp, _CSV)}
            np.savetxt(raw["input_csv"], np.random.default_rng(0).standard_normal(512))
        cfg = _parsed(mode, raw)
        assume(_small(cfg))
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main([mode, "--config", path, "--out", os.path.join(tmp, "out")]) in (0, 2, 3, 4)
    if cfg is not None and cfg.mode == "mc-experiment":
        # each row parse_config admits fits its bank and its series, and the run's own check agrees
        for row in cfg.rows:
            assert row.scales[-1] <= cfg.bank.jmax and cfg.bank.filter_length(row.scales[-1]) <= row.n // 4
        assert not any(text in err.getvalue() for text in ("outside built range", "for N="))


def _artifacts(out) -> dict:
    """Each artifact of a run by name: a CSV's bytes, a JSON report's value
    less its config.out."""
    arts = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            arts[name] = fh.read()
        if name.endswith(".json"):
            arts[name] = json.loads(arts[name])
            del arts[name]["config"]["out"]
    return arts


def test_each_report_replays_from_its_embedded_config(tmp_path):
    runs = {name: (name, raw) for name, raw in _BASES.items()}
    runs["analyze"] = ("analyze", {**_BASES["analyze"], "input_csv": str(tmp_path / "simulate" / "path.csv")})
    runs["mc-experiment-workers-2"] = ("mc-experiment", {**_BASES["mc-experiment"], "workers": 2})
    for name, (mode, raw) in runs.items():  # simulate first: analyze reads its path
        (tmp_path / f"{name}.json").write_text(json.dumps(raw))
        assert cli.main([mode, "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
        made = _artifacts(tmp_path / name)
        for report in [a for a in made if a.endswith(".json")]:
            embedded = json.loads((tmp_path / name / report).read_text())["config"]
            replay = tmp_path / f"{name}-{report}"
            (tmp_path / f"{replay.name}.json").write_text(json.dumps(embedded))
            assert cli.main([mode, "--config", f"{replay}.json", "--out", str(replay)]) == 0
            assert _artifacts(replay) == made
