"""Spans around the calls into scalolab's public functions, recorded from
the benchmark's side without touching the library.

`Tracer.install` replaces every public function defined in a scalolab
module by a wrapper, in every scalolab module namespace that holds it, so
the wrapper sits where the calling module looks the function up
(`harness.scalogram` and `inference.scalogram` alike).  `uninstall` puts
the originals back.  Spans are kept in memory as
(id, name, start, end, parent, run) and written out at the end; `summarise`
turns them into per-layer metrics.
"""

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Functions whose useful share of calls is measured as distinct argument
# keys per call, and the one whose cache is observed through the identity
# of what it returns.
KEYED = ("wavelet.scalogram", "inference.rosenblatt_quantile")
HIT_TRACKED = ("inference.limit_constants",)

MODULES = ("config", "hermite", "spectral", "synthesis", "wavelet",
           "inference", "exponents", "harness", "cli")


def _fingerprint(arr: np.ndarray) -> tuple:
    # 64 evenly spaced samples identify a random series; hashing the whole
    # array would cost more than the scalogram it keys.
    a = np.ascontiguousarray(arr)
    step = max(1, a.size // 64)
    return (a.shape, str(a.dtype), a.reshape(-1)[::step].tobytes())


def _key_value(v):
    if isinstance(v, np.ndarray):
        return ("array",) + _fingerprint(v)
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (tuple, list)):
        return tuple(_key_value(x) for x in v)
    return (type(v).__name__, id(v))


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, run]
        self.keys = defaultdict(list)
        self.hits = defaultdict(list)
        self.run = ""
        self._stack = []
        self._patched = []
        self._returned = {}

    def install(self) -> None:
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("scalolab") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("scalolab.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(mod, attr, wrappers[obj])
                self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name):
        signature = inspect.signature(fn)
        keyed = name in KEYED
        hit_tracked = name in HIT_TRACKED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.keys[name].append(tuple(
                    (k, _key_value(v)) for k, v in bound.arguments.items()))
            span = [len(self.spans), name, perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.run]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if hit_tracked:
                seen = self._returned.setdefault(name, {})
                self.hits[name].append(id(result) in seen)
                seen[id(result)] = result  # keep it alive so its id stays unique
            return result

        return wrapper

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "hits": self.hits,
                       "keys": {k: [repr(x) for x in v] for k, v in self.keys.items()},
                       **extra}, fh)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


# The entry points: their own time is glue the trace does not attribute.
DRIVERS = ("harness", "cli")


def covered_s(trace) -> float:
    """Seconds spent inside calls into the work layers: the outermost spans
    of every layer but the entry points in DRIVERS."""
    inside = {}  # span id -> whether it lies in a work-layer span
    total = 0.0
    for sid, name, start, end, parent, _run in trace["spans"]:
        work = _layer(name) not in DRIVERS
        inside[sid] = work or (parent is not None and inside[parent])
        if work and (parent is None or not inside[parent]):
            total += end - start
    return total


def summarise(traces, sweep_runs, reps) -> dict:
    """Per-layer metrics from one or more dumped traces.

    A span's self time is its duration less the calls it makes into other
    layers (nested calls within its own layer stay in it), so
    `wavelet.scalogram.self_s` includes `wavelet_coeffs`.  A module's self
    time sums the spans entered from another layer, which counts each
    moment once.  Per-replicate figures (`self_s`, `calls_per_rep`) use
    only spans whose run id is in `sweep_runs`, divided by `reps`; totals
    (`.s`, `first_s`) and ratios use every span.  A function the workload
    never calls reads 0.
    """
    fn_self = defaultdict(float)
    mod_self = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    first = {}
    for tr in traces:
        spans = tr["spans"]
        by_id = {s[0]: s for s in spans}
        out = defaultdict(float)
        for s in spans:
            p = s[4]
            if p is None or _layer(by_id[p][1]) == _layer(s[1]):
                continue
            layer = _layer(by_id[p][1])
            while p is not None and _layer(by_id[p][1]) == layer:
                out[p] += s[3] - s[2]
                p = by_id[p][4]
        for sid, name, start, end, parent, run in spans:
            dur = end - start
            if run in sweep_runs:
                own = dur - out[sid]
                fn_self[name] += own
                calls[name] += 1
                if parent is None or _layer(by_id[parent][1]) != _layer(name):
                    mod_self[_layer(name)] += own
            p = parent
            while p is not None and by_id[p][1] != name:
                p = by_id[p][4]
            if p is None:  # outermost span of this name
                total[name] += dur
            first.setdefault(name, dur)
    keys = defaultdict(list)
    hits = defaultdict(list)
    for tr in traces:
        for k, v in tr["keys"].items():
            keys[k].extend(v)
        for k, v in tr["hits"].items():
            hits[k].extend(v)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{mod}.self_s": mod_self[mod] / reps for mod in MODULES if mod != "harness"}
    m["harness.other_s"] = mod_self["harness"] / reps
    for fn in ("wavelet.scalogram", "synthesis.sample_gaussian", "synthesis.apply_G",
               "inference.run_test", "inference.estimate_d0", "config.parse_config"):
        m[f"{fn}.self_s"] = fn_self[fn] / reps
        m[f"{fn}.calls_per_rep"] = calls[fn] / reps
    for fn in ("wavelet.build_bank", "spectral.autocov_X", "synthesis.export_path", "config.ingest",
               "inference.limit_constants", "inference.rosenblatt_quantile",
               "exponents.critical_exponent_report"):
        m[f"{fn}.s"] = total[fn]
    m["synthesis.sample_gaussian.first_s"] = first.get("synthesis.sample_gaussian", 0.0)
    for fn in KEYED:
        m[f"{fn}.useful_ratio"] = ratio(len(set(keys[fn])), len(keys[fn]))
    for fn in HIT_TRACKED:
        m[f"{fn}.hit_ratio"] = ratio(sum(hits[fn]), len(hits[fn]))
    return m
