"""Experiment configuration: JSON schema, transform menu, and ingestion.

A configuration is a flat JSON object; see README for the field table.
Validation errors carry the offending field path.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ConfigError, FilterValidationError
from .exponents import MemoryParams, check_off_boundary
from .hermite import (DEFAULT_QMAX, HermiteExpansion, expansion_from_coeffs, hermite_eval, hermite_series,
                      truncated)
from .spectral import ShortRangeSpec, SpectralModel
from .wavelet import _filter_length, _parse_family

_BUILTIN_KINDS = ("hermite", "polynomial", "exp-centered", "sign", "abs-centered", "hermite-coeffs")


def _normal_moment(n: int) -> float:
    """E[X^n] for X standard normal: 0 for odd n, (n-1)!! for even n."""
    if n % 2:
        return 0.0
    out = 1.0
    for k in range(n - 1, 0, -2):
        out *= k
    return out


def _hermite_at_zero(n: int) -> float:
    """H_n(0) = (-1)^(n/2) (n-1)!! for even n, 0 for odd n."""
    return (-1) ** (n // 2) * _normal_moment(n)


@dataclass(frozen=True)
class GSpec:
    """Declarative transform: a named builtin, a polynomial in x with
    rational coefficients, or an explicit Hermite coefficient map.  Calling
    it applies the centred transform; being plain data, it pickles."""

    kind: str
    q: Optional[int] = None
    poly_coeffs: tuple = ()
    hermite_coeffs: tuple = ()  # ((q, c), ...)

    def __call__(self, x):
        """The transform, vectorised and exactly centred."""
        if self.kind == "hermite":
            return hermite_eval(self.q, x)
        if self.kind == "polynomial":
            coeffs = np.array(self.poly_coeffs, dtype=float)
            mean = sum(c * _normal_moment(n) for n, c in enumerate(coeffs))
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs) - mean
        if self.kind == "exp-centered":
            return np.exp(np.asarray(x, dtype=float) / 2.0) - math.exp(0.125)
        if self.kind == "sign":
            return np.sign(x)
        if self.kind == "abs-centered":
            return np.abs(x) - math.sqrt(2.0 / math.pi)
        if self.kind == "hermite-coeffs":
            return hermite_series(dict(self.hermite_coeffs), x)
        raise ConfigError("g.kind", f"unknown transform kind {self.kind!r}")

    def expansion(self) -> HermiteExpansion:
        """The exact Hermite expansion (Nourdin & Peccati 2012, ch. 1).

        An infinite series keeps its ranks q <= DEFAULT_QMAX above the
        `truncated` floor, and second_moment is the exact E[G(X)^2].  A
        transform that keeps no rank, zero once centred, raises ConfigError.
        """
        if self.kind == "hermite":
            return expansion_from_coeffs({self.q: float(math.factorial(self.q))})
        if self.kind == "hermite-coeffs":
            return expansion_from_coeffs(dict(self.hermite_coeffs))
        ranks, two_phi0 = range(1, DEFAULT_QMAX + 1), math.sqrt(2.0 / math.pi)
        if self.kind == "exp-centered":  # E[e^{X/2} H_q(X)] = e^{1/8} 2^{-q}
            coeffs, m2 = {q: math.exp(0.125) * 2.0**-q for q in ranks}, math.exp(0.5) - math.exp(0.25)
        elif self.kind == "sign":
            # odd q: 2 int_0^inf H_q phi = 2 phi(0) H_{q-1}(0), since (H_{q-1} phi)' = -H_q phi
            coeffs, m2 = {q: two_phi0 * _hermite_at_zero(q - 1) for q in ranks[::2]}, 1.0
        elif self.kind == "abs-centered":
            # even q: 2 int_0^inf x H_q phi = 2 phi(0) (H_q(0) + q H_{q-2}(0)) = 2 phi(0) H_{q-2}(0)
            coeffs, m2 = {q: two_phi0 * _hermite_at_zero(q - 2) for q in ranks[1::2]}, 1.0 - 2.0 / math.pi
        else:  # polynomial: x^n = sum_k n!/(2^k k! (n-2k)!) H_{n-2k}, exactly
            exact = {}
            for n, a in enumerate(self.poly_coeffs):
                for k in range((n + 1) // 2):  # H_0 carries the mean, which G subtracts
                    term = Fraction(a) * math.factorial(n) / (2**k * math.factorial(k))
                    exact[n - 2 * k] = exact.get(n - 2 * k, 0) + term
            try:
                coeffs = {q: float(c) for q, c in exact.items() if q <= DEFAULT_QMAX}
                m2 = float(sum(c * c / math.factorial(q) for q, c in exact.items()))
            except OverflowError:
                raise ConfigError("g.coeffs", "E[G(X)^2] overflows a float") from None
        expansion = truncated(coeffs, m2)
        if not expansion.coeffs:
            raise ConfigError("g.coeffs", "the centred transform is zero: no Hermite rank above the floor")
        return expansion


def _is_int(v) -> bool:
    """A JSON integer; true and false are not numbers."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A JSON number; true and false are not numbers."""
    return _is_int(v) or isinstance(v, float)


def parse_g_spec(obj, path: str = "g") -> GSpec:
    """Accept 'hermite:3'-style shorthand or a {'kind': ...} mapping."""
    if isinstance(obj, str):
        if obj.startswith("hermite:"):
            q = obj.split(":", 1)[1]
            if not (q.isdecimal() and int(q) >= 1):
                raise ConfigError(path, f"rank in {obj!r} must be a positive integer")
            return GSpec("hermite", q=int(q))
        if obj in ("exp-centered", "sign", "abs-centered"):
            return GSpec(obj)
        raise ConfigError(path, f"unknown transform shorthand {obj!r}")
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be a string shorthand or an object")
    kind = obj.get("kind")
    if kind not in _BUILTIN_KINDS:
        raise ConfigError(f"{path}.kind", f"must be one of {_BUILTIN_KINDS}")
    if kind == "hermite":
        q = obj.get("q")
        if not _is_int(q) or q < 1:
            raise ConfigError(f"{path}.q", "hermite transform needs a positive integer rank")
        return GSpec("hermite", q=q)
    if kind == "polynomial":
        raw = obj.get("coeffs")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError(f"{path}.coeffs", "polynomial needs a coefficient list (a0, a1, ...)")
        try:
            coeffs = tuple(float(Fraction(str(c))) for c in raw)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{path}.coeffs", f"unparsable coefficient: {exc}") from None
        return GSpec("polynomial", poly_coeffs=coeffs)
    if kind == "hermite-coeffs":
        raw = obj.get("coeffs")
        if not isinstance(raw, dict) or not raw:
            raise ConfigError(f"{path}.coeffs", "hermite-coeffs needs a {rank: value} map")
        try:
            items = tuple(sorted((int(k), float(Fraction(str(v)))) for k, v in raw.items()))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{path}.coeffs", f"unparsable entry: {exc}") from None
        if any(q < 1 for q, _ in items):
            raise ConfigError(f"{path}.coeffs", "ranks must be >= 1")
        if not any(c for _, c in items):
            raise ConfigError(f"{path}.coeffs", "needs a nonzero coefficient")
        return GSpec("hermite-coeffs", hermite_coeffs=items)
    return GSpec(kind)


def parse_model(obj, path: str = "model") -> SpectralModel:
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    try:
        d = float(obj["d"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{path}.d", "memory parameter d (real in (0, 1/2)) is required") from None
    K = obj.get("K", 0)
    if not _is_int(K) or K < 0:
        raise ConfigError(f"{path}.K", "integration order must be a nonnegative integer")
    sr_obj = obj.get("short_range", {"kind": "constant", "value": 1.0 / (2.0 * math.pi)})
    if not isinstance(sr_obj, dict):
        raise ConfigError(f"{path}.short_range", "must be an object")
    kind, coeffs = sr_obj.get("kind", "constant"), sr_obj.get("coeffs", [1.0])
    if kind not in ("constant", "ma"):
        raise ConfigError(f"{path}.short_range.kind", f"unknown kind {kind!r}")
    if kind == "ma" and (not isinstance(coeffs, list) or any(isinstance(c, bool) for c in coeffs)):
        raise ConfigError(f"{path}.short_range.coeffs", "must be a list of numbers")
    for key in ("value", "scale"):
        if isinstance(sr_obj.get(key), bool):
            raise ConfigError(f"{path}.short_range.{key}", "must be a number")
    try:
        if kind == "constant":
            sr = ShortRangeSpec("constant", float(sr_obj.get("value", 1.0 / (2.0 * math.pi))))
        else:
            sr = ShortRangeSpec("ma", float(sr_obj.get("scale", 1.0 / (2.0 * math.pi))),
                                tuple(float(c) for c in coeffs))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.short_range", str(exc)) from None
    try:
        params = MemoryParams(d, K)
    except ValueError as exc:
        raise ConfigError(f"{path}.d", str(exc)) from None
    beta = obj.get("beta", 2.0)
    if not isinstance(beta, bool):
        try:
            return SpectralModel(params, sr, float(beta))
        except (TypeError, ValueError):  # not a number, or outside (0, 2]
            pass
    raise ConfigError(f"{path}.beta", "must be a number in (0, 2]")


_MODES = ("simulate", "analyze", "estimate", "test", "mc-experiment", "nu-c")
# integer fields and their least values, checked at the top level and in schedule rows
_INT_FIELDS = (("n", 64), ("j", 1), ("p", 1), ("replicates", 1), ("k_bar", 0), ("workers", 1))
# 0.1.x quantile controls: ignored, they would misstate how a report was made
_RETIRED = ("quantile_reps", "quantile_n_internal")
_ENFORCED = ("reduction_max", "bias_max")  # the bounds enforce_preconditions may set


@dataclass
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema)."""

    mode: str
    model: Optional[SpectralModel] = None
    g: Optional[GSpec] = None
    bank_family: str = "db2"
    bank_jmax: int = 10
    n: Optional[int] = None
    j0: Optional[int] = None
    p: Optional[int] = None
    replicates: int = 1
    seed: int = 0
    out_dir: str = "."
    alpha: Optional[float] = None
    d0_star: Optional[float] = None
    k_bar: int = 0
    input_csv: Optional[str] = None
    schedule: list = field(default_factory=list)
    preset: Optional[str] = None
    d_values: list = field(default_factory=list)
    enforce_preconditions: Optional[dict] = None
    workers: int = 1
    raw: dict = field(default_factory=dict)


def _require(cfg: dict, key: str, mode: str):
    if cfg.get(key) is None:
        raise ConfigError(key, f"required for mode {mode!r}")


def parse_config(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    mode = obj.get("mode")
    if mode not in _MODES:
        raise ConfigError("mode", f"must be one of {_MODES}")

    model = parse_model(obj["model"]) if obj.get("model") is not None else None
    g = parse_g_spec(obj["g"]) if obj.get("g") is not None else None

    bank_obj = obj.get("bank", {})
    if not isinstance(bank_obj, dict):
        raise ConfigError("bank", "must be an object")
    family = bank_obj.get("family", "db2")
    try:
        M = _parse_family(str(family))  # any non-string is no family name
    except FilterValidationError as exc:
        raise ConfigError("bank.family", str(exc)) from None
    jmax = bank_obj.get("jmax", 10)
    if not _is_int(jmax) or jmax < 1:
        raise ConfigError("bank.jmax", "must be a positive integer")

    cfg = ExperimentConfig(
        mode=mode, model=model, g=g, bank_family=family, bank_jmax=jmax,
        n=obj.get("n"), j0=obj.get("j"), p=obj.get("p"),
        replicates=obj.get("replicates", 1), seed=obj.get("seed", 0),
        out_dir=obj.get("out", "."), alpha=obj.get("alpha"),
        d0_star=obj.get("d0_star"), k_bar=obj.get("k_bar", 0),
        input_csv=obj.get("input_csv"), schedule=obj.get("schedule", []),
        preset=obj.get("preset"), d_values=obj.get("d_values", []),
        enforce_preconditions=obj.get("enforce_preconditions"),
        workers=obj.get("workers", 1), raw=obj,
    )

    if not _is_int(cfg.seed) or cfg.seed < 0 or cfg.seed > 2**64 - 1:
        raise ConfigError("seed", "must be an unsigned 64-bit integer")
    for key in ("out", "input_csv"):
        if obj.get(key) is not None and not (isinstance(obj[key], str) and obj[key]):
            raise ConfigError(key, "must be a nonempty path string")
    enforce = cfg.enforce_preconditions
    if enforce is not None and not isinstance(enforce, dict):
        raise ConfigError("enforce_preconditions", f"must be an object with keys among {_ENFORCED}")
    for key, bound in (enforce or {}).items():
        if key not in _ENFORCED:
            raise ConfigError(f"enforce_preconditions.{key}", f"unknown bound; expected one of {_ENFORCED}")
        if bound is not None and not (_is_number(bound) and not math.isnan(bound)):
            raise ConfigError(f"enforce_preconditions.{key}", "must be a number or null")
    if not (isinstance(cfg.schedule, list) and all(isinstance(e, dict) for e in cfg.schedule)):
        raise ConfigError("schedule", "must be a list of objects")
    entries = [("", obj), *((f"schedule[{i}].", e) for i, e in enumerate(cfg.schedule))]
    for prefix, entry in entries:
        for key in _RETIRED:
            if key in entry:
                raise ConfigError(prefix + key, "retired: the Rosenblatt quantile is now deterministic")
        for key, lo in _INT_FIELDS:
            if key in entry and not (_is_int(entry[key]) and entry[key] >= lo):
                raise ConfigError(prefix + key, f"must be an integer >= {lo}")
    if cfg.alpha is not None and not (_is_number(cfg.alpha) and 0.0 < cfg.alpha <= 1.0):
        raise ConfigError("alpha", "must be a number in (0, 1]")
    d0s = cfg.d0_star
    # the fractional part splits d0* into (d*, K*); an infinite d0* fails it too
    if d0s is not None and not (_is_number(d0s) and d0s > 0 and 0.0 < d0s % 1.0 < 0.5):
        raise ConfigError("d0_star", "must be positive with fractional part in (0, 1/2)")
    if not isinstance(cfg.d_values, list):
        raise ConfigError("d_values", "must be a list of numbers in (0, 1/2)")
    for i, d in enumerate(cfg.d_values):
        if not (_is_number(d) and 0.0 < d < 0.5):
            raise ConfigError(f"d_values[{i}]", "must be a number in (0, 1/2)")
    if mode == "nu-c":
        if g is None:
            raise ConfigError("g", "required for mode 'nu-c'")
        if not cfg.d_values and model is None:
            raise ConfigError("d_values", "nu-c needs d_values or a model with d")
    else:
        _require(obj, "model", mode)
        try:
            check_off_boundary(model.d)
        except ValueError as exc:
            raise ConfigError("model.d", str(exc)) from None
    if mode in ("simulate", "mc-experiment"):
        _require(obj, "n", mode)
    if mode in ("analyze", "estimate", "test"):
        if cfg.input_csv is None and cfg.n is None:
            raise ConfigError("input_csv", f"mode {mode!r} needs input_csv or n (to simulate)")
    if mode == "test":
        _require(obj, "d0_star", mode)
        _require(obj, "alpha", mode)
        if g is None:
            raise ConfigError("g", "the test requires a known transform")
    if mode == "mc-experiment":
        if g is None:
            raise ConfigError("g", "required for mode 'mc-experiment'")
        if cfg.preset not in (None, "slope", "large-scale", "small-scale"):
            raise ConfigError("preset", "must be one of slope, large-scale, small-scale")
    if mode in ("analyze", "estimate", "test", "mc-experiment"):
        # a simulated series has a known length: the coarsest scale's filter
        # must fit in n/4, which also leaves it at least one coefficient
        _require(obj, "j", mode)
        _require(obj, "p", mode)
        simulated = mode == "mc-experiment" or cfg.input_csv is None
        for prefix, entry in entries:
            j, p, n = entry.get("j", cfg.j0), entry.get("p", cfg.p), entry.get("n", cfg.n)
            if j + p > jmax:
                raise ConfigError("bank.jmax", f"scales {j}..{j + p} need jmax >= {j + p}, got {jmax}")
            taps = _filter_length(2 * M, j + p)
            if simulated and n is not None and taps > n // 4:
                raise ConfigError(prefix + "j", f"scale {j + p} filter ({taps} taps) too long for n={n} (cap n/4)")
    if cfg.input_csv is not None and mode in ("analyze", "estimate", "test"):
        if not os.path.exists(cfg.input_csv):
            raise ConfigError("input_csv", f"file not found: {cfg.input_csv}")
    return cfg


def read_config(path):
    """The JSON value in the file at `path`, for `parse_config` to check."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8, whatever the locale
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<config>", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}") from None
    return obj


def ingest(csv_path) -> tuple[np.ndarray, dict]:
    """Load a single-column numeric CSV; returns (series, provenance).

    A single non-numeric header row is skipped; any other unparsable or
    non-finite row raises with its 1-based row number.  At least 64 rows
    of data are required.
    """
    values = []
    try:
        with open(csv_path, "rb") as fh:
            raw = fh.read()
        lines = raw.decode("utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("input_csv", f"cannot read {csv_path}: {exc}") from None
    start = 0
    if lines:
        try:
            float(lines[0].split(",")[0])
        except ValueError:
            start = 1  # header row
    for i, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 1:
            raise ConfigError("input_csv", f"row {i}: expected a single column, got {len(fields)}")
        try:
            v = float(fields[0])
        except ValueError:
            raise ConfigError("input_csv", f"row {i}: cannot parse {fields[0]!r}") from None
        if not math.isfinite(v):
            raise ConfigError("input_csv", f"row {i}: non-finite value {fields[0]!r}")
        values.append(v)
    if len(values) < 64:
        raise ConfigError("input_csv", f"need at least 64 rows, found {len(values)}")
    provenance = {
        "path": str(csv_path),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "rows": len(values),
        "header_skipped": bool(start),
    }
    return np.asarray(values), provenance
