"""Experiment configuration: JSON schema, transform menu, and ingestion.

A configuration is a flat JSON object; see README for the field table.
Validation errors carry the offending field path.
"""

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, FilterValidationError, LongMemoryError, ScaleTooCoarseError
from .exponents import MemoryParams, check_off_boundary, critical_exponent_report, rank_profile
from .hermite import DEFAULT_QMAX, HermiteExpansion, expansion_from_coeffs, hermite_series, truncated
from .spectral import SpectralModel
from .wavelet import FilterBank, _parse_family, build_bank, n_coeffs

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
    """Declarative transform: a named builtin, a polynomial with `coeffs` (a0, a1, ...), or the Hermite
    series sum_q (c_q/q!) H_q with `coeffs` ((q, c_q), ...), H_q itself being ((q, q!),).  Calling it
    applies the centred transform; being plain data, it pickles."""

    kind: str
    coeffs: tuple = ()

    def __call__(self, x):
        """The transform, vectorised and exactly centred."""
        if self.kind == "polynomial":
            coeffs = np.array(self.coeffs, dtype=float)
            mean = sum(c * _normal_moment(n) for n, c in enumerate(coeffs))
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), coeffs) - mean
        if self.kind == "exp-centered":
            return np.exp(np.asarray(x, dtype=float) / 2.0) - math.exp(0.125)
        if self.kind == "sign":
            return np.sign(x)
        if self.kind == "abs-centered":
            return np.abs(x) - math.sqrt(2.0 / math.pi)
        if self.kind == "hermite-coeffs":
            return hermite_series(dict(self.coeffs), x)
        raise ConfigError("g.kind", f"unknown transform kind {self.kind!r}")

    def expansion(self) -> HermiteExpansion:
        """The exact Hermite expansion (Nourdin & Peccati 2012, ch. 1).

        An infinite series keeps its ranks q <= DEFAULT_QMAX above the
        `truncated` floor, and second_moment is the exact E[G(X)^2].  A
        transform that keeps no rank, zero once centred, raises ConfigError.
        """
        if self.kind == "hermite-coeffs":
            return expansion_from_coeffs(dict(self.coeffs))
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
            for n, a in enumerate(self.coeffs):
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


class _Range(NamedTuple):
    """A JSON number (never true or false), an integer when `integer`, in lo..hi, each
    end included when `ends` shows "[" or "]"; `listed` asks for a nonempty list of them."""

    integer: bool
    lo: float = -math.inf
    hi: float = math.inf
    ends: str = "()"
    listed: bool = False

    def admits(self, v) -> bool:
        return (isinstance(v, int if self.integer else (int, float)) and not isinstance(v, bool)
                and (self.lo < v if self.ends[0] == "(" else self.lo <= v)
                and (v < self.hi if self.ends[1] == ")" else v <= self.hi))

    def check(self, path: str, v) -> None:
        """Raise ConfigError naming `path` unless `v` is admitted."""
        if not (isinstance(v, list) and v and all(map(self.admits, v)) if self.listed else self.admits(v)):
            what = f"{'a nonempty list, each ' * self.listed}{'an integer' if self.integer else 'a number'}"
            raise ConfigError(path, f"must be {what} in {self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}")


_MAX_MOMENTS = 27  # db28 fails build_bank's orthonormality check, and db29-db35 pass it by less than 10x

# Every number a configuration holds, by key path; a schedule row's keys read
# as the top level's, "[]" stands for any list element.  README gives the caps' reasons.
_NUMBERS = {
    "n": _Range(True, 64, 2**22, "[]"),
    "j": _Range(True, 1, ends="[)"),
    "p": _Range(True, 1, ends="[)"),
    "replicates": _Range(True, 1, 10**6, "[]"),
    "workers": _Range(True, 1, 64, "[]"),
    "seed": _Range(True, 0, 2**64 - 1, "[]"),
    "k_bar": _Range(True, 0, ends="[)"),
    "alpha": _Range(False, 1e-15, 1, "[]"),  # 1 - alpha/2 stays a float below 1
    "d0_star": _Range(False, 0),
    "d_values[]": _Range(False, 0, 0.5),
    "bank.jmax": _Range(True, 1, 16, "[]"),
    "model.d": _Range(False, 0, 0.5),
    "model.K": _Range(True, 0, _MAX_MOMENTS - 1, "[]"),
    "model.ma": _Range(False, listed=True),
    "g.q": _Range(True, 1, 170, "[]"),
    "enforce_preconditions.reduction_max": _Range(False),
    "enforce_preconditions.bias_max": _Range(False),
}
# the only keys these objects may hold, "" the top level (0.1.x's quantile_reps and quantile_n_internal are unknown)
_KEYS = {
    "": ("mode", "model", "g", "bank", "n", "j", "p", "replicates", "seed", "workers", "out", "input_csv",
         "d0_star", "alpha", "k_bar", "d_values", "schedule", "preset", "enforce_preconditions"),
    "model": ("d", "K", "ma"),
    "g": ("kind", "q", "coeffs"),
    "bank": ("family", "jmax"),
    "schedule[]": ("n", "j", "p", "replicates"),
    "enforce_preconditions": ("reduction_max", "bias_max"),
}
_SINGLE = ("model", "bank", "j", "p", "g", "input_csv", "n")  # a single run, on a CSV or a simulated series
_TEST = ("d0_star", "alpha", "k_bar", "enforce_preconditions")
# the keys each mode reads beside mode, seed and out, and each kind of g beside kind
_READS = {
    "": {"simulate": ("model", "g", "n"), "analyze": _SINGLE, "estimate": _SINGLE, "test": (*_SINGLE, *_TEST),
         "mc-experiment": ("model", "g", "bank", "n", "j", "p", "replicates", "workers", "schedule", "preset", *_TEST),
         "nu-c": ("g", "d_values")},
    "g": {"hermite": ("q",), "polynomial": ("coeffs",), "exp-centered": (), "sign": (), "abs-centered": (),
          "hermite-coeffs": ("coeffs",)},
}


def _unread(key: str, obj: dict) -> dict:
    """{key: what leaves it unread} for each key of _KEYS[key] that the checked object `obj` does not read."""
    what = "mode" if key == "" else "kind"
    sel = str(obj.get(what))
    if sel not in _READS[key]:
        return {}  # an unknown mode or kind, which parse_config names
    why, reads = f"{what} {sel!r}", _READS[key][sel]
    unread = {k: why for k in _KEYS[key] if k not in (what, "seed", "out", *reads)}  # every mode reads seed and out
    if obj.get("input_csv") and "input_csv" in reads:  # a series read, not simulated
        unread.update(dict.fromkeys(("n", "g") if sel == "analyze" else ("n",), f"{why} beside input_csv"))
    if sel == "mc-experiment" and not ("d0_star" in obj and "alpha" in obj):  # a sweep tests d0* with both or neither
        unread.update(dict.fromkeys(_TEST, f"{why} without both d0_star and alpha"))
    if sel == "mc-experiment" and obj.get("schedule"):  # the preset would label none of its rows
        unread["preset"] = f"{why} beside a schedule, whose rows run as given"
    return unread


def _checked(obj, path: str = "", key: str = ""):
    """The JSON value `obj` at `path` less its null members (absent values), each checked by `key` against
    _NUMBERS, then each object's keys by _KEYS and _unread; a NaN or Infinity (json reads them, and 1e400) fails."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ConfigError(path, "must be a finite number: NaN and Infinity are not JSON, and null leaves a value unset")
    if key in _NUMBERS:
        _NUMBERS[key].check(path, obj)
    if isinstance(obj, dict):
        out = {k: _checked(v, f"{path}.{k}" if path else str(k), k if key in ("", "schedule[]") else f"{key}.{k}")
               for k, v in obj.items() if v is not None}
        unread = _unread(key, out) if key in _READS else {}
        for k, v in out.items():
            if key in _KEYS and k not in _KEYS[key]:
                raise ConfigError(f"{path}.{k}" if path else k, f"unknown key; expected one of {_KEYS[key]}")
            if k in unread and v not in ({}, []):  # an object or list of nulls alone is absent
                raise ConfigError(f"{path}.{k}" if path else k, f"not read by {unread[k]}")
        return out
    if key in _KEYS and key not in ("g", "schedule[]"):  # g may be a shorthand; parse_config checks the rows
        raise ConfigError(path, f"must be an object with keys among {_KEYS[key]}")
    if isinstance(obj, list):
        return [_checked(v, f"{path}[{i}]", f"{key}[]") for i, v in enumerate(obj)]
    return obj


def parse_g_spec(obj, path: str = "g") -> GSpec:
    """The transform of a 'hermite:3'-style shorthand or a {'kind': ...} mapping whose keys and numbers
    `parse_config` has checked; rank q is the one-term series {q: q!}."""
    if isinstance(obj, str):
        if obj in ("exp-centered", "sign", "abs-centered"):
            return GSpec(obj)
        if not obj.startswith("hermite:"):
            raise ConfigError(path, f"unknown transform shorthand {obj!r}")
        try:
            q = int(obj[len("hermite:"):])
        except ValueError:
            raise ConfigError(path, f"rank in {obj!r} must be a positive integer") from None
        _NUMBERS["g.q"].check(path, q)
        obj = {"kind": "hermite", "q": q}
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be a string shorthand or an object")
    kind = obj.get("kind")
    if str(kind) not in _READS["g"]:  # str: a kind may be any JSON value
        raise ConfigError(f"{path}.kind", f"must be one of {tuple(_READS['g'])}")
    if kind == "hermite":
        _NUMBERS["g.q"].check(f"{path}.q", obj.get("q"))  # parse_config has checked a q that is given
        return GSpec("hermite-coeffs", ((obj["q"], float(math.factorial(obj["q"]))),))
    if kind == "polynomial":
        raw = obj.get("coeffs")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError(f"{path}.coeffs", "polynomial needs a coefficient list (a0, a1, ...)")
        try:
            coeffs = tuple(float(Fraction(str(c))) for c in raw)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{path}.coeffs", f"unparsable coefficient: {exc}") from None
        return GSpec("polynomial", coeffs)
    if kind == "hermite-coeffs":
        raw = obj.get("coeffs")
        if not isinstance(raw, dict) or not raw:
            raise ConfigError(f"{path}.coeffs", "hermite-coeffs needs a {rank: value} map")
        try:
            items = tuple(sorted((int(k), float(Fraction(str(v)))) for k, v in raw.items()))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"{path}.coeffs", f"unparsable entry: {exc}") from None
        for q, _ in items:
            _NUMBERS["g.q"].check(f"{path}.coeffs", q)
        if not any(c for _, c in items):
            raise ConfigError(f"{path}.coeffs", "needs a nonzero coefficient")
        return GSpec("hermite-coeffs", items)
    return GSpec(kind)


def parse_model(obj, path: str = "model") -> SpectralModel:
    """The spectral model of a mapping whose shape, keys and numbers `parse_config` has checked."""
    _NUMBERS["model.d"].check(f"{path}.d", obj.get("d"))  # parse_config has checked a d that is given
    params = MemoryParams(float(obj["d"]), obj.get("K", 0))
    try:  # a flat f* is the one-tap moving average
        return SpectralModel(params, tuple(map(float, obj.get("ma", [1.0]))))
    except ValueError as exc:  # an MA transfer that vanishes at 0
        raise ConfigError(f"{path}.ma", str(exc)) from None


# the fields each mode cannot run without, where absent, null and empty are
# alike; a tuple asks for one of its fields (n simulates the series)
_SERIES = (("input_csv", "n"), "model", "j", "p")
_REQUIRED = {"simulate": ("model", "n"), "analyze": _SERIES, "estimate": _SERIES,
             "test": (*_SERIES, "g", "d0_star", "alpha"), "mc-experiment": ("model", "g", "n", "j", "p"),
             "nu-c": ("g", "d_values")}
_MODES = tuple(_REQUIRED)


@dataclass
class Row:
    """A row of a sweep: `replicates` series of length n, each estimated at scales j..j+p; a preset's
    row also names its regime and the gap scales where G(X) meets its leading Hermite term."""

    n: Optional[int]  # None beside input_csv, whose series sets it
    j: int
    p: int
    replicates: int
    regime: str = ""
    gap_scales: tuple = ()

    def __post_init__(self):
        self.est = range(self.j, self.j + self.p + 1)  # the scales the estimate reads
        self.scales = sorted({*self.est, *self.gap_scales})  # a replicate's one pyramid pass


def _preset_row(preset: str, top: dict, model: SpectralModel, expansion: HermiteExpansion, bank: FilterBank) -> Row:
    """The row of a large-scale or small-scale preset: of the scales j in 2..jmax-2 whose next scale keeps
    32 coefficients, the last three whose reduction ratio n 2^-j / 2^(j nu_c) is at most 1/4, or the first
    three at which it is at least 4; it starts at the first of them and compares at each."""
    try:
        profile = rank_profile(expansion.nonzero_indices(), model.d)
    except LongMemoryError as exc:
        raise ConfigError("model.d", str(exc)) from None
    nu, js = critical_exponent_report(profile, model.d).nu_c, []
    for j in range(2, bank.jmax - 1):
        try:
            nj = n_coeffs(top["n"], bank.T, j + 1)
        except ScaleTooCoarseError:
            continue
        if nj < 32:
            continue
        ratio = top["n"] * 2.0**-j * 2.0 ** (-j * nu)  # 0 at nu = inf, underflows to 0 at large nu
        if (ratio <= 0.25) if preset == "large-scale" else (ratio >= 4.0):
            js.append(j)
    if not js:
        raise ConfigError("n", f"no scales satisfy the {preset} regime for n={top['n']}; adjust n")
    pick = js[-3:] if preset == "large-scale" else js[:3]
    regime = "large-scale" if preset == "large-scale" else "exploratory-small-scale"
    return Row(**{**top, "j": min(pick)}, regime=regime, gap_scales=tuple(pick))


@dataclass
class ExperimentConfig:
    """Validated experiment description (see README for the JSON schema).  `bank` is the built filter
    bank of every mode that reads one (None in simulate and nu-c), and `rows` the rows an mc-experiment
    runs, each checked against it: the schedule's, merged with the top-level n, j, p and replicates,
    else a large-scale or small-scale preset's, else the top level's ([] in other modes)."""

    mode: str
    model: Optional[SpectralModel]
    g: Optional[GSpec]
    expansion: Optional[HermiteExpansion]  # g's, which rejects a transform that is zero once centred
    bank: Optional[FilterBank]
    n: Optional[int]
    j0: Optional[int]
    p: Optional[int]
    replicates: int
    seed: int
    out_dir: str
    alpha: Optional[float]
    d0_star: Optional[float]
    k_bar: int
    input_csv: Optional[str]
    rows: list
    d_values: list
    enforce_preconditions: Optional[dict]
    workers: int
    raw: dict


def parse_config(obj: dict) -> ExperimentConfig:
    """Check a raw JSON configuration; a rejection names its key path, and
    null stands for an absent value."""
    if not isinstance(obj, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    try:
        c = _checked(obj)
    except RecursionError:
        raise ConfigError("<root>", "nested too deeply") from None
    mode = c.get("mode")
    if mode not in _MODES:
        raise ConfigError("mode", f"must be one of {_MODES}")
    csv_alone = mode in ("analyze", "estimate") and c.get("input_csv") and "g" not in c  # no model is read
    for need in _REQUIRED[mode]:
        keys = need if isinstance(need, tuple) else (need,)
        if not any(c.get(k) for k in keys) and not (need == "model" and csv_alone):
            raise ConfigError(keys[0], f"required for mode {mode!r}{''.join(f', or {k}' for k in keys[1:])}")
    model = parse_model(c["model"]) if c.get("model") else None
    g = parse_g_spec(c["g"]) if "g" in c else None
    expansion = g.expansion() if g is not None else None
    top = {"n": c.get("n"), "j": c.get("j"), "p": c.get("p"), "replicates": c.get("replicates", 1)}
    schedule, preset = c.get("schedule", []), c.get("preset")
    if not (isinstance(schedule, list) and all(isinstance(e, dict) for e in schedule)):
        raise ConfigError("schedule", "must be a list of objects")
    for key in ("out", "input_csv"):
        if key in c and not (isinstance(c[key], str) and c[key]):
            raise ConfigError(key, "must be a nonempty path string")
    # the fractional part splits d0* into (d*, K*)
    if c.get("d0_star") is not None and not 0.0 < c["d0_star"] % 1.0 < 0.5:
        raise ConfigError("d0_star", "must be positive with fractional part in (0, 1/2)")
    if not isinstance(c.get("d_values", []), list):
        raise ConfigError("d_values", "must be a list of numbers in (0, 1/2)")
    if model is not None:
        try:
            check_off_boundary(model.d)
        except ValueError as exc:
            raise ConfigError("model.d", str(exc)) from None
    if preset not in (None, "slope", "large-scale", "small-scale"):
        raise ConfigError("preset", "must be one of slope, large-scale, small-scale")
    bank, rows = None, []
    if "bank" in _READS[""][mode]:
        spec = c.get("bank", {})
        family = str(spec.get("family", "db2"))  # any non-string is no family name
        try:
            if _parse_family(family) > _MAX_MOMENTS:
                raise ConfigError("bank.family", f"dbM needs M <= {_MAX_MOMENTS}, the last order 10x inside the bank's checks")
            bank = build_bank(family, spec.get("jmax", 10))
        except FilterValidationError as exc:
            raise ConfigError("bank.family", str(exc)) from None
        # the rows that run, each beside the field that names a filter too long for its n (only
        # mc-experiment reads schedule and preset); a large-scale or small-scale preset picks j itself
        runs = [("j", Row(**top))]
        if schedule:
            runs = [(f"schedule[{i}].j", Row(**{**top, **row})) for i, row in enumerate(schedule)]
        elif preset == "slope":
            runs = [("j", Row(**top, regime="slope"))]
        elif preset:
            runs = [("p", _preset_row(preset, top, model, expansion, bank))]
        # a simulated series has a known length: the coarsest scale's filter
        # must fit in n/4, which also leaves it at least one coefficient
        for field, row in runs:
            coarsest = row.scales[-1]
            if coarsest > bank.jmax:
                raise ConfigError("bank.jmax", f"scales {row.j}..{coarsest} need jmax >= {coarsest}, got {bank.jmax}")
            taps = bank.filter_length(coarsest)
            if row.n is not None and taps > row.n // 4:  # n is unread beside input_csv
                raise ConfigError(field, f"scale {coarsest} filter ({taps} taps) too long for n={row.n} (cap n/4)")
        if mode == "mc-experiment":  # a single run's row takes its series' length
            rows = [row for _, row in runs]
    return ExperimentConfig(
        mode=mode, model=model, g=g, expansion=expansion, bank=bank, n=top["n"], j0=top["j"], p=top["p"],
        replicates=top["replicates"], seed=c.get("seed", 0), out_dir=c.get("out", "."), alpha=c.get("alpha"),
        d0_star=c.get("d0_star"), k_bar=c.get("k_bar", 0), input_csv=c.get("input_csv"), rows=rows,
        d_values=c.get("d_values", []), enforce_preconditions=c.get("enforce_preconditions"),
        workers=c.get("workers", 1), raw=obj,
    )


def read_config(path):
    """The JSON value in the file at `path`, for `parse_config` to check."""
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8, whatever the locale
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<config>", f"file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also an integer past 4,300 digits, or nesting past the stack
        raise ConfigError("<config>", f"invalid JSON: {exc}") from None
    return obj


def ingest(csv_path) -> tuple[np.ndarray, dict]:
    """Load a single-column numeric CSV; returns (series, provenance).

    A first line that `float` cannot read is a header and is skipped, even
    one holding only a NUL byte.  Any other row that does not parse, is not
    finite, or is not ASCII free of "_" (`float` reads `1_000` and the digits
    of other scripts) raises with its 1-based row number.  At least 64 rows
    of data are required.
    """
    values = []
    try:
        with open(csv_path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8-sig")  # a byte-order mark is not part of the first row
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("input_csv", f"cannot read {csv_path}: {exc}") from None
    lines, start = text.splitlines(), 0
    if lines:
        try:
            float(lines[0].split(",")[0])
        except ValueError:
            start = 1  # header row
    if not text.isascii() or "_" in text:  # a plain text, the common case, skips the scan of its rows
        for i, line in enumerate(lines[start:], start=start + 1):
            if line.strip() and (not line.isascii() or "_" in line):
                raise ConfigError("input_csv", f"row {i}: {line!r} is not an ASCII number without '_'")
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
    import hashlib  # loaded only by a run that reads a CSV

    provenance = {
        "path": str(csv_path),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "rows": len(values),
        "header_skipped": bool(start),
    }
    return np.asarray(values), provenance
