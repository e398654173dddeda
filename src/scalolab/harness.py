"""Experiment orchestration: mode dispatch, one plan per run, Monte Carlo sweeps, artifacts.

Every report embeds the full configuration, the root seed, and the package
version, so rerunning from a report's embedded config reproduces its
numbers exactly.  All randomness flows from the root seed through named
Philox substreams; replicates 2i and 2i+1 of schedule row s are the real
and the imaginary half of stream (s << 32) | i (an odd count drops the
last imaginary half), so aggregates cannot depend on execution order.

`estimate`, `test` and `mc-experiment` share one plan (`_plan`), built in the
parent, which checks their inputs once, in this order: the bank, the
schedule (mc-experiment), the moment rule, the series (a single run loads
or simulates it, which fixes n), each row's `calibrate_test`
report, which the row carries and whose reject rule decides each of its
replicates, when the run tests d0*, and `enforce_preconditions` on each
report.  A single run is the one replicate of its plan on that series.  A sweep on
workers > 1 hands the plan to each worker of one process pool; a replicate
pair is a function of (plan, row position, pair index) alone.  A rejection raised
during a run names its config field (`_naming`).

Only simulate, which exports it, forms Y = Sigma^K G(X): a single run's G(X)
(`_simulated`), a replicate's and its leading Hermite term's enter the pyramid
with the model's K, a CSV (Y itself) with K = 0.  Estimate mode sets the
predicted rates, which depend on the model; `estimate_d0` reads the series alone.
"""

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Optional

import numpy as np

from . import __version__
from .config import ExperimentConfig, ingest
from .errors import (BoundaryValueError, ConfigError, DegenerateScalogramError, FilterValidationError,
                     InvalidTargetError, LongMemoryError, NumericError, PreconditionError, ScaleTooCoarseError)
from .exponents import critical_exponent_report, delta, rank_profile, zeta_exponent
from .hermite import HermiteExpansion, expansion_from_coeffs, hermite_rank
from .inference import TestReport, calibrate_test, d0_from_scalograms, estimate_d0, require_moments
from .synthesis import export_path, integrate_K, sample_gaussian, sample_gaussian_pair
from .wavelet import FilterBank, build_bank, n_coeffs, scalograms


def _meta(cfg: ExperimentConfig) -> dict:
    return {"config": cfg.raw, "seed": cfg.seed, "version": __version__}


def _write_report(cfg: ExperimentConfig, art, name: str, **body) -> list:
    """Write `name`: the run's metadata, then `body` in order; returns every artifact path.

    A non-finite number has no JSON form: it raises NumericError, and `run`
    deletes the partial file."""
    with open(art.path(name), "w") as fh:
        try:
            json.dump({**_meta(cfg), **body}, fh, indent=2, default=float, allow_nan=False)
        except ValueError as exc:
            raise NumericError(f"{name}: {exc}") from None
    return art.paths


@contextmanager
def _naming(fields: dict):
    """A rejection of a kind in `fields` becomes a ConfigError naming the field."""
    try:
        yield
    except tuple(fields) as exc:
        raise ConfigError(next(f for k, f in fields.items() if isinstance(exc, k)), str(exc)) from None


# calibrate_test checks d0*, the bank's M against k_bar and a rank-one law's
# offsets p against the bank's levels; estimate_d0 the series, which
# parse_config can size only when it is simulated
_TARGET_FIELDS = {InvalidTargetError: "d0_star", BoundaryValueError: "d0_star", FilterValidationError: "k_bar",
                  ScaleTooCoarseError: "p"}
_SERIES_FIELDS = {DegenerateScalogramError: "input_csv", ScaleTooCoarseError: "input_csv"}


class _Artifacts:
    """Track written files so a failed run leaves no partial output."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.paths = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.out_dir, name)
        self.paths.append(p)
        return p

    def cleanup(self):
        for p in self.paths:
            if os.path.exists(p):
                os.unlink(p)


def _simulated(cfg: ExperimentConfig) -> np.ndarray:
    """The run's simulated increments: G(X) of the real half X of stream 0 (X without g)."""
    x = sample_gaussian(cfg.model, cfg.n, cfg.seed)
    return x if cfg.g is None else cfg.g(x)


def _load_or_simulate(cfg: ExperimentConfig) -> tuple[np.ndarray, dict, int]:
    """The run's series, its provenance and the K of Y = Sigma^K series: a CSV is Y itself."""
    if cfg.input_csv:
        return (*ingest(cfg.input_csv), 0)
    return _simulated(cfg), {"simulated": True, "n": cfg.n, "seed": cfg.seed}, cfg.model.K


def run(cfg: ExperimentConfig) -> list:
    """Dispatch one experiment; returns the list of artifact paths written."""
    art = _Artifacts(cfg.out_dir)
    try:
        return _RUNNERS[cfg.mode](cfg, art)  # parse_config admits only these modes
    except BaseException:
        art.cleanup()
        raise


def _run_simulate(cfg, art):
    csv_path = art.path("path.csv")
    art.path("path.csv.json")  # export_path's sidecar: listed, and deleted if the run fails
    export_path(integrate_K(_simulated(cfg), cfg.model.K), csv_path, sidecar=_meta(cfg))
    return art.paths


def _run_analyze(cfg, art):
    series, prov, K = _load_or_simulate(cfg)
    with _naming({FilterValidationError: "bank.family", **_SERIES_FIELDS}):  # taps that fail a check, or M < K
        sums = scalograms(series, build_bank(cfg.bank_family, cfg.bank_jmax), range(cfg.j0, cfg.j0 + cfg.p + 1), K)
    rows = [(s.j, s.n, s.sigma2) for s in sums]
    cp = art.path("scalogram.csv")
    import csv  # loaded only by the two modes that write a table

    with open(cp, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["j", "n_j", "sigma2"])
        wr.writerows(rows)
    return _write_report(cfg, art, "analyze_report.json", input=prov, table=rows)


def _run_nuc(cfg, art):
    indices = cfg.expansion.nonzero_indices()
    ds = list(cfg.d_values) or [cfg.model.d]
    reports = []
    for i, d in enumerate(ds):
        with _naming({LongMemoryError: f"d_values[{i}]" if cfg.d_values else "model.d"}):
            profile = rank_profile(indices, d)
        rep = critical_exponent_report(profile, d)
        reports.append({
            "d": d,
            "q_indices": list(profile.q_indices),
            "gap_sets": {str(r): sorted(s) for r, s in profile.gap_sets.items()},
            "ell_markers": {str(r): l for r, l in profile.ell_markers.items()},
            "Q_set": sorted(profile.Q_set),
            "Jd_set": sorted(profile.Jd_set),
            "branch": rep.branch,
            "branch_inputs": rep.inputs,
            "candidates": [[str(lbl), v] for lbl, v in rep.candidates],
            "nu_c": None if math.isinf(rep.nu_c) else rep.nu_c,
            "nu_c_infinite": math.isinf(rep.nu_c),
        })
    return _write_report(cfg, art, "nu_c_report.json", reports=reports)


# --- one plan for estimate, test and mc-experiment; Monte Carlo sweeps -------


@dataclass
class _Row:
    n: int
    j: int
    p: int
    replicates: int
    regime: str = ""
    gap_scales: tuple = ()
    calibration: Optional[TestReport] = None  # the row's calibrate_test report when the run tests d0*

    def __post_init__(self):
        self.est = range(self.j, self.j + self.p + 1)  # the scales the estimate reads
        self.scales = sorted({*self.est, *self.gap_scales})  # a replicate's one pyramid pass


def _schedule(cfg: ExperimentConfig, bank: FilterBank, expansion: HermiteExpansion) -> list:
    if cfg.schedule:  # each row already merged with the top level
        return [_Row(**row) for row in cfg.schedule]
    if cfg.preset in ("large-scale", "small-scale"):
        d = cfg.model.d
        with _naming({LongMemoryError: "model.d"}):
            profile = rank_profile(expansion.nonzero_indices(), d)
        nu = critical_exponent_report(profile, d).nu_c
        js = []
        for j in range(2, bank.jmax - 1):
            try:
                nj = n_coeffs(cfg.n, bank.T, j + 1)
            except ScaleTooCoarseError:
                continue
            if nj < 32:
                continue
            ratio = cfg.n * 2.0**-j * 2.0 ** (-j * nu)  # 0 at nu = inf, underflows to 0 at large nu
            if cfg.preset == "large-scale" and ratio <= 0.25:
                js.append(j)
            elif cfg.preset == "small-scale" and ratio >= 4.0:
                js.append(j)
        if not js:
            raise ConfigError("n", f"no scales satisfy the {cfg.preset} regime for n={cfg.n}; adjust n")
        pick = js[-3:] if cfg.preset == "large-scale" else js[:3]
        regime = "large-scale" if cfg.preset == "large-scale" else "exploratory-small-scale"
        row = _Row(cfg.n, min(pick), cfg.p, cfg.replicates, regime=regime, gap_scales=tuple(pick))
        # the preset moves j, so parse_config's checks of j + p do not cover its row
        top = row.scales[-1]
        if top > bank.jmax:
            raise ConfigError("bank.jmax", f"{cfg.preset} scales {row.j}..{top} need jmax >= {top}, got {bank.jmax}")
        if (taps := bank.filter_length(top)) > cfg.n // 4:
            raise ConfigError("p", f"{cfg.preset} scale {top} filter ({taps} taps) too long for n={cfg.n} (cap n/4)")
        return [row]
    return [_Row(cfg.n, cfg.j0, cfg.p, cfg.replicates, regime="slope" if cfg.preset == "slope" else "")]


@dataclass(frozen=True)
class _Plan:
    """What every replicate of a run shares; checked and built once, in the parent."""

    cfg: ExperimentConfig
    bank: FilterBank
    rows: list
    q0: Optional[int]
    series: Optional[tuple] = None  # a single run's (series, provenance, K)
    lead: Optional[HermiteExpansion] = None  # the leading Hermite term, when a row has gap scales


def _plan(cfg: ExperimentConfig) -> _Plan:
    """The plan of an estimate, test or mc-experiment run, checked in the module docstring's order."""
    expansion = cfg.expansion  # None for an estimate without g
    q0 = hermite_rank(expansion)[0] if expansion is not None else None
    with _naming({FilterValidationError: "bank.family"}):  # taps that fail the moment check, or too few moments
        bank = build_bank(cfg.bank_family, cfg.bank_jmax)
        rows = _schedule(cfg, bank, expansion) if cfg.mode == "mc-experiment" else None
        if q0 is not None:
            require_moments(bank, cfg.model.params, q0)
        elif not cfg.input_csv:  # a simulated series without g: the identity, of rank 1
            require_moments(bank, cfg.model.params, 1)
    series = None
    if rows is None:
        series = _load_or_simulate(cfg)
        rows = [_Row(len(series[0]), cfg.j0, cfg.p, 1)]
    if cfg.d0_star is not None:  # parse_config admits d0_star only beside alpha, in test and mc-experiment
        with _naming(_TARGET_FIELDS):
            for row in rows:
                row.calibration = calibrate_test(bank, row.n, cfg.d0_star, cfg.alpha, cfg.k_bar, expansion, row.j, row.p)
        bounds = cfg.enforce_preconditions or {}  # parse_config drops a null bound
        for row in rows:
            for name, ratio in (("reduction", row.calibration.reduction_ratio), ("bias", row.calibration.bias_ratio)):
                if ratio is not None and ratio > (bound := bounds.get(f"{name}_max", math.inf)):
                    raise PreconditionError(f"{name} ratio {ratio:.3g} at n={row.n}, j={row.j} exceeds {bound}")
    lead = expansion_from_coeffs({q0: expansion.coeffs[q0]}) if any(row.gap_scales for row in rows) else None
    return _Plan(cfg, bank, rows, q0, series, lead)


def _run_single(cfg, art):
    """estimate or test: the one replicate of the run's plan, on its series."""
    plan = _plan(cfg)
    (series, prov, K), row = plan.series, plan.rows[0]
    with _naming(_SERIES_FIELDS):
        est = estimate_d0(series, plan.bank, row.j, row.p, K)
    if row.calibration is None:
        if plan.q0 is not None:  # an estimate with g predicts its rates
            (q0, q1), d = hermite_rank(cfg.expansion), cfg.model.d
            est.rate_stat = float((len(series) * 2.0 ** -(row.j + row.p)) ** -(0.5 - d))  # coarsest scale
            if delta(q0, d) > 0:  # a short-memory rank has no bias rate
                est.rate_bias = float(2.0 ** (-zeta_exponent(d, q0, q1) * row.j))
        return _write_report(cfg, art, "estimate_report.json", input=prov, estimate=asdict(est))
    return _write_report(cfg, art, "test_report.json", input=prov, test=asdict(row.calibration.decided(est)))


_worker_plan: Optional[_Plan] = None


def _init_worker(plan: _Plan):
    global _worker_plan
    _worker_plan = plan


def _pool_pair(task):
    return _mc_pair(_worker_plan, *task)


def _mc_pair(plan: _Plan, pos: int, i: int) -> list:
    """Replicates 2i and 2i+1 of schedule row `pos`, from one stream."""
    row = plan.rows[pos]
    xs = sample_gaussian_pair(plan.cfg.model, row.n, plan.cfg.seed, (pos << 32) | i)
    return [_mc_replicate(plan, pos, x) for x in xs[: row.replicates - 2 * i]]


def _mc_replicate(plan: _Plan, pos: int, x: np.ndarray) -> dict:
    """The replicate of schedule row `pos` whose Gaussian path is x."""
    cfg, row, bank, K = plan.cfg, plan.rows[pos], plan.bank, plan.cfg.model.K
    sG = {s.j: s.sigma2 for s in scalograms(cfg.g(x), bank, row.scales, K)}
    out = {"d0_hat": d0_from_scalograms([sG[j] for j in row.est])}
    if row.calibration is not None:
        out["reject"] = row.calibration.rejects(out["d0_hat"])
    if row.gap_scales:  # the leading Hermite term alone
        out["gaps"] = {b.j: (sG[b.j], b.sigma2) for b in scalograms(plan.lead(x), bank, row.gap_scales, K)}
    return out


def _skewness(x: np.ndarray) -> float:
    """Biased sample skewness m3 / m2^1.5; NaN when x is constant to rounding."""
    mean = x.mean()
    dev = x - mean
    m2, m3 = np.mean(dev**2), np.mean(dev**2 * dev)
    return math.nan if m2 <= (np.finfo(float).eps * mean) ** 2 else float(m3 / m2**1.5)


def _normality_p(x: np.ndarray) -> float:
    """D'Agostino-Pearson omnibus p-value, NaN below 8 points.

    K^2 = z_s^2 + z_k^2 of the skewness z-score (D'Agostino 1970) and the
    kurtosis z-score (Anscombe & Glynn 1983); its chi^2_2 tail is exp(-K^2/2).
    """
    n, b1 = float(len(x)), _skewness(x)
    if n < 8 or math.isnan(b1):
        return math.nan
    dev = x - x.mean()
    b2 = np.mean((dev**2) ** 2) / np.mean(dev**2) ** 2
    # y = 0 is read as 1, as the reference normaltest does
    y = b1 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2))) or 1.0
    beta2 = 3.0 * (n**2 + 27 * n - 70) * (n + 1) * (n + 3) / ((n - 2.0) * (n + 5) * (n + 7) * (n + 9))
    w2 = -1 + math.sqrt(2 * (beta2 - 1))
    alpha = math.sqrt(2.0 / (w2 - 1))
    z_s = math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1)) / math.sqrt(0.5 * math.log(w2))
    e = 3.0 * (n - 1) / (n + 1)
    var_b2 = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1.0) * (n + 3) * (n + 5))
    sqrt_beta1 = (6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
                  * (6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3))) ** 0.5)
    a = 6.0 + 8.0 / sqrt_beta1 * (2.0 / sqrt_beta1 + (1 + 4.0 / sqrt_beta1**2) ** 0.5)
    denom = 1 + (b2 - e) / var_b2**0.5 * (2 / (a - 4.0)) ** 0.5
    if denom == 0.0:
        return math.nan
    term2 = math.copysign(((1 - 2.0 / a) / abs(denom)) ** (1 / 3), denom)
    z_k = (1 - 2 / (9.0 * a) - term2) / (2 / (9.0 * a)) ** 0.5
    return math.exp(-(z_s**2 + z_k**2) / 2)


def _run_mc(cfg, art):
    plan = _plan(cfg)
    tasks = [(pos, i) for pos, row in enumerate(plan.rows) for i in range((row.replicates + 1) // 2)]
    if cfg.workers > 1:
        # imported here: the process machinery costs every other run its import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_init_worker,
                                 initargs=(plan,)) as ex:
            pairs = list(ex.map(_pool_pair, tasks, chunksize=4))
    else:
        pairs = [_mc_pair(plan, *t) for t in tasks]
    d0_true = cfg.model.K + delta(plan.q0, cfg.model.d)
    results = []
    recs = (rec for pair in pairs for rec in pair)  # row by row, replicate ascending
    for pos, row in enumerate(plan.rows):
        row_recs = list(islice(recs, row.replicates))
        d0s = np.array([rec["d0_hat"] for rec in row_recs])
        agg = {
            "row": pos, "n": row.n, "j0": row.j, "p": row.p,
            "replicates": row.replicates, "regime": row.regime,
            "d0_true": d0_true,
            "mean_d0": float(d0s.mean()), "bias": float(d0s.mean() - d0_true),
            "sd": float(d0s.std(ddof=1)) if len(d0s) > 1 else 0.0,
            "rmse": float(np.sqrt(np.mean((d0s - d0_true) ** 2))),
            "slope": float(2.0 * d0s.mean()),
            "skewness": _skewness(d0s) if len(d0s) > 2 else 0.0,
            "normality_p": _normality_p(d0s) if len(d0s) >= 20 else math.nan,
        }
        if any("reject" in rec for rec in row_recs):
            agg["rejection_rate"] = float(np.mean([rec["reject"] for rec in row_recs]))
        for j in row.gap_scales:
            sG = np.array([rec["gaps"][j][0] for rec in row_recs])
            sL = np.array([rec["gaps"][j][1] for rec in row_recs])
            gap = np.sqrt(np.mean((sG - sG.mean() - (sL - sL.mean())) ** 2))
            lead = np.sqrt(np.mean((sL - sL.mean()) ** 2))
            agg[f"rel_gap_j{j}"] = float(gap / lead) if row.replicates > 1 else math.nan
        results.append(agg)

    cp = art.path("mc_results.csv")
    import csv

    keys = sorted({k for row in results for k in row})
    with open(cp, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=keys)
        wr.writeheader()
        wr.writerows(results)
    # strict JSON: an undefined statistic (nan in the CSV) is null
    strict = [{k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in row.items()}
              for row in results]
    return _write_report(cfg, art, "mc_report.json", results=strict)


_RUNNERS = {"simulate": _run_simulate, "analyze": _run_analyze, "estimate": _run_single,
            "test": _run_single, "nu-c": _run_nuc, "mc-experiment": _run_mc}
