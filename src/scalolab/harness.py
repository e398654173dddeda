"""Experiment orchestration: mode dispatch, Monte Carlo sweeps, artifacts.

Every report embeds the full configuration, the root seed, and the package
version, so rerunning from a report's embedded config reproduces its
numbers exactly.  All randomness flows from the root seed through named
Philox substreams; replicates 2i and 2i+1 of schedule row s are the real
and the imaginary half of stream (s << 32) | i (an odd count drops the
last imaginary half), so aggregates cannot depend on execution order.

A Monte Carlo run builds one plan, in the parent (bank, schedule, expansion,
rank and, when it tests d0*, each row's `calibrate_test` report) and, with
workers > 1, opens one process pool whose initializer hands each worker
that plan; a replicate pair is then a function of (plan, row position, pair
index) alone, and a replicate compares |d0_hat - d0*| with its row's s_N.
A rejection raised during a run names its config field (`_naming`).
"""

import csv
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
from .hermite import HermiteExpansion, hermite_eval, hermite_rank
from .inference import calibrate_test, d0_from_scalograms, estimate_d0, run_test
from .synthesis import export_path, integrate_K, sample_gaussian_pair, sample_path, transform_path
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


# calibrate_test checks d0* and the bank's M against k_bar; estimate_d0 the
# series, which parse_config can size only when it is simulated
_SERIES_FIELDS = {DegenerateScalogramError: "input_csv", ScaleTooCoarseError: "input_csv"}
_TEST_FIELDS = {InvalidTargetError: "d0_star", BoundaryValueError: "d0_star", FilterValidationError: "k_bar",
                **_SERIES_FIELDS}


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
            for q in (p, p + ".json"):
                if os.path.exists(q):
                    os.unlink(q)


def _load_or_simulate(cfg: ExperimentConfig) -> tuple[np.ndarray, dict]:
    if cfg.input_csv:
        return ingest(cfg.input_csv)
    series = sample_path(cfg.model, cfg.g, cfg.n, cfg.seed)[1]
    return series, {"simulated": True, "n": cfg.n, "seed": cfg.seed}


def _bank(cfg: ExperimentConfig) -> FilterBank:
    """The run's filter bank; taps that fail the moment check name bank.family."""
    with _naming({FilterValidationError: "bank.family"}):
        return build_bank(cfg.bank_family, cfg.bank_jmax)


def run(cfg: ExperimentConfig) -> list:
    """Dispatch one experiment; returns the list of artifact paths written."""
    art = _Artifacts(cfg.out_dir)
    try:
        return _RUNNERS[cfg.mode](cfg, art)  # parse_config admits only these modes
    except BaseException:
        art.cleanup()
        raise


def _run_simulate(cfg, art):
    if cfg.g is not None:
        cfg.g.expansion()  # rejects a transform that is zero once centred
    series = sample_path(cfg.model, cfg.g, cfg.n, cfg.seed)[1]
    p = art.path("path.csv")
    export_path(series, p, sidecar=_meta(cfg))
    return art.paths


def _run_analyze(cfg, art):
    series, prov = _load_or_simulate(cfg)
    with _naming(_SERIES_FIELDS):
        sums = scalograms(series, _bank(cfg), range(cfg.j0, cfg.j0 + cfg.p + 1))
    rows = [(s.j, s.n, s.sigma2) for s in sums]
    cp = art.path("scalogram.csv")
    with open(cp, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["j", "n_j", "sigma2"])
        wr.writerows(rows)
    return _write_report(cfg, art, "analyze_report.json", input=prov, table=rows)


def _run_estimate(cfg, art):
    kwargs = {}
    if cfg.g is not None and cfg.model is not None:
        q0, q1 = hermite_rank(cfg.g.expansion())
        kwargs = {"params": cfg.model.params, "q0": q0}
        if delta(q0, cfg.model.d) > 0:  # a short-memory rank has no bias rate
            kwargs["zeta"] = zeta_exponent(cfg.model.beta_smooth, cfg.model.d, q0, q1)
    series, prov = _load_or_simulate(cfg)
    with _naming({FilterValidationError: "bank.family", **_SERIES_FIELDS}):
        report = estimate_d0(series, _bank(cfg), cfg.j0, cfg.p, **kwargs)
    return _write_report(cfg, art, "estimate_report.json", input=prov, estimate=asdict(report))


def _run_test_mode(cfg, art):
    expansion = cfg.g.expansion()
    series, prov = _load_or_simulate(cfg)
    with _naming(_TEST_FIELDS):
        report = run_test(series, _bank(cfg), cfg.d0_star, cfg.alpha, cfg.k_bar, expansion,
                          cfg.j0, cfg.p, beta_smooth=cfg.model.beta_smooth)
    enforce = cfg.enforce_preconditions or {}
    red_max, bias_max = enforce.get("reduction_max"), enforce.get("bias_max")
    if red_max is not None and report.reduction_ratio is not None and report.reduction_ratio > red_max:
        raise PreconditionError(f"reduction ratio {report.reduction_ratio:.3g} exceeds {red_max}")
    if bias_max is not None and report.bias_ratio > bias_max:
        raise PreconditionError(f"bias ratio {report.bias_ratio:.3g} exceeds {bias_max}")
    return _write_report(cfg, art, "test_report.json", input=prov, test=asdict(report))


def _run_nuc(cfg, art):
    expansion = cfg.g.expansion()
    indices = expansion.nonzero_indices()
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
            "nu_c": None if rep.nu_c.is_infinite else rep.nu_c.value,
            "nu_c_infinite": rep.nu_c.is_infinite,
        })
    return _write_report(cfg, art, "nu_c_report.json", reports=reports)


# --- Monte Carlo sweeps ----------------------------------------------------


@dataclass
class _Row:
    n: int
    j: int
    p: int
    replicates: int
    regime: str = ""
    gap_scales: tuple = ()


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
            if nu.is_infinite:
                ratio = 0.0
            else:
                ratio = cfg.n * 2.0**-j * 2.0 ** (-j * nu.value)  # underflows to 0 at large nu
            if cfg.preset == "large-scale" and ratio <= 0.25:
                js.append(j)
            elif cfg.preset == "small-scale" and ratio >= 4.0:
                js.append(j)
        if not js:
            raise PreconditionError(
                f"no scales satisfy the {cfg.preset} regime for n={cfg.n}; adjust n"
            )
        pick = js[-3:] if cfg.preset == "large-scale" else js[:3]
        regime = "large-scale" if cfg.preset == "large-scale" else "exploratory-small-scale"
        return [_Row(cfg.n, min(pick), cfg.p, cfg.replicates, regime=regime, gap_scales=tuple(pick))]
    return [_Row(cfg.n, cfg.j0, cfg.p, cfg.replicates, regime="slope" if cfg.preset == "slope" else "")]


@dataclass(frozen=True)
class _Plan:
    """What every replicate of a Monte Carlo run shares; built once, in the parent."""

    cfg: ExperimentConfig
    bank: FilterBank
    rows: list
    expansion: HermiteExpansion
    q0: int
    calibrations: Optional[tuple]  # each row's calibrate_test report when the run tests d0*


def _plan(cfg: ExperimentConfig) -> _Plan:
    bank = _bank(cfg)
    expansion = cfg.g.expansion()
    q0, rows = hermite_rank(expansion)[0], _schedule(cfg, bank, expansion)
    calibrations = None
    if cfg.d0_star is not None and cfg.alpha is not None:
        with _naming(_TEST_FIELDS):
            calibrations = tuple(calibrate_test(bank, row.n, cfg.d0_star, cfg.alpha, cfg.k_bar,
                                                expansion, row.j, row.p, cfg.model.beta_smooth)
                                 for row in rows)
    return _Plan(cfg, bank, rows, expansion, q0, calibrations)


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
    cfg, row, bank = plan.cfg, plan.rows[pos], plan.bank
    y = transform_path(cfg.model, cfg.g, x)
    est = range(row.j, row.j + row.p + 1)
    # one pyramid pass serves the estimate and the gap scales
    sG = {s.j: s.sigma2 for s in scalograms(y, bank, sorted({*est, *row.gap_scales}))}
    out = {"d0_hat": d0_from_scalograms([sG[j] for j in est])}
    if plan.calibrations is not None:
        out["reject"] = abs(out["d0_hat"] - cfg.d0_star) > plan.calibrations[pos].s_N
    if row.gap_scales:
        q0, cq0 = plan.q0, plan.expansion.coeffs[plan.q0]
        lead = integrate_K((cq0 / math.factorial(q0)) * hermite_eval(q0, x), cfg.model.K)
        out["gaps"] = {b.j: (sG[b.j], b.sigma2) for b in scalograms(lead, bank, row.gap_scales)}
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
    keys = sorted({k for row in results for k in row})
    with open(cp, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=keys)
        wr.writeheader()
        wr.writerows(results)
    # strict JSON: an undefined statistic (nan in the CSV) is null
    strict = [{k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in row.items()}
              for row in results]
    return _write_report(cfg, art, "mc_report.json", results=strict)


_RUNNERS = {"simulate": _run_simulate, "analyze": _run_analyze, "estimate": _run_estimate,
            "test": _run_test_mode, "nu-c": _run_nuc, "mc-experiment": _run_mc}
