"""Accuracy metrics and the Monte Carlo benchmark harness.

A trial succeeds when the estimator returns the full K angles and every
matched absolute error is below the threshold (0.3 deg default). Estimates
are matched to truths by minimum-total-absolute-error assignment. Shortfall
trials (fewer than K peaks) count as failures and are excluded from RMSE,
which would otherwise be undefined for them.

Reproducibility: trial t of sweep point i draws from
SeedSequence(master_seed, spawn_key=(i, t)), so results are independent of
execution order and worker count. A sweep solves its trials in stacks (one
solver call per method per chunk of trials, GNR² rounds in lockstep), and
a stacked solve gives each problem the result it gets alone, so results do
not depend on the chunking either. Wall-clock timings are kept out of the
metrics table (they are not deterministic) and reported separately.
"""
from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .arrays import build_dictionary, perturb_geometry, uniform_line_array
from .errors import ConfigError, ToolkitError
from .estimators import ESTIMATORS, SolverConfig
from .frontend import sample_covariance
from .refine import RefineConfig, narrowband_estimate
from .simulate import NoiseModel, SourceSpec, synthesize

SUCCESS_THRESHOLD_DEG = 0.3
NONUNIFORM_DIAG = (12, 2.3, 20.5, 5.5, 11.1, 6.5, 2, 13.5, 0.8, 1.7, 13.6, 5.2)
# trials per stacked solve: per problem, one solver iteration at G = 361
# took 125 us alone, 71 us in a stack of 4, 66 us in 16 and 77-82 us in
# 32-64 (2-vCPU Xeon, OpenBLAS at 1 thread)
CHUNK_TRIALS = 16


# -----------------------------
# Metrics
# -----------------------------
def pair_errors(estimates, truth) -> np.ndarray:
    """Signed errors after matching estimates to truths by the assignment
    that minimizes the total absolute error."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ConfigError(f"estimate count {est.size} != truth count {tru.size}")
    cost = np.abs(est[:, None] - tru[None, :])
    rows, cols = linear_sum_assignment(cost)
    err = np.empty(tru.size)
    err[cols] = est[rows] - tru[cols]
    return err


def rmse(per_trial_estimates, truth) -> float:
    """sqrt( (1/(Mc*K)) sum_trials sum_k err_k^2 ) over complete trials."""
    tru = np.asarray(truth, dtype=float)
    sq = []
    for est in per_trial_estimates:
        err = pair_errors(est, tru)
        sq.extend(err ** 2)
    if not sq:
        return float("nan")
    return float(np.sqrt(np.mean(sq)))


def success_ratio(per_trial_estimates, truth,
                  threshold: float = SUCCESS_THRESHOLD_DEG) -> float:
    """Percent of trials whose matched errors are all below threshold.
    Entries with fewer estimates than truths count as failures."""
    if not threshold > 0:
        raise ConfigError("success threshold must be positive")
    tru = np.asarray(truth, dtype=float)
    n_ok = 0
    total = 0
    for est in per_trial_estimates:
        total += 1
        est = np.asarray(est, dtype=float)
        if est.size != tru.size:
            continue
        if np.all(np.abs(pair_errors(est, tru)) < threshold):
            n_ok += 1
    if total == 0:
        raise ConfigError("no trials supplied")
    return 100.0 * n_ok / total


# -----------------------------
# Scenario configuration & presets
# -----------------------------
@dataclass(frozen=True)
class ScenarioConfig:
    """Narrowband Monte Carlo scenario with one swept parameter."""

    name: str = "custom"
    n_elements: int = 12
    doas: tuple = (2.36, 27.62)
    carrier_hz: float = 3000.0
    tone_spacing_hz: float = 100.0
    snapshot_rate: float = 6000.0
    noise: str = "uniform-gaussian"
    noise_diag: tuple = ()
    alpha: float = 1.2
    snr_db: float = 5.0
    snapshots: int = 60
    pos_error_level: float = 0.0
    sweep: str = "snr"                  # snr | snapshots | pos_error
    sweep_values: tuple = (-3, 0, 3, 6, 9, 12, 15)
    trials: int = 100
    seed: int = 42
    sector: tuple = (-90.0, 90.0)
    baseline_step: float = 0.5
    cbf_guard: float = 1.0
    methods: tuple = ESTIMATORS
    r: float = 1.0
    q: float = 2.0
    max_iter: int = 500
    rel_tol: float = 1e-6
    refine_initial_step: float = 1.0
    refine_target_step: float = 0.05

    def __post_init__(self):
        if self.sweep not in ("snr", "snapshots", "pos_error"):
            raise ConfigError(f"unknown sweep parameter {self.sweep!r}")
        if len(self.sweep_values) == 0:
            raise ConfigError("sweep_values must be non-empty")
        if self.trials < 1:
            raise ConfigError("trial count must be >= 1")
        if len(self.doas) < 1:
            raise ConfigError("need at least one source angle")
        if self.noise == "nonuniform-gaussian" and len(self.noise_diag) != self.n_elements:
            raise ConfigError("noise_diag must supply one variance per element")
        unknown = set(self.methods) - set(ESTIMATORS)
        if unknown:
            raise ConfigError(f"unknown methods {sorted(unknown)}; "
                              f"registered: {sorted(ESTIMATORS)}")

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _table(name, **kw) -> ScenarioConfig:
    return ScenarioConfig(name=name, **kw)


PRESETS = {
    "table1": lambda: _table("table1", noise="uniform-gaussian",
                             sweep="snr", sweep_values=(-3, 0, 3, 6, 9, 12, 15)),
    "table1-snapshots": lambda: _table("table1-snapshots", noise="uniform-gaussian",
                                       snr_db=5.0, sweep="snapshots",
                                       sweep_values=(30, 60, 90, 120, 150)),
    "table2": lambda: _table("table2", noise="uniform-gaussian",
                             doas=(-2.36, 19.78), snr_db=10.0, sweep="pos_error",
                             sweep_values=(0.1, 0.2, 0.3, 0.4)),
    "table3": lambda: _table("table3", noise="nonuniform-gaussian",
                             noise_diag=NONUNIFORM_DIAG, sweep="snr",
                             sweep_values=(-9, -6, -3, 0, 3, 6, 9)),
    "table3-snapshots": lambda: _table("table3-snapshots", noise="nonuniform-gaussian",
                                       noise_diag=NONUNIFORM_DIAG, snr_db=-3.0,
                                       sweep="snapshots",
                                       sweep_values=(30, 60, 90, 120, 150)),
    "table4": lambda: _table("table4", noise="nonuniform-gaussian",
                             noise_diag=NONUNIFORM_DIAG, pos_error_level=0.1,
                             sweep="snr", sweep_values=(-9, -6, -3, 0, 3, 6, 9)),
    "impulsive": lambda: _table("impulsive", noise="impulsive-sas", snapshots=400,
                                sweep="snr", sweep_values=(-9, -6, -3, 0, 3, 6, 9, 12)),
    "impulsive-snapshots": lambda: _table("impulsive-snapshots", noise="impulsive-sas",
                                          snr_db=0.0, sweep="snapshots",
                                          sweep_values=(50, 100, 150, 200, 250)),
}


# -----------------------------
# Monte Carlo driver
# -----------------------------
def _trial_point(cfg: ScenarioConfig, sweep_idx: int):
    value = cfg.sweep_values[sweep_idx]
    snr = value if cfg.sweep == "snr" else cfg.snr_db
    n = int(value) if cfg.sweep == "snapshots" else cfg.snapshots
    pos_err = value if cfg.sweep == "pos_error" else cfg.pos_error_level
    return float(snr), n, float(pos_err)


def _make_context(cfg: ScenarioConfig):
    geometry = uniform_line_array(cfg.n_elements,
                                  spacing=1500.0 / (2 * cfg.carrier_hz))
    dictionary = build_dictionary(geometry, cfg.carrier_hz, cfg.sector,
                                  cfg.baseline_step)
    solver = SolverConfig(r=cfg.r, q=cfg.q, max_iter=cfg.max_iter,
                          rel_tol=cfg.rel_tol)
    refine = RefineConfig(initial_step=cfg.refine_initial_step,
                          target_step=cfg.refine_target_step)
    return {"geometry": geometry, "dictionary": dictionary, "solver": solver,
            "refine": refine}


def _noise_model(cfg: ScenarioConfig) -> NoiseModel:
    if cfg.noise == "nonuniform-gaussian":
        return NoiseModel("nonuniform-gaussian", diag=tuple(cfg.noise_diag))
    if cfg.noise == "impulsive-sas":
        return NoiseModel("impulsive-sas", alpha=cfg.alpha, gamma=1.0)
    return NoiseModel("uniform-gaussian", sigma2=1.0)


def _trial_covariance(cfg: ScenarioConfig, ctx, sweep_idx: int, trial: int) -> np.ndarray:
    """The sample covariance of trial `trial` at sweep point `sweep_idx`."""
    snr, n, pos_err = _trial_point(cfg, sweep_idx)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed,
                                                       spawn_key=(sweep_idx, trial)))
    geometry = ctx["geometry"]
    if pos_err > 0:
        geometry = perturb_geometry(geometry, pos_err, rng)
    k = len(cfg.doas)
    sources = SourceSpec("tonal", tuple(cfg.doas), (1.0,) * k,
                         freqs=tuple(cfg.carrier_hz + i * cfg.tone_spacing_hz
                                     for i in range(k)),
                         snapshot_rate=cfg.snapshot_rate)
    block = synthesize(geometry, sources, _noise_model(cfg), snr, n, rng,
                       dictionary_frequency=cfg.carrier_hz)
    return sample_covariance(block.data)


def _estimates(name: str, covs, cfg: ScenarioConfig, ctx) -> list:
    """(angles tuple, shortfall) per covariance of the stack covs, from one
    stacked narrowband_estimate. When it raises a ToolkitError, each problem
    is retried alone, so only the failing one counts as a shortfall."""
    try:
        return [(tuple(float(a) for a in np.atleast_1d(angles)), bool(shortfall))
                for _, angles, shortfall in narrowband_estimate(
                    name, covs, ctx["dictionary"], cfg.sector, len(cfg.doas),
                    ctx["solver"], ctx["refine"], cfg.cbf_guard)]
    except ToolkitError:
        if len(covs) == 1:
            return [((), True)]
        return [est for cov in covs for est in _estimates(name, cov[None], cfg, ctx)]


def _run_chunk(cfg: ScenarioConfig, covs, ctx=None) -> dict:
    """Every method on a chunk of trials, the covariances covs (P, M, M):
    {method: (per-trial (angles tuple, shortfall) list, seconds)}."""
    ctx = ctx or _make_context(cfg)
    out = {}
    for name in cfg.methods:
        t0 = time.perf_counter()
        est = _estimates(name, covs, cfg, ctx)
        out[name] = (est, time.perf_counter() - t0)
    return out


def run_trial(cfg: ScenarioConfig, sweep_idx: int, trial: int, ctx=None):
    """One synthetic trial, run_monte_carlo's chunk of one; returns
    {method: (angles tuple, shortfall, seconds)}."""
    ctx = ctx or _make_context(cfg)
    covs = _trial_covariance(cfg, ctx, sweep_idx, trial)[None]
    return {name: (*est[0], seconds)
            for name, (est, seconds) in _run_chunk(cfg, covs, ctx).items()}


@dataclass(frozen=True)
class BenchRow:
    sweep: str
    value: float
    method: str
    trials: int
    shortfalls: int
    success_pct: float
    rmse_deg: float


@dataclass(frozen=True)
class BenchResult:
    config: ScenarioConfig
    rows: tuple                 # BenchRow per (sweep value, method)
    timings: tuple              # (method, total seconds) over the whole run

    @property
    def digest(self) -> str:
        return self.config.digest()

    def row(self, value, method) -> BenchRow:
        for r in self.rows:
            if r.method == method and np.isclose(r.value, value):
                return r
        raise KeyError((value, method))


def _sweep(cfg: ScenarioConfig, jobs: int = 1):
    """Every trial of the sweep: {method: per-trial (angles tuple,
    shortfall) list, in (sweep point, trial) order} and {method: seconds}.

    Synthesizes every trial's covariance first, in that order, then runs
    each method once per chunk of CHUNK_TRIALS trials across sweep points;
    with jobs > 1 and more than one chunk, the chunks go to one process
    pool of at most one worker per chunk. Each trial's result is that of
    its chunk of one (run_trial).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    ctx = _make_context(cfg)
    covs = np.stack([_trial_covariance(cfg, ctx, i, t)
                     for i in range(len(cfg.sweep_values)) for t in range(cfg.trials)])
    chunks = [covs[s:s + CHUNK_TRIALS] for s in range(0, len(covs), CHUNK_TRIALS)]
    workers = min(jobs, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_chunk, [cfg] * len(chunks), chunks))
    else:
        done = [_run_chunk(cfg, chunk, ctx) for chunk in chunks]
    return ({m: [est for out in done for est in out[m][0]] for m in cfg.methods},
            {m: sum(out[m][1] for out in done) for m in cfg.methods})


def run_monte_carlo(cfg: ScenarioConfig, jobs: int = 1) -> BenchResult:
    """Full sweep; deterministic metrics for any jobs count."""
    trials, seconds = _sweep(cfg, jobs)
    rows = []
    for i, value in enumerate(cfg.sweep_values):
        for method in cfg.methods:
            point = trials[method][i * cfg.trials:(i + 1) * cfg.trials]
            complete = [angles for angles, shortfall in point
                        if not shortfall and len(angles) == len(cfg.doas)]
            rows.append(BenchRow(cfg.sweep, float(value), method, cfg.trials,
                                 cfg.trials - len(complete),
                                 success_ratio([angles for angles, _ in point], cfg.doas),
                                 rmse(complete, cfg.doas)))
    return BenchResult(cfg, tuple(rows), tuple(seconds.items()))


def timing_ratios(result: BenchResult):
    """(method, total_s, ratio-to-gnr2) rows; mirrors relative-runtime
    reporting. The reference falls back to the first method without gnr2."""
    methods = [m for m, _ in result.timings]
    ref = "gnr2" if "gnr2" in methods else methods[0]
    ref_total = dict(result.timings)[ref]
    return tuple((m, t, t / ref_total if ref_total > 0 else float("nan"))
                 for m, t in result.timings)
