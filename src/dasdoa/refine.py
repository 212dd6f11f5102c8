"""Grid-neighborhood refinement: coarse sparse estimate, then repeatedly
re-estimate on dictionaries densified only around the current peaks.

Round 0 solves on the coarse grid (initial_step over the whole sector) and
picks K peaks. Each refinement round shrinks the step by REFINE_FACTOR = 4
(clamped at target_step) and rebuilds the dictionary as the union of the full
coarse skeleton and, per current estimate, a local grid anchored at that
estimate with half-width NEIGHBORHOOD_HALFWIDTH = 2 x (current step), for at
most MAX_ROUNDS = 8 rounds (a cap that binds only when target_step is below
initial_step / 4^8). Peaks for
the next round are re-picked among the local maxima inside the refinement
windows only (global top-K within the window union), so estimates may split
or migrate within a window but never leave the round-0 neighborhoods: every
window is clipped to the round-0 windows, which caps total drift at
NEIGHBORHOOD_HALFWIDTH x initial_step by construction.

Keeping the coarse skeleton lets spurious energy elsewhere be absorbed by
coarse atoms instead of leaking into the refined zones.

The round logic is written once, as a generator per refinement that yields
each round's grid and is sent that grid's power. refine_lockstep advances
several of them a round at a time and solves each round's grids grouped by
size, so a stack of covariances (a Monte Carlo chunk) makes one stacked
q-SPICE call per round and grid size; refine_loop is the lockstep of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, Dictionary, angle_grid, sector_or_full, \
    steering_matrix, steering_stack
from .errors import ConfigError
from .estimators import CBF_GUARD, SolverConfig, SpatialSpectrum, _pick, \
    check_estimator, fixed_grid_powers, qspice_solve


REFINE_FACTOR = 4
NEIGHBORHOOD_HALFWIDTH = 2
MAX_ROUNDS = 8


@dataclass(frozen=True)
class RefineConfig:
    initial_step: float = 1.0
    target_step: float = 0.05

    def __post_init__(self):
        if not 0 < self.target_step < self.initial_step:
            raise ConfigError("need 0 < target_step < initial_step")


@dataclass(frozen=True)
class RefineResult:
    angles: np.ndarray          # sorted estimates (may be < K on shortfall)
    spectrum: SpatialSpectrum   # solution on the final (refined) grid
    rounds: int                 # refinement rounds run after the coarse round


def _merge_intervals(intervals):
    """Merge overlapping (lo, hi) pairs into disjoint ascending segments."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1e-12:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _containing(segments, x):
    for lo, hi in segments:
        if lo - 1e-9 <= x <= hi + 1e-9:
            return lo, hi
    return None


def _refine_rounds(sector, k, cfg: RefineConfig):
    """The rounds of one refinement, as a generator: it yields each round's
    grid, is sent that grid's nonnegative power, and returns (estimates,
    shortfall, rounds, final_grid, final_power)."""
    coarse = angle_grid(sector, cfg.initial_step)
    power = yield coarse
    est = _pick(power, coarse, k)
    if est.size == 0:
        return est, True, 0, coarse, power

    half0 = NEIGHBORHOOD_HALFWIDTH * cfg.initial_step
    base = _merge_intervals(
        [(max(e - half0, sector[0]), min(e + half0, sector[1])) for e in est])

    grid, step, rounds = coarse, cfg.initial_step, 0
    while step > cfg.target_step and rounds < MAX_ROUNDS:
        new_step = max(step / REFINE_FACTOR, cfg.target_step)
        half = NEIGHBORHOOD_HALFWIDTH * step
        windows, local = [], [coarse]
        for e in est:
            lo, hi = e - half, e + half
            clip = _containing(base, e)
            if clip is not None:
                lo, hi = max(lo, clip[0]), min(hi, clip[1])
            lo, hi = max(lo, sector[0]), min(hi, sector[1])
            windows.append((lo, hi))
            # anchored at e so the estimate stays an exact grid point even
            # when the clamp at target_step breaks step divisibility
            n_half = int(np.floor(half / new_step + 1e-9))
            pts = e + np.arange(-n_half, n_half + 1) * new_step
            local.append(pts[(pts >= lo - 1e-9) & (pts <= hi + 1e-9)])
        windows = _merge_intervals(windows)
        grid = np.unique(np.concatenate(local).round(9))
        grid = grid[(grid >= sector[0] - 1e-9) & (grid <= sector[1] + 1e-9)]
        power = yield grid
        mask = np.zeros(grid.size, dtype=bool)
        for lo, hi in windows:
            mask |= (grid >= lo - 1e-9) & (grid <= hi + 1e-9)
        picks = _pick(np.where(mask, power, -np.inf), grid, k)
        if picks.size == k:
            est = picks
        step, rounds = new_step, rounds + 1
    return est, est.size < k, rounds, grid, power


def refine_lockstep(solve_group, n, sector, k, refine_cfg: RefineConfig | None = None):
    """Run n refinements on one sector in lockstep, a round of all at a time.

    Each round groups the pending grids by size, in problem order, and
    calls solve_group(problems, grids) once per group: the problem indices
    and their grids, all of one size, give back one power row per problem.
    A refinement that ends leaves the rounds that follow. Each problem's
    result is that of refine_loop on it alone when solve_group gives each
    row as a solve of that problem alone would (as a stacked qspice_solve
    does). Returns a list of n (estimates, shortfall, rounds, final_grid,
    final_power).
    """
    cfg = refine_cfg or RefineConfig()
    loops = [_refine_rounds(sector, k, cfg) for _ in range(n)]
    results = [None] * n
    pending = {i: next(loop) for i, loop in enumerate(loops)}
    while pending:
        groups = {}
        for i, grid in pending.items():
            groups.setdefault(grid.size, []).append(i)
        powers = {}
        for idx in groups.values():
            powers.update(zip(idx, solve_group(idx, [pending[i] for i in idx])))
        sent, pending = pending, {}
        for i in sent:
            try:
                pending[i] = loops[i].send(powers[i])
            except StopIteration as stop:
                results[i] = stop.value
    return results


def refine_loop(solve_fn, sector, k, refine_cfg: RefineConfig | None = None):
    """Generic refinement loop: refine_lockstep on one problem.

    solve_fn(angles) -> nonnegative power array on those angles. Every round
    solves to the caller's full tolerance: the window anchoring assumes each
    round's picks are accurate to about one grid step, and early-stopped
    solves break that (a drifted anchor can leave the truth outside the next
    window). Warm-started rounds break it the same way: started from the
    previous round's powers interpolated onto the new grid, a solve meets
    the relative-objective stopping rule sooner (79 and 46 iterations
    against 122 and 95 cold on the c08 case) and its picks lose accuracy:
    the c07 off-grid claim fails (refined MAE 0.053 against its 0.05 bound)
    and table1 gnr2 success at 0 dB falls from 80% to 23%. So every round
    solves cold.
    Returns (estimates, shortfall, rounds, final_grid, final_power); the
    tracer of perfbench reads the round count at index 2, so the flag stays.
    """
    (result,) = refine_lockstep(lambda _, grids: [solve_fn(grids[0])], 1, sector, k,
                                refine_cfg)
    return result


def gnr2_estimate(data, geometry: ArrayGeometry, frequency: float, k: int,
                  sector=None, convention: str = "broadside",
                  solver_cfg: SolverConfig | None = None,
                  refine_cfg: RefineConfig | None = None):
    """Narrowband refinement on a snapshot z (M,) or sample covariance
    (M, M), which gets its RefineResult, or on each covariance of a stack
    (P, M, M), which gets a tuple of P. A stack's refinements run in
    lockstep, with one qspice_solve per round and grid size on a bare
    (P, M, G) steering stack; each problem's result is that of it alone."""
    check_estimator("gnr2", k)
    sector = sector_or_full(sector, convention)
    if np.ndim(data) < 3:
        def solve(angles):
            A = steering_matrix(geometry, frequency, angles, convention)
            return qspice_solve(data, A, solver_cfg).powers.signal

        return _refine_result(refine_loop(solve, sector, k, refine_cfg), frequency)

    covs = np.asarray(data)

    def solve_group(idx, grids):
        A = steering_stack(geometry, frequency, grids, convention)
        return qspice_solve(covs[idx], A, solver_cfg).powers.signal

    return tuple(_refine_result(res, frequency) for res in
                 refine_lockstep(solve_group, len(covs), sector, k, refine_cfg))


def _refine_result(loop_result, frequency) -> RefineResult:
    est, _, rounds, grid, power = loop_result
    return RefineResult(est, SpatialSpectrum(grid, power, "qspice-gnr2", frequency), rounds)


def narrowband_estimate(name: str, data, dictionary: Dictionary, sector,
                        k: int | None = None,
                        solver_cfg: SolverConfig | None = None,
                        refine_cfg: RefineConfig | None = None,
                        cbf_guard: float = CBF_GUARD):
    """Any estimator of estimators.ESTIMATORS on one snapshot or covariance,
    or on each covariance of a stack (P, M, M), all on one dictionary.

    The fixed-grid estimators run on `dictionary` (a stack shares it, in one
    fixed_grid_powers call); gnr2 refines over `sector` with the
    dictionary's geometry, frequency and convention, a stack in lockstep
    (see gnr2_estimate). With a source count k, a fixed-grid spectrum gets
    its entry's picks (Estimator.picks, `cbf_guard` degrees apart for CBF).
    Each problem of a stack gets what it would alone.
    Returns (spectrum, angles), for a stack a tuple of P; angles are fewer
    than k on a shortfall, and empty without k.
    """
    entry = check_estimator(name, k)
    stack = np.ndim(data) == 3
    if entry.refines:
        res = gnr2_estimate(data, dictionary.geometry, dictionary.frequency, k,
                            sector, dictionary.convention, solver_cfg, refine_cfg)
        out = [(r.spectrum, r.angles) for r in (res if stack else (res,))]
    else:
        power, floor = fixed_grid_powers(name, data, dictionary, k, solver_cfg)
        out = []
        for power_i, floor_i in zip(power, floor):
            spectrum = SpatialSpectrum(dictionary.angles, power_i, name,
                                       dictionary.frequency, floor_i)
            out.append((spectrum, entry.picks(spectrum, k, cbf_guard)))
    return tuple(out) if stack else out[0]
