"""Broadband fusion and bearing-time records.

Per-bin spatial spectra are fused incoherently: each bin's spectrum is
normalized to unit maximum, then averaged in the linear domain, so loud bins
cannot dominate and per-bin positive scalings drop out.
The refinement estimator re-runs the per-bin solver on the shared refined
grid each round and picks peaks on the fused spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, Dictionary, angle_grid, full_sector, steering_matrix
from .errors import ConfigError
from .estimators import SolverConfig, SpatialSpectrum, check_estimator, \
    fixed_grid_spectrum, qspice_solve
from .frontend import FrequencyBinSet, band_for, band_transform, bin_covariances, \
    frame_count, select_bins
from .refine import RefineConfig, RefineResult, refine_loop
from .simulate import SnapshotMatrix


def fuse_spectra(spectra) -> SpatialSpectrum:
    """Linear-domain mean of unit-max-normalized per-bin spectra.

    spectra: sequence of SpatialSpectrum on one common grid.
    """
    spectra = list(spectra)
    if not spectra:
        raise ConfigError("need at least one spectrum to fuse")
    angles = spectra[0].angles
    for s in spectra[1:]:
        if s.angles.shape != angles.shape or not np.allclose(s.angles, angles):
            raise ConfigError("fuse_spectra requires identical angle grids")
    acc = np.zeros(angles.size)
    for s in spectra:
        acc += s.power / max(s.power.max(), 1e-300)
    fused = acc / len(spectra)
    freq = spectra[0].frequency if len(spectra) == 1 else 0.0
    return SpatialSpectrum(angles, fused, spectra[0].estimator, freq)


def broadband_spectrum(covs, freqs, geometry: ArrayGeometry, angles,
                       convention: str = "broadside", estimator: str = "cbf",
                       k: int | None = None,
                       solver_cfg: SolverConfig | None = None) -> SpatialSpectrum:
    """Fused spectrum of a fixed-grid estimator over the given bins."""
    check_estimator(estimator, k)
    grid = np.asarray(angles, dtype=float)
    spectra = []
    for R, f in zip(covs, freqs):
        A = steering_matrix(geometry, f, grid, convention)
        dictionary = Dictionary(grid, A, float(f), convention, geometry)
        spectra.append(fixed_grid_spectrum(estimator, R, dictionary, k, solver_cfg))
    fused = fuse_spectra(spectra)
    return SpatialSpectrum(fused.angles, fused.power, estimator, 0.0)


def broadband_gnr2(covs, freqs, geometry: ArrayGeometry, k: int,
                   sector=(-90.0, 90.0), convention: str = "broadside",
                   solver_cfg: SolverConfig | None = None,
                   refine_cfg: RefineConfig | None = None) -> RefineResult:
    """Grid-neighborhood refinement on the fused per-bin solver spectrum."""
    check_estimator("gnr2", k)
    scfg = solver_cfg or SolverConfig()
    rcfg = refine_cfg or RefineConfig()

    def solve(angles):
        grid = np.asarray(angles, dtype=float)
        spectra = []
        for R, f in zip(covs, freqs):
            A = steering_matrix(geometry, f, grid, convention)
            power = qspice_solve(R, A, scfg).powers.signal
            spectra.append(SpatialSpectrum(grid, power, "qspice", float(f)))
        return fuse_spectra(spectra).power

    est, shortfall, rounds, grid, power = refine_loop(solve, sector, k, rcfg)
    return RefineResult(est, SpatialSpectrum(grid, power, "qspice-gnr2", 0.0),
                        rounds, shortfall)


@dataclass(frozen=True)
class BearingTimeRecord:
    """Stacked fused spectra over analysis frames; power stored in dB."""

    times: np.ndarray           # frame-center times, seconds, monotone
    angles: np.ndarray          # common angle grid, degrees
    power_db: np.ndarray        # frames x angles
    estimator: str
    estimates: tuple = ()       # per-frame refined angles (gnr2 only)


def _frame_pipeline(record, geometry, bins, n_fft, estimator, k, sector, step,
                    convention, select_count, solver_cfg, refine_cfg):
    """Validate a broadband request. Returns its angle grid and the pipeline
    of one analysis frame, segment -> (fused spectrum, estimates)."""
    if record.domain != "time":
        raise ConfigError("broadband estimation expects a time-domain record")
    check_estimator(estimator, k)
    if select_count is not None and k is None:
        raise ConfigError("bin selection needs the source count k")
    if not isinstance(bins, FrequencyBinSet):
        bins = band_for(bins, n_fft, record.sample_rate)
    angles = angle_grid(full_sector(convention) if sector is None else sector, step)

    def frame(segment):
        """transform -> covariances -> select -> fused spectrum."""
        snaps = band_transform(segment, bins)
        covs = bin_covariances(snaps)
        freqs = bins.frequencies
        if select_count is not None:
            # rank by dominant-component gap: a tonal/harmonic bin carries one
            # source's line, so single-component dominance marks the informative
            # bins; ranking by the k-source gap instead favors continuum bins
            # where close sources blur together
            pos = select_bins(covs, 1, select_count)
            covs, freqs = covs[pos], freqs[pos]
        if estimator == "gnr2":
            res = broadband_gnr2(covs, freqs, geometry, k, (angles[0], angles[-1]),
                                 convention, solver_cfg, refine_cfg)
            power = np.interp(angles, res.spectrum.angles, res.spectrum.power)
            fused = SpatialSpectrum(angles, power, "qspice-gnr2", 0.0)
            return fused, tuple(res.angles)
        fused = broadband_spectrum(covs, freqs, geometry, angles, convention,
                                   estimator, k, solver_cfg)
        return fused, ()
    return angles, frame


def broadband_estimate(record: SnapshotMatrix, geometry: ArrayGeometry,
                       bins: FrequencyBinSet | tuple = (50.0, 1050.0),
                       n_fft: int = 512, estimator: str = "cbf",
                       k: int | None = None, sector=None, step: float = 1.0,
                       convention: str = "broadside",
                       select_count: int | None = None,
                       solver_cfg: SolverConfig | None = None,
                       refine_cfg: RefineConfig | None = None):
    """Single-shot broadband pipeline over the whole record.

    Returns (SpatialSpectrum, estimates tuple); estimates are non-empty for
    the refinement estimator only.
    """
    _, frame = _frame_pipeline(record, geometry, bins, n_fft, estimator, k,
                               sector, step, convention, select_count,
                               solver_cfg, refine_cfg)
    return frame(record.data)


def btr(record: SnapshotMatrix, geometry: ArrayGeometry,
        bins: FrequencyBinSet | tuple = (50.0, 1050.0), n_fft: int = 512,
        frame_seconds: float = 1.0, frame_hop_fraction: float = 0.5,
        estimator: str = "cbf", k: int | None = None,
        sector=None, step: float = 1.0, convention: str = "broadside",
        select_count: int | None = None,
        solver_cfg: SolverConfig | None = None,
        refine_cfg: RefineConfig | None = None) -> BearingTimeRecord:
    """Bearing-time record: the broadband pipeline per analysis frame.

    bins: FrequencyBinSet or an (f_lo, f_hi) band resolved against n_fft.
    select_count None processes all bins (default). A record exactly one
    frame long produces a single row equal to the single-shot pipeline.
    """
    angles, frame = _frame_pipeline(record, geometry, bins, n_fft, estimator, k,
                                    sector, step, convention, select_count,
                                    solver_cfg, refine_cfg)
    fs = record.sample_rate
    frame_len = int(round(frame_seconds * fs))
    hop = max(int(round(frame_len * frame_hop_fraction)), 1)
    n_frames = frame_count(record.n_samples, frame_len, hop)
    times = (np.arange(n_frames) * hop + frame_len / 2) / fs
    rows = np.empty((n_frames, angles.size))
    all_est = []
    for i in range(n_frames):
        fused, est = frame(record.data[:, i * hop: i * hop + frame_len])
        rows[i] = fused.power_db
        all_est.append(est)
    return BearingTimeRecord(times, angles, rows, estimator, tuple(all_est))
