"""Broadband fusion and bearing-time records.

Per-bin spatial spectra are fused incoherently: each bin's spectrum is
normalized to unit maximum, then averaged in the linear domain, so loud bins
cannot dominate and per-bin positive scalings drop out.
broadband_spectrum turns a fixed-grid estimator's bins on one angle grid
into the fused spectrum, with the solver's bins (spice, qspice) as one
stacked solve; the refinement estimator calls it with qspice on each
round's grid and picks peaks on the fused spectrum. The bins are a stack
in the estimators' sense: covariances (P, M, M) on the steering stack
(P, M, G) that arrays.steering_stack builds, a matrix per bin.

A broadband request (broadband_estimate, or btr over all its frames) takes
`bins` as an (f_lo, f_hi) band in Hz and builds its bin set at the record's
own sample rate. It builds what does not depend on the frame once: the bins
and their real half basis, the angle grid and, for the fixed-grid
estimators, all its bins' steering stack, whether or not its frames select
bins. Overlapping frames share their snapshots: when the frame hop is a
multiple of the DFT hop N/2, a frame keeps the snapshots at the sample
offsets of the frame before and runs frontend.band_transform only on the
segment of its new ones, so a record's snapshots are each computed once.
Each frame then runs the bin covariances, the bin selection (which indexes
the stack) and estimators.fixed_grid_powers: one covariance check for the
kept bins and one (P, G) power matrix (for CBF one batched product, in its
coarray form when the geometry that the stack was built from is a uniform
line array), fused in one reduction and picked (Estimator.picks). A
broadband_gnr2 frame builds its own stack per refine round, since the
round's grid changes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry, angle_grid, sector_or_full, steering_stack
from .errors import ConfigError
from .estimators import CBF_GUARD, SolverConfig, SpatialSpectrum, check_estimator, \
    fixed_grid_powers
# not called here (fixed_grid_powers runs the solver), but kept importable
# from here: perfbench's tracer patches it in each dasdoa module that holds it
from .estimators import qspice_solve  # noqa: F401
from .frontend import BinSnapshots, band_for, band_transform, bin_covariances, \
    frame_count, select_bins
from .refine import RefineConfig, RefineResult, _refine_result, refine_loop
from .simulate import SnapshotMatrix

# the default band in Hz and DFT length of broadband_estimate and btr
_BAND, _N_FFT = (50.0, 1050.0), 512


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
    fused = _fuse_rows([s.power for s in spectra])
    freq = spectra[0].frequency if len(spectra) == 1 else 0.0
    return SpatialSpectrum(angles, fused, spectra[0].estimator, freq)


def _fuse_rows(powers) -> np.ndarray:
    """The fusion of per-bin powers on one grid (a (P, G) matrix or P
    rows), normalized to unit maximum, added in row order onto zero: a
    running sum, since numpy sums one column pairwise (+ 0.0 for -0.0)."""
    powers = np.asarray(powers, dtype=float)
    unit = powers / np.maximum(powers.max(axis=1, keepdims=True), 1e-300)
    return (np.cumsum(unit, axis=0)[-1] + 0.0) / len(powers)


def broadband_spectrum(covs, freqs, geometry: ArrayGeometry, angles,
                       convention: str = "broadside", estimator: str = "cbf",
                       k: int | None = None,
                       solver_cfg: SolverConfig | None = None) -> SpatialSpectrum:
    """Fused spectrum of a fixed-grid estimator over the frequency bins
    (covariance covs[i] at freqs[i]) on one angle grid; spice and qspice
    solve the bins as one stack."""
    check_estimator(estimator, k)
    if not len(freqs):
        raise ConfigError("need at least one frequency bin")
    if len(covs) != len(freqs):
        raise ConfigError(f"{len(covs)} covariances for {len(freqs)} frequency bins")
    grid = np.asarray(angles, dtype=float)
    power, _ = fixed_grid_powers(estimator, covs,
                                 steering_stack(geometry, freqs, grid, convention),
                                 k, solver_cfg, geometry)
    return SpatialSpectrum(grid, _fuse_rows(power), estimator, 0.0)


def broadband_gnr2(covs, freqs, geometry: ArrayGeometry, k: int,
                   sector=None, convention: str = "broadside",
                   solver_cfg: SolverConfig | None = None,
                   refine_cfg: RefineConfig | None = None) -> RefineResult:
    """Grid-neighborhood refinement on the fused per-bin solver spectrum:
    each round fuses the bins' q-SPICE spectra on the round's grid."""
    check_estimator("gnr2", k)
    return _refine_result(refine_loop(
        lambda angles: broadband_spectrum(covs, freqs, geometry, angles, convention,
                                          "qspice", k, solver_cfg).power,
        sector_or_full(sector, convention), k, refine_cfg), 0.0)


@dataclass(frozen=True)
class BearingTimeRecord:
    """Stacked fused spectra over analysis frames; power stored in dB."""

    times: np.ndarray           # frame-center times, seconds, monotone
    angles: np.ndarray          # common angle grid, degrees
    power_db: np.ndarray        # frames x angles
    estimator: str
    estimates: tuple = ()       # per-frame picks, given k


def _frame_pipeline(record, geometry, bins, n_fft, estimator, k, sector, step,
                    convention, select_count, solver_cfg, refine_cfg, cbf_guard):
    """Validate a broadband request and build what its frames share. Returns
    its frequency bins, built at the record's rate, its angle grid and the
    pipeline of one analysis frame, its BinSnapshots -> (fused spectrum, estimates)."""
    if record.domain != "time":
        raise ConfigError("broadband estimation expects a time-domain record")
    entry = check_estimator(estimator, k)
    if select_count is not None and k is None:
        raise ConfigError("bin selection needs the source count k")
    bins = band_for(bins, n_fft, record.sample_rate)
    angles = angle_grid(sector_or_full(sector, convention), step)
    freqs = bins.frequencies
    if not entry.refines:
        A = steering_stack(geometry, freqs, angles, convention)

    def frame(snapshots):
        """covariances -> select -> fused spectrum."""
        covs = bin_covariances(snapshots)
        pos = slice(None)
        if select_count is not None:
            # rank by dominant-component gap: a tonal/harmonic bin carries one
            # source's line, so single-component dominance marks the informative
            # bins; ranking by the k-source gap instead favors continuum bins
            # where close sources blur together
            pos = select_bins(covs, 1, select_count)
            covs = covs[pos]
        if entry.refines:
            res = broadband_gnr2(covs, freqs[pos], geometry, k,
                                 sector_or_full(sector, convention), convention,
                                 solver_cfg, refine_cfg)
            power = np.interp(angles, res.spectrum.angles, res.spectrum.power)
            fused = SpatialSpectrum(angles, power, "qspice-gnr2", 0.0)
            return fused, tuple(res.angles)
        power, _ = fixed_grid_powers(estimator, covs, A[pos], k, solver_cfg, geometry)
        fused = SpatialSpectrum(angles, _fuse_rows(power), estimator, 0.0)
        return fused, tuple(entry.picks(fused, k, cbf_guard))
    return bins, angles, frame


def _frame_snapshots(data, bins, frame_len, hop, n_frames):
    """The BinSnapshots of each frame, frame i the frame_len samples from
    sample i * hop. When hop is a multiple of the DFT hop N/2, a frame's
    first snapshots lie at the sample offsets of the frame before's last
    ones: it keeps those and transforms only the segment of its new ones.
    Otherwise each frame transforms its whole segment."""
    snaps = band_transform(data[:, :frame_len], bins)
    half, per_frame = snaps.hop, snaps.n_frames
    shared = max(per_frame - hop // half, 0) if hop % half == 0 else 0
    yield snaps
    for start in range(hop, n_frames * hop, hop):
        new = band_transform(data[:, start + shared * half: start + frame_len], bins)
        snaps = BinSnapshots(np.concatenate((snaps.z[:, :, per_frame - shared:], new.z),
                                            axis=2), bins) if shared else new
        yield snaps


def broadband_estimate(record: SnapshotMatrix, geometry: ArrayGeometry,
                       bins: tuple = _BAND,
                       n_fft: int = _N_FFT, estimator: str = "cbf",
                       k: int | None = None, sector=None, step: float = 1.0,
                       convention: str = "broadside",
                       select_count: int | None = None,
                       solver_cfg: SolverConfig | None = None,
                       refine_cfg: RefineConfig | None = None,
                       cbf_guard: float = CBF_GUARD):
    """Single-shot broadband pipeline over the whole record (bins as in btr).

    Returns (SpatialSpectrum, estimates tuple): given k, the refinement's
    estimates or else the picks of Estimator.picks, CBF's `cbf_guard` apart.
    """
    bins, _, frame = _frame_pipeline(record, geometry, bins, n_fft, estimator, k,
                                     sector, step, convention, select_count,
                                     solver_cfg, refine_cfg, cbf_guard)
    return frame(band_transform(record.data, bins))


def btr(record: SnapshotMatrix, geometry: ArrayGeometry,
        bins: tuple = _BAND, n_fft: int = _N_FFT,
        frame_seconds: float = 1.0, frame_hop_fraction: float = 0.5,
        estimator: str = "cbf", k: int | None = None,
        sector=None, step: float = 1.0, convention: str = "broadside",
        select_count: int | None = None,
        solver_cfg: SolverConfig | None = None,
        refine_cfg: RefineConfig | None = None) -> BearingTimeRecord:
    """Bearing-time record: the broadband pipeline per analysis frame.

    bins: an (f_lo, f_hi) band in Hz, its bins at n_fft and the record's rate.
    frame_seconds: frame length, a positive finite number of seconds that
    spans at least one DFT length; frame_hop_fraction: the hop between
    frames as a positive finite fraction of the frame length, at least one
    sample. select_count None processes all bins (default). A record exactly
    one frame long produces a single row equal to the single-shot pipeline.
    """
    bins, angles, frame = _frame_pipeline(record, geometry, bins, n_fft, estimator, k,
                                          sector, step, convention, select_count,
                                          solver_cfg, refine_cfg, CBF_GUARD)
    fs = record.sample_rate
    if not (frame_seconds > 0 and np.isfinite(frame_seconds * fs)):
        raise ConfigError(f"frame_seconds must be a positive finite number, "
                          f"got {frame_seconds}")
    frame_len = int(round(frame_seconds * fs))
    if frame_len < bins.n_fft:
        raise ConfigError(f"frame_seconds {frame_seconds} gives a frame of "
                          f"{frame_len} samples, shorter than the DFT length "
                          f"{bins.n_fft}")
    if not (frame_hop_fraction > 0 and np.isfinite(frame_len * frame_hop_fraction)):
        raise ConfigError(f"frame_hop_fraction must be a positive finite number, "
                          f"got {frame_hop_fraction}")
    hop = int(round(frame_len * frame_hop_fraction))
    if hop < 1:
        raise ConfigError(f"frame_hop_fraction {frame_hop_fraction} of a "
                          f"{frame_len}-sample frame is a hop of under one sample")
    n_frames = frame_count(record.n_samples, frame_len, hop)
    times = (np.arange(n_frames) * hop + frame_len / 2) / fs
    rows = np.empty((n_frames, angles.size))
    all_est = []
    snapshots = _frame_snapshots(record.data, bins, frame_len, hop, n_frames)
    for i, snaps in enumerate(snapshots):
        fused, est = frame(snaps)
        rows[i] = fused.power_db
        all_est.append(est)
    return BearingTimeRecord(times, angles, rows, estimator, tuple(all_est))
