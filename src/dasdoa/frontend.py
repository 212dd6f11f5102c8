"""Spectral frontend: turn time-domain multichannel records into per-bin
narrowband snapshots Z_l, form sample covariances, and rank bins by
eigenvalue separation.

The bin correlation uses v_l = [1, z_l, ..., z_l^(N-1)] with z_l = e^{+2i pi l/N}
(a +i DFT), so a plane wave arriving under the advance convention of
`simulate.delay_channels` produces Z proportional to the e^{-j...} steering
vector at the bin frequency.

`sample_covariance` forms every covariance, of one snapshot matrix (a
narrowband record) or of a stack (the bins), so a bin's covariance is
bit for bit the narrowband covariance of its snapshots.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import two_numbers
from .errors import ConfigError


@dataclass(frozen=True)
class FrequencyBinSet:
    """DFT length, distinct ascending bin indices, and the sample rate that
    maps index l to l*fs/N hertz. The band rule: each bin lies strictly
    between the DC bin and N/2, so every frequency lies inside (0, fs/2)."""

    n_fft: int
    indices: np.ndarray
    sample_rate: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        object.__setattr__(self, "indices", idx)
        if self.n_fft < 1:
            raise ConfigError("DFT length must be >= 1")
        if idx.ndim != 1 or idx.size < 1:
            raise ConfigError("need at least one bin index")
        if np.any(np.diff(idx) <= 0):
            raise ConfigError("bin indices must be distinct and ascending")
        if not (self.sample_rate > 0 and np.isfinite(self.sample_rate)):
            raise ConfigError(f"sample rate must be a positive finite number, "
                              f"got {self.sample_rate}")
        if idx[0] < 1 or 2 * idx[-1] >= self.n_fft:
            n, fs = self.n_fft, self.sample_rate
            raise ConfigError(
                f"bins {idx[0]}..{idx[-1]} of N={n} ({idx[0] * fs / n:g}..{idx[-1] * fs / n:g}"
                f" Hz) at rate {fs:g} Hz must lie inside (0, fs/2) = (0, {fs / 2:g}) Hz, "
                f"off the DC and Nyquist bins")

    @property
    def frequencies(self) -> np.ndarray:
        return self.indices * self.sample_rate / self.n_fft

    @cached_property
    def basis(self) -> np.ndarray:
        """(P, N) DFT basis, row p the bin vector [1, z, ..., z^(N-1)] with
        z = e^{+2i pi l/N}, l = indices[p]; made once per bin set, read-only."""
        V = np.exp(2j * np.pi * np.outer(self.indices, np.arange(self.n_fft)) / self.n_fft)
        V.flags.writeable = False
        return V


@dataclass(frozen=True)
class BinSnapshots:
    """Per-bin snapshot stacks: z[p, m, f] for bin p, channel m, frame f."""

    z: np.ndarray
    bins: FrequencyBinSet
    hop: int

    @property
    def n_frames(self) -> int:
        return self.z.shape[2]


def band_for(bins_hz: tuple, n_fft: int, sample_rate: float) -> FrequencyBinSet:
    """The bin set of all integer bins l with frequency in [f_lo, f_hi]."""
    f_lo, f_hi = two_numbers(bins_hz, "band")
    lo = int(np.ceil(f_lo * n_fft / sample_rate - 1e-9))
    hi = int(np.floor(f_hi * n_fft / sample_rate + 1e-9))
    if hi < lo:
        raise ConfigError(f"band {bins_hz} contains no DFT bins at N={n_fft}")
    return FrequencyBinSet(n_fft, np.arange(lo, hi + 1), sample_rate)


def frame_count(n_total: int, frame_len: int, hop: int) -> int:
    if frame_len < 1 or hop < 1:
        raise ConfigError("frame length and hop must be >= 1")
    if n_total < frame_len:
        raise ConfigError(f"record of {n_total} samples is shorter than one "
                          f"frame ({frame_len})")
    return (n_total - frame_len) // hop + 1


def band_transform(record, bins: FrequencyBinSet) -> BinSnapshots:
    """Correlate each length-N frame of the record, frames N/2 apart, against
    the bin vectors (bare correlation, no window).

    record: M x n array of time samples.
    """
    data = np.asarray(record)
    if data.ndim != 2:
        raise ConfigError("record must be an M x n matrix")
    n_fft = bins.n_fft
    hop = n_fft // 2
    n_frames = frame_count(data.shape[1], n_fft, hop)
    V = bins.basis
    z = np.empty((bins.indices.size, data.shape[0], n_frames), dtype=complex)
    for f in range(n_frames):
        frame = data[:, f * hop: f * hop + n_fft]
        z[:, :, f] = V @ frame.T
    return BinSnapshots(z, bins, hop)


def sample_covariance(z: np.ndarray) -> np.ndarray:
    """(1/F) sum_f z_f z_f^H of z (M, F), or of each matrix of a stack
    (..., M, F): one product in z's dtype, symmetrized in complex128."""
    if z.ndim < 2 or z.shape[-1] < 1:
        raise ConfigError("snapshots must be M x F (or a stack of them) with F >= 1")
    R = np.asarray((z @ z.conj().swapaxes(-1, -2)) / z.shape[-1], dtype=complex)
    return 0.5 * (R + R.conj().swapaxes(-1, -2))


def bin_covariances(snapshots: BinSnapshots) -> np.ndarray:
    """(P, M, M) per-bin sample covariances: sample_covariance of the stack."""
    return sample_covariance(snapshots.z)


def select_bins(covariances: np.ndarray, k: int, count: int) -> np.ndarray:
    """Positions of the `count` bins with the largest eigenvalue-gap score
    lambda_k / lambda_(k+1) (eigenvalues descending). Scale-invariant; ties
    break toward the lower bin position. Returned positions are ascending.
    """
    covs = np.asarray(covariances)
    if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
        raise ConfigError("covariances must be a (P, M, M) stack")
    p_bins, m = covs.shape[0], covs.shape[1]
    if not 1 <= k < m:
        raise ConfigError(f"source count k must satisfy 1 <= k < M={m}")
    if not 1 <= count <= p_bins:
        raise ConfigError(f"count must lie in [1, {p_bins}]")
    ev = np.linalg.eigvalsh(covs)          # ascending along the last axis
    scores = ev[:, m - k] / np.maximum(ev[:, m - k - 1], 1e-300)
    order = np.lexsort((np.arange(p_bins), -scores))
    return np.sort(order[:count])
