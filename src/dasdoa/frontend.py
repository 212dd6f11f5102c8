"""Spectral frontend: turn time-domain multichannel records into per-bin
narrowband snapshots Z_l, form per-bin sample covariances, and rank bins by
eigenvalue separation.

The bin correlation uses v_l = [1, z_l, ..., z_l^(N-1)] with z_l = e^{+2i pi l/N}
(a +i DFT), so a plane wave arriving under the advance convention of
`simulate.delay_channels` produces Z proportional to the e^{-j...} steering
vector at the bin frequency.

The narrowband simulation path does not come through here: snapshot-domain
scenarios feed estimators directly with F = N snapshots.
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
    maps index l to l*fs/N hertz."""

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
        if idx.min() < 0 or idx.max() >= self.n_fft:
            raise ConfigError("bin indices must satisfy 0 <= l < N")
        if np.any(np.diff(idx) <= 0):
            raise ConfigError("bin indices must be distinct and ascending")
        if not self.sample_rate > 0:
            raise ConfigError("sample rate must be positive")

    @property
    def frequencies(self) -> np.ndarray:
        return self.indices * self.sample_rate / self.n_fft

    @cached_property
    def basis(self) -> np.ndarray:
        """(P, N) DFT basis, row p the bin vector of indices[p] (see
        dft_vector); made once per bin set, read-only."""
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
    """All integer bins whose frequency falls inside [f_lo, f_hi]."""
    f_lo, f_hi = two_numbers(bins_hz, "band")
    lo = int(np.ceil(f_lo * n_fft / sample_rate - 1e-9))
    hi = int(np.floor(f_hi * n_fft / sample_rate + 1e-9))
    if hi < lo:
        raise ConfigError(f"band {bins_hz} contains no DFT bins at N={n_fft}")
    return FrequencyBinSet(n_fft, np.arange(max(lo, 0), min(hi, n_fft - 1) + 1),
                           sample_rate)


def dft_vector(ell: int, n: int) -> np.ndarray:
    """[1, z, z^2, ..., z^(N-1)] with z = e^{+2i pi ell/N}."""
    if not 0 <= ell < n:
        raise ConfigError(f"bin index {ell} out of range [0, {n})")
    return np.exp(2j * np.pi * ell * np.arange(n) / n)


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


def sample_covariance(z_bin: np.ndarray) -> np.ndarray:
    """(1/F) sum_f z_f z_f^H for z_bin M x F, formed in z_bin's dtype and
    Hermitian-symmetrized in complex128."""
    if z_bin.ndim != 2 or z_bin.shape[1] < 1:
        raise ConfigError("bin snapshots must be M x F with F >= 1")
    R = np.asarray((z_bin @ z_bin.conj().T) / z_bin.shape[1], dtype=complex)
    return 0.5 * (R + R.conj().T)


def bin_covariances(snapshots: BinSnapshots) -> np.ndarray:
    """(P, M, M) stack of per-bin sample covariances."""
    z = snapshots.z
    R = np.einsum("pmf,pnf->pmn", z, z.conj()) / z.shape[2]
    return 0.5 * (R + np.conj(np.transpose(R, (0, 2, 1))))


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
    scores = np.empty(p_bins)
    for i in range(p_bins):
        ev = np.linalg.eigvalsh(covs[i])[::-1]
        scores[i] = ev[k - 1] / max(ev[k], 1e-300)
    order = np.lexsort((np.arange(p_bins), -scores))
    return np.sort(order[:count])
