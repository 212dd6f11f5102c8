"""Spectral frontend: turn time-domain multichannel records into per-bin
narrowband snapshots Z_l, form sample covariances, and rank bins by
eigenvalue separation.

The bin correlation uses v_l = [1, z_l, ..., z_l^(N-1)] with z_l = e^{+2i pi l/N}
(a +i DFT), so a plane wave arriving under the advance convention of
`simulate.delay_channels` produces Z proportional to the e^{-j...} steering
vector at the bin frequency. Frames lie N/2 apart, so frame f is the half
blocks f and f + 1, and z_l^{N/2} = e^{i pi l} = (-1)^l: `band_transform`
correlates each N/2-sample block once, in one stacked real product of an
(M x N/2)(N/2 x 2P) product per block against the bins' half basis, and
adds the two halves. Every block's product has that one shape, so a block
has the same bits in every record and run of frames it is part of.
`BinSnapshots` takes its hop N/2 from its bin set, built at a record's rate.

`sample_covariance` forms every covariance, of one snapshot matrix (a
narrowband record) or of a stack (the bins), so a bin's covariance is
bit for bit the narrowband covariance of its snapshots.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import integer, positive_finite, two_numbers
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
        positive_finite(self.sample_rate, "sample rate")
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
    def half_basis(self) -> np.ndarray:
        """(N//2, 2P) real basis of the first N//2 samples: columns 2p and
        2p + 1 hold the real and imaginary parts of [1, z, ..., z^(N//2-1)]
        with z = e^{+2i pi l/N}, l = indices[p], so its complex view is that
        (N//2, P) basis; made once per bin set, read-only."""
        V = np.exp(2j * np.pi * np.outer(np.arange(self.n_fft // 2), self.indices)
                   / self.n_fft)
        W = V.view(float)
        W.flags.writeable = False
        return W


@dataclass(frozen=True)
class BinSnapshots:
    """Per-bin snapshot stacks: z[p, m, f] for bin p, channel m, frame f."""

    z: np.ndarray
    bins: FrequencyBinSet

    @property
    def hop(self) -> int:
        return self.bins.n_fft // 2

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


# Frames per real product: a long record is correlated one run of frames at
# a time, so its float64 copy and its correlations stay a few MB.
RUN_FRAMES = 128


def band_transform(record, bins: FrequencyBinSet) -> BinSnapshots:
    """Correlate each length-N frame of the record, frames h = N//2 apart,
    against the bin vectors (bare correlation, no window).

    Frame f is the half blocks f and f + 1 of h samples (and, for an odd N,
    the sample after them), and bin l's vector over the second block is
    z^h = e^{i pi l (2h/N)} times its vector over the first, (-1)^l for an
    even N. So each half block is correlated once, in one stacked real
    product Y against `FrequencyBinSet.half_basis`, and snapshot f is
    Y_f + z^h Y_(f+1) (plus the last sample's term for an odd N), written
    into the (P, M, F) stack. The stack holds one (M x h)(h x 2P) product per
    half block, not one (M(F+1) x h) product: BLAS may round a row by where
    it lies in a larger product and by how many threads share it, so only a
    shape fixed per block keeps a frame's snapshots the same bits whether a
    frame's own segment or a longer record made them. A record of more than
    RUN_FRAMES frames takes one such product per run of RUN_FRAMES frames.

    record: M x n real array of time samples.
    """
    data = np.asarray(record)
    if data.ndim != 2:
        raise ConfigError("record must be an M x n matrix")
    if np.iscomplexobj(data):
        raise ConfigError(f"a time record must be real, got {data.dtype} samples")
    n_fft, half = bins.n_fft, bins.n_fft // 2
    n_frames = frame_count(data.shape[1], n_fft, half)
    m, ell, odd = data.shape[0], bins.indices, n_fft % 2
    shift = np.exp(2j * np.pi * ell * half / n_fft) if odd else (-1.0) ** ell
    z = np.empty((ell.size, m, n_frames), dtype=complex)
    for f0 in range(0, n_frames, RUN_FRAMES):
        f1 = min(f0 + RUN_FRAMES, n_frames)
        blocks = np.ascontiguousarray(data[:, f0 * half:(f1 + 1) * half], dtype=float)
        y = (blocks.reshape(m, -1, half).transpose(1, 0, 2)
             @ bins.half_basis).view(complex)
        out = z[:, :, f0:f1].transpose(2, 1, 0)
        np.multiply(y[1:], shift, out=out)
        out += y[:-1]
        if odd:
            out += (data[:, (f0 + 2) * half::half][:, :f1 - f0].T[:, :, None]
                    * np.exp(-2j * np.pi * ell / n_fft))
    return BinSnapshots(z, bins)


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
    integer(k, "source count k")
    integer(count, "bin count")
    if not 1 <= k < m:
        raise ConfigError(f"source count k must satisfy 1 <= k < M={m}")
    if not 1 <= count <= p_bins:
        raise ConfigError(f"count must lie in [1, {p_bins}]")
    ev = np.linalg.eigvalsh(covs)          # ascending along the last axis
    scores = ev[:, m - k] / np.maximum(ev[:, m - k - 1], 1e-300)
    order = np.lexsort((np.arange(p_bins), -scores))
    return np.sort(order[:count])
