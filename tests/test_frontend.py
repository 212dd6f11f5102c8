import numpy as np
import pytest
from numpy.testing import assert_allclose

from dasdoa.arrays import uniform_line_array, steering_matrix
from dasdoa.errors import ConfigError
from dasdoa.frontend import BinSnapshots, FrequencyBinSet, band_for, \
    band_transform, bin_covariances, dft_vector, frame_count, \
    sample_covariance, select_bins
from dasdoa.simulate import SnapshotMatrix, delay_channels

FS = 5120.0
NFFT = 512


def test_dft_vector_definition():
    v = dft_vector(3, 16)
    assert_allclose(v, np.exp(2j * np.pi * 3 * np.arange(16) / 16))
    with pytest.raises(ConfigError):
        dft_vector(16, 16)
    with pytest.raises(ConfigError):
        dft_vector(-1, 16)


def test_band_for_standard_band():
    bins = band_for((100.0, 1000.0), NFFT, FS)
    assert bins.indices[0] == 10 and bins.indices[-1] == 100
    assert_allclose(bins.frequencies, bins.indices * 10.0)
    with pytest.raises(ConfigError):
        band_for((101.0, 104.0), NFFT, FS)   # between bins 10 and 11
    for band in ((100.0,), (100.0, 500.0, 900.0)):
        with pytest.raises(ConfigError, match="two numbers"):
            band_for(band, NFFT, FS)


def test_bin_set_validation_and_subset():
    with pytest.raises(ConfigError):
        FrequencyBinSet(NFFT, np.array([5, 5, 9]), FS)   # duplicate
    with pytest.raises(ConfigError):
        FrequencyBinSet(NFFT, np.array([5, 600]), FS)    # out of range


def test_frame_count_arithmetic():
    assert frame_count(NFFT, NFFT, NFFT // 2) == 1
    assert frame_count(NFFT + 256, NFFT, 256) == 2
    assert frame_count(10240, NFFT, 256) == 39
    with pytest.raises(ConfigError):
        frame_count(100, NFFT, 256)


def test_band_transform_exact_bin_tone():
    # real cosine at an exact bin frequency correlates to amplitude * N/2
    ell, amp = 20, 1.7
    t = np.arange(NFFT) / FS
    x = amp * np.cos(2 * np.pi * (ell * FS / NFFT) * t)
    rec = np.vstack([x, x])
    bins = FrequencyBinSet(NFFT, np.array([ell]), FS)
    out = band_transform(rec, bins)
    assert isinstance(out, BinSnapshots)
    assert out.z.shape == (1, 2, 1)
    assert_allclose(np.abs(out.z[0, :, 0]), amp * NFFT / 2, rtol=1e-10)


def test_dft_basis_is_made_once_per_bin_set():
    bins = FrequencyBinSet(NFFT, np.array([3, 20, 41]), FS)
    V = bins.basis
    assert bins.basis is V and not V.flags.writeable
    for row, ell in zip(V, bins.indices):
        assert_allclose(row, dft_vector(ell, NFFT), rtol=1e-12)


def test_band_transform_plane_wave_matches_steering():
    # a delayed plane wave must emerge proportional to a(theta) at the bin
    geom = uniform_line_array(6, spacing=1.25)
    ell = 25
    f_hz = ell * FS / NFFT
    theta = 33.0
    t = np.arange(4 * NFFT) / FS
    wave = np.cos(2 * np.pi * f_hz * t)
    y = delay_channels(wave, geom, theta, FS)
    bins = FrequencyBinSet(NFFT, np.array([ell]), FS)
    z = band_transform(y, bins).z[0, :, 0]
    a = steering_matrix(geom, f_hz, np.array([theta]))[:, 0]
    assert_allclose(z / z[0], a / a[0], atol=1e-9)


def test_band_transform_frames_hop_half_a_dft_length():
    rec = np.zeros((3, 3 * NFFT))
    out = band_transform(rec, FrequencyBinSet(NFFT, np.arange(10, 13), FS))
    assert out.n_frames == 5 and out.hop == NFFT // 2


def test_band_transform_rejects_snapshot_domain():
    block = SnapshotMatrix(np.ones((3, 600), dtype=complex),
                           "narrowband-snapshot")
    bins = FrequencyBinSet(NFFT, np.array([10]), FS)
    with pytest.raises(ConfigError):
        band_transform(block, bins)


def test_sample_covariance_matches_bin_covariances():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 5, 7)) + 1j * rng.standard_normal((4, 5, 7))
    bins = FrequencyBinSet(NFFT, np.arange(4), FS)
    covs = bin_covariances(BinSnapshots(z, bins, NFFT // 2))
    assert covs.shape == (4, 5, 5)
    for p in range(4):
        r = sample_covariance(z[p])
        assert_allclose(covs[p], r, atol=1e-12)
        assert_allclose(r, r.conj().T, atol=1e-12)


def test_sample_covariance_of_complex64_is_hermitian_complex128():
    # a record's complex64 product, cast before symmetrizing: the estimators'
    # own symmetrization then leaves it unchanged
    rng = np.random.default_rng(8)
    z = (rng.standard_normal((6, 25))
         + 1j * rng.standard_normal((6, 25))).astype(np.complex64)
    r = sample_covariance(z)
    assert r.dtype == np.complex128
    assert np.array_equal(r, r.conj().T)
    product = (z @ z.conj().T / 25).astype(np.complex128)
    assert np.array_equal(r, 0.5 * (product + product.conj().T))
    assert np.array_equal(0.5 * (r + r.conj().T), r)


def test_select_bins_ranks_by_eigen_gap():
    rng = np.random.default_rng(2)
    m = 6
    covs = []
    strengths = [1.0, 50.0, 5.0, 120.0, 0.5]
    for s in strengths:
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        covs.append(s * np.outer(a, a.conj()) + np.eye(m))
    covs = np.array(covs)
    assert list(select_bins(covs, 1, 2)) == [1, 3]
    assert list(select_bins(covs, 1, 3)) == [1, 2, 3]


def test_select_bins_tie_breaks_low_position():
    m = 4
    r = np.diag([10.0, 1.0, 1.0, 1.0])
    covs = np.array([r, r, r])
    assert list(select_bins(covs, 1, 2)) == [0, 1]


def test_select_bins_validation():
    covs = np.stack([np.eye(4)] * 3)
    with pytest.raises(ConfigError):
        select_bins(covs, 0, 1)
    with pytest.raises(ConfigError):
        select_bins(covs, 4, 1)
    with pytest.raises(ConfigError):
        select_bins(covs, 1, 9)
