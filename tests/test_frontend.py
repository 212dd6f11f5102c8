import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from dasdoa.arrays import uniform_line_array, steering_matrix
from dasdoa import frontend
from dasdoa.errors import ConfigError
from dasdoa.frontend import BinSnapshots, FrequencyBinSet, band_for, \
    band_transform, bin_covariances, frame_count, \
    sample_covariance, select_bins
from dasdoa.simulate import delay_channels

FS = 5120.0
NFFT = 512


@pytest.mark.parametrize("band", [(2000.0, 3000.0), (2000.0, 2560.0), (0.0, 100.0),
                                  (-50.0, 100.0), (-100.0, -50.0)])
def test_band_for_rejects_dc_and_bins_past_nyquist(band):
    # bins 0 and l >= N/2 are not positive frequencies of a real record
    with pytest.raises(ConfigError, match=r"inside \(0, fs/2\) = \(0, 2560\) Hz"):
        band_for(band, NFFT, FS)


def test_band_for_standard_band():
    bins = band_for((100.0, 1000.0), NFFT, FS)
    assert bins.indices[0] == 10 and bins.indices[-1] == 100
    assert_allclose(bins.frequencies, bins.indices * 10.0)
    assert band_for((1.0, 2559.0), NFFT, FS).indices[[0, -1]].tolist() == [1, 255]
    assert band_for((0.5, 31.0), 63, 63.0).indices[[0, -1]].tolist() == [1, 31]   # odd N
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
    # the first bin above DC and the last below N/2
    assert FrequencyBinSet(NFFT, np.array([1, 255]), FS).indices.tolist() == [1, 255]


@pytest.mark.parametrize("indices", [[0], [0, 5], [256], [5, 256], [300], [200, 300]])
def test_bin_set_holds_the_band_rule(indices):
    # the bin set itself keeps 0 < l < N/2, however it was built
    with pytest.raises(ConfigError, match=rf"bins {indices[0]}\.\.{indices[-1]} of "
                       r"N=512 .* at rate 5120 Hz must lie inside \(0, fs/2\) = "
                       r"\(0, 2560\) Hz"):
        FrequencyBinSet(NFFT, np.array(indices), FS)


@pytest.mark.parametrize("rate", [np.inf, np.nan, 0.0, -FS])
def test_bin_set_rejects_a_rate_that_is_not_positive_and_finite(rate):
    with pytest.raises(ConfigError, match="sample rate must be a positive finite"):
        FrequencyBinSet(NFFT, np.array([5]), rate)


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
    W = bins.half_basis
    assert bins.half_basis is W and not W.flags.writeable
    assert W.shape == (NFFT // 2, 6) and W.dtype == np.float64
    for p, ell in enumerate(bins.indices):
        # columns 2p, 2p + 1: the real and imaginary parts of
        # [1, z, ..., z^(N/2-1)] with z = e^{+2i pi l/N}
        v = W[:, 2 * p] + 1j * W[:, 2 * p + 1]
        assert_allclose(v, np.exp(2j * np.pi * ell * np.arange(NFFT // 2) / NFFT),
                        rtol=1e-12)


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_fft=st.integers(3, 80), m=st.integers(1, 5),
       frames=st.integers(1, 6), extra=st.integers(0, 40), lead=st.integers(0, 5),
       dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
def test_band_transform_is_the_written_out_correlation(seed, n_fft, m, frames, extra,
                                                       lead, dtype, data):
    # z[p, m, f] = sum_n x[m, f h + n] e^{+2i pi l_p n/N}, h = N//2, for odd
    # and even bins and DFT lengths, float32 and float64 records, lengths
    # that leave a partial half block, and a segment view of a longer record
    half = n_fft // 2
    n = n_fft + (frames - 1) * half + extra % half
    ell = np.array(sorted(data.draw(st.sets(st.integers(1, (n_fft - 1) // 2), min_size=1))))
    rng = np.random.default_rng(seed)
    record = rng.standard_normal((m, lead + n + 3)).astype(dtype)
    x = record[:, lead:lead + n]
    bins = FrequencyBinSet(n_fft, ell, FS)
    z = band_transform(x, bins).z
    n_frames = (n - n_fft) // half + 1
    expect = np.empty((ell.size, m, n_frames), dtype=complex)
    for f in range(n_frames):
        frame = x[:, f * half:f * half + n_fft].astype(float)
        for p, l_p in enumerate(ell):
            expect[p, :, f] = (frame * np.exp(2j * np.pi * l_p * np.arange(n_fft)
                                              / n_fft)).sum(axis=1)
    assert z.shape == expect.shape and z.dtype == np.complex128
    assert np.abs(z - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("n_fft", [64, 63])
def test_band_transform_runs_of_frames_keep_the_bits(n_fft, monkeypatch):
    # a long record is correlated a run of frames at a time; each half
    # block has a product of its own, of one shape, so runs change no bit
    record = np.random.default_rng(5).standard_normal((3, 40 * n_fft)).astype(np.float32)
    bins = FrequencyBinSet(n_fft, np.arange(1, (n_fft + 1) // 2), FS)
    whole = band_transform(record, bins).z
    assert whole.shape[2] < frontend.RUN_FRAMES
    monkeypatch.setattr(frontend, "RUN_FRAMES", 7)
    assert band_transform(record, bins).z.tobytes() == whole.tobytes()


@pytest.mark.parametrize("m, n_fft, lo, hi", [(8, 512, 10, 100), (5, 127, 1, 63)])
def test_band_transform_of_a_segment_keeps_the_whole_records_bits(m, n_fft, lo, hi):
    # a segment that starts on a half block has the whole record's snapshots
    # of its frames, bit for bit, at any length and at sizes where BLAS
    # splits a product over threads: a frame's snapshots must not depend on
    # what record made them (the BTR reuses those of the frame before)
    half = n_fft // 2
    record = np.random.default_rng(3).standard_normal((m, 40 * n_fft)).astype(np.float32)
    bins = FrequencyBinSet(n_fft, np.arange(lo, hi + 1), FS)
    whole = band_transform(record, bins).z
    for start in (1, 3, 8, 13):
        for frames in (1, 3, 11, 40):
            seg = record[:, start * half:start * half + n_fft + (frames - 1) * half]
            assert (band_transform(seg, bins).z.tobytes()
                    == whole[:, :, start:start + frames].tobytes())


def test_band_transform_rejects_complex_samples():
    # the real product would drop the imaginary part
    rec = np.ones((2, NFFT), dtype=complex)
    with pytest.raises(ConfigError, match="a time record must be real, got complex128"):
        band_transform(rec, FrequencyBinSet(NFFT, np.array([10]), FS))


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


@given(seed=st.integers(0, 2 ** 16), p=st.integers(1, 8), m=st.integers(1, 12),
       f=st.integers(1, 25), dtype=st.sampled_from([np.complex128, np.complex64]))
def test_sample_covariance_matches_bin_covariances(seed, p, m, f, dtype):
    # a bin's covariance is, bit for bit, the narrowband covariance of its
    # snapshots, and so is each matrix of a stack with more leading axes
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((p, m, f))
         + 1j * rng.standard_normal((p, m, f))).astype(dtype)
    bins = FrequencyBinSet(NFFT, np.arange(1, p + 1), FS)
    covs = bin_covariances(BinSnapshots(z, bins))
    assert covs.shape == (p, m, m) and covs.dtype == np.complex128
    assert np.array_equal(covs, sample_covariance(z))
    for i in range(p):
        r = sample_covariance(z[i])
        assert np.array_equal(covs[i], r)
        assert np.array_equal(r, r.conj().T)
    if p % 2 == 0:
        pairs = sample_covariance(z.reshape(2, p // 2, m, f))
        assert np.array_equal(pairs.reshape(p, m, m), covs)


def test_sample_covariance_validation():
    for bad in (np.ones(4, complex), np.ones((3, 0), complex), np.ones((2, 3, 0))):
        with pytest.raises(ConfigError):
            sample_covariance(bad)


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


@given(seed=st.integers(0, 2 ** 16), p=st.integers(1, 10), m=st.integers(2, 8),
       data=st.data())
def test_select_bins_matches_per_bin_eigvalsh(seed, p, m, data):
    # the batched scores are the per-bin eigenvalue ratios of a loop, so the
    # picks are too
    k = data.draw(st.integers(1, m - 1))
    count = data.draw(st.integers(1, p))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((p, m, m + 2)) + 1j * rng.standard_normal((p, m, m + 2))
    covs = sample_covariance(x[:, :, : rng.integers(1, m + 3)])
    scores = np.empty(p)
    for i in range(p):
        ev = np.linalg.eigvalsh(covs[i])[::-1]
        scores[i] = ev[k - 1] / max(ev[k], 1e-300)
    ranked = sorted(range(p), key=lambda i: (-scores[i], i))
    assert select_bins(covs, k, count).tolist() == sorted(ranked[:count])


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


@pytest.mark.parametrize("call, message", [
    (lambda: FrequencyBinSet(0, [1], 100.0), "DFT length must be >= 1"),
    (lambda: FrequencyBinSet(8, [], 100.0), "need at least one bin index"),
    (lambda: frame_count(10, 0, 1), "frame length and hop must be >= 1"),
    (lambda: band_transform(np.zeros(64), FrequencyBinSet(8, [1], 100.0)),
     "record must be an M x n matrix"),
    (lambda: select_bins(np.zeros((2, 3, 4)), 1, 1), "covariances must be a (P, M, M) stack"),
    (lambda: select_bins(np.stack([np.eye(4)] * 3), 1, 2.5),
     "bin count must be an integer, got 2.5"),
    (lambda: select_bins(np.stack([np.eye(4)] * 3), 1.5, 2),
     "source count k must be an integer, got 1.5"),
], ids=["dft-length", "no-bins", "frame-length", "record-1d", "covariance-shape",
        "bin-count-float", "k-float"])
def test_each_rejection_states_its_rule(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message
