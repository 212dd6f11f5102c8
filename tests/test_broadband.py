from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from dasdoa.arrays import Dictionary, uniform_line_array, steering_matrix
from dasdoa.broadband import _fuse_rows, broadband_estimate, broadband_gnr2, \
    broadband_spectrum, btr, fuse_spectra
from dasdoa.errors import ConfigError, DegenerateInputError
from dasdoa.estimators import CBF_GUARD, ESTIMATORS, SolverConfig, SpatialSpectrum, \
    fixed_grid_spectrum, peak_pick
from dasdoa.frontend import FrequencyBinSet, band_for, band_transform, bin_covariances, \
    select_bins
from dasdoa.simulate import NoiseModel, SnapshotMatrix, SourceSpec, harmonic_lines, \
    synthesize

FS = 5120.0
BAND = (100.0, 1000.0)


def _spec(power, estimator="cbf", freq=100.0):
    angles = np.arange(len(power), dtype=float)
    return SpatialSpectrum(angles, np.asarray(power, dtype=float), estimator, freq)


def _plane_wave_covs(geom, freqs, theta, noise=0.01):
    covs = []
    for f in freqs:
        a = steering_matrix(geom, f, np.array([theta]))
        covs.append(a @ a.conj().T + noise * np.eye(geom.n_elements))
    return np.array(covs)


def _record(truth, seed, duration=2.0, snr=10.0, elements=8):
    geom = uniform_line_array(elements, spacing=1.25)
    lines = tuple(harmonic_lines(100.0 - 10.0 * i, BAND)
                  for i in range(len(truth)))
    src = SourceSpec("propeller-broadband", tuple(truth),
                     (1.0,) * len(truth), snapshot_rate=FS, band=BAND,
                     lines=lines)
    block = synthesize(geom, src, NoiseModel("uniform-gaussian"), snr,
                       int(duration * FS), np.random.default_rng(seed))
    return block, geom


def test_fuse_normalizes_each_spectrum_to_unit_peak():
    fused = fuse_spectra([_spec([1, 4, 2]), _spec([10, 20, 80])])
    assert_allclose(fused.power, [(0.25 + 0.125) / 2, (1.0 + 0.25) / 2,
                                  (0.5 + 1.0) / 2])
    assert fused.power.max() <= 1.0 + 1e-12


def test_fuse_single_spectrum_is_normalization():
    fused = fuse_spectra([_spec([2.0, 8.0, 4.0])])
    assert_allclose(fused.power, [0.25, 1.0, 0.5])
    assert fused.frequency == 100.0


def test_fuse_validation():
    with pytest.raises(ConfigError):
        fuse_spectra([])
    with pytest.raises(ConfigError):
        fuse_spectra([_spec([1, 2]), _spec([1, 2, 3])])
    shifted = SpatialSpectrum(np.arange(3.0) + 0.5, np.ones(3), "cbf", 100.0)
    with pytest.raises(ConfigError, match="identical angle grids"):
        fuse_spectra([_spec([1, 2, 3]), shifted])


@given(arrays(float, st.tuples(st.integers(1, 120), st.integers(1, 200)),
              elements=st.floats(0.0, 1e6)))
# one grid point: numpy sums a column pairwise, which changes the last bit
@example(power=np.full((9, 1), 1e-301))
@example(power=np.full((3, 1), -0.0))
def test_fusion_helper_bit_equals_sequential_fusion(power):
    # the fusion of one spectrum at a time, each normalized to unit peak; the
    # helper is one reduction over the rows of up to a BTR frame's P = 101
    acc = np.zeros(power.shape[1])
    for row in power:
        acc += row / max(row.max(), 1e-300)
    expected = (acc / len(power)).tobytes()
    assert _fuse_rows(power).tobytes() == expected
    assert fuse_spectra([_spec(row) for row in power]).power.tobytes() == expected


def test_broadband_spectrum_peaks_at_truth():
    geom = uniform_line_array(8, spacing=1.25)
    freqs = np.array([200.0, 400.0, 800.0])
    covs = _plane_wave_covs(geom, freqs, 25.0)
    angles = np.arange(-90.0, 90.5, 1.0)
    for estimator in ("cbf", "spice", "qspice"):
        spec = broadband_spectrum(covs, freqs, geom, angles,
                                  estimator=estimator)
        assert angles[np.argmax(spec.power)] == pytest.approx(25.0, abs=1.0)
        if estimator == "cbf":
            continue
        # the stacked solve fuses the bits of the per-bin solves
        per_bin = [fixed_grid_spectrum(estimator, R, Dictionary(
            angles, steering_matrix(geom, f, angles), f, "broadside", geom))
            for R, f in zip(covs, freqs)]
        assert spec.power.tobytes() == fuse_spectra(per_bin).power.tobytes()


def test_broadband_spectrum_validation():
    geom = uniform_line_array(4, spacing=1.25)
    covs = _plane_wave_covs(geom, [200.0], 0.0)
    angles = np.arange(-10.0, 10.5, 1.0)
    with pytest.raises(ConfigError):
        broadband_spectrum(covs, [200.0], geom, angles, estimator="gnr2")
    with pytest.raises(ConfigError):
        broadband_spectrum(covs, [200.0], geom, angles, estimator="music")


@pytest.mark.parametrize("estimator", ["cbf", "qspice"])
def test_broadband_spectrum_needs_one_covariance_per_bin(estimator):
    geom = uniform_line_array(4, spacing=1.25)
    freqs = [200.0, 300.0, 400.0]
    covs = _plane_wave_covs(geom, freqs, 0.0)
    angles = np.arange(-10.0, 10.5, 1.0)
    for c, f in ((covs, freqs[:1]), (covs[:1], freqs)):
        with pytest.raises(ConfigError, match="covariances for"):
            broadband_spectrum(c, f, geom, angles, estimator=estimator)


@pytest.mark.parametrize("estimator", ["cbf", "qspice"])
def test_broadband_spectrum_checks_every_bin(estimator):
    geom = uniform_line_array(4, spacing=1.25)
    freqs = [200.0, 300.0, 400.0]
    covs = _plane_wave_covs(geom, freqs, 0.0)
    angles = np.arange(-10.0, 10.5, 1.0)
    nan_bin = covs.copy()
    nan_bin[1, 0, 2] = np.nan
    with pytest.raises(ConfigError, match="input data must be finite"):
        broadband_spectrum(nan_bin, freqs, geom, angles, estimator=estimator)
    zero_bin = covs.copy()
    zero_bin[2] = 0.0
    with pytest.raises(DegenerateInputError, match="non-positive trace"):
        broadband_spectrum(zero_bin, freqs, geom, angles, estimator=estimator)


def test_broadband_gnr2_refines_offgrid_truth():
    geom = uniform_line_array(8, spacing=1.25)
    freqs = np.array([300.0, 500.0, 700.0])
    covs = _plane_wave_covs(geom, freqs, 18.43)
    res = broadband_gnr2(covs, freqs, geom, 1)
    assert len(res.angles) == 1
    # final grid step is 0.05; allow one extra step of sparse-atom bias
    assert res.angles[0] == pytest.approx(18.43, abs=0.1)


def test_broadband_gnr2_default_sector_follows_the_convention():
    # endfire angles lie in [0, 180]; the default sector is that, not [-90, 90]
    geom = uniform_line_array(8, spacing=1.25)
    freqs = np.array([300.0, 500.0, 700.0])
    a = np.stack([steering_matrix(geom, f, np.array([118.2]), "endfire") for f in freqs])
    covs = a @ a.conj().swapaxes(1, 2) + 0.1 * np.eye(8)
    res = broadband_gnr2(covs, freqs, geom, 1, convention="endfire")
    assert len(res.angles) == 1
    assert res.angles[0] == pytest.approx(118.2, abs=0.1)


def test_broadband_estimate_end_to_end():
    block, geom = _record([12.0], seed=30)
    spec, estimates = broadband_estimate(block, geom, bins=BAND,
                                         estimator="cbf")
    assert estimates == ()
    peak = spec.angles[np.argmax(spec.power)]
    assert peak == pytest.approx(12.0, abs=1.0)


@pytest.mark.parametrize("estimator",
                         [name for name, entry in ESTIMATORS.items() if not entry.refines])
def test_broadband_estimate_picks_every_fixed_grid_spectrum(estimator):
    # a time record's picks are made where a snapshot record's are: by the
    # entry's pick rule on the spectrum returned, CBF's cbf_guard apart
    block, geom = _record((10.0, 25.0), seed=5, duration=0.5, elements=12)
    kw = dict(bins=BAND, estimator=estimator, k=2, select_count=8)
    spec, estimates = broadband_estimate(block, geom, **kw)
    picks = ESTIMATORS[estimator].picks(spec, 2, CBF_GUARD)
    assert estimates == tuple(picks) and len(estimates) == 2 and len(picks) == 2
    assert np.abs(np.array(estimates) - (10.0, 25.0)).max() < 2.0
    # a 20 deg guard parts CBF's two picks 15 deg apart; it is CBF's alone
    spec, guarded = broadband_estimate(block, geom, cbf_guard=20.0, **kw)
    assert guarded == tuple(ESTIMATORS[estimator].picks(spec, 2, 20.0))
    assert (guarded != estimates) == (estimator == "cbf")


def test_broadband_estimate_gnr2_returns_estimates():
    block, geom = _record([12.3], seed=31)
    spec, estimates = broadband_estimate(block, geom, bins=BAND,
                                         estimator="gnr2", k=1,
                                         select_count=10)
    assert len(estimates) == 1
    assert estimates[0] == pytest.approx(12.3, abs=0.2)
    assert spec.estimator == "qspice-gnr2"


def test_broadband_estimate_validation():
    block, geom = _record([5.0], seed=32, duration=0.5)
    with pytest.raises(ConfigError):
        broadband_estimate(block, geom, estimator="music")   # k missing
    with pytest.raises(ConfigError):
        broadband_estimate(block, geom, estimator="parabolic")
    with pytest.raises(ConfigError):
        broadband_estimate(block, geom, select_count=5)      # k missing
    snapshot = synthesize(
        uniform_line_array(4, spacing=0.25),
        SourceSpec("tonal", (0.0,), (1.0,), freqs=(3000.0,),
                   snapshot_rate=6000.0),
        None, None, 16, np.random.default_rng(0), dictionary_frequency=3000.0)
    with pytest.raises(ConfigError):
        broadband_estimate(snapshot, geom)


@pytest.mark.parametrize("run", [broadband_estimate, btr], ids=["estimate", "btr"])
def test_a_bin_set_past_nyquist_is_rejected(run):
    # 2000..3000 Hz is bins 200..300 at N = 512 and the record's rate, past
    # fs/2 = 2560 Hz; the bin set keeps them out, where CBF would peak at an
    # alias. bins is a band in Hz only: a prebuilt bin set, which could
    # carry another rate than the record's, is not one
    block, geom = _record((10.0, 25.0), seed=5, duration=0.5, elements=12)
    with pytest.raises(ConfigError, match=r"bins 200\.\.300 of N=512"):
        run(block, geom, bins=(2000.0, 3000.0))
    with pytest.raises(ConfigError, match="band needs exactly two numbers"):
        run(block, geom, bins=FrequencyBinSet(512, np.arange(20, 201), 6000.0))


@pytest.mark.parametrize("run", [broadband_estimate, btr], ids=["estimate", "btr"])
def test_a_snapshot_domain_record_is_rejected(run):
    # the broadband pipeline, single-shot or framed, reads time records only
    block = SnapshotMatrix(np.ones((3, 600), dtype=complex), FS)
    with pytest.raises(ConfigError, match="expects a time-domain record"):
        run(block, uniform_line_array(3, 1.25))


def test_btr_single_frame_matches_single_shot():
    block, geom = _record([12.0], seed=33, duration=1.0)
    spec, _ = broadband_estimate(block, geom, bins=BAND, estimator="cbf")
    rec = btr(block, geom, bins=BAND, frame_seconds=1.0, estimator="cbf")
    assert rec.power_db.shape == (1, spec.angles.size)
    assert_allclose(rec.power_db[0], spec.power_db, atol=1e-12)
    assert rec.times[0] == pytest.approx(0.5)


@pytest.mark.parametrize("estimator", ["cbf", "music", "spice", "qspice", "gnr2"])
def test_btr_one_frame_is_the_single_shot_run(estimator):
    block, geom = _record([-20.0, 12.0], seed=36, duration=0.5)
    kw = dict(bins=BAND, estimator=estimator, k=2, select_count=4)
    spec, estimates = broadband_estimate(block, geom, **kw)
    rec = btr(block, geom, frame_seconds=0.5, **kw)
    assert rec.times.size == 1
    if estimator != "gnr2":
        assert rec.power_db[0].tobytes() == spec.power_db.tobytes()
    assert rec.estimates[0] == tuple(estimates)


def test_btr_stationary_source_gives_constant_ridge():
    block, geom = _record([20.0], seed=34, duration=3.0, snr=15.0)
    rec = btr(block, geom, bins=BAND, frame_seconds=1.0,
              frame_hop_fraction=0.5, estimator="cbf")
    assert rec.times.size == 5
    assert np.all(np.diff(rec.times) > 0)
    ridge = rec.angles[np.argmax(rec.power_db, axis=1)]
    assert np.all(np.abs(ridge - 20.0) <= 1.0)


def test_btr_gnr2_estimates_per_frame():
    block, geom = _record([12.3], seed=35, duration=1.0)
    rec = btr(block, geom, bins=BAND, frame_seconds=0.5, estimator="gnr2",
              k=1, select_count=8)
    assert len(rec.estimates) == rec.times.size
    for frame_est in rec.estimates:
        assert frame_est[0] == pytest.approx(12.3, abs=0.3)


def _moving_record():
    """Three 0.5 s stretches, each with its source at another bearing and
    with other harmonic lines, so the dominant bins change along the record."""
    geom = uniform_line_array(8, spacing=1.25)
    parts = []
    for i, (theta, f0) in enumerate(((-30.0, 100.0), (0.0, 70.0), (25.0, 130.0))):
        src = SourceSpec("propeller-broadband", (theta,), (1.0,), snapshot_rate=FS,
                         band=BAND, lines=(harmonic_lines(f0, BAND),))
        parts.append(synthesize(geom, src, NoiseModel("uniform-gaussian"), 10.0,
                                int(0.5 * FS), np.random.default_rng(40 + i)).data)
    return SnapshotMatrix(np.concatenate(parts, axis=1), FS), geom


@pytest.mark.parametrize("estimator, select_count", [
    (estimator, count) for estimator in ("cbf", "music", "spice", "qspice")
    for count in (None, 6)] + [("gnr2", 6)])
def test_btr_rows_are_the_single_shot_run_of_each_frame(estimator, select_count):
    # what a request builds once, or a frame keeps of the frame before, must
    # not carry one frame's state into the next: at a hop of 10 DFT hops
    # (N/2 = 256 samples) frames share snapshots, at 0.37 of a frame (947
    # samples) they share none
    block, geom = _moving_record()
    kw = dict(bins=BAND, estimator=estimator, k=1, step=2.0,
              select_count=select_count)
    frame_len = int(0.5 * FS)
    for fraction, n_frames in ((0.5, 5), (0.37, 6)):
        rec = btr(block, geom, frame_seconds=0.5, frame_hop_fraction=fraction, **kw)
        hop = round(fraction * frame_len)
        assert rec.times.size == n_frames
        segments = [block.data[:, i * hop: i * hop + frame_len]
                    for i in range(n_frames)]
        if select_count is not None:
            bins = band_for(BAND, 512, FS)
            picks = {tuple(select_bins(bin_covariances(band_transform(seg, bins)), 1,
                                       select_count)) for seg in segments}
            assert len(picks) > 1
        for row, est, seg in zip(rec.power_db, rec.estimates, segments):
            spec, estimates = broadband_estimate(SnapshotMatrix(seg, FS),
                                                 geom, **kw)
            assert row.tobytes() == spec.power_db.tobytes()
            assert est == estimates


@pytest.mark.parametrize("estimates", [
    lambda *args, **kw: broadband_estimate(*args, **kw)[1],
    lambda *args, **kw: btr(*args, frame_seconds=0.5, **kw).estimates,
], ids=["single-shot", "btr"])
def test_gnr2_step_sets_only_the_output_grid(estimates):
    # a step that does not divide the sector leaves the refinement its whole
    # sector, so a source near the sector's edge gets one estimate at any step
    block, geom = _record((9.9,), seed=4, duration=1.0)
    picks = {estimates(block, geom, bins=BAND, estimator="gnr2", k=1, sector=(0.0, 10.0),
                       step=step, select_count=8)
             for step in (1.0, 0.7, 0.3)}
    assert len(picks) == 1


@pytest.mark.parametrize("fraction", [0.5, 0.3, 1.0, 2.0, 0.25, 0.37])
def test_a_request_transforms_each_snapshot_once(fraction, monkeypatch):
    # a frame keeps the snapshots it shares with the frame before (a hop that
    # is a multiple of N/2 = 256 samples: 1280 and 768 share, 2560 and 5120
    # leave none to share) and transforms only its new ones; hops of 640
    # and 947 samples are not multiples of N/2 and share none
    block, geom = _moving_record()
    offsets = []

    def counting(segment, bins):
        snaps = band_transform(segment, bins)
        start = (segment.ctypes.data - block.data.ctypes.data) // block.data.itemsize
        offsets.extend(start + f * snaps.hop for f in range(snaps.n_frames))
        return snaps
    monkeypatch.setattr("dasdoa.broadband.band_transform", counting)
    rec = btr(block, geom, bins=BAND, frame_seconds=0.5, frame_hop_fraction=fraction)
    hop, per_frame = round(fraction * int(0.5 * FS)), (int(0.5 * FS) - 512) // 256 + 1
    needed = sorted({i * hop + f * 256 for i in range(rec.times.size)
                     for f in range(per_frame)})
    if hop % 256:
        assert len(offsets) == rec.times.size * per_frame
        assert set(offsets) == set(needed)
    else:
        assert offsets == needed
    offsets.clear()
    broadband_estimate(block, geom, bins=BAND)
    assert offsets == list(range(0, block.n_samples - 511, 256))


def test_a_request_builds_each_bin_steering_matrix_once(monkeypatch):
    # a request, a BTR or a single-shot estimate, builds every bin's matrix
    # once, whichever bins its frames keep
    built = []

    def counting(geometry, frequency, *args):
        built.append(frequency)
        return steering_matrix(geometry, frequency, *args)
    monkeypatch.setattr("dasdoa.arrays.steering_matrix", counting)
    block, geom = _moving_record()
    all_bins = band_for(BAND, 512, FS).frequencies.tolist()
    for request in (partial(btr, frame_seconds=0.5), broadband_estimate):
        for estimator in ("cbf", "qspice"):
            for select_count in (None, 6):
                built.clear()
                request(block, geom, bins=BAND, step=2.0, k=1, estimator=estimator,
                        select_count=select_count, solver_cfg=SolverConfig(max_iter=3))
                assert built == all_bins
                assert all(type(f) is float for f in built)


@pytest.mark.parametrize("seconds, hop, match", [
    (1.0, 0.0, "frame_hop_fraction must be a positive finite number"),
    (1.0, -0.5, "frame_hop_fraction must be a positive finite number"),
    (1.0, float("nan"), "frame_hop_fraction must be a positive finite number"),
    (1.0, 1e-5, "hop of under one sample"),
    (float("inf"), 0.5, "frame_seconds must be a positive finite number"),
    (0.01, 0.5, "shorter than the DFT length 512"),
], ids=["hop-zero", "hop-negative", "hop-nan", "hop-under-a-sample",
        "frame-inf", "frame-under-n-fft"])
def test_btr_rejects_bad_frame_options(seconds, hop, match):
    block, geom = _record([5.0], seed=37, duration=0.5)
    with pytest.raises(ConfigError, match=match):
        btr(block, geom, bins=BAND, frame_seconds=seconds, frame_hop_fraction=hop)


@pytest.mark.parametrize("call, message", [
    (lambda: broadband_spectrum(np.zeros((0, 4, 4)), [], uniform_line_array(4),
                                np.arange(3.0)),
     "need at least one frequency bin"),
], ids=["no-bins"])
def test_each_rejection_states_its_rule(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message
