import numpy as np
import pytest
from numpy.testing import assert_allclose

from dasdoa.arrays import uniform_line_array, steering_matrix
from dasdoa.broadband import broadband_estimate, broadband_gnr2, \
    broadband_spectrum, btr, fuse_spectra
from dasdoa.errors import ConfigError
from dasdoa.estimators import SpatialSpectrum, peak_pick
from dasdoa.simulate import NoiseModel, SourceSpec, harmonic_lines, synthesize

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


def _record(truth, seed, duration=2.0, snr=10.0):
    geom = uniform_line_array(8, spacing=1.25)
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


def test_broadband_spectrum_peaks_at_truth():
    geom = uniform_line_array(8, spacing=1.25)
    freqs = np.array([200.0, 400.0, 800.0])
    covs = _plane_wave_covs(geom, freqs, 25.0)
    angles = np.arange(-90.0, 90.5, 1.0)
    for estimator in ("cbf", "qspice"):
        spec = broadband_spectrum(covs, freqs, geom, angles,
                                  estimator=estimator)
        assert angles[np.argmax(spec.power)] == pytest.approx(25.0, abs=1.0)


def test_broadband_spectrum_validation():
    geom = uniform_line_array(4, spacing=1.25)
    covs = _plane_wave_covs(geom, [200.0], 0.0)
    angles = np.arange(-10.0, 10.5, 1.0)
    with pytest.raises(ConfigError):
        broadband_spectrum(covs, [200.0], geom, angles, estimator="gnr2")
    with pytest.raises(ConfigError):
        broadband_spectrum(covs, [200.0], geom, angles, estimator="music")


def test_broadband_gnr2_refines_offgrid_truth():
    geom = uniform_line_array(8, spacing=1.25)
    freqs = np.array([300.0, 500.0, 700.0])
    covs = _plane_wave_covs(geom, freqs, 18.43)
    res = broadband_gnr2(covs, freqs, geom, 1)
    assert not res.shortfall
    # final grid step is 0.05; allow one extra step of sparse-atom bias
    assert res.angles[0] == pytest.approx(18.43, abs=0.1)


def test_broadband_estimate_end_to_end():
    block, geom = _record([12.0], seed=30)
    spec, estimates = broadband_estimate(block, geom, bins=BAND,
                                         estimator="cbf")
    assert estimates == ()
    peak = spec.angles[np.argmax(spec.power)]
    assert peak == pytest.approx(12.0, abs=1.0)


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
