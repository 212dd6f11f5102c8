import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dasdoa.arrays import uniform_line_array, steering_matrix
from dasdoa.errors import ConfigError, UnsupportedModelError
from dasdoa.simulate import NoiseModel, SnapshotMatrix, SourceSpec, \
    delay_channels, generate_noise, generate_sources, harmonic_lines, \
    measure_snr, propeller_waveform, sample_sas, synthesize

TABLE_DIAG = (12, 2.3, 20.5, 5.5, 11.1, 6.5, 2, 13.5, 0.8, 1.7, 13.6, 5.2)
# mean per-element SNR of a unit-power signal under TABLE_DIAG, frozen from
# the closed form 10*log10((1/M) sum 1/sigma_m^2) before implementation
TABLE_DIAG_SNR_DB = -5.144208


def test_sample_sas_alpha2_is_gaussian():
    # alpha = 2 degenerates to N(0, 2*gamma^2)
    x = sample_sas(2.0, 1.0, 200_000, np.random.default_rng(0))
    assert np.var(x) == pytest.approx(2.0, rel=0.02)
    assert np.mean(x) == pytest.approx(0.0, abs=0.02)


def test_sample_sas_alpha1_is_cauchy():
    # alpha = 1: Cauchy with quartiles at +/- gamma
    x = sample_sas(1.0, 2.0, 200_000, np.random.default_rng(1))
    q1, q2, q3 = np.quantile(x, [0.25, 0.5, 0.75])
    assert q2 == pytest.approx(0.0, abs=0.05)
    assert q3 - q1 == pytest.approx(4.0, rel=0.03)


@pytest.mark.parametrize("alpha, gamma, digest", [
    (1.0, 2.0, "eeda98c7f644385b72d8852079e40e360c2b54ce6ef6d4257f4a87b45f2aef98"),
    (1.2, 0.5, "84170650d3a3bf1cb71ac65b035a06f0f609587b010328410576b959bfb1f88c"),
])
def test_sample_sas_draws_are_pinned(alpha, gamma, digest):
    # the bits that impulsive records and bench tables are drawn from, on
    # the Cauchy branch and the general one (sha256 recorded on x86-64
    # Linux, numpy 2.4)
    x = sample_sas(alpha, gamma, 1000, np.random.default_rng(7))
    assert hashlib.sha256(x.tobytes()).hexdigest() == digest


def test_sample_sas_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        sample_sas(2.5, 1.0, 10, rng)
    with pytest.raises(ConfigError):
        sample_sas(1.2, -1.0, 10, rng)


@pytest.mark.parametrize("alpha, gamma, message", [
    (0.0, 1.0, "stable index alpha must lie in (0, 2]"),
    (2.5, 1.0, "stable index alpha must lie in (0, 2]"),
    (1.5, 0.0, "dispersion gamma must be positive")])
def test_sample_sas_and_noise_model_check_the_stable_law_alike(alpha, gamma, message):
    for draw in (lambda: sample_sas(alpha, gamma, 4, 0),
                 lambda: NoiseModel("impulsive-sas", alpha=alpha, gamma=gamma)):
        with pytest.raises(ConfigError) as err:
            draw()
        assert str(err.value) == message


def test_generate_noise_variances():
    rng = np.random.default_rng(4)
    e = generate_noise(NoiseModel("uniform-gaussian", sigma2=3.0), 4, 50_000, rng)
    assert_allclose(np.mean(np.abs(e) ** 2), 3.0, rtol=0.03)

    model = NoiseModel("nonuniform-gaussian", diag=(1.0, 4.0, 9.0))
    e = generate_noise(model, 3, 50_000, np.random.default_rng(5))
    assert_allclose(np.mean(np.abs(e) ** 2, axis=1), [1.0, 4.0, 9.0], rtol=0.05)


def test_generate_noise_diag_size_mismatch():
    model = NoiseModel("nonuniform-gaussian", diag=(1.0, 2.0))
    with pytest.raises(ConfigError):
        generate_noise(model, 3, 10, np.random.default_rng(0))


def test_measure_snr_uniform_and_nonuniform():
    assert measure_snr(1.0, NoiseModel("uniform-gaussian", sigma2=10.0)) == \
        pytest.approx(-10.0)
    model = NoiseModel("nonuniform-gaussian", diag=TABLE_DIAG)
    assert measure_snr(1.0, model) == pytest.approx(TABLE_DIAG_SNR_DB, abs=1e-6)


def test_measure_snr_rejects_impulsive():
    with pytest.raises(UnsupportedModelError):
        measure_snr(1.0, NoiseModel("impulsive-sas", alpha=1.2))


def test_harmonic_lines_band_filtering():
    lines = harmonic_lines(90.0, (100.0, 1000.0))
    freqs = [f for f, _ in lines]
    assert freqs[0] == 180.0 and freqs[-1] == 990.0
    assert all(f % 90 == 0 for f in freqs)
    lines = harmonic_lines(100.0, (100.0, 1000.0))
    assert len(lines) == 10 and lines[0] == (100.0, 10.0)


def test_propeller_waveform_unit_power_and_band():
    fs, n = 5120.0, 20480
    band = (100.0, 1000.0)
    x = propeller_waveform(n, fs, band, harmonic_lines(100.0, band),
                           np.random.default_rng(6))
    assert np.mean(x ** 2) == pytest.approx(1.0, abs=1e-12)
    spec = np.abs(np.fft.rfft(x)) ** 2
    f = np.fft.rfftfreq(n, 1 / fs)
    inside = spec[(f >= 80) & (f <= 1100)].sum()
    outside = spec[(f < 80) | (f > 1100)].sum()
    assert outside < 1e-3 * inside
    # the 100 Hz line towers over the continuum next to it
    line = spec[np.argmin(np.abs(f - 100.0))]
    floor = np.median(spec[(f > 110) & (f < 140)])
    assert line > 30 * floor


def test_propeller_waveform_rejects_band_beyond_nyquist():
    with pytest.raises(ConfigError):
        propeller_waveform(1024, 1000.0, (100.0, 600.0), (),
                           np.random.default_rng(0))


@pytest.mark.parametrize("fs", [1e20, 1e300])
def test_propeller_waveform_rejects_an_unusable_band_pass(fs):
    # the band passes the Nyquist check but is a vanishing fraction of it,
    # and the zero-phase filter's initial state is a singular solve
    with pytest.raises(ConfigError, match="band-pass filter .* numerically unusable"):
        propeller_waveform(2048, fs, (100.0, 1000.0), (), np.random.default_rng(0))


def test_propeller_waveform_rejects_a_record_shorter_than_the_lower_band_edge():
    # 2048 samples at 1 GHz span 2 us, against a 10 ms period at 100 Hz; one
    # period (fs / f_lo samples) is the shortest record accepted
    with pytest.raises(ConfigError, match="shorter than one period of the band's "
                                          "lower edge, 100.0 Hz"):
        propeller_waveform(2048, 1e9, (100.0, 1000.0), (), np.random.default_rng(0))
    with pytest.raises(ConfigError, match="lower edge"):
        propeller_waveform(51, 5120.0, (100.0, 1000.0), (), np.random.default_rng(0))
    x = propeller_waveform(52, 5120.0, (100.0, 1000.0), (), np.random.default_rng(0))
    assert x.shape == (52,)


def test_generate_sources_tonal_phase_progression():
    spec = SourceSpec("tonal", (0.0,), (4.0,), freqs=(1500.0,),
                      snapshot_rate=6000.0)
    s = generate_sources(spec, 16, np.random.default_rng(7))
    assert s.shape == (1, 16)
    assert_allclose(np.abs(s), 2.0, atol=1e-12)          # sqrt(power)
    ratio = s[0, 1:] / s[0, :-1]
    assert_allclose(ratio, np.exp(2j * np.pi * 1500.0 / 6000.0), atol=1e-12)


def test_synthesize_tonal_clean_is_steered_sources():
    geom = uniform_line_array(4, spacing=0.25)
    spec = SourceSpec("tonal", (10.0, -35.0), (1.0, 2.0),
                      freqs=(3000.0, 3100.0), snapshot_rate=6000.0)
    rng = np.random.default_rng(8)
    block = synthesize(geom, spec, None, None, 32, rng,
                       dictionary_frequency=3000.0)
    assert block.domain == "narrowband-snapshot"
    # reproduce: the source stream comes from the first spawned child
    src_rng = np.random.default_rng(8).spawn(2)[0]
    s = generate_sources(spec, 32, src_rng)
    A = steering_matrix(geom, 3000.0, np.array([10.0, -35.0]))
    assert_allclose(block.data, A @ s, atol=1e-12)


def test_synthesize_gaussian_snr_is_calibrated():
    geom = uniform_line_array(6, spacing=0.25)
    spec = SourceSpec("tonal", (5.0,), (1.0,), freqs=(3000.0,),
                      snapshot_rate=6000.0)
    model = NoiseModel("nonuniform-gaussian", diag=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    target = 3.0
    clean = synthesize(geom, spec, None, None, 20_000, np.random.default_rng(9),
                       dictionary_frequency=3000.0)
    noisy = synthesize(geom, spec, model, target, 20_000, np.random.default_rng(9),
                       dictionary_frequency=3000.0)
    e = noisy.data - clean.data                      # same spawned source stream
    p_y = np.mean(np.abs(clean.data) ** 2)
    diag = np.mean(np.abs(e) ** 2, axis=1)
    snr = 10 * np.log10(p_y / diag.size * np.sum(1.0 / diag))
    assert snr == pytest.approx(target, abs=0.05)


def test_synthesize_impulsive_scales_signal_not_noise():
    geom = uniform_line_array(4, spacing=0.25)
    spec = SourceSpec("tonal", (0.0,), (1.0,), freqs=(3000.0,),
                      snapshot_rate=6000.0)
    model = NoiseModel("impulsive-sas", alpha=1.2, gamma=1.0)
    rng = np.random.default_rng(10)
    block = synthesize(geom, spec, model, 0.0, 400, rng,
                       dictionary_frequency=3000.0)
    # at 0 dB the realized signal power matches the realized noise power;
    # reconstruct the noise from the same seed to check the convention
    noise_rng = np.random.default_rng(10).spawn(2)[1]
    e = generate_noise(model, 4, 400, noise_rng)
    x = block.data - e
    assert np.mean(np.abs(x) ** 2) == pytest.approx(np.mean(np.abs(e) ** 2),
                                                    rel=1e-10)


def test_synthesize_time_domain_impulsive_unsupported():
    geom = uniform_line_array(4, spacing=1.25)
    spec = SourceSpec("propeller-broadband", (10.0,), (1.0,),
                      snapshot_rate=5120.0, band=(100.0, 1000.0),
                      lines=(harmonic_lines(100.0, (100.0, 1000.0)),))
    with pytest.raises(UnsupportedModelError):
        synthesize(geom, spec, NoiseModel("impulsive-sas"), 0.0, 1024,
                   np.random.default_rng(0))


def test_synthesize_propeller_time_domain():
    geom = uniform_line_array(4, spacing=1.25)
    band = (100.0, 1000.0)
    spec = SourceSpec("propeller-broadband", (10.0,), (1.0,),
                      snapshot_rate=5120.0, band=band,
                      lines=(harmonic_lines(100.0, band),))
    block = synthesize(geom, spec, NoiseModel("uniform-gaussian"), 10.0,
                       2048, np.random.default_rng(11))
    assert block.domain == "time"
    assert not np.iscomplexobj(block.data)
    assert block.data.shape == (4, 2048)


@pytest.mark.parametrize("theta, convention, message", [
    (120.0, "broadside", r"broadside angles must lie in \[-90.0, 90.0\]"),
    (-10.0, "endfire", r"endfire angles must lie in \[0.0, 180.0\]"),
    (10.0, "sideways", "unknown convention 'sideways'")],
    ids=["broadside-angle", "endfire-angle", "convention"])
def test_delays_check_angles_like_steering(theta, convention, message):
    # both kinds of synthesis map and check an angle through one helper
    geom = uniform_line_array(4, spacing=1.25)
    with pytest.raises(ConfigError, match=message):
        delay_channels(np.ones(64), geom, theta, 5120.0, convention)
    with pytest.raises(ConfigError, match=message):
        steering_matrix(geom, 3000.0, theta, convention)


def test_tonal_needs_dictionary_frequency():
    geom = uniform_line_array(4, spacing=0.25)
    spec = SourceSpec("tonal", (0.0,), (1.0,), freqs=(3000.0,),
                      snapshot_rate=6000.0)
    with pytest.raises(ConfigError):
        synthesize(geom, spec, None, None, 16, np.random.default_rng(0))


def test_snapshot_matrix_validation():
    with pytest.raises(ConfigError):
        SnapshotMatrix(np.ones((1, 5)), 100.0)
    with pytest.raises(ConfigError):
        SnapshotMatrix(np.full((3, 4), np.nan), 100.0)


@pytest.mark.parametrize("rate", [0.0, np.nan, np.inf, -100.0])
def test_snapshot_matrix_rejects_a_rate_that_is_not_positive_finite(rate):
    with pytest.raises(ConfigError, match="sample rate must be a positive finite"):
        SnapshotMatrix(np.ones((3, 4)), rate)


def test_snapshot_matrix_kind_is_its_dtype():
    for dtype, domain in ((np.float32, "time"), (np.float64, "time"),
                          (np.complex64, "narrowband-snapshot"),
                          (np.complex128, "narrowband-snapshot")):
        assert SnapshotMatrix(np.ones((3, 4), dtype=dtype), 100.0).domain == domain
    with pytest.raises(TypeError):                 # the rate has no default
        SnapshotMatrix(np.ones((3, 4)))


def test_source_spec_validation():
    with pytest.raises(ConfigError):
        SourceSpec("tonal", (0.0, 5.0), (1.0,), freqs=(1.0, 2.0))   # power count
    with pytest.raises(ConfigError):
        SourceSpec("tonal", (0.0,), (1.0,), freqs=())               # missing freq
    with pytest.raises(ConfigError):
        SourceSpec("whistle", (0.0,), (1.0,))                       # unknown kind
    with pytest.raises(ConfigError, match="two numbers"):
        SourceSpec("propeller-broadband", (0.0,), (1.0,), band=(100.0,))
    with pytest.raises(ConfigError, match="two numbers"):
        SourceSpec("propeller-broadband", (0.0,), (1.0,),
                   lines=(((200.0, 10.0, 3.0),),))


@pytest.mark.parametrize("kind", ["tonal", "propeller-broadband"])
@pytest.mark.parametrize("rate", [0.0, -5120.0, np.nan, np.inf])
def test_source_spec_needs_a_positive_finite_rate(kind, rate):
    with pytest.raises(ConfigError, match="snapshot rate must be a positive finite"):
        SourceSpec(kind, (0.0,), (1.0,), freqs=(1000.0,), snapshot_rate=rate)


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel("uniform-gaussian", sigma2=-1.0)
    with pytest.raises(ConfigError):
        NoiseModel("impulsive-sas", alpha=0.0)
    with pytest.raises(ConfigError):
        NoiseModel("purple")


@pytest.mark.parametrize("call, message", [
    (lambda: SourceSpec("tonal", (), ()), "need at least one source"),
    (lambda: SourceSpec("propeller-broadband", (1.0,), (1.0,), band=(900.0, 100.0)),
     "band must satisfy f_lo < f_hi"),
    (lambda: SourceSpec("propeller-broadband", (1.0, 2.0), (1.0, 1.0),
                        lines=(((200.0, 10.0),),)),
     "lines, when given, need one list per source"),
    (lambda: NoiseModel("nonuniform-gaussian"),
     "non-uniform noise needs a positive variance per element"),
    (lambda: harmonic_lines(0.0, (100.0, 1000.0)),
     "line base frequency must be a positive finite number, got 0.0"),
    (lambda: propeller_waveform(4096, 5120.0, (100.0, 1000.0), [(50.0, 10.0)], 0),
     "line at 50.0 Hz falls outside the band (100.0, 1000.0)"),
    (lambda: measure_snr(0.0, NoiseModel("uniform-gaussian")),
     "signal power must be positive"),
], ids=["no-source", "band-order", "lines-per-source", "nonuniform-no-diag",
        "line-base", "line-outside-band", "signal-power"])
def test_each_rejection_states_its_rule(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("kind, kw, message", [
    ("tonal", dict(band=(100.0, 900.0)),
     "band is read only by propeller-broadband sources, not tonal "
     "(got band=(100.0, 900.0))"),
    ("tonal", dict(band=5.0),
     "band is read only by propeller-broadband sources, not tonal (got band=5.0)"),
    # ragged lines: one line for the first source, two for the second
    ("tonal", dict(lines=(((200.0, 10.0),), ((300.0, 10.0), (600.0, 6.0)))),
     "lines is read only by propeller-broadband sources, not tonal "
     "(got lines=(((200.0, 10.0),), ((300.0, 10.0), (600.0, 6.0))))"),
    ("propeller-broadband", dict(freqs=(300.0, 400.0)),
     "freqs is read only by tonal sources, not propeller-broadband "
     "(got freqs=(300.0, 400.0))"),
], ids=["tonal-band", "tonal-band-scalar", "tonal-lines", "propeller-freqs"])
def test_source_spec_rejects_keys_its_kind_does_not_read(kind, kw, message):
    freqs = {"freqs": (3000.0, 3100.0)} if kind == "tonal" else {}
    with pytest.raises(ConfigError) as err:
        SourceSpec(kind, (2.36, 27.62), (1.0, 1.0), **freqs, **kw)
    assert str(err.value) == message
    # each kind's own keys, and the others at their defaults, are accepted
    SourceSpec(kind, (2.36, 27.62), (1.0, 1.0), **freqs, band=[100, 1000], lines=[])
