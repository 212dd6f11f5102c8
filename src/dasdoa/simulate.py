"""Scenario synthesis: tonal and propeller sources, three noise families, SNR.

Narrowband snapshot model
    Y = A(theta) S + E        (complex M x N)
with A built at a single dictionary frequency; tonal sources are complex
exponentials with a random phase per trial. Time-domain records are real
M x n waveforms built by fractional-delay plane-wave propagation.

Arrival convention (time domain): channel m receives s(t + tau_m) with
tau_m = alpha_m * d * sin(theta) / c, i.e. the wave reaches far elements
earlier. Under the +i DFT correlation used by the spectral frontend this
produces bin snapshots proportional to the e^{-j...} steering vectors.

SNR conventions
    uniform      SNR = 10*log10(P_y / sigma^2)
    non-uniform  SNR = 10*log10((P_y / M) * sum_m 1/sigma_m^2)
where P_y is the mean per-entry signal power. For impulsive (alpha-stable)
noise a second-moment SNR does not exist; `synthesize` keeps the dispersion
gamma fixed and scales the *signal* against the realized noise power of the
synthesized block, so the measured block SNR equals the nominal value. This
convention is a documented choice (see module docs / README); `measure_snr`
refuses alpha-stable models outright.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, sosfiltfilt

from .arrays import ArrayGeometry, steering_matrix, two_numbers
from .errors import ConfigError, UnsupportedModelError

NOISE_KINDS = ("uniform-gaussian", "nonuniform-gaussian", "impulsive-sas")
SOURCE_KINDS = ("tonal", "propeller-broadband")


# -----------------------------
# Specs
# -----------------------------
@dataclass(frozen=True)
class SourceSpec:
    """Source set: K angles with per-source powers and waveform parameters.

    kind "tonal": complex-exponential snapshots at `freqs` (Hz) sampled at
    `snapshot_rate`. kind "propeller-broadband": real band-limited continuum
    over `band` plus discrete line components; `lines` holds one list of
    (frequency_hz, level_db_over_continuum_slot) per source.
    """

    kind: str
    angles: tuple
    powers: tuple
    freqs: tuple = ()
    snapshot_rate: float = 6000.0
    band: tuple = (100.0, 1000.0)
    lines: tuple = ()

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ConfigError(f"unknown source kind {self.kind!r}")
        k = len(self.angles)
        if k < 1:
            raise ConfigError("need at least one source")
        if len(self.powers) != k or any(p <= 0 for p in self.powers):
            raise ConfigError("each source needs a positive power")
        if self.kind == "tonal":
            if len(self.freqs) != k:
                raise ConfigError("tonal sources need one frequency per source")
            if self.snapshot_rate <= 0:
                raise ConfigError("snapshot rate must be positive")
        else:
            f_lo, f_hi = two_numbers(self.band, "band")
            if not f_lo < f_hi:
                raise ConfigError("band must satisfy f_lo < f_hi")
            if self.lines and len(self.lines) != k:
                raise ConfigError("lines, when given, need one list per source")
            for src in self.lines:
                for line in src:
                    two_numbers(line, "a line (frequency_hz, level_db)")

    @property
    def n_sources(self) -> int:
        return len(self.angles)


@dataclass(frozen=True)
class NoiseModel:
    """One of uniform-gaussian (sigma2), nonuniform-gaussian (diag),
    impulsive-sas (alpha, beta, gamma, delta)."""

    kind: str
    sigma2: float = 1.0
    diag: tuple = ()
    alpha: float = 1.2
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind == "uniform-gaussian" and not self.sigma2 > 0:
            raise ConfigError("uniform noise variance must be positive")
        if self.kind == "nonuniform-gaussian":
            if len(self.diag) == 0 or any(v <= 0 for v in self.diag):
                raise ConfigError("non-uniform noise needs a positive variance per element")
        if self.kind == "impulsive-sas":
            if not (0 < self.alpha <= 2):
                raise ConfigError("stable index alpha must lie in (0, 2]")
            if not -1 <= self.beta <= 1:
                raise ConfigError("skewness beta must lie in [-1, 1]")
            if not self.gamma > 0:
                raise ConfigError("dispersion gamma must be positive")


@dataclass
class SnapshotMatrix:
    """Multichannel data block plus the metadata needed downstream."""

    data: np.ndarray
    domain: str                      # "narrowband-snapshot" | "time"
    sample_rate: float = 0.0         # Hz; time domain only

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] < 2 or self.data.shape[1] < 1:
            raise ConfigError("snapshot matrix must be M x N with M >= 2, N >= 1")
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("snapshot matrix entries must be finite")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


# -----------------------------
# Elementary generators
# -----------------------------
def sample_sas(alpha, beta, gamma, delta, n, rng):
    """i.i.d. draws from the stable law S(alpha, beta, gamma, delta).

    Chambers-Mallows-Stuck construction, 1-parameterization: the
    characteristic function at beta=0 is exp(-gamma^alpha |t|^alpha).
    """
    if not (0 < alpha <= 2):
        raise ConfigError("stable index alpha must lie in (0, 2]")
    if not -1 <= beta <= 1:
        raise ConfigError("skewness beta must lie in [-1, 1]")
    if not gamma > 0:
        raise ConfigError("dispersion gamma must be positive")
    rng = np.random.default_rng(rng)
    U = rng.uniform(-np.pi / 2, np.pi / 2, n)
    W = rng.exponential(1.0, n)
    if alpha == 1.0:
        half = np.pi / 2
        X = (2 / np.pi) * ((half + beta * U) * np.tan(U)
                           - beta * np.log((half * W * np.cos(U)) / (half + beta * U)))
        return gamma * X + delta + (2 / np.pi) * beta * gamma * np.log(gamma)
    if beta == 0.0:
        X = (np.sin(alpha * U) / np.cos(U) ** (1 / alpha)
             * (np.cos((1 - alpha) * U) / W) ** ((1 - alpha) / alpha))
    else:
        B = np.arctan(beta * np.tan(np.pi * alpha / 2)) / alpha
        S = (1 + beta ** 2 * np.tan(np.pi * alpha / 2) ** 2) ** (1 / (2 * alpha))
        X = (S * np.sin(alpha * (U + B)) / np.cos(U) ** (1 / alpha)
             * (np.cos(U - alpha * (U + B)) / W) ** ((1 - alpha) / alpha))
    return gamma * X + delta


def generate_noise(model: NoiseModel, m: int, n: int, rng) -> np.ndarray:
    """Complex M x N noise block. Gaussian kinds are circularly symmetric
    with the model's per-row variance; the impulsive kind draws independent
    stable real/imaginary parts."""
    rng = np.random.default_rng(rng)
    if model.kind == "impulsive-sas":
        re = sample_sas(model.alpha, model.beta, model.gamma, model.delta, (m, n), rng)
        im = sample_sas(model.alpha, model.beta, model.gamma, model.delta, (m, n), rng)
        return re + 1j * im
    E = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    if model.kind == "nonuniform-gaussian":
        diag = np.asarray(model.diag, dtype=float)
        if diag.size != m:
            raise ConfigError(f"noise diagonal has {diag.size} entries, array has {m}")
        return np.sqrt(diag)[:, None] * E
    return np.sqrt(model.sigma2) * E


def harmonic_lines(base_hz: float, band: tuple, level_db: float = 10.0) -> tuple:
    """Harmonic line series base, 2*base, ... inside [f_lo, f_hi]."""
    f_lo, f_hi = band
    if base_hz <= 0:
        raise ConfigError("line base frequency must be positive")
    freqs = np.arange(base_hz, f_hi + 1e-9, base_hz)
    freqs = freqs[freqs >= f_lo]
    return tuple((float(f), float(level_db)) for f in freqs)


def propeller_waveform(n: int, fs: float, band: tuple, lines, rng) -> np.ndarray:
    """Unit-power propeller radiation: order-4 Butterworth band-passed
    Gaussian continuum plus discrete lines.

    Each line's level is taken relative to the continuum power within one
    line-spacing slot (the spacing of the first two lines, or the whole band
    for a single line), so "+10 dB" means ten times the continuum power in
    its slot.
    """
    f_lo, f_hi = band
    if not 0 < f_lo < f_hi < fs / 2:
        raise ConfigError("band must satisfy 0 < f_lo < f_hi < fs/2 (Nyquist)")
    rng = np.random.default_rng(rng)
    sos = butter(4, [f_lo, f_hi], "bandpass", fs=fs, output="sos")
    cont = sosfiltfilt(sos, rng.standard_normal(n))
    cont /= np.sqrt(np.mean(cont ** 2))
    x = cont
    lines = list(lines)
    if lines:
        spacing = lines[1][0] - lines[0][0] if len(lines) > 1 else f_hi - f_lo
        t = np.arange(n) / fs
        slot_frac = spacing / (f_hi - f_lo)
        for f, level_db in lines:
            if not f_lo <= f <= f_hi:
                raise ConfigError(f"line at {f} Hz falls outside the band {band}")
            amp = np.sqrt(2 * 10 ** (level_db / 10) * slot_frac)
            x = x + amp * np.cos(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    return x / np.sqrt(np.mean(x ** 2))


def generate_sources(spec: SourceSpec, n: int, rng) -> np.ndarray:
    """K x N source matrix; rows are mutually independent draws.

    Tonal rows are complex exponentials sqrt(power)*exp(j(2 pi f t/fs + phi))
    with a fresh uniform phase per row. Propeller rows are real unit-power
    waveforms scaled by sqrt(power). Per-source substreams are spawned from
    `rng` by position, so a source's row only depends on its index.
    """
    rng = np.random.default_rng(rng)
    streams = rng.spawn(spec.n_sources)
    rows = []
    if spec.kind == "tonal":
        t = np.arange(n)
        for k, sub in enumerate(streams):
            phase = sub.uniform(0, 2 * np.pi)
            rows.append(np.sqrt(spec.powers[k])
                        * np.exp(1j * (2 * np.pi * spec.freqs[k] * t / spec.snapshot_rate + phase)))
        return np.stack(rows)
    for k, sub in enumerate(streams):
        lines = spec.lines[k] if spec.lines else ()
        wave = propeller_waveform(n, spec.snapshot_rate, spec.band, lines, sub)
        rows.append(np.sqrt(spec.powers[k]) * wave)
    return np.stack(rows)


def measure_snr(signal_power: float, model: NoiseModel) -> float:
    """SNR in dB of a signal with mean per-entry power P_y under `model`."""
    if not signal_power > 0:
        raise ConfigError("signal power must be positive")
    if model.kind == "uniform-gaussian":
        return 10 * np.log10(signal_power / model.sigma2)
    if model.kind == "nonuniform-gaussian":
        diag = np.asarray(model.diag, dtype=float)
        return 10 * np.log10(signal_power / diag.size * np.sum(1.0 / diag))
    raise UnsupportedModelError(
        "second-moment SNR is undefined for alpha-stable noise (alpha < 2 has "
        "infinite variance); impulsive scenarios fix gamma and scale the signal")


def _noise_scale_for_snr(signal_power: float, model: NoiseModel,
                         target_snr_db: float) -> float:
    """Linear factor applied to unit-model noise so measured SNR == target."""
    current = measure_snr(signal_power, model)
    return 10 ** ((current - target_snr_db) / 20)


# -----------------------------
# Scene assembly
# -----------------------------
def delay_channels(wave: np.ndarray, geometry: ArrayGeometry, theta_deg: float,
                   fs: float, convention: str = "broadside") -> np.ndarray:
    """Plane-wave array response of one waveform: circular fractional delays
    via the real FFT. Channel m gets s(t + tau_m) (advance convention)."""
    n = wave.size
    W = np.fft.rfft(wave)
    f = np.fft.rfftfreq(n, 1 / fs)
    rad = np.deg2rad(theta_deg)
    direction = np.sin(rad) if convention == "broadside" else np.cos(rad)
    tau = geometry.offsets * geometry.spacing * direction / geometry.sound_speed
    return np.fft.irfft(W[None, :] * np.exp(2j * np.pi * f[None, :] * tau[:, None]), n)


def synthesize(geometry: ArrayGeometry, sources: SourceSpec, model: NoiseModel | None,
               target_snr_db: float | None, n: int, rng,
               dictionary_frequency: float | None = None,
               convention: str = "broadside") -> SnapshotMatrix:
    """Y = A(theta) S + E (tonal) or summed delayed waveforms + E (propeller).

    Gaussian noise is scaled analytically so measure_snr(P_y, scaled model)
    equals target_snr_db. For impulsive noise the dispersion gamma stays as
    given and the *signal* is scaled against the realized noise power of the
    block (documented convention; see module docstring). model=None (or
    target_snr_db=None with Gaussian kinds skipping noise) yields the clean
    field.
    """
    rng = np.random.default_rng(rng)
    src_rng, noise_rng = rng.spawn(2)
    S = generate_sources(sources, n, src_rng)
    if sources.kind == "tonal":
        if dictionary_frequency is None:
            raise ConfigError("tonal synthesis needs the dictionary frequency")
        A = steering_matrix(geometry, dictionary_frequency, np.asarray(sources.angles),
                            convention)
        X = A @ S
        domain, rate = "narrowband-snapshot", sources.snapshot_rate
    else:
        X = np.zeros((geometry.n_elements, n))
        for k in range(sources.n_sources):
            X += delay_channels(S[k].real, geometry, sources.angles[k],
                                sources.snapshot_rate, convention)
        domain, rate = "time", sources.snapshot_rate
    if model is None:
        return SnapshotMatrix(X, domain, rate)

    p_y = float(np.mean(np.abs(X) ** 2))
    if model.kind == "impulsive-sas":
        if domain == "time":
            raise UnsupportedModelError("time-domain impulsive synthesis is not supported")
        E = generate_noise(model, geometry.n_elements, n, noise_rng)
        if target_snr_db is not None:
            realized = float(np.mean(np.abs(E) ** 2))
            X = X * np.sqrt(realized * 10 ** (target_snr_db / 10) / p_y)
        return SnapshotMatrix(X + E, domain, rate)

    scale = 1.0 if target_snr_db is None else _noise_scale_for_snr(p_y, model, target_snr_db)
    E = generate_noise(model, geometry.n_elements, n, noise_rng) * scale
    if domain == "time":
        E = E.real * np.sqrt(2)  # real field: keep per-channel variance
    return SnapshotMatrix(X + E, domain, rate)


def random_noise_diagonal(m: int, rng) -> np.ndarray:
    """Random non-uniform noise diagonal 0.5 + 25*U(0,1) per element."""
    rng = np.random.default_rng(rng)
    return 0.5 + 25.0 * rng.uniform(0.0, 1.0, m)
