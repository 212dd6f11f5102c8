"""Scenario synthesis: tonal and propeller sources, three noise families, SNR.

Narrowband snapshot model
    Y = A(theta) S + E        (complex M x N)
with A built at a single dictionary frequency; tonal sources are complex
exponentials with a random phase per trial. Time-domain records are real
M x n waveforms built by fractional-delay plane-wave propagation. A record,
SnapshotMatrix, holds its samples and their sample rate; its kind is its
dtype: complex samples are narrowband snapshots, real ones a time record.
A SourceSpec or NoiseModel that sets a key its kind does not read away from
its default raises ConfigError: each kind reads only its own keys.

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

from .arrays import ArrayGeometry, axis_cosines, positive_finite, steering_matrix, \
    two_numbers
from .errors import ConfigError, UnsupportedModelError

NOISE_KINDS = ("uniform-gaussian", "nonuniform-gaussian", "impulsive-sas")
SOURCE_KINDS = ("tonal", "propeller-broadband")
# each key of a kind and the kind that reads it; the key noise_diag sets diag
NOISE_KEYS = {"sigma2": "uniform-gaussian", "noise_diag": "nonuniform-gaussian",
              "alpha": "impulsive-sas", "gamma": "impulsive-sas"}
SOURCE_KEYS = {"freqs": "tonal", "band": "propeller-broadband",
               "lines": "propeller-broadband"}


def _check_kind_keys(spec, keys: dict, what: str) -> None:
    """A ConfigError for the first of `keys` that spec sets away from its class
    default though its kind does not read it."""
    for key, reader in keys.items():
        if spec.kind == reader:
            continue
        name = key.removeprefix("noise_")
        value, default = getattr(spec, name), getattr(type(spec), name)
        # a sequence item by item: lines may be ragged, so no array of them
        if not (hasattr(value, "__len__") and len(value) == len(default)
                and all(map(np.array_equal, value, default))
                if isinstance(default, tuple) else np.array_equal(value, default)):
            raise ConfigError(f"{key} is read only by {reader} {what}, not "
                              f"{spec.kind} (got {key}={value})")


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
        positive_finite(self.snapshot_rate, "snapshot rate")
        if self.kind == "tonal":
            if len(self.freqs) != k:
                raise ConfigError("tonal sources need one frequency per source")
        else:
            f_lo, f_hi = two_numbers(self.band, "band")
            if not f_lo < f_hi:
                raise ConfigError("band must satisfy f_lo < f_hi")
            if self.lines and len(self.lines) != k:
                raise ConfigError("lines, when given, need one list per source")
            for src in self.lines:
                for line in src:
                    two_numbers(line, "a line (frequency_hz, level_db)")
        _check_kind_keys(self, SOURCE_KEYS, "sources")

    @property
    def n_sources(self) -> int:
        return len(self.angles)


@dataclass(frozen=True)
class NoiseModel:
    """One of uniform-gaussian (sigma2), nonuniform-gaussian (diag),
    impulsive-sas (alpha, gamma): symmetric and centred alpha-stable noise.
    A kind takes only its own parameters; the others keep their defaults."""

    kind: str
    sigma2: float = 1.0
    diag: tuple = ()
    alpha: float = 1.2
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}; the kinds are "
                              f"{', '.join(NOISE_KINDS)}")
        _check_kind_keys(self, NOISE_KEYS, "noise")
        if not self.sigma2 > 0:
            raise ConfigError("uniform noise variance must be positive")
        if self.kind == "nonuniform-gaussian" and (
                len(self.diag) == 0 or any(v <= 0 for v in self.diag)):
            raise ConfigError("non-uniform noise needs a positive variance per element")
        _check_stable_law(self.alpha, self.gamma)


@dataclass(frozen=True)
class SnapshotMatrix:
    """A record: M x N samples and their sample rate in Hz."""

    data: np.ndarray
    sample_rate: float

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] < 2 or self.data.shape[1] < 1:
            raise ConfigError("snapshot matrix must be M x N with M >= 2, N >= 1")
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("snapshot matrix entries must be finite")
        positive_finite(self.sample_rate, "a record's sample rate")

    @property
    def domain(self) -> str:
        """The record's kind: "narrowband-snapshot" if complex, else "time"."""
        return "narrowband-snapshot" if np.iscomplexobj(self.data) else "time"

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


# -----------------------------
# Elementary generators
# -----------------------------
def _check_stable_law(alpha, gamma) -> None:
    """A ConfigError unless 0 < alpha <= 2 and gamma > 0, as SaS needs."""
    if not (0 < alpha <= 2):
        raise ConfigError("stable index alpha must lie in (0, 2]")
    if not gamma > 0:
        raise ConfigError("dispersion gamma must be positive")


def sample_sas(alpha, gamma, n, rng):
    """i.i.d. draws from the symmetric stable law SaS(alpha, gamma), centred
    at 0: characteristic function exp(-gamma^alpha |t|^alpha).

    Chambers-Mallows-Stuck construction (JASA 71(354), 1976) at skewness 0.
    """
    _check_stable_law(alpha, gamma)
    rng = np.random.default_rng(rng)
    U = rng.uniform(-np.pi / 2, np.pi / 2, n)
    W = rng.exponential(1.0, n)    # unused at alpha = 1, but it advances rng
    if alpha == 1.0:
        # Cauchy; the (2/pi)(pi/2 tan U) form is kept for its rounding:
        # tan(U) alone changes the low bits of the draws
        X = (2 / np.pi) * (np.pi / 2 * np.tan(U))
    else:
        X = (np.sin(alpha * U) / np.cos(U) ** (1 / alpha)
             * (np.cos((1 - alpha) * U) / W) ** ((1 - alpha) / alpha))
    return gamma * X


def generate_noise(model: NoiseModel, m: int, n: int, rng) -> np.ndarray:
    """Complex M x N noise block. Gaussian kinds are circularly symmetric
    with the model's per-row variance; the impulsive kind draws independent
    stable real/imaginary parts."""
    rng = np.random.default_rng(rng)
    if model.kind == "impulsive-sas":
        re = sample_sas(model.alpha, model.gamma, (m, n), rng)
        im = sample_sas(model.alpha, model.gamma, (m, n), rng)
        return re + 1j * im
    E = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    if model.kind == "nonuniform-gaussian":
        diag = np.asarray(model.diag, dtype=float)
        if diag.size != m:
            raise ConfigError(f"noise diagonal has {diag.size} entries, array has {m}")
        return np.sqrt(diag)[:, None] * E
    return np.sqrt(model.sigma2) * E


def harmonic_lines(base_hz: float, band: tuple) -> tuple:
    """Harmonic line series base, 2*base, ... inside [f_lo, f_hi], each
    10 dB over the continuum in its slot."""
    f_lo, f_hi = band
    positive_finite(base_hz, "line base frequency")
    freqs = np.arange(base_hz, f_hi + 1e-9, base_hz)
    freqs = freqs[freqs >= f_lo]
    return tuple((float(f), 10.0) for f in freqs)


def propeller_waveform(n: int, fs: float, band: tuple, lines, rng) -> np.ndarray:
    """Unit-power propeller radiation: order-4 Butterworth band-passed
    Gaussian continuum plus discrete lines.

    Each line's level is taken relative to the continuum power within one
    line-spacing slot (the spacing of the first two lines, or the whole band
    for a single line), so "+10 dB" means ten times the continuum power in
    its slot. The record must span the filter's edge padding and one period
    of the band's lower edge (n >= fs / f_lo).
    """
    # imported here: scipy.signal would cost every CLI start-up ~0.5 s
    from scipy.signal import butter, sosfiltfilt
    f_lo, f_hi = band
    if not 0 < f_lo < f_hi < fs / 2:
        raise ConfigError("band must satisfy 0 < f_lo < f_hi < fs/2 (Nyquist)")
    rng = np.random.default_rng(rng)
    sos = butter(4, [f_lo, f_hi], "bandpass", fs=fs, output="sos")
    # sosfiltfilt's default edge padding, which the record must exceed
    padlen = 3 * (2 * len(sos) + 1
                  - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()))
    if n <= padlen:
        raise ConfigError(f"a propeller waveform needs at least {padlen + 1} "
                          f"samples (the band-pass filter's edge padding), got {n}")
    try:
        cont = sosfiltfilt(sos, rng.standard_normal(n))
    except np.linalg.LinAlgError:     # the filter's initial state is singular
        raise ConfigError(f"the band-pass filter for band {band} Hz at a "
                          f"{fs} Hz sample rate is numerically unusable") from None
    if n < fs / f_lo:
        raise ConfigError(f"a propeller waveform of {n} samples is shorter than "
                          f"one period of the band's lower edge, {f_lo} Hz at a "
                          f"{fs} Hz sample rate ({fs / f_lo:.6g} samples)")
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


# -----------------------------
# Scene assembly
# -----------------------------
def delay_channels(wave: np.ndarray, geometry: ArrayGeometry, theta_deg: float,
                   fs: float, convention: str = "broadside") -> np.ndarray:
    """Plane-wave array response of one waveform: circular fractional delays
    via the real FFT. Channel m gets s(t + tau_m) (advance convention)."""
    direction = axis_cosines(theta_deg, convention)
    n = wave.size
    W = np.fft.rfft(wave)
    f = np.fft.rfftfreq(n, 1 / fs)
    tau = geometry.offsets * geometry.spacing * direction / geometry.sound_speed
    return np.fft.irfft(W[None, :] * np.exp(2j * np.pi * f[None, :] * tau[:, None]), n)


def synthesize(geometry: ArrayGeometry, sources: SourceSpec, model: NoiseModel | None,
               target_snr_db: float | None, n: int, rng,
               dictionary_frequency: float | None = None,
               convention: str = "broadside") -> SnapshotMatrix:
    """Y = A(theta) S + E (tonal) or summed delayed waveforms + E (propeller),
    a record at the sources' snapshot rate; model None yields the clean field.

    Gaussian noise is scaled so measure_snr(P_y, scaled model) equals
    target_snr_db (None: the model as given). Impulsive noise keeps gamma,
    and the *signal* is scaled against the block's realized noise power
    (see the module docstring).
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
    else:
        X = np.zeros((geometry.n_elements, n))
        for k in range(sources.n_sources):
            X += delay_channels(S[k].real, geometry, sources.angles[k],
                                sources.snapshot_rate, convention)
    if model is None:
        return SnapshotMatrix(X, sources.snapshot_rate)

    p_y = float(np.mean(np.abs(X) ** 2))
    if model.kind == "impulsive-sas":
        if sources.kind != "tonal":
            raise UnsupportedModelError("time-domain impulsive synthesis is not supported")
        E = generate_noise(model, geometry.n_elements, n, noise_rng)
        if target_snr_db is not None:
            realized = float(np.mean(np.abs(E) ** 2))
            X = X * np.sqrt(realized * 10 ** (target_snr_db / 10) / p_y)
    else:
        scale = (1.0 if target_snr_db is None
                 else 10 ** ((measure_snr(p_y, model) - target_snr_db) / 20))
        E = generate_noise(model, geometry.n_elements, n, noise_rng) * scale
        if sources.kind != "tonal":
            E = E.real * np.sqrt(2)  # real field: keep per-channel variance
    return SnapshotMatrix(X + E, sources.snapshot_rate)
