"""Command-line surface.

Subcommands: simulate, estimate, btr, bench, cable-sens. Every subcommand
accepts --config with a flat JSON object whose keys are declared once in
build_parser: the dests of its option flags plus its config-only keys. A
flag overrides its config key, which overrides the default (for bench, the
preset). An option that is set neither way is not passed on, so the
defaults of the library's functions and dataclasses hold. estimate and btr
reject a set key that the estimator does not read (its ESTIMATORS entry).

Exit codes: 0 success, 2 argparse usage errors, and otherwise the
`exit_code` of the ToolkitError raised (see errors).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .arrays import CONVENTIONS, ArrayGeometry, build_dictionary, \
    half_wavelength_spacing, sector_or_full, uniform_line_array
from .bench import PRESETS, ScenarioConfig, run_monte_carlo
from .broadband import broadband_estimate, btr
from .cable import FiberSpec, MandrelSpec, cable_sensitivity, \
    mandrel_radial_displacement
from .errors import ConfigError, EstimationError, ToolkitError
from .estimators import ESTIMATORS, SolverConfig, check_estimator
from .frontend import sample_covariance
from .recordio import load_config, load_record, render_table, save_record, \
    save_table, save_timing_table, scenario_from_dict, write_gnuplot
from .refine import RefineConfig, narrowband_estimate
from .simulate import NOISE_KEYS, NOISE_KINDS, SOURCE_KEYS, SOURCE_KINDS, NoiseModel, \
    SourceSpec, synthesize

JOBS_ENV = "DASDOA_JOBS"
# flags that name files or steer output; they are not config keys
_NOT_CONFIG = {"help", "config", "input", "out", "gnuplot", "preset", "jobs",
               "timing_out"}


def _floats(text):
    """Comma-separated finite numbers from a flag, or a JSON list of them
    (not bools) from a config."""
    parts = text.split(",") if isinstance(text, str) else text
    try:
        if any(isinstance(part, bool) for part in parts):
            raise TypeError("a bool is not a number")
        values = tuple(float(part) for part in parts)
        if not all(np.isfinite(values)):
            raise ValueError("not finite")
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {text!r}")
    return values


def _names(text):
    parts = text.split(",") if isinstance(text, str) else text
    return tuple(str(part).strip() for part in parts if str(part).strip())


def _lines(value):
    """Config `lines`: per source, a list of [frequency_hz, level_db] pairs."""
    try:
        if isinstance(value, list) and all(isinstance(src, list) for src in value) \
                and all(isinstance(pair, list) and len(pair) == 2
                        for src in value for pair in src):
            return tuple(tuple(tuple(map(_real, pair)) for pair in src) for src in value)
    except ValueError:
        pass
    raise ValueError(f"expected a list of per-source lists of [frequency_hz, "
                     f"level_db] pairs of finite numbers, got {value!r}")


def _integer(value):
    """An int-typed config value: a JSON integer, not a float or a bool."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _real(value):
    """A float-typed config value: a finite JSON number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not np.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _finite(text):
    """A float flag: a finite number, the text counterpart of _real."""
    try:
        return _real(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}") from None


# a config value's converter by the type of its flag or of its field's default
_STRICT = {str: str, int: _integer, float: _real, _finite: _real, tuple: _floats}


def _fields(*classes) -> dict:
    """Each field of the dataclasses, by name, with the config converter of
    its default's type; a type without one fails here."""
    return {f.name: _STRICT[type(f.default)] for cls in classes for f in fields(cls)}


def _as_given(convert):
    """A bench converter: the value must be what `convert` makes of it, and
    passes on as written, since the manifest digest hashes it (9 vs 9.0)."""
    def check(value):
        given = tuple(value) if isinstance(value, list) else value
        if convert(value) != given:
            raise ValueError(f"{value!r} has the wrong type")
        return value
    return check


class _Options:
    """Layered lookup: command-line flag, then config file, then default.

    Config keys outside args.config_keys (key -> converter), and values
    their converter rejects, raise a ConfigError naming them; null is unset.
    """

    def __init__(self, args):
        self.args = args
        self.config = {}
        raw = load_config(args.config) if args.config else {}
        unknown = sorted(set(raw) - set(args.config_keys))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown} for {args.command}")
        for key, value in raw.items():
            if value is not None:
                try:
                    self.config[key] = args.config_keys[key](value)
                except (TypeError, ValueError, OverflowError,
                        argparse.ArgumentTypeError) as exc:
                    raise ConfigError(f"config key {key!r}: {exc}") from None

    def get(self, key, default=None):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        return self.config.get(key, default)

    def given(self, *keys, **renamed):
        """The options that are set, as keyword arguments: each of `keys`
        under its own name, each `param=key` of `renamed` as param. An unset
        one is left out, so the callee's default holds."""
        names = {**{key: key for key in keys}, **renamed}
        return {param: value for param, key in names.items()
                if (value := self.get(key)) is not None}


def _geometry(opt: _Options, n_channels: int, default_spacing=None) -> ArrayGeometry:
    """The array of n_channels channels: `offsets` in units of `spacing` (m),
    or a uniform line array. A record holds no geometry, so without
    `spacing` the spacing is default_spacing(sound_speed), if one is given."""
    offsets = opt.get("offsets")
    spacing = opt.get("spacing")
    speed = opt.get("sound_speed", ArrayGeometry.sound_speed)
    if spacing is None:
        if default_spacing is None:
            raise ConfigError("time records need --spacing, the element spacing "
                              "in m: a record holds no array geometry")
        spacing = default_spacing(speed)
    if offsets is not None:
        geom = ArrayGeometry(np.asarray(offsets, dtype=float), spacing, speed)
        if geom.n_elements != n_channels:
            raise ConfigError(f"geometry has {geom.n_elements} offsets but the "
                              f"record has {n_channels} channels")
        return geom
    return uniform_line_array(n_channels, spacing, speed)


# -----------------------------
# simulate
# -----------------------------
def _cmd_simulate(args) -> int:
    opt = _Options(args)
    scene = ScenarioConfig      # the default scene: the paper's Table-1 scene
    kind = opt.get("kind", "tonal")
    angles = opt.get("angles", scene.doas)
    powers = opt.get("powers", (1.0,) * len(angles))
    frequency = opt.get("frequency", scene.carrier_hz)
    spec = opt.given(*SOURCE_KEYS, snapshot_rate="rate")
    if kind == "tonal":
        spec.setdefault("freqs", tuple(frequency + scene.tone_spacing_hz * i
                                       for i in range(len(angles))))
    sources = SourceSpec(kind, angles, powers, **spec)
    if kind != "tonal" and opt.get("frequency") is not None:
        raise ConfigError(f"frequency is read only by tonal sources, not {kind}")
    rate = sources.snapshot_rate
    samples = opt.get("samples", scene.snapshots if kind == "tonal" else None)
    if samples is None:
        if not np.isfinite(2 * rate):
            raise ConfigError(f"rate {rate} Hz has no default sample count "
                              f"(2 s of samples); set samples")
        samples = round(2 * rate)

    noise_kind = opt.get("noise", scene.noise)
    if noise_kind == "none":
        if ignored := opt.given(*NOISE_KEYS, "snr"):
            raise ConfigError(f"noise none reads no noise keys, got {sorted(ignored)}")
        model, snr = None, None
    else:
        model = NoiseModel(noise_kind, **opt.given(
            **{key.removeprefix("noise_"): key for key in NOISE_KEYS}))
        snr = opt.get("snr", scene.snr_db)

    # the scene's array: half a wavelength at a tonal carrier, else 0.75 m
    geometry = _geometry(opt, opt.get("elements", scene.n_elements), lambda speed: (
        half_wavelength_spacing(frequency, speed) if kind == "tonal" and frequency
        else 0.75))
    # the largest array of a synthesis: M x N complex128
    if samples * geometry.n_elements * 16 > np.iinfo(np.intp).max:
        what = (f"samples {samples}" if opt.get("samples") is not None
                else f"rate {rate} Hz, at the default 2 s of samples,")
        raise ConfigError(f"{what} for {geometry.n_elements} channels is a record "
                          f"larger than numpy can allocate")
    rng = np.random.default_rng(opt.get("seed", 0))
    block = synthesize(geometry, sources, model, snr, samples, rng,
                       dictionary_frequency=frequency, **opt.given("convention"))
    save_record(block, args.out, **opt.given(fmt="format"))
    print(f"wrote {args.out}: {block.n_channels} channels x "
          f"{block.n_samples} samples ({block.domain})")
    return 0


# -----------------------------
# estimate and btr
# -----------------------------
def _pipeline_options(opt: _Options, default_estimator: str,
                      fixed_grid_step: float) -> dict:
    """The options estimate and btr share, as keyword arguments of
    broadband_estimate and btr; gnr2's coarse grid defaults to 1 deg."""
    estimator = opt.get("estimator", default_estimator)
    entry = check_estimator(estimator, opt.get("k"))
    if unread := sorted(set(opt.given(*_ESTIMATOR_KEYS)) - entry.reads):
        raise ConfigError(f"estimator {estimator} does not read {unread}")
    return dict(estimator=estimator, k=opt.get("k"), sector=opt.get("sector"),
                step=opt.get("step", 1.0 if entry.refines else fixed_grid_step),
                convention=opt.get("convention", "broadside"),
                select_count=opt.get("select_bins"),
                solver_cfg=SolverConfig(**opt.given(*_fields(SolverConfig))),
                refine_cfg=RefineConfig(**opt.given(*_fields(RefineConfig))),
                **opt.given("n_fft", bins="band"))


def _cmd_estimate(args) -> int:
    opt = _Options(args)
    record = load_record(args.input, **opt.given(fmt="format"))
    kw = _pipeline_options(opt, "qspice", 0.5)
    estimator, k = kw["estimator"], kw["k"]
    entry = ESTIMATORS[estimator]
    frequency = opt.get("frequency")
    guard = opt.given(cbf_guard="peak_guard")

    if record.domain == "time":
        if frequency is not None:
            raise ConfigError("option 'frequency' applies only to snapshot records")
        geometry = _geometry(opt, record.n_channels)
        spectrum, estimates = broadband_estimate(record, geometry, **kw, **guard)
    else:
        # gnr2 refines from initial_step: its step sets a time record's grid
        for key in ("band", "n_fft", "select_bins") + ("step",) * entry.refines:
            if opt.get(key) is not None:
                raise ConfigError(f"option {key!r} applies only to time records")
        if frequency is None:
            raise ConfigError("snapshot-domain records need --frequency for "
                              "the steering dictionary")
        geometry = _geometry(opt, record.n_channels,
                             lambda speed: half_wavelength_spacing(frequency, speed))
        sector = sector_or_full(kw["sector"], kw["convention"])
        dictionary = build_dictionary(geometry, frequency, sector, kw["step"],
                                      kw["convention"])
        spectrum, estimates = narrowband_estimate(
            estimator, sample_covariance(record.data), dictionary, sector, k,
            kw["solver_cfg"], kw["refine_cfg"], **guard)

    if args.out:
        save_table(spectrum, args.out)
        if args.gnuplot:
            write_gnuplot(args.out, args.out + ".gp", "spectrum")
    if k is not None:
        if len(estimates) < k:
            raise EstimationError(
                f"{estimator} resolved {len(estimates)} of {k} sources")
        print("angles_deg: " + " ".join(f"{a:.4f}" for a in estimates))
    elif not args.out:
        print(f"spectrum: {spectrum.angles.size} points "
              f"({spectrum.estimator}); use --out to save it")
    return 0


def _cmd_btr(args) -> int:
    opt = _Options(args)
    record = load_record(args.input, **opt.given(fmt="format"))
    geometry = _geometry(opt, record.n_channels)
    kw = _pipeline_options(opt, "cbf", 1.0)
    if kw["k"] and kw["select_count"] is None and not ESTIMATORS[kw["estimator"]].needs_k:
        raise ConfigError(f"btr writes no picks: {kw['estimator']} reads k only with select_bins")
    result = btr(record, geometry, **opt.given("frame_seconds",
                                               frame_hop_fraction="hop_fraction"), **kw)
    save_table(result, args.out)
    if args.gnuplot:
        write_gnuplot(args.out, args.out + ".gp", "btr")
    print(f"wrote {args.out}: {len(result.times)} frames x "
          f"{result.angles.size} bearings ({result.estimator})")
    return 0


# -----------------------------
# bench
# -----------------------------
def _cmd_bench(args) -> int:
    opt = _Options(args)
    preset = PRESETS[args.preset]() if args.preset else ScenarioConfig()
    cfg = scenario_from_dict({key: opt.get(key, value)
                              for key, value in asdict(preset).items()})
    try:
        jobs = args.jobs if args.jobs is not None else int(os.environ.get(JOBS_ENV, "1"))
    except ValueError:
        raise ConfigError(f"{JOBS_ENV} must be an integer") from None
    result = run_monte_carlo(cfg, jobs=jobs)
    if args.out:
        save_table(result, args.out)
        if args.gnuplot:
            write_gnuplot(args.out, args.out + ".gp", "bench")
        print(f"wrote {args.out}: {len(result.rows)} rows "
              f"(config {result.config.digest()})")
    else:
        sys.stdout.write(render_table(result))
    if args.timing_out:
        save_timing_table(result, args.timing_out)
        print(f"wrote {args.timing_out}")
    return 0


# -----------------------------
# cable-sens
# -----------------------------
def _cmd_cable(args) -> int:
    opt = _Options(args)
    # the report drives the cable at p2 = 1 Pa unless p2 is set
    mandrel = MandrelSpec(**{"p2": 1.0, **opt.given(*_fields(MandrelSpec))})
    fiber = FiberSpec(**opt.given(*_fields(FiberSpec)))
    dr = mandrel_radial_displacement(mandrel)
    sens = cable_sensitivity(mandrel, fiber)
    print(f"radial_displacement_m: {dr:.6e}")
    print(f"sensitivity_db_re_1rad_per_uPa_m: {sens:.2f}")
    return 0


# -----------------------------
# Parser
# -----------------------------
_PIPELINE_CONFIG_ONLY = dict(_fields(SolverConfig, RefineConfig), sound_speed=float)
_ESTIMATOR_KEYS = (*_fields(SolverConfig, RefineConfig), "peak_guard")


def _declare(parser: argparse.ArgumentParser, fn, **config_only) -> None:
    """Set a subcommand's handler and its config keys: the dest of each
    option flag, converted by the flag's type, plus `config_only`. An
    int-typed key takes only a JSON integer, a float-typed key a number."""
    keys = {**{a.dest: a.type or str for a in parser._actions
               if a.dest not in _NOT_CONFIG}, **config_only}
    parser.set_defaults(fn=fn, config_keys={
        key: _STRICT.get(convert, convert) for key, convert in keys.items()})


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    """The flags estimate and btr share."""
    p.add_argument("--config")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("binary", "csv"))
    p.add_argument("--estimator", choices=ESTIMATORS)
    p.add_argument("--k", type=int,
                   help="source count (music, gnr2, --select-bins; estimate "
                        "then picks peaks)")
    p.add_argument("--band", type=_floats)
    p.add_argument("--n-fft", dest="n_fft", type=int)
    p.add_argument("--select-bins", dest="select_bins", type=int)
    p.add_argument("--sector", type=_floats)
    p.add_argument("--step", type=_finite)
    p.add_argument("--convention", choices=CONVENTIONS)
    p.add_argument("--spacing", type=_finite)
    p.add_argument("--offsets", type=_floats)
    p.add_argument("--gnuplot", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasdoa",
        description="Broadband direction-of-arrival toolkit for line arrays.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic record")
    sim.add_argument("--config", help="JSON file with option keys")
    sim.add_argument("--out", required=True)
    sim.add_argument("--format", choices=("binary", "csv"))
    sim.add_argument("--kind", choices=SOURCE_KINDS)
    sim.add_argument("--angles", type=_floats)
    sim.add_argument("--powers", type=_floats)
    sim.add_argument("--freqs", type=_floats)
    sim.add_argument("--band", type=_floats, help="f_lo,f_hi for propeller")
    sim.add_argument("--rate", type=_finite)
    sim.add_argument("--frequency", type=_finite, help="tonal carrier Hz")
    sim.add_argument("--elements", type=int)
    sim.add_argument("--spacing", type=_finite, help="element spacing in m")
    sim.add_argument("--samples", type=int)
    sim.add_argument("--snr", type=_finite)
    sim.add_argument("--noise", choices=("none",) + NOISE_KINDS)
    sim.add_argument("--noise-diag", dest="noise_diag", type=_floats)
    sim.add_argument("--alpha", type=_finite)
    sim.add_argument("--seed", type=int)
    _declare(sim, _cmd_simulate, lines=_lines, sigma2=float, gamma=float,
             convention=str, offsets=_floats, sound_speed=float)

    est = sub.add_parser("estimate", help="bearing spectrum from a record")
    _add_pipeline_args(est)
    est.add_argument("--frequency", type=_finite)
    est.add_argument("--out", help="write the spectrum as CSV")
    _declare(est, _cmd_estimate, **_PIPELINE_CONFIG_ONLY, peak_guard=float)

    btr_p = sub.add_parser("btr", help="bearing-time record from a time record")
    _add_pipeline_args(btr_p)
    btr_p.add_argument("--frame-seconds", dest="frame_seconds", type=_finite)
    btr_p.add_argument("--hop-fraction", dest="hop_fraction", type=_finite)
    btr_p.add_argument("--out", required=True)
    _declare(btr_p, _cmd_btr, **_PIPELINE_CONFIG_ONLY)

    ben = sub.add_parser("bench", help="Monte Carlo accuracy benchmark")
    ben.add_argument("--preset", choices=sorted(PRESETS))
    ben.add_argument("--config", help="JSON with ScenarioConfig keys")
    ben.add_argument("--trials", type=int)
    ben.add_argument("--seed", type=int)
    ben.add_argument("--methods", type=_names)
    ben.add_argument("--sweep-values", dest="sweep_values", type=_floats)
    ben.add_argument("--jobs", type=int,
                     help=f"worker processes (default ${JOBS_ENV} or 1)")
    ben.add_argument("--out", help="metrics CSV path (default: stdout)")
    ben.add_argument("--timing-out", dest="timing_out",
                     help="wall-clock CSV path (non-deterministic)")
    ben.add_argument("--gnuplot", action="store_true")
    # every ScenarioConfig field, typed like its default, passed on as written
    keys = {key: _as_given(convert) for key, convert in _fields(ScenarioConfig).items()}
    keys["methods"] = _as_given(_names)
    _declare(ben, _cmd_bench, **keys)

    cab = sub.add_parser("cable-sens", help="spiral cable pressure sensitivity")
    cab.add_argument("--config")
    # a flag per MandrelSpec and FiberSpec field, three of them renamed
    renamed = dict(poisson_ratio="poisson", youngs_modulus="modulus",
                   refractive_index="index")
    for key in _fields(MandrelSpec, FiberSpec):
        cab.add_argument("--" + renamed.get(key, key).replace("_", "-"), dest=key,
                         type=_finite)
    _declare(cab, _cmd_cable)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
