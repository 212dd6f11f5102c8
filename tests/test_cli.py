import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dasdoa import cli, errors, estimators
from dasdoa.arrays import build_dictionary, full_sector, half_wavelength_spacing, \
    uniform_line_array
from dasdoa.bench import PRESETS, ScenarioConfig
from dasdoa.broadband import broadband_estimate
from dasdoa.cable import FiberSpec, MandrelSpec, cable_sensitivity, \
    mandrel_radial_displacement
from dasdoa.estimators import ESTIMATORS, SolverConfig
from dasdoa.frontend import sample_covariance
from dasdoa.recordio import load_record, render_table, save_record
from dasdoa.refine import RefineConfig, narrowband_estimate
from dasdoa.simulate import NoiseModel, SourceSpec, synthesize


def _simulate_snapshot(tmp_path, **extra):
    path = tmp_path / "snap.bin"
    argv = ["simulate", "--out", str(path), "--kind", "tonal",
            "--angles", extra.pop("angles", "2.36,27.62"),
            "--noise", "uniform-gaussian", "--snr", "10", "--seed", "7"]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    assert cli.main(argv) == 0
    return path


def _simulate_time(tmp_path):
    path = tmp_path / "wave.bin"
    argv = ["simulate", "--out", str(path), "--kind", "propeller-broadband",
            "--angles", "18.8", "--rate", "5120", "--samples", "5120",
            "--elements", "8", "--spacing", "1.25", "--band", "100,1000",
            "--noise", "uniform-gaussian", "--snr", "10", "--seed", "3"]
    assert cli.main(argv) == 0
    return path


def test_simulate_then_estimate_snapshot(tmp_path, capsys):
    record = _simulate_snapshot(tmp_path)
    out = tmp_path / "spec.csv"
    code = cli.main(["estimate", "--input", str(record), "--estimator",
                     "qspice", "--frequency", "3000", "--k", "2",
                     "--out", str(out), "--gnuplot"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "angles_deg:" in printed
    assert out.exists() and (tmp_path / "spec.csv.gp").exists()
    assert out.read_text().splitlines()[2] == "angle_deg,power_db"


def test_estimate_gnr2_prints_refined_angles(tmp_path, capsys):
    record = _simulate_snapshot(tmp_path)
    code = cli.main(["estimate", "--input", str(record), "--estimator",
                     "gnr2", "--frequency", "3000", "--k", "2"])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    angles = [float(tok) for tok in line.split()[1:]]
    assert len(angles) == 2
    assert abs(angles[0] - 2.36) < 0.3 and abs(angles[1] - 27.62) < 0.3


def test_estimate_broadband_time_record(tmp_path, capsys):
    record = _simulate_time(tmp_path)
    out = tmp_path / "broad.csv"
    code = cli.main(["estimate", "--input", str(record), "--estimator", "cbf",
                     "--band", "100,1000", "--spacing", "1.25",
                     "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_estimate_spice_runs_spice_and_says_so(tmp_path, capsys):
    # a time record: the CLI solves at r = q = 1, as the API does
    record = _simulate_time(tmp_path)
    out = tmp_path / "spice.csv"
    code = cli.main(["estimate", "--input", str(record), "--estimator", "spice",
                     "--band", "100,1000", "--spacing", "1.25", "--k", "1",
                     "--select-bins", "4", "--out", str(out)])
    assert code == 0
    spectrum, _ = broadband_estimate(load_record(record),
                                     uniform_line_array(8, 1.25),
                                     bins=(100.0, 1000.0), estimator="spice",
                                     k=1, step=0.5, select_count=4)
    assert out.read_text() == render_table(spectrum)
    # a snapshot record: the table is tagged with the estimator asked for
    record = _simulate_snapshot(tmp_path)
    code = cli.main(["estimate", "--input", str(record), "--estimator", "spice",
                     "--frequency", "3000", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("# spectrum estimator=spice ")


def test_btr_writes_table(tmp_path, capsys):
    record = _simulate_time(tmp_path)
    out = tmp_path / "btr.csv"
    code = cli.main(["btr", "--input", str(record), "--estimator", "cbf",
                     "--band", "100,1000", "--spacing", "1.25",
                     "--frame-seconds", "0.5", "--out", str(out),
                     "--gnuplot"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2].startswith("time_s,")
    assert len(lines) == 3 + 3            # 1 s record, 0.5 s frames, 50% hop
    assert (tmp_path / "btr.csv.gp").exists()


def test_bench_stdout_deterministic(tmp_path, capsys):
    argv = ["bench", "--preset", "table1", "--trials", "2",
            "--sweep-values", "9", "--methods", "cbf,gnr2"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first
    assert "success_pct" in first


def test_bench_parallel_matches_serial(tmp_path, capsys):
    out1, out2 = tmp_path / "serial.csv", tmp_path / "par.csv"
    base = ["bench", "--preset", "table1", "--trials", "2",
            "--sweep-values", "9", "--methods", "cbf"]
    assert cli.main(base + ["--out", str(out1)]) == 0
    assert cli.main(base + ["--out", str(out2), "--jobs", "2"]) == 0
    assert out1.read_text() == out2.read_text()


def test_bench_timing_table(tmp_path, capsys):
    out, timing = tmp_path / "m.csv", tmp_path / "t.csv"
    code = cli.main(["bench", "--preset", "table1",
                     "--trials", "1", "--sweep-values", "9",
                     "--methods", "cbf,music", "--out", str(out),
                     "--timing-out", str(timing)])
    assert code == 0
    assert timing.read_text().splitlines()[2] == "method,total_s,ratio"


def test_cable_sens_prints_sensitivity(capsys):
    assert cli.main(["cable-sens"]) == 0
    printed = capsys.readouterr().out
    assert "radial_displacement_m:" in printed
    assert "sensitivity_db_re_1rad_per_uPa_m:" in printed


def test_config_file_supplies_defaults(tmp_path, capsys):
    record = _simulate_snapshot(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frequency": 3000.0, "estimator": "cbf",
                               "k": 2, "peak_guard": 3.0}))
    code = cli.main(["estimate", "--input", str(record),
                     "--config", str(cfg)])
    assert code == 0
    assert "angles_deg:" in capsys.readouterr().out


def test_missing_frequency_exits_2(tmp_path, capsys):
    record = _simulate_snapshot(tmp_path)
    code = cli.main(["estimate", "--input", str(record), "--estimator", "cbf"])
    assert code == 2
    assert "frequency" in capsys.readouterr().err


def test_unknown_estimator_from_config_exits_2(tmp_path, capsys):
    record = _simulate_snapshot(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"estimator": "parabolic"}))
    code = cli.main(["estimate", "--input", str(record), "--frequency", "3000",
                     "--config", str(cfg)])
    assert code == 2
    assert "unknown estimator" in capsys.readouterr().err


def test_missing_input_exits_3(tmp_path, capsys):
    code = cli.main(["estimate", "--input", str(tmp_path / "absent.bin"),
                     "--frequency", "3000"])
    assert code == 3


def test_config_with_a_repeated_key_exits_3(tmp_path, capsys):
    # JSON keeps the last of repeated keys; the config parser rejects them
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": 1, "trials": 3}')
    code = cli.main(["bench", "--preset", "table1", "--methods", "cbf",
                     "--sweep-values", "9", "--config", str(cfg),
                     "--out", str(tmp_path / "table.csv")])
    assert code == 3
    assert "repeats keys ['trials']" in capsys.readouterr().err
    assert not (tmp_path / "table.csv").exists()


def test_shortfall_exits_4(tmp_path, capsys):
    # A guard wider than the sector leaves at most one CBF pick, so asking
    # for two sources must surface as an estimation failure.
    record = _simulate_snapshot(tmp_path, angles="10.0")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"peak_guard": 185.0}))
    code = cli.main(["estimate", "--input", str(record), "--estimator", "cbf",
                     "--frequency", "3000", "--k", "2", "--config", str(cfg)])
    assert code == 4
    assert "resolved 1 of 2" in capsys.readouterr().err


def test_singular_model_exits_4(records, monkeypatch):
    # a Cholesky failure of the solver's model is an estimation failure
    real = estimators.get_lapack_funcs

    def failing_potrf(names, **kwargs):
        _, potrs = real(names, **kwargs)
        return (lambda a, *flags: (a, 2)), potrs

    monkeypatch.setattr(estimators, "get_lapack_funcs", failing_potrf)
    code, out, err = _run(["estimate", "--input", str(records[0]), "--frequency",
                           "3000", "--estimator", "qspice", "--k", "2"])
    assert (code, out) == (4, "")
    assert "2-th leading minor" in err


# every ToolkitError class and the exit code it carries
_EXIT_CODES = {errors.ToolkitError: 2, errors.ConfigError: 2,
               errors.UnsupportedModelError: 2, errors.DataError: 3,
               errors.ParseError: 3, errors.DegenerateInputError: 3,
               errors.EstimationError: 4, errors.SingularModelError: 4}


def test_exit_code_table_names_every_toolkit_error():
    def family(cls):
        return {cls}.union(*(family(sub) for sub in cls.__subclasses__()))
    assert family(errors.ToolkitError) == set(_EXIT_CODES)


@pytest.mark.parametrize("error, code", _EXIT_CODES.items(),
                         ids=[cls.__name__ for cls in _EXIT_CODES])
def test_each_toolkit_error_exits_with_its_code(error, code, monkeypatch):
    def handler(args):
        raise error("the handler failed")
    monkeypatch.setattr(cli, "_cmd_cable", handler)
    assert error.exit_code == code
    assert _run(["cable-sens"]) == (code, "", "error: the handler failed\n")


def test_bad_preset_exits_2_via_argparse(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["bench", "--preset", "no-such-preset"])
    assert err.value.code == 2


def test_geometry_channel_mismatch_exits_2(tmp_path, capsys):
    record = _simulate_snapshot(tmp_path)
    code = cli.main(["estimate", "--input", str(record), "--frequency",
                     "3000", "--offsets", "0,1,2"])
    assert code == 2
    assert "channels" in capsys.readouterr().err


# -----------------------------
# --config: one layering rule for every subcommand
# -----------------------------
@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """A 12 x 60 tonal snapshot record and an 8-channel 1 s time record."""
    tmp = tmp_path_factory.mktemp("records")
    return _simulate_snapshot(tmp), _simulate_time(tmp)


def _run(argv):
    """(exit code, stdout, stderr) of the CLI on argv; argparse's usage
    errors exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _flag_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _options(table):
    """Draw some of table's options (key -> (flag, values)), each with a
    value and whether the config, not the flag, sets it."""
    return st.fixed_dictionaries({}, optional={
        key: st.tuples(values, st.booleans()) for key, (_, values) in table.items()})


def _by_flag_and_by_config(argv, table, drawn, tmp_path, out=None):
    """Run argv with every drawn option as a flag, then with the drawn
    split between flags and a config; return both (exit, stdout, stderr,
    output file) results."""
    results = []
    for use_config in (False, True):
        config = {key: value for key, (value, in_config) in drawn.items()
                  if use_config and in_config}
        flags = [f"{table[key][0]}={_flag_text(value)}"
                 for key, (value, _) in drawn.items() if key not in config]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = _run(argv + flags + ["--config", str(cfg)])
        written = None
        if out is not None and out.exists():
            written = out.read_bytes()
            out.unlink()
        results.append(result + (written,))
    return results


_CABLE = {
    "inner_radius": ("--inner-radius", st.floats(1e-3, 4e-3)),
    "outer_radius": ("--outer-radius", st.floats(5e-3, 1e-2)),
    "poisson_ratio": ("--poisson", st.floats(0.0, 0.49)),
    "youngs_modulus": ("--modulus", st.floats(1e8, 1e10)),
    "p1": ("--p1", st.floats(0.0, 1.0)),
    "p2": ("--p2", st.floats(0.0, 3.0)),
    "refractive_index": ("--index", st.floats(1.4, 1.5)),
    "wavelength": ("--wavelength", st.sampled_from([1310e-9, 1550e-9])),
    "wound_length": ("--wound-length", st.floats(2.0, 10.0)),
    "cable_length": ("--cable-length", st.floats(0.5, 2.0)),
}

_SIMULATE = {
    "angles": ("--angles", st.sampled_from([(10.0,), (2.36, 27.62),
                                            (-20.0, 5.0, 40.0)])),
    "powers": ("--powers", st.sampled_from([(1.0,), (1.0, 2.0)])),
    "frequency": ("--frequency", st.sampled_from([2000.0, 3000.0])),
    "rate": ("--rate", st.sampled_from([6000.0, 8000.0])),
    "elements": ("--elements", st.integers(4, 12)),
    "samples": ("--samples", st.integers(8, 60)),
    "spacing": ("--spacing", st.floats(0.1, 1.0)),
    "snr": ("--snr", st.floats(-5.0, 20.0)),
    "noise": ("--noise", st.sampled_from(["none", "uniform-gaussian",
                                          "impulsive-sas"])),
    "alpha": ("--alpha", st.floats(0.5, 2.0)),
    "seed": ("--seed", st.integers(0, 2 ** 32)),
    "format": ("--format", st.sampled_from(["binary", "csv"])),
}

_ESTIMATE = {
    "frequency": ("--frequency", st.sampled_from([2900.0, 3000.0])),
    "k": ("--k", st.integers(1, 3)),
    "step": ("--step", st.sampled_from([0.25, 0.5, 1.0])),
    "sector": ("--sector", st.sampled_from([(-90.0, 90.0), (-40.0, 60.0),
                                            (0.0, 45.5)])),
    "spacing": ("--spacing", st.floats(0.2, 0.5)),
}


@given(drawn=_options(_CABLE))
def test_cable_sens_config_equals_flags(drawn, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cable")
    by_flag, by_config = _by_flag_and_by_config(["cable-sens"], _CABLE, drawn, tmp)
    assert by_config == by_flag


@settings(max_examples=40)
@given(drawn=_options(_SIMULATE))
def test_simulate_config_equals_flags(drawn, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("simulate")
    out = tmp / "rec.out"
    by_flag, by_config = _by_flag_and_by_config(
        ["simulate", "--out", str(out)], _SIMULATE, drawn, tmp, out)
    assert by_config == by_flag


@settings(max_examples=40)
@given(drawn=_options(_ESTIMATE))
def test_estimate_config_equals_flags(drawn, records, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("estimate")
    out = tmp / "spec.csv"
    argv = ["estimate", "--input", str(records[0]), "--estimator", "cbf",
            "--out", str(out)]
    by_flag, by_config = _by_flag_and_by_config(argv, _ESTIMATE, drawn, tmp, out)
    assert by_config == by_flag


_ESTIMATE_ARGV = ["estimate", "--input", "{tmp}/x.bin"]
_MALFORMED = {
    "simulate": (["simulate", "--out", "{tmp}/x.bin"], {"samples": "two"}),
    "estimate": (_ESTIMATE_ARGV, {"k": "two"}),
    # an int-typed key takes a JSON integer: no truncation, no bool
    "estimate-k-float": (_ESTIMATE_ARGV, {"k": 2.5}),
    "estimate-k-bool": (_ESTIMATE_ARGV, {"k": True}),
    "estimate-max_iter-float": (_ESTIMATE_ARGV, {"max_iter": 2.7}),
    # a float-typed key takes a JSON number, not a bool
    "estimate-r-bool": (_ESTIMATE_ARGV, {"r": True, "q": True}),
    # and a finite one
    "estimate-step-nan": (_ESTIMATE_ARGV, {"step": float("nan")}),
    "estimate-step-overflow": (_ESTIMATE_ARGV, {"step": 10 ** 400}),
    # a list-valued key takes finite JSON numbers, not bools
    "simulate-angles-bool": (["simulate", "--out", "{tmp}/x.bin"],
                             {"angles": [True, 27.62]}),
    "bench-sweep_values-bool": (["bench", "--preset", "table1"],
                                {"sweep_values": [True]}),
    "btr": (["btr", "--input", "{tmp}/x.bin", "--out", "{tmp}/x.csv"],
            {"max_iter": [500]}),
    "bench": (["bench", "--preset", "table1"], {"trials": "two"}),
    "bench-snr_db-bool": (["bench", "--preset", "table1"], {"snr_db": True}),
    "cable-sens": (["cable-sens"], {"p2": "two"}),
}


@pytest.mark.parametrize("command", sorted(_MALFORMED))
def test_config_rejects_unknown_keys_and_malformed_values(command, tmp_path):
    argv, malformed = _MALFORMED[command]
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snrr": 99, "frame": 1}))
    code, out, err = _run(argv + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "unknown config keys ['frame', 'snrr']" in err
    cfg.write_text(json.dumps(malformed))
    code, out, err = _run(argv + ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert f"config key {next(iter(malformed))!r}" in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("record, argv", [
    (0, ["--frequency", "3000"]), (1, ["--spacing", "1.25", "--k", "1"])],
    ids=["snapshot", "time"])
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_non_finite_step_flag_exits_2(record, argv, estimator, records):
    code, out, err = _run(["estimate", "--input", str(records[record]), "--estimator",
                           estimator, "--k", "2", "--step", "nan"] + argv)
    assert (code, out) == (2, "")
    assert "argument --step: expected a finite number, got 'nan'" in err
    assert "Traceback" not in err


_SUBCOMMANDS = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
# (command, flag) of every float-valued option flag
_FLOAT_FLAGS = [(command, action.option_strings[0])
                for command, parser in _SUBCOMMANDS.items()
                for action in parser._actions if action.type is cli._finite]


def test_every_float_flag_is_finite():
    # a float flag without the finite converter would let nan and inf in
    assert not [a.dest for parser in _SUBCOMMANDS.values() for a in parser._actions
                if a.type is float]
    assert {command for command, _ in _FLOAT_FLAGS} == {
        "simulate", "estimate", "btr", "cable-sens"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("command, flag", _FLOAT_FLAGS,
                         ids=[f"{c}{f}" for c, f in _FLOAT_FLAGS])
def test_non_finite_float_flag_exits_2(command, flag, value, tmp_path):
    rec, dest = str(tmp_path / "rec.bin"), str(tmp_path / "out")
    required = {"simulate": ["--out", dest], "cable-sens": [],
                "estimate": ["--input", rec, "--out", dest],
                "btr": ["--input", rec, "--out", dest]}
    code, out, err = _run([command, *required[command], f"{flag}={value}"])
    assert (code, out) == (2, "")
    assert f"argument {flag}" in err and "expected a finite number" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_propeller_record_shorter_than_the_filter_padding_exits_2(tmp_path):
    out = tmp_path / "x.bin"
    code, _, err = _run(["simulate", "--out", str(out), "--kind",
                         "propeller-broadband", "--samples", "20"])
    assert code == 2
    assert "needs at least 28 samples" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    # 2 s of samples at this rate is not a finite count
    (["--rate", "1e308"], "rate 1e+308 Hz has no default sample count"),
    # the band is a vanishing fraction of Nyquist
    (["--rate", "1e300", "--samples", "2048"],
     "band-pass filter for band (100.0, 1000.0) Hz at a 1e+300 Hz sample rate"),
])
def test_propeller_rate_too_large_exits_2(flags, message, tmp_path):
    out = tmp_path / "x.bin"
    code, stdout, err = _run(["simulate", "--out", str(out), "--kind",
                              "propeller-broadband", *flags])
    assert (code, stdout) == (2, "")
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    # the default 2 s of samples is a finite count beyond any numpy array
    (["--kind", "propeller-broadband", "--rate", "1e300"],
     "rate 1e+300 Hz, at the default 2 s of samples, for 12 channels is a record "
     "larger than numpy can allocate"),
    (["--samples", "100000000000000000000000"],
     "samples 100000000000000000000000 for 12 channels is a record larger than "
     "numpy can allocate"),
    # 2 us of samples against the 10 ms period of the band's 100 Hz edge
    (["--kind", "propeller-broadband", "--rate", "1e9", "--samples", "2048"],
     "propeller waveform of 2048 samples is shorter than one period of the "
     "band's lower edge"),
    # amplitudes of 1e40 overflow the record's complex64 samples
    (["--seed", "3", "--powers", "1e80,1"], "in magnitude overflow a complex64 record"),
], ids=["default-samples-at-rate-1e300", "samples-1e23", "propeller-too-short",
        "powers-overflow"])
def test_simulate_rejects_a_record_it_cannot_make(flags, message, tmp_path):
    out = tmp_path / "x.bin"
    code, stdout, err = _run(["simulate", "--out", str(out), *flags])
    assert (code, stdout) == (2, "")
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_config_null_is_unset(tmp_path):
    plain, nulls = tmp_path / "plain.bin", tmp_path / "nulls.bin"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snr": None, "seed": None, "lines": None}))
    assert cli.main(["simulate", "--out", str(plain)]) == 0
    assert cli.main(["simulate", "--out", str(nulls), "--config", str(cfg)]) == 0
    assert nulls.read_bytes() == plain.read_bytes()


def test_an_empty_config_leaves_the_library_defaults(records, tmp_path, monkeypatch):
    # options set neither by flag nor by config are not passed on
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    calls = {}

    def spy(name):
        real = getattr(cli, name)

        def call(*args, **kwargs):
            calls[name] = (args, kwargs)
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, call)
    spy("narrowband_estimate")
    spy("btr")
    assert _run(["estimate", "--input", str(records[0]), "--frequency", "3000",
                 "--k", "2", "--config", str(cfg)])[0] == 0
    assert _run(["btr", "--input", str(records[1]), "--spacing", "1.25",
                 "--config", str(cfg), "--out", str(tmp_path / "btr.csv")])[0] == 0
    args, kwargs = calls["narrowband_estimate"]
    assert args[5:] == (SolverConfig(), RefineConfig()) and kwargs == {}
    _, kwargs = calls["btr"]
    assert set(kwargs) == {"estimator", "k", "sector", "step", "convention",
                           "select_count", "solver_cfg", "refine_cfg"}
    assert (kwargs["solver_cfg"], kwargs["refine_cfg"]) == (SolverConfig(), RefineConfig())


def test_bench_rejects_an_unknown_noise_kind(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "m.csv"
    cfg.write_text(json.dumps({"noise": "bogus"}))
    code, stdout, err = _run(["bench", "--preset", "table1", "--trials", "1",
                              "--methods", "cbf", "--sweep-values", "9",
                              "--config", str(cfg), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert ("unknown noise kind 'bogus'; the kinds are uniform-gaussian, "
            "nonuniform-gaussian, impulsive-sas") in err
    assert "Traceback" not in err and not out.exists()


def test_bench_rejects_noise_keys_the_kind_does_not_read(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "m.csv"
    cfg.write_text(json.dumps({"noise_diag": [12, 2.3, 20.5, 5.5, 11.1, 6.5, 2, 13.5,
                                              0.8, 1.7, 13.6, 5.2], "alpha": 0.5}))
    code, stdout, err = _run(["bench", "--preset", "table1", "--trials", "2",
                              "--methods", "cbf,qspice", "--sweep-values", "9",
                              "--config", str(cfg), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert "noise_diag is read only by nonuniform-gaussian noise, not uniform-gaussian" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["--seed", "3", "--alpha", "1.5"], {},
     "alpha is read only by impulsive-sas noise, not uniform-gaussian"),
    (["--noise", "nonuniform-gaussian"], {"gamma": 7, "sigma2": 9},
     "sigma2 is read only by uniform-gaussian noise, not nonuniform-gaussian"),
    (["--noise", "impulsive-sas"], {"sigma2": 2.5},
     "sigma2 is read only by uniform-gaussian noise, not impulsive-sas"),
    (["--noise-diag", "1,2,3,4"], {},
     "noise_diag is read only by nonuniform-gaussian noise, not uniform-gaussian"),
    (["--noise", "uniform-gaussian"], {"gamma": 0.5},
     "gamma is read only by impulsive-sas noise, not uniform-gaussian")],
    ids=["alpha", "gamma-sigma2", "sigma2", "noise_diag", "gamma"])
def test_simulate_rejects_noise_keys_the_kind_does_not_read(argv, config, message,
                                                            tmp_path):
    # a key the noise kind ignores would write the record of the run without it
    cfg, out = tmp_path / "cfg.json", tmp_path / "rec.bin"
    cfg.write_text(json.dumps(config))
    code, stdout, err = _run(["simulate", "--out", str(out), "--config", str(cfg)]
                             + argv)
    assert (code, stdout) == (2, "")
    assert message in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv, config, keys", [
    (["--seed", "3", "--alpha", "1.5", "--snr", "3"], {}, ["alpha", "snr"]),
    ([], {"sigma2": 2.5, "gamma": 0.5, "noise_diag": [1, 2], "snr": 1},
     ["gamma", "noise_diag", "sigma2", "snr"])], ids=["flags", "config"])
def test_simulate_noise_none_takes_no_noise_keys(argv, config, keys, tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "rec.bin"
    cfg.write_text(json.dumps(config))
    code, stdout, err = _run(["simulate", "--out", str(out), "--noise", "none",
                              "--config", str(cfg)] + argv)
    assert (code, stdout) == (2, "")
    assert f"noise none reads no noise keys, got {keys}" in err
    assert "Traceback" not in err and not out.exists()


def test_simulate_defaults_are_the_default_scenario_scene(tmp_path):
    # no flags: the scene of ScenarioConfig's defaults, drawn from seed 0
    scene = ScenarioConfig()
    k = len(scene.doas)
    sources = SourceSpec("tonal", scene.doas, (1.0,) * k,
                         tuple(scene.carrier_hz + i * scene.tone_spacing_hz
                               for i in range(k)), scene.snapshot_rate)
    geometry = uniform_line_array(scene.n_elements,
                                  half_wavelength_spacing(scene.carrier_hz))
    block = synthesize(geometry, sources, NoiseModel(scene.noise), scene.snr_db,
                       scene.snapshots, np.random.default_rng(0),
                       dictionary_frequency=scene.carrier_hz)
    save_record(block, tmp_path / "expected.bin")
    assert cli.main(["simulate", "--out", str(tmp_path / "r.bin")]) == 0
    assert (tmp_path / "r.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes()


def _fresh_interpreter(code):
    """The stripped stdout of `code` run in a new interpreter on this src."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_scipy_signal_and_optimize_unloaded():
    # only a propeller simulation needs scipy.signal, only bench scoring
    # scipy.optimize and only the solver and MUSIC scipy.linalg; each is
    # imported where it is called
    assert _fresh_interpreter(
        "import sys, dasdoa.cli; print(sorted(m for m in ('scipy.signal', "
        "'scipy.optimize', 'scipy.linalg') if m in sys.modules))") == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (["btr", "--input", "{time}", "--spacing", "1.25", "--estimator", "cbf",
      "--out", "{tmp}/btr.csv"], False),
    (["estimate", "--input", "{snap}", "--frequency", "3000", "--estimator", "qspice",
      "--k", "2"], True)], ids=["btr-cbf", "estimate-qspice"])
def test_scipy_linalg_loads_at_the_first_solve(argv, loaded, records, tmp_path):
    # CBF runs on numpy alone; the solver's Cholesky factor imports scipy.linalg
    argv = [a.format(snap=records[0], time=records[1], tmp=tmp_path) for a in argv]
    assert _fresh_interpreter(
        f"import sys, dasdoa.cli; code = dasdoa.cli.main({argv!r}); "
        f"print(code, 'scipy.linalg' in sys.modules)").splitlines()[-1] == f"0 {loaded}"


def test_bench_config_values_reach_the_digest_as_written(tmp_path):
    # the manifest digest hashes the values as written: [9] stays 9, where
    # --sweep-values 9 gives 9.0
    cfg, out = tmp_path / "cfg.json", tmp_path / "m.csv"
    cfg.write_text(json.dumps({"sweep_values": [9], "trials": 1, "snr_db": 5,
                               "methods": ["cbf"]}))
    assert cli.main(["bench", "--preset", "table1", "--config", str(cfg),
                     "--out", str(out)]) == 0
    expected = replace(PRESETS["table1"](), sweep_values=(9,), trials=1,
                       snr_db=5, methods=("cbf",))
    assert f"config={expected.digest()} " in out.read_text().splitlines()[1]
    assert cli.main(["bench", "--preset", "table1", "--config", str(cfg),
                     "--sweep-values", "9", "--out", str(out)]) == 0
    expected = replace(expected, sweep_values=(9.0,))
    assert f"config={expected.digest()} " in out.read_text().splitlines()[1]


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_k_below_one_exits_2(estimator, records, capsys):
    code = cli.main(["estimate", "--input", str(records[0]), "--frequency",
                     "3000", "--estimator", estimator, "--k", "0"])
    assert code == 2
    assert "k must be >= 1" in capsys.readouterr().err


def test_k_below_one_with_bin_selection_exits_2(records, capsys):
    code = cli.main(["estimate", "--input", str(records[1]), "--spacing", "1.25",
                     "--estimator", "cbf", "--k", "0", "--select-bins", "2"])
    assert code == 2
    assert "k must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("record, argv, config", [
    (1, ["estimate", "--spacing", "1.25", "--band", "100"], {}),
    (1, ["estimate", "--spacing", "1.25", "--band", "100,500,900"], {}),
    (0, ["estimate", "--frequency", "3000", "--sector", "5"], {}),
    (0, ["estimate", "--frequency", "3000", "--sector", "0,10,20",
         "--estimator", "cbf", "--k", "1"], {}),
    (None, ["simulate", "--kind", "propeller-broadband", "--band", "100"], {}),
    # an empty sector is not the full sector
    (0, ["estimate", "--frequency", "3000"], {"sector": []}),
    (1, ["estimate", "--spacing", "1.25"], {"sector": []}),
    (1, ["btr", "--spacing", "1.25", "--out", "{tmp}/b.csv"], {"sector": []}),
], ids=["band-one", "band-three", "sector-one", "sector-three", "simulate-band-one",
        "sector-empty-config", "sector-empty-config-time", "btr-sector-empty-config"])
def test_pairs_need_exactly_two_numbers(record, argv, config, records, tmp_path,
                                        capsys):
    io_args = (["--out", str(tmp_path / "x.bin")] if record is None
               else ["--input", str(records[record])])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli.main(argv + io_args + ["--config", str(cfg)]) == 2
    assert "needs exactly two numbers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "btr"])
@pytest.mark.parametrize("by_config", [False, True])
def test_bin_count_below_one_exits_2(command, by_config, records, tmp_path):
    # 0 bins is not "all bins"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"select_bins": 0} if by_config else {}))
    argv = [command, "--input", str(records[1]), "--spacing", "1.25", "--k", "1",
            "--config", str(cfg)] + ([] if by_config else ["--select-bins", "0"])
    if command == "btr":
        argv += ["--out", str(tmp_path / "b.csv")]
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert "count must lie in [1, " in err


@pytest.mark.parametrize("record, argv, config, step", [
    (0, ["estimate", "--frequency", "3000", "--estimator", "cbf", "--step", "1e-300"],
     {}, 1e-300),
    (0, ["estimate", "--frequency", "3000", "--step", "1e-10"], {}, 1e-10),
    (1, ["btr", "--spacing", "1.25", "--step", "1e-300", "--out", "{tmp}/b.csv"],
     {}, 1e-300),
    (None, ["bench", "--preset", "table1", "--trials", "1", "--methods", "cbf",
            "--sweep-values", "9"], {"baseline_step": 1e-300}, 1e-300),
], ids=["estimate-cbf", "estimate-qspice", "btr", "bench-baseline"])
def test_grid_step_below_the_grid_rounding_exits_2(record, argv, config, step, records,
                                                   tmp_path):
    # numpy would refuse the grid's size or its allocation, with a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--config", str(cfg)]
    if record is not None:
        argv += ["--input", str(records[record])]
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert err == f"error: grid step {step} is below the grid's 1e-9 deg rounding\n"


@pytest.mark.parametrize("key, flag, value", [
    ("select_bins", "--select-bins", 2), ("n_fft", "--n-fft", 256),
    ("band", "--band", (100.0, 1000.0))], ids=["select_bins", "n_fft", "band"])
@pytest.mark.parametrize("by_config", [False, True])
def test_snapshot_estimate_rejects_time_only_options(key, flag, value, by_config,
                                                     records, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value} if by_config else {}))
    argv = ["estimate", "--input", str(records[0]), "--frequency", "3000",
            "--k", "2", "--config", str(cfg)]
    if not by_config:
        argv += [flag, _flag_text(value)]
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert repr(key) in err


@pytest.mark.parametrize("by_config", [False, True])
def test_time_estimate_rejects_frequency(by_config, records, tmp_path):
    # the mirror of the time-only options: a time record's bins set the
    # frequencies
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frequency": 3000.0} if by_config else {}))
    argv = ["estimate", "--input", str(records[1]), "--spacing", "1.25", "--k", "1",
            "--config", str(cfg)]
    code, out, err = _run(argv + ([] if by_config else ["--frequency", "3000"]))
    assert (code, out) == (2, "")
    assert "option 'frequency' applies only to snapshot records" in err


@pytest.mark.parametrize("command", ["estimate", "btr"])
@pytest.mark.parametrize("offsets", [False, True])
def test_time_record_needs_spacing(command, offsets, records, tmp_path):
    # a record holds no geometry, so its spacing is not guessed; offsets are
    # in units of the spacing and do not set it
    out = tmp_path / "out.csv"
    argv = [command, "--input", str(records[1]), "--out", str(out)]
    if offsets:
        argv += ["--offsets", "0,1,2,3,4,5,6,7"]
    code, stdout, err = _run(argv)
    assert (code, stdout) == (2, "")
    assert "time records need --spacing" in err and "Traceback" not in err
    assert not out.exists()
    # the flag or its config key gives it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spacing": 1.25}))
    assert _run(argv + ["--config", str(cfg)])[0] == 0
    assert out.exists()


@pytest.mark.parametrize("argv, env", [
    (["--jobs", "0"], None), (["--jobs", "-2"], None), ([], "two")])
def test_bad_job_count_exits_2(argv, env, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv(cli.JOBS_ENV, env)
    code = cli.main(["bench", "--preset", "table1", "--trials", "1",
                     "--sweep-values", "9", "--methods", "cbf"] + argv)
    assert code == 2
    assert "jobs" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_snapshot_estimate_is_narrowband_estimate_of_sample_covariance(
        estimator, records, tmp_path):
    out = tmp_path / "spec.csv"
    assert cli.main(["estimate", "--input", str(records[0]), "--frequency", "3000",
                     "--estimator", estimator, "--k", "2", "--out", str(out)]) == 0
    record = load_record(records[0])
    geometry = uniform_line_array(record.n_channels,
                                  half_wavelength_spacing(3000.0, 1500.0))
    step = 1.0 if estimator == "gnr2" else 0.5
    dictionary = build_dictionary(geometry, 3000.0, full_sector(), step)
    spectrum, _ = narrowband_estimate(
        estimator, sample_covariance(record.data), dictionary, full_sector(), 2)
    assert out.read_text() == render_table(spectrum)


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "{missing}/x.bin"],
    ["simulate", "--out", "{missing}/x.csv", "--format", "csv"],
    ["estimate", "--input", "{snapshots}", "--frequency", "3000",
     "--out", "{missing}/s.csv"],
    ["bench", "--preset", "table1", "--trials", "1", "--sweep-values", "9",
     "--methods", "cbf", "--timing-out", "{missing}/t.csv"],
], ids=["simulate-binary", "simulate-csv", "estimate", "bench-timing"])
def test_unwritable_output_exits_3(argv, records, tmp_path):
    missing = tmp_path / "missing"
    argv = [arg.format(missing=missing, snapshots=records[0]) for arg in argv]
    code, _, err = _run(argv)        # an uncaught error would propagate here
    assert code == 3
    assert "cannot write" in err and str(missing) in err


# a value of each key that an estimator reads or not, one that moves the
# output of an estimator that reads it
_ESTIMATOR_KEY_VALUES = {"r": 2.0, "q": 1.5, "max_iter": 1, "rel_tol": 0.5,
                         "initial_step": 2.0, "target_step": 0.5, "peak_guard": 30.0}
_TABLE_RUNS = {"estimate": (0, ["--frequency", "3000", "--k", "2"]),
               "btr": (1, ["--spacing", "1.25", "--k", "1", "--select-bins", "4"])}


@pytest.mark.parametrize("command, estimator, key, value", [
    (command, estimator, key, value) for command in _TABLE_RUNS for estimator in ESTIMATORS
    for key, value in _ESTIMATOR_KEY_VALUES.items()
    if key in _SUBCOMMANDS[command].get_default("config_keys")] + [
    # narrowband gnr2 refines from initial_step: its step sets nothing
    ("estimate", "gnr2", "step", 0.3)])
def test_estimate_and_btr_take_only_the_keys_the_estimator_reads(
        command, estimator, key, value, records, tmp_path):
    # a key that the estimator's ESTIMATORS entry lists moves the exit code,
    # stdout or the written bytes; any other key exits 2, names the key and
    # writes no file
    record, argv = _TABLE_RUNS[command]
    out, cfg = tmp_path / "out.csv", tmp_path / "cfg.json"

    def run(config):
        cfg.write_text(json.dumps(config))
        code, stdout, err = _run([command, "--input", str(records[record]),
                                  "--estimator", estimator, "--config", str(cfg),
                                  "--out", str(out)] + argv)
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return (code, stdout, written), err

    keyed, err = run({key: value})
    if key in estimators.ESTIMATORS[estimator].reads:
        assert keyed != run({})[0]
    else:
        assert keyed == (2, "", None)
        assert repr(key) in err and "Traceback" not in err


def test_the_estimator_table_names_every_estimator_choice():
    names = tuple(ESTIMATORS)
    assert ScenarioConfig().methods == names
    for command in ("estimate", "btr"):
        (choice,) = [a for a in _SUBCOMMANDS[command]._actions if a.dest == "estimator"]
        assert tuple(choice.choices) == names


@pytest.mark.parametrize("estimator, flags, code", [
    ("cbf", [], 2), ("spice", [], 2), ("qspice", [], 2),
    ("cbf", ["--select-bins", "4"], 0), ("music", [], 0)],
    ids=["cbf", "spice", "qspice", "cbf-select-bins", "music"])
def test_btr_takes_k_only_where_it_is_read(estimator, flags, code, records, tmp_path):
    # btr writes no picks: k is read to select bins, or by an estimator that
    # needs it; any other k exits 2, names k and writes no file
    out = tmp_path / "btr.csv"
    got, stdout, err = _run(["btr", "--input", str(records[1]), "--spacing", "1.25",
                             "--estimator", estimator, "--k", "2", "--out", str(out)]
                            + flags)
    assert (got, out.exists()) == (code, code == 0)
    if code:
        assert stdout == ""
        assert f"{estimator} reads k only with select_bins" in err


def test_peak_guard_applies_to_cbf_on_time_records(tmp_path):
    # two sources 15 deg apart: their CBF peaks lie closer than a 20 deg guard
    record = tmp_path / "pair.bin"
    assert cli.main(["simulate", "--out", str(record), "--kind",
                     "propeller-broadband", "--angles", "10,25", "--rate", "5120",
                     "--samples", "5120", "--elements", "8", "--spacing", "1.25",
                     "--band", "100,1000", "--snr", "10", "--seed", "3"]) == 0
    cfg = tmp_path / "cfg.json"

    def picks(config):
        cfg.write_text(json.dumps(config))
        code, out, _ = _run(["estimate", "--input", str(record), "--spacing", "1.25",
                             "--estimator", "cbf", "--k", "2", "--config", str(cfg)])
        assert code == 0
        return [float(tok) for tok in out.split()[1:]]

    unguarded = picks({})
    assert unguarded == picks({"peak_guard": 1})     # the one default, CBF_GUARD
    assert abs(unguarded[0] - 10) < 1 and abs(unguarded[1] - 25) < 1
    guarded = picks({"peak_guard": 20})
    assert guarded != unguarded
    assert guarded[1] - guarded[0] >= 20


@pytest.mark.parametrize("flags, name", [
    (["--hop-fraction", "0"], "frame_hop_fraction"),
    (["--hop-fraction", "-0.5"], "frame_hop_fraction"),
    (["--hop-fraction", "nan"], "--hop-fraction: expected a finite number"),
    (["--frame-seconds", "inf"], "--frame-seconds: expected a finite number"),
    (["--frame-seconds", "0.01"], "frame_seconds"),
], ids=["hop-zero", "hop-negative", "hop-nan", "frame-inf", "frame-under-n-fft"])
def test_btr_bad_frame_option_exits_2(flags, name, records, tmp_path):
    code, out, err = _run(["btr", "--input", str(records[1]), "--spacing", "1.25",
                           "--out", str(tmp_path / "b.csv")] + flags)
    assert (code, out) == (2, "")
    assert name in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["estimate", "btr"])
@pytest.mark.parametrize("flags", [["--band", "2000,3000"], ["--band", "0,100", "--n-fft", "64"]],
                         ids=["past-nyquist", "dc-bin"])
def test_band_outside_positive_frequencies_exits_2(command, flags, records, tmp_path):
    # bins at or past N/2 would be aliased negative frequencies of the record
    out = tmp_path / "out.csv"
    code, stdout, err = _run([command, "--input", str(records[1]), "--spacing", "1.25",
                              "--estimator", "cbf", "--out", str(out)] + flags)
    assert (code, stdout) == (2, "")
    assert "at rate 5120 Hz must lie inside (0, fs/2) = (0, 2560) Hz" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("kind", ["tonal", "propeller-broadband"])
@pytest.mark.parametrize("flags, config, message", [
    ([], {"convention": "sideways"}, "unknown convention 'sideways'"),
    (["--angles", "120"], {}, "broadside angles must lie in [-90.0, 90.0] degrees"),
    (["--angles", "-10"], {"convention": "endfire"},
     "endfire angles must lie in [0.0, 180.0] degrees"),
], ids=["convention", "broadside-angle", "endfire-angle"])
def test_simulate_checks_convention_and_angles(kind, flags, config, message, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x.bin"
    code, stdout, err = _run(["simulate", "--kind", kind, "--rate", "5120",
                              "--samples", "2048", "--out", str(out),
                              "--config", str(cfg)] + flags)
    assert (code, stdout) == (2, "")
    assert message in err and "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--preset", "table1", "--sweep-values", "9", "--methods", ""],
     "methods must name at least one"),
    (["--preset", "table1", "--sweep-values", "9", "--methods", "cbf,cbf"],
     "each once, got ['cbf', 'cbf']"),
    (["--preset", "table1-snapshots", "--methods", "cbf", "--sweep-values", "30.7"],
     "snapshot counts must be whole numbers >= 1, got [30.7]"),
    (["--preset", "table1-snapshots", "--methods", "cbf", "--sweep-values", "0.5"],
     "snapshot counts must be whole numbers >= 1, got [0.5]"),
], ids=["methods-empty", "methods-repeated", "sweep-fraction", "sweep-half"])
def test_bench_rejects_methods_and_snapshot_counts(flags, message, tmp_path):
    out, timing = tmp_path / "m.csv", tmp_path / "t.csv"
    code, stdout, err = _run(["bench", "--trials", "1", "--out", str(out),
                              "--timing-out", str(timing)] + flags)
    assert (code, stdout) == (2, "")
    assert message in err and "Traceback" not in err
    assert not out.exists() and not timing.exists()


def _converter_name(convert):
    """A config key's converter by name; a bench key's is _as_given(its own)."""
    if convert.__qualname__.startswith("_as_given"):
        return f"_as_given({_converter_name(convert.__closure__[0].cell_contents)})"
    return convert.__name__


# each subcommand's config keys by converter, as the CLI has always read them
_CONFIG_KEYS = {
    "simulate": {
        "_floats": "angles band freqs noise_diag offsets powers",
        "_real": "alpha frequency gamma rate sigma2 snr sound_speed spacing",
        "_integer": "elements samples seed", "str": "convention format kind noise",
        "_lines": "lines"},
    "estimate": {
        "_floats": "band offsets sector", "str": "convention estimator format",
        "_integer": "k max_iter n_fft select_bins",
        "_real": "frequency initial_step peak_guard q r rel_tol sound_speed spacing "
                 "step target_step"},
    "btr": {
        "_floats": "band offsets sector", "str": "convention estimator format",
        "_integer": "k max_iter n_fft select_bins",
        "_real": "frame_seconds hop_fraction initial_step q r rel_tol sound_speed "
                 "spacing step target_step"},
    "bench": {
        "_as_given(_real)": "alpha baseline_step carrier_hz cbf_guard pos_error_level q "
                            "r refine_initial_step refine_target_step rel_tol "
                            "snapshot_rate snr_db tone_spacing_hz",
        "_as_given(_integer)": "max_iter n_elements seed snapshots trials",
        "_as_given(_floats)": "doas noise_diag sector sweep_values",
        "_as_given(str)": "name noise sweep", "_as_given(_names)": "methods"},
    "cable-sens": {
        "_real": "cable_length inner_radius outer_radius p1 p2 poisson_ratio "
                 "refractive_index wavelength wound_length youngs_modulus"},
}


@pytest.mark.parametrize("command", sorted(_CONFIG_KEYS))
def test_config_keys_and_their_converters_are_pinned(command):
    # keys read from the dataclasses' fields keep the names and converters
    # that the CLI wrote out by hand
    args = cli.build_parser().parse_args(
        {"simulate": ["simulate", "--out", "x"], "estimate": ["estimate", "--input", "x"],
         "btr": ["btr", "--input", "x", "--out", "y"], "bench": ["bench"],
         "cable-sens": ["cable-sens"]}[command])
    expected = {key: name for name, keys in _CONFIG_KEYS[command].items()
                for key in keys.split()}
    assert {key: _converter_name(convert)
            for key, convert in args.config_keys.items()} == expected


def test_config_keys_need_a_converter_for_each_default_type():
    # a field whose default has no config converter fails when the keys are
    # read, not later as a converter that is the type itself
    @dataclass
    class Unconverted:
        count: int = 1
        label: object = None

    assert cli._fields(ScenarioConfig)["name"] is str
    with pytest.raises(KeyError):
        cli._fields(Unconverted)


def test_cable_sens_drives_the_shipped_cable_at_1_pa():
    # the dataclass defaults are the shipped cable; the report adds p2 = 1 Pa
    mandrel = MandrelSpec(p2=1.0)
    code, out, _ = _run(["cable-sens"])
    assert code == 0
    assert out == (f"radial_displacement_m: {mandrel_radial_displacement(mandrel):.6e}\n"
                   f"sensitivity_db_re_1rad_per_uPa_m: "
                   f"{cable_sensitivity(mandrel, FiberSpec()):.2f}\n")


_TONAL_KEYS = ["simulate", "--seed", "1"]
_PROPELLER_KEYS = ["simulate", "--kind", "propeller-broadband", "--rate", "5120",
                   "--samples", "10240", "--seed", "1"]


@pytest.mark.parametrize("argv, config, message", [
    (_TONAL_KEYS + ["--kind", "tonal", "--band", "100,900"], {},
     "band is read only by propeller-broadband sources, not tonal "
     "(got band=(100.0, 900.0))"),
    (_TONAL_KEYS, {"lines": [[[200, 10]], [[300, 10]]]},
     "lines is read only by propeller-broadband sources, not tonal "
     "(got lines=(((200.0, 10.0),), ((300.0, 10.0),)))"),
    (_PROPELLER_KEYS + ["--freqs", "300"], {},
     "freqs is read only by tonal sources, not propeller-broadband (got freqs=(300.0,))"),
    (_PROPELLER_KEYS + ["--frequency", "2500"], {},
     "frequency is read only by tonal sources, not propeller-broadband"),
    (_PROPELLER_KEYS, {"frequency": 2500},
     "frequency is read only by tonal sources, not propeller-broadband"),
], ids=["tonal-band", "tonal-lines", "propeller-freqs", "propeller-frequency",
        "propeller-frequency-config"])
def test_simulate_rejects_source_keys_the_kind_does_not_read(argv, config, message,
                                                             tmp_path):
    # a key the source kind ignores would write the record of the run without it
    cfg, out = tmp_path / "cfg.json", tmp_path / "rec.bin"
    cfg.write_text(json.dumps(config))
    code, stdout, err = _run(argv + ["--out", str(out), "--config", str(cfg)])
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    "oops", [5], [[5]], [[[200, 10, 3]]], [[["200,10"]]], [["200,10"]],
    [[[True, 10]]], [[[200, "x"]]], [[[200, None]]], [[["200", "10"]]], {"a": 1}],
    ids=["text", "numbers", "flat-pairs", "triple", "text-pair", "text-line",
         "bool", "text-level", "null-level", "text-numbers", "object"])
def test_simulate_lines_take_per_source_lists_of_pairs(lines, tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "rec.bin"
    cfg.write_text(json.dumps({"lines": lines}))
    code, stdout, err = _run(["simulate", "--kind", "propeller-broadband",
                              "--out", str(out), "--config", str(cfg)])
    assert (code, stdout) == (2, "")
    assert err == (f"error: config key 'lines': expected a list of per-source lists "
                   f"of [frequency_hz, level_db] pairs of finite numbers, "
                   f"got {lines!r}\n")
    assert not out.exists()


def test_simulate_lines_from_a_config_are_synthesized(tmp_path):
    lines = (((200.0, 10.0), (400.0, 6.0)), ((300.0, 10.0),))
    cfg, out = tmp_path / "cfg.json", tmp_path / "rec.bin"
    cfg.write_text(json.dumps({"lines": lines}))
    assert cli.main(["simulate", "--kind", "propeller-broadband", "--angles", "10,25",
                     "--rate", "5120", "--samples", "2048", "--elements", "6",
                     "--spacing", "1.25", "--seed", "12", "--out", str(out),
                     "--config", str(cfg)]) == 0
    sources = SourceSpec("propeller-broadband", (10.0, 25.0), (1.0, 1.0),
                         snapshot_rate=5120.0, lines=lines)
    block = synthesize(uniform_line_array(6, 1.25), sources,
                       NoiseModel("uniform-gaussian"), ScenarioConfig.snr_db, 2048,
                       np.random.default_rng(12))
    save_record(block, tmp_path / "expected.bin")
    assert out.read_bytes() == (tmp_path / "expected.bin").read_bytes()
    # without the lines, the record differs
    assert cli.main(["simulate", "--kind", "propeller-broadband", "--angles", "10,25",
                     "--rate", "5120", "--samples", "2048", "--elements", "6",
                     "--spacing", "1.25", "--seed", "12", "--out", str(out)]) == 0
    assert out.read_bytes() != (tmp_path / "expected.bin").read_bytes()


@pytest.mark.parametrize("call, error, message", [
    (lambda: cli._floats("1,nan"), argparse.ArgumentTypeError,
     "expected comma-separated finite numbers, got '1,nan'"),
    (lambda: cli._as_given(cli._floats)("9"), ValueError, "'9' has the wrong type"),
], ids=["floats-not-finite", "bench-value-of-the-wrong-type"])
def test_each_rejection_states_its_rule(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
