import json

import pytest

from dasdoa import cli
from dasdoa.arrays import uniform_line_array
from dasdoa.broadband import broadband_estimate
from dasdoa.recordio import load_record, render_table


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
