import subprocess
import sys
from pathlib import Path

import pytest

NUMDIFF = Path(__file__).resolve().parents[1] / "tools" / "numdiff.py"

SPEC = ("# spectrum estimator=cbf frequency=0\n# manifest config=5f3763530617 seed=na\n"
        "angle_deg,power_db\n-90,-7.64337778\n-89.5,-7.64378654\n-89,-7.6442\n")
BENCH = ("# bench preset=table1 sweep=snr\n# manifest config=2b355d97b031 seed=42\n"
         "sweep_param,value,method,trials,shortfalls,success_pct,rmse_deg\n"
         "snr,-3,cbf,2,0,0,0.454972527\n")


def _capture(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _numdiff(a: Path, b: Path):
    done = subprocess.run([sys.executable, str(NUMDIFF), str(a), str(b)],
                          capture_output=True, text=True)
    return done.returncode, done.stdout


@pytest.fixture
def base():
    return {"est/exit": "0\n", "est/stdout": "angles_deg: 10.0000 25.0000\n",
            "est/spec.csv": SPEC, "bench/exit": "0\n", "bench/table.csv": BENCH}


def test_identical_captures(tmp_path, base):
    code, out = _numdiff(_capture(tmp_path / "a", base), _capture(tmp_path / "b", base))
    assert code == 0
    assert "identical  est/spec.csv" in out
    assert "5 files: 5 identical, 0 differ, 0 on one side only" in out
    assert "exit codes changed: none" in out and "bench rows changed: none" in out


def test_a_last_digit_is_listed_with_its_size(tmp_path, base):
    moved = dict(base, **{"est/spec.csv": SPEC.replace("-7.64378654", "-7.64378655")})
    code, out = _numdiff(_capture(tmp_path / "a", base), _capture(tmp_path / "b", moved))
    assert code == 1
    assert "differs    est/spec.csv: 1 lines; max abs 1e-08, max rel 1.31e-09" in out
    assert "  line 5: 1 of 2 fields moved (field 2: -7.64378654 -> -7.64378655)" in out
    assert "pick lines changed: none" in out and "exit codes changed: none" in out


def test_a_changed_line_shape_is_printed_whole(tmp_path, base):
    moved = dict(base, **{"est/spec.csv": SPEC.replace("-89,-7.6442", "-89,nope")})
    code, out = _numdiff(_capture(tmp_path / "a", base), _capture(tmp_path / "b", moved))
    assert code == 1
    assert "  -6: -89,-7.6442\n  +6: -89,nope\n" in out


@pytest.mark.parametrize("change, report", [
    ({"est/exit": "4\n"}, "exit codes changed: est/exit (0 -> 4)"),
    ({"est/stdout": "angles_deg: 10.0000 25.0001\n"}, "pick lines changed: est/stdout"),
    ({"bench/table.csv": BENCH.replace("0.454972527", "0.454972528")},
     "bench rows changed: bench/table.csv")])
def test_exit_codes_picks_and_bench_rows_may_not_move(tmp_path, base, change, report):
    code, out = _numdiff(_capture(tmp_path / "a", base),
                         _capture(tmp_path / "b", dict(base, **change)))
    assert code == 3 and report in out


def test_a_file_on_one_side_only(tmp_path, base):
    fewer = {k: v for k, v in base.items() if k != "bench/table.csv"}
    code, out = _numdiff(_capture(tmp_path / "a", base), _capture(tmp_path / "b", fewer))
    assert code == 3 and "only in A  bench/table.csv" in out
