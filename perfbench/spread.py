"""Run-to-run spread of the benchmark: one run per seed, then for each metric
the median and the distance between the first and third quartiles as a
share of the median.

    python3 perfbench/spread.py --workload pair-gnr2 --seeds 1-10 --seconds 30

Runs go one after another. Exits non-zero if a run fails or reports
incorrect output.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def iqr_share(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    values, units = {}, {}
    walls = []
    for seed in seed_list(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed} ({walls[-1]:.1f} s): attempted {result['attempted']}, failed "
              f"{result['failed']}, " + ", ".join(
                  f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"wall per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    for name, vals in values.items():
        spread = iqr_share(vals) if len(vals) >= 2 else float("nan")
        print(f"{name:<44} median {statistics.median(vals):12.6g} {units[name]:<6} "
              f"iqr/median {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
