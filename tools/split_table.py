#!/usr/bin/env python3
"""Time the stacked q-SPICE solves of the benchmark's workloads split in
pieces: how much work each piece gets, and from which stack size a
two-way split pays.

    python3 tools/split_table.py [--seed 1] [--repeats 5] [--json FILE]

Run from the root of a checkout. It makes the seeded inputs of perfbench's
`pair-gnr2` and `nb-montecarlo` workloads (perfbench/workloads.py, imported
as it is), runs the first input of each once, serially, and keeps every
stacked `qspice_solve` call it makes (its covariances, steering and
config). Then, on the calls that the solver splits (2 * SPLIT_MIN
problems or more):

  * per call: the serial time; for the contiguous layout (piece k of two
    the k-th half of the stack) and the interleaved one (piece k the
    problems k, k + 2, ...), each piece's time, solved alone here, and its
    problem-iterations;
  * the threshold table: for each P, the call's first P problems solved
    serially and in two forked pieces (the solver's own split), alternating;
    per P, the calls won and lost by the split and the median speed-up.

Each time is the best of --repeats. Prints the tables; --json writes them
with the machine's description. Pins BLAS to one thread, as perfbench does,
so that the process may fork.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import ExitStack, contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import dasdoa  # noqa: E402
from dasdoa import estimators  # noqa: E402

WORKLOADS = ("pair-gnr2", "nb-montecarlo")
LAYOUTS = {"contiguous": lambda P, W: [np.arange(P * k // W, P * (k + 1) // W)
                                       for k in range(W)],
           "interleaved": lambda P, W: [np.arange(k, P, W) for k in range(W)]}


@contextmanager
def _width(width):
    """Make every stacked solve run in `width` pieces (1: serially)."""
    with mock.patch.object(estimators, "_split_width", lambda n: min(width, n)):
        yield


def capture(name, seed):
    """[(data, dictionary, config)] of each stacked qspice_solve call that
    the first input of workload `name` makes, run serially."""
    import workloads
    wl, calls = workloads.WORKLOADS[name], []
    real = estimators.qspice_solve

    def recorded(data, dictionary, config=None):
        if np.ndim(data) == 3 and len(data) > 1:
            calls.append((np.array(data), np.array(dictionary), config))
        return real(data, dictionary, config)

    # every dasdoa module that imported qspice_solve by name calls its own
    holders = [m for n, m in sys.modules.items()
               if n.startswith("dasdoa") and getattr(m, "qspice_solve", None) is real]
    with tempfile.TemporaryDirectory() as work:
        wl.generate(seed, work)
        ctx = wl.prepare(work)
        with _width(1), ExitStack() as patches:
            for module in holders:
                patches.enter_context(mock.patch.object(module, "qspice_solve", recorded))
            wl.request(ctx, 0)
    return calls


def _rows(dictionary, idx):
    return dictionary if dictionary.ndim == 2 or len(dictionary) == 1 else dictionary[idx]


def _solve(data, dictionary, cfg, width=1):
    """(seconds, result) of one qspice_solve in `width` pieces."""
    with _width(width):
        t0 = time.perf_counter()
        res = estimators.qspice_solve(data, dictionary, cfg)
        return time.perf_counter() - t0, res


def _same_bits(a, b):
    return all(np.array_equal(x.powers.signal, y.powers.signal)
               and np.array_equal(x.trace, y.trace) and x.n_iter == y.n_iter
               for x, y in zip(a.problems, b.problems))


def per_call(call, repeats):
    data, dictionary, cfg = call
    P = len(data)
    serial = min(_solve(data, dictionary, cfg)[0] for _ in range(repeats))
    row = {"P": P, "G": dictionary.shape[-1], "serial_s": round(serial, 5)}
    for layout, pieces in LAYOUTS.items():
        times, iters = [], []
        for idx in pieces(P, 2):
            best, res = min((_solve(data[idx], _rows(dictionary, idx), cfg)
                             for _ in range(repeats)), key=lambda tr: tr[0])
            times.append(round(best, 5))
            iters.append(res.n_iter)
        row[layout] = {"piece_s": times, "piece_iters": iters}
    return row


def threshold(calls, sizes, repeats):
    """{P: {calls, wins, losses, median/min/max speed-up}} of the first P
    problems of each call, serial against two forked pieces."""
    table = {}
    for P in sizes:
        speedups = []
        for data, dictionary, cfg in calls:
            if len(data) < P:
                continue
            data, dictionary = data[:P], _rows(dictionary, slice(0, P))
            serial, split = [], []
            for _ in range(repeats):
                t_serial, ref = _solve(data, dictionary, cfg)
                t_split, res = _solve(data, dictionary, cfg, 2)
                if not _same_bits(res, ref):
                    raise SystemExit(f"a split solve of P={P} lost the serial bits")
                serial.append(t_serial)
                split.append(t_split)
            speedups.append(min(serial) / min(split))
        if speedups:
            table[P] = {"calls": len(speedups),
                        "wins": sum(s > 1 for s in speedups),
                        "losses": sum(s <= 1 for s in speedups),
                        "median_speedup": round(statistics.median(speedups), 3),
                        "min_speedup": round(min(speedups), 3),
                        "max_speedup": round(max(speedups), 3)}
    return table


def machine():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": 1}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--sizes", default="4,5,6,7,8,9,10,11,12,13,14",
                    help="comma-separated P of the threshold table")
    ap.add_argument("--json", help="write the tables and the machine here")
    args = ap.parse_args(argv)
    if Path(dasdoa.__file__).resolve().parent != ROOT / "src" / "dasdoa":
        raise SystemExit(f"dasdoa imported from {dasdoa.__file__}, not {ROOT / 'src'}")
    if estimators._os_threads() > 1:
        raise SystemExit("the process runs more than one OS thread, so it may not fork")

    calls, rows = [], []
    for name in WORKLOADS:
        for call in capture(name, args.seed):
            if len(call[0]) >= 2 * estimators.SPLIT_MIN:
                calls.append(call)
                rows.append({"workload": name, **per_call(call, args.repeats)})
    print(f"{'workload':<14} {'P':>3} {'G':>4} {'serial_s':>9}  "
          f"{'contiguous piece_s (iters)':<34} interleaved piece_s (iters)")
    for row in rows:
        pieces = [" ".join(f"{t:.4f} ({n})" for t, n in
                           zip(row[lay]["piece_s"], row[lay]["piece_iters"]))
                  for lay in LAYOUTS]
        print(f"{row['workload']:<14} {row['P']:>3} {row['G']:>4} {row['serial_s']:>9.4f}  "
              f"{pieces[0]:<34} {pieces[1]}")
    slowest = {lay: round(sum(max(row[lay]["piece_s"]) for row in rows), 4) for lay in LAYOUTS}
    serial = round(sum(row["serial_s"] for row in rows), 4)
    print(f"summed: serial {serial} s, slower piece contiguous {slowest['contiguous']} s, "
          f"interleaved {slowest['interleaved']} s")

    sizes = [int(s) for s in args.sizes.split(",")]
    table = threshold(calls, sizes, args.repeats)
    print(f"\n{'P':>3} {'calls':>5} {'wins':>4} {'losses':>6} {'median':>7} {'min':>6} {'max':>6}")
    for P, t in table.items():
        print(f"{P:>3} {t['calls']:>5} {t['wins']:>4} {t['losses']:>6} {t['median_speedup']:>7} "
              f"{t['min_speedup']:>6} {t['max_speedup']:>6}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"machine": machine(), "seed": args.seed, "repeats": args.repeats,
                       "per_call": rows,
                       "summed_s": {"serial": serial, "slower_piece": slowest},
                       "threshold": table}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
