"""dasdoa benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload pair-gnr2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
The workload's inputs are made from ``--seed`` in a scratch directory inside
the checkout, which is removed at exit. Requests run back to back for
``--seconds`` seconds. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs each input untraced and then traced, and reports the
per-layer metrics. The last line of standard output is the result as JSON;
the exit code is 0 only when every output check passed. METRICS.md says what
each metric means and which workload it should move.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# numpy, dasdoa and the benchmark's own modules are imported inside main(),
# after the BLAS thread count is pinned in the environment.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("latency_p50_s", "s"), ("rtf", "x"), ("trials_per_s", "1/s"),
    ("success_pct", "%"), ("rmse_deg", "deg"), ("completed_pct", "%"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

# A fresh interpreter: import the CLI, then the workload's own set-up.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import dasdoa.cli
t1 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[3]].prepare(sys.argv[4])
print(t1 - t0, time.perf_counter() - t0)
"""


def tail_percentile(n: int):
    """Highest of the usual reporting percentiles with at least ten of n
    samples beyond it, or None when even the median has fewer."""
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10 - 1e-9:
            best = p
    return best


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "commit": commit, "seed": seed}


def generate(wl, seed: int, work: str) -> None:
    """Make the inputs in a forked child, so the memory this takes does not
    count towards this process's peak_rss_mb."""
    proc = multiprocessing.get_context("fork").Process(target=wl.generate,
                                                       args=(seed, work))
    proc.start()
    proc.join(120)
    if proc.exitcode != 0:
        proc.kill()
        proc.join()
        raise RuntimeError(f"input generation ended with exit code {proc.exitcode}")


def time_setup(workload: str, work: str) -> tuple[list, list]:
    """Import and set-up seconds of SETUP_REPEATS fresh interpreters."""
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE), workload, work],
            capture_output=True, text=True, timeout=120, check=True)
        imp, total = map(float, proc.stdout.split())
        imports.append(imp)
        setups.append(total)
    return imports, setups


def attempt(wl, ctx, item: int):
    """One request; returns (latency seconds, Outcome). A failed request is
    counted and reported, and the run goes on."""
    from workloads import Outcome
    t0 = time.perf_counter()
    try:
        result = wl.request(ctx, item)
        latency = time.perf_counter() - t0
        return latency, wl.outcome(ctx, item, result)
    except Exception:
        latency = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return latency, Outcome(item, True)


def closed_loop(wl, ctx, seconds: float, tracer=None) -> list:
    """Requests back to back, starting new ones only inside the window;
    returns (latency seconds, Outcome) per request, in order.

    With a tracer, each input runs twice in a row, untraced then traced, so
    the two halves see the same inputs under the same machine load.
    """
    import tracing
    done = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or (tracer is not None and len(done) % 2):
        if tracer is None:
            done.append(attempt(wl, ctx, len(done) % wl.pool))
            continue
        item = (len(done) // 2) % wl.pool
        if len(done) % 2 == 0:
            done.append(attempt(wl, ctx, item))
        else:
            tracer.request = len(done)
            with tracing.patched(tracer):
                done.append(attempt(wl, ctx, item))
    return done


def check_outputs(wl, ctx, runs) -> tuple[dict, list]:
    """Accuracy over the first pass through the pool, plus determinism:
    every repeat of an input must reproduce its first output exactly.
    Inputs the window did not reach, and one repeat if there was none, run
    untimed after the window."""
    outcomes = [o for _, o in runs]
    seen = {o.item for o in outcomes}
    outcomes += [attempt(wl, ctx, i)[1] for i in range(wl.pool) if i not in seen]
    if len(outcomes) == wl.pool:
        outcomes.append(attempt(wl, ctx, 0)[1])
    firsts, problems = {}, []
    for o in outcomes:
        first = firsts.setdefault(o.item, o)
        if not (o.failed or first.failed) and o.digest != first.digest:
            problems.append(f"input {o.item} gave a different output on a repeat")
    acc, more = wl.accuracy([firsts[i] for i in range(wl.pool)])
    return acc, problems + more


def end_to_end(runs, acc, setups) -> dict:
    """Throughputs are the work of the requests that succeeded over the time
    of all requests, so failed requests cost time and add no work."""
    lat = [t for t, _ in runs]
    ok = [o for _, o in runs if not o.failed]
    return {
        "latency_p50_s": statistics.median(lat),
        "rtf": sum(o.input_s for o in ok) / sum(lat),
        "trials_per_s": sum(o.trials for o in ok) / sum(lat),
        "success_pct": acc["success_pct"],
        "rmse_deg": acc["rmse_deg"],
        "completed_pct": 100.0 * len(ok) / len(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dasdoa" / "__init__.py").is_file():
        print(f"no dasdoa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import dasdoa
    if Path(dasdoa.__file__).resolve().parent != SRC / "dasdoa":
        print(f"dasdoa imported from {dasdoa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import tracing
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; use one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    try:
        generate(wl, args.seed, work)
        imports, setups = time_setup(wl.name, work)
        ctx = wl.prepare(work)
        tracer = tracing.Tracer() if args.trace else None
        runs = closed_loop(wl, ctx, args.seconds, tracer)
        acc, problems = check_outputs(wl, ctx, runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    lat = [t for t, _ in runs]
    detail = {"workload": wl.name, "env": environment(args.seed),
              "latency_samples": len(lat),
              "latencies_s": [round(t, 4) for t in lat]}
    tail = tail_percentile(len(lat))
    if tail is not None and tail > 50:
        detail[f"latency_p{tail:g}_s"] = float(np.percentile(lat, tail))
    if args.trace:
        plain, traced = runs[0::2], runs[1::2]
        metrics = tracing.layer_metrics(tracer.spans, [o for _, o in traced],
                                        [t for t, _ in traced])
        metrics["setup.import_s"] = statistics.median(imports)
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(t for t, _ in traced)
            / statistics.median(t for t, _ in plain) - 1.0)
        problems += tracing.sanity(wl.name, metrics)
        units = dict(tracing.PER_LAYER)
    else:
        metrics = end_to_end(runs, acc, setups)
        units = dict(END_TO_END)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<44} {value:14.6g} {units[name]}")
    n_failed = sum(1 for _, o in runs if o.failed)
    print(json.dumps({
        "correct": not problems, "attempted": len(runs), "failed": n_failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
