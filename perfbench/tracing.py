"""In-memory span tracer that wraps the public functions of each dasdoa layer.

Every traced function is replaced, for the duration of a `patched()` block,
in each loaded ``dasdoa`` module that holds it by name. Modules import their
callees by name (``broadband``, ``refine`` and ``bench`` each hold their own
``qspice_solve``), so patching only the defining module would miss most
calls. Nothing under ``src/`` is changed; the originals are restored on exit.

A span is (name, start, end, parent, request id, value, extra). ``value`` is
the span's own count: solver iterations, bytes read, snapshots produced and
so on; ``extra`` holds what a ratio needs, such as a steering-matrix key.
Spans stay in memory and are summarised once the run ends.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (module, function) pairs wrapped in traced runs; the module is where the
# function is defined. `cable` and `cli` argument parsing are not on any
# workload's hot path and stay unwrapped.
TRACED = (
    ("dasdoa.simulate", "synthesize"),
    ("dasdoa.recordio", "load_record"),
    ("dasdoa.recordio", "save_table"),
    ("dasdoa.frontend", "band_transform"),
    ("dasdoa.frontend", "bin_covariances"),
    ("dasdoa.frontend", "select_bins"),
    ("dasdoa.arrays", "steering_matrix"),
    ("dasdoa.estimators", "qspice_solve"),
    ("dasdoa.estimators", "cbf_spectrum"),
    ("dasdoa.estimators", "music_spectrum"),
    ("dasdoa.refine", "refine_loop"),
    ("dasdoa.broadband", "fuse_spectra"),
    ("dasdoa.broadband", "broadband_gnr2"),
    ("dasdoa.broadband", "broadband_estimate"),
    ("dasdoa.broadband", "btr"),
    ("dasdoa.bench", "run_trial"),
    ("dasdoa.bench", "run_monte_carlo"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int = -1
    value: float = 0.0          # the span's own count (iterations, bytes, ...)
    extra: object = ()          # name-specific details, see _COUNTS


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    request: int = -1
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               request=self.request))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        return span


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its child spans.

    The tracer keeps one call stack, so children are sequential and lie
    inside their parent.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _solver_counts(span, args, kwargs, res):
    span.value = res.n_iter
    span.extra = (bool(res.converged), int(res.powers.signal.size))


def _snapshot_count(span, args, kwargs, res):
    span.value = res.z.shape[0] * res.z.shape[2]


def _file_bytes(span, args, kwargs, res):
    span.value = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _steering_key(span, args, kwargs, res):
    geom = _arg(args, kwargs, 0, "geometry")
    theta = np.asarray(_arg(args, kwargs, 2, "theta_deg"), dtype=float)
    span.extra = hash((geom.offsets.tobytes(), geom.spacing, geom.sound_speed,
                       float(_arg(args, kwargs, 1, "frequency")), theta.tobytes(),
                       _arg(args, kwargs, 3, "convention", "broadside")))


# What a span records beyond its times, by span name.
_COUNTS = {
    "estimators.qspice_solve": _solver_counts,
    "frontend.band_transform": _snapshot_count,
    "recordio.load_record": _file_bytes,
    "arrays.steering_matrix": _steering_key,
}


def _wrap(name, fn, tracer):
    """Wrapper that records a span, plus the function's own counts."""
    if name == "refine.refine_loop":
        return _wrap_refine_loop(name, fn, tracer)
    counts = _COUNTS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            span = tracer.close(idx)
        if counts is not None:
            counts(span, args, kwargs, res)
        return res
    return wrapper


def _wrap_refine_loop(name, fn, tracer):
    """refine_loop(solve_fn, ...): count rounds and the grid size per solve."""
    @functools.wraps(fn)
    def wrapper(solve_fn, *args, **kwargs):
        sizes = []

        def counted(angles):
            sizes.append(len(angles))
            return solve_fn(angles)

        idx = tracer.open(name)
        try:
            res = fn(counted, *args, **kwargs)
        finally:
            span = tracer.close(idx)
        span.value = res[2]                 # refinement rounds
        span.extra = tuple(sizes)
        return res
    return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Route every call to a TRACED function through a span wrapper."""
    originals = {}
    for module, func in TRACED:
        layer = module.split(".", 1)[1]
        fn = getattr(sys.modules[module], func)
        originals[id(fn)] = (fn, _wrap(f"{layer}.{func}", fn, tracer))
    replaced = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dasdoa" or mod_name.startswith("dasdoa.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                replaced.append((mod, attr, value))
    try:
        yield tracer
    finally:
        for mod, attr, value in replaced:
            setattr(mod, attr, value)


# Per-layer metrics of a traced run: means per traced request unless the
# name says otherwise. METRICS.md maps each to the end-to-end metric and
# workload it should move.
PER_LAYER = (
    ("setup.import_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.request_s", "s"),
    ("estimators.qspice_solve.calls", "count"),
    ("estimators.qspice_solve.s", "s"),
    ("estimators.qspice_solve.iters", "count"),
    ("estimators.qspice_solve.us_per_iter", "us"),
    ("estimators.qspice_solve.nonconverged", "count"),
    ("estimators.qspice_solve.atoms_mean", "count"),
    ("refine.refine_loop.calls", "count"),
    ("refine.refine_loop.rounds", "count"),
    ("refine.refine_loop.grid_points", "count"),
    ("refine.refine_loop.self_s", "s"),
    ("broadband.broadband_gnr2.self_s", "s"),
    ("broadband.fuse_spectra.calls", "count"),
    ("broadband.fuse_spectra.s", "s"),
    ("broadband.btr.self_s", "s"),
    ("arrays.steering_matrix.calls", "count"),
    ("arrays.steering_matrix.s", "s"),
    ("arrays.steering_matrix.unique_ratio", "ratio"),
    ("frontend.band_transform.s", "s"),
    ("frontend.band_transform.snapshots", "count"),
    ("frontend.bin_covariances.s", "s"),
    ("frontend.select_bins.s", "s"),
    ("estimators.cbf_spectrum.calls", "count"),
    ("estimators.cbf_spectrum.s", "s"),
    ("estimators.music_spectrum.s", "s"),
    ("simulate.synthesize.calls", "count"),
    ("simulate.synthesize.s", "s"),
    ("bench.run_trial.self_s", "s"),
    ("bench.gnr2_over_qspice", "ratio"),
    ("recordio.load_record.s", "s"),
    ("recordio.load_record.bytes", "B"),
    ("recordio.save_table.s", "s"),
)


def layer_metrics(spans, outcomes, latencies) -> dict:
    """Per-layer metrics from the spans of len(latencies) traced requests."""
    n = max(len(latencies), 1)
    selfs = self_times(spans)
    calls, secs, own, value = {}, {}, {}, {}
    for s, self_s in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        secs[s.name] = secs.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + self_s
        value[s.name] = value.get(s.name, 0.0) + s.value

    solves = [s for s in spans if s.name == "estimators.qspice_solve"]
    iters = value.get("estimators.qspice_solve", 0.0)
    rounds = [s for s in spans if s.name == "refine.refine_loop"]
    sizes = [g for s in rounds for g in s.extra]
    steer = {}
    for s in spans:
        if s.name == "arrays.steering_matrix":
            steer.setdefault(s.request, []).append(s.extra)
    timings = [o.timings for o in outcomes if o.timings]
    gnr2 = sum(t.get("gnr2", 0.0) for t in timings)
    qspice = sum(t.get("qspice", 0.0) for t in timings)

    def per_req(table, name):
        return table.get(name, 0.0) / n

    return {
        "trace.request_s": sum(latencies) / n,
        "estimators.qspice_solve.calls": per_req(calls, "estimators.qspice_solve"),
        "estimators.qspice_solve.s": per_req(secs, "estimators.qspice_solve"),
        "estimators.qspice_solve.iters": iters / n,
        "estimators.qspice_solve.us_per_iter":
            1e6 * secs.get("estimators.qspice_solve", 0.0) / iters if iters else 0.0,
        "estimators.qspice_solve.nonconverged":
            sum(1 for s in solves if not s.extra[0]) / n,
        "estimators.qspice_solve.atoms_mean":
            sum(s.extra[1] for s in solves) / len(solves) if solves else 0.0,
        "refine.refine_loop.calls": per_req(calls, "refine.refine_loop"),
        "refine.refine_loop.rounds":
            sum(s.value for s in rounds) / len(rounds) if rounds else 0.0,
        "refine.refine_loop.grid_points": sum(sizes) / len(sizes) if sizes else 0.0,
        "refine.refine_loop.self_s": per_req(own, "refine.refine_loop"),
        "broadband.broadband_gnr2.self_s": per_req(own, "broadband.broadband_gnr2"),
        "broadband.fuse_spectra.calls": per_req(calls, "broadband.fuse_spectra"),
        "broadband.fuse_spectra.s": per_req(secs, "broadband.fuse_spectra"),
        "broadband.btr.self_s": per_req(own, "broadband.btr"),
        "arrays.steering_matrix.calls": per_req(calls, "arrays.steering_matrix"),
        "arrays.steering_matrix.s": per_req(secs, "arrays.steering_matrix"),
        "arrays.steering_matrix.unique_ratio":
            sum(len(set(keys)) / len(keys) for keys in steer.values()) / len(steer)
            if steer else 0.0,
        "frontend.band_transform.s": per_req(secs, "frontend.band_transform"),
        "frontend.band_transform.snapshots": per_req(value, "frontend.band_transform"),
        "frontend.bin_covariances.s": per_req(secs, "frontend.bin_covariances"),
        "frontend.select_bins.s": per_req(secs, "frontend.select_bins"),
        "estimators.cbf_spectrum.calls": per_req(calls, "estimators.cbf_spectrum"),
        "estimators.cbf_spectrum.s": per_req(secs, "estimators.cbf_spectrum"),
        "estimators.music_spectrum.s": per_req(secs, "estimators.music_spectrum"),
        "simulate.synthesize.calls": per_req(calls, "simulate.synthesize"),
        "simulate.synthesize.s": per_req(secs, "simulate.synthesize"),
        "bench.run_trial.self_s": per_req(own, "bench.run_trial"),
        "bench.gnr2_over_qspice": gnr2 / qspice if qspice else 0.0,
        "recordio.load_record.s": per_req(secs, "recordio.load_record"),
        "recordio.load_record.bytes": per_req(value, "recordio.load_record"),
        "recordio.save_table.s": per_req(secs, "recordio.save_table"),
    }


def sanity(workload: str, metrics: dict) -> list:
    """Cross-checks of the trace against what each workload is known to do."""
    problems = []
    if workload == "pair-gnr2":
        share = metrics["estimators.qspice_solve.s"] / metrics["trace.request_s"]
        if share < 0.95:
            problems.append(f"solver covers {100 * share:.1f}% of pair-gnr2 "
                            "request time, expected at least 95%")
    if workload == "btr-cbf" and metrics["estimators.qspice_solve.calls"] != 0:
        problems.append("btr-cbf made solver calls")
    return problems
