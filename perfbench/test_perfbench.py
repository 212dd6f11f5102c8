"""Tests of the benchmark's own machinery (not of dasdoa).

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -----------------------------
# percentiles and sample counts
# -----------------------------
@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (999, 95), (1000, 99), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10 - 1e-9


# -----------------------------
# self time on synthetic span trees
# -----------------------------
def _spans(*rows):
    return [tracing.Span(name, start, end, parent) for name, start, end, parent in rows]


def test_self_time_subtracts_children_once():
    spans = _spans(("root", 0.0, 10.0, -1),
                   ("a", 1.0, 3.0, 0),
                   ("b", 5.0, 6.0, 0),
                   ("a.x", 1.5, 2.5, 1))
    assert tracing.self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_patched_routes_every_importer_and_restores():
    import dasdoa.broadband
    import dasdoa.estimators
    import dasdoa.refine
    from dasdoa.arrays import uniform_line_array
    original = dasdoa.estimators.qspice_solve
    tracer = tracing.Tracer()
    geom = uniform_line_array(8, 0.25)
    rng = np.random.default_rng(1)
    z = rng.standard_normal((8, 40)) + 1j * rng.standard_normal((8, 40))
    r_hat = z @ z.conj().T / 40
    with tracing.patched(tracer):
        for mod in (dasdoa.broadband, dasdoa.refine, dasdoa.estimators, dasdoa):
            assert mod.qspice_solve is not original
        dasdoa.refine.gnr2_estimate(r_hat, geom, 3000.0, 1)
    for mod in (dasdoa.broadband, dasdoa.refine, dasdoa.estimators, dasdoa):
        assert mod.qspice_solve is original
    names = [s.name for s in tracer.spans]
    loop = names.index("refine.refine_loop")
    solves = [s for s in tracer.spans if s.name == "estimators.qspice_solve"]
    assert solves and all(s.parent == loop for s in solves)
    assert all(s.value >= 1 for s in solves)
    assert len(tracer.spans[loop].extra) == len(solves)


# -----------------------------
# metric names
# -----------------------------
def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layer == dict(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = list(e2e) + list(layer) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_layer_metrics_report_every_per_layer_name():
    reported = tracing.layer_metrics([], [], [])
    reported.update({"setup.import_s": 1.0, "trace.overhead_pct": 0.0})
    assert set(reported) == {name for name, _ in tracing.PER_LAYER}


# -----------------------------
# output checks
# -----------------------------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_accuracy_reports_a_pool_that_only_failed(name):
    wl = workloads.WORKLOADS[name]
    failed = [workloads.Outcome(i, True) for i in range(wl.pool)]
    _, problems = wl.accuracy(failed)
    assert problems


# -----------------------------
# seeded inputs
# -----------------------------
def _generated(tmp_path, workload, seed, tag):
    out = tmp_path / tag
    out.mkdir()
    workload.generate(seed, str(out))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    first = _generated(tmp_path, wl, 7, "a")
    assert len(first) == wl.pool
    assert _generated(tmp_path, wl, 7, "b") == first
    assert _generated(tmp_path, wl, 8, "c") != first
