"""The benchmark's workloads: seeded input generation, the program's own
set-up, one closed-loop request, and the output checks.

Requests call the program through its module attributes
(``recordio.load_record``), so a traced run's wrappers see them too.

Each workload cycles through a small pool of inputs made from the seed. The
pool is small enough to be covered inside one run, so the accuracy figures
depend on the seed only, never on how many requests fitted in the window,
and repeated inputs let every run check that outputs are deterministic.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from dasdoa import bench, broadband, recordio
from dasdoa.arrays import ArrayGeometry, uniform_line_array
from dasdoa.bench import NONUNIFORM_DIAG, PRESETS, SUCCESS_THRESHOLD_DEG, pair_errors
from dasdoa.recordio import load_config, render_table, save_record, \
    scenario_from_dict
from dasdoa.simulate import NoiseModel, SourceSpec, harmonic_lines, synthesize

FS = 5120.0


@dataclass(frozen=True)
class Outcome:
    """What one request produced, reduced to what the checks need."""

    item: int                   # pool position of the input
    failed: bool
    digest: str = ""            # exact output, compared across repeats
    estimates: tuple = ()
    trials: int = 0             # independent estimates the request made
    input_s: float = 0.0        # seconds of signal the request consumed
    rows: tuple = ()            # per-workload accuracy detail
    timings: dict = None        # bench's own per-method seconds, if any


def _seed_seq(seed: int, *key) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=key)


# -----------------------------
# pair-gnr2: the c06 broadband pair, one record per request
# -----------------------------
PAIR_OFFSETS = (0, 1.9, 3.5, 5.3, 7.85, 10, 11.8, 14.1, 16, 17.7, 20, 22.0)
PAIR_TRUTH = (18.8, 20.6)
PAIR_BAND = (100.0, 1000.0)
PAIR_RECORDS = 5


class PairGnr2:
    name = "pair-gnr2"
    pool = PAIR_RECORDS

    def generate(self, seed: int, work: str) -> None:
        geom = ArrayGeometry(np.array(PAIR_OFFSETS), 1.25, 1500.0)
        sources = SourceSpec("propeller-broadband", PAIR_TRUTH, (1.0, 1.0),
                             snapshot_rate=FS, band=PAIR_BAND,
                             lines=(harmonic_lines(100.0, PAIR_BAND),
                                    harmonic_lines(90.0, PAIR_BAND)))
        model = NoiseModel("nonuniform-gaussian", diag=NONUNIFORM_DIAG)
        for i in range(self.pool):
            rec = synthesize(geom, sources, model, 0.0, 10240,
                             np.random.default_rng(_seed_seq(seed, i)))
            save_record(rec, os.path.join(work, f"pair{i}.rec"))

    def prepare(self, work: str) -> dict:
        return {"geometry": ArrayGeometry(np.array(PAIR_OFFSETS), 1.25, 1500.0),
                "paths": [os.path.join(work, f"pair{i}.rec")
                          for i in range(self.pool)]}

    def request(self, ctx: dict, item: int):
        record = recordio.load_record(ctx["paths"][item])
        _, est = broadband.broadband_estimate(record, ctx["geometry"], bins=PAIR_BAND,
                                    estimator="gnr2", k=2, select_count=20)
        return record, est

    def outcome(self, ctx, item, result) -> Outcome:
        record, est = result
        est = tuple(float(a) for a in est)
        return Outcome(item, len(est) < len(PAIR_TRUTH), repr(est), est, 1,
                       record.n_samples / record.sample_rate)

    def accuracy(self, firsts) -> tuple[dict, list]:
        complete = [o.estimates for o in firsts if not o.failed]
        errs = [e for est in complete for e in pair_errors(est, PAIR_TRUTH)]
        ok = sum(1 for est in complete
                 if np.all(np.abs(pair_errors(est, PAIR_TRUTH)) < SUCCESS_THRESHOLD_DEG))
        problems = []
        # each record is resolved with high probability at 0 dB; a pool in
        # which none is points at the estimator, not at the draw
        if ok == 0:
            problems.append(f"no record resolved the pair {PAIR_TRUTH}: "
                            f"{[o.estimates for o in firsts]}")
        return {"success_pct": 100.0 * ok / len(firsts),
                "rmse_deg": _rms(errs)}, problems


# -----------------------------
# nb-montecarlo: the table1 sweep, one run_monte_carlo call per request
# -----------------------------
MC_CONFIGS = 6
MC_TRIALS = 2


class NbMonteCarlo:
    name = "nb-montecarlo"
    pool = MC_CONFIGS

    def generate(self, seed: int, work: str) -> None:
        base = PRESETS["table1"]()
        seeds = _seed_seq(seed).generate_state(self.pool)
        for i, s in enumerate(seeds):
            cfg = replace(base, trials=MC_TRIALS, seed=int(s))
            with open(os.path.join(work, f"mc{i}.json"), "w") as fh:
                json.dump(asdict(cfg), fh, sort_keys=True)

    def prepare(self, work: str) -> dict:
        return {"configs": [scenario_from_dict(load_config(os.path.join(work, f"mc{i}.json")))
                            for i in range(self.pool)]}

    def request(self, ctx: dict, item: int):
        return bench.run_monte_carlo(ctx["configs"][item], jobs=1)

    def outcome(self, ctx, item, result) -> Outcome:
        cfg = result.config
        trials = cfg.trials * len(cfg.sweep_values)
        rows = tuple((r.value, r.trials, r.trials - r.shortfalls, r.success_pct,
                      r.rmse_deg) for r in result.rows)
        return Outcome(item, False, render_table(result), (), trials,
                       trials * cfg.snapshots / cfg.snapshot_rate, rows,
                       dict(result.timings))

    def accuracy(self, firsts) -> tuple[dict, list]:
        # a request here fails only by raising, which is a fault of the program
        problems = _failed_inputs(firsts)
        rows = [row for o in firsts for row in o.rows]
        if not rows:
            return _NO_ACCURACY, problems + ["no sweep produced metrics rows"]
        top = max(row[0] for row in rows)
        n = sum(row[1] for row in rows)
        ok = sum(row[1] * row[3] / 100.0 for row in rows)
        counted = [(row[2], row[4]) for row in rows
                   if row[2] and not math.isnan(row[4])]
        n_err = sum(c for c, _ in counted)
        # at the top of the sweep every method resolves the 25 deg pair on the
        # 0.5 deg grid; a low pooled success there points at the program
        top_rows = [row for row in rows if row[0] == top]
        top_pct = sum(row[1] * row[3] for row in top_rows) / sum(row[1] for row in top_rows)
        if top_pct < 80.0:
            problems.append(f"success at {top:g} dB is {top_pct:.1f}%, expected >= 80%")
        return {"success_pct": 100.0 * ok / n,
                "rmse_deg": math.sqrt(sum(c * r ** 2 for c, r in counted) / n_err)
                if n_err else float("nan")}, problems


# -----------------------------
# btr-cbf: a bearing-time record with the fixed-grid CBF, no solver
# -----------------------------
BTR_TRUTH = (-25.3, 32.6)       # louder source first; off the 1 deg grid
BTR_POWERS = (1.0, 0.5)
BTR_BAND = (50.0, 1050.0)
BTR_SECONDS = 20.0
BTR_STEP = 1.0
BTR_SNR_DB = 10.0


class BtrCbf:
    name = "btr-cbf"
    pool = 1

    def generate(self, seed: int, work: str) -> None:
        band = (60.0, 1000.0)
        sources = SourceSpec("propeller-broadband", BTR_TRUTH, BTR_POWERS,
                             snapshot_rate=FS, band=band,
                             lines=(harmonic_lines(100.0, band),
                                    harmonic_lines(90.0, band)))
        rec = synthesize(uniform_line_array(12, 1.25), sources,
                         NoiseModel("uniform-gaussian", sigma2=1.0), BTR_SNR_DB,
                         int(BTR_SECONDS * FS),
                         np.random.default_rng(_seed_seq(seed)))
        save_record(rec, os.path.join(work, "btr.rec"))

    def prepare(self, work: str) -> dict:
        return {"geometry": uniform_line_array(12, 1.25),
                "path": os.path.join(work, "btr.rec"),
                "out": os.path.join(work, "btr.csv")}

    def request(self, ctx: dict, item: int):
        record = recordio.load_record(ctx["path"])
        result = broadband.btr(record, ctx["geometry"], bins=BTR_BAND, estimator="cbf",
                     step=BTR_STEP)
        recordio.save_table(result, ctx["out"])
        return record, result

    def outcome(self, ctx, item, result) -> Outcome:
        record, res = result
        with open(ctx["out"]) as fh:
            table = fh.read()
        peaks = tuple(float(a) for a in res.angles[np.argmax(res.power_db, axis=1)])
        return Outcome(item, False, table, peaks, len(res.times),
                       record.n_samples / record.sample_rate)

    def accuracy(self, firsts) -> tuple[dict, list]:
        problems = _failed_inputs(firsts)
        peaks = np.array([p for o in firsts for p in o.estimates])
        if peaks.size == 0:
            return _NO_ACCURACY, problems + ["the bearing-time record has no frames"]
        err = peaks - BTR_TRUTH[0]
        hit = np.abs(err) <= BTR_STEP
        if hit.mean() < 0.9:
            problems.append(f"only {hit.sum()} of {hit.size} frames peak within "
                            f"{BTR_STEP} deg of {BTR_TRUTH[0]}")
        return {"success_pct": 100.0 * hit.mean(), "rmse_deg": _rms(err)}, problems


_NO_ACCURACY = {"success_pct": 0.0, "rmse_deg": float("nan")}


def _failed_inputs(firsts) -> list:
    return [f"input {o.item} failed" for o in firsts if o.failed]


def _rms(errors) -> float:
    errors = np.asarray(errors, dtype=float)
    return float(np.sqrt(np.mean(errors ** 2))) if errors.size else float("nan")


WORKLOADS = {w.name: w for w in (PairGnr2(), NbMonteCarlo(), BtrCbf())}
