import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from dasdoa import bench, estimators
from dasdoa.bench import PRESETS, BenchResult, BenchRow, NONUNIFORM_DIAG, ScenarioConfig, \
    pair_errors, rmse, run_monte_carlo, run_trial, success_ratio, \
    timing_ratios, _make_context
from dasdoa.errors import ConfigError
from dasdoa.recordio import render_table
from dasdoa.refine import RefineConfig


def _tiny_config(**kw):
    base = dict(name="tiny", sweep="snr", sweep_values=(9.0,), trials=3,
                methods=("cbf", "music"), seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def brute_force_errors(est, truth):
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(len(truth))):
        err = np.array([est[p] - truth[i] for i, p in enumerate(perm)])
        cost = np.abs(err).sum()
        if cost < best_cost:
            best, best_cost = err, cost
    return best


@settings(max_examples=200)
@given(pairs=st.lists(st.tuples(st.floats(-90, 90), st.floats(-90, 90)),
                      min_size=1, max_size=5))
def test_pair_errors_matches_brute_force(pairs):
    # the errors come from one matching of estimates to truths, and no
    # permutation has a smaller total absolute error
    est = np.array([e for e, _ in pairs])
    truth = np.array([t for _, t in pairs])
    err = pair_errors(est, truth)
    assert_allclose(np.sort(truth + err), np.sort(est), rtol=0, atol=1e-9)
    ref = brute_force_errors(est, truth)
    assert np.abs(err).sum() <= np.abs(ref).sum() + 1e-9


def test_pair_errors_prefers_natural_assignment():
    err = pair_errors([10.2, 20.1], [10.0, 20.0])
    assert_allclose(err, [0.2, 0.1])
    # swapped input order pairs back to the nearest truths
    err = pair_errors([20.1, 10.2], [10.0, 20.0])
    assert_allclose(err, [0.2, 0.1])


def test_pair_errors_count_mismatch():
    with pytest.raises(ConfigError):
        pair_errors([1.0], [1.0, 2.0])


def test_rmse_two_trial_example():
    # errors 0.1 and 0.3 over two single-source trials
    value = rmse([[10.1], [9.7]], [10.0])
    assert value == pytest.approx(np.sqrt((0.01 + 0.09) / 2))


def test_rmse_empty_is_nan():
    assert np.isnan(rmse([], [10.0]))


def test_success_ratio_counts_shortfalls_as_failures():
    trials = [
        (10.1, 20.1),    # success: both within 0.3
        (10.4, 20.0),    # failure: 0.4 off
        (10.0,),         # shortfall
        (10.2, 19.9),    # success
    ]
    assert success_ratio(trials, (10.0, 20.0)) == pytest.approx(50.0)


def test_success_ratio_validation():
    with pytest.raises(ConfigError):
        success_ratio([], (1.0,))


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        _tiny_config(sweep="bandwidth")
    with pytest.raises(ConfigError):
        _tiny_config(sweep_values=())
    with pytest.raises(ConfigError):
        _tiny_config(trials=0)
    with pytest.raises(ConfigError):
        _tiny_config(methods=("cbf", "esprit"))
    with pytest.raises(ConfigError):
        _tiny_config(noise="nonuniform-gaussian", noise_diag=(1.0, 2.0))


def test_unknown_noise_kind_is_rejected_before_any_trial(monkeypatch):
    # NoiseModel owns the kinds; the scenario asks it before any synthesis
    monkeypatch.setattr(bench, "synthesize", lambda *a, **kw: pytest.fail("synthesized"))
    with pytest.raises(ConfigError, match="unknown noise kind 'bogus'; the kinds are "
                       "uniform-gaussian, nonuniform-gaussian, impulsive-sas"):
        _tiny_config(noise="bogus")


@pytest.mark.parametrize("kw, message", [
    (dict(noise_diag=NONUNIFORM_DIAG), "noise_diag is read only by nonuniform-gaussian "
                                      "noise, not uniform-gaussian"),
    (dict(noise="impulsive-sas", noise_diag=NONUNIFORM_DIAG),
     "noise_diag is read only by nonuniform-gaussian noise, not impulsive-sas"),
    (dict(alpha=0.5), r"alpha is read only by impulsive-sas noise, not uniform-gaussian "
                      r"\(got alpha=0.5\)"),
    (dict(noise="nonuniform-gaussian", noise_diag=NONUNIFORM_DIAG, alpha=2.0),
     "alpha is read only by impulsive-sas noise, not nonuniform-gaussian")])
def test_noise_keys_the_kind_does_not_read_are_rejected(kw, message):
    # a key the noise kind ignores would change the manifest, not the rows
    with pytest.raises(ConfigError, match=message):
        _tiny_config(**kw)
    assert _tiny_config(noise="impulsive-sas", alpha=0.5).alpha == 0.5
    assert _tiny_config(noise="nonuniform-gaussian",
                        noise_diag=NONUNIFORM_DIAG).noise_diag == NONUNIFORM_DIAG


def test_preset_digests_are_unchanged():
    # the manifest digests of the presets and of the default scenario
    digests = {"table1": "3df33280c918", "table1-snapshots": "f4137dd32eda",
               "table2": "608727e0ed3e", "table3": "083291ab45f7",
               "table3-snapshots": "e15f4c71c8ea", "table4": "947074f2b831",
               "impulsive": "4820ff4cf364", "impulsive-snapshots": "eec071d85d0f"}
    assert {name: factory().digest() for name, factory in PRESETS.items()} == digests
    assert ScenarioConfig().digest() == "da9bc8b1415a"


@pytest.mark.parametrize("kw, message", [
    (dict(methods=()), "methods must name at least one estimator"),
    (dict(methods=estimators.ESTIMATORS), "methods must be a tuple of names"),
    (dict(methods=["cbf"]), "methods must be a tuple of names, got ['cbf']"),
    (dict(methods=("cbf", 1)), "methods must be a tuple of names, got ('cbf', 1)"),
    (dict(methods=("cbf", "music", "cbf")), "each once"),
    (dict(snapshots=0), "whole numbers >= 1, got [0]"),
    (dict(snapshots=2.5), "whole numbers >= 1, got [2.5]"),
    (dict(sweep="snapshots", sweep_values=(30, 30.7)), "got [30.7]"),
    (dict(sweep="snapshots", sweep_values=(0.5,)), "got [0.5]"),
    (dict(sweep="snapshots", sweep_values=(-30.0,)), "got [-30.0]"),
], ids=["methods-empty", "methods-registry", "methods-list", "methods-not-names",
        "methods-repeated", "snapshots-zero", "snapshots-half",
        "sweep-fraction", "sweep-half", "sweep-negative"])
def test_scenario_rejects_methods_and_snapshot_counts(kw, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        _tiny_config(**kw)


def test_whole_float_snapshot_counts_stay_valid():
    # the CLI reads sweep values as floats; 30.0 is thirty snapshots
    cfg = _tiny_config(sweep="snapshots", sweep_values=(30.0, 60))
    assert bench._trial_point(cfg, 0)[1] == 30
    assert _tiny_config(sweep="snr", sweep_values=(0.5,)).sweep_values == (0.5,)


def test_scenario_digest_tracks_content():
    a, b = _tiny_config(), _tiny_config()
    assert a.digest() == b.digest()
    assert a.digest() != _tiny_config(seed=8).digest()


def test_presets_construct():
    for name, factory in PRESETS.items():
        cfg = factory()
        assert cfg.name == name
    assert PRESETS["table3"]().noise_diag == NONUNIFORM_DIAG
    assert PRESETS["table2"]().sweep == "pos_error"
    assert PRESETS["impulsive"]().snapshots == 400


def test_run_trial_deterministic():
    cfg = _tiny_config()
    ctx = _make_context(cfg)
    a = run_trial(cfg, 0, 1, ctx)
    b = run_trial(cfg, 0, 1, ctx)
    for method in cfg.methods:
        assert a[method][0] == b[method][0]


def test_singular_solve_is_a_failed_trial(monkeypatch):
    # a Cholesky failure is an EstimationError, so the trial counts it as a
    # shortfall of that method instead of ending the sweep
    real = estimators.get_lapack_funcs

    def failing_potrf(names, **kwargs):
        _, potrs = real(names, **kwargs)
        return (lambda a, *flags: (a, 2)), potrs

    monkeypatch.setattr(estimators, "get_lapack_funcs", failing_potrf)
    cfg = _tiny_config(methods=("cbf", "qspice"))
    out = run_trial(cfg, 0, 1, _make_context(cfg))
    assert out["qspice"][0] == ()
    assert len(out["cbf"][0]) == 2


def test_run_monte_carlo_rows_and_determinism():
    cfg = _tiny_config(trials=4, sweep_values=(6.0, 12.0))
    res1 = run_monte_carlo(cfg)
    res2 = run_monte_carlo(cfg)
    assert len(res1.rows) == 4            # 2 sweep points x 2 methods
    for r1, r2 in zip(res1.rows, res2.rows):
        assert isinstance(r1, BenchRow)
        assert r1.trials == 4
        assert (r1.value, r1.method, r1.success_pct) == \
            (r2.value, r2.method, r2.success_pct)
        assert r1.rmse_deg == r2.rmse_deg or (
            np.isnan(r1.rmse_deg) and np.isnan(r2.rmse_deg))
    row = res1.row(6.0, "cbf")
    assert row.sweep == "snr" and 0 <= row.success_pct <= 100


def test_run_monte_carlo_rejects_jobs_below_one():
    for jobs in (0, -2):
        with pytest.raises(ConfigError, match="jobs"):
            run_monte_carlo(_tiny_config(), jobs=jobs)


def test_high_snr_point_is_accurate():
    cfg = _tiny_config(trials=5, sweep_values=(15.0,),
                       methods=("cbf", "gnr2"))
    res = run_monte_carlo(cfg)
    assert res.row(15.0, "gnr2").success_pct == 100.0
    assert res.row(15.0, "gnr2").rmse_deg < 0.15


def test_invalid_solver_settings_fail_the_run():
    with pytest.raises(ConfigError):
        run_monte_carlo(_tiny_config(r=0.5))
    with pytest.raises(ConfigError):
        run_monte_carlo(_tiny_config(refine_initial_step=0.01))


def test_timing_ratios_reference_fallback():
    cfg = _tiny_config(trials=2)
    res = run_monte_carlo(cfg)
    rows = timing_ratios(res)   # gnr2 absent -> first method
    assert rows[0][0] == "cbf"
    assert rows[0][2] == pytest.approx(1.0)


def test_timing_ratios_reference_is_the_first_refining_method():
    res = BenchResult(_tiny_config(), (), (("cbf", 1.0), ("gnr2", 4.0), ("qspice", 2.0)))
    assert timing_ratios(res) == (("cbf", 1.0, 0.25), ("gnr2", 4.0, 1.0),
                                  ("qspice", 2.0, 0.5))


def test_pos_error_sweep_perturbs_truth_geometry():
    cfg = _tiny_config(sweep="pos_error", sweep_values=(0.2,), trials=2,
                       methods=("cbf",), snr_db=10.0)
    res = run_monte_carlo(cfg)
    assert res.rows[0].value == 0.2


# tiny sweeps of each kind, with every method and every noise model
SWEEPS = {
    "snr-uniform": dict(sweep="snr", sweep_values=(3.0, 12.0)),
    "snapshots-nonuniform": dict(sweep="snapshots", sweep_values=(30, 60), snr_db=6.0,
                                 noise="nonuniform-gaussian",
                                 noise_diag=NONUNIFORM_DIAG),
    "pos_error-sas": dict(sweep="pos_error", sweep_values=(0.1, 0.3), snr_db=9.0,
                          noise="impulsive-sas", snapshots=200),
}


@pytest.mark.parametrize("kind", SWEEPS)
@pytest.mark.parametrize("chunk", [16, 4])
def test_stacked_sweep_equals_per_trial_path(monkeypatch, kind, chunk):
    # a chunk of 4 straddles the two sweep points; each trial of a stacked
    # sweep gets what its chunk of one, run_trial, gives
    monkeypatch.setattr(bench, "CHUNK_TRIALS", chunk)
    cfg = _tiny_config(trials=3, methods=tuple(estimators.ESTIMATORS), **SWEEPS[kind])
    trials, seconds = bench._sweep(cfg)
    assert set(seconds) == set(cfg.methods)
    ctx = _make_context(cfg)
    for i in range(len(cfg.sweep_values)):
        for t in range(cfg.trials):
            one = run_trial(cfg, i, t, ctx)
            for method in cfg.methods:
                assert trials[method][i * cfg.trials + t] == one[method][0]


@pytest.mark.parametrize("kind", SWEEPS)
def test_sweep_table_does_not_depend_on_jobs(monkeypatch, kind):
    monkeypatch.setattr(bench, "CHUNK_TRIALS", 2)
    cfg = _tiny_config(trials=3, methods=tuple(estimators.ESTIMATORS), **SWEEPS[kind])
    tables = {render_table(run_monte_carlo(cfg, jobs=jobs))
              for jobs in (1, 2, 3)}
    assert len(tables) == 1


class _InProcessPool:
    """A ProcessPoolExecutor that starts no process: it records the
    max_workers it is made with and maps in this process."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


@pytest.mark.parametrize("jobs, trials, workers", [
    (5000, 3, [3]), (2, 3, [2]), (5000, 1, [])],
    ids=["jobs-5000-3-chunks", "jobs-2-3-chunks", "jobs-5000-1-chunk"])
def test_pool_has_at_most_one_worker_per_chunk(monkeypatch, jobs, trials, workers):
    # the fork start method launches every worker on the first submit, so
    # the pool is sized by the chunks, and one chunk runs in this process
    monkeypatch.setattr(bench, "CHUNK_TRIALS", 2)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "made", [])
    cfg = _tiny_config(sweep_values=(3.0, 12.0), trials=trials, methods=("cbf",))
    serial = render_table(run_monte_carlo(cfg))
    assert render_table(run_monte_carlo(cfg, jobs=jobs)) == serial
    assert _InProcessPool.made == workers


def test_one_failing_problem_stays_isolated(monkeypatch):
    # potrf fails for one chosen trial's covariance only, marked by a scale
    # no other trial's model reaches; its stacked solves fail, each problem
    # is retried alone, and only that trial's solver methods fall short
    monkeypatch.setattr(bench, "CHUNK_TRIALS", 4)
    cfg = _tiny_config(trials=3, sweep_values=(3.0, 12.0),
                       methods=("cbf", "qspice", "gnr2"))
    clean, _ = bench._sweep(cfg)
    chosen, scale = (0, 2), 1e9
    real_cov = bench._trial_covariance
    ctx = _make_context(cfg)
    traces = [np.trace(real_cov(cfg, ctx, i, t)).real for i in range(2) for t in range(3)]
    assert max(traces) < 1e4

    def marked(cfg_, ctx_, i, t):
        cov = real_cov(cfg_, ctx_, i, t)
        return cov * scale if (i, t) == chosen else cov

    real = estimators.get_lapack_funcs

    def potrf_failing_when_marked(names, **kwargs):
        potrf, potrs = real(names, **kwargs)

        def checked(a, *flags):
            if abs(a[0, 0]) > 1e7:
                return a, 1
            return potrf(a, *flags)
        return checked, potrs

    monkeypatch.setattr(bench, "_trial_covariance", marked)
    monkeypatch.setattr(estimators, "get_lapack_funcs", potrf_failing_when_marked)
    trials, _ = bench._sweep(cfg)
    bad = chosen[0] * cfg.trials + chosen[1]
    for method in cfg.methods:
        for j, (got, want) in enumerate(zip(trials[method], clean[method])):
            if j != bad:
                assert got == want
            elif method == "cbf":
                assert len(got) == 2
            else:
                assert got == ()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("scene, message", [
    (dict(cbf_guard=-1.0, methods=("cbf",)), "guard must be non-negative"),
    (dict(n_elements=2, methods=("music",)), "1 <= k < M=2, got 2"),
], ids=["cbf-guard", "music-k"])
def test_a_configuration_fault_in_a_trial_ends_the_run(monkeypatch, scene, message, jobs):
    # only an estimation or data error fails a trial: a configuration fault
    # ends the sweep, and comes back from the pool's two chunks alike
    monkeypatch.setattr(bench, "CHUNK_TRIALS", 2)
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_monte_carlo(_tiny_config(**scene), jobs=jobs)


@pytest.mark.parametrize("call, message", [
    (lambda: ScenarioConfig(doas=()), "need at least one source angle"),
    (lambda: ScenarioConfig(trials=2.5), "trial count must be an integer, got 2.5"),
    (lambda: ScenarioConfig(trials=True), "trial count must be an integer, got True"),
    (lambda: ScenarioConfig(n_elements=2.5), "element count must be an integer, got 2.5"),
    (lambda: ScenarioConfig(pos_error_level=-0.1),
     "position-error levels must be non-negative finite numbers, got [-0.1]"),
    (lambda: ScenarioConfig(pos_error_level=np.nan),
     "position-error levels must be non-negative finite numbers, got [nan]"),
    (lambda: ScenarioConfig(sweep="pos_error", sweep_values=(0.1, -0.1, np.inf)),
     "position-error levels must be non-negative finite numbers, got [-0.1, inf]"),
    (lambda: ScenarioConfig(sweep="pos_error", sweep_values=(np.nan,)),
     "position-error levels must be non-negative finite numbers, got [nan]"),
], ids=["no-source", "trials-float", "trials-bool", "elements-float",
        "pos-error-level-negative", "pos-error-level-nan", "pos-error-sweep-negative",
        "pos-error-sweep-nan"])
def test_each_rejection_states_its_rule(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message


def test_context_configs_are_the_scenarios_solver_and_refine_fields():
    cfg = ScenarioConfig(r=1.5, q=1.25, max_iter=40, rel_tol=1e-4,
                         refine_initial_step=2.0, refine_target_step=0.25)
    ctx = _make_context(cfg)
    assert ctx["solver"] == estimators.SolverConfig(1.5, 1.25, 40, 1e-4)
    assert ctx["refine"] == RefineConfig(2.0, 0.25)
