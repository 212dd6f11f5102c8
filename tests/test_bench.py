import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dasdoa import estimators
from dasdoa.bench import PRESETS, BenchRow, NONUNIFORM_DIAG, ScenarioConfig, \
    pair_errors, rmse, run_monte_carlo, run_trial, success_ratio, \
    timing_ratios, _make_context
from dasdoa.errors import ConfigError


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


def test_pair_errors_matches_brute_force():
    rng = np.random.default_rng(40)
    for _ in range(50):
        k = rng.integers(1, 4)
        truth = np.sort(rng.uniform(-80, 80, k))
        est = truth + rng.normal(0, 5, k)
        rng.shuffle(est)
        err = pair_errors(est, truth)
        ref = brute_force_errors(est, truth)
        assert np.abs(err).sum() == pytest.approx(np.abs(ref).sum(), abs=1e-9)


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
        success_ratio([(1.0,)], (1.0,), threshold=0.0)
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
        assert a[method][1] == b[method][1]


def test_singular_solve_is_a_failed_trial(monkeypatch):
    # a Cholesky failure is a ToolkitError, so the trial counts it as a
    # shortfall of that method instead of ending the sweep
    real = estimators.get_lapack_funcs

    def failing_potrf(names, **kwargs):
        _, potrs = real(names, **kwargs)
        return (lambda a, *flags: (a, 2)), potrs

    monkeypatch.setattr(estimators, "get_lapack_funcs", failing_potrf)
    cfg = _tiny_config(methods=("cbf", "qspice"))
    out = run_trial(cfg, 0, 1, _make_context(cfg))
    assert out["qspice"][:2] == ((), True)
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


def test_pos_error_sweep_perturbs_truth_geometry():
    cfg = _tiny_config(sweep="pos_error", sweep_values=(0.2,), trials=2,
                       methods=("cbf",), snr_db=10.0)
    res = run_monte_carlo(cfg)
    assert res.rows[0].value == 0.2
