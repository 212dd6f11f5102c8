from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from dasdoa import estimators, refine
from dasdoa.arrays import Steering, angle_grid, full_sector, half_wavelength_spacing, \
    uniform_line_array, steering_matrix
from dasdoa.errors import ConfigError
from dasdoa.estimators import _pick
from dasdoa.refine import NEIGHBORHOOD_HALFWIDTH, RefineConfig, narrowband_estimate, \
    refine_lockstep, refine_loop, gnr2_estimate


def bumps(centers, width=0.8):
    """Smooth synthetic spectrum with maxima exactly at `centers`."""
    centers = np.asarray(centers, dtype=float)

    def solve(angles):
        angles = np.asarray(angles, dtype=float)
        return np.sum(np.exp(-((angles[:, None] - centers[None, :]) / width) ** 2),
                      axis=1)
    return solve


def test_refine_config_validation():
    with pytest.raises(ConfigError):
        RefineConfig(initial_step=0.5, target_step=0.5)


def test_refine_finds_offgrid_maxima_to_target_step():
    truth = [-12.34, 41.18]
    est, shortfall, rounds, grid, power = refine_loop(
        bumps(truth), (-90.0, 90.0), 2, RefineConfig(target_step=0.05))
    assert not shortfall
    assert rounds >= 1
    assert np.all(np.abs(np.sort(est) - np.sort(truth)) <= 0.05 + 1e-9)


def test_refine_estimates_are_exact_grid_points():
    # also exercises the step clamp: 1 -> 0.25 -> 0.0625 -> 0.03 (clamped)
    cfg = RefineConfig(initial_step=1.0, target_step=0.03)
    est, _, _, grid, _ = refine_loop(bumps([7.77]), (-90.0, 90.0), 1, cfg)
    for e in est:
        assert np.min(np.abs(grid - e)) == 0.0


def _stacked(solvers):
    """A refine_lockstep solve_group over per-problem solve functions, which
    logs each call's problems and grid size."""
    calls = []

    def solve_group(idx, grids):
        assert len({g.size for g in grids}) == 1
        calls.append((tuple(idx), grids[0].size))
        return np.array([solvers[i](g) for i, g in zip(idx, grids)])
    return solve_group, calls


def _assert_same_loop(a, b):
    est_a, short_a, rounds_a, grid_a, power_a = a
    est_b, short_b, rounds_b, grid_b, power_b = b
    assert np.array_equal(est_a, est_b)
    assert (short_a, rounds_a) == (short_b, rounds_b)
    assert np.array_equal(grid_a, grid_b)
    assert np.array_equal(power_a, power_b, equal_nan=True)


def moving_bumps(rounds, width):
    """A spectrum that moves between solves, as a solver's does between
    refine grids: solve r has bumps at rounds[r] (the last entry repeats)."""
    solves = []

    def solve(angles):
        centers = rounds[min(len(solves), len(rounds) - 1)]
        solves.append(len(angles))
        return bumps(centers, width)(angles)
    return solve


# per problem: the bump centers of each solve, and a bump width
moving_spectra = st.lists(
    st.tuples(st.lists(st.lists(st.floats(-89.0, 89.0), min_size=1, max_size=4),
                       min_size=1, max_size=4),
              st.floats(0.2, 3.0)),
    min_size=1, max_size=4)


@settings(max_examples=100)
@given(spectra=moving_spectra, k=st.integers(1, 3),
       initial_step=st.sampled_from([0.5, 1.0, 2.0]),
       target_fraction=st.floats(0.01, 0.9))
def test_refine_locality_bound(spectra, k, initial_step, target_fraction):
    # every final estimate lies within NEIGHBORHOOD_HALFWIDTH x initial_step
    # of a round-0 pick, however far the spectrum moves in later rounds; and
    # the lockstep of the problems gives each what refine_loop gives it alone
    sector = (-90.0, 90.0)
    cfg = RefineConfig(initial_step=initial_step,
                       target_step=initial_step * target_fraction)
    coarse = angle_grid(sector, initial_step)
    alone = [refine_loop(moving_bumps(*spec), sector, k, cfg) for spec in spectra]
    for (rounds, width), (est, _, _, _, _) in zip(spectra, alone):
        picks = _pick(bumps(rounds[0], width)(coarse), coarse, k)
        for e in est:
            bound = NEIGHBORHOOD_HALFWIDTH * initial_step
            assert np.min(np.abs(picks - e)) <= bound + 1e-9
    solve_group, _ = _stacked([moving_bumps(*spec) for spec in spectra])
    for one, stacked in zip(alone, refine_lockstep(solve_group, len(spectra), sector,
                                                   k, cfg)):
        _assert_same_loop(one, stacked)


def test_lockstep_groups_by_size_and_drops_finished_problems():
    # a spectrum with no finite value leaves no round-0 pick, so its problem
    # ends after round 0 while the others go on; unequal refined grids are
    # solved as one call per size
    def dead(angles):
        return np.full(np.asarray(angles).size, np.nan)

    solvers = [bumps([-40.3]), dead, bumps([89.4]), bumps([-40.3])]
    cfg = RefineConfig(target_step=0.05)
    solve_group, calls = _stacked(solvers)
    stacked = refine_lockstep(solve_group, len(solvers), (-90.0, 90.0), 1, cfg)
    for solve, res in zip(solvers, stacked):
        _assert_same_loop(refine_loop(solve, (-90.0, 90.0), 1, cfg), res)
    est, shortfall, rounds, _, _ = stacked[1]
    assert est.size == 0 and shortfall and rounds == 0
    # round 0 stacks all four; the window at the sector edge is clipped, so
    # problem 2's refined grids differ in size from those of 0 and 3 until
    # the last round, whose sizes agree again and share one call
    assert calls == [((0, 1, 2, 3), 181), ((0, 3), 193), ((2,), 190),
                     ((0, 3), 197), ((2,), 196), ((0, 2, 3), 186)]


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 16), m=st.integers(3, 12), k=st.integers(1, 2),
       p=st.integers(1, 6), convention=st.sampled_from(["broadside", "endfire"]),
       initial_step=st.sampled_from([0.5, 1.0, 2.0]),
       target_fraction=st.sampled_from([0.05, 0.25, 0.6]))
def test_gnr2_stack_matches_each_problem_alone(seed, m, k, p, convention, initial_step,
                                               target_fraction):
    # the stacked refinements run in lockstep; rounds in which the problems'
    # grids differ in size make one solve per size, and every covariance
    # alone, the stack of one, gets its row's result bit for bit
    geom = uniform_line_array(m, half_wavelength_spacing(3000.0))
    lo, hi = full_sector(convention)
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(p):
        a = steering_matrix(geom, 3000.0, rng.uniform(lo, hi, k), convention)
        z = a @ (rng.standard_normal((k, 40)) + 1j * rng.standard_normal((k, 40)))
        z += 0.5 * (rng.standard_normal((m, 40)) + 1j * rng.standard_normal((m, 40)))
        covs.append(z @ z.conj().T / 40)
    covs = np.array(covs)
    cfg = RefineConfig(initial_step, initial_step * target_fraction)
    stacked = gnr2_estimate(covs, geom, 3000.0, k, convention=convention, refine_cfg=cfg)
    assert len(stacked) == p
    for cov, res in zip(covs, stacked):
        one = gnr2_estimate(cov, geom, 3000.0, k, convention=convention, refine_cfg=cfg)
        assert np.array_equal(one.angles, res.angles)
        assert one.rounds == res.rounds
        assert np.array_equal(one.spectrum.angles, res.spectrum.angles)
        assert np.array_equal(one.spectrum.power, res.spectrum.power)


def test_gnr2_on_a_snapshot_is_gnr2_on_its_outer_product():
    geom = uniform_line_array(12, half_wavelength_spacing(3000.0))
    rng = np.random.default_rng(4)
    a = steering_matrix(geom, 3000.0, np.array([-20.0, 14.5]))
    z = a @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    z += 0.3 * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
    snapshot = gnr2_estimate(z, geom, 3000.0, 2)
    outer = gnr2_estimate(np.outer(z, z.conj()), geom, 3000.0, 2)
    assert np.array_equal(snapshot.angles, outer.angles)
    assert snapshot.rounds == outer.rounds
    assert np.array_equal(snapshot.spectrum.angles, outer.spectrum.angles)
    assert np.array_equal(snapshot.spectrum.power, outer.spectrum.power)


def test_refine_grid_stays_sparse():
    cfg = RefineConfig(initial_step=1.0, target_step=0.05)
    _, _, _, grid, _ = refine_loop(bumps([-12.34, 41.18]), (-90.0, 90.0), 2, cfg)
    full_fine = 181 * 20   # points a fixed 0.05-degree grid would need
    assert grid.size < full_fine / 10
    assert grid.size > 181


def test_refine_idempotent_for_fixed_input():
    cfg = RefineConfig(target_step=0.05)
    a = refine_loop(bumps([3.3, 60.1]), (-90.0, 90.0), 2, cfg)
    b = refine_loop(bumps([3.3, 60.1]), (-90.0, 90.0), 2, cfg)
    assert_allclose(a[0], b[0])
    assert_allclose(a[3], b[3])


def test_refine_shortfall_on_flat_spectrum():
    # a constant spectrum is one big plateau: picked once at its lowest
    # angle, leaving the second requested source unresolved
    est, shortfall, rounds, grid, power = refine_loop(
        lambda angles: np.ones(np.asarray(angles).size), (-90.0, 90.0), 2)
    assert shortfall
    assert est.size == 1
    assert est[0] == -90.0


def test_refine_respects_sector_bounds():
    est, shortfall, _, grid, _ = refine_loop(bumps([89.6]), (-90.0, 90.0), 1)
    assert not shortfall
    assert grid.max() <= 90.0 + 1e-9
    assert est[0] <= 90.0


def test_gnr2_estimate_offgrid_covariance():
    geom = uniform_line_array(12, spacing=0.25)
    truth = np.array([2.36, 27.62])
    a = steering_matrix(geom, 3000.0, truth)
    r = a @ a.conj().T + 0.05 * np.eye(12)
    res = gnr2_estimate(r, geom, 3000.0, 2)
    assert len(res.angles) == 2
    assert res.spectrum.estimator == "qspice-gnr2"
    assert np.all(np.abs(np.sort(res.angles) - truth) < 0.1)


def test_gnr2_estimate_k_validation():
    geom = uniform_line_array(4, spacing=0.25)
    with pytest.raises(ConfigError):
        gnr2_estimate(np.eye(4, dtype=complex), geom, 3000.0, 0)


@pytest.mark.parametrize("name", ["cbf", "qspice", "gnr2"])
def test_narrowband_estimate_rejects_a_steering_of_several_frequencies(name):
    # the stack of two covariances matches the steering's two rows, and no
    # solve runs before the error
    steering = Steering(uniform_line_array(4, spacing=0.25), [2000.0, 3000.0],
                        angle_grid((-60.0, 60.0), 1.0))
    covs = np.stack([np.eye(4, dtype=complex)] * 2)
    with mock.patch.object(estimators, "qspice_solve", side_effect=AssertionError), \
            mock.patch.object(refine, "qspice_solve", side_effect=AssertionError), \
            pytest.raises(ConfigError, match="one frequency, got 2 frequencies"):
        narrowband_estimate(name, covs, steering, (-60.0, 60.0), 1)


@pytest.mark.parametrize("convention, truth", [("broadside", -31.7), ("endfire", 121.3)])
def test_gnr2_default_sector_is_the_conventions_full_sector(convention, truth):
    geom = uniform_line_array(8, half_wavelength_spacing(3000.0))
    a = steering_matrix(geom, 3000.0, np.array([truth]), convention)
    R = a @ a.conj().T + 0.1 * np.eye(8)
    # an endfire truth past 90 deg lies outside the broadside sector
    res = gnr2_estimate(R, geom, 3000.0, 1, convention=convention)
    assert len(res.angles) == 1 and res.angles[0] == pytest.approx(truth, abs=0.1)
