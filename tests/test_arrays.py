import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from dasdoa import arrays
from dasdoa.arrays import MAX_GRID_POINTS, MAX_STEERING_VALUES, ArrayGeometry, Steering, \
    angle_grid, build_dictionary, half_wavelength_spacing, perturb_geometry, \
    steering_matrix, uniform_line_array
from dasdoa.errors import ConfigError
from dasdoa.frontend import FrequencyBinSet
from dasdoa.simulate import SnapshotMatrix, SourceSpec, harmonic_lines

C = 1500.0

# every site of the positive-finite rule: what it names, and the calls of it
POSITIVE_FINITE_SITES = {
    "snapshot rate": (lambda v: SourceSpec("tonal", (0.0,), (1.0,), (100.0,), v),),
    "a record's sample rate": (lambda v: SnapshotMatrix(np.zeros((2, 3)), v),),
    "sample rate": (lambda v: FrequencyBinSet(8, np.array([1]), v),),
    "frequency": (lambda v: steering_matrix(uniform_line_array(3), v, [10.0]),
                  half_wavelength_spacing),
    "grid step": (lambda v: angle_grid((0.0, 10.0), v),),
    "spacing": (lambda v: ArrayGeometry(np.arange(3.0), v),),
    "sound speed": (lambda v: ArrayGeometry(np.arange(3.0), 1.0, v),
                    lambda v: half_wavelength_spacing(3000.0, v)),
    "line base frequency": (lambda v: harmonic_lines(v, (100.0, 1000.0)),),
}


@pytest.mark.parametrize("what", POSITIVE_FINITE_SITES)
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_every_site_of_the_positive_finite_rule_states_it_alike(what, value):
    for site in POSITIVE_FINITE_SITES[what]:
        with pytest.raises(ConfigError) as err:
            site(value)
        assert str(err.value) == f"{what} must be a positive finite number, got {value}"
        site(2.0)


def test_uniform_line_array_offsets():
    geom = uniform_line_array(5, spacing=0.25)
    assert_allclose(geom.offsets, [0, 1, 2, 3, 4])
    assert geom.spacing == 0.25
    assert geom.n_elements == 5


def test_uniform_line_array_needs_two_elements():
    with pytest.raises(ConfigError):
        uniform_line_array(1)


def test_half_wavelength_spacing():
    assert half_wavelength_spacing(3000.0) == pytest.approx(0.25)
    with pytest.raises(ConfigError):
        half_wavelength_spacing(0.0)


def test_geometry_invariants():
    with pytest.raises(ConfigError):
        ArrayGeometry(np.array([1.0, 2.0]), 1.0, C)       # first offset not 0
    with pytest.raises(ConfigError):
        ArrayGeometry(np.array([0.0, 2.0, 1.0]), 1.0, C)  # not increasing
    with pytest.raises(ConfigError):
        ArrayGeometry(np.array([0.0, 1.0]), -1.0, C)      # bad spacing


def test_steering_unit_modulus_and_broadside_reference():
    geom = uniform_line_array(6, spacing=0.25)
    A = steering_matrix(geom, 3000.0, np.array([-40.0, 0.0, 55.0]))
    assert A.shape == (6, 3)
    assert_allclose(np.abs(A), 1.0, atol=1e-14)
    # theta = 0 has zero inter-element delay
    assert_allclose(A[:, 1], 1.0, atol=1e-14)


def test_steering_known_phase():
    geom = uniform_line_array(2, spacing=0.25)
    theta = 30.0
    A = steering_matrix(geom, 3000.0, np.array([theta]))
    expected = np.exp(-2j * np.pi * 3000.0 * 0.25 * np.sin(np.deg2rad(theta)) / C)
    assert_allclose(A[1, 0], expected, atol=1e-14)


def test_steering_endfire_uses_cosine():
    geom = uniform_line_array(3, spacing=0.25)
    A = steering_matrix(geom, 3000.0, np.array([90.0]), convention="endfire")
    assert_allclose(A[:, 0], 1.0, atol=1e-12)   # cos(90) = 0


def test_steering_rejects_out_of_sector_angles():
    geom = uniform_line_array(3, spacing=0.25)
    with pytest.raises(ConfigError):
        steering_matrix(geom, 3000.0, np.array([95.0]))
    with pytest.raises(ConfigError):
        steering_matrix(geom, 3000.0, np.array([-5.0]), convention="endfire")


@pytest.mark.parametrize("frequency", [0.0, -3000.0, np.nan, np.inf])
def test_steering_rejects_a_frequency_that_is_not_positive_finite(frequency):
    geom = uniform_line_array(3, spacing=0.25)
    with pytest.raises(ConfigError, match="frequency must be a positive finite number"):
        steering_matrix(geom, frequency, np.array([10.0]))
    with pytest.raises(ConfigError, match="frequency must be a positive finite number"):
        Steering(geom, [3000.0, frequency], np.array([10.0]))


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 16), p=st.integers(1, 4), g=st.integers(0, 12),
       per_row_frequency=st.booleans(), per_row_grid=st.booleans(),
       convention=st.sampled_from(["broadside", "endfire"]))
def test_each_steering_stack_row_is_its_steering_matrix(seed, p, g, per_row_frequency,
                                                        per_row_grid, convention):
    # a Steering's matrix row i is steering_matrix at its frequency on its
    # grid, per problem or shared; it is read-only, and selecting rows, by
    # an index array or a slice, builds none
    rng = np.random.default_rng(seed)
    geom = ArrayGeometry(np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 4))]),
                         rng.uniform(0.1, 2.0))
    lo, hi = (-90.0, 90.0) if convention == "broadside" else (0.0, 180.0)
    freqs = rng.uniform(10.0, 4000.0, p) if per_row_frequency else rng.uniform(10.0, 4000.0)
    grids = rng.uniform(lo, hi, (p, g) if per_row_grid else g)
    steering = Steering(geom, freqs, grids, convention)
    A = steering.matrix
    rows = p if per_row_frequency or per_row_grid else 1
    assert A.shape == (rows, 5, g) and A.flags.c_contiguous
    assert steering.frequencies.shape == (rows,) and steering.geometry is geom
    for i in range(rows):
        f = freqs[i] if per_row_frequency else freqs
        grid = grids[i] if per_row_grid else grids
        assert A[i].tobytes() == steering_matrix(geom, f, grid, convention).tobytes()
        assert steering.frequencies[i] == f
        assert steering.angles[i if per_row_grid else ...].tobytes() == grid.tobytes()
    for array in (A, steering.frequencies, steering.angles):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrays, "steering_matrix", lambda *args: built.append(args))
        for pick in (rng.permutation(rows)[: rows // 2 + 1], slice(rows - 1, None),
                     slice(None)):
            kept = steering[pick]
            assert kept.matrix.tobytes() == A[pick].tobytes()
            assert not kept.matrix.flags.writeable
            assert kept.frequencies.tolist() == steering.frequencies[pick].tolist()
            want = steering.angles[pick] if per_row_grid else steering.angles
            assert kept.angles.tobytes() == want.tobytes()
            assert (kept.geometry, kept.convention) == (geom, convention)
    assert not built


def test_steering_stack_rejects_mismatched_rows():
    geom = uniform_line_array(3, spacing=0.25)
    with pytest.raises(ConfigError, match="2 frequencies for 3 grids"):
        Steering(geom, [1000.0, 2000.0], np.zeros((3, 4)))
    with pytest.raises(ConfigError, match="a steering takes"):
        Steering(geom, np.ones((2, 2)), np.zeros(4))


def test_a_steering_over_its_cap_is_rejected_before_it_is_allocated(monkeypatch):
    # 101 bins of a 12-element array on a 900,001-point grid take 16.3 GiB:
    # the check comes before the matrix and any of its rows, so the grid's
    # copy is all that is allocated
    grid = angle_grid((-90.0, 90.0), 2e-4)
    monkeypatch.setattr(arrays, "steering_matrix", None)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as err:
            Steering(uniform_line_array(12), np.linspace(50.0, 1050.0, 101), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("a steering of P=101, M=12 and G=900001 takes 17452819392 "
                              f"bytes (16.3 GiB), over {MAX_STEERING_VALUES} values")
    assert peak < 2 * grid.nbytes
    # the largest matrix of a capture command, one frequency on that grid,
    # fits
    assert 12 * grid.size <= MAX_STEERING_VALUES


def test_angle_grid_endpoints_and_step():
    grid = angle_grid((-90.0, 90.0), 1.0)
    assert grid.size == 181
    assert grid[0] == -90.0 and grid[-1] == 90.0
    fine = angle_grid((0.0, 1.0), 0.05)
    assert fine.size == 21
    assert_allclose(np.diff(fine), 0.05)


def test_a_long_grid_ends_on_its_sector():
    # np.arange's running sum put the last point of these past 90 deg
    for step, n in ((1e-3, 180001), (5e-4, 360001), (2e-4, 900001)):
        grid = angle_grid((-90.0, 90.0), step)
        assert (grid.size, grid[0], grid[-1]) == (n, -90.0, 90.0)
    assert build_dictionary(uniform_line_array(3), 1000.0, (-90.0, 90.0),
                            1e-3).angles[-1] == 90.0
    # and left the last point of this one short of 90 deg
    assert angle_grid((-90.0, 90.0), 3e-4)[-1] == 90.0
    # the longest grid allowed
    assert angle_grid((-90.0, 89.99982), 1.8e-4).size == MAX_GRID_POINTS
    assert angle_grid((-90.0, 90.0), 0.1).size == 1801


def test_angle_grid_validation():
    with pytest.raises(ConfigError):
        angle_grid((30.0, 10.0), 1.0)
    with pytest.raises(ConfigError):
        angle_grid((0.0, 10.0), 0.0)
    for sector in ((5.0,), (0.0, 10.0, 20.0), ("a", "b"), 5.0):
        with pytest.raises(ConfigError, match="two numbers"):
            angle_grid(sector, 1.0)
    for step in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="positive finite"):
            angle_grid((0.0, 10.0), step)
    # a step the grid's 1e-9 deg rounding would merge
    for step in (1e-10, 1e-300):
        with pytest.raises(ConfigError) as err:
            angle_grid((0.0, 10.0), step)
        assert str(err.value) == f"grid step {step} is below the grid's 1e-9 deg rounding"
    assert angle_grid((0.0, 1e-6), 1e-9).size == 1001
    for sector in ((np.nan, 10.0), (0.0, np.inf), (-np.inf, 0.0)):
        with pytest.raises(ConfigError, match="finite"):
            angle_grid(sector, 1.0)


def test_build_dictionary_fields():
    geom = uniform_line_array(4, spacing=0.25)
    dic = build_dictionary(geom, 3000.0, (-10.0, 10.0), 0.5)
    assert dic.frequencies.tolist() == [3000.0] and dic.convention == "broadside"
    assert dic.matrix.shape == (1, 4, dic.angles.size)
    assert dic.angles[0] == -10.0 and dic.angles[-1] == 10.0
    A = steering_matrix(geom, 3000.0, dic.angles)
    assert_allclose(dic.matrix[0], A)


def test_perturb_geometry_properties():
    geom = uniform_line_array(8, spacing=0.25)
    out = perturb_geometry(geom, 0.1, np.random.default_rng(3))
    assert out.offsets[0] == 0.0
    assert np.all(np.abs(out.offsets - geom.offsets) <= 0.1 + 1e-12)
    # deterministic under the same seed
    again = perturb_geometry(geom, 0.1, np.random.default_rng(3))
    assert_allclose(out.offsets, again.offsets)


def test_perturb_geometry_rejects_order_breaking_level():
    geom = uniform_line_array(4, spacing=0.25)
    with pytest.raises(ConfigError):
        perturb_geometry(geom, 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda: ArrayGeometry(np.array([0.0, np.inf])), "geometry offsets must be finite"),
    (lambda: perturb_geometry(uniform_line_array(4), -0.1, 0),
     "perturbation level must be a non-negative finite number, got -0.1"),
    (lambda: perturb_geometry(uniform_line_array(4), np.nan, 0),
     "perturbation level must be a non-negative finite number, got nan"),
    (lambda: perturb_geometry(uniform_line_array(4), np.inf, 0),
     "perturbation level must be a non-negative finite number, got inf"),
    (lambda: Steering(uniform_line_array(5), [1000.0, 2000.0], np.zeros((3, 41))),
     "2 frequencies for 3 grids"),
    (lambda: Steering(uniform_line_array(4), 1000.0, np.zeros((2, 2, 5))),
     "a steering takes 1 or P frequencies and a (G,) or (P, G) grid, got () and "
     "(2, 2, 5)"),
    (lambda: Steering(uniform_line_array(4), 1000.0, np.linspace(0.0, 90.0, 10),
                      "sideways"),
     "unknown convention 'sideways'; use one of ('broadside', 'endfire')"),
    (lambda: uniform_line_array(2.5, 1.0), "element count must be an integer, got 2.5"),
    (lambda: angle_grid((-90.0, 90.0), 1.8e-4),
     "a grid step of 0.00018 deg makes 1000001 points over [-90.0, 90.0], more than "
     "1000000"),
    (lambda: angle_grid((-90.0, 90.0), 1e-9),
     "a grid step of 1e-09 deg makes 180000000001 points over [-90.0, 90.0], more "
     "than 1000000"),
    (lambda: angle_grid((-1e308, 1e308), 1.0),
     "a grid step of 1.0 deg makes over 1e308 points over [-1e+308, 1e+308], "
     "more than 1000000"),
], ids=["offsets-not-finite", "negative-perturbation", "nan-perturbation",
        "inf-perturbation", "dictionary-matrix-shape",
        "dictionary-angles-not-1d", "dictionary-convention", "elements-float",
        "grid-too-long", "grid-step-1e-9", "grid-span-overflows"])
def test_each_rejection_states_its_rule(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message


def test_array_defaults_are_the_geometrys():
    geometry = uniform_line_array(3)
    assert (geometry.spacing, geometry.sound_speed) == (ArrayGeometry.spacing,
                                                        ArrayGeometry.sound_speed)
    assert half_wavelength_spacing(750.0) == ArrayGeometry.sound_speed / 1500.0


@pytest.mark.parametrize("offsets, uniform", [
    (np.arange(12.0), True), (np.arange(2.0), True), (0.5 * np.arange(7.0), True),
    ([0, 1.9, 3.5, 5.3, 7.85, 10, 11.8, 14.1, 16, 17.7, 20, 22.0], False),
    ([0.0, 1.0, 3.0], False),
    # 0.3 - 0.1 != 0.2 in floating point: the lags must be the offsets exactly
    ([0.0, 0.1, 0.2, 0.3], False),
], ids=["ula-12", "ula-2", "ula-half", "c06-pair", "gap", "inexact"])
def test_lags_are_offsets_on_a_uniform_array_alone(offsets, uniform):
    assert ArrayGeometry(np.asarray(offsets, dtype=float)).lags_are_offsets is uniform
