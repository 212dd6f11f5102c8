import math

import numpy as np
import pytest

from dasdoa.cable import FiberSpec, MandrelSpec, cable_sensitivity, \
    mandrel_radial_displacement, phase_change, pressure_sensitivity, \
    propagation_constant, sensitivity_from_phase
from dasdoa.errors import ConfigError, DegenerateInputError

# shipped example material: modulus 1.0 GPa, Poisson 0.4
MANDREL = dict(inner_radius=4e-3, outer_radius=8e-3, poisson_ratio=0.4,
               youngs_modulus=1.0e9)
FIBER = FiberSpec(refractive_index=1.468, wavelength=1550e-9,
                  wound_length=6.3, cable_length=1.0)


def test_equal_pressure_closed_form():
    p = 3.7e3
    spec = MandrelSpec(**MANDREL, p1=p, p2=p)
    dr = mandrel_radial_displacement(spec)
    closed = -(1 - MANDREL["poisson_ratio"]) * p * MANDREL["outer_radius"] \
        / MANDREL["youngs_modulus"]
    assert dr == pytest.approx(closed, rel=1e-12)


def test_zero_pressure_zero_displacement():
    assert mandrel_radial_displacement(MandrelSpec(**MANDREL)) == 0.0


def test_external_pressure_compresses():
    spec = MandrelSpec(**MANDREL, p1=0.0, p2=1.0)
    assert mandrel_radial_displacement(spec) < 0.0


def test_mandrel_validation():
    bad = dict(MANDREL)
    bad["inner_radius"] = 9e-3         # a >= r
    with pytest.raises(ConfigError):
        MandrelSpec(**bad)
    bad = dict(MANDREL, poisson_ratio=0.5)
    with pytest.raises(ConfigError):
        MandrelSpec(**bad)
    bad = dict(MANDREL, youngs_modulus=0.0)
    with pytest.raises(ConfigError):
        MandrelSpec(**bad)


def test_fiber_validation():
    with pytest.raises(ConfigError):
        FiberSpec(0.9, 1550e-9, 6.3, 1.0)
    with pytest.raises(ConfigError):
        FiberSpec(1.468, 0.0, 6.3, 1.0)
    with pytest.raises(ConfigError):
        FiberSpec(1.468, 1550e-9, 0.5, 1.0)   # L < L_c


def test_propagation_constant_and_phase():
    varsigma = propagation_constant(FIBER)
    assert varsigma == pytest.approx(2 * math.pi * 1.468 / 1550e-9)
    dl = 2.5e-9
    assert phase_change(FIBER, dl) == pytest.approx(2 * varsigma * dl)


def test_phase_and_displacement_paths_agree():
    dr_over_r = 3.1e-10
    p = 0.8
    via_ratio = pressure_sensitivity(FIBER, dr_over_r, p)
    via_phase = sensitivity_from_phase(
        FIBER, phase_change(FIBER, dr_over_r * FIBER.wound_length), p)
    assert via_ratio == pytest.approx(via_phase, rel=1e-12)


def test_doubling_wound_length_adds_6db():
    doubled = FiberSpec(1.468, 1550e-9, 12.6, 1.0)
    base = pressure_sensitivity(FIBER, 1e-10, 1.0)
    up = pressure_sensitivity(doubled, 1e-10, 1.0)
    assert up - base == pytest.approx(20 * math.log10(2), rel=1e-12)


def test_sensitivity_monotone_in_wound_length():
    lengths = [2.0, 4.0, 8.0, 16.0]
    values = [pressure_sensitivity(FiberSpec(1.468, 1550e-9, L, 1.0),
                                   1e-10, 1.0) for L in lengths]
    assert np.all(np.diff(values) > 0)


def test_sensitivity_scaling_invariance():
    # scaling the phase and the pressure * span product together is neutral
    base = sensitivity_from_phase(FIBER, 1e-3, 2.0)
    wider = FiberSpec(1.468, 1550e-9, 31.5, 5.0)
    scaled = sensitivity_from_phase(wider, 5e-3, 2.0)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_negative_displacement_uses_magnitude():
    a = pressure_sensitivity(FIBER, 2e-10, 1.0)
    b = pressure_sensitivity(FIBER, -2e-10, 1.0)
    assert a == pytest.approx(b, rel=1e-15)


def test_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        pressure_sensitivity(FIBER, 0.0, 1.0)
    with pytest.raises(DegenerateInputError):
        sensitivity_from_phase(FIBER, 0.0, 1.0)
    with pytest.raises(ConfigError):
        pressure_sensitivity(FIBER, 1e-10, 0.0)


def test_cable_sensitivity_end_to_end_order_of_magnitude():
    # with the shipped defaults the model lands in the same decade as the
    # referenced hardware (~-146 dB re 1 rad/(uPa*m))
    mandrel = MandrelSpec(**MANDREL, p1=0.0, p2=1.0)
    sens = cable_sensitivity(mandrel, FIBER)
    assert -170.0 < sens < -120.0
    with pytest.raises(ConfigError):
        cable_sensitivity(MandrelSpec(**MANDREL, p1=1.0, p2=1.0), FIBER)


def test_the_defaults_are_the_shipped_cable_unloaded():
    assert MandrelSpec() == MandrelSpec(**MANDREL, p1=0.0, p2=0.0)
    assert FiberSpec() == FIBER


@pytest.mark.parametrize("call, message", [
    (lambda: sensitivity_from_phase(FIBER, 1.0, 0.0), "pressure must be positive"),
], ids=["phase-at-zero-pressure"])
def test_each_rejection_states_its_rule(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message
