"""Pressure sensitivity of a spiral-wound fiber sensing cable.

A fiber of length L is wound around an elastic mandrel over a cable span
L_c. External sound pressure squeezes the mandrel (thick-walled-cylinder
elasticity), the circumference change strains the fiber, and the strained
fiber shifts the round-trip optical phase. The sensitivity is reported in
dB re 1 rad/(uPa*m).

Units are SI throughout; pressures in Pa are converted to uPa only inside
the logarithm, matching the reference unit. The MandrelSpec and FiberSpec
defaults are the shipped cable, unloaded (p1 = p2 = 0, no acoustic drive).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DegenerateInputError

PA_TO_UPA = 1e6


@dataclass(frozen=True)
class MandrelSpec:
    """Hollow elastic cylinder: geometry, material, and load state.

    poisson_ratio and youngs_modulus are the mandrel material constants;
    p1/p2 are internal/external pressures in Pa.
    """

    inner_radius: float = 4e-3
    outer_radius: float = 8e-3
    poisson_ratio: float = 0.4
    youngs_modulus: float = 1e9
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        if not 0 < self.inner_radius < self.outer_radius:
            raise ConfigError("require 0 < inner_radius < outer_radius, got "
                              f"a={self.inner_radius}, r={self.outer_radius}")
        if not self.youngs_modulus > 0:
            raise ConfigError("Young's modulus must be positive")
        if not 0 <= self.poisson_ratio < 0.5:
            raise ConfigError("Poisson's ratio must lie in [0, 0.5)")


@dataclass(frozen=True)
class FiberSpec:
    """Optical parameters of the wound fiber."""

    refractive_index: float = 1.468
    wavelength: float = 1550e-9     # light wavelength in m (not acoustic)
    wound_length: float = 6.3       # fiber length L in m
    cable_length: float = 1.0       # cable span L_c in m

    def __post_init__(self):
        if not self.refractive_index > 1:
            raise ConfigError("refractive index must exceed 1")
        if not self.wavelength > 0:
            raise ConfigError("wavelength must be positive")
        if not 0 < self.cable_length <= self.wound_length:
            raise ConfigError("require wound_length >= cable_length > 0")


def mandrel_radial_displacement(spec: MandrelSpec) -> float:
    """Radial displacement dr of the outer surface under p1/p2 (m).

    Lame solution for a thick-walled cylinder evaluated at the outer
    radius. Negative means inward (compression), e.g. for pure external
    pressure.
    """
    a, r = spec.inner_radius, spec.outer_radius
    nu, e_mod = spec.poisson_ratio, spec.youngs_modulus
    p1, p2 = spec.p1, spec.p2
    denom = r * r - a * a
    term1 = (1 - nu) / e_mod * (a * a * p1 - r * r * p2) / denom * r
    term2 = (1 + nu) / e_mod * (a * a * r * r * (p1 - p2)) / denom / r
    return term1 + term2


def propagation_constant(fiber: FiberSpec) -> float:
    """2*pi*n / lambda_L (rad/m)."""
    return 2 * math.pi * fiber.refractive_index / fiber.wavelength


def phase_change(fiber: FiberSpec, delta_l: float) -> float:
    """Round-trip optical phase shift for a fiber length change (rad).

    The factor 2 accounts for the light traversing the strained section
    twice (out and back).
    """
    return 2 * propagation_constant(fiber) * delta_l


def sensitivity_from_phase(fiber: FiberSpec, delta_phi: float,
                           pressure: float) -> float:
    """dB re 1 rad/(uPa*m) from a demodulated phase shift.

    Magnitude convention: a compression (negative phase shift) has the
    same sensitivity as the equal-amplitude expansion, so the log takes
    |delta_phi|. Zero phase shift has no defined level.
    """
    if not pressure > 0:
        raise ConfigError("pressure must be positive")
    if delta_phi == 0:
        raise DegenerateInputError("zero phase shift: sensitivity undefined")
    return 20 * math.log10(abs(delta_phi)
                           / (pressure * PA_TO_UPA * fiber.cable_length))


def pressure_sensitivity(fiber: FiberSpec, delta_r_over_r: float,
                         pressure: float) -> float:
    """dB re 1 rad/(uPa*m) from the fractional mandrel displacement: the
    phase path sensitivity_from_phase(phase_change(fiber, dL)) with the
    fiber's length change dL = (dr/r) * L.
    """
    if not pressure > 0:
        raise ConfigError("pressure must be positive")
    if delta_r_over_r == 0:
        raise DegenerateInputError("dr/r = 0: sensitivity undefined")
    return sensitivity_from_phase(
        fiber, phase_change(fiber, delta_r_over_r * fiber.wound_length), pressure)


def cable_sensitivity(mandrel: MandrelSpec, fiber: FiberSpec) -> float:
    """End-to-end M_S for a mandrel load state, in dB re 1 rad/(uPa*m).

    Uses the pressure difference magnitude |p2 - p1| as the acoustic
    drive; equal pressures leave no drive and raise ConfigError.
    """
    drive = abs(mandrel.p2 - mandrel.p1)
    if drive == 0:
        # p1 == p2 still displaces the surface (hydrostatic squeeze) but
        # there is no acoustic pressure to normalize by.
        raise ConfigError("p1 == p2: no acoustic drive pressure")
    dr = mandrel_radial_displacement(mandrel)
    return pressure_sensitivity(fiber, dr / mandrel.outer_radius, drive)
