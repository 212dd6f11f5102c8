"""Line-array geometry and steering dictionaries.

Element positions are expressed as dimensionless offsets alpha_m in units of a
nominal spacing d (meters); the first element is the phase reference at
alpha_0 = 0. A steering vector at frequency f and direction theta has entries

    a_m(theta) = exp(-1j * 2*pi*f * alpha_m * d * sin(theta) / c)   (broadside)

with cos(theta) replacing sin(theta) in the endfire convention. Broadside
angles live in [-90, 90] degrees, endfire angles in [0, 180] degrees; the
convention is fixed per steering.

`Steering` is the one steering type: the geometry, its P frequencies, one
angle grid or P of them and the convention, with the (P, M, G) matrix that
steering_matrix builds from them, row by row, when it is made.

`ArrayGeometry.lags_are_offsets` says whether every element pair's lag is
itself an offset, which is the uniform line array: there a steering
matrix's row l is the phase of lag l.

`positive_finite` states the rule that a rate, frequency, spacing or step
must be positive and finite, `integer` that a count is a whole number, and
`two_numbers` that a band or sector is a pair.
"""
from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError

CONVENTIONS = ("broadside", "endfire")
# the most points an angle grid may have: a step of 1.8e-4 deg over the full
# sector; a 12-element steering matrix on it takes 192 MB
MAX_GRID_POINTS = 10 ** 6
# the most complex values a Steering's matrix may hold, P x M x G: 512 MiB,
# 2.8 times a 12-element matrix on the longest grid; a solve on it holds
# several more arrays of its size
MAX_STEERING_VALUES = 2 ** 25


@dataclass(frozen=True)
class ArrayGeometry:
    """Element offsets (units of d), nominal spacing d (m), sound speed c (m/s)."""

    offsets: np.ndarray
    spacing: float = 1.0
    sound_speed: float = 1500.0

    def __post_init__(self):
        off = np.asarray(self.offsets, dtype=float)
        object.__setattr__(self, "offsets", off)
        if off.ndim != 1 or off.size < 2:
            raise ConfigError("geometry needs a 1-D array of at least 2 offsets")
        if not np.all(np.isfinite(off)):
            raise ConfigError("geometry offsets must be finite")
        if abs(off[0]) > 0:
            raise ConfigError("first element is the reference and must sit at offset 0")
        if np.any(np.diff(off) <= 0):
            raise ConfigError("geometry offsets must be strictly increasing")
        positive_finite(self.spacing, "spacing")
        positive_finite(self.sound_speed, "sound speed")

    @property
    def n_elements(self) -> int:
        return self.offsets.size

    @cached_property
    def lags_are_offsets(self) -> bool:
        """Whether each element pair's lag is itself an offset, exactly:
        alpha_j - alpha_i == alpha_(j-i) for every j >= i, which holds for a
        uniform line array alone. Then conj(a_i) a_j is row j - i of a
        steering matrix, the coarray form of estimators' CBF."""
        i, j = np.triu_indices(self.n_elements)
        return np.array_equal(self.offsets[j] - self.offsets[i], self.offsets[j - i])


def uniform_line_array(n_elements: int, spacing: float = ArrayGeometry.spacing,
                       sound_speed: float = ArrayGeometry.sound_speed) -> ArrayGeometry:
    """ULA with offsets 0, 1, ..., n-1 (units of `spacing`)."""
    integer(n_elements, "element count")
    return ArrayGeometry(np.arange(n_elements, dtype=float), spacing, sound_speed)


def half_wavelength_spacing(frequency: float,
                            sound_speed: float = ArrayGeometry.sound_speed) -> float:
    """d = lambda/2 at the given frequency."""
    positive_finite(frequency, "frequency")
    positive_finite(sound_speed, "sound speed")
    return sound_speed / (2.0 * frequency)


def positive_finite(value, what: str) -> None:
    """A ConfigError naming `what` unless value > 0 and it is finite."""
    if not (value > 0 and np.isfinite(value)):
        raise ConfigError(f"{what} must be a positive finite number, got {value}")


def integer(value, what: str) -> None:
    """A ConfigError naming `what` unless value is an integer (a Python or
    numpy int), not a float or a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{what} must be an integer, got {value!r}")


def two_numbers(pair, what: str) -> tuple[float, float]:
    """`pair` as two floats, such as a (lo, hi) band or sector; a ConfigError
    naming `what` unless it holds exactly two numbers."""
    try:
        first, second = (float(v) for v in pair)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} needs exactly two numbers, got {pair!r}") from None
    return first, second


def full_sector(convention: str = "broadside") -> tuple[float, float]:
    """Every angle a convention covers: the default sector."""
    return (-90.0, 90.0) if convention == "broadside" else (0.0, 180.0)


def sector_or_full(sector, convention: str = "broadside"):
    """The given search sector, or with None the convention's full sector."""
    return full_sector(convention) if sector is None else sector


def axis_cosines(theta_deg, convention: str = "broadside") -> np.ndarray:
    """sin(theta) (broadside) or cos(theta) (endfire) of each angle: the
    cosine of its bearing from the array axis. Checks the convention and its
    angle range."""
    theta = np.atleast_1d(np.asarray(theta_deg, dtype=float))
    if convention not in CONVENTIONS:
        raise ConfigError(f"unknown convention {convention!r}; use one of {CONVENTIONS}")
    lo, hi = full_sector(convention)
    if theta.size and (theta.min() < lo - 1e-9 or theta.max() > hi + 1e-9):
        raise ConfigError(
            f"{convention} angles must lie in [{lo}, {hi}] degrees, "
            f"got range [{theta.min()}, {theta.max()}]")
    rad = np.deg2rad(theta)
    return np.sin(rad) if convention == "broadside" else np.cos(rad)


def steering_matrix(geometry: ArrayGeometry, frequency: float,
                    theta_deg, convention: str = "broadside") -> np.ndarray:
    """(M, G) matrix of steering vectors at `frequency` for the given angles."""
    direction = axis_cosines(theta_deg, convention)
    positive_finite(frequency, "frequency")
    phase = (2.0 * np.pi * frequency * geometry.spacing / geometry.sound_speed
             * np.outer(geometry.offsets, direction))
    return np.exp(-1j * phase)


def angle_grid(sector: tuple[float, float], step: float) -> np.ndarray:
    """Regular grid over [sector[0], sector[1]] inclusive of both ends: the
    points lo + i step, as many as fit within 1e-9 of a step past hi.

    Values are rounded to 1e-9 deg so unions of grids from different rounds
    deduplicate exactly; a finer step, which that rounding would merge, is
    rejected, as is a grid of more than MAX_GRID_POINTS points.
    """
    lo, hi = two_numbers(sector, "sector")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"sector bounds must be finite, got ({lo}, {hi})")
    if not (hi > lo):
        raise ConfigError("sector upper bound must exceed lower bound")
    positive_finite(step, "grid step")
    if step < 1e-9:
        raise ConfigError(f"grid step {step} is below the grid's 1e-9 deg rounding")
    span = (hi - lo) / step + 1e-9      # the grid has int(span) + 1 points
    if not span < MAX_GRID_POINTS:      # inf where hi - lo overflows
        count = int(span) + 1 if np.isfinite(span) else "over 1e308"
        raise ConfigError(f"a grid step of {step} deg makes {count} points over "
                          f"[{lo}, {hi}], more than {MAX_GRID_POINTS}")
    n = int(span) + 1
    # i * step, not np.arange's running sum of (lo + step) - lo, which drifts
    # past hi on a long grid
    return (lo + np.arange(n) * step).round(9)


@dataclass(frozen=True, eq=False)       # equal and hashed by identity: no array compares
class Steering:
    """Steering vectors of `geometry`: matrix[i] (M, G) is steering_matrix
    at frequencies[i] on `angles`, one (G,) grid or row i of a (P, G) stack;
    a frequency or grid given once is shared by every row. The read-only
    matrix is built once, a steering_matrix call per row; steering[rows]
    (an index array or a slice) takes rows of it and builds none. A matrix
    of over MAX_STEERING_VALUES values is rejected before it is allocated."""

    geometry: ArrayGeometry = field(repr=False)
    frequencies: np.ndarray
    angles: np.ndarray
    convention: str = "broadside"
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        freqs = np.array(self.frequencies, dtype=float, ndmin=1)
        grids = np.array(self.angles, dtype=float)
        if freqs.ndim != 1 or grids.ndim not in (1, 2):
            raise ConfigError(f"a steering takes 1 or P frequencies and a (G,) or (P, G) "
                              f"grid, got {np.shape(self.frequencies)} and {grids.shape}")
        P = len(grids) if grids.ndim == 2 else freqs.size
        if freqs.size not in (1, P):
            raise ConfigError(f"{freqs.size} frequencies for {P} grids")
        M, G = self.geometry.n_elements, grids.shape[-1]
        if (size := 16 * P * M * G) > 16 * MAX_STEERING_VALUES:
            raise ConfigError(f"a steering of P={P}, M={M} and G={G} takes {size} bytes "
                              f"({size / 2 ** 30:.1f} GiB), over {MAX_STEERING_VALUES} values")
        freqs = np.full(P, freqs[0]) if freqs.size == 1 else freqs
        A = np.empty((P, M, G), dtype=complex)
        for i, f in enumerate(freqs.tolist()):
            A[i] = steering_matrix(self.geometry, f, grids[i] if grids.ndim == 2 else grids,
                                   self.convention)
        self._set(frequencies=freqs, angles=grids, matrix=A)

    def __getitem__(self, rows) -> Steering:
        picked = copy.copy(self)
        picked._set(frequencies=self.frequencies[rows], matrix=self.matrix[rows],
                    angles=self.angles[rows] if self.angles.ndim == 2 else self.angles)
        return picked

    def _set(self, **arrays):
        for name, value in arrays.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def build_dictionary(geometry: ArrayGeometry, frequency: float,
                     sector: tuple[float, float], step: float,
                     convention: str = "broadside") -> Steering:
    """The Steering of one frequency on angle_grid(sector, step)."""
    return Steering(geometry, frequency, angle_grid(sector, step), convention)


def perturb_geometry(geometry: ArrayGeometry, level: float, rng) -> ArrayGeometry:
    """Add i.i.d. uniform position errors in [-level, +level] (units of d).

    The reference element stays fixed. `level` must be below half the minimum
    inter-element gap, which keeps the perturbed offsets strictly increasing.
    """
    if not (level >= 0 and np.isfinite(level)):
        raise ConfigError(f"perturbation level must be a non-negative finite number, "
                          f"got {level}")
    min_gap = float(np.min(np.diff(geometry.offsets)))
    if level >= 0.5 * min_gap:
        raise ConfigError(
            f"perturbation level {level} must be below half the minimum "
            f"element gap ({0.5 * min_gap:g}) to preserve element ordering")
    rng = np.random.default_rng(rng)
    err = rng.uniform(-level, level, geometry.n_elements)
    err[0] = 0.0
    return ArrayGeometry(geometry.offsets + err, geometry.spacing,
                         geometry.sound_speed)
