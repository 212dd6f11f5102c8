"""Spatial-spectrum estimators: CBF, MUSIC, and the sparse covariance-fitting
family (SPICE and its generalization with separate signal/noise norm orders).

The covariance-fitting estimator minimizes, over p >= 0 (length G) and
sigma >= 0 (length M),

    f(p, sigma) = tr(R(p, sigma)^-1 R_hat) + ||W_Z p||_r + ||W_sigma sigma||_q
    R(p, sigma) = A diag(p) A^H + diag(sigma)

where R_hat is the sample covariance (a single snapshot z enters as the
rank-one R_hat = z z^H, for which tr(R^-1 zz^H) = z^H R^-1 z). Weights follow
the SPICE convention w_g = ||a_g||^2 / tr(R_hat), w_m = 1 / tr(R_hat); the
multi-frame substitution of tr(R_hat) for z^H z is an adopted convention
(the source formulation leaves the weights open).

The solver is majorization-minimization. With c_k = p_k b_k^H R^-1 z (so that
z^H R^-1 z = sum |c_k|^2 / p_k), each iteration minimizes the separable
surrogate sum_k a_k / x_k + ||W x||_t per block, whose minimizer has the
closed form

    x_k = (a_k / (T w_k^t))^(1/(t+1)),  T = C^((1-t)(t+1)/(2t)),
    C = sum_j (w_j a_j)^(t/(t+1))

with a_k = |c_k|^2 (covariance form: a_k = p_k^2 b_k^H R^-1 R_hat R^-1 b_k);
t = 1 collapses to x_k = sqrt(a_k / w_k), the classical SPICE update. A test
checks that the surrogate's gradient vanishes at the closed form.
Setting r = q = 1 recovers SPICE exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import LinAlgError, eigh, get_lapack_funcs

from .arrays import Dictionary
from .errors import ConfigError, DegenerateInputError

DB_FLOOR = 1e-300
# every estimator the toolkit runs; all but gnr2 (grid refinement, see
# refine.narrowband_estimate) give a spectrum on a fixed grid
ESTIMATORS = ("cbf", "music", "spice", "qspice", "gnr2")


@dataclass(frozen=True)
class SolverConfig:
    """r: signal-penalty norm order (>= 1); q: noise-penalty norm order in
    [1, 2]; power_floor None means 1e-12 x initial total power."""

    r: float = 1.0
    q: float = 2.0
    max_iter: int = 500
    rel_tol: float = 1e-6
    power_floor: float | None = None

    def __post_init__(self):
        if not self.r >= 1:
            raise ConfigError("signal norm order r must be >= 1 (convexity)")
        if not 1 <= self.q <= 2:
            raise ConfigError("noise norm order q must lie in [1, 2]")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not self.rel_tol > 0:
            raise ConfigError("rel_tol must be positive")
        if self.power_floor is not None and self.power_floor < 0:
            raise ConfigError("power_floor must be non-negative")


@dataclass(frozen=True)
class PowerVector:
    signal: np.ndarray   # length G, >= 0
    noise: np.ndarray    # length M, >= 0


@dataclass(frozen=True)
class SpatialSpectrum:
    """Angle grid + linear power with a dB view; tagged by estimator/frequency."""

    angles: np.ndarray
    power: np.ndarray
    estimator: str = ""
    frequency: float = 0.0
    floor: float = DB_FLOOR

    def __post_init__(self):
        if self.angles.shape != self.power.shape:
            raise ConfigError("angle grid and power must have matching shapes")
        if not np.all(np.isfinite(self.power)):
            raise ConfigError("spectrum power must be finite")

    @property
    def power_db(self) -> np.ndarray:
        return 10 * np.log10(np.maximum(self.power, self.floor))


@dataclass(frozen=True)
class SolverResult:
    powers: PowerVector
    trace: np.ndarray          # objective value per iteration, non-increasing
    n_iter: int
    converged: bool
    spectrum: SpatialSpectrum | None = None


def _as_matrix(dictionary) -> tuple[np.ndarray, np.ndarray, float]:
    """(A, angles, frequency); a bare matrix's angles are its column indices."""
    if isinstance(dictionary, Dictionary):
        return dictionary.matrix, dictionary.angles, dictionary.frequency
    A = np.asarray(dictionary)
    if A.ndim != 2:
        raise ConfigError("dictionary must be an M x G matrix")
    return A, np.arange(A.shape[1], dtype=float), 0.0


def _as_covariance(data, m: int) -> np.ndarray:
    data = np.asarray(data, dtype=complex)
    if not np.all(np.isfinite(data)):
        raise ConfigError("input data must be finite")
    if data.ndim == 1:
        if data.size != m:
            raise ConfigError(f"snapshot length {data.size} != array size {m}")
        if not np.any(data):
            raise DegenerateInputError("all-zero snapshot")
        return np.outer(data, data.conj())
    if data.shape != (m, m):
        raise ConfigError(f"covariance shape {data.shape} != ({m}, {m})")
    R_hat = 0.5 * (data + data.conj().T)
    if np.trace(R_hat).real <= 0:
        raise DegenerateInputError("covariance estimate has non-positive trace")
    return R_hat


def spice_weights(dictionary, data) -> tuple[np.ndarray, np.ndarray]:
    """(signal weights w_g = ||a_g||^2/E, noise weights w_m = 1/E) with
    E = z^H z for a snapshot or tr(R_hat) for a covariance."""
    _, _, _, w_p, w_s, _ = _model(data, dictionary)
    return w_p, w_s


def _cbf_power(A, R_hat) -> np.ndarray:
    """Delay-and-sum power a_g^H R_hat a_g / M^2, clipped at zero."""
    return np.maximum((A.conj() * (R_hat @ A)).sum(axis=0).real / A.shape[0] ** 2, 0.0)


def _model(data, dictionary, config: SolverConfig | None = None):
    """The model R(p, s) = A diag(p) A^H + diag(s) on parsed data and
    dictionary: (A, R_hat, tr(R_hat), w_p, w_s, evaluate). evaluate(p, s) is
    (f(p, s) at config's norm orders, a_g^H Q a_g per atom, diag(Q)) with
    Q = R^-1 R_hat R^-1; LinAlgError if R is not positive definite. At M = 12
    an evaluation costs dispatch more than flops, so conj(A), A^H, the
    identity, an A diag(p) A^H buffer with a diagonal view and LAPACK
    potrf/potrs are set up once; those are called, and their errors raised,
    as scipy.linalg's Cholesky wrappers do, minus the wrappers' checks."""
    cfg = config or SolverConfig()
    r, q = float(cfg.r), float(cfg.q)
    A, _, _ = _as_matrix(dictionary)
    M = A.shape[0]
    R_hat = _as_covariance(data, M)
    tr = np.trace(R_hat).real
    w_p = np.sum(np.abs(A) ** 2, axis=0) / tr
    w_s = np.full(M, 1.0 / tr)

    Ac = A.conj()
    AH = Ac.T
    dtype = np.result_type(A.dtype, np.float64)
    I = np.eye(M, dtype=dtype)
    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), dtype=dtype)
    AAH = np.empty((M, M), dtype=dtype)
    diag = AAH.ravel()[:: M + 1]

    def evaluate(p, s):
        np.matmul(A * p, AH, out=AAH)
        np.add(diag, s, out=diag)
        R = 0.5 * (AAH + AAH.conj().T)
        c, info = potrf(R, lower=True, clean=False)
        if info == 0:
            Ri, info = potrs(c, I, lower=True)    # reports only info <= 0
        if info > 0:
            raise LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
        if info:
            raise ValueError(f"LAPACK reported an illegal value in the {-info}-th "
                             f"argument of potrf/potrs")
        T1 = Ri @ R_hat
        Q = T1 @ Ri                       # R^-1 R_hat R^-1, Hermitian
        quad = T1.diagonal().sum().real   # tr(T1), as np.trace sums it
        obj = quad + _norm(w_p * p, r) + _norm(w_s * s, q)
        return obj, (Ac * (Q @ A)).sum(axis=0).real, Q.diagonal().real

    return A, R_hat, tr, w_p, w_s, evaluate


def _block_minimize(a, w, t):
    """argmin over x >= 0 of sum_k a_k/x_k + (sum_k (w_k x_k)^t)^(1/t)."""
    if a.min(initial=np.inf) > 0:
        # every entry live (a NaN fails the test): skip the masked
        # gather/scatter, which gives the same values
        return _closed_form(a, w, t)
    live = a > 0
    x = np.zeros_like(a)
    if live.any():
        x[live] = _closed_form(a[live], w[live], t)
    return x


def _norm(x, t):
    """||x||_t for x >= 0; at t = 1 the powers are skipped (x ** 1.0 == x)."""
    return x.sum() if t == 1.0 else (x ** t).sum() ** (1 / t)


def _norm_gradient(x, w, t):
    """Gradient of ||w x||_t over x >= 0."""
    if t == 1.0:
        return w
    return np.sum((w * x) ** t) ** (1 / t - 1) * w ** t * np.maximum(x, 1e-300) ** (t - 1)


def _closed_form(a, w, t):
    """The block minimizer over entries with a_k > 0 (see module docstring)."""
    if t == 1.0:
        return np.sqrt(a / w)
    C = ((w * a) ** (t / (t + 1.0))).sum()
    T = C ** ((1.0 - t) * (t + 1.0) / (2.0 * t))
    return (a / (T * w ** t)) ** (1.0 / (t + 1.0))


def qspice_solve(data, dictionary, config: SolverConfig | None = None,
                 init=None) -> SolverResult:
    """Run the covariance-fitting solver.

    data: complex snapshot (M,) or sample covariance (M, M)
    dictionary: Dictionary or bare steering matrix (M, G)
    init: optional (p0, s0) warm start (e.g. the previous solution on a
    refined grid); by default the solver starts from the CBF spectrum.
    Returns SolverResult; `powers.signal` over the dictionary grid is the
    spatial estimate, `trace` the per-iteration objective (non-increasing).
    """
    cfg = config or SolverConfig()
    A, R_hat, tr, w_p, w_s, evaluate = _model(data, dictionary, cfg)
    M, G = A.shape
    if init is None:
        # CBF initialization; strictly positive noise start keeps R invertible
        p = _cbf_power(A, R_hat)
        s = np.full(M, tr / (2 * M))
    else:
        p = np.asarray(init[0], dtype=float).copy()
        s = np.asarray(init[1], dtype=float).copy()
        if p.shape != (G,) or s.shape != (M,):
            raise ConfigError(f"warm start needs p of length {G} and sigma of "
                              f"length {M}")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(s))):
            raise ConfigError("warm start must be finite")
        if np.any(p < 0) or np.any(s < 0) or p.sum() + s.sum() <= 0:
            raise ConfigError("warm start must be non-negative with positive total")
    floor = cfg.power_floor if cfg.power_floor is not None else 1e-12 * (p.sum() + s.sum())
    s = np.maximum(s, floor)

    trace = []
    converged = False
    r, q = float(cfg.r), float(cfg.q)
    for it in range(cfg.max_iter):
        obj, t_sig, t_noi = evaluate(p, s)
        trace.append(obj)
        if it > 0 and abs(trace[-2] - obj) <= cfg.rel_tol * abs(trace[-2]):
            converged = True
            break
        p = _block_minimize(p * p * np.maximum(t_sig, 0.0), w_p, r)
        s = np.maximum(_block_minimize(s * s * np.maximum(t_noi, 0.0), w_s, q), floor)

    spectrum = None
    if isinstance(dictionary, Dictionary):
        spectrum = SpatialSpectrum(dictionary.angles, p, "qspice", dictionary.frequency,
                                   max(floor, DB_FLOOR))
    return SolverResult(PowerVector(p, s), np.asarray(trace), len(trace), converged,
                        spectrum)


def spice_solve(data, dictionary, max_iter: int = 500, rel_tol: float = 1e-6) -> SolverResult:
    """Classical SPICE: the r = q = 1 special case."""
    return qspice_solve(data, dictionary,
                        SolverConfig(r=1.0, q=1.0, max_iter=max_iter, rel_tol=rel_tol))


def _evaluate_at(p, s, data, dictionary, config):
    """(objective, a_g^H Q a_g, diag Q, w_p, w_s) at a finite (p, s)."""
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(s))):
        raise ConfigError("p and sigma must be finite")
    *_, w_p, w_s, evaluate = _model(data, dictionary, config)
    return (*evaluate(p, s), w_p, w_s)


def objective_value(p, s, data, dictionary, config: SolverConfig | None = None) -> float:
    """Exact objective at (p, s), evaluated as the solver evaluates it."""
    return _evaluate_at(p, s, data, dictionary, config)[0]


def kkt_residual(p, s, data, dictionary, config: SolverConfig | None = None) -> float:
    """Norm of the objective gradient projected onto the nonnegative orthant,
    scaled by the objective value. Small at a true minimizer."""
    cfg = config or SolverConfig()
    obj, t_sig, t_noi, w_p, w_s = _evaluate_at(p, s, data, dictionary, cfg)
    g = np.concatenate([_norm_gradient(p, w_p, float(cfg.r)) - t_sig,
                        _norm_gradient(s, w_s, float(cfg.q)) - t_noi])
    x = np.concatenate([p, s])
    proj = np.where(x > 1e-9 * x.max(), g, np.minimum(g, 0.0))
    return float(np.linalg.norm(proj) / max(abs(obj), 1e-300))


def cbf_spectrum(R_hat, dictionary) -> SpatialSpectrum:
    """Delay-and-sum power P(theta_g) = a_g^H R_hat a_g / M^2."""
    A, angles, freq = _as_matrix(dictionary)
    power = _cbf_power(A, _as_covariance(R_hat, A.shape[0]))
    return SpatialSpectrum(angles, power, "cbf", freq)


def music_spectrum(R_hat, dictionary, k: int) -> SpatialSpectrum:
    """1 / (a^H E_n E_n^H a) with E_n spanning the M-k smallest eigenvectors."""
    A, angles, freq = _as_matrix(dictionary)
    M = A.shape[0]
    if not 1 <= k < M:
        raise ConfigError(f"source count k must satisfy 1 <= k < M={M}")
    R_hat = _as_covariance(R_hat, M)
    _, V = eigh(R_hat)                 # ascending eigenvalues
    En = V[:, : M - k]
    proj = np.sum(np.abs(En.conj().T @ A) ** 2, axis=0)
    power = 1.0 / np.maximum(proj, DB_FLOOR)
    return SpatialSpectrum(angles, power, "music", freq)


def _pick(power, angles, k, guard=0.0):
    """K largest local maxima with pairwise separation >= guard.

    Plateaus count once at their lowest angle (strictly-greater test on the
    left, greater-or-equal on the right); ties in height resolve toward the
    lower angle. Returns (sorted angles, shortfall flag).
    """
    n = len(power)
    idx = []
    for i in range(n):
        l_ok = i == 0 or power[i] > power[i - 1]
        r_ok = i == n - 1 or power[i] >= power[i + 1]
        if l_ok and r_ok and np.isfinite(power[i]):
            idx.append(i)
    idx.sort(key=lambda i: (-power[i], angles[i]))
    chosen = []
    for i in idx:
        if all(abs(angles[i] - angles[j]) >= guard for j in chosen):
            chosen.append(i)
        if len(chosen) == k:
            break
    picked = np.sort(np.asarray(angles, dtype=float)[chosen])
    return picked, len(picked) < k


def peak_pick(spectrum: SpatialSpectrum, k: int, guard_deg: float = 0.0):
    """(angles, shortfall) of the K strongest spectral peaks."""
    if k < 1:
        raise ConfigError("peak count must be >= 1")
    if guard_deg < 0:
        raise ConfigError("guard must be non-negative")
    return _pick(spectrum.power, spectrum.angles, k, guard_deg)


# -----------------------------
# Estimator registry
# -----------------------------
def check_estimator(name: str, k: int | None) -> None:
    """Reject an unknown estimator name, a source count k below 1, or a
    missing k for the estimators that need one (MUSIC and GNR²)."""
    if name not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {name!r}; use one of {ESTIMATORS}")
    if k is not None and k < 1:
        raise ConfigError(f"source count k must be >= 1, got {k}")
    if name in ("music", "gnr2") and k is None:
        raise ConfigError(f"{name} needs the source count k")


def fixed_grid_spectrum(name: str, R_hat, dictionary: Dictionary, k: int | None = None,
                        solver_cfg: SolverConfig | None = None) -> SpatialSpectrum:
    """Spectrum of a fixed-grid estimator on `dictionary`, tagged `name`.

    SPICE is the solver at r = q = 1 with solver_cfg's max_iter and rel_tol;
    qspice runs solver_cfg as given. Both keep the solver's power floor as
    their dB floor.
    """
    if name == "cbf":
        return cbf_spectrum(R_hat, dictionary)
    if name == "music":
        return music_spectrum(R_hat, dictionary, k)
    if name not in ("spice", "qspice"):
        raise ConfigError(f"{name!r} is not a fixed-grid estimator")
    cfg = solver_cfg or SolverConfig()
    if name == "spice":
        cfg = replace(cfg, r=1.0, q=1.0)
    return replace(qspice_solve(R_hat, dictionary, cfg).spectrum, estimator=name)
