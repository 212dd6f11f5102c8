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

The data decides what every estimator here solves: one snapshot (M,) or
covariance (M, M) is one problem, the stack of one; P covariances (P, M, M)
are a stack, such as the bins of a broadband spectrum, on one angle grid.
A Dictionary or an M x G matrix is shared by every problem (a broadcast
view), and a (P, M, G) array (arrays.steering_stack) gives each its own.
qspice_solve has one path: the P problems share one loop, in which each
numpy step is one call for all of them, and each problem leaves the stack
at the iteration its own solve stops at, so its result is that of its
solve as the stack of one, bit for bit. It starts every problem from its
CBF spectrum and returns powers, power floors and, per problem, the
objective of each evaluation it ran in, its iteration count and whether it
converged; a spectrum on a Dictionary's angles is fixed_grid_spectrum's.
ESTIMATORS is the registry: each estimator's entry says what it needs and
reads, and every dispatch on an estimator, its picks too, reads the entry.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .arrays import ArrayGeometry, Dictionary, integer, positive_finite
from .errors import ConfigError, DegenerateInputError, SingularModelError

DB_FLOOR = 1e-300
CBF_GUARD = 1.0     # the least separation in degrees of CBF's picks, by default


@dataclass(frozen=True)
class SolverConfig:
    """r: signal-penalty norm order (>= 1); q: noise-penalty norm order in
    [1, 2]. Noise powers are floored at 1e-12 x the initial total power."""

    r: float = 1.0
    q: float = 2.0
    max_iter: int = 500
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not 1 <= self.r < np.inf:
            raise ConfigError("signal norm order r must be finite and >= 1 (convexity)")
        if not 1 <= self.q <= 2:
            raise ConfigError("noise norm order q must lie in [1, 2]")
        integer(self.max_iter, "max_iter")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        positive_finite(self.rel_tol, "rel_tol")


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
    floor: float | np.ndarray      # the power floor (see SolverConfig)
    # a stack's result per problem; the fields above then stack (powers,
    # floor), join (trace), sum (n_iter) or all-of (converged) theirs
    problems: tuple = ()


def _as_problems(data, dictionary):
    """(R_hat, A, single): the checked covariances (P, M, M) and steering
    stack A (P, M, G) of the problems that `data` holds (see the module
    docstring), and whether it is one problem. A snapshot z is kept as the
    unsymmetrized z z^H; covariances are Hermitian-symmetrized, with one
    call per step for all P."""
    A = dictionary.matrix if isinstance(dictionary, Dictionary) else np.asarray(dictionary)
    if A.ndim not in (2, 3):
        raise ConfigError("dictionary must be an M x G matrix or a P x M x G stack")
    M = A.shape[-2]
    if A.ndim == 3 and np.shape(data) != (len(A), M, M):
        raise ConfigError(f"a stack of {len(A)} dictionaries needs covariances of "
                          f"shape ({len(A)}, {M}, {M}), got {np.shape(data)}")
    data = np.asarray(data, dtype=complex)
    if not np.isfinite(data).all():
        raise ConfigError("input data must be finite")
    single = data.ndim < 3
    if data.ndim == 1:
        if data.size != M:
            raise ConfigError(f"snapshot length {data.size} != array size {M}")
        if not data.any():
            raise DegenerateInputError("all-zero snapshot")
        R_hat = np.outer(data, data.conj())[None]
    else:
        data = data[None] if single else data
        if data.shape[1:] != (M, M):
            raise ConfigError(f"covariance shape {data.shape[1:]} != ({M}, {M})")
        if not len(data):
            raise ConfigError("a stacked solve needs at least one problem")
        R_hat = 0.5 * (data + data.conj().swapaxes(-1, -2))
        if (np.trace(R_hat, axis1=-2, axis2=-1).real <= 0).any():
            raise DegenerateInputError("covariance estimate has non-positive trace")
    return R_hat, np.broadcast_to(A, R_hat.shape[:1] + A.shape[-2:]), single


def get_lapack_funcs(names, dtype=None):
    """scipy.linalg.get_lapack_funcs, imported at the first call: only the
    solver's model factors, and scipy.linalg would cost every CLI start-up
    ~0.15 s. Looked up here at each call, so a test can patch it."""
    from scipy.linalg import get_lapack_funcs as lapack_funcs
    return lapack_funcs(names, dtype=dtype)


def _cbf_power(A, R_hat, geometry: ArrayGeometry | None = None) -> np.ndarray:
    """Delay-and-sum power a_g^H R_hat a_g / M^2, clipped at zero, per
    problem of a stack.

    On a steering stack built from `geometry` whose element-pair lags are
    its offsets (a uniform line array), conj(a_i) a_j is A[j - i], so the
    form folds over the superdiagonals of the Hermitian R_hat (the coarray
    form): tr R_hat + 2 Re sum_{l>=1} rho_l A[l, g], rho_l the sum of the
    l-th superdiagonal. Row 0 of A is all ones (offset 0 is the
    reference), so with tr R_hat / 2 in place of rho_0 it is one batched
    (1 x M)(M x G) product. Otherwise it is one batched (M x M)(M x G)
    product: Re sum_m a conj(R_hat a) has the bits of Re sum_m conj(a)
    (R_hat a) and needs no conj(A) copy."""
    M = A.shape[-2]
    if geometry is not None and geometry.n_elements != M:
        raise ConfigError(f"a steering stack of {M} rows for a "
                          f"{geometry.n_elements}-element geometry")
    if geometry is not None and geometry.lags_are_offsets:
        flat, starts = _superdiagonals(M)
        rho = np.add.reduceat(R_hat.reshape(len(R_hat), -1)[:, flat], starts, axis=1)
        rho[:, 0] = 0.5 * rho[:, 0].real
        power = np.matmul(rho[:, None, :], A)[:, 0].real
        return np.maximum(power * (2.0 / M ** 2), 0.0)
    RA = R_hat @ A
    np.conjugate(RA, out=RA)
    np.multiply(A, RA, out=RA)
    return np.maximum(np.add.reduce(RA, axis=-2).real / M ** 2, 0.0)


@functools.lru_cache(maxsize=None)
def _superdiagonals(M):
    """(flat, starts): the flat indices of an M x M matrix's upper
    triangle, one superdiagonal after another from the main one, and where
    each begins among them (np.add.reduceat's segments). Read-only, since
    every call with the same M shares them."""
    i, j = np.triu_indices(M)
    order = np.argsort(j - i, kind="stable")
    flat, starts = (i * M + j)[order], np.r_[0, np.cumsum(np.arange(M, 1, -1))]
    flat.flags.writeable = starts.flags.writeable = False
    return flat, starts


def _music_power(A, R_hat, k) -> np.ndarray:
    """MUSIC power of one problem on A (M, G), R_hat (M, M) checked."""
    # imported here: scipy.linalg would cost every CLI start-up ~0.15 s
    from scipy.linalg import eigh
    _, V = eigh(R_hat)                 # ascending eigenvalues
    En = V[:, : A.shape[0] - k]
    proj = np.sum(np.abs(En.conj().T @ A) ** 2, axis=0)
    return 1.0 / np.maximum(proj, DB_FLOOR)


class _Model:
    """The model R(p, s) = A diag(p) A^H + diag(s) of a stack of P problems
    on one angle grid (see _as_problems); one problem is the stack of one
    and runs the same calls. Holds A (P, M, G), R_hat (P, M, M),
    tr(R_hat) and the weights w_p (P, G), w_s (P, M).

    evaluate(p, s) gives, per problem, f(p, s) at the config's norm orders
    (a list), a_g^H Q a_g per atom and diag(Q), with Q = R^-1 R_hat R^-1;
    SingularModelError if an R is not positive definite. keep(mask) drops
    problems from the stack. At M = 12 an evaluation costs dispatch more
    than flops, so each step is one numpy call for the whole stack, on
    buffers and views set up once. Only the Cholesky factor and solve,
    LAPACK potrf/potrs, run per problem (a batched inverse would change the
    bits of every result), called and their errors raised as scipy.linalg's
    wrappers do, minus the wrappers' checks."""

    def __init__(self, data, dictionary, config: SolverConfig | None = None):
        cfg = config or SolverConfig()
        self.r, self.q = float(cfg.r), float(cfg.q)
        self.R_hat, A, self.single = _as_problems(data, dictionary)
        P, M = A.shape[:2]
        self.tr = np.trace(self.R_hat, axis1=-2, axis2=-1).real
        self.w_p = np.add.reduce(np.abs(A) ** 2, axis=-2) / self.tr[:, None]
        self.w_s = np.multiply.outer(1.0 / self.tr, np.ones(M))
        # w ** t of each block, for its closed form
        self.w_pt, self.w_st = self.w_p ** self.r, self.w_s ** self.q
        self.A = A
        self.n_problems = P
        self.rows = np.arange(P)          # problem index of each stacked row

        dtype = np.result_type(A.dtype, np.float64)
        self._eye = np.eye(M, dtype=dtype)
        self._potrf, self._potrs = get_lapack_funcs(("potrf", "potrs"), dtype=dtype)
        Ap = np.empty(A.shape, dtype=dtype)                     # A diag(p)
        QA = Ap if dtype == complex else np.empty(A.shape, dtype=complex)
        # A diag(p) A^H in blocks of M + 1 rows, whose diagonals are then one
        # evenly strided view; R^T, R^-1, T1 = R^-1 R_hat and Q
        self._buffers = (Ap, QA, np.empty((P, M + 1, M), dtype=dtype),
                         np.empty((P, M, M), dtype=dtype), np.empty((P, M, M), dtype=dtype),
                         np.empty((P, M, M), dtype=complex), np.empty((P, M, M), dtype=complex))
        self.keep(np.ones(P, dtype=bool))

    def keep(self, mask):
        """Keep the stacked problems where mask is true."""
        self.rows = self.rows[mask]
        n = self.rows.size
        self._live = None       # frees the old conj(A) first
        if n < mask.size:
            for name in ("A", "R_hat", "w_p", "w_s", "w_pt", "w_st"):
                setattr(self, name, getattr(self, name)[mask])
        Ap, QA, AAHp, Rt, Ri, T1, Q = (b[:n] for b in self._buffers)
        M = Rt.shape[-1]
        AAH = AAHp[:, :M]
        Ac = self.A.conj()
        # R held transposed, so that each R[i] is Fortran-ordered as LAPACK
        # takes it: no copy
        self._live = (self.A, Ac, Ac.swapaxes(-1, -2), self.R_hat, self.w_p, self.w_s,
                      Ap, QA, AAH, AAH.swapaxes(-1, -2), AAHp.reshape(-1)[::M + 1],
                      Rt, list(Rt.swapaxes(-1, -2)), Ri, T1, Q)

    def evaluate(self, p, s):
        A, Ac, AH, R_hat, w_p, w_s, Ap, QA, AAH, AAHt, diag, Rt, R, Ri, T1, Q = self._live
        np.multiply(A, p[..., None, :], out=Ap)
        np.matmul(Ap, AH, out=AAH)
        np.add(diag, s.reshape(-1), out=diag)
        # R = (AAH + AAH^H) / 2, into the transposed buffer
        np.conjugate(AAH, out=Rt)
        np.add(AAHt, Rt, out=Rt)
        np.multiply(Rt, 0.5, out=Rt)
        potrf, potrs, eye = self._potrf, self._potrs, self._eye
        for i, R_i in enumerate(R):
            c, info = potrf(R_i, 1, 0, 1)      # lower, no clean-up, in place
            if info == 0:
                Ri[i], info = potrs(c, eye, 1)    # lower; reports only info <= 0
            if info > 0:
                # a stack of one has no other problem to tell it from
                where = f" (problem {self.rows[i]})" if self.n_problems > 1 else ""
                raise SingularModelError(
                    f"{info}-th leading minor of the array is not positive "
                    f"definite{where}")
            if info:
                raise ValueError(f"LAPACK reported an illegal value in the {-info}-th "
                                 f"argument of potrf/potrs")
        np.matmul(Ri, R_hat, out=T1)
        np.matmul(T1, Ri, out=Q)                       # R^-1 R_hat R^-1, Hermitian
        quad = np.add.reduce(T1.diagonal(0, -2, -1), axis=-1).real  # tr(T1)
        obj = (quad + _norm(w_p * p, self.r) + _norm(w_s * s, self.q)).tolist()
        np.matmul(Q, A, out=QA)
        np.multiply(Ac, QA, out=QA)
        return obj, np.add.reduce(QA, axis=-2).real, Q.diagonal(0, -2, -1).real


def _pow_each(x, e):
    """x ** e entry by entry with libm's pow, which numpy takes for a scalar;
    numpy's array pow differs from it in the last bit for some inputs. One
    entry gives a float."""
    if x.size == 1:
        return x.item() ** e
    return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)


def _block_minimize(a, w, t, wt=None):
    """argmin over x >= 0 of sum_k a_k/x_k + (sum_k (w_k x_k)^t)^(1/t), one
    block per row of a (the last axis); entries with a_k <= 0 get x_k = 0
    and stay out of the norm. wt: w ** t, if already at hand."""
    if wt is None:
        wt = w ** t
    if np.minimum.reduce(a, axis=None, initial=np.inf) > 0:
        # every entry live (a NaN fails the test): skip the masks, which
        # give the same values
        return _closed_form(a, w, t, wt)
    live = a > 0
    with np.errstate(divide="ignore", invalid="ignore"):  # dead entries, dropped
        return np.where(live, _closed_form(a, w, t, wt, live), 0.0)


def _norm(x, t):
    """||x||_t along the last axis for x >= 0; at t = 1 the powers are
    skipped (x ** 1.0 == x)."""
    if t == 1.0:
        return np.add.reduce(x, axis=-1)
    return _pow_each(np.add.reduce(x ** t, axis=-1), 1 / t)


def _norm_gradient(x, w, t):
    """Gradient of ||w x||_t over x >= 0."""
    if t == 1.0:
        return w
    return np.sum((w * x) ** t) ** (1 / t - 1) * w ** t * np.maximum(x, 1e-300) ** (t - 1)


def _closed_form(a, w, t, wt, live=None):
    """The block minimizer of each row of a (see module docstring), at the
    entries where `live` is true (all by default); other entries are garbage."""
    if t == 1.0:
        return np.sqrt(a / w)
    y = (w * a) ** (t / (t + 1.0))
    if live is None:
        C = np.add.reduce(y, axis=-1, keepdims=True)
    else:
        # each row's sum over its live entries alone, summed as a single
        # solve sums them; a row with none gets a dummy 1
        rows = zip(y.reshape(-1, y.shape[-1]), live.reshape(-1, y.shape[-1]))
        C = np.array([y_i[l_i].sum() if l_i.any() else 1.0 for y_i, l_i in rows])
        C = C.reshape(y.shape[:-1] + (1,))
    T = _pow_each(C, (1.0 - t) * (t + 1.0) / (2.0 * t))
    return (a / (T * wt)) ** (1.0 / (t + 1.0))


def qspice_solve(data, dictionary, config: SolverConfig | None = None) -> SolverResult:
    """Run the covariance-fitting solver on one problem or on a stack, from
    the CBF spectrum.

    data: snapshot (M,) or covariance (M, M), or a stack (P, M, M)
    dictionary: Dictionary or steering matrix (M, G) shared by every
    problem, or a (P, M, G) steering stack
    Returns SolverResult; `powers.signal` over the dictionary grid is the
    spatial estimate, `trace` the per-iteration objective (non-increasing).
    One problem is the stack of one and gets its one result back. A stack's
    problems run in one loop, each leaving it at the iteration its own solve
    stops at: `problems` holds their results, powers.signal is (P, G),
    n_iter the sum of their iterations and converged whether all converged.
    """
    cfg = config or SolverConfig()
    model = _Model(data, dictionary, cfg)
    P, M, G = model.A.shape
    # CBF initialization; strictly positive noise start keeps R invertible
    p = _cbf_power(model.A, model.R_hat)
    s = np.multiply.outer(model.tr / (2 * M), np.ones(M))
    floors = 1e-12 * (np.add.reduce(p, axis=-1) + np.add.reduce(s, axis=-1))
    floor = np.multiply.outer(floors, np.ones(M))
    s = np.maximum(s, floor)

    traces = [[] for _ in range(P)]    # per problem, its objective per evaluation
    live = traces                      # the traces of the stacked problems
    converged = np.zeros(P, dtype=bool)
    p_out, s_out = np.empty((P, G)), np.empty((P, M))
    r, q, tol = float(cfg.r), float(cfg.q), cfg.rel_tol
    for it in range(cfg.max_iter):
        obj, t_sig, t_noi = model.evaluate(p, s)
        for trace, f in zip(live, obj):
            trace.append(f)
        if it > 0:
            done = [abs(f0 - f) <= tol * abs(f0) for f0, f in zip(prev, obj)]
            if True in done:
                # a problem leaves the stack at the evaluation that meets
                # the rule, with the powers evaluated there
                done = np.array(done)
                out = model.rows[done]
                p_out[out], s_out[out] = p[done], s[done]
                converged[out] = True
                keep = ~done
                if not keep.any():
                    break
                model.keep(keep)
                live = [traces[i] for i in model.rows.tolist()]
                p, s, floor = p[keep], s[keep], floor[keep]
                t_sig, t_noi = t_sig[keep], t_noi[keep]
                obj = [f for f, k in zip(obj, keep) if k]
        prev = obj
        p = _block_minimize(p * p * np.maximum(t_sig, 0.0), model.w_p, r, model.w_pt)
        s = np.maximum(_block_minimize(s * s * np.maximum(t_noi, 0.0), model.w_s, q,
                                       model.w_st), floor)
    else:
        p_out[model.rows], s_out[model.rows] = p, s

    results = [SolverResult(PowerVector(p_out[i], s_out[i]), np.asarray(trace),
                            len(trace), bool(converged[i]), floor_i)
               for i, (trace, floor_i) in enumerate(zip(traces, floors.tolist()))]
    if model.single:
        return results[0]
    return SolverResult(PowerVector(p_out, s_out), np.concatenate(traces),
                        sum(res.n_iter for res in results), bool(converged.all()),
                        floors, problems=tuple(results))


def _evaluate_at(p, s, data, dictionary, config):
    """(objective, a_g^H Q a_g, diag Q, w_p, w_s) at a finite (p, s) of a
    single problem."""
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(s))):
        raise ConfigError("p and sigma must be finite")
    model = _Model(data, dictionary, config)
    if not model.single:
        raise ConfigError("the objective is evaluated for one problem, not a stack")
    (obj,), (t_sig,), (t_noi,) = model.evaluate(np.asarray(p)[None], np.asarray(s)[None])
    return obj, t_sig, t_noi, model.w_p[0], model.w_s[0]


def objective_value(p, s, data, dictionary, config: SolverConfig | None = None) -> float:
    """Exact objective at (p, s), evaluated as the solver evaluates it."""
    return _evaluate_at(p, s, data, dictionary, config)[0]


def kkt_residual(p, s, data, dictionary, config: SolverConfig | None = None) -> float:
    """Norm of the objective gradient projected onto the nonnegative orthant,
    scaled by the objective value. Small at a true minimizer, but not a
    stopping certificate: it can stay large at solves the relative-objective
    rule calls converged (1.9e-2 and 6.1e-2 have been measured there), since
    off-support atoms fall towards 0 only geometrically and the 1e-9 * max(x)
    threshold counts them as interior."""
    cfg = config or SolverConfig()
    obj, t_sig, t_noi, w_p, w_s = _evaluate_at(p, s, data, dictionary, cfg)
    g = np.concatenate([_norm_gradient(p, w_p, float(cfg.r)) - t_sig,
                        _norm_gradient(s, w_s, float(cfg.q)) - t_noi])
    x = np.concatenate([p, s])
    proj = np.where(x > 1e-9 * x.max(), g, np.minimum(g, 0.0))
    return float(np.linalg.norm(proj) / max(abs(obj), 1e-300))


def cbf_spectrum(R_hat, dictionary) -> SpatialSpectrum:
    """Delay-and-sum power P(theta_g) = a_g^H R_hat a_g / M^2."""
    return fixed_grid_spectrum("cbf", R_hat, dictionary)


def music_spectrum(R_hat, dictionary, k: int) -> SpatialSpectrum:
    """1 / (a^H E_n E_n^H a) with E_n spanning the M-k smallest eigenvectors."""
    return fixed_grid_spectrum("music", R_hat, dictionary, k)


def _pick(power, angles, k, guard=0.0):
    """K largest local maxima with pairwise separation >= guard.

    Plateaus count once at their lowest angle (strictly-greater test on the
    left, greater-or-equal on the right); ties in height resolve toward the
    lower angle. Returns the sorted angles, fewer than k on a shortfall.
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
    return np.sort(np.asarray(angles, dtype=float)[chosen])


def peak_pick(spectrum: SpatialSpectrum, k: int, guard_deg: float = 0.0):
    """Sorted angles of the K strongest spectral peaks, fewer on a shortfall."""
    integer(k, "peak count")
    if k < 1:
        raise ConfigError("peak count must be >= 1")
    if guard_deg < 0:
        raise ConfigError("guard must be non-negative")
    return _pick(spectrum.power, spectrum.angles, k, guard_deg)


# -----------------------------
# Estimator registry
# -----------------------------
@dataclass(frozen=True)
class Estimator:
    """An estimator's config keys read (SolverConfig and RefineConfig fields,
    peak_guard), its fixed SolverConfig (field, value) pairs, whether it
    needs the source count k, and whether it refines its grid (refine) or
    gives a spectrum on a fixed grid (fixed_grid_powers)."""

    reads: frozenset = frozenset()
    fixes: tuple = ()
    needs_k: bool = False
    refines: bool = False

    def picks(self, spectrum: SpatialSpectrum, k: int | None, guard: float):
        """The k picks of a fixed-grid spectrum (peak_pick), at least `guard`
        degrees apart if the entry reads peak_guard; none without k."""
        guard = guard if "peak_guard" in self.reads else 0.0
        return peak_pick(spectrum, k, guard) if k else ()


_SOLVER_KEYS = frozenset(f.name for f in fields(SolverConfig))
# every estimator the toolkit runs, by name
ESTIMATORS = {
    "cbf": Estimator(frozenset({"peak_guard"})),
    "music": Estimator(needs_k=True),
    "spice": Estimator(frozenset({"max_iter", "rel_tol"}), fixes=(("r", 1.0), ("q", 1.0))),
    "qspice": Estimator(_SOLVER_KEYS),
    "gnr2": Estimator(_SOLVER_KEYS | {"initial_step", "target_step"}, needs_k=True,
                      refines=True),
}


def check_estimator(name: str, k: int | None) -> Estimator:
    """The entry of estimator `name`. Rejects an unknown name, a source
    count k that is not an integer >= 1, or a missing k for the estimators
    that need one."""
    if (entry := ESTIMATORS.get(name)) is None:
        raise ConfigError(f"unknown estimator {name!r}; use one of {tuple(ESTIMATORS)}")
    if k is not None:
        integer(k, "source count k")
        if k < 1:
            raise ConfigError(f"source count k must be >= 1, got {k}")
    if entry.needs_k and k is None:
        raise ConfigError(f"{name} needs the source count k")
    return entry


def fixed_grid_powers(name: str, data, dictionary, k: int | None = None,
                      solver_cfg: SolverConfig | None = None,
                      geometry: ArrayGeometry | None = None):
    """(power, floor) of the fixed-grid estimator `name` on one problem or a
    stack, data and dictionary as qspice_solve takes them: power (P, G), a
    row per problem, and floor (P,), the dB floor of each row. `geometry`:
    the array a steering stack was built from (arrays.steering_stack), if
    one was.

    CBF is one batched product for the stack (its coarray form on a
    stack built from a uniform line array) and MUSIC (it needs k) one
    eigendecomposition per problem; spice and qspice read the solver keys and
    run the solver once for the stack, with the fields their entry fixes
    (SPICE's r = q = 1), and keep its power floor as their dB floor.
    """
    if (entry := ESTIMATORS.get(name)) is None or entry.refines:
        raise ConfigError(f"{name!r} is not a fixed-grid estimator")
    if entry.reads & _SOLVER_KEYS:
        res = qspice_solve(data, dictionary,
                           replace(solver_cfg or SolverConfig(), **dict(entry.fixes)))
        power = res.powers.signal
        return (power.reshape(-1, power.shape[-1]),
                np.maximum(np.reshape(res.floor, -1), DB_FLOOR))
    R_hat, A, _ = _as_problems(data, dictionary)
    P, M, G = A.shape
    if not entry.needs_k:
        return _cbf_power(A, R_hat, geometry), np.full(P, DB_FLOOR)
    if not 1 <= (k or 0) < M:
        raise ConfigError(f"source count k must satisfy 1 <= k < M={M}, got {k}")
    power = np.empty((P, G))
    for i, (A_i, R_i) in enumerate(zip(A, R_hat)):
        power[i] = _music_power(A_i, R_i, k)
    return power, np.full(P, DB_FLOOR)


def fixed_grid_spectrum(name: str, R_hat, dictionary, k: int | None = None,
                        solver_cfg: SolverConfig | None = None) -> SpatialSpectrum:
    """Spectrum of a fixed-grid estimator on one snapshot or covariance and
    `dictionary` (a Dictionary, or an M x G matrix whose angles are its
    column indices), tagged `name`: fixed_grid_powers of the stack of one."""
    if np.ndim(R_hat) > 2:
        raise ConfigError("a spectrum is of one snapshot or covariance, not a stack")
    (power,), (floor,) = fixed_grid_powers(name, R_hat, dictionary, k, solver_cfg)
    if isinstance(dictionary, Dictionary):
        return SpatialSpectrum(dictionary.angles, power, name, dictionary.frequency, floor)
    return SpatialSpectrum(np.arange(power.size, dtype=float), power, name, 0.0, floor)
