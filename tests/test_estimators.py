import json
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from dasdoa import estimators
from dasdoa.arrays import ArrayGeometry, Dictionary, build_dictionary, full_sector, \
    steering_stack, uniform_line_array
from dasdoa.errors import ConfigError, DegenerateInputError, EstimationError, \
    SingularModelError, ToolkitError
from dasdoa.estimators import DB_FLOOR, SolverConfig, SpatialSpectrum, _Model, \
    _block_minimize, _pick, cbf_spectrum, check_estimator, fixed_grid_powers, \
    fixed_grid_spectrum, kkt_residual, music_spectrum, objective_value, peak_pick, \
    qspice_solve

DATA = pathlib.Path(__file__).parent / "data"


def _oracle_instances():
    with open(DATA / "qspice_oracle.json") as fh:
        blob = json.load(fh)
    for inst in blob["instances"]:
        z = np.array(inst["z_re"]) + 1j * np.array(inst["z_im"])
        ang = np.deg2rad(np.array(inst["angles_deg"]))
        a = np.exp(-1j * np.pi * np.arange(blob["M"])[:, None] * np.sin(ang)[None, :])
        yield z, a, inst["r"], inst["q"], inst["oracle_objective"]


def test_solver_reaches_oracle_objective_single_instance():
    z, a, r, q, oracle = next(_oracle_instances())
    cfg = SolverConfig(r=r, q=q, max_iter=20000, rel_tol=1e-16)
    res = qspice_solve(z, a, cfg)
    obj = objective_value(res.powers.signal, res.powers.noise, z, a, cfg)
    assert obj == pytest.approx(oracle, rel=1e-9)
    assert res.converged


def test_scalar_instance_closed_form():
    # M = 2, single atom a = (1, 1)/sqrt(2), R_hat = I. With tr(R_hat) = 2
    # all weights are 1/2 and the objective splits into two independent
    # eigen-modes min_x 1/x + x/2 = sqrt(2) each, so the optimum is 2*sqrt(2).
    a = np.array([[1.0], [1.0]]) / np.sqrt(2)
    r_hat = np.eye(2, dtype=complex)
    res = qspice_solve(r_hat, a, SolverConfig(r=1, q=1, max_iter=20000,
                                              rel_tol=1e-16))
    obj = objective_value(res.powers.signal, res.powers.noise, r_hat, a,
                          SolverConfig(r=1, q=1))
    # the p/sigma_1 split is non-unique here, which makes the tail of the
    # iteration sublinear; the objective itself is still pinned
    assert obj == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-8)


def test_objective_trace_non_increasing():
    rng = np.random.default_rng(20)
    for _ in range(25):
        m, g = 4, 12
        a = np.exp(-1j * np.pi * np.arange(m)[:, None]
                   * np.sin(np.linspace(-1.2, 1.2, g))[None, :])
        y = (rng.standard_normal((m, 30)) + 1j * rng.standard_normal((m, 30)))
        r_hat = y @ y.conj().T / 30
        q = rng.choice([1.0, 1.5, 2.0])
        res = qspice_solve(r_hat, a, SolverConfig(r=1.0, q=q, max_iter=60,
                                                  rel_tol=1e-16))
        tr = np.asarray(res.trace)
        assert np.all(np.diff(tr) <= 1e-12 * np.abs(tr[:-1]))


def test_solution_scale_equivariance():
    rng = np.random.default_rng(21)
    m, g = 5, 15
    a = np.exp(-1j * np.pi * np.arange(m)[:, None]
               * np.sin(np.linspace(-1.0, 1.0, g))[None, :])
    y = rng.standard_normal((m, 40)) + 1j * rng.standard_normal((m, 40))
    r_hat = y @ y.conj().T / 40
    cfg = SolverConfig(r=1.0, q=2.0, max_iter=4000, rel_tol=1e-14)
    base = qspice_solve(r_hat, a, cfg)
    scaled = qspice_solve(7.0 * r_hat, a, cfg)
    assert_allclose(scaled.powers.signal, 7.0 * base.powers.signal,
                    rtol=1e-6, atol=1e-9 * base.powers.signal.max())
    assert_allclose(scaled.powers.noise, 7.0 * base.powers.noise, rtol=1e-6)


@pytest.mark.parametrize("t", [1.0, 1.5, 2.0])
def test_block_minimize_zeroes_dead_entries(t):
    # a dead entry may sit on a zero weight (an all-zero steering column)
    a = np.array([0.3, 0.0, 1.7, 0.0, 0.05, 2.2])
    w = np.array([0.5, 0.0, 0.1, 0.9, 0.4, 0.3])
    live = a > 0
    x = _block_minimize(a, w, t)
    assert np.all(x[~live] == 0.0)
    # the closed form of the module docstring, over the live entries only
    C = np.sum((w[live] * a[live]) ** (t / (t + 1.0)))
    T = C ** ((1.0 - t) * (t + 1.0) / (2.0 * t))
    expect = (a[live] / (T * w[live] ** t)) ** (1.0 / (t + 1.0))
    assert_allclose(x[live], expect, rtol=1e-13)
    # the all-live path gives the same bits as the masked one
    assert np.array_equal(_block_minimize(a[live], w[live], t), x[live])
    assert np.all(_block_minimize(np.zeros(3), w[:3], t) == 0.0)


@pytest.mark.parametrize("t", [1.0, 1.5, 2.0])
def test_block_minimize_zeroes_the_surrogate_gradient(t):
    # f(x) = sum_k a_k/x_k + ||w x||_t is convex on x > 0, so x minimizes it
    # iff a_k/x_k^2 = S^(1/t - 1) w_k^t x_k^(t-1) with S = sum_k (w_k x_k)^t
    rng = np.random.default_rng(5)
    a = rng.uniform(0.01, 3.0, 9)
    w = rng.uniform(0.05, 1.0, 9)
    x = _block_minimize(a, w, t)
    S = np.sum((w * x) ** t)
    assert_allclose(a / x ** 2, S ** (1 / t - 1) * w ** t * x ** (t - 1),
                    rtol=1e-10)


def _fail_potrf(monkeypatch, call):
    """Make the solver's potrf report a non-positive-definite 2nd leading
    minor on its `call`-th call (counting from 1) and factor as usual
    otherwise."""
    real, calls = estimators.get_lapack_funcs, []

    def lapack(names, **kwargs):
        potrf, potrs = real(names, **kwargs)

        def failing_potrf(a, *flags):
            calls.append(a)
            return (a, 2) if len(calls) == call else potrf(a, *flags)
        return failing_potrf, potrs

    monkeypatch.setattr(estimators, "get_lapack_funcs", lapack)


def _assert_singular_model_error(err):
    assert isinstance(err, ToolkitError)
    assert isinstance(err, EstimationError)
    assert isinstance(err, np.linalg.LinAlgError)


def test_solver_raises_when_model_covariance_is_singular(monkeypatch):
    # one problem has no other to tell it from, so the message names none
    _fail_potrf(monkeypatch, 3)
    a = np.exp(-1j * np.pi * np.arange(4)[:, None] * np.sin(np.linspace(-1, 1, 5)))
    with pytest.raises(SingularModelError) as err:
        qspice_solve(np.eye(4, dtype=complex), a)
    assert str(err.value) == "2-th leading minor of the array is not positive definite"
    _assert_singular_model_error(err.value)


def test_solver_raises_on_cholesky_solve_error(monkeypatch):
    real = estimators.get_lapack_funcs

    def failing_potrs(names, **kwargs):
        potrf, _ = real(names, **kwargs)
        return potrf, lambda c, b, *flags: (b, -2)

    monkeypatch.setattr(estimators, "get_lapack_funcs", failing_potrs)
    with pytest.raises(ValueError, match="2-th argument"):
        qspice_solve(np.eye(4, dtype=complex), np.ones((4, 3), dtype=complex))


def test_kkt_residual_small_at_solution():
    for z, a, r, q, _ in _oracle_instances():
        res = qspice_solve(z, a, SolverConfig(r=r, q=q, max_iter=20000,
                                              rel_tol=1e-16))
        kkt = kkt_residual(res.powers.signal, res.powers.noise, z, a,
                           SolverConfig(r=r, q=q))
        assert kkt < 1e-6


@given(seed=st.integers(0, 2 ** 16), m=st.integers(3, 8), g=st.integers(4, 40),
       r=st.floats(1.0, 3.0), q=st.floats(1.0, 2.0), snapshot=st.booleans())
def test_objective_value_is_the_solver_objective(seed, m, g, r, q, snapshot):
    # one evaluation of the covariance model serves both, so the objective
    # at a converged solve's powers is its last trace entry, bit for bit
    rng = np.random.default_rng(seed)
    a = np.exp(-1j * np.pi * np.arange(m)[:, None]
               * np.sin(np.linspace(-1.4, 1.4, g))[None, :])
    y = rng.standard_normal((m, 20)) + 1j * rng.standard_normal((m, 20))
    data = y[:, 0] if snapshot else y @ y.conj().T / 20
    cfg = SolverConfig(r=r, q=q)
    res = qspice_solve(data, a, cfg)
    assume(res.converged)
    assert objective_value(res.powers.signal, res.powers.noise, data, a,
                           cfg) == res.trace[-1]


@pytest.mark.parametrize("fn", [objective_value, kkt_residual])
@pytest.mark.parametrize("where", ["p", "sigma"])
def test_non_finite_point_raises_config_error(fn, where):
    z, a, *_ = next(_oracle_instances())
    p, s = np.ones(a.shape[1]), np.ones(a.shape[0])
    (p if where == "p" else s)[1] = np.nan
    with pytest.raises(ConfigError, match="finite"):
        fn(p, s, z, a)


@pytest.mark.parametrize("fn", [objective_value, kkt_residual])
def test_singular_model_raises_linalg_error(fn):
    # one atom and zero noise: R = a a^H has rank one
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        fn(np.ones(1), np.zeros(4), np.eye(4, dtype=complex),
           np.ones((4, 1), dtype=complex))


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _dictionaries(A, shared):
    """The dictionary argument of a stack on the steering stack A (P, M, G),
    and that of its problem i: each problem's own A[i], or A[0] shared by
    all as a bare matrix or as a Dictionary."""
    if shared is None:
        return A, lambda i: A[i]
    dic = A[0] if shared == "matrix" else Dictionary(
        np.linspace(-80.0, 80.0, A.shape[-1]), A[0], 1000.0, "broadside",
        uniform_line_array(A.shape[1], 0.5))
    return dic, lambda i: dic


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4), m=st.integers(3, 8),
       g=st.integers(1, 40), r=st.floats(1.0, 3.0), q=st.floats(1.0, 2.0),
       max_iter=st.sampled_from([4, 30, 500]), dead=st.booleans(),
       shared=st.sampled_from([None, "matrix", "dictionary"]))
def test_stacked_solve_equals_single_solves(seed, n, m, g, r, q, max_iter, dead, shared):
    # every problem of a stack gets its single solve's result, bit for bit,
    # on a steering stack or on one shared matrix or Dictionary; with
    # `dead`, problem 0 has an all-zero steering column, so its CBF start
    # holds a zero atom and the masked block update runs
    rng = np.random.default_rng(seed)
    A = np.exp(-1j * np.pi * rng.uniform(0.5, 1.5, (n, m, 1))
               * np.arange(m)[:, None] * np.sin(np.linspace(-1.4, 1.4, g)))
    if dead:
        A[0, :, g // 2] = 0.0
    y = rng.standard_normal((n, m, 20)) + 1j * rng.standard_normal((n, m, 20))
    covs = y @ y.conj().transpose(0, 2, 1) / 20
    cfg = SolverConfig(r=r, q=q, max_iter=max_iter)
    dictionary, dictionary_of = _dictionaries(A, shared)
    stacked = qspice_solve(covs, dictionary, cfg)
    singles = [qspice_solve(covs[i], dictionary_of(i), cfg) for i in range(n)]
    assert len(stacked.problems) == n
    for res, single in zip(stacked.problems, singles):
        assert _same_bits(res.powers.signal, single.powers.signal)
        assert _same_bits(res.powers.noise, single.powers.noise)
        assert _same_bits(res.trace, single.trace)
        assert (res.n_iter, res.converged) == (single.n_iter, single.converged)
        assert res.floor == single.floor
    assert _same_bits(stacked.powers.signal, [s.powers.signal for s in singles])
    assert _same_bits(stacked.floor, [s.floor for s in singles])
    assert stacked.n_iter == sum(s.n_iter for s in singles)
    assert stacked.converged == all(s.converged for s in singles)


def test_a_shared_dictionary_gives_each_problem_its_solo_spectrum():
    # a stack of covariances on one Dictionary: each problem gets the powers
    # of its solve alone, and fixed_grid_spectrum tags them with the
    # Dictionary's angles, frequency and the solve's power floor
    geom = uniform_line_array(6, 0.5)
    dic = build_dictionary(geom, 1300.0, (-60.0, 60.0), 2.0)
    rng = np.random.default_rng(3)
    y = rng.standard_normal((2, 6, 30)) + 1j * rng.standard_normal((2, 6, 30))
    covs = y @ y.conj().transpose(0, 2, 1) / 30
    stacked = qspice_solve(covs, dic)
    for res, cov in zip(stacked.problems, covs):
        single = qspice_solve(cov, dic)
        assert _same_bits(res.powers.signal, single.powers.signal)
        spectrum = fixed_grid_spectrum("qspice", cov, dic)
        assert _same_bits(spectrum.power, res.powers.signal)
        assert _same_bits(spectrum.angles, dic.angles)
        assert (spectrum.frequency, spectrum.floor) == (dic.frequency,
                                                        max(res.floor, DB_FLOOR))


def test_stack_validation():
    a = np.ones((2, 3, 4), dtype=complex)
    covs = np.stack([np.eye(3, dtype=complex)] * 2)
    # a 3-D dictionary given with one problem, a snapshot or a covariance
    for one in (np.ones(3, dtype=complex), covs[0]):
        with pytest.raises(ConfigError, match=r"a stack of 2 dictionaries needs "
                                              r"covariances of shape \(2, 3, 3\)"):
            qspice_solve(one, a)
    # a stack whose P is not its dictionary's
    with pytest.raises(ConfigError, match=r"covariances of shape \(2, 3, 3\), "
                                          r"got \(3, 3, 3\)"):
        qspice_solve(np.stack([covs[0]] * 3), a)
    with pytest.raises(ConfigError, match=r"covariance shape \(3, 4\) != \(3, 3\)"):
        qspice_solve(np.ones((2, 3, 4), dtype=complex), a[0])
    with pytest.raises(ConfigError, match="at least one problem"):
        qspice_solve(covs[:0], a[0])
    with pytest.raises(ConfigError, match="a spectrum is of one"):
        fixed_grid_spectrum("cbf", covs, a[0])


def test_stack_with_a_singular_problem_names_it(monkeypatch):
    # the first evaluation factors problems 0, 1, 2 in turn: problem 1 fails
    _fail_potrf(monkeypatch, 2)
    a = np.exp(-1j * np.pi * np.arange(4)[:, None] * np.sin(np.linspace(-1, 1, 5)))
    covs = np.stack([np.eye(4, dtype=complex)] * 3)
    with pytest.raises(SingularModelError, match=r"2-th leading minor .* \(problem 1\)$") \
            as err:
        qspice_solve(covs, np.stack([a] * 3))
    _assert_singular_model_error(err.value)


def test_fixed_grid_spice_is_the_solver_at_r1_q1():
    # spice keeps the caller's max_iter and rel_tol and sets r = q = 1
    z, *_ = next(_oracle_instances())
    dic = build_dictionary(uniform_line_array(z.size, 0.5), 1000.0, (-60.0, 60.0), 3.0)
    spec = fixed_grid_spectrum("spice", z, dic, solver_cfg=SolverConfig(
        r=2.0, q=2.0, max_iter=50, rel_tol=1e-12))
    res = qspice_solve(z, dic, SolverConfig(r=1.0, q=1.0, max_iter=50, rel_tol=1e-12))
    assert spec.estimator == "spice"
    assert _same_bits(spec.power, res.powers.signal)
    assert (spec.frequency, spec.floor) == (dic.frequency, max(res.floor, DB_FLOOR))


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 4), m=st.integers(3, 7),
       g=st.integers(1, 30), name=st.sampled_from(["cbf", "music", "spice", "qspice"]),
       shared=st.sampled_from([None, "matrix", "dictionary"]))
def test_fixed_grid_powers_of_a_stack_are_each_problems_spectrum(seed, n, m, g, name,
                                                                 shared):
    # a stack is checked and symmetrized at once, and each of its rows keeps
    # the bits of its problem run alone, on a steering stack or on one shared
    # matrix or Dictionary; the covariances are not Hermitian
    rng = np.random.default_rng(seed)
    A = np.exp(-1j * np.pi * rng.uniform(0.5, 1.5, (n, m, 1))
               * np.arange(m)[:, None] * np.sin(np.linspace(-1.4, 1.4, g)))
    y = rng.standard_normal((n, m, 20)) + 1j * rng.standard_normal((n, m, 20))
    covs = y @ y.conj().transpose(0, 2, 1) / 20 \
        + 1e-3 * (rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m)))
    cfg = SolverConfig(r=1.5, max_iter=30)
    dictionary, dictionary_of = _dictionaries(A, shared)
    power, floor = fixed_grid_powers(name, covs, dictionary, 1, cfg)
    assert power.shape == (n, g) and floor.shape == (n,)
    for i in range(n):
        spec = fixed_grid_spectrum(name, covs[i], dictionary_of(i), 1, cfg)
        assert _same_bits(power[i], spec.power)
        assert floor[i] == spec.floor
        assert spec.estimator == name


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 12), m=st.integers(2, 12),
       g=st.integers(1, 60), shared=st.booleans())
def test_stacked_cbf_has_the_bits_of_each_bins_spectrum(seed, n, m, g, shared):
    # one batched product for the stack, conjugating R_hat A in place, gives
    # each bin's cbf_spectrum and a_g^H R_hat a_g / M^2 summed per bin as
    # Re sum_m conj(a) (R_hat a), bit for bit
    rng = np.random.default_rng(seed)
    A = np.exp(-1j * np.pi * rng.uniform(0.5, 1.5, (1 if shared else n, m, 1))
               * np.arange(m)[:, None] * np.sin(np.linspace(-1.4, 1.4, g)))
    y = rng.standard_normal((n, m, 20)) + 1j * rng.standard_normal((n, m, 20))
    covs = y @ y.conj().transpose(0, 2, 1) / 20
    stack = A[0] if shared else A
    power, _ = fixed_grid_powers("cbf", covs, stack)
    for i in range(n):
        A_i = A[0 if shared else i]
        assert power[i].tobytes() == cbf_spectrum(covs[i], A_i).power.tobytes()
        R_i = 0.5 * (covs[i] + covs[i].conj().T)
        per_bin = np.add.reduce(A_i.conj() * (R_i @ A_i), axis=0).real / m ** 2
        assert power[i].tobytes() == np.maximum(per_bin, 0.0).tobytes()


def _cbf_stack(rng, geometry, p, g, convention):
    """Covariances (P, M, M) and a steering stack (P, M, G) of `geometry` at P
    drawn frequencies over the convention's sector; the covariances are not
    Hermitian, so the check symmetrizes them."""
    m = geometry.n_elements
    A = steering_stack(geometry, rng.uniform(10.0, 3000.0, p),
                       np.linspace(*full_sector(convention), g), convention)
    y = rng.standard_normal((p, m, 20)) + 1j * rng.standard_normal((p, m, 20))
    covs = y @ y.conj().transpose(0, 2, 1) / 20 \
        + 1e-3 * (rng.standard_normal((p, m, m)) + 1j * rng.standard_normal((p, m, m)))
    return covs, A


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 16), p=st.integers(1, 12), m=st.integers(2, 16),
       g=st.integers(1, 400), spacing=st.floats(0.05, 5.0),
       convention=st.sampled_from(["broadside", "endfire"]))
def test_coarray_cbf_on_a_uniform_array_is_the_product(seed, p, m, g, spacing,
                                                        convention):
    # on a stack built from a ULA, CBF folds R_hat over its superdiagonals:
    # within 1e-12 of each row's maximum of the batched product, and each
    # row with the bits of its bin alone
    rng = np.random.default_rng(seed)
    geometry = uniform_line_array(m, spacing)
    covs, A = _cbf_stack(rng, geometry, p, g, convention)
    folded, floor = fixed_grid_powers("cbf", covs, A, geometry=geometry)
    product, _ = fixed_grid_powers("cbf", covs, A)
    assert folded.shape == (p, g) and _same_bits(floor, np.full(p, DB_FLOOR))
    assert np.all(np.abs(folded - product) <= 1e-12 * product.max(axis=1, keepdims=True))
    for i in range(p):
        (alone,), _ = fixed_grid_powers("cbf", covs[i:i + 1], A[i:i + 1],
                                        geometry=geometry)
        assert _same_bits(folded[i], alone)


PAIR_OFFSETS = (0, 1.9, 3.5, 5.3, 7.85, 10, 11.8, 14.1, 16, 17.7, 20, 22.0)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 16), p=st.integers(1, 12),
       gaps=st.one_of(st.just(np.diff(PAIR_OFFSETS).tolist()),
                      st.lists(st.floats(0.1, 3.0), min_size=1, max_size=15)),
       g=st.integers(1, 200), convention=st.sampled_from(["broadside", "endfire"]))
def test_cbf_on_a_non_uniform_array_keeps_the_products_bits(seed, p, gaps, g,
                                                            convention):
    # the c06 pair array and drawn offsets have lags that are not their
    # offsets: their stacks keep the batched product, bit for bit
    geometry = ArrayGeometry(np.cumsum([0.0] + gaps), 1.25)
    assume(not geometry.lags_are_offsets)
    covs, A = _cbf_stack(np.random.default_rng(seed), geometry, p, g, convention)
    product, _ = fixed_grid_powers("cbf", covs, A)
    assert _same_bits(fixed_grid_powers("cbf", covs, A, geometry=geometry)[0], product)


def test_cbf_without_a_geometry_keeps_the_products_bits():
    # a bare matrix or a Dictionary carries no promise of how its matrix was
    # built: the product, whose bits cbf_spectrum has, on a ULA's matrix too
    geometry = uniform_line_array(8, 1.25)
    covs, A = _cbf_stack(np.random.default_rng(3), geometry, 1, 181, "broadside")
    dic = Dictionary(np.linspace(-90.0, 90.0, 181), A[0], 500.0, "broadside", geometry)
    R = 0.5 * (covs[0] + covs[0].conj().T)
    product = np.maximum(np.add.reduce(A[0].conj() * (R @ A[0]), axis=0).real / 64, 0.0)
    for dictionary in (A[0], dic):
        assert cbf_spectrum(covs[0], dictionary).power.tobytes() == product.tobytes()
    folded, _ = fixed_grid_powers("cbf", covs, A, geometry=geometry)
    assert folded.tobytes() != product.tobytes()


def test_cbf_rejects_a_geometry_of_another_size():
    covs, A = _cbf_stack(np.random.default_rng(3), uniform_line_array(4), 2, 9,
                         "broadside")
    with pytest.raises(ConfigError, match="a steering stack of 4 rows for a "
                                          "5-element geometry"):
        fixed_grid_powers("cbf", covs, A, geometry=uniform_line_array(5))


@pytest.mark.parametrize("name", ["cbf", "music", "spice", "qspice"])
def test_fixed_grid_powers_check_every_problem(name):
    A = np.exp(-1j * np.pi * np.arange(4)[:, None] * np.sin(np.linspace(-1, 1, 5)))
    A = np.stack([A] * 3)
    covs = np.stack([np.eye(4, dtype=complex)] * 3)
    nan_bin = covs.copy()
    nan_bin[2, 1, 0] = np.nan
    with pytest.raises(ConfigError, match="input data must be finite"):
        fixed_grid_powers(name, nan_bin, A, 1)
    zero_bin = covs.copy()
    zero_bin[1] = 0.0
    with pytest.raises(DegenerateInputError, match="non-positive trace"):
        fixed_grid_powers(name, zero_bin, A, 1)
    with pytest.raises(ConfigError, match="covariances of shape"):
        fixed_grid_powers(name, covs[:2], A, 1)
    with pytest.raises(ConfigError, match="not a fixed-grid estimator"):
        fixed_grid_powers("gnr2", covs, A, 1)


def test_spice_weights_convention():
    a = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    r_hat = 2.0 * np.eye(2, dtype=complex)
    model = _Model(r_hat, a)
    assert_allclose(model.w_p, [[2.0 / 4.0, 2.0 / 4.0]])   # ||a_g||^2 / tr
    assert_allclose(model.w_s, [[0.25, 0.25]])             # 1 / tr


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(r=0.5)
    with pytest.raises(ConfigError):
        SolverConfig(q=2.5)
    with pytest.raises(ConfigError):
        SolverConfig(q=0.9)
    with pytest.raises(ConfigError):
        SolverConfig(max_iter=0)


def test_degenerate_covariance_rejected():
    a = np.ones((3, 4), dtype=complex)
    with pytest.raises(DegenerateInputError):
        qspice_solve(np.zeros(3, dtype=complex), a)
    with pytest.raises(DegenerateInputError):
        qspice_solve(np.zeros((3, 3), dtype=complex), a)
    with pytest.raises(ConfigError):
        qspice_solve(np.full((3, 3), np.nan + 0j), a)


def test_dictionary_shape_mismatch_rejected():
    a = np.ones((3, 4), dtype=complex)
    with pytest.raises(ConfigError):
        qspice_solve(np.eye(4, dtype=complex), a)


def test_cbf_flat_for_identity_covariance():
    geom = uniform_line_array(5, spacing=0.25)
    dic = build_dictionary(geom, 3000.0, (-60.0, 60.0), 1.0)
    spec = cbf_spectrum(np.eye(5, dtype=complex), dic)
    assert spec.estimator == "cbf"
    assert_allclose(spec.power, 1.0 / 5.0, atol=1e-12)


def test_music_recovers_on_grid_sources():
    geom = uniform_line_array(12, spacing=0.25)
    dic = build_dictionary(geom, 3000.0, (-90.0, 90.0), 0.5)
    truth = np.array([-20.0, 14.5])
    idx = [int(np.argmin(np.abs(dic.angles - t))) for t in truth]
    a_true = dic.matrix[:, idx]
    r = a_true @ a_true.conj().T + 0.01 * np.eye(12)
    spec = music_spectrum(r, dic, 2)
    est = peak_pick(spec, 2)
    assert len(est) == 2
    assert_allclose(est, truth, atol=1e-9)


def test_music_k_validation():
    geom = uniform_line_array(4, spacing=0.25)
    dic = build_dictionary(geom, 3000.0, (-10.0, 10.0), 1.0)
    with pytest.raises(ConfigError):
        music_spectrum(np.eye(4, dtype=complex), dic, 0)
    with pytest.raises(ConfigError):
        music_spectrum(np.eye(4, dtype=complex), dic, 4)
    with pytest.raises(ConfigError, match="got None"):
        music_spectrum(np.eye(4, dtype=complex), dic, None)


def _spectrum(power, start=0.0, step=1.0):
    power = np.asarray(power, dtype=float)
    angles = start + step * np.arange(power.size)
    return SpatialSpectrum(angles, power, "test")


def test_peak_pick_plateau_takes_left_edge():
    est = peak_pick(_spectrum([1.0, 2.0, 2.0, 1.0]), 1)
    assert len(est) == 1
    assert_allclose(est, [1.0])


def test_peak_pick_equal_peaks_sorted_by_angle():
    est = peak_pick(_spectrum([0, 3, 0, 3, 0]), 2)
    assert len(est) == 2
    assert_allclose(est, [1.0, 3.0])


def test_peak_pick_guard_suppresses_near_duplicates():
    spec = _spectrum([0, 5, 4.9, 0, 0, 3, 0], step=0.5)
    est = peak_pick(spec, 2, guard_deg=1.0)
    assert len(est) == 2
    assert_allclose(est, [0.5, 2.5])


def test_peak_pick_shortfall_flag():
    est = peak_pick(_spectrum([0, 1, 0, 0]), 2)
    assert len(est) < 2
    assert_allclose(est, [1.0])


@settings(max_examples=300)
@given(power=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, -np.inf]), min_size=1,
                     max_size=16),
       k=st.integers(1, 5), guard=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]))
def test_pick_property(power, k, guard):
    # few distinct heights draw plateaus and ties; -inf masks entries as the
    # refinement rounds do
    power = np.array(power)
    angles = np.arange(power.size, dtype=float)
    picks = _pick(power, angles, k, guard)
    n = power.size
    peaks = [i for i in range(n) if np.isfinite(power[i])
             and (i == 0 or power[i] > power[i - 1])
             and (i == n - 1 or power[i] >= power[i + 1])]
    chosen = [int(i) for i in np.searchsorted(angles, picks)]
    assert set(chosen) <= set(peaks)
    assert all(abs(a - b) >= guard for a in picks for b in picks if a != b)
    assert len(picks) <= k
    for j in set(peaks) - set(chosen):
        near = [c for c in chosen if abs(angles[j] - angles[c]) < guard]
        # with picks to spare, only the guard leaves a peak out
        assert near or len(picks) == k
        # a higher peak could have replaced pick i unless another pick guards it
        assert all(any(c != i for c in near) for i in chosen if power[j] > power[i])


def test_peak_pick_validation():
    with pytest.raises(ConfigError):
        peak_pick(_spectrum([0, 1, 0]), 0)
    with pytest.raises(ConfigError):
        peak_pick(_spectrum([0, 1, 0]), 1, guard_deg=-1.0)


def test_spatial_spectrum_db_floor():
    spec = _spectrum([1.0, 0.0])
    db = spec.power_db
    assert db[0] == 0.0
    assert np.isfinite(db[1])


@pytest.mark.parametrize("call, message", [
    (lambda: SolverConfig(rel_tol=0.0), "rel_tol must be a positive finite number, got 0.0"),
    (lambda: SolverConfig(rel_tol=np.inf),
     "rel_tol must be a positive finite number, got inf"),
    (lambda: SolverConfig(r=np.inf), "signal norm order r must be finite and >= 1 (convexity)"),
    (lambda: SolverConfig(max_iter=2.5), "max_iter must be an integer, got 2.5"),
    (lambda: SolverConfig(max_iter=True), "max_iter must be an integer, got True"),
    (lambda: check_estimator("qspice", 1.5), "source count k must be an integer, got 1.5"),
    (lambda: peak_pick(_spectrum([0, 1, 0, 1, 0]), 1.5),
     "peak count must be an integer, got 1.5"),
    (lambda: SpatialSpectrum(np.zeros(3), np.zeros(2)),
     "angle grid and power must have matching shapes"),
    (lambda: SpatialSpectrum(np.zeros(2), np.array([1.0, np.nan])),
     "spectrum power must be finite"),
    (lambda: qspice_solve(np.eye(2), np.ones(3)),
     "dictionary must be an M x G matrix or a P x M x G stack"),
    (lambda: qspice_solve(np.ones(3), np.ones((2, 4))), "snapshot length 3 != array size 2"),
    (lambda: objective_value(np.ones((2, 4)), np.ones((2, 2)),
                             np.stack([np.eye(2)] * 2), np.ones((2, 4))),
     "the objective is evaluated for one problem, not a stack"),
], ids=["rel-tol", "rel-tol-inf", "r-inf", "max-iter-float", "max-iter-bool",
        "estimator-k-float", "peak-count-float", "spectrum-shapes", "spectrum-not-finite", "dictionary-ndim",
        "snapshot-length", "objective-of-a-stack"])
def test_each_rejection_states_its_rule(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert str(err.value) == message
