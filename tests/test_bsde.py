import dataclasses
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geodp.bsde import (
    BsdeSolution,
    Driver,
    RegressionBasis,
    TerminalCost,
    _regress,
    backward_sweep,
    comparison_check,
    conditional_expectation,
    semigroup,
    solve_backward,
    stability_check,
)
from geodp.catalog import get_driver, get_terminal
from geodp.dynamics import BrownianGrid, TimeGrid, constant_policy, simulate
from geodp.errors import ComparisonViolated, ContractionViolated
from geodp.geometry import Circle, get_field


def _ensemble(n_steps=32, n_paths=4096, seed=0, T=1.0, sigma=1.0, antithetic=False):
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    grid = TimeGrid(0.0, T, n_steps)
    noise = BrownianGrid(grid=grid, d=1, n_paths=n_paths, seed=seed, antithetic=antithetic)
    return simulate(m, fields, np.array([1.0, 0.0]), constant_policy([0.0, sigma]), noise)


BASIS = RegressionBasis(degree=2)


def test_regression_basis_features():
    b = RegressionBasis(degree=2)
    X = np.array([[2.0, 3.0]])
    F = b.features(X)
    assert F.shape == (1, b.feature_count(2))
    np.testing.assert_allclose(F[0], [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])


def test_conditional_expectation_recovers_basis_function():
    rng = np.random.default_rng(0)
    th = rng.uniform(0, 2 * np.pi, size=2000)
    X = np.stack([np.cos(th), np.sin(th)], axis=-1)
    R = (2.0 * X[:, 0] ** 2 - X[:, 1] + 0.5)[:, None]
    pred = conditional_expectation(X, R, BASIS)
    np.testing.assert_allclose(pred[:, 0], R[:, 0], atol=1e-9)


def test_conditional_expectation_degenerate_layer_averages():
    X = np.ones((100, 2))
    R = np.arange(100.0)[:, None]
    pred = conditional_expectation(X, R, BASIS)
    np.testing.assert_allclose(pred[:, 0], np.mean(R))


def test_zero_driver_constant_terminal():
    ens = _ensemble(antithetic=True)
    sol = solve_backward(ens, get_driver("zero"), get_terminal("constant", {"c": 2.5}), BASIS)
    np.testing.assert_allclose(sol.Y, 2.5, atol=1e-12)
    # the start layer is degenerate and antithetic increments mean to zero, so
    # the first Z estimate vanishes exactly; later layers carry regression noise
    np.testing.assert_allclose(sol.Z[0], 0.0, atol=1e-12)
    assert sol.y_at_t0 == pytest.approx(2.5)


def test_constant_driver_integrates_in_time():
    """f = c, Phi = 0: Y_t = c (T - t) exactly at every layer."""
    ens = _ensemble(n_steps=16, n_paths=1024)
    c = 0.7
    sol = solve_backward(ens, get_driver("constant", {"c": c}), get_terminal("constant", {"c": 0.0}), BASIS)
    times = ens.grid.times
    for i in range(17):
        np.testing.assert_allclose(sol.Y[i], c * (1.0 - times[i]), atol=1e-10)


def test_linear_driver_matches_ode():
    """f = -beta y + c, Phi = y_T: the deterministic ODE solution."""
    beta, c, yT = 0.8, 0.3, 1.5
    ens = _ensemble(n_steps=256, n_paths=512)
    sol = solve_backward(
        ens, get_driver("linear_y", {"beta": beta, "c": c}),
        get_terminal("constant", {"c": yT}), BASIS, picard_iters=6,
    )
    # y' = beta y - c backward from y(T) = yT
    exact = (yT - c / beta) * np.exp(-beta * 1.0) + c / beta
    assert abs(sol.y_at_t0 - exact) < 2e-3  # first-order-in-dt scheme


def test_martingale_consistency_zero_driver():
    ens = _ensemble(n_steps=32, n_paths=4096, seed=3)
    sol = solve_backward(ens, get_driver("zero"), get_terminal("coord"), BASIS)
    # at the deterministic start the regression reduces to the plain mean
    assert abs(sol.y_at_t0 - float(np.mean(prob_phi(ens)))) < 5e-3
    # Y at the common start has no dispersion
    assert float(np.std(sol.Y[0])) <= 5e-3 * (1.0 + abs(sol.y_at_t0))


def prob_phi(ens):
    return ens.states[-1, :, 0]


def test_contraction_guard():
    ens = _ensemble(n_steps=4, n_paths=64)  # dt = 0.25
    stiff = Driver(f=lambda t, x, y, z, v: -5.0 * y, lipschitz_K=5.0, bound_K0=0.0)
    with pytest.raises(ContractionViolated):
        solve_backward(ens, stiff, get_terminal("constant"), BASIS)


def test_semigroup_reductions():
    ens = _ensemble(n_steps=8, n_paths=2048, seed=1)
    eta = ens.states[-1, :, 0]
    # zero driver: semigroup = sample mean of eta (within regression noise)
    val = semigroup(ens, get_driver("zero"), BASIS, eta)
    assert abs(val - float(np.mean(eta))) < 5e-3
    # a zero-length window is no grid
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 0)


def test_semigroup_nesting():
    """Full-horizon value equals the window value applied to the regressed
    continuation payoff, within Monte Carlo tolerance."""
    ens = _ensemble(n_steps=32, n_paths=8192, seed=5, antithetic=True)
    driver = get_driver("linear_y", {"beta": 0.5, "c": 0.2})
    terminal = get_terminal("coord")
    full = solve_backward(ens, driver, terminal, BASIS).y_at_t0
    # solve the tail on [t_16, T] along the same paths, then the head window
    tail_sol = solve_backward(ens, driver, terminal, BASIS)
    eta = tail_sol.Y[16]
    head_states = ens.states[: 16 + 1]
    from geodp.bsde import backward_sweep

    head = backward_sweep(
        head_states,
        ens.noise.increments[:16],
        ens.grid.window(0, 16),
        lambda i, xx, y, z: driver(ens.grid.times[i], xx, y, z, ens.policy(i, xx)),
        eta,
        BASIS,
    )
    assert abs(head.y_at_t0 - full) < 5e-3


def test_stability_closed_form_pair():
    """Zero driver, constant terminals, frozen dynamics (sigma = 0) with
    antithetic noise: Z vanishes exactly, so lhs and rhs are computable by hand."""
    ens = _ensemble(n_steps=16, n_paths=256, seed=2, T=0.5, sigma=0.0, antithetic=True)
    n_steps, n_paths = 16, 256
    xi = np.stack([np.ones(n_paths), np.zeros(n_paths)])
    phi = np.zeros((2, n_steps, n_paths))
    pair = solve_backward(ens, get_driver("zero"), lambda x: xi, BASIS)
    rep = stability_check(pair, xi, phi, C_L=0.0)
    assert rep.beta0 == 16.0
    # dY = 1 and dZ = 0 everywhere: lhs = 1 + 0.5 * sum w_i dt; rhs = e^{8}
    w = np.exp(16.0 * (ens.grid.times[:-1] - 0.0))
    lhs_exact = 1.0 + 0.5 * np.sum(w) * ens.grid.dt
    assert rep.lhs == pytest.approx(lhs_exact, rel=1e-12)
    assert rep.rhs == pytest.approx(np.exp(16.0 * 0.5), rel=1e-12)
    assert rep.passed


def _random_pair(ens, r):
    """A randomized stability instance on ``ens``: the lockstep pair, its
    terminal values xi (2, N), perturbations phi (2, n_steps, N) and C_L."""
    C_L = float(r.uniform(0.1, 1.0))
    a = C_L * float(r.uniform(0.0, 1.0))
    b = C_L - a
    coef = r.uniform(-1, 1, size=(2, ens.states.shape[-1]))
    xi = np.stack([ens.states[-1] @ coef[0], ens.states[-1] @ coef[1]])
    p1, p2 = r.uniform(-1, 1, size=2)
    phi = np.stack([p1 * ens.states[:-1, :, 0], p2 * ens.states[:-1, :, 1]])

    def driver(i, xx, y, z):
        return a * np.sin(y) + b * np.tanh(z[..., 0]) + phi[:, i]

    pair = backward_sweep(ens.states, ens.noise.increments, ens.grid, driver, xi, BASIS)
    return pair, xi, phi, C_L


def test_stability_randomized_instances():
    ens = _ensemble(n_steps=32, n_paths=2048, seed=9, T=0.5)
    r = np.random.default_rng(7)
    for _ in range(10):
        pair, xi, phi, C_L = _random_pair(ens, r)
        rep = stability_check(pair, xi, phi, C_L)
        assert rep.passed


def test_comparison_and_bounds():
    ens = _ensemble(n_steps=32, n_paths=2048, seed=4)
    driver = get_driver("linear_y", {"beta": 0.5, "c": 0.0})
    low_high = np.stack([np.full(ens.n_paths, -1.0), np.full(ens.n_paths, 1.0)])
    pair = solve_backward(ens, driver, lambda x: low_high, BASIS)
    assert comparison_check(pair)
    with pytest.raises(ComparisonViolated):
        comparison_check(dataclasses.replace(pair, Y=pair.Y[::-1]), tol=1e-6)
    # a priori bound |Y| <= e^{K(T-t)} (|Phi|_inf + K0 (T-t))
    K = driver.lipschitz_K
    bound = np.exp(K * 1.0) * (1.0 + 0.0)
    assert np.max(np.abs(pair.Y[1])) <= bound + 1e-8


_LOCKSTEP_FIELDS = {
    "circle": ["zero", "rot"],
    "sphere2": ["zero", "rot_x", "rot_z"],
    "torus2": ["zero", "rot1", "rot2"],
}


def _lockstep_members(name, n_paths=512, n_steps=8):
    """An ensemble on ``name`` and three sweeps on it: terminal values and
    per-member drivers, plus the stacked driver of all three."""
    from geodp.geometry import get_manifold

    m = get_manifold(name)
    fields = [get_field(m, f) for f in _LOCKSTEP_FIELDS[name]]
    d = len(fields) - 1
    grid = TimeGrid(0.0, 0.5, n_steps)
    noise = BrownianGrid(grid=grid, d=d, n_paths=n_paths, seed=17)
    x0 = m.project(np.arange(1.0, m.ambient_dim + 1.0))
    ens = simulate(m, fields, x0, constant_policy(np.ones(d + 1)), noise)
    r = np.random.default_rng(3)
    coef = r.uniform(-1.0, 1.0, size=(3, m.ambient_dim))
    terminal = ens.states[-1] @ coef.T  # (N, 3)
    a, b, c = r.uniform(-1.0, 1.0, size=(3, 3, 1))

    def member(k):
        return lambda i, x, y, z: a[k] * np.sin(y) + b[k] * np.tanh(z[:, 0]) + c[k] * x[:, 0]

    def stacked(i, x, y, z):
        return a * np.sin(y) + b * np.tanh(z[..., 0]) + c * x[:, 0]

    return ens, [terminal[:, k] for k in range(3)], [member(k) for k in range(3)], stacked


def _assert_lockstep_equals_separate(ens, terminals, drivers, stacked):
    from geodp.bsde import backward_sweep

    args = (ens.states, ens.noise.increments, ens.grid)
    sol = backward_sweep(*args, stacked, np.stack(terminals), BASIS)
    assert sol.Y.shape == (3,) + ens.states.shape[:2]
    assert sol.Z.shape == (3, ens.grid.n_steps, ens.n_paths, ens.noise.d)
    residual = 0.0
    for k, (yT, fn) in enumerate(zip(terminals, drivers)):
        one = backward_sweep(*args, fn, yT, BASIS)
        np.testing.assert_array_equal(sol.Y[k], one.Y)
        np.testing.assert_array_equal(sol.Z[k], one.Z)
        assert sol.y_at_t0[k] == one.y_at_t0
        residual = max(residual, one.picard_residual)
    assert sol.picard_residual == residual


@pytest.mark.parametrize("name", sorted(_LOCKSTEP_FIELDS))
def test_lockstep_sweep_equals_separate_sweeps(name):
    """Stacked sweeps share one regression per step and still equal their own
    sweeps bit for bit; the start layer is degenerate, so it is the plain average."""
    ens, terminals, drivers, stacked = _lockstep_members(name)
    assert np.all(ens.states[0] == ens.states[0, 0])
    _assert_lockstep_equals_separate(ens, terminals, drivers, stacked)


def _stability_check_ref(sol1, sol2, xi1, xi2, phi1, phi2, C_L):
    """The former two-solution stability formula: (lhs, rhs, beta0)."""
    beta0 = 16.0 * (1.0 + C_L**2)
    grid = sol1.grid
    dt = grid.dt
    t = grid.times
    horizon = grid.T - grid.t0
    dY = sol1.Y - sol2.Y
    dZ = sol1.Z - sol2.Z
    w = np.exp(beta0 * (t[:-1] - grid.t0))
    integrand = dY[:-1] ** 2 + np.sum(dZ**2, axis=-1)
    lhs = float(
        (sol1.y_at_t0 - sol2.y_at_t0) ** 2
        + 0.5 * np.mean(np.sum(w[:, None] * integrand, axis=0) * dt)
    )
    dxi = np.asarray(xi1, dtype=float) - np.asarray(xi2, dtype=float)
    dphi = np.asarray(phi1, dtype=float) - np.asarray(phi2, dtype=float)
    rhs = float(
        np.mean(dxi**2) * np.exp(beta0 * horizon)
        + np.mean(np.sum(w[:, None] * dphi**2, axis=0) * dt)
    )
    return lhs, rhs, beta0


@pytest.mark.parametrize("name", sorted(_LOCKSTEP_FIELDS))
def test_pair_stability_equals_former_two_solution_formula(name):
    """The pair check reads the two members of one lockstep sweep and gives
    the former formula's lhs, rhs and beta0 on the split solutions, bit for bit."""
    ens = _lockstep_members(name)[0]
    r = np.random.default_rng(11)
    for _ in range(4):
        pair, xi, phi, C_L = _random_pair(ens, r)
        sol1, sol2 = (
            BsdeSolution(pair.grid, pair.Y[j], pair.Z[j], float(pair.y_at_t0[j]), pair.picard_residual)
            for j in range(2)
        )
        rep = stability_check(pair, xi, phi, C_L)
        ref = _stability_check_ref(sol1, sol2, xi[0], xi[1], phi[0], phi[1], C_L)
        assert (rep.lhs, rep.rhs, rep.beta0) == ref


# Former implementations, kept as references for the rewritten sweep: one
# np.ones per feature column and an np.stack, the full degenerate-layer scan,
# and targets built by concatenate/transpose/reshape each step.


def _features_ref(basis, X):
    X = np.asarray(X, dtype=float)
    N, n = X.shape
    cols = [np.ones(N)]
    for deg in range(1, basis.degree + 1):
        for combo in combinations_with_replacement(range(n), deg):
            col = np.ones(N)
            for j in combo:
                col = col * X[:, j]
            cols.append(col)
    return np.stack(cols, axis=1)


def _conditional_expectation_ref(X, R, basis):
    R = np.atleast_2d(np.asarray(R, dtype=float).T).T
    spread = np.max(np.abs(X - X[0:1])) if X.shape[0] > 1 else 0.0
    if spread < 1e-12:
        mean = np.mean(R, axis=0)
        return np.broadcast_to(mean, R.shape).copy()
    return _regress(_features_ref(basis, X), R)


def _backward_sweep_ref(states, increments, grid, driver_fn, terminal_values, basis, picard_iters=3):
    terminal_values = np.asarray(terminal_values, dtype=float)
    batched = terminal_values.ndim == 2
    yT = terminal_values if batched else terminal_values[None]
    B = yT.shape[0]
    n_steps = grid.n_steps
    n_paths = states.shape[1]
    d = increments.shape[2] if n_steps > 0 else 0
    dt = grid.dt
    Y = np.empty((B, n_steps + 1, n_paths))
    Z = np.zeros((B, n_steps, n_paths, d))
    Y[:, n_steps] = yT
    residual = 0.0
    for i in range(n_steps - 1, -1, -1):
        X = states[i]
        dW = increments[i]
        y_next = Y[:, i + 1, :, None]
        R = np.concatenate([y_next, y_next * dW], axis=2).transpose(1, 0, 2)
        pred = _conditional_expectation_ref(X, R.reshape(n_paths, -1), basis)
        pred = pred.reshape(n_paths, B, 1 + d).transpose(1, 0, 2)
        y_bar = pred[:, :, 0]
        Z[:, i] = pred[:, :, 1:] / dt
        y = y_bar
        for _ in range(picard_iters):
            if batched:
                y_new = y_bar + dt * driver_fn(i, X, y, Z[:, i])
            else:
                y_new = y_bar + dt * driver_fn(i, X, y[0], Z[0, i])
            residual = max(residual, float(np.max(np.abs(y_new - y))))
            y = y_new
        Y[:, i] = y
    y_at_t0 = np.mean(Y[:, 0], axis=-1)
    if not batched:
        Y, Z, y_at_t0 = Y[0], Z[0], float(y_at_t0[0])
    return BsdeSolution(grid=grid, Y=Y, Z=Z, y_at_t0=y_at_t0, picard_residual=residual)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_features_equal_former_columns(n, degree):
    """Columns written in place are the former left-to-right products, bit
    for bit, and the matrix is C-ordered as np.stack made it."""
    X = np.random.default_rng(n + 10 * degree).uniform(-3.0, 3.0, size=(257, n))
    X[::7, 0] = -0.0
    X[3, -1] = 1e-200
    basis = RegressionBasis(degree=degree)
    F = basis.features(X)
    assert F.flags.c_contiguous
    np.testing.assert_array_equal(F, _features_ref(basis, X))
    assert np.array_equal(np.signbit(F), np.signbit(_features_ref(basis, X)))


def _layers():
    X = np.tile([0.6, 0.8], (64, 1))
    last = X.copy()
    last[-1, 1] += 1e-9
    middle = X.copy()
    middle[31, 0] -= 1e-9
    nan = X.copy()
    nan[17, 1] = np.nan
    return {"degenerate": X, "last_row": last, "middle_row": middle, "nan": nan}


@pytest.mark.parametrize("layer", ["degenerate", "last_row", "middle_row", "nan"])
def test_conditional_expectation_equals_full_scan(layer):
    """The last-row shortcut decides every layer as the full scan did: equal
    rows average, a row that differs (last or middle) regresses, and a NaN
    regresses too (on a NaN Gram matrix the eigendecomposition fails, which
    only the regression branch reaches)."""
    X = _layers()[layer]
    R = np.random.default_rng(5).standard_normal((X.shape[0], 3))
    if layer == "nan":
        for fn in (conditional_expectation, _conditional_expectation_ref):
            with pytest.raises(np.linalg.LinAlgError):
                fn(X, R, BASIS)
        return
    pred = conditional_expectation(X, R, BASIS)
    np.testing.assert_array_equal(pred, _conditional_expectation_ref(X, R, BASIS))
    assert np.all(pred == pred[0]) == (layer == "degenerate")


def _stability_drivers(ens, B):
    """The stability driver a sin y + b tanh z0 + phi_i of B members, as the
    former form and as the form that computes b tanh z0 once per step."""
    r = np.random.default_rng(B)
    a, b = r.uniform(0.1, 0.5, size=2)
    phi = r.uniform(-1.0, 1.0, size=(B, ens.grid.n_steps, ens.n_paths))
    if B == 1:
        phi = phi[0]

    def former(i, x, y, z):
        return a * np.sin(y) + b * np.tanh(z[..., 0]) + phi[..., i, :]

    tanh_step = [None, None]

    def once_per_step(i, x, y, z):
        if tanh_step[0] != i:
            tanh_step[:] = i, b * np.tanh(z[..., 0])
        return a * np.sin(y) + tanh_step[1] + phi[..., i, :]

    return former, once_per_step


@pytest.mark.parametrize("B", [1, 2])
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_LOCKSTEP_FIELDS))
def test_backward_sweep_equals_former_sweep(name, degree, B):
    """Targets filled in place, Z divided in place and the reused residual
    buffer give the former sweep's Y, Z, y_at_t0 and picard_residual bit for
    bit, single (B = 1, (N,) terminal) and lockstep (B = 2); a driver that
    computes its z term once per step changes nothing."""
    ens, terminals, _, _ = _lockstep_members(name, n_steps=6)  # dt = 1/12, not a power of 2
    yT = terminals[0] if B == 1 else np.stack(terminals[:B])
    basis = RegressionBasis(degree=degree)
    former, once_per_step = _stability_drivers(ens, B)
    args = (ens.states, ens.noise.increments, ens.grid)
    ref = _backward_sweep_ref(*args, former, yT, basis)
    for driver in (former, once_per_step):
        sol = backward_sweep(*args, driver, yT, basis)
        np.testing.assert_array_equal(sol.Y, ref.Y)
        np.testing.assert_array_equal(sol.Z, ref.Z)
        np.testing.assert_array_equal(sol.y_at_t0, ref.y_at_t0)
        assert type(sol.y_at_t0) is type(ref.y_at_t0)
        assert sol.picard_residual == ref.picard_residual


# The driver catalog: each id with its parameter names.
_CATALOG_DRIVERS = {"zero": (), "constant": ("c",), "linear_y": ("beta", "c"),
                    "smooth": ("c", "b", "beta")}


def test_zero_is_the_only_catalog_driver_that_vanishes():
    assert [did for did in sorted(_CATALOG_DRIVERS) if get_driver(did).vanishes] == ["zero"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_catalog_drivers_keep_their_declared_bounds(data):
    """For random parameters and inputs, |f| <= K0 + K(|y| + |z|) and
    |f(y, z) - f(y', z')| <= K(|y - y'| + |z - z'|), up to rounding: the
    grid solvers drop a driver whose K and K0 are both 0."""
    did = data.draw(st.sampled_from(sorted(_CATALOG_DRIVERS)))
    f = get_driver(did, {p: data.draw(st.floats(-10.0, 10.0)) for p in _CATALOG_DRIVERS[did]})
    n, n_x, d = (data.draw(st.integers(1, k)) for k in (8, 4, 3))
    finite = st.floats(-1e3, 1e3)
    t = data.draw(finite)
    x = data.draw(arrays(float, (n, n_x + 1), elements=finite))
    y, y2 = (data.draw(arrays(float, n, elements=finite)) for _ in range(2))
    z, z2 = (data.draw(arrays(float, (n, d), elements=finite)) for _ in range(2))
    v = data.draw(arrays(float, (n, d + 1), elements=finite))
    f1, f2 = f(t, x, y, z, v), f(t, x, y2, z2, v)
    rounding = 1e-12 * (1.0 + np.abs(f1) + np.abs(f2))
    K, K0 = f.lipschitz_K, f.bound_K0
    assert f1.shape == (n,)
    assert np.all(np.abs(f1) <= K0 + K * (np.abs(y) + np.linalg.norm(z, axis=1)) + rounding)
    assert np.all(np.abs(f1 - f2) <= K * (np.abs(y - y2) + np.linalg.norm(z - z2, axis=1)) + rounding)
    if f.vanishes:
        assert not np.any(f1) and not np.any(f2)
