import csv
import dataclasses
import os
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geodp import dynamics
from geodp.dynamics import (
    BrownianGrid,
    ControlSet,
    TimeGrid,
    constant_policy,
    euler_step,
    flow_continuity_check,
    grid_argmin,
    simulate,
)
from geodp.errors import GridMismatch, NonTangentField
from geodp.geometry import Circle, flow_step, get_field, get_manifold

from conftest import CATALOG, NON_TANGENT


def _noise(grid, d=1, n_paths=512, seed=0, antithetic=False):
    return BrownianGrid(grid=grid, d=d, n_paths=n_paths, seed=seed, antithetic=antithetic)


@pytest.mark.parametrize("per_node", [False, True], ids=["scalar", "per-node"])
@pytest.mark.parametrize(
    "column, best_k",
    [
        ([2.0, 1.0, 1.0], 1),  # exact tie: the first minimum
        ([0.5, -0.0, 0.0], 1),  # -0.0 and 0.0 compare equal: the first
        ([0.0, 0.0, -0.0], 0),
        ([1.0, np.nan, -5.0], 1),  # a NaN row is the minimum, not skipped
        ([-0.0], 0),  # one control: its own row, sign and NaN kept
        ([np.nan], 0),
    ],
)
def test_grid_argmin_ties_and_nan(per_node, column, best_k):
    column = np.array(column)
    # per node: the column at node 1, with a clear winner at nodes 0 and 2
    values = np.stack([[3.0, c, 0.0 + k] for k, c in enumerate(column)]) if per_node else column
    best, rows = grid_argmin(values)
    got, got_k = (best[1], rows[1]) if per_node else (best, rows)
    assert np.shape(best) == np.shape(rows) == values.shape[1:]
    assert got_k == best_k
    assert np.array_equal(got, column[best_k], equal_nan=True)
    assert np.signbit(got) == np.signbit(column[best_k])
    if per_node:
        assert best[0] == 3.0 and rows[0] == 0
        assert best[2] == 0.0 and rows[2] == 0


def test_time_grid_basics():
    g = TimeGrid(0.0, 1.0, 4)
    assert g.dt == 0.25
    np.testing.assert_allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    w = g.window(1, 3)
    assert w.t0 == 0.25 and w.T == 0.75 and w.n_steps == 2
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


def test_control_set_grid_lexicographic():
    cs = ControlSet(lower=np.array([0.0, 0.5]), upper=np.array([0.0, 1.0]), grid_points_per_axis=2)
    g = cs.grid()
    np.testing.assert_allclose(g, [[0.0, 0.5], [0.0, 1.0]])
    g3 = dataclasses.replace(cs, grid_points_per_axis=3).grid()
    np.testing.assert_allclose(g3[:, 1], [0.5, 0.75, 1.0])
    assert np.all((g3 >= cs.lower) & (g3 <= cs.upper))


def test_frozen_dynamics_zero_fields():
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "scale:0:rot")]
    x0 = np.array([0.0, 1.0])
    grid = TimeGrid(0.0, 1.0, 16)
    ens = simulate(m, fields, x0, constant_policy([1.0, 1.0]), _noise(grid))
    np.testing.assert_allclose(ens.states, np.broadcast_to(x0, ens.states.shape), atol=1e-14)


def test_pure_drift_rotation_order():
    """Zero diffusion + rotational drift integrates the circle ODE at first
    order or better: angle error decreases linearly (or faster) in dt."""
    m = Circle()
    fields = [get_field(m, "rot"), get_field(m, "scale:0:rot")]
    x0 = np.array([1.0, 0.0])
    errs = []
    for n in (32, 64, 128):
        grid = TimeGrid(0.0, 1.0, n)
        ens = simulate(m, fields, x0, constant_policy([1.0, 0.0]), _noise(grid, n_paths=1))
        end = ens.states[-1, 0]
        errs.append(np.linalg.norm(end - np.array([np.cos(1.0), np.sin(1.0)])))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[0] / errs[2] > 3.0  # at least ~first order over a 4x refinement


def test_on_manifold_all_catalog_manifolds():
    cases = [
        ("circle", ["zero", "rot"], [1.0, 0.0]),
        ("sphere2", ["zero", "rot_z", "rot_x"], [1.0, 0.0, 0.0]),
        ("torus2", ["zero", "rot1", "rot2"], [1.0, 0.0, 1.0, 0.0]),
    ]
    for name, fids, x0 in cases:
        m = get_manifold(name)
        fields = [get_field(m, f) for f in fids]
        d = len(fields) - 1
        grid = TimeGrid(0.0, 1.0, 64)
        ens = simulate(
            m, fields, np.array(x0), constant_policy([0.0] + [1.0] * d),
            _noise(grid, d=d, n_paths=256, seed=3),
        )
        assert ens.constraint_violation() <= 1e-9


def test_circle_diffusion_oracle():
    """E cos(theta_T - theta_0) = exp(-sigma^2 T / 2) for pure rotational noise."""
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    x0 = np.array([1.0, 0.0])
    grid = TimeGrid(0.0, 1.0, 64)
    ens = simulate(m, fields, x0, constant_policy([0.0, 1.0]), _noise(grid, n_paths=8192, seed=7))
    est = float(np.mean(ens.states[-1, :, 0]))
    ref = np.exp(-0.5)
    se = float(np.std(ens.states[-1, :, 0], ddof=1) / np.sqrt(8192))
    assert abs(est - ref) <= 3.0 * se + 0.01  # 0.01 covers the O(dt) scheme bias


_catalog_manifold = st.sampled_from(sorted(CATALOG))

# Drift field first, then the diffusion fields, and a start point.
STEP_CASES = {
    "circle": (["zero", "rot"], [1.0, 0.0]),
    "sphere2": (["rot_x", "rot_z", "rot_y"], [0.6, 0.0, 0.8]),
    "torus2": (["const_angle:0.3", "rot1", "rot2"], [1.0, 0.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_chunk_partition_invariance(monkeypatch, name):
    """Paths are stepped chunk by chunk; the states must not depend on the chunk size."""
    fids, x0 = STEP_CASES[name]
    m = get_manifold(name)
    fields = [get_field(m, f) for f in fids]
    d = len(fields) - 1
    grid = TimeGrid(0.0, 0.5, 16)
    noise = _noise(grid, d=d, n_paths=5000, seed=11)
    policy = constant_policy([0.5] + [1.0] * d)
    ref = simulate(m, fields, np.array(x0), policy, noise).states
    for chunk in (1000, 5000, 7):
        monkeypatch.setattr(dynamics, "CHUNK", chunk)
        states = simulate(m, fields, np.array(x0), policy, noise).states
        np.testing.assert_array_equal(states, ref, err_msg=f"CHUNK={chunk}")


@pytest.mark.parametrize("name", ["sphere2", "torus2"])
def test_euler_step_broadcast_matches_path_steps(name):
    """Stepping every node with every shared sample under one broadcast control
    equals stepping the (node, sample) pairs with a control per path."""
    m = get_manifold(name)
    fields = [get_field(m, f) for f in STEP_CASES[name][0]]
    d = len(fields) - 1
    nodes = m.random_points(6, np.random.default_rng(0))
    dW = 0.1 * np.random.default_rng(1).standard_normal((5, d))
    v = np.array([0.4, 0.7, 1.2])
    X = np.repeat(nodes.T, 5, axis=1)
    dW_cols = np.tile(dW.T, 6)
    out = euler_step(m, fields, 0.01, X, v[:, None], dW_cols).T.reshape(6, 5, -1)
    assert out.shape == (6, 5, m.ambient_dim)
    paths = euler_step(m, fields, 0.01, X, np.tile(v[:, None], (1, 30)), dW_cols).T
    np.testing.assert_array_equal(out.reshape(30, -1), paths)


@pytest.mark.parametrize("name", sorted(STEP_CASES))
def test_euler_step_matches_broadcast_jacobian_reference(name):
    """The matmul step equals the former formulation, which broadcast each
    field's Jacobian A to every point and contracted it with V(x) by einsum."""
    m = get_manifold(name)
    fields = [get_field(m, f) for f in STEP_CASES[name][0]]
    d = len(fields) - 1
    rng = np.random.default_rng(2)
    X = m.random_points(2048, rng)
    v = rng.uniform(0.0, 1.5, size=(2048, d + 1))
    dW = 0.1 * rng.standard_normal((2048, d))
    drift = v[:, 0:1] * fields[0](X)
    for a in range(1, d + 1):
        J = np.broadcast_to(fields[a].A, X.shape + (m.ambient_dim,)).copy()
        DV = np.einsum("...ij,...j->...i", J, fields[a](X))
        drift = drift + 0.5 * v[:, a : a + 1] ** 2 * DV
    Y = X + 0.01 * drift
    for a in range(1, d + 1):
        Y = Y + v[:, a : a + 1] * fields[a](X) * dW[:, a - 1 : a]
    got = euler_step(m, fields, 0.01, np.ascontiguousarray(X.T), v.T, dW.T).T
    np.testing.assert_array_equal(got, m.project(Y))


def _row_major_step(m, fields, dt, X, v, dW):
    """The path-major step that the coordinate-major kernel replaced: X A^T per
    field, broadcasting over the leading axes of X (..., n), v (..., d+1) and
    dW (..., d), and each factor divided by its np.linalg.norm."""
    W = [X @ f.A.T for f in fields]
    drift = v[..., 0:1] * W[0]
    for a in range(1, len(fields)):
        drift = drift + 0.5 * v[..., a : a + 1] ** 2 * (W[a] @ fields[a].A.T)
    Y = X + dt * drift
    for a in range(1, len(fields)):
        Y = Y + v[..., a : a + 1] * W[a] * dW[..., a - 1 : a]
    parts = np.split(Y, np.cumsum(m.factor_dims)[:-1], axis=-1)
    return np.concatenate([q / np.linalg.norm(q, axis=-1, keepdims=True) for q in parts], axis=-1)


@pytest.mark.parametrize("name, fid", [(name, fid) for name in sorted(CATALOG) for fid in CATALOG[name]])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_coordinate_major_step_equals_row_major_reference(name, fid, data):
    """The coordinate-major step is bit-equal to the row-major one, for each
    catalog field among random others, with a control per path (as simulate
    steps feedback policies) and with one control for all (node, rule point)
    columns (as value_function steps them)."""
    m = get_manifold(name)
    fids = data.draw(st.lists(st.sampled_from(CATALOG[name]), max_size=3), label="other fields")
    fids.insert(data.draw(st.integers(0, len(fids)), label="position"), fid)
    fields = [get_field(m, f) for f in fids]
    d = len(fields) - 1
    dt = data.draw(st.floats(1e-4, 0.1), label="dt")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    X = m.random_points(data.draw(st.integers(1, 64), label="n_points"), rng)
    X = X + 0.1 * rng.standard_normal(X.shape)  # near, not on, the manifold
    if data.draw(st.booleans(), label="per_path"):
        v = np.concatenate([X[:, :1], rng.uniform(-2.0, 2.0, (len(X), d))], axis=1)
        dW = np.sqrt(dt) * rng.standard_normal((len(X), d))
        want = _row_major_step(m, fields, dt, X, v, dW)
        got = euler_step(m, fields, dt, np.ascontiguousarray(X.T), v.T, dW.T).T
    else:
        v = rng.uniform(-2.0, 2.0, d + 1)
        dW = np.sqrt(dt) * rng.standard_normal((3**d, d))
        want = _row_major_step(m, fields, dt, X[:, None, :], v, dW[None])
        cols = euler_step(m, fields, dt, np.repeat(X.T, len(dW), axis=1), v[:, None], np.tile(dW.T, len(X)))
        got = cols.T.reshape(want.shape)
    np.testing.assert_array_equal(got, want)


def test_noise_dimension_mismatch():
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(GridMismatch):
        simulate(m, fields, np.array([1.0, 0.0]), constant_policy([0.0, 1.0]), _noise(grid, d=2))


def test_uncertified_diffusion_field_rejected():
    """A non-skew matrix and a torus matrix coupling the two factors fail the
    exact tangency check, so simulate refuses them as diffusion fields."""
    for name, bad in NON_TANGENT:
        m = get_manifold(name)
        fields = [get_field(m, "zero"), bad]
        x0 = m.project(np.ones(m.ambient_dim))
        with pytest.raises(NonTangentField, match=bad.id):
            simulate(m, fields, x0, constant_policy([0.0, 1.0]), _noise(TimeGrid(0.0, 1.0, 8)))


def test_feedback_policy_applied():
    m = Circle()
    fields = [get_field(m, "rot"), get_field(m, "scale:0:rot")]
    def policy(i, X):  # drive with speed = first coordinate (feedback), deterministic
        return np.stack([X[:, 0], np.zeros(X.shape[0])], axis=1)

    grid = TimeGrid(0.0, 0.5, 64)
    ens = simulate(m, fields, np.array([1.0, 0.0]), policy, _noise(grid, n_paths=2))
    v = np.stack([policy(i, ens.states[i]) for i in range(grid.n_steps)])
    assert v.shape == (64, 2, 2)
    np.testing.assert_allclose(v[0, :, 0], 1.0)
    # the state moved, so later feedback controls differ from the first
    assert abs(v[-1, 0, 0] - 1.0) > 1e-3


@pytest.mark.parametrize("name", ["circle", "sphere2", "torus2"])
def test_constant_policy_is_a_read_only_view(name):
    """A constant policy hands out one read-only (N, d+1) view of its control,
    the same object while N stays the same, and simulates exactly like a
    feedback policy that returns fresh copies."""
    m = get_manifold(name)
    fields = [get_field(m, f) for f in CATALOG[name][:3]]
    v = np.linspace(0.5, 1.0, len(fields))
    const = constant_policy(v)
    X = np.ones((7, m.ambient_dim))
    vals = const(0, X)
    assert vals.shape == (7, len(fields)) and not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0, 0] = 0.0
    v[0] = -1.0  # the policy keeps its own copy of v
    assert const(3, X) is vals
    np.testing.assert_array_equal(vals, np.broadcast_to(np.linspace(0.5, 1.0, len(fields)), vals.shape))
    other = const(3, X[:4])
    assert other.shape == (4, len(fields)) and not other.flags.writeable
    assert const(5, X[:4]) is other

    def copies(i, X):
        return np.tile(np.linspace(0.5, 1.0, len(fields)), (X.shape[0], 1))

    noise = _noise(TimeGrid(0.0, 0.5, 16), d=len(fields) - 1, n_paths=300, seed=8)
    x0 = m.project(np.arange(1.0, m.ambient_dim + 1.0))
    np.testing.assert_array_equal(
        simulate(m, fields, x0, const, noise).states,
        simulate(m, fields, x0, copies, noise).states,
    )


def test_flow_continuity_shared_noise():
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    grid = TimeGrid(0.0, 1.0, 32)
    noise = _noise(grid, n_paths=1024, seed=5)
    x = np.array([1.0, 0.0])
    x2 = m.exp(x, np.array([0.0, 0.1]))
    pol = constant_policy([0.0, 1.0])
    rep = flow_continuity_check(m, fields, x, x2, pol, pol, noise, C=50.0)
    assert rep.passed
    # identical starts and controls: both sides vanish
    rep0 = flow_continuity_check(m, fields, x, x, pol, pol, noise, C=50.0)
    assert rep0.lhs == 0.0 and rep0.rhs == 0.0


def _flow_case(name, n_paths):
    """Two nearby starts, a constant policy and a state-feedback policy, so that
    both the state and the control term of the flow check are nonzero."""
    fids, x0 = STEP_CASES[name]
    m = get_manifold(name)
    fields = [get_field(m, f) for f in fids]
    d = len(fields) - 1
    x = np.array(x0)
    x2 = m.exp(x, 0.1 * m.tangent_project(x, np.ones(m.ambient_dim)))
    pol = constant_policy([0.5] + [1.0] * d)

    def pol2(i, X):
        return np.concatenate([0.5 + 2.0 * X[:, :1], np.ones((X.shape[0], d))], axis=1)

    noise = _noise(TimeGrid(0.0, 0.5, 16), d=d, n_paths=n_paths, seed=17, antithetic=True)
    return m, fields, x, x2, pol, pol2, noise


@lru_cache(maxsize=None)
def _flow_reference(name, n_paths):
    """lhs and rhs of the flow check from whole-ensemble simulations, with the
    formulas the check used before it streamed path blocks."""
    m, fields, x, x2, pol, pol2, noise = _flow_case(name, n_paths)
    ens1 = simulate(m, fields, x, pol, noise)
    ens2 = simulate(m, fields, x2, pol2, noise)
    diff2 = np.sum((ens1.states - ens2.states) ** 2, axis=-1)
    lhs = float(np.mean(np.max(diff2, axis=0)))
    v1 = np.stack([pol(i, ens1.states[i]) for i in range(noise.grid.n_steps)])
    v2 = np.stack([pol2(i, ens2.states[i]) for i in range(noise.grid.n_steps)])
    ctrl_term = float(np.mean(np.sum(np.sum((v1 - v2) ** 2, axis=-1), axis=0) * noise.grid.dt))
    rhs = 50.0 * (float(np.sum((x - x2) ** 2)) + ctrl_term)
    return lhs, rhs


@settings(max_examples=40, deadline=None)
@given(
    n_paths=st.integers(1, 200),
    data=st.data(),
    d=st.integers(1, 3),
    antithetic=st.booleans(),
)
def test_block_increments_equal_full_slice(n_paths, data, d, antithetic):
    """A block of paths generates its own increments, equal to the full grid's slice."""
    p0 = data.draw(st.integers(0, n_paths - 1), label="p0")
    p1 = data.draw(st.integers(p0 + 1, n_paths), label="p1")
    full = _noise(TimeGrid(0.0, 1.0, 5), d=d, n_paths=n_paths, seed=23, antithetic=antithetic)
    block = full.block(p0, p1)
    np.testing.assert_array_equal(block.increments, full.increments[:, p0:p1])
    # nested blocks keep absolute path indices
    q = (p1 - p0) // 2
    np.testing.assert_array_equal(block.block(q, p1 - p0).increments, full.increments[:, p0 + q : p1])


def test_brownian_increments_are_generated_on_first_read():
    noise = _noise(TimeGrid(0.0, 1.0, 4), n_paths=8)
    assert "increments" not in noise.__dict__
    inc = noise.increments
    assert noise.increments is inc


@pytest.mark.parametrize("name", sorted(STEP_CASES))
@settings(max_examples=30, deadline=None)
@given(n_paths=st.integers(2, 40), data=st.data())
def test_flow_continuity_chunk_invariance(name, n_paths, data):
    """The streamed flow check equals the whole-ensemble formulas for any CHUNK,
    including blocks of a single path."""
    chunk = data.draw(st.integers(1, n_paths), label="chunk")
    m, fields, x, x2, pol, pol2, noise = _flow_case(name, n_paths)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "CHUNK", chunk)
        rep = flow_continuity_check(m, fields, x, x2, pol, pol2, noise, C=50.0)
    lhs, rhs = _flow_reference(name, n_paths)
    assert rep.lhs == lhs and rep.rhs == rhs
    assert rep.lhs > 0.0 and rep.rhs > 50.0 * float(np.sum((x - x2) ** 2))


@pytest.mark.parametrize("n_paths", [1, dynamics.CHUNK, dynamics.CHUNK + 1])
@pytest.mark.parametrize("name", ["circle", "sphere2"])
def test_flow_continuity_control_term_matches_stacked_controls(name, n_paths):
    """The control term summed step by step from two feedback policies equals,
    bit for bit, the formula over each block's stacked (n_steps, paths, d+1)
    controls, for blocks of one path, of CHUNK paths and of CHUNK + 1."""
    m, fields, x, x2, _, pol2, noise = _flow_case(name, n_paths)
    d = len(fields) - 1

    def pol1(i, X):
        return np.concatenate([X[:, :1] - 0.3, np.tile(1.0 + 0.5 * X[:, 1:2] ** 2, (1, d))], axis=1)

    rep = flow_continuity_check(m, fields, x, x2, pol1, pol2, noise, C=50.0)
    sup_sq, ctrl_sq = [], []
    for p0 in range(0, n_paths, dynamics.CHUNK):
        block = noise.block(p0, min(p0 + dynamics.CHUNK, n_paths))
        ens1 = simulate(m, fields, x, pol1, block)
        ens2 = simulate(m, fields, x2, pol2, block)
        sup_sq.append(np.max(np.sum((ens1.states - ens2.states) ** 2, axis=-1), axis=0))
        stack1 = np.stack([pol1(i, X) for i, X in enumerate(ens1.states[:-1])])
        stack2 = np.stack([pol2(i, X) for i, X in enumerate(ens2.states[:-1])])
        ctrl_sq.append(sum(np.sum((stack1 - stack2) ** 2, axis=-1)))
    lhs = float(np.mean(np.concatenate(sup_sq)))
    ctrl_term = float(np.mean(np.concatenate(ctrl_sq) * noise.grid.dt))
    assert ctrl_term > 0.0
    assert rep.lhs == lhs
    assert rep.rhs == 50.0 * (float(np.sum((x - x2) ** 2)) + ctrl_term)


def test_flow_continuity_memory_is_flat_in_paths(monkeypatch):
    """Peak traced memory does not grow with the path count beyond the
    per-path results (16 bytes a path), and the full noise is never built.
    One usable CPU keeps the blocks in this process, where tracemalloc sees
    them; forked workers would send back only the per-path results."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    x = np.array([1.0, 0.0])
    x2 = m.exp(x, np.array([0.0, 0.1]))
    pol = constant_policy([0.0, 1.0])
    peaks = {}
    for n_paths in (4096, 32768):
        noise = _noise(TimeGrid(0.0, 1.0, 16), n_paths=n_paths, seed=5)
        tracemalloc.start()
        try:
            flow_continuity_check(m, fields, x, x2, pol, pol, noise, C=50.0)
            peaks[n_paths] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "increments" not in noise.__dict__
    # Whole-ensemble states and noise peaked about 49 MB higher at 32768 paths.
    assert peaks[32768] - peaks[4096] < 3e6, peaks


# Catalog manifolds whose generator at unit controls is (a multiple of) the
# Laplacian, with the closed-form decay rate of E x(T) for each coordinate.
ORACLE_CASES = {
    # rot_x, rot_y, rot_z at unit control: the generator is 1/2 Laplacian on S^2,
    # and coordinate functions are eigenfunctions with eigenvalue -2.
    "sphere2": (["zero", "rot_x", "rot_y", "rot_z"], [0.6, 0.0, 0.8], 1.0),
    # rot1, rot2: two independent circle diffusions, each pair decays as e^{-T/2}.
    "torus2": (["zero", "rot1", "rot2"], [0.6, 0.8, 0.0, 1.0], 0.5),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_diffusion_oracle_beyond_the_circle(name):
    """E x(T) = x0 * exp(-rate * T) coordinatewise."""
    fids, x0, rate = ORACLE_CASES[name]
    m = get_manifold(name)
    fields = [get_field(m, f) for f in fids]
    d = len(fields) - 1
    noise = _noise(TimeGrid(0.0, 1.0, 64), d=d, n_paths=16384, seed=7, antithetic=True)
    ens = simulate(m, fields, np.array(x0), constant_policy([0.0] + [1.0] * d), noise)
    # Antithetic pairs are dependent: the standard error is that of the pair means.
    pairs = 0.5 * (ens.states[-1, 0::2] + ens.states[-1, 1::2])
    est = np.mean(pairs, axis=0)
    se = np.std(pairs, axis=0, ddof=1) / np.sqrt(pairs.shape[0])
    ref = np.array(x0) * np.exp(-rate * 1.0)
    # 0.01 covers the O(dt) scheme bias: about 0.003-0.006 per coordinate here,
    # measured with 16 times the paths.
    assert np.all(np.abs(est - ref) <= 3.0 * se + 0.01), (est, ref, se)


def test_export_paths_roundtrip(tmp_path):
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    grid = TimeGrid(0.0, 0.25, 4)
    ens = simulate(m, fields, np.array([1.0, 0.0]), constant_policy([0.0, 1.0]), _noise(grid, n_paths=3))
    from geodp.dynamics import export_paths

    p = tmp_path / "paths.csv"
    export_paths(ens, str(p))
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "step,path,x0,x1"
    assert len(lines) == 1 + 5 * 3
    vals = lines[1].split(",")
    assert float(vals[2]) == 1.0 and float(vals[3]) == 0.0



def _csv_writer_paths(ens, path):
    """export_paths written with csv.writer and one repr per coordinate."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "path"] + [f"x{k}" for k in range(ens.states.shape[2])])
        for i in range(ens.grid.n_steps + 1):
            for p in range(ens.states.shape[1]):
                w.writerow([i, p] + [repr(float(c)) for c in ens.states[i, p]])


def test_export_paths_matches_csv_writer_bytes(tmp_path):
    """Antithetic pairs on the torus, then the same states with NaN payloads,
    infinities and signed zeros written in."""
    from geodp.dynamics import export_paths

    m = get_manifold("torus2")
    fields = [get_field(m, f) for f in ("zero", "rot1", "rot2")]
    grid = TimeGrid(0.0, 0.25, 5)
    noise = _noise(grid, d=2, n_paths=6, seed=11, antithetic=True)
    ens = simulate(m, fields, np.array([1.0, 0.0, 0.0, 1.0]), constant_policy([0.0, 1.0, 1.0]),
                   noise)
    states = ens.states.copy()
    states[1, 0] = np.array([0x7FF8000000000001, 0x7FF0000000000002, 0xFFF8000000000000,
                             0x7FF8000000000000], dtype=np.uint64).view(np.float64)
    states[2, 1] = [np.inf, -np.inf, -0.0, 0.0]
    states[3, :, 1] = -0.0
    for i, e in enumerate((ens, dataclasses.replace(ens, states=states))):
        fast, ref = tmp_path / f"fast{i}.csv", tmp_path / f"ref{i}.csv"
        export_paths(e, str(fast))
        _csv_writer_paths(e, str(ref))
        assert fast.read_bytes() == ref.read_bytes()
    text = fast.read_bytes()
    assert b"\r\n1,0,nan,nan,nan,nan\r\n" in text and b"\r\n2,1,inf,-inf,-0.0,0.0\r\n" in text

@settings(max_examples=40, deadline=None)
@given(name=_catalog_manifold, data=st.data())
def test_simulate_stays_on_manifold(name, data):
    """Random catalog fields, controls, start and step size: every state of
    every path satisfies the embedding constraints."""
    m = get_manifold(name)
    ids = st.sampled_from(CATALOG[name])
    fids = data.draw(st.lists(ids, min_size=2, max_size=4), label="fields")
    d = len(fids) - 1
    v = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d + 1, max_size=d + 1), label="v")
    T = data.draw(st.floats(0.01, 3.0), label="T")
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    x0 = m.random_points(1, np.random.default_rng(seed))[0]
    noise = _noise(TimeGrid(0.0, T, data.draw(st.integers(1, 16), label="n_steps")), d=d, n_paths=16, seed=seed)
    ens = simulate(m, [get_field(m, f) for f in fids], x0, constant_policy(v), noise)
    assert ens.constraint_violation() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(name=_catalog_manifold, data=st.data())
def test_flow_step_and_exp_stay_on_manifold(name, data):
    m = get_manifold(name)
    fid = data.draw(st.sampled_from(CATALOG[name]), label="field")
    h = data.draw(st.floats(-5.0, 5.0), label="h")
    r = data.draw(st.floats(0.0, 20.0), label="r")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
    x = m.random_points(32, rng)
    assert np.max(m.constraint_violation(flow_step(m, get_field(m, fid), x, h))) <= 1e-9
    w = m.tangent_project(x, rng.standard_normal(x.shape))
    w = r * w / np.linalg.norm(w, axis=-1, keepdims=True)
    assert np.max(m.constraint_violation(m.exp(x, w))) <= 1e-9


@pytest.mark.parametrize("name", sorted(STEP_CASES))
@settings(max_examples=20, deadline=None)
@given(n_paths=st.integers(1, 300), data=st.data())
def test_simulate_chunk_invariance(name, n_paths, data):
    """simulate's states do not depend on its chunk size, for any CHUNK."""
    fids, x0 = STEP_CASES[name]
    m = get_manifold(name)
    fields = [get_field(m, f) for f in fids]
    d = len(fields) - 1
    noise = _noise(TimeGrid(0.0, 0.5, 8), d=d, n_paths=n_paths, seed=13)
    def policy(i, X):
        return np.concatenate([X[:, :1], np.ones((X.shape[0], d))], axis=1)

    ref = simulate(m, fields, np.array(x0), policy, noise).states
    chunk = data.draw(st.integers(1, n_paths + 5), label="chunk")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "CHUNK", chunk)
        states = simulate(m, fields, np.array(x0), policy, noise).states
    np.testing.assert_array_equal(states, ref)
