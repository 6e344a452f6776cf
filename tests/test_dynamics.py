import numpy as np
import pytest

from geodp import dynamics
from geodp.dynamics import (
    BrownianGrid,
    ControlPolicy,
    ControlSet,
    TimeGrid,
    euler_step,
    flow_continuity_check,
    simulate,
)
from geodp.errors import GridMismatch, NonTangentField
from geodp.geometry import Circle, VectorField, get_field, get_manifold


def _noise(grid, d=1, n_paths=512, seed=0, antithetic=False):
    return BrownianGrid(grid=grid, d=d, n_paths=n_paths, seed=seed, antithetic=antithetic)


def test_time_grid_basics():
    g = TimeGrid(0.0, 1.0, 4)
    assert g.dt == 0.25
    np.testing.assert_allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    w = g.window(1, 3)
    assert w.t0 == 0.25 and w.T == 0.75 and w.n_steps == 2
    z = TimeGrid(0.5, 0.5, 0)
    assert z.dt == 0.0
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)


def test_control_set_grid_lexicographic():
    cs = ControlSet(lower=np.array([0.0, 0.5]), upper=np.array([0.0, 1.0]), grid_points_per_axis=2)
    g = cs.grid()
    np.testing.assert_allclose(g, [[0.0, 0.5], [0.0, 1.0]])
    g3 = cs.grid(3)
    np.testing.assert_allclose(g3[:, 1], [0.5, 0.75, 1.0])
    assert cs.contains([0.0, 0.7])
    assert not cs.contains([0.1, 0.7])


def test_frozen_dynamics_zero_fields():
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "scale:0:rot")]
    x0 = np.array([0.0, 1.0])
    grid = TimeGrid(0.0, 1.0, 16)
    ens = simulate(m, fields, x0, ControlPolicy.constant([1.0, 1.0]), _noise(grid))
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
        ens = simulate(m, fields, x0, ControlPolicy.constant([1.0, 0.0]), _noise(grid, n_paths=1))
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
            m, fields, np.array(x0), ControlPolicy.constant([0.0] + [1.0] * d),
            _noise(grid, d=d, n_paths=256, seed=3),
        )
        assert ens.constraint_violation() <= 1e-9


def test_circle_diffusion_oracle():
    """E cos(theta_T - theta_0) = exp(-sigma^2 T / 2) for pure rotational noise."""
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    x0 = np.array([1.0, 0.0])
    grid = TimeGrid(0.0, 1.0, 64)
    ens = simulate(m, fields, x0, ControlPolicy.constant([0.0, 1.0]), _noise(grid, n_paths=8192, seed=7))
    est = float(np.mean(ens.states[-1, :, 0]))
    ref = np.exp(-0.5)
    se = float(np.std(ens.states[-1, :, 0], ddof=1) / np.sqrt(8192))
    assert abs(est - ref) <= 3.0 * se + 0.01  # 0.01 covers the O(dt) scheme bias


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
    policy = ControlPolicy.constant([0.5] + [1.0] * d)
    ref = simulate(m, fields, np.array(x0), policy, noise).states
    for chunk in (1000, 5000, 7):
        monkeypatch.setattr(dynamics, "CHUNK", chunk)
        states = simulate(m, fields, np.array(x0), policy, noise).states
        np.testing.assert_array_equal(states, ref, err_msg=f"CHUNK={chunk}")


@pytest.mark.parametrize("name", ["sphere2", "torus2"])
def test_euler_step_broadcast_matches_path_steps(name):
    """Stepping every node with every shared sample in one broadcast call equals
    stepping the flattened (node, sample) pairs as independent paths."""
    m = get_manifold(name)
    fields = [get_field(m, f) for f in STEP_CASES[name][0]]
    d = len(fields) - 1
    nodes = m.random_points(6, np.random.default_rng(0))
    dW = 0.1 * np.random.default_rng(1).standard_normal((5, d))
    v = np.array([0.4, 0.7, 1.2])
    out = euler_step(m, fields, 0.0, 0.01, nodes[:, None, :], v, dW[None])
    assert out.shape == (6, 5, m.ambient_dim)
    X = np.repeat(nodes, 5, axis=0)
    paths = euler_step(m, fields, 0.0, 0.01, X, np.tile(v, (30, 1)), np.tile(dW, (6, 1)))
    np.testing.assert_array_equal(out.reshape(30, -1), paths)


def test_noise_dimension_mismatch():
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(GridMismatch):
        simulate(m, fields, np.array([1.0, 0.0]), ControlPolicy.constant([0.0, 1.0]), _noise(grid, d=2))


def test_uncertified_diffusion_field_rejected():
    m = Circle()
    bad = VectorField(id="bad", eval=lambda t, x: np.ones_like(x))
    fields = [get_field(m, "zero"), bad]
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(NonTangentField):
        simulate(m, fields, np.array([1.0, 0.0]), ControlPolicy.constant([0.0, 1.0]), _noise(grid))


def test_feedback_policy_applied():
    m = Circle()
    fields = [get_field(m, "rot"), get_field(m, "scale:0:rot")]
    # drive with speed = first coordinate (feedback), deterministic
    policy = ControlPolicy.feedback(lambda i, X: np.stack([X[:, 0], np.zeros(X.shape[0])], axis=1))
    grid = TimeGrid(0.0, 0.5, 64)
    ens = simulate(m, fields, np.array([1.0, 0.0]), policy, _noise(grid, n_paths=2))
    v = ens.control_values()
    assert v.shape == (64, 2, 2)
    np.testing.assert_allclose(v[0, :, 0], 1.0)
    # the state moved, so later feedback controls differ from the first
    assert abs(v[-1, 0, 0] - 1.0) > 1e-3


def test_flow_continuity_shared_noise():
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    grid = TimeGrid(0.0, 1.0, 32)
    noise = _noise(grid, n_paths=1024, seed=5)
    x = np.array([1.0, 0.0])
    x2 = m.exp(x, np.array([0.0, 0.1]))
    pol = ControlPolicy.constant([0.0, 1.0])
    rep = flow_continuity_check(m, fields, x, x2, pol, pol, noise, C=50.0)
    assert rep.passed
    # identical starts and controls: both sides vanish
    rep0 = flow_continuity_check(m, fields, x, x, pol, pol, noise, C=50.0)
    assert rep0.lhs == 0.0 and rep0.rhs == 0.0


def test_export_paths_roundtrip(tmp_path):
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    grid = TimeGrid(0.0, 0.25, 4)
    ens = simulate(m, fields, np.array([1.0, 0.0]), ControlPolicy.constant([0.0, 1.0]), _noise(grid, n_paths=3))
    from geodp.dynamics import export_paths

    p = tmp_path / "paths.csv"
    export_paths(ens, str(p))
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "step,path,x0,x1"
    assert len(lines) == 1 + 5 * 3
    vals = lines[1].split(",")
    assert float(vals[2]) == 1.0 and float(vals[3]) == 0.0
