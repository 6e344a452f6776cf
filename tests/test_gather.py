"""Precomputed interpolation gathers and the HJB and value sweeps built on them.

The reference formulas below are the per-call mesh interpolation written out
directly (chart, cell, weights and combination in one expression).  The
gathers must reproduce them bit for bit; ``solve_hjb`` must reproduce a sweep
that interpolates every stencil point set afresh at every step and takes the
controls one at a time, and keep every stride-th layer of it;
``value_function`` must reproduce one that rebuilds and interpolates its
one-step states on every layer.  Both references minimize with their own
strict-< scan over the controls, not with ``grid_argmin``.
"""

import numpy as np
import pytest

from geodp import rng as geodp_rng
from geodp.catalog import get_driver, get_terminal
from geodp.dynamics import ControlSet, TimeGrid, euler_step
from geodp.geometry import flow_step, get_field, get_manifold
from geodp.hjb import hjb_steps_for_cfl, solve_hjb
from geodp.problem import ControlProblem
from geodp.value import (
    CircleMesh,
    ManifoldMesh,
    SphereMesh,
    TorusMesh,
    gauss_hermite_rule,
    value_function,
)


# ---------------------------------------------------------------------------
# Reference formulas
# ---------------------------------------------------------------------------


def _ref_circle(mesh, values, points):
    values = np.asarray(values, dtype=float)
    th = mesh.manifold.chart(points)[..., 0]
    pos = (th % (2.0 * np.pi)) / (2.0 * np.pi) * mesh.n_theta
    i0 = np.floor(pos).astype(int) % mesh.n_theta
    w = pos - np.floor(pos)
    i1 = (i0 + 1) % mesh.n_theta
    return (1.0 - w) * values[i0] + w * values[i1]


def _ref_sphere_row_value(mesh, values, row, col):
    npole = mesh.n_nodes - 1
    return np.where(
        row == 0,
        values[0],
        np.where(
            row == mesh.n_lat - 1,
            values[npole],
            values[np.clip(1 + (row - 1) * mesh.n_lon + col, 0, npole)],
        ),
    )


def _ref_sphere(mesh, values, points):
    values = np.asarray(values, dtype=float)
    ch = mesh.manifold.chart(points)
    lat, lon = ch[..., 0], ch[..., 1]
    posl = (lat + 0.5 * np.pi) / np.pi * (mesh.n_lat - 1)
    r0 = np.clip(np.floor(posl).astype(int), 0, mesh.n_lat - 2)
    wl = posl - r0
    posm = ((lon + np.pi) % (2.0 * np.pi)) / (2.0 * np.pi) * mesh.n_lon
    c0 = np.floor(posm).astype(int) % mesh.n_lon
    wm = posm - np.floor(posm)
    c1 = (c0 + 1) % mesh.n_lon
    v00 = _ref_sphere_row_value(mesh, values, r0, c0)
    v01 = _ref_sphere_row_value(mesh, values, r0, c1)
    v10 = _ref_sphere_row_value(mesh, values, r0 + 1, c0)
    v11 = _ref_sphere_row_value(mesh, values, r0 + 1, c1)
    return (1.0 - wl) * ((1.0 - wm) * v00 + wm * v01) + wl * ((1.0 - wm) * v10 + wm * v11)


def _ref_torus(mesh, values, points):
    values = np.asarray(values, dtype=float).reshape(mesh.n1, mesh.n2)
    ch = mesh.manifold.chart(points)
    p1 = (ch[..., 0] % (2.0 * np.pi)) / (2.0 * np.pi) * mesh.n1
    p2 = (ch[..., 1] % (2.0 * np.pi)) / (2.0 * np.pi) * mesh.n2
    i0 = np.floor(p1).astype(int) % mesh.n1
    j0 = np.floor(p2).astype(int) % mesh.n2
    w1 = p1 - np.floor(p1)
    w2 = p2 - np.floor(p2)
    i1 = (i0 + 1) % mesh.n1
    j1 = (j0 + 1) % mesh.n2
    return (1.0 - w1) * ((1.0 - w2) * values[i0, j0] + w2 * values[i0, j1]) + w1 * (
        (1.0 - w2) * values[i1, j0] + w2 * values[i1, j1]
    )


def _ref_interpolate(mesh, values, points):
    ref = {CircleMesh: _ref_circle, SphereMesh: _ref_sphere, TorusMesh: _ref_torus}
    return ref[type(mesh)](mesh, values, points)


# ---------------------------------------------------------------------------
# Point sets: nodes, seams, poles, theta = +-pi and random points
# ---------------------------------------------------------------------------


def _circle_points(mesh, rng):
    th = rng.uniform(-np.pi, np.pi, size=200)
    special = np.array([[-1.0, 0.0], [-1.0, -0.0], [1.0, 0.0], [1.0, -0.0],
                        [np.cos(np.pi - 1e-15), np.sin(np.pi - 1e-15)],
                        [np.cos(-np.pi + 1e-15), np.sin(-np.pi + 1e-15)]])
    return np.concatenate([mesh.nodes, special, np.stack([np.cos(th), np.sin(th)], -1)])


def _sphere_points(mesh, rng):
    lat = np.concatenate([rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 200), mesh.lats])
    lon = np.concatenate([rng.uniform(-np.pi, np.pi, 200), np.full(mesh.n_lat, np.pi)])
    pts = np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)], -1)
    seam = [[-np.cos(b), s * 0.0, np.sin(b)] for b in (-1.2, 0.0, 0.3) for s in (1.0, -1.0)]
    poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, 1.0], [1e-17, -1e-17, -1.0]]
    return np.concatenate([mesh.nodes, np.array(seam), np.array(poles), pts])


def _torus_points(mesh, rng):
    edge = np.array([0.0, np.pi, -np.pi, 0.5 * np.pi])
    A, B = np.meshgrid(edge, edge, indexing="ij")
    t1 = np.concatenate([A.ravel(), rng.uniform(-np.pi, np.pi, 200)])
    t2 = np.concatenate([B.ravel(), rng.uniform(-np.pi, np.pi, 200)])
    pts = np.stack([np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)], -1)
    signed = np.array([[-1.0, 0.0, -1.0, -0.0], [-1.0, -0.0, -1.0, 0.0]])
    return np.concatenate([mesh.nodes, signed, pts])


MESHES = {
    "circle": (lambda: CircleMesh(24), _circle_points),
    "sphere": (lambda: SphereMesh(7, 12), _sphere_points),
    "torus": (lambda: TorusMesh(6, 9), _torus_points),
}


@pytest.mark.parametrize("name", sorted(MESHES))
def test_gather_is_bit_identical_to_reference_formula(name):
    make, points_for = MESHES[name]
    mesh = make()
    rng = np.random.default_rng(11)
    pts = points_for(mesh, rng)
    stacked = pts[: (pts.shape[0] // 6) * 6].reshape(2, 3, -1, pts.shape[-1])
    apply_flat, apply_stacked = mesh.gather(pts), mesh.gather(stacked)
    for _ in range(3):  # one gather serves many value arrays
        vals = rng.normal(size=mesh.n_nodes)
        ref = _ref_interpolate(mesh, vals, pts)
        assert np.array_equal(apply_flat(vals), ref)
        assert np.array_equal(mesh.interpolate(vals, pts), ref)
        assert np.array_equal(apply_stacked(vals), _ref_interpolate(mesh, vals, stacked))
        np.testing.assert_allclose(apply_flat(vals)[: mesh.n_nodes], vals, atol=1e-12)


def test_interpolate_is_defined_once_on_the_base_mesh():
    for cls in (CircleMesh, SphereMesh, TorusMesh):
        assert "gather" in cls.__dict__ and "interpolate" not in cls.__dict__
    assert "interpolate" in ManifoldMesh.__dict__


# ---------------------------------------------------------------------------
# solve_hjb against a per-step, per-stencil interpolation sweep
# ---------------------------------------------------------------------------


def _problem(manifold, fields, lower, upper, points):
    m = get_manifold(manifold)
    return ControlProblem(
        manifold=m,
        fields=[get_field(m, f) for f in fields],
        driver=get_driver("smooth", None),
        terminal=get_terminal("coord", {"index": 0, "scale": 1.0}),
        controls=ControlSet(lower=np.array(lower), upper=np.array(upper),
                            grid_points_per_axis=points),
    )


CASES = {
    "circle": (lambda: _problem("circle", ["zero", "rot"], [0.0, 0.5], [0.0, 1.0], 2),
               lambda: CircleMesh(24)),
    "sphere": (lambda: _problem("sphere2", ["rot_x", "rot_z"], [0.5, 0.5], [1.0, 1.0], 2),
               lambda: SphereMesh(7, 12)),
    "torus": (lambda: _problem("torus2", ["zero", "rot1", "rot2"], [0.0, 0.5, 0.5],
                               [0.0, 1.0, 1.0], 2),
              lambda: TorusMesh(6, 9)),
}


def _ref_grid_argmin(controls, values):
    """Strict-< scan over the controls in grid order: ties keep the first."""
    best, best_k = np.inf, 0
    for k, val in enumerate(values):
        better = val < best
        best = np.where(better, val, best)
        best_k = np.where(better, k, best_k)
    return best, controls[best_k]


def _ref_stencil_hamiltonian(prob, t, nodes, un, d1, d2, v):
    """Discrete Hamiltonian at every node under the constant control v."""
    ham = v[0] * d1[0]
    z = np.zeros((nodes.shape[0], prob.d))
    for a in range(1, prob.d + 1):
        ham = ham + 0.5 * v[a] ** 2 * d2[a]
        z[:, a - 1] = v[a] * d1[a]
    vv = np.broadcast_to(v, (nodes.shape[0], v.shape[0]))
    return ham + prob.driver(t, nodes, un, z, vv)


def _reference_solve_hjb(prob, grid, mesh):
    """The sweep with 2(d+1) fresh interpolations per step, one control at a time."""
    h = mesh.spacing()
    nodes = mesh.nodes
    controls = prob.controls.grid()
    plus = [flow_step(prob.manifold, V, grid.t0, nodes, h) for V in prob.fields]
    minus = [flow_step(prob.manifold, V, grid.t0, nodes, -h) for V in prob.fields]
    u = np.empty((grid.n_steps + 1, mesh.n_nodes))
    u[grid.n_steps] = prob.terminal(nodes)
    argmin = np.empty((grid.n_steps, mesh.n_nodes, controls.shape[1]))
    for i in range(grid.n_steps - 1, -1, -1):
        un = u[i + 1]
        up = [_ref_interpolate(mesh, un, p) for p in plus]
        um = [_ref_interpolate(mesh, un, p) for p in minus]
        d1 = [(up[a] - um[a]) / (2.0 * h) for a in range(prob.d + 1)]
        d2 = [None] + [(up[a] - 2.0 * un + um[a]) / h**2 for a in range(1, prob.d + 1)]
        best, argmin[i] = _ref_grid_argmin(
            controls,
            [_ref_stencil_hamiltonian(prob, grid.times[i + 1], nodes, un, d1, d2, v)
             for v in controls],
        )
        u[i] = un + grid.dt * best
    return u, argmin


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_hjb_matches_per_step_interpolation(name):
    make_prob, make_mesh = CASES[name]
    prob, mesh = make_prob(), make_mesh()
    n = hjb_steps_for_cfl(prob, 0.0, 0.5, mesh)
    grid = TimeGrid(0.0, 0.5, n)
    hf = solve_hjb(prob, grid, mesh)
    u, argmin = _reference_solve_hjb(prob, grid, mesh)
    assert np.array_equal(hf.u, u)
    assert np.array_equal(hf.argmin_control, argmin)
    assert len(np.unique(argmin.reshape(-1, argmin.shape[-1]), axis=0)) > 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_hjb_stride_keeps_every_stride_th_layer(name):
    make_prob, make_mesh = CASES[name]
    prob, mesh = make_prob(), make_mesh()
    n = hjb_steps_for_cfl(prob, 0.0, 0.5, mesh, multiple_of=4)
    full = solve_hjb(prob, TimeGrid(0.0, 0.5, n), mesh)
    for s in (2, 4, n):
        hf = solve_hjb(prob, TimeGrid(0.0, 0.5, n), mesh, stride=s)
        assert hf.grid == TimeGrid(0.0, 0.5, n // s)
        assert np.array_equal(hf.u, full.u[::s])
        assert np.array_equal(hf.argmin_control, full.argmin_control[::s])


@pytest.mark.parametrize("stride", [0, 5, 24])
def test_solve_hjb_stride_must_divide_n_steps(stride):
    make_prob, make_mesh = CASES["circle"]
    with pytest.raises(ValueError, match="stride"):
        solve_hjb(make_prob(), TimeGrid(0.0, 0.012, 12), make_mesh(), stride=stride)


def _count_mesh_calls(monkeypatch, mesh):
    calls = {"interpolate": 0, "gather": 0}
    cls = type(mesh)
    for attr in list(calls):
        orig = getattr(cls, attr)

        def counted(self, *a, _orig=orig, _attr=attr, **k):
            calls[_attr] += 1
            return _orig(self, *a, **k)

        monkeypatch.setattr(cls, attr, counted)
    return calls


@pytest.mark.parametrize("n_steps", [3, 17])
@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_hjb_gathers_once(monkeypatch, name, n_steps):
    make_prob, make_mesh = CASES[name]
    prob, mesh = make_prob(), make_mesh()
    calls = _count_mesh_calls(monkeypatch, mesh)
    solve_hjb(prob, TimeGrid(0.0, 1e-3 * n_steps, n_steps), mesh)
    assert calls == {"interpolate": 0, "gather": 1}


# ---------------------------------------------------------------------------
# value_function against a per-layer one-step-state sweep
# ---------------------------------------------------------------------------


def _reference_value_function(prob, grid, mesh, picard_iters=3):
    """The recursion with the one-step states rebuilt and interpolated on every layer."""
    nodes = mesh.nodes
    controls = prob.controls.grid()
    xi, w = gauss_hermite_rule(prob.d)
    sqrt_dt = np.sqrt(grid.dt)
    u = np.empty((grid.n_steps + 1, mesh.n_nodes))
    u[grid.n_steps] = prob.terminal(nodes)
    argmin = np.empty((grid.n_steps, mesh.n_nodes, controls.shape[1]))
    for i in range(grid.n_steps - 1, -1, -1):
        values = []
        for v in controls:
            X1 = euler_step(prob.manifold, prob.fields, grid.times[i], grid.dt,
                            np.repeat(nodes.T, len(w), axis=1), v[:, None],
                            np.tile((xi * sqrt_dt).T, mesh.n_nodes))
            X1 = X1.T.reshape(mesh.n_nodes, len(w), -1)
            u_next = mesh.interpolate(u[i + 1], X1)
            y_bar = u_next @ w
            Z = (u_next * w) @ xi / sqrt_dt
            vv = np.broadcast_to(v, (mesh.n_nodes, v.shape[0]))
            y = y_bar
            for _ in range(picard_iters):
                y = y_bar + grid.dt * prob.driver(grid.times[i], nodes, y, Z, vv)
            values.append(y)
        u[i], argmin[i] = _ref_grid_argmin(controls, values)
    return u, argmin


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_function_matches_per_layer_one_step_states(name):
    make_prob, make_mesh = CASES[name]
    prob, mesh = make_prob(), make_mesh()
    grid = TimeGrid(0.0, 0.5, 8)
    vf = value_function(prob, grid, mesh)
    u, argmin = _reference_value_function(prob, grid, mesh)
    assert np.array_equal(vf.u, u)
    assert np.array_equal(vf.argmin_control, argmin)
    assert len(np.unique(argmin.reshape(-1, argmin.shape[-1]), axis=0)) > 1


@pytest.mark.parametrize("n_steps", [3, 17])
@pytest.mark.parametrize("name", sorted(CASES))
def test_value_function_gathers_once_per_control(monkeypatch, name, n_steps):
    make_prob, make_mesh = CASES[name]
    prob, mesh = make_prob(), make_mesh()
    calls = _count_mesh_calls(monkeypatch, mesh)
    orig_normals = geodp_rng.normal_increments

    def counted_normals(*a, **k):
        calls["normal_increments"] += 1
        return orig_normals(*a, **k)

    calls["normal_increments"] = 0
    monkeypatch.setattr(geodp_rng, "normal_increments", counted_normals)
    value_function(prob, TimeGrid(0.0, 0.05 * n_steps, n_steps), mesh)
    n_controls = prob.controls.grid().shape[0]
    assert n_controls >= 2
    assert calls == {"interpolate": 0, "gather": n_controls, "normal_increments": 0}
