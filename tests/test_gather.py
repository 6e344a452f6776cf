"""Precomputed interpolation gathers and the HJB and value sweeps built on them.

The reference formulas below are the per-call mesh interpolation written out
directly (chart, cell, weights and combination in one expression).  The
gathers must reproduce them bit for bit, and the cell-corner weights up to
rounding.  ``solve_hjb`` must reproduce a sweep that rebuilds its transition
weights at every step, takes the controls one at a time and sums the
weighted rows in order, and keep every stride-th layer of it; it must also
stay within rounding of the former difference-form sweep.
``value_function`` must reproduce one that rebuilds and interpolates its
one-step states on every layer.  Both references minimize with their own
strict-< scan over the controls, not with ``grid_argmin``.  ``value_function``
must also reproduce its former loop over the grid controls, which stepped one
control at a time, bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geodp import rng as geodp_rng
from geodp.bsde import Driver
from geodp.catalog import get_driver, get_terminal
from geodp.dynamics import ControlSet, TimeGrid, euler_step, grid_argmin
from geodp.geometry import flow_step, get_field, get_manifold
from geodp.hjb import hjb_steps_for_cfl, solve_hjb, transition_weights
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
    (n_theta,) = mesh.sizes
    values = np.asarray(values, dtype=float)
    th = mesh.manifold.chart(points)[..., 0]
    pos = (th % (2.0 * np.pi)) / (2.0 * np.pi) * n_theta
    i0 = np.floor(pos).astype(int) % n_theta
    w = pos - np.floor(pos)
    i1 = (i0 + 1) % n_theta
    return (1.0 - w) * values[i0] + w * values[i1]


def _ref_sphere_row_value(mesh, values, row, col):
    n_lat, n_lon = mesh.sizes
    npole = mesh.n_nodes - 1
    return np.where(
        row == 0,
        values[0],
        np.where(
            row == n_lat - 1,
            values[npole],
            values[np.clip(1 + (row - 1) * n_lon + col, 0, npole)],
        ),
    )


def _ref_sphere(mesh, values, points):
    n_lat, n_lon = mesh.sizes
    values = np.asarray(values, dtype=float)
    ch = mesh.manifold.chart(points)
    lat, lon = ch[..., 0], ch[..., 1]
    posl = (lat + 0.5 * np.pi) / np.pi * (n_lat - 1)
    r0 = np.clip(np.floor(posl).astype(int), 0, n_lat - 2)
    wl = posl - r0
    posm = ((lon + np.pi) % (2.0 * np.pi)) / (2.0 * np.pi) * n_lon
    c0 = np.floor(posm).astype(int) % n_lon
    wm = posm - np.floor(posm)
    c1 = (c0 + 1) % n_lon
    v00 = _ref_sphere_row_value(mesh, values, r0, c0)
    v01 = _ref_sphere_row_value(mesh, values, r0, c1)
    v10 = _ref_sphere_row_value(mesh, values, r0 + 1, c0)
    v11 = _ref_sphere_row_value(mesh, values, r0 + 1, c1)
    return (1.0 - wl) * ((1.0 - wm) * v00 + wm * v01) + wl * ((1.0 - wm) * v10 + wm * v11)


def _ref_torus(mesh, values, points):
    n1, n2 = mesh.sizes
    values = np.asarray(values, dtype=float).reshape(n1, n2)
    ch = mesh.manifold.chart(points)
    p1 = (ch[..., 0] % (2.0 * np.pi)) / (2.0 * np.pi) * n1
    p2 = (ch[..., 1] % (2.0 * np.pi)) / (2.0 * np.pi) * n2
    i0 = np.floor(p1).astype(int) % n1
    j0 = np.floor(p2).astype(int) % n2
    w1 = p1 - np.floor(p1)
    w2 = p2 - np.floor(p2)
    i1 = (i0 + 1) % n1
    j1 = (j0 + 1) % n2
    return (1.0 - w1) * ((1.0 - w2) * values[i0, j0] + w2 * values[i0, j1]) + w1 * (
        (1.0 - w2) * values[i1, j0] + w2 * values[i1, j1]
    )


def _ref_interpolate(mesh, values, points):
    ref = {"circle": _ref_circle, "sphere2": _ref_sphere, "torus2": _ref_torus}
    return ref[mesh.manifold.name](mesh, values, points)


# The nodes, neighbour pairs, spacing and refinement of the former separate
# circle and torus mesh classes.


def _ref_circle_mesh(n_theta):
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    nodes = np.stack([np.cos(th), np.sin(th)], axis=-1)
    pairs = [(k, (k + 1) % n_theta) for k in range(n_theta)]
    return nodes, pairs, 2.0 * np.pi / n_theta, (2 * n_theta,)


def _ref_torus_mesh(n1, n2):
    t1 = 2.0 * np.pi * np.arange(n1) / n1
    t2 = 2.0 * np.pi * np.arange(n2) / n2
    G1, G2 = np.meshgrid(t1, t2, indexing="ij")
    nodes = np.stack([np.cos(G1), np.sin(G1), np.cos(G2), np.sin(G2)], axis=-1).reshape(-1, 4)
    pairs = []
    for i in range(n1):
        for j in range(n2):
            k = i * n2 + j
            pairs.append((k, ((i + 1) % n1) * n2 + j))
            pairs.append((k, i * n2 + (j + 1) % n2))
    return nodes, pairs, 2.0 * np.pi / max(n1, n2), (2 * n1, 2 * n2)


# The nodes, neighbour pairs, spacing and refinement of the former separate
# sphere mesh class: a scalar node loop and a pair loop over the rings.


def _ref_sphere_mesh(n_lat, n_lon):
    lats = -0.5 * np.pi + np.pi * np.arange(n_lat) / (n_lat - 1)
    lons = -np.pi + 2.0 * np.pi * np.arange(n_lon) / n_lon
    nodes = [np.array([0.0, 0.0, -1.0])]  # south pole, index 0
    for lat in lats[1:-1]:
        for lon in lons:
            nodes.append(
                np.array([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)])
            )
    nodes.append(np.array([0.0, 0.0, 1.0]))  # north pole, last index
    npole = len(nodes) - 1

    def idx(r, c):
        return 1 + (r - 1) * n_lon + (c % n_lon)

    pairs = []
    for c in range(n_lon):
        pairs.append((0, idx(1, c)))
        pairs.append((npole, idx(n_lat - 2, c)))
    for r in range(1, n_lat - 1):
        for c in range(n_lon):
            pairs.append((idx(r, c), idx(r, c + 1)))
            if r + 1 <= n_lat - 2:
                pairs.append((idx(r, c), idx(r + 1, c)))
    return np.stack(nodes, axis=0), pairs, np.pi / (n_lat - 1), (2 * n_lat - 1, 2 * n_lon)


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
    n_lat, _ = mesh.sizes
    lats = -0.5 * np.pi + np.pi * np.arange(n_lat) / (n_lat - 1)
    lat = np.concatenate([rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 200), lats])
    lon = np.concatenate([rng.uniform(-np.pi, np.pi, 200), np.full(n_lat, np.pi)])
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
    "circle-400": (lambda: CircleMesh(400), _circle_points),
    "sphere": (lambda: SphereMesh(7, 12), _sphere_points),
    "torus": (lambda: TorusMesh(6, 9), _torus_points),
    "torus-28": (lambda: TorusMesh(28, 28), _torus_points),
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


@pytest.mark.parametrize("name", sorted(MESHES))
def test_corners_interpolate_as_the_reference_formula(name):
    make, points_for = MESHES[name]
    mesh = make()
    rng = np.random.default_rng(12)
    pts = points_for(mesh, rng)
    stacked = pts[: (pts.shape[0] // 6) * 6].reshape(2, 3, -1, pts.shape[-1])
    for p in (pts, stacked):
        index, weight = mesh.corners(p)
        assert index.shape == weight.shape == (2 ** len(mesh.axes),) + p.shape[:-1]
        assert np.all((0 <= index) & (index < mesh.n_nodes)) and np.all(weight >= 0.0)
        assert np.max(np.abs(weight.sum(axis=0) - 1.0)) <= 1e-15
        vals = rng.normal(size=mesh.n_nodes)
        ref = _ref_interpolate(mesh, vals, p)
        assert np.max(np.abs(np.sum(weight * vals[index], axis=0) - ref)) <= 1e-14


@pytest.mark.parametrize("sizes", [(3,), (24,), (400,), (6, 9), (9, 6), (28, 28)])
def test_periodic_mesh_matches_the_former_circle_and_torus_meshes(sizes):
    mesh = (CircleMesh if len(sizes) == 1 else TorusMesh)(*sizes)
    nodes, pairs, spacing, refined = (_ref_circle_mesh if len(sizes) == 1 else _ref_torus_mesh)(*sizes)
    assert np.array_equal(mesh.nodes, nodes)
    assert mesh.neighbor_pairs() == pairs
    assert all(type(k) is int for pair in mesh.neighbor_pairs() for k in pair)
    assert mesh.spacing() == spacing
    assert mesh.refine().sizes == refined
    assert mesh.manifold.name == ("circle" if len(sizes) == 1 else "torus2")


@pytest.mark.parametrize("sizes", [(3, 3), (7, 12), (16, 32), (17, 32)])
def test_sphere_mesh_matches_the_former_sphere_mesh(sizes):
    mesh = SphereMesh(*sizes)
    nodes, pairs, spacing, refined = _ref_sphere_mesh(*sizes)
    assert np.array_equal(mesh.nodes, nodes)
    # A pair is unordered: the reference lists the north pole first in its
    # pairs, the mesh lists the ring node first (its next node along the latitude).
    got = mesh.neighbor_pairs()
    assert len(got) == len(pairs)
    assert {frozenset(p) for p in got} == {frozenset(p) for p in pairs}
    assert all(type(k) is int for pair in got for k in pair)
    assert mesh.spacing() == spacing
    assert mesh.refine().sizes == refined
    assert mesh.manifold.name == "sphere2"


def test_interpolate_is_defined_once_on_the_base_mesh():
    for cls in (CircleMesh, SphereMesh, TorusMesh):
        assert issubclass(cls, ManifoldMesh)
        assert not {"gather", "corners", "interpolate"} & set(cls.__dict__)
    assert {"gather", "corners", "interpolate"} <= set(ManifoldMesh.__dict__)


# ---------------------------------------------------------------------------
# solve_hjb against a per-step, per-control weight sweep
# ---------------------------------------------------------------------------


def _problem(manifold, fields, lower, upper, points, driver=None):
    m = get_manifold(manifold)
    return ControlProblem(
        manifold=m,
        fields=[get_field(m, f) for f in fields],
        driver=driver or get_driver("smooth", None),
        terminal=get_terminal("coord", {"index": 0, "scale": 1.0}),
        controls=ControlSet(lower=np.array(lower), upper=np.array(upper),
                            grid_points_per_axis=points),
    )


# With d = 0 there is no z to read: the drift-only case's driver reads the control.
_CONTROL_DRIVER = Driver(
    f=lambda t, x, y, z, v: v[..., 0] * x[..., 1] - 0.5 * y,
    lipschitz_K=0.5,
    bound_K0=0.5,
)

CASES = {
    "circle": (lambda: _problem("circle", ["zero", "rot"], [0.0, 0.5], [0.0, 1.0], 2),
               lambda: CircleMesh(24)),
    "circle-drift": (lambda: _problem("circle", ["rot", "rot"], [-0.5, 0.5], [0.5, 1.0], 2),
                     lambda: CircleMesh(24)),
    "circle-zero-diffusion": (
        lambda: _problem("circle", ["rot", "zero"], [-0.5, 0.5], [0.5, 1.0], 2),
        lambda: CircleMesh(24),
    ),
    "circle-drift-only": (
        lambda: _problem("circle", ["zero"], [-0.5], [0.5], 2, driver=_CONTROL_DRIVER),
        lambda: CircleMesh(24),
    ),
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


def _difference_form_solve_hjb(prob, grid, mesh):
    """The former difference-form sweep: 2(d+1) fresh interpolations per
    step, central differences, and the Hamiltonian one control at a time,
    with u + dt * (its minimum) as the new layer."""
    h = mesh.spacing()
    nodes = mesh.nodes
    controls = prob.controls.grid()
    plus = [flow_step(prob.manifold, V, nodes, h) for V in prob.fields]
    minus = [flow_step(prob.manifold, V, nodes, -h) for V in prob.fields]
    u = np.empty((grid.n_steps + 1, mesh.n_nodes))
    u[grid.n_steps] = prob.terminal(nodes)
    for i in range(grid.n_steps - 1, -1, -1):
        un = u[i + 1]
        up = [_ref_interpolate(mesh, un, p) for p in plus]
        um = [_ref_interpolate(mesh, un, p) for p in minus]
        d1 = [(up[a] - um[a]) / (2.0 * h) for a in range(prob.d + 1)]
        d2 = [None] + [(up[a] - 2.0 * un + um[a]) / h**2 for a in range(1, prob.d + 1)]
        best, _ = _ref_grid_argmin(
            controls,
            [_ref_stencil_hamiltonian(prob, grid.times[i + 1], nodes, un, d1, d2, v)
             for v in controls],
        )
        u[i] = un + grid.dt * best
    return u


def _reference_solve_hjb(prob, grid, mesh):
    """The weight form rebuilt at every step for one control at a time: the
    node's weight 1 - dt sum_a v_a^2 / h^2, then, field by field (drift
    first, zero fields left out), the cell corners of the plus and then of
    the minus flow point, each weighted dt v_0 / (2h) (minus: its negative)
    or dt v_a^2 / (2h^2) times the corner weight; y sums the weighted rows in
    order from 0.0, and z_a = v_a times the corners' sum with weights
    +-corner weight / (2h)."""
    h = mesh.spacing()
    dt = grid.dt
    nodes = mesh.nodes
    controls = prob.controls.grid()
    live = [a for a, V in enumerate(prob.fields) if np.any(V.A)]
    u = np.empty((grid.n_steps + 1, mesh.n_nodes))
    u[grid.n_steps] = prob.terminal(nodes)
    argmin = np.empty((grid.n_steps, mesh.n_nodes, controls.shape[1]))
    for i in range(grid.n_steps - 1, -1, -1):
        un = u[i + 1]
        values = []
        for v in controls:
            corners = {
                (a, s): mesh.corners(flow_step(prob.manifold, prob.fields[a], nodes, s * h))
                for a in live for s in (1.0, -1.0)
            }
            node_weight = 1.0
            for a in live:
                if a > 0:
                    node_weight = node_weight - 2.0 * (v[a] ** 2 * (dt / (2.0 * h**2)))
            y = 0.0 + node_weight * un
            z = np.zeros((mesh.n_nodes, prob.d))
            for a in live:
                for s in (1.0, -1.0):
                    if a == 0:
                        coef = s * (v[0] * (dt / (2.0 * h)))
                    else:
                        coef = v[a] ** 2 * (dt / (2.0 * h**2))
                    index, weight = corners[a, s]
                    for c in range(index.shape[0]):
                        y = y + (coef * weight[c]) * un[index[c]]
                if a > 0:
                    g = 0.0
                    for s in (1.0, -1.0):
                        index, weight = corners[a, s]
                        for c in range(index.shape[0]):
                            g = g + (s * weight[c] / (2.0 * h)) * un[index[c]]
                    z[:, a - 1] = v[a] * g
            vv = np.broadcast_to(v, (mesh.n_nodes, v.shape[0]))
            values.append(y + dt * prob.driver(grid.times[i + 1], nodes, un, z, vv))
        u[i], argmin[i] = _ref_grid_argmin(controls, values)
    return u, argmin


def _cfl_grid(prob, mesh, T=0.5):
    return TimeGrid(0.0, T, hjb_steps_for_cfl(prob, 0.0, T, mesh))


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_hjb_matches_per_step_interpolation(name):
    make_prob, make_mesh = CASES[name]
    prob, mesh = make_prob(), make_mesh()
    grid = _cfl_grid(prob, mesh)
    hf = solve_hjb(prob, grid, mesh)
    u, argmin = _reference_solve_hjb(prob, grid, mesh)
    assert np.array_equal(hf.u, u)
    assert np.array_equal(hf.argmin_control, argmin)
    assert len(np.unique(argmin.reshape(-1, argmin.shape[-1]), axis=0)) > 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_hjb_is_the_difference_form_up_to_rounding(name):
    make_prob, make_mesh = CASES[name]
    prob, mesh = make_prob(), make_mesh()
    grid = _cfl_grid(prob, mesh)
    hf = solve_hjb(prob, grid, mesh)
    assert np.max(np.abs(hf.u - _difference_form_solve_hjb(prob, grid, mesh))) <= 1e-13


@pytest.mark.parametrize("name", sorted(CASES))
def test_transition_weights_of_each_control_and_node_sum_to_one(name):
    make_prob, make_mesh = CASES[name]
    prob, mesh = make_prob(), make_mesh()
    index, wy, wz, z_fields = transition_weights(prob, mesh, _cfl_grid(prob, mesh).dt)
    k = prob.controls.grid().shape[0]
    assert index.shape == wy.shape[1:] and wy.shape[0] == k
    assert np.all((0 <= index) & (index < mesh.n_nodes))
    assert np.max(np.abs(wy.sum(axis=1) - 1.0)) <= 1e-14
    # z-weights: each diffusion field's plus and minus corners, +-1 / (2h) in all
    assert wz.shape[0] == len(z_fields)
    np.testing.assert_allclose(wz.sum(axis=1), 0.0, atol=1e-14)


@pytest.mark.parametrize("name", sorted(CASES))
def test_solve_hjb_shifts_with_the_terminal_under_the_zero_driver(name):
    make_prob, make_mesh = CASES[name]
    prob = replace(make_prob(), driver=get_driver("zero", None))
    mesh = make_mesh()
    shifted = replace(prob, terminal=lambda x: prob.terminal(x) + 0.75)
    grid = _cfl_grid(prob, mesh)
    u, u_shifted = solve_hjb(prob, grid, mesh).u, solve_hjb(shifted, grid, mesh).u
    assert np.max(np.abs(u_shifted - (u + 0.75))) <= 1e-12


@pytest.mark.parametrize("name", ["circle-drift", "circle-zero-diffusion", "sphere"])
def test_min_weight_is_negative_with_a_drift(name):
    make_prob, make_mesh = CASES[name]
    prob, mesh = make_prob(), make_mesh()
    assert solve_hjb(prob, _cfl_grid(prob, mesh), mesh).min_weight < 0.0


# The 64-node circle under [rot, rot] on its fewest CFL steps over [0, 1]:
# the drift's central difference outweighs the diffusion (3 steps, then 1).
@pytest.mark.parametrize("v, expected", [([1.0, 0.1], -1.6977), ([1.0, 0.0], -5.0930)])
def test_min_weight_of_a_drift_dominated_circle(v, expected):
    prob = _problem("circle", ["rot", "rot"], v, v, 1)
    mesh = CircleMesh(64)
    hf = solve_hjb(prob, _cfl_grid(prob, mesh, T=1.0), mesh)
    assert hf.min_weight == pytest.approx(expected, abs=1e-4)


_DIFFUSIONS = {
    "circle": (["rot", "scale:0.5:rot", "zero"], lambda n: CircleMesh(n[0])),
    "sphere2": (["rot_x", "rot_y", "rot_z", "zero"], lambda n: SphereMesh(n[0], n[1])),
    "torus2": (["rot1", "rot2", "const_angle:0.3", "zero"], lambda n: TorusMesh(n[0], n[1])),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_min_weight_is_nonnegative_without_drift_within_the_cfl_guard(data):
    manifold = data.draw(st.sampled_from(sorted(_DIFFUSIONS)))
    catalog, make_mesh = _DIFFUSIONS[manifold]
    diffusions = data.draw(st.lists(st.sampled_from(catalog), min_size=1, max_size=3))
    lower = [0.0] + [data.draw(st.floats(-2.0, 2.0)) for _ in diffusions]
    upper = [0.0] + [lo + data.draw(st.floats(0.0, 2.0)) for lo in lower[1:]]
    prob = _problem(manifold, ["zero"] + diffusions, lower, upper,
                    data.draw(st.integers(1, 3)))
    mesh = make_mesh([data.draw(st.integers(3, 12)) for _ in range(2)])
    cfl_limit = data.draw(st.floats(0.2, 1.0))
    T = data.draw(st.floats(0.01, 0.2))
    n = hjb_steps_for_cfl(prob, 0.0, T, mesh, cfl_limit=cfl_limit)
    hf = solve_hjb(prob, TimeGrid(0.0, T, n), mesh, cfl_limit=cfl_limit, stride=n)
    assert hf.min_weight >= 0.0


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
    calls = {"interpolate": 0, "gather": 0, "corners": 0}
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
    assert calls == {"interpolate": 0, "gather": 0, "corners": 1}


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
            X1 = euler_step(prob.manifold, prob.fields, grid.dt,
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
    assert prob.controls.grid().shape[0] >= 2
    # One gather for the one-step states of all grid controls together.
    assert calls == {"interpolate": 0, "gather": 1, "corners": 0, "normal_increments": 0}


# ---------------------------------------------------------------------------
# value_function against the former per-control loop
# ---------------------------------------------------------------------------


def _per_control_value_function(prob, grid, mesh, picard_iters=3):
    """The former value_function: one gather, one Gauss-Hermite average and
    one driver call per grid control, then ``grid_argmin`` of their values."""
    controls = prob.controls.grid()
    nodes = mesh.nodes
    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    xi, w = gauss_hermite_rule(prob.d)
    dW = xi * sqrt_dt
    u = np.empty((grid.n_steps + 1, mesh.n_nodes))
    u[grid.n_steps] = prob.terminal(nodes)
    argmin = np.empty((grid.n_steps, mesh.n_nodes, controls.shape[1]))
    n_rule = xi.shape[0]
    X = np.repeat(nodes.T, n_rule, axis=1)
    dW_cols = np.tile(dW.T, mesh.n_nodes)
    at_next = [
        mesh.gather(
            np.ascontiguousarray(
                euler_step(prob.manifold, prob.fields, dt, X, v[:, None], dW_cols).T
            ).reshape(mesh.n_nodes, n_rule, -1)
        )
        for v in controls
    ]
    values = np.empty((controls.shape[0], mesh.n_nodes))
    for i in range(grid.n_steps - 1, -1, -1):
        for k, (v, gather) in enumerate(zip(controls, at_next)):
            u_next = gather(u[i + 1])
            y_bar = u_next @ w
            Z = (u_next * w) @ xi / sqrt_dt
            vv = np.broadcast_to(v, (mesh.n_nodes, v.shape[0]))
            y = y_bar
            for _ in range(picard_iters):
                y = y_bar + dt * prob.driver(grid.times[i], nodes, y, Z, vv)
            values[k] = y
        u[i], rows = grid_argmin(values)
        argmin[i] = controls[rows]
    return u, argmin


# Control boxes with k = 1, 2, 5, 16 and 27 grid controls: (lower, upper,
# points per axis), circle first, then sphere2 and torus2 (d = 2).
_K_BOXES = {
    "circle": {1: ([0.0, 1.0], [0.0, 1.0], 1), 2: ([0.0, 0.5], [0.0, 1.0], 2),
               5: ([0.0, 0.5], [0.0, 1.0], 5), 16: ([-0.5, 0.5], [0.5, 1.0], 4),
               27: ([0.0, 0.2], [0.0, 1.0], 27)},
    "d2": {1: ([0.0, 1.0, 1.0], [0.0, 1.0, 1.0], 1), 2: ([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], 2),
           5: ([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], 5), 16: ([0.0, 0.5, 0.5], [0.0, 1.0, 1.0], 4),
           27: ([-0.3, 0.5, 0.5], [0.3, 1.0, 1.0], 3)},
}
_K_MANIFOLDS = {
    "circle": (["rot", "rot"], "circle", lambda: CircleMesh(24)),
    "sphere2": (["rot_x", "rot_y", "rot_z"], "d2", lambda: SphereMesh(7, 12)),
    "torus2": (["rot1", "rot1", "rot2"], "d2", lambda: TorusMesh(6, 9)),
}


@pytest.mark.parametrize("k", [1, 2, 5, 16, 27])
@pytest.mark.parametrize("manifold", sorted(_K_MANIFOLDS))
def test_value_function_matches_the_per_control_loop(manifold, k):
    fields, boxes, make_mesh = _K_MANIFOLDS[manifold]
    prob = _problem(manifold, fields, *_K_BOXES[boxes][k])
    assert prob.controls.grid().shape[0] == k
    mesh = make_mesh()
    grid = TimeGrid(0.0, 0.5, 8)
    vf = value_function(prob, grid, mesh)
    u, argmin = _per_control_value_function(prob, grid, mesh)
    assert np.array_equal(vf.u, u)
    assert np.array_equal(vf.argmin_control, argmin)
