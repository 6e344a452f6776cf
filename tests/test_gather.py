"""The mesh's one interpolation, its cell corners, and the HJB and value
sweeps built on them.

The reference formulas below are the per-call mesh interpolation written out
directly (chart, cell, weights and one lerp per axis in one expression).
``interpolate`` must be the in-order sum over the cell corners bit for bit;
that is the reference bit for bit on one-axis meshes, where the corner sum is
the lerp, and within rounding on every mesh.  ``solve_hjb`` must reproduce a sweep that rebuilds its transition
weights at every step, takes the controls one at a time and sums the
weighted rows in order, and keep every stride-th layer of it; it must also
stay within rounding of the former difference-form sweep.
``value_function`` must reproduce one that rebuilds and interpolates its
one-step states on every layer.  Both references minimize with their own
strict-< scan over the controls, not with ``grid_argmin``.  ``value_function``
must also reproduce its former loop over the grid controls, which stepped one
control at a time, bit for bit.  With one control and the zero driver
``solve_hjb`` runs composed s-step kernels, and must stay within rounding of
the reference at any s.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geodp import hjb, rng as geodp_rng
from geodp.bsde import Driver
from geodp.catalog import get_driver, get_terminal
from geodp.config import ExperimentConfig
from geodp.dynamics import ControlSet, TimeGrid, euler_step, grid_argmin
from geodp.geometry import flow_step, get_field, get_manifold
from geodp.harness import _hjb_on_cfl_grid
from geodp.hjb import hjb_steps_for_cfl, kernel_power, kernel_steps_for, solve_hjb, transition_weights
from geodp.problem import ControlProblem
from geodp.value import (
    CircleMesh,
    ManifoldMesh,
    SphereMesh,
    TorusMesh,
    corner_sum,
    gauss_hermite_rule,
    make_mesh,
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


def _in_order_corner_sum(mesh, values, points):
    """weight[0] * u[index[0]] + weight[1] * u[index[1]] + ..., left to right."""
    index, weight = mesh.corners(points)
    total = weight[0] * values[index[0]]
    for c in range(1, index.shape[0]):
        total = total + weight[c] * values[index[c]]
    return total


@pytest.mark.parametrize("name", sorted(MESHES))
def test_interpolate_is_the_in_order_corner_sum(name):
    """Bit for bit; on one axis the corner sum is the lerp, so there it is
    also the reference formula bit for bit (two-axis meshes: within rounding,
    ``test_corners_interpolate_as_the_reference_formula``)."""
    make, points_for = MESHES[name]
    mesh = make()
    rng = np.random.default_rng(11)
    pts = points_for(mesh, rng)
    stacked = pts[: (pts.shape[0] // 6) * 6].reshape(2, 3, -1, pts.shape[-1])
    for _ in range(3):
        vals = rng.normal(size=mesh.n_nodes)
        for p in (pts, stacked, pts[0]):
            got = mesh.interpolate(vals, p)
            assert np.array_equal(got, _in_order_corner_sum(mesh, vals, p))
            if len(mesh.axes) == 1:
                assert np.array_equal(got, _ref_interpolate(mesh, vals, p))
        np.testing.assert_allclose(mesh.interpolate(vals, pts)[: mesh.n_nodes], vals, atol=1e-12)


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
        assert not {"corners", "interpolate"} & set(cls.__dict__)
    assert {"corners", "interpolate"} <= set(ManifoldMesh.__dict__)
    assert not {"gather", "_cells"} & set(dir(ManifoldMesh))


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
    calls = {"interpolate": 0, "corners": 0}
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
    assert calls == {"interpolate": 0, "corners": 1}


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
    # One corners call for the one-step states of all grid controls together.
    assert calls == {"interpolate": 0, "corners": 1, "normal_increments": 0}


# ---------------------------------------------------------------------------
# value_function against the former per-control loop
# ---------------------------------------------------------------------------


def _per_control_value_function(prob, grid, mesh, picard_iters=3):
    """The former value_function: one set of cell corners, one corner sum,
    one Gauss-Hermite average and one driver call per grid control, then
    ``grid_argmin`` of their values."""
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
        mesh.corners(
            np.ascontiguousarray(
                euler_step(prob.manifold, prob.fields, dt, X, v[:, None], dW_cols).T
            ).reshape(mesh.n_nodes, n_rule, -1)
        )
        for v in controls
    ]
    values = np.empty((controls.shape[0], mesh.n_nodes))
    for i in range(grid.n_steps - 1, -1, -1):
        for k, (v, (index, weight)) in enumerate(zip(controls, at_next)):
            u_next = corner_sum(u[i + 1], index, weight)
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


# ---------------------------------------------------------------------------
# Both grid solvers under catalog drivers, byte for byte
# ---------------------------------------------------------------------------
#
# Under the zero driver each solver keeps only its transition average; the
# references still add dt * f.  The bytes must agree, so that the sign of a
# zero counts: y + dt * 0.0 turns -0.0 into 0.0, and the einsum and matmul
# sums start from 0.0, so only the terminal layer can hold -0.0.  The
# constant and linear_y drivers keep the general step.


def _assert_both_solvers_are_their_references(prob, mesh):
    grid = _cfl_grid(prob, mesh)
    hf = solve_hjb(prob, grid, mesh)
    u, argmin = _reference_solve_hjb(prob, grid, mesh)
    assert hf.u.tobytes() == u.tobytes()
    assert hf.argmin_control.tobytes() == argmin.tobytes()
    grid = TimeGrid(0.0, 0.5, 8)
    vf = value_function(prob, grid, mesh)
    u, argmin = _reference_value_function(prob, grid, mesh)
    assert vf.u.tobytes() == u.tobytes()
    assert vf.argmin_control.tobytes() == argmin.tobytes()


@pytest.mark.parametrize("driver", ["zero", "constant", "linear_y"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_solvers_under_catalog_drivers_are_their_references_byte_for_byte(name, driver):
    make_prob, make_mesh = CASES[name]
    prob = replace(make_prob(), driver=get_driver(driver, None))
    assert prob.driver.vanishes == (driver == "zero")
    _assert_both_solvers_are_their_references(prob, make_mesh())


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_solvers_under_the_zero_driver_keep_a_negative_zero_terminal(name):
    """Phi = -x_index for every ambient coordinate: some terminal nodes hold
    -0.0 (sin 0 on each circle factor).  Without a moving field
    (circle-drift-only) each step averages u at the node alone."""
    make_prob, make_mesh = CASES[name]
    base, mesh = make_prob(), make_mesh()
    negative_zeros = 0
    for index in range(base.manifold.ambient_dim):
        prob = replace(base, driver=get_driver("zero", None),
                       terminal=get_terminal("coord", {"index": index, "scale": -1.0}))
        phi = prob.terminal(mesh.nodes)
        negative_zeros += np.count_nonzero((phi == 0.0) & np.signbit(phi))
        _assert_both_solvers_are_their_references(prob, mesh)
    assert negative_zeros > 0


# ---------------------------------------------------------------------------
# The linear step: one control under the zero driver, run as s-step kernels
# ---------------------------------------------------------------------------


def _linear(name):
    """The one-control, zero-driver version of a CASES entry: its upper control."""
    make_prob, make_mesh = CASES[name]
    prob = make_prob()
    one = ControlSet(prob.controls.upper, prob.controls.upper)
    return replace(prob, driver=get_driver("zero", None), controls=one), make_mesh()


_LINEAR_GRID = TimeGrid(0.0, 0.5, 70)


@pytest.mark.parametrize("name", sorted(CASES))
def test_linear_solve_hjb_is_the_reference_at_any_kernel_steps(monkeypatch, name):
    prob, mesh = _linear(name)
    u, argmin = _reference_solve_hjb(prob, _LINEAR_GRID, mesh)
    for s in (2, 4):
        monkeypatch.setattr(hjb, "kernel_steps_for", lambda rows, n_nodes, n_steps, stride, s=s: s)
        for stride in (7, 35):  # each window leaves a remainder of one-step layers
            hf = solve_hjb(prob, _LINEAR_GRID, mesh, stride=stride)
            assert stride % s and hf.kernel_steps == s
            assert np.max(np.abs(hf.u - u[::stride])) <= 1e-12
            assert np.array_equal(hf.argmin_control, argmin[::stride])


@pytest.mark.parametrize("name", ["circle-drift", "circle-zero-diffusion", "sphere"])
def test_linear_steps_with_a_drift_have_signed_weights(name):
    prob, mesh = _linear(name)
    assert solve_hjb(prob, _LINEAR_GRID, mesh, stride=7).min_weight < 0.0


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(CASES)), s=st.sampled_from([1, 2, 4, 8, 16]),
       n_steps=st.integers(30, 120), seed=st.integers(0, 2**16))
def test_kernel_power_is_s_one_step_layers(name, s, n_steps, seed):
    prob, mesh = _linear(name)
    index, wy, _, _ = transition_weights(prob, mesh, 0.5 / n_steps)
    weight = wy[0]
    index_s, weight_s = kernel_power(index, weight, s)
    assert index_s.shape == weight_s.shape and index_s.shape[1] == mesh.n_nodes
    assert np.all((0 <= index_s) & (index_s < mesh.n_nodes))
    assert np.max(np.abs(weight_s.sum(axis=0) - 1.0)) <= s * 1e-15
    if weight.min() >= 0.0:
        assert weight_s.min() >= 0.0
    u = np.random.default_rng(seed).normal(size=mesh.n_nodes)
    stepped = u
    for _ in range(s):
        stepped = np.sum(weight * stepped[index], axis=0)
    composed = np.sum(weight_s * u[index_s], axis=0)
    assert np.max(np.abs(composed - stepped)) <= 1e-13 * s
    eps = 0.75
    assert np.max(np.abs(np.sum(weight_s * (u + eps)[index_s], axis=0) - (composed + eps))) <= 1e-13 * s


def test_kernel_power_sums_equal_targets_and_pads_with_the_node():
    # Node 0 splits between itself and node 1; node 1 stays, along two rows.
    # In two steps node 0 reaches node 1 along three paths, summed into one
    # row, and node 1 reaches itself alone, padded with (1, 0.0).
    index = np.array([[0, 1], [1, 1]])
    weight = np.array([[0.5, 0.25], [0.5, 0.75]])
    index_2, weight_2 = kernel_power(index, weight, 2)
    assert index_2.T.tolist() == [[0, 1], [1, 1]]
    assert weight_2.T.tolist() == [[0.25, 0.75], [1.0, 0.0]]
    index = np.array([[0, 1, 2], [1, 2, 0]])
    weight = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
    index_2, weight_2 = kernel_power(index, weight, 2)
    # node j reaches j, j + 1 and j + 2 (mod 3) with 1/4, 1/2 and 1/4, in target order
    assert index_2.T.tolist() == [[0, 1, 2]] * 3
    assert weight_2.T.tolist() == [[0.25, 0.5, 0.25], [0.25, 0.25, 0.5], [0.5, 0.25, 0.25]]


@pytest.mark.parametrize("s", [0, 3, 6, 12])
def test_kernel_power_takes_only_powers_of_two(s):
    index, weight = np.array([[0, 1], [1, 1]]), np.array([[0.5, 0.25], [0.5, 0.75]])
    with pytest.raises(ValueError, match="not a power of two"):
        kernel_power(index, weight, s)


def test_the_linear_step_calls_no_grid_argmin(monkeypatch):
    prob, mesh = _linear("circle")
    monkeypatch.setattr(hjb, "grid_argmin", None)  # a call would raise TypeError
    hf = solve_hjb(prob, _LINEAR_GRID, mesh, stride=35)
    assert np.array_equal(hf.argmin_control, np.broadcast_to(prob.controls.upper, hf.argmin_control.shape))


def _heat(manifold, fields, upper, sizes):
    prob = _problem(manifold, fields, upper, upper, 1, driver=get_driver("zero", None))
    return prob, {"sphere2": SphereMesh, "torus2": TorusMesh}[manifold](*sizes)


def _one_step_sweep(prob, grid, mesh, stride):
    """The one-step sweep: one take, one einsum and ``grid_argmin`` per step,
    every stride-th layer kept."""
    index, wy, _, _ = transition_weights(prob, mesh, grid.dt)
    controls = prob.controls.grid()
    U = np.empty(index.shape)
    u = np.empty((grid.n_steps // stride + 1, mesh.n_nodes))
    argmin = np.empty((grid.n_steps // stride, mesh.n_nodes, controls.shape[1]))
    u_i = u[-1] = prob.terminal(mesh.nodes)
    for i in range(grid.n_steps - 1, -1, -1):
        u_i.take(index, mode="clip", out=U)
        u_i, rows = grid_argmin(np.einsum("kmn,mn->kn", wy, U))
        if i % stride == 0:
            u[i // stride], argmin[i // stride] = u_i, controls[rows]
    return u, argmin


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The heat kernels whose one-step gather is already element-bound: the CI
# sphere2 ladder's finest level on its CFL steps (one window) and the
# benchmark's 28^2 torus agreement (windows of 9 steps under 12 value steps).
_ELEMENT_BOUND_HEAT = {
    "sphere2-33x64": (("sphere2", ["zero", "rot_x", "rot_y", "rot_z"], [0.0, 1.0, 1.0, 1.0], (33, 64)), 1),
    "torus2-28x28": (("torus2", ["zero", "rot1", "rot2"], [0.0, 1.0, 1.0], (28, 28)), 12),
}


@pytest.mark.parametrize("name", sorted(_ELEMENT_BOUND_HEAT))
def test_element_bound_heat_kernels_compose_nothing(monkeypatch, name):
    problem, n_out = _ELEMENT_BOUND_HEAT[name]
    prob, mesh = _heat(*problem)
    n = hjb_steps_for_cfl(prob, 0.0, 1.0, mesh, multiple_of=n_out)
    grid, stride = TimeGrid(0.0, 1.0, n), n // n_out
    calls = []
    power = hjb.kernel_power
    monkeypatch.setattr(hjb, "kernel_power", lambda *a: calls.append(a) or power(*a))
    hf = solve_hjb(prob, grid, mesh, stride=stride)
    assert calls == [] and hf.kernel_steps == 1
    u, argmin = _one_step_sweep(prob, grid, mesh, stride)
    assert hf.u.tobytes() == u.tobytes()
    assert hf.argmin_control.tobytes() == argmin.tobytes()
    peak = _peak_bytes(lambda: solve_hjb(prob, grid, mesh, stride=stride))
    assert peak <= 1.1 * _peak_bytes(lambda: _one_step_sweep(prob, grid, mesh, stride))


def _cfl_field(experiment, sizes_list, **config):
    cfg = ExperimentConfig.from_dict(dict(config, experiment=experiment))
    prob = cfg.build_problem()
    return [_hjb_on_cfl_grid(cfg, prob, make_mesh(prob.manifold, sizes), n_out)
            for sizes, n_out in sizes_list]


def test_kernel_steps_of_the_benchmark_heat_problems():
    ladder = [{"n_theta": 100}, {"n_theta": 200}, {"n_theta": 400}]
    fields = _cfl_field("convergence-table", [(s, 1) for s in ladder], ladder=ladder)
    assert [hf.kernel_steps for hf in fields] == [4, 8, 4]
    assert [hf.grid.n_steps for hf in fields] == [1, 1, 1]
    (torus,) = _cfl_field(
        "solver-agreement", [({"n1": 28, "n2": 28}, 12)], manifold="torus2",
        fields=["zero", "rot1", "rot2"], control_set={"lower": [0, 1, 1], "upper": [0, 1, 1]},
        mesh={"n1": 28, "n2": 28}, time={"n_steps": 12})
    assert torus.kernel_steps == 1


@pytest.mark.parametrize("rows, n_nodes, n_steps, stride, s", [
    (5, 100, 634, 634, 4), (5, 200, 2534, 2534, 8), (5, 400, 10133, 10133, 4),
    (5, 128, 1088, 17, 4), (5, 256, 4224, 33, 4), (9, 128, 1088, 17, 2),
    (5, 400, 10133, 3, 2), (5, 400, 10133, 1, 1), (5, 32, 65, 65, 1),
    (17, 784, 108, 9, 1), (25, 1986, 779, 779, 1), (17, 256, 33, 33, 1),
])
def test_kernel_steps_follow_from_the_sizes(rows, n_nodes, n_steps, stride, s):
    assert kernel_steps_for(rows, n_nodes, n_steps, stride) == s
