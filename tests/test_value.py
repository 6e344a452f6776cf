import csv
import itertools
import types

import numpy as np
import pytest

from geodp.bsde import RegressionBasis
from geodp.catalog import get_driver, get_terminal
from geodp.dynamics import ControlPolicy, ControlSet, TimeGrid
from geodp.geometry import get_field, get_manifold
from geodp.problem import ControlProblem
from geodp.value import (
    CircleMesh,
    SphereMesh,
    TorusMesh,
    ValueField,
    continuity_moduli,
    cost_functional,
    dpp_residual_check,
    export_value_field,
    gauss_hermite_rule,
    make_mesh,
    value_function,
)

from conftest import circle_problem, unit_diffusion_circle


def test_make_mesh_and_interpolation_exactness():
    mesh = CircleMesh(64)
    # linear-in-angle interpolation reproduces nodal data at nodes
    vals = np.cos(3.0 * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    np.testing.assert_allclose(mesh.interpolate(vals, mesh.nodes), vals, atol=1e-12)
    sm = SphereMesh(9, 12)
    vals_s = sm.nodes[:, 2]
    np.testing.assert_allclose(sm.interpolate(vals_s, sm.nodes), vals_s, atol=1e-12)
    tm = TorusMesh(8, 8)
    vals_t = tm.nodes[:, 0] + tm.nodes[:, 2]
    np.testing.assert_allclose(tm.interpolate(vals_t, tm.nodes), vals_t, atol=1e-12)


def test_interpolation_is_convex_combination():
    mesh = CircleMesh(32)
    rng = np.random.default_rng(0)
    vals = rng.uniform(-1, 1, size=32)
    th = rng.uniform(0, 2 * np.pi, size=500)
    pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
    out = mesh.interpolate(vals, pts)
    assert np.all(out <= np.max(vals) + 1e-12)
    assert np.all(out >= np.min(vals) - 1e-12)


def test_mesh_refine_halves_spacing():
    for mesh in (CircleMesh(16), SphereMesh(9, 12), TorusMesh(8, 8)):
        fine = mesh.refine()
        assert fine.spacing() < 0.6 * mesh.spacing()


# E xi^k for xi ~ N(0, 1), k = 0..5
_NORMAL_MOMENTS = (1.0, 0.0, 1.0, 0.0, 3.0, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gauss_hermite_rule_moments(d):
    """Positive weights summing to 1; every moment with exponents <= 5 is exact."""
    xi, w = gauss_hermite_rule(d)
    assert xi.shape == (3**d, d) and w.shape == (3**d,)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    for alpha in itertools.product(range(6), repeat=d):
        exact = np.prod([_NORMAL_MOMENTS[a] for a in alpha])
        rule = np.sum(w * np.prod(xi ** np.array(alpha), axis=1))
        assert rule == pytest.approx(exact, abs=1e-13), alpha
    # degree 6 is beyond the rule: 2 * 27 / 6 = 9, not E xi^6 = 15
    assert np.sum(w * xi[:, 0] ** 6) == pytest.approx(9.0)


def _heat_problem(manifold, fields, control):
    m = get_manifold(manifold)
    return ControlProblem(
        manifold=m,
        fields=[get_field(m, f) for f in fields],
        driver=get_driver("zero", None),
        terminal=get_terminal("coord", {"index": 0, "scale": 1.0}),
        controls=ControlSet(lower=np.array(control, dtype=float),
                            upper=np.array(control, dtype=float)),
    )


def test_value_sphere_closed_form():
    """The three unit rotations give 1/2 Laplace-Beltrami: u(0, x) = x_0 e^{-T}."""
    prob = _heat_problem("sphere2", ["zero", "rot_x", "rot_y", "rot_z"], [0, 1, 1, 1])
    mesh = SphereMesh(17, 32)
    vf = value_function(prob, TimeGrid(0.0, 1.0, 32), mesh)
    err = np.max(np.abs(vf.u[0] - mesh.nodes[:, 0] * np.exp(-1.0)))
    assert err < 0.06  # 0.043 measured


def test_value_torus_closed_form_and_mesh_refinement():
    """Heat on each circle factor: u(0, x) = x_0 e^{-T/2}; refining the mesh helps."""
    prob = _heat_problem("torus2", ["zero", "rot1", "rot2"], [0, 1, 1])
    errs = []
    for n in (32, 64):
        mesh = TorusMesh(n, n)
        vf = value_function(prob, TimeGrid(0.0, 1.0, 32), mesh)
        errs.append(np.max(np.abs(vf.u[0] - mesh.nodes[:, 0] * np.exp(-0.5))))
    assert errs[0] < 0.03  # 0.021 measured
    assert errs[1] < 0.01  # 0.0071 measured
    assert errs[1] < 0.5 * errs[0]


def test_value_constant_terminal_zero_driver():
    prob = unit_diffusion_circle(driver_id="zero", terminal_id="constant")
    grid = TimeGrid(0.0, 1.0, 32)
    mesh = CircleMesh(32)
    vf = value_function(prob, grid, mesh)
    np.testing.assert_allclose(vf.u, 1.0, atol=1e-10)


def test_value_agrees_with_cost_functional_singleton_control():
    """With one admissible control the value is the cost of that policy."""
    prob = unit_diffusion_circle(driver_id="linear_y", terminal_id="coord")
    prob = ControlProblem(
        manifold=prob.manifold, fields=prob.fields,
        driver=get_driver("linear_y", {"beta": 0.5, "c": 0.1}),
        terminal=prob.terminal, controls=prob.controls,
    )
    grid = TimeGrid(0.0, 1.0, 32)
    mesh = CircleMesh(64)
    vf = value_function(prob, grid, mesh)
    v = prob.controls.grid()[0]
    j = cost_functional(
        prob, 0.0, mesh.nodes[0], ControlPolicy.constant(v), 1.0,
        n_steps=32, n_paths=8192, seed=17,
    )
    assert abs(vf.u[0, 0] - j) < 2e-2


def test_value_upper_bounded_by_constant_controls():
    """u(0, x) <= min over constant controls of their (independent) cost."""
    prob = circle_problem()
    grid = TimeGrid(0.0, 1.0, 32)
    mesh = CircleMesh(64)
    vf = value_function(prob, grid, mesh)
    node = 5
    best_const = min(
        cost_functional(
            prob, 0.0, mesh.nodes[node], ControlPolicy.constant(v), 1.0,
            n_steps=32, n_paths=8192, seed=23,
        )
        for v in prob.controls.grid()
    )
    assert vf.u[0, node] <= best_const + 2e-2


def test_monotone_in_control_set():
    """Enlarging the control grid can only decrease the value."""
    grid = TimeGrid(0.0, 1.0, 32)
    mesh = CircleMesh(32)
    small = circle_problem(sigma_low=1.0, sigma_high=1.0, grid_points=1)
    large = circle_problem(sigma_low=0.5, sigma_high=1.0, grid_points=2)
    u_small = value_function(small, grid, mesh).u
    u_large = value_function(large, grid, mesh).u
    assert np.all(u_large <= u_small + 1e-12)


def test_argmin_invariance_under_constant_shift():
    """Adding a constant to the terminal shifts u and leaves argmin unchanged
    when the driver ignores y and z."""
    grid = TimeGrid(0.0, 0.5, 16)
    mesh = CircleMesh(32)
    p1 = circle_problem(driver_id="zero", terminal_params={"index": 0, "scale": 1.0})
    from geodp.bsde import TerminalCost

    shift = 2.0
    p2 = ControlProblem(
        manifold=p1.manifold, fields=p1.fields, driver=p1.driver,
        terminal=TerminalCost(phi=lambda x: np.asarray(x)[..., 0] + shift, lipschitz_K=1.0),
        controls=p1.controls,
    )
    v1 = value_function(p1, grid, mesh)
    v2 = value_function(p2, grid, mesh)
    np.testing.assert_allclose(v2.u - v1.u, shift, atol=1e-10)
    # identical up to float-rounding tie-breaks at near-equal candidates
    mismatch = np.mean(np.any(v1.argmin_control != v2.argmin_control, axis=-1))
    assert mismatch < 0.01


def test_dpp_residual_small_on_suite():
    prob = circle_problem()
    grid = TimeGrid(0.0, 1.0, 64)
    mesh = CircleMesh(128)
    vf = value_function(prob, grid, mesh)
    probes = [(i, j) for i in (0, 20, 40, 59) for j in (0, 32, 64, 96)]
    for ds in (1, 4):
        rep = dpp_residual_check(prob, vf, ds, probes, fresh_seed=99, n_paths=4096)
        assert rep.passed, f"delta={ds}: max residual {rep.max_residual}"


def test_continuity_moduli_decay():
    prob = circle_problem()
    mesh = CircleMesh(64)
    u_coarse = value_function(prob, TimeGrid(0.0, 1.0, 16), mesh)
    u_fine = value_function(prob, TimeGrid(0.0, 1.0, 64), mesh)
    mc = continuity_moduli(u_coarse)
    mf = continuity_moduli(u_fine)
    # one spacing bucket on the uniform circle mesh; finite moduli
    assert len(mc.space_modulus) == 1
    (dc, sc), = mc.space_modulus.items()
    assert sc < 0.5  # neighbor jumps are small for a 1-Lipschitz terminal
    # time modulus shrinks with dt (within noise)
    tc = list(mc.time_modulus.values())[0]
    tf = list(mf.time_modulus.values())[0]
    assert tf < tc


def test_export_value_field(tmp_path):
    prob = unit_diffusion_circle(driver_id="zero", terminal_id="coord")
    vf = value_function(prob, TimeGrid(0.0, 0.2, 4), CircleMesh(8))
    p = tmp_path / "vf.csv"
    export_value_field(vf, str(p))
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "time_index,node_index,x0,x1,u,v0,v1"
    assert len(lines) == 1 + 5 * 8
    # terminal row holds the terminal cost at the node
    last = lines[-1].split(",")
    assert float(last[4]) == pytest.approx(float(last[2]))


def _csv_writer_export(vf, path):
    """The export written with csv.writer and one repr per cell."""
    n = vf.mesh.nodes.shape[1]
    dctrl = vf.argmin_control.shape[2]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["time_index", "node_index"] + [f"x{k}" for k in range(n)] + ["u"]
            + [f"v{k}" for k in range(dctrl)]
        )
        for i in range(vf.u.shape[0]):
            for j in range(vf.u.shape[1]):
                ctrl = (
                    [repr(float(c)) for c in vf.argmin_control[i, j]]
                    if i < vf.argmin_control.shape[0]
                    else [""] * dctrl
                )
                w.writerow(
                    [i, j] + [repr(float(c)) for c in vf.mesh.nodes[j]]
                    + [repr(float(vf.u[i, j]))] + ctrl
                )


def test_export_value_field_matches_csv_writer_bytes(tmp_path):
    special = [-0.0, 1e16, 1e-05, 0.1 + 0.2, 1e-300, -2.5, 3.0]
    nodes = np.array([[-0.0, 1.0, 1e-300], [0.1 + 0.2, -1e16, 1e-05], [1.0, 0.0, -0.5]])
    u = np.array([special[:3], special[3:6], special[4:7], [0.0, -0.0, 1e16]])
    argmin = np.array([[[-0.0, 1e-05], [1e16, 0.1 + 0.2], [1e-300, 0.5]]] * 3)
    vf = ValueField(grid=TimeGrid(0.0, 0.3, 3), mesh=types.SimpleNamespace(nodes=nodes),
                    u=u, argmin_control=argmin)
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    export_value_field(vf, str(fast))
    _csv_writer_export(vf, str(ref))
    assert fast.read_bytes() == ref.read_bytes()
    assert fast.read_bytes().endswith(b",1e+16,,\r\n")
