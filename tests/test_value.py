import csv
import dataclasses
import itertools
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from geodp.bsde import RegressionBasis
from geodp.catalog import get_driver, get_terminal
from geodp.dynamics import BrownianGrid, ControlSet, TimeGrid, constant_policy
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
    noise = BrownianGrid(TimeGrid(0.0, 1.0, 32), prob.d, 8192, 17, antithetic=True)
    j = cost_functional(prob, mesh.nodes[0], constant_policy(v), noise)
    assert abs(vf.u[0, 0] - j) < 2e-2


def test_value_upper_bounded_by_constant_controls():
    """u(0, x) <= min over constant controls of their (independent) cost."""
    prob = circle_problem()
    grid = TimeGrid(0.0, 1.0, 32)
    mesh = CircleMesh(64)
    vf = value_function(prob, grid, mesh)
    node = 5
    noise = BrownianGrid(TimeGrid(0.0, 1.0, 32), prob.d, 8192, 23, antithetic=True)
    best_const = min(
        cost_functional(prob, mesh.nodes[node], constant_policy(v), noise)
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
    residuals = dpp_residual_check(prob, vf, [1, 4], probes, seed=99, n_paths=4096)
    assert residuals.shape == (2, len(probes))
    for ds, row in zip((1, 4), residuals):
        assert np.max(row) <= 2e-2, f"delta={ds}: max residual {np.max(row)}"


@pytest.mark.parametrize("nan_control", [0, 1])
def test_dpp_residual_nan_window_value_is_not_passed_over(monkeypatch, nan_control):
    """The window minimum is grid_argmin's: a NaN semigroup value under either
    control gives a NaN residual, as a NaN does in value_function."""
    import geodp.value as value

    prob = circle_problem()
    sigma_nan = prob.controls.grid()[nan_control][1]
    grid = TimeGrid(0.0, 0.5, 8)
    vf = value_function(prob, grid, CircleMesh(16))

    def semigroup(ens, driver, basis, eta, picard_iters):
        v = ens.policy(0, ens.states[0])[0]
        return np.nan if v[1] == sigma_nan else 0.25

    monkeypatch.setattr(value, "semigroup", semigroup)
    residuals = dpp_residual_check(prob, vf, [2], [(0, 0), (3, 5)], seed=1, n_paths=64)
    assert residuals.shape == (1, 2) and np.all(np.isnan(residuals))
    assert not np.max(residuals) <= 2e-2


@pytest.mark.parametrize("probe", [(8, 0), (-1, 0), (0, 16)])
def test_dpp_residual_rejects_a_probe_outside_the_table(probe):
    """A probe at i = n_steps would have a window of zero steps, and one
    outside the steps or the nodes names no table entry: each is a ValueError."""
    prob = circle_problem()
    vf = value_function(prob, TimeGrid(0.0, 0.5, 8), CircleMesh(16))
    with pytest.raises(ValueError, match="outside"):
        dpp_residual_check(prob, vf, [1], [(0, 0), probe], seed=1, n_paths=64)


def test_continuity_moduli_decay():
    prob = circle_problem()
    mesh = CircleMesh(64)
    u_coarse = value_function(prob, TimeGrid(0.0, 1.0, 16), mesh)
    u_fine = value_function(prob, TimeGrid(0.0, 1.0, 64), mesh)
    space_c, time_c = continuity_moduli(u_coarse)
    _, time_f = continuity_moduli(u_fine)
    # one spacing bucket on the uniform circle mesh; finite moduli
    (dc, sc), = space_c.items()
    assert dc == pytest.approx(2 * np.pi / 64) and sc < 0.5  # small jumps for a 1-Lipschitz terminal
    # time modulus shrinks with dt (within noise)
    (dt_c, tc), = time_c.items()
    (dt_f, tf), = time_f.items()
    assert (dt_c, dt_f) == (1.0 / 16, 1.0 / 64) and tf < tc


def _four_control_torus():
    """The torus2 heat problem over the control grid {0} x {0.5, 1}^2."""
    return dataclasses.replace(
        _heat_problem("torus2", ["zero", "rot1", "rot2"], [0, 1, 1]),
        controls=ControlSet([0, 0.5, 0.5], [0, 1, 1], grid_points_per_axis=2),
    )


def _hjb_field(prob, mesh, n_steps):
    """solve_hjb on a CFL-refined grid, keeping every stride-th layer (stride > 1)."""
    from geodp.hjb import hjb_steps_for_cfl, solve_hjb

    n_hjb = hjb_steps_for_cfl(prob, 0.0, 0.5, mesh, cfl_limit=0.4, multiple_of=2 * n_steps)
    return solve_hjb(prob, TimeGrid(0.0, 0.5, n_hjb), mesh, cfl_limit=0.4,
                     stride=n_hjb // n_steps)


# Problem, mesh, and whether solve_hjb (True) or value_function (False) solves it.
_ARGMIN_FIELDS = {
    "table-circle": (circle_problem, lambda: CircleMesh(16), False),
    "table-torus-4-controls": (_four_control_torus, lambda: TorusMesh(12, 10), False),
    "hjb-general-circle": (circle_problem, lambda: CircleMesh(16), True),
    "hjb-general-torus-4-controls": (_four_control_torus, lambda: TorusMesh(12, 10), True),
    "hjb-linear-torus": (
        lambda: _heat_problem("torus2", ["zero", "rot1", "rot2"], [0, 1, 1]),
        lambda: TorusMesh(12, 10), True),
}


@pytest.mark.parametrize("name", sorted(_ARGMIN_FIELDS))
def test_fields_keep_the_minimizing_grid_rows(name):
    """A field keeps the control grid and, per kept layer and node, the intp
    row of the grid that minimized it; argmin_control reads the controls
    through those rows."""
    problem, grid_mesh, hjb = _ARGMIN_FIELDS[name]
    prob, mesh, n_steps = problem(), grid_mesh(), 6
    if hjb:
        vf = _hjb_field(prob, mesh, n_steps)
    else:
        vf = value_function(prob, TimeGrid(0.0, 0.5, n_steps), mesh)
    controls = prob.controls.grid()
    assert np.array_equal(vf.controls, controls)
    assert vf.argmin_row.dtype == np.intp
    assert vf.argmin_row.shape == (n_steps, mesh.n_nodes)
    assert 0 <= vf.argmin_row.min() and vf.argmin_row.max() < len(controls)
    assert np.array_equal(vf.argmin_control, controls[vf.argmin_row])


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
    controls = np.array([[-0.0, 1e-05], [1e16, 0.1 + 0.2], [1e-300, 0.5]])
    vf = ValueField(grid=TimeGrid(0.0, 0.3, 3), mesh=types.SimpleNamespace(nodes=nodes),
                    u=u, controls=controls, argmin_row=np.array([[0, 1, 2]] * 3))
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    export_value_field(vf, str(fast))
    _csv_writer_export(vf, str(ref))
    assert fast.read_bytes() == ref.read_bytes()
    assert fast.read_bytes().endswith(b",1e+16,,\r\n")


def test_export_formats_repeated_control_rows_like_csv_writer(tmp_path):
    """Control rows repeat across nodes and layers; -0.0 and 0.0 are distinct
    grid controls with distinct text."""
    nodes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    controls = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 0.1 + 0.2]])
    argmin_row = np.array([[0, 1, 2, 0], [0, 2, 1, 0], [1, 1, 1, 2]])
    u = np.arange(16.0).reshape(4, 4) / 7.0
    vf = ValueField(grid=TimeGrid(0.0, 0.3, 3), mesh=types.SimpleNamespace(nodes=nodes),
                    u=u, controls=controls, argmin_row=argmin_row)
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    export_value_field(vf, str(fast))
    _csv_writer_export(vf, str(ref))
    assert fast.read_bytes() == ref.read_bytes()
    assert b",-0.0,1.0\r\n" in fast.read_bytes()


def _fstring_export(vf, path):
    """The export as one f-string per row, each node's coordinates and each
    control row joined with repr once."""
    n = vf.mesh.nodes.shape[1]
    n_ctrl_layers, _, dctrl = vf.argmin_control.shape
    coords = [",".join(map(repr, x)) for x in vf.mesh.nodes.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(
            ",".join(["time_index", "node_index"] + [f"x{k}" for k in range(n)] + ["u"]
                     + [f"v{k}" for k in range(dctrl)]) + "\r\n"
        )
        for i, layer in enumerate(vf.u.tolist()):
            ctrl = (
                [",".join(map(repr, c)) for c in vf.argmin_control[i].tolist()]
                if i < n_ctrl_layers
                else [",".join([""] * dctrl)] * len(coords)
            )
            fh.write("".join(
                f"{i},{j},{x},{u!r},{c}\r\n"
                for j, (x, u, c) in enumerate(zip(coords, layer, ctrl))
            ))


def _assert_export_matches_references(vf, tmp_path):
    fast, ref, old = tmp_path / "fast.csv", tmp_path / "ref.csv", tmp_path / "old.csv"
    export_value_field(vf, str(fast))
    _csv_writer_export(vf, str(ref))
    _fstring_export(vf, str(old))
    assert fast.read_bytes() == ref.read_bytes()
    assert fast.read_bytes() == old.read_bytes()
    return fast.read_bytes()


def _table(nodes, u, controls, argmin_row):
    u = np.asarray(u, dtype=float)
    return ValueField(grid=TimeGrid(0.0, 0.1 * (len(u) - 1), len(u) - 1),
                      mesh=types.SimpleNamespace(nodes=np.asarray(nodes, dtype=float)),
                      u=u, controls=np.asarray(controls, dtype=float),
                      argmin_row=np.asarray(argmin_row, dtype=np.intp))


# Two quiet NaNs with payloads, a signalling NaN and a negative NaN: all are
# written "nan".
_NANS = np.array([0x7FF8000000000001, 0x7FF8000000000002, 0x7FF0000000000003,
                  0xFFF8000000000000], dtype=np.uint64).view(np.float64)
_SQUARE = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]


@pytest.mark.parametrize(
    "nodes, u, controls, argmin_row",
    [
        (_SQUARE, [_NANS, [np.nan, 1.0, _NANS[1], -0.5]],
         [[0.0, 1.0], [_NANS[0], 1.0], [0.0, _NANS[2]], [_NANS[3], _NANS[1]]], [[3, 1, 0, 2]]),
        (_SQUARE, [[np.inf, -np.inf, 1e308, np.inf], [-np.inf, 0.0, -np.inf, 5e-324]],
         [[np.inf, 1.0], [-np.inf, 1.0], [0.0, np.nan]], [[0, 1, 0, 2]]),
        ([[-0.0, 1.0], [0.0, -1.0], [1.0, -0.0], [-1.0, 0.0]],
         [[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 1.0]],
         [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0]], [[0, 1, 2, 3]]),
        (_SQUARE, [[0.1 + 0.2] * 4, [0.3] * 4, np.arange(4) / 3.0], [[0.0, 1.0]], [[0] * 4] * 2),
        (np.linspace(-1.0, 1.0, 24).reshape(12, 2), np.random.default_rng(5).normal(size=(3, 12)),
         np.random.default_rng(6).normal(size=(24, 2)), np.arange(24).reshape(2, 12)),
        (_SQUARE * 2, np.arange(24.0).reshape(3, 8) % 5 / 7.0,
         [[0.0, 1.0, 0.5], [0.0, 0.5, 1.0], [0.0, 1.0, 1.0]], np.arange(16).reshape(2, 8) % 3),
        ([[0.6, 0.8]], [[0.25], [0.5], [1.0 / 3.0]], [[0.0, 1.0, 2.0], [-0.0, 2.0, 1.0]],
         [[0], [1]]),
    ],
    ids=["nan-payloads", "infinities", "signed-zeros", "all-repeat", "all-distinct",
         "k3-controls-d2", "single-node"],
)
def test_export_value_field_matches_both_references(tmp_path, nodes, u, controls, argmin_row):
    _assert_export_matches_references(_table(nodes, u, controls, argmin_row), tmp_path)


def test_export_value_field_keeps_signed_zeros_and_special_values_apart(tmp_path):
    vf = _table([[-0.0, 1.0], [0.0, -1.0]], [[0.0, -0.0], [_NANS[3], -np.inf]],
                [[-0.0, 1.0], [0.0, 1.0]], [[0, 1]])
    text = _assert_export_matches_references(vf, tmp_path).decode()
    assert text.splitlines()[1:] == [
        "0,0,-0.0,1.0,0.0,-0.0,1.0",
        "0,1,0.0,-1.0,-0.0,0.0,1.0",
        "1,0,-0.0,1.0,nan,,",
        "1,1,0.0,-1.0,-inf,,",
    ]


def test_export_of_a_torus_value_table_and_hjb_field_matches_both_references(tmp_path):
    from geodp.hjb import export_hjb_field, hjb_steps_for_cfl, solve_hjb

    prob = _heat_problem("torus2", ["zero", "rot1", "rot2"], [0, 1, 1])
    mesh = TorusMesh(12, 10)
    grid = TimeGrid(0.0, 0.5, 6)
    vf = value_function(prob, grid, mesh)
    n_hjb = hjb_steps_for_cfl(prob, 0.0, 0.5, mesh, cfl_limit=0.4, multiple_of=grid.n_steps)
    hf = solve_hjb(prob, TimeGrid(0.0, 0.5, n_hjb), mesh, cfl_limit=0.4,
                   stride=n_hjb // grid.n_steps)
    _assert_export_matches_references(vf, tmp_path)
    hjb_bytes = _assert_export_matches_references(hf, tmp_path)
    export_hjb_field(hf, str(tmp_path / "hjb.csv"))
    assert (tmp_path / "hjb.csv").read_bytes() == hjb_bytes
    # The layers repeat values, the case that float_texts formats once.
    assert len(set(vf.u[0].tolist())) < vf.u.shape[1]
    assert len(set(hf.u[0].tolist())) < hf.u.shape[1]


def test_exports_leave_numpy_ma_unimported(tmp_path):
    """np.unique without return_inverse calls np.ma.is_masked, which imports
    numpy.ma; no export may pay for that import."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from geodp.dynamics import BrownianGrid, TimeGrid, constant_policy, export_paths, simulate\n"
        "from geodp.geometry import get_field, get_manifold\n"
        "from geodp.value import CircleMesh, export_value_field, value_function\n"
        "from conftest import unit_diffusion_circle\n"
        "vf = value_function(unit_diffusion_circle(), TimeGrid(0.0, 0.2, 4), CircleMesh(8))\n"
        f"export_value_field(vf, {str(tmp_path / 'vf.csv')!r})\n"
        "m = get_manifold('circle')\n"
        "grid = TimeGrid(0.0, 0.2, 4)\n"
        "noise = BrownianGrid(grid=grid, d=1, n_paths=8, seed=3)\n"
        "ens = simulate(m, [get_field(m, 'zero'), get_field(m, 'rot')], np.array([1.0, 0.0]),\n"
        "               constant_policy([0.0, 1.0]), noise)\n"
        f"export_paths(ens, {str(tmp_path / 'paths.csv')!r})\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "tests")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
    assert (tmp_path / "vf.csv").exists() and (tmp_path / "paths.csv").exists()


# Bang-bang drift control: one rotation drift field A_0 with v_0 in [-1, 1],
# no diffusion and Phi = x_0.  The states reachable in tau = T - t are the arc
# exp(s A_0) x, |s| <= tau, so u = min over the arc of Phi = r cos(min(|phi| +
# tau, pi)), with r and phi the radius and angle of (x_0, x_1).  The value has
# a kink at phi = 0, where both ends of the control grid are optimal.
_BANG_BANG = {
    "circle": ("rot", [{"n_theta": 32 * 2**k} for k in range(4)]),
    "sphere2": ("rot_z", [{"n_lat": 8 * 2**k + 1, "n_lon": 16 * 2**k} for k in range(4)]),
    "torus2": ("rot1", [{"n1": 16 * 2**k, "n2": 8} for k in range(4)]),
}


@pytest.mark.parametrize("name", sorted(_BANG_BANG))
def test_value_table_converges_to_the_bang_bang_closed_form(name):
    """Steps 16 -> 128 with the mesh, doubling per level.  Measured sup errors
    over every layer: circle 5.58e-2, 2.98e-2, 1.56e-2, 8.02e-3; sphere2 and
    torus2 1.18e-1, 6.57e-2, 3.59e-2, 1.89e-2.  Each level's error must fall,
    and u must stay within [min Phi, max Phi] on the nodes."""
    m = get_manifold(name)
    fid, ladder = _BANG_BANG[name]
    prob = ControlProblem(
        manifold=m,
        fields=[get_field(m, fid)],
        driver=get_driver("zero"),
        terminal=get_terminal("coord"),
        controls=ControlSet(np.array([-1.0]), np.array([1.0]), 3),
    )
    errs = []
    for k, sizes in enumerate(ladder):
        mesh = make_mesh(m, sizes)
        vf = value_function(prob, TimeGrid(0.0, 1.0, 16 * 2**k), mesh)
        x = mesh.nodes
        angle = np.abs(np.arctan2(x[:, 1], x[:, 0]))
        tau = (1.0 - vf.grid.times)[:, None]
        exact = np.hypot(x[:, 0], x[:, 1]) * np.cos(np.minimum(angle + tau, np.pi))
        errs.append(np.max(np.abs(vf.u - exact)))
        phi = prob.terminal(x)
        assert np.all(vf.u >= phi.min() - 1e-12) and np.all(vf.u <= phi.max() + 1e-12)
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
