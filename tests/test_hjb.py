import dataclasses

import numpy as np
import pytest

from geodp import geometry
from geodp.bsde import RegressionBasis, backward_sweep
from geodp.catalog import get_driver, get_terminal
from geodp.dynamics import BrownianGrid, ControlSet, TimeGrid, constant_policy, grid_argmin, simulate
from geodp.errors import CflViolated
from geodp.geometry import along_flow, flow_step, get_field, get_manifold, rk4_step
from geodp.hjb import (
    freezing_gap_report,
    frozen_ode_solve,
    hamiltonian_F,
    hamiltonian_F0,
    hjb_steps_for_cfl,
    shift_identity_check,
    solve_hjb,
)
from geodp.problem import ControlProblem
from geodp.value import CircleMesh, TorusMesh

from conftest import CATALOG, circle_problem, one_point_problem, unit_diffusion_circle


def _coord_phi(t, x):
    """phi(t, x) = e^{-t} x_0."""
    return np.exp(-t) * np.asarray(x, dtype=float)[..., 0]


def _x0(t, x):
    return np.asarray(x, dtype=float)[..., 0]


def _zero(t, x):
    return np.zeros(np.asarray(x).shape[:-1])


# The finite differences of the former probe class, kept as the references
# that along_flow and hamiltonian_F reproduce bit for bit.
_T_FD, _DIR_FD = 1e-6, 1e-4


def _former_time_derivative(phi, t, x):
    return (phi(t + _T_FD, x) - phi(t - _T_FD, x)) / (2.0 * _T_FD)


def _former_dir1(phi, m, V, t, x):
    xp = flow_step(m, V, x, _DIR_FD)
    xm = flow_step(m, V, x, -_DIR_FD)
    return (phi(t, xp) - phi(t, xm)) / (2.0 * _DIR_FD)


def _former_dir2(phi, m, V, t, x):
    xp = flow_step(m, V, x, _DIR_FD)
    xm = flow_step(m, V, x, -_DIR_FD)
    return (phi(t, xp) - 2.0 * phi(t, x) + phi(t, xm)) / _DIR_FD**2


def _former_hamiltonian_F(prob, phi, t, x, y, z, v):
    """The former hamiltonian_F at points x (N, n) under one control v."""
    m = prob.manifold
    out = _former_time_derivative(phi, t, x) + v[..., 0] * _former_dir1(phi, m, prob.fields[0], t, x)
    z_shift = np.zeros((x.shape[0], prob.d))
    for a in range(1, prob.d + 1):
        out = out + 0.5 * v[..., a] ** 2 * _former_dir2(phi, m, prob.fields[a], t, x)
        z_shift[:, a - 1] = v[..., a] * _former_dir1(phi, m, prob.fields[a], t, x)
    vv = np.broadcast_to(v, (x.shape[0], v.shape[-1]))
    return out + prob.driver(t, x, y + phi(t, x), z + z_shift, vv)


def _curved_phi(t, x):
    """A probe with a time dependence and a second derivative along every field."""
    return np.exp(-t) * x[..., 0] + 0.5 * np.sin(t) * x[..., -1] ** 2


@pytest.mark.parametrize("name, fid", [(name, fid) for name in sorted(CATALOG) for fid in CATALOG[name]])
def test_along_flow_and_hamiltonian_F_equal_the_former_differences(name, fid):
    """Both of along_flow's differences, at one time and at a time per point,
    and hamiltonian_F with the field as drift and as diffusion under every
    grid control, are the former probe's bit for bit."""
    m = get_manifold(name)
    V = get_field(m, fid)
    rng = np.random.default_rng(3)
    x = m.random_points(16, rng)
    for t in (0.3, rng.uniform(0.0, 1.0, 16)):
        first, second = along_flow(_curved_phi, m, V, t, x)
        np.testing.assert_array_equal(first, _former_dir1(_curved_phi, m, V, t, x))
        np.testing.assert_array_equal(second, _former_dir2(_curved_phi, m, V, t, x))
    other = get_field(m, CATALOG[name][1])
    prob = ControlProblem(
        manifold=m,
        fields=[V, V, other],
        driver=get_driver("smooth"),
        terminal=get_terminal("coord"),
        controls=ControlSet(np.array([-1.0, 0.5, 0.5]), np.array([1.0, 1.0, 1.0]), 2),
    )
    y, z = rng.uniform(-1, 1, 16), rng.uniform(-1, 1, (16, 2))
    for v in prob.controls.grid():
        np.testing.assert_array_equal(
            hamiltonian_F(prob, _curved_phi, 0.3, x, y, z, v),
            _former_hamiltonian_F(prob, _curved_phi, 0.3, x, y, z, v),
        )


def test_hamiltonian_F_takes_one_pair_of_flow_points_per_field(monkeypatch):
    """Both derivatives along a field come from flow_step(x, +-1e-4)."""
    steps = []
    flow_step_ = geometry.flow_step
    monkeypatch.setattr(geometry, "flow_step", lambda m, V, x, h: steps.append(h) or flow_step_(m, V, x, h))
    prob = _torus_problem()
    x = prob.manifold.random_points(4, np.random.default_rng(0))
    hamiltonian_F(prob, _coord_phi, 0.2, x, np.zeros(4), np.zeros((4, 2)), prob.controls.grid()[-1])
    assert sorted(steps) == [-_DIR_FD] * 3 + [_DIR_FD] * 3


def test_probe_fd_matches_closed_form():
    """phi(t, x) = e^{-t} x_0 on the circle, whose closed forms along the
    rotational field are d/ds cos(theta+s) = -sin and d2/ds2 = -cos, and in
    time phi_t = -phi: hamiltonian_F under v = 0 and the zero driver."""
    prob = unit_diffusion_circle()
    m = prob.manifold
    rot = prob.fields[1]
    x = m.random_points(20, np.random.default_rng(0))
    t = 0.3
    first, second = along_flow(_coord_phi, m, rot, t, x)
    np.testing.assert_allclose(first, -np.exp(-t) * x[:, 1], atol=1e-7)
    np.testing.assert_allclose(second, -np.exp(-t) * x[:, 0], atol=1e-5)
    phi_t = hamiltonian_F(prob, _coord_phi, t, x, np.zeros(20), np.zeros((20, 1)), np.zeros(2))
    np.testing.assert_allclose(phi_t, -np.exp(-t) * x[:, 0], atol=1e-8)


def test_hamiltonian_zero_probe_zero_driver():
    prob = unit_diffusion_circle(driver_id="zero")
    x = np.array([1.0, 0.0])
    v = prob.controls.grid()[0]
    assert hamiltonian_F(prob, _zero, 0.0, x, 0.0, np.zeros(1), v) == pytest.approx(0.0)


def test_hamiltonian_rotational_second_derivative():
    """With phi = x_0 (no time decay), sigma = 1, zero drift and zero driver:
    F = 1/2 (VV phi) = -cos(theta)/2."""
    probe = _x0
    prob = unit_diffusion_circle(driver_id="zero")
    th = np.linspace(0, 2 * np.pi, 9)
    x = np.stack([np.cos(th), np.sin(th)], axis=-1)
    v = np.array([0.0, 1.0])
    out = hamiltonian_F(prob, probe, 0.0, x, np.zeros(9), np.zeros((9, 1)), v)
    np.testing.assert_allclose(out, -0.5 * np.cos(th), atol=1e-6)


def test_hamiltonian_F0_brute_force_oracle():
    prob = circle_problem(driver_id="linear_y", driver_params={"beta": 0.5, "c": 0.2})
    probe = _coord_phi
    x = np.array([np.cos(0.7), np.sin(0.7)])
    val, argmin = hamiltonian_F0(prob, probe, 0.2, x, 0.3, np.zeros(1))
    brute = min(
        float(hamiltonian_F(prob, probe, 0.2, x, 0.3, np.zeros(1), v))
        for v in prob.controls.grid()
    )
    assert val == pytest.approx(brute)
    assert argmin in prob.controls.grid()


def _F0_per_control(prob, probe, t, x, y, z):
    """The former hamiltonian_F0: one hamiltonian_F call per grid control."""
    controls = prob.controls.grid()
    values = np.array([float(hamiltonian_F(prob, probe, t, x, y, z, v)) for v in controls])
    best, row = grid_argmin(values)
    return float(best), controls[row]


def _torus_problem():
    m = get_manifold("torus2")
    return ControlProblem(
        manifold=m,
        fields=[get_field(m, f) for f in ("const_angle:0.3", "rot1", "rot2")],
        driver=get_driver("smooth"),
        terminal=get_terminal("coord", {"index": 2}),
        controls=ControlSet(np.array([0.0, 0.5, 0.5]), np.array([0.3, 1.0, 1.0]), 2),
    )


@pytest.mark.parametrize("case", ["circle-fd", "torus-fd", "ties"])
def test_hamiltonian_F0_one_call_equals_the_per_control_list(case):
    """One broadcast hamiltonian_F call gives the minimum and the minimizing
    control of the former per-control loop bit for bit, ties included (the
    zero probe and zero driver tie every control: the first one wins)."""
    cases = {
        "circle-fd": [(circle_problem(driver_id="smooth", grid_points=4), _x0),
                      (circle_problem(driver_id="linear_y", grid_points=5), _coord_phi)],
        "torus-fd": [(_torus_problem(), _x0)],
        "ties": [(circle_problem(driver_id="zero", grid_points=3), _zero)],
    }
    for prob, probe in cases[case]:
        _check_F0_against_the_per_control_list(prob, probe, case == "ties")


def _check_F0_against_the_per_control_list(prob, probe, ties):
    m = prob.manifold
    rng = np.random.default_rng(1)
    for x in m.random_points(6, rng):
        y, t = float(rng.uniform(-1, 1)), float(rng.uniform(0, 1))
        z = rng.uniform(-1, 1, size=prob.d)
        for ppa in (None, 3):
            p = prob if ppa is None else dataclasses.replace(
                prob, controls=dataclasses.replace(prob.controls, grid_points_per_axis=ppa)
            )
            got = hamiltonian_F0(p, probe, t, x, y, z)
            want = _F0_per_control(p, probe, t, x, y, z)
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])
            if ties:
                np.testing.assert_array_equal(got[1], p.controls.grid()[0])


def test_solve_hjb_heat_closed_form():
    """sigma = 1 rotational noise, zero driver, Phi = cos theta:
    u(t, theta) = e^{-(T-t)/2} cos theta."""
    prob = unit_diffusion_circle(driver_id="zero")
    mesh = CircleMesh(256)
    n = hjb_steps_for_cfl(prob, 0.0, 1.0, mesh)
    grid = TimeGrid(0.0, 1.0, n)
    hf = solve_hjb(prob, grid, mesh)
    th = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
    for i in (0, n // 2, n):
        t = grid.times[i]
        ref = np.exp(-(1.0 - t) / 2.0) * np.cos(th)
        assert np.max(np.abs(hf.u[i] - ref)) < 5e-3
    assert hf.cfl_ratio <= 0.4


def test_solve_hjb_torus_heat_closed_form():
    """Unit rotational noise on both torus factors, zero driver, Phi = x_0:
    the x_0 factor diffuses on its own circle, u(0, x) = x_0 e^{-1/2} at T = 1.
    The errors measured at 16^2 and 32^2 are 1.6e-3 and 3.9e-4; the bounds
    allow 1.5 times that, and the error ratio of second order is about 4."""
    m = get_manifold("torus2")
    prob = ControlProblem(
        manifold=m,
        fields=[get_field(m, f) for f in ("zero", "rot1", "rot2")],
        driver=get_driver("zero"),
        terminal=get_terminal("coord", {"index": 0, "scale": 1.0}),
        controls=ControlSet(lower=np.array([0.0, 1.0, 1.0]), upper=np.array([0.0, 1.0, 1.0]),
                            grid_points_per_axis=1),
    )
    errs = []
    for n, bound in ((16, 2.4e-3), (32, 5.9e-4)):
        mesh = TorusMesh(n, n)
        steps = hjb_steps_for_cfl(prob, 0.0, 1.0, mesh)
        hf = solve_hjb(prob, TimeGrid(0.0, 1.0, steps), mesh, stride=steps)
        errs.append(np.max(np.abs(hf.u[0] - np.exp(-0.5) * mesh.nodes[:, 0])))
        assert errs[-1] < bound
    assert errs[0] / errs[1] >= 3.0


def test_cfl_guard_raises():
    prob = unit_diffusion_circle(driver_id="zero")
    mesh = CircleMesh(256)
    with pytest.raises(CflViolated):
        solve_hjb(prob, TimeGrid(0.0, 1.0, 16), mesh)


def test_hjb_steps_for_cfl_multiple():
    prob = unit_diffusion_circle(driver_id="zero")
    mesh = CircleMesh(64)
    n = hjb_steps_for_cfl(prob, 0.0, 1.0, mesh, multiple_of=64)
    assert n % 64 == 0
    assert TimeGrid(0.0, 1.0, n).dt * 1.0 / mesh.spacing() ** 2 <= 0.4 + 1e-12


def test_max_principle_zero_driver():
    prob = circle_problem(driver_id="zero")
    mesh = CircleMesh(128)
    n = hjb_steps_for_cfl(prob, 0.0, 1.0, mesh)
    hf = solve_hjb(prob, TimeGrid(0.0, 1.0, n), mesh)
    phi = prob.terminal(mesh.nodes)
    assert np.max(hf.u) <= np.max(phi) + 1e-10
    assert np.min(hf.u) >= np.min(phi) - 1e-10


def test_hjb_consistency_ladder():
    """Error against the closed form decreases along a mesh ladder."""
    prob = unit_diffusion_circle(driver_id="zero")
    errs = []
    for n_theta in (32, 64, 128):
        mesh = CircleMesh(n_theta)
        n = hjb_steps_for_cfl(prob, 0.0, 1.0, mesh)
        hf = solve_hjb(prob, TimeGrid(0.0, 1.0, n), mesh)
        th = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
        errs.append(np.max(np.abs(hf.u[0] - np.exp(-0.5) * np.cos(th))))
    assert errs[0] / errs[1] > 2.0 and errs[1] / errs[2] > 2.0


def test_frozen_ode_zero_hamiltonian():
    prob = unit_diffusion_circle(driver_id="zero")
    x = np.array([0.0, 1.0])  # cos(theta) = 0: the VV phi term vanishes
    y = frozen_ode_solve(prob, _x0, x, 0.0, 0.5)
    assert abs(y) < 1e-12


def test_frozen_ode_linear_driver_closed_form():
    """Zero probe and f = -beta y + c frozen at z = 0: y' = beta y - c
    backward from 0, so y(t) = (c/beta)(1 - e^{-beta delta})."""
    prob = unit_diffusion_circle(driver_id="linear_y", driver_params={"beta": 0.7, "c": 0.4})
    delta = 0.8
    y = frozen_ode_solve(prob, _zero, np.array([1.0, 0.0]), 0.0, delta, n_substeps=64)
    exact = 0.4 / 0.7 * (1.0 - np.exp(-0.7 * delta))
    assert abs(y - exact) < 1e-10


def test_frozen_ode_bracket_vs_constant_controls():
    prob = circle_problem(driver_id="linear_y", driver_params={"beta": 0.5, "c": 0.2})
    probe = _coord_phi
    x = np.array([np.cos(1.1), np.sin(1.1)])
    t, delta = 0.1, 0.5
    y = frozen_ode_solve(prob, probe, x, t, delta, n_substeps=64)
    brute = min(
        frozen_ode_solve(one_point_problem(prob, v), probe, x, t, delta, n_substeps=64)
        for v in prob.controls.grid()
    )
    assert abs(y - brute) <= 1e-8
    finer = min(
        frozen_ode_solve(one_point_problem(prob, v), probe, x, t, delta, n_substeps=64)
        for v in dataclasses.replace(
            prob.controls, grid_points_per_axis=4 * prob.controls.grid_points_per_axis
        ).grid()
    )
    assert y <= finer + 1e-8


@pytest.mark.parametrize("delta", [0.0, -0.5])
def test_frozen_odes_reject_a_non_positive_delta(delta):
    """Both frozen ODEs integrate back from t + delta, so each needs delta > 0."""
    prob = circle_problem(driver_id="constant")
    x = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="delta must be positive"):
        frozen_ode_solve(prob, _zero, x, 0.1, delta)
    with pytest.raises(ValueError, match="delta must be positive"):
        frozen_ode_solve(one_point_problem(prob, prob.controls.grid()[0]), _zero, x, 0.1, delta)


# References: the former constant-control ODE, a backward RK4 over
# hamiltonian_F at the one control v, and the former freezing-sweep driver,
# which computed the probe terms of each step once, with the former probe's
# differences, and cached them.


def _former_constant_control_ode(prob, probe, x, t, delta, v, n_substeps):
    zeros = np.zeros(prob.d)

    def g(s, y):
        return -float(hamiltonian_F(prob, probe, s, x, y, zeros, v))

    hstep = -delta / n_substeps
    s = t + delta
    y = 0.0
    for _ in range(n_substeps):
        y = rk4_step(g, s, y, hstep)
        s = s + hstep
    return float(y)


def _former_shift_driver(prob, probe, times, v):
    m = prob.manifold
    cache = {}

    def fn(i, xx, y, z):
        if i not in cache:
            t = times[i]
            phi = probe(t, xx)
            base = _former_time_derivative(probe, t, xx) + v[..., 0] * _former_dir1(probe, m, prob.fields[0], t, xx)
            zs = np.zeros((xx.shape[0], prob.d))
            for a in range(1, prob.d + 1):
                base = base + 0.5 * v[..., a] ** 2 * _former_dir2(probe, m, prob.fields[a], t, xx)
                zs[:, a - 1] = v[..., a] * _former_dir1(probe, m, prob.fields[a], t, xx)
            cache[i] = phi, base, zs
        phi, base, zs = cache[i]
        vv = np.broadcast_to(v, (xx.shape[0], v.shape[0]))
        return base + prob.driver(times[i], xx, y + phi, z + zs, vv)

    return fn


def _former_freezing_gaps(prob, probe, t, x, deltas, seed, n_paths):
    """``freezing_gap_report``'s gaps, computed with the two references."""
    gaps = []
    for delta in deltas:
        grid = TimeGrid(t0=t, T=t + delta, n_steps=16)
        noise = BrownianGrid(grid=grid, d=prob.d, n_paths=n_paths, seed=seed, antithetic=True)
        worst = 0.0
        for v in prob.controls.grid():
            ens = simulate(prob.manifold, prob.fields, x, constant_policy(v), noise)
            sol = backward_sweep(
                ens.states, ens.noise.increments, grid,
                _former_shift_driver(prob, probe, grid.times, v),
                np.zeros(n_paths), RegressionBasis(), picard_iters=3,
            )
            y2 = _former_constant_control_ode(prob, probe, x, t, delta, v, 32)
            worst = max(worst, abs(sol.y_at_t0 - y2))
        gaps.append(worst)
    return gaps


_LEMMA_PROBLEMS = {
    "smooth": lambda: circle_problem(grid_points=3),
    "linear_y": lambda: circle_problem(driver_id="linear_y", driver_params={"beta": 0.5, "c": 0.2}),
}


@pytest.mark.parametrize("problem_id", sorted(_LEMMA_PROBLEMS))
def test_one_point_frozen_ode_equals_the_former_constant_control_ode(problem_id):
    """The frozen ODE over the one-point control set {v} is the former
    constant-control ODE bit for bit, for every grid control v."""
    prob, probe = _LEMMA_PROBLEMS[problem_id](), _coord_phi
    x = np.array([np.cos(1.1), np.sin(1.1)])
    for v in prob.controls.grid():
        for n_substeps in (16, 40):
            want = _former_constant_control_ode(prob, probe, x, 0.1, 0.5, v, n_substeps)
            got = frozen_ode_solve(one_point_problem(prob, v), probe, x, 0.1, 0.5, n_substeps=n_substeps)
            assert got == want, (v, n_substeps)


@pytest.mark.parametrize("problem_id", sorted(_LEMMA_PROBLEMS))
def test_freezing_gaps_equal_the_former_sweep(problem_id):
    """The freezing sweep with hamiltonian_F as its driver and the one-point
    frozen ODE gives the gaps of the former cached driver and constant-control
    ODE bit for bit, over every grid control."""
    prob, probe = _LEMMA_PROBLEMS[problem_id](), _coord_phi
    x = np.array([np.cos(0.4), np.sin(0.4)])
    deltas = [0.25, 0.125]
    gaps = freezing_gap_report(prob, probe, 0.0, x, deltas, seed=5, n_paths=512)
    assert gaps == _former_freezing_gaps(prob, probe, 0.0, x, deltas, seed=5, n_paths=512)


def test_shift_identity_smooth_probe():
    prob = circle_problem()
    probe = _coord_phi
    grid = TimeGrid(0.0, 0.25, 16)
    noise = BrownianGrid(grid=grid, d=1, n_paths=4096, seed=31, antithetic=True)
    gap = shift_identity_check(
        prob, probe, 0.0, np.array([1.0, 0.0]),
        constant_policy([0.0, 1.0]), noise,
    )
    assert gap <= 1e-4, f"gap {gap}"


def test_shift_identity_constant_probe_exact():
    prob = circle_problem()
    def const_probe(t, x):
        return np.full(np.asarray(x).shape[:-1], 0.75)

    grid = TimeGrid(0.0, 0.25, 16)
    noise = BrownianGrid(grid=grid, d=1, n_paths=2048, seed=13, antithetic=True)
    gap = shift_identity_check(
        prob, const_probe, 0.0, np.array([1.0, 0.0]),
        constant_policy([0.0, 0.5]), noise,
    )
    assert gap <= 1e-10, f"gap {gap}"


def test_freezing_gap_decays():
    prob = circle_problem()
    probe = _coord_phi
    deltas = [0.25, 0.125, 0.0625, 0.03125]
    gaps = freezing_gap_report(prob, probe, 0.0, np.array([1.0, 0.0]), delta_sequence=deltas, seed=41)
    ratios = [g / d for g, d in zip(gaps, deltas)]
    assert ratios[-1] <= 0.8 * ratios[0], f"ratios {ratios}"
    with pytest.raises(ValueError):
        freezing_gap_report(prob, probe, 0.0, np.array([1.0, 0.0]), [0.1, 0.2], seed=1)
