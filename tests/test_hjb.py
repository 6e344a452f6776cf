import dataclasses

import numpy as np
import pytest

from geodp.bsde import RegressionBasis, backward_sweep
from geodp.catalog import get_driver, get_terminal
from geodp.dynamics import BrownianGrid, ControlSet, TimeGrid, constant_policy, grid_argmin, simulate
from geodp.errors import CflViolated
from geodp.geometry import get_field, get_manifold, rk4_step
from geodp.hjb import (
    ZERO_PROBE,
    TestFunctionProbe,
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

from conftest import circle_problem, one_point_problem, unit_diffusion_circle


def _coord_probe():
    """phi(t, x) = e^{-t} x_0 with closed-form derivatives on the circle:
    along the rotational field, d/ds cos(theta+s) = -sin, d2/ds2 = -cos."""
    return TestFunctionProbe(
        value=lambda t, x: np.exp(-t) * np.asarray(x, dtype=float)[..., 0],
        time_derivative=lambda t, x: -np.exp(-t) * np.asarray(x, dtype=float)[..., 0],
        dir1={"rot": lambda t, x: -np.exp(-t) * np.asarray(x, dtype=float)[..., 1]},
        dir2={"rot": lambda t, x: -np.exp(-t) * np.asarray(x, dtype=float)[..., 0]},
    )


def test_probe_fd_matches_closed_form():
    probe_cf = _coord_probe()
    probe_fd = TestFunctionProbe(value=probe_cf.value)
    prob = unit_diffusion_circle()
    m = prob.manifold
    rot = prob.fields[1]
    x = m.random_points(20, np.random.default_rng(0))
    t = 0.3
    np.testing.assert_allclose(
        probe_fd.time_derivative(t, x), probe_cf.time_derivative(t, x), atol=1e-8
    )
    np.testing.assert_allclose(probe_fd.dir1(m, rot, t, x), probe_cf.dir1(m, rot, t, x), atol=1e-7)
    np.testing.assert_allclose(probe_fd.dir2(m, rot, t, x), probe_cf.dir2(m, rot, t, x), atol=1e-5)


def test_hamiltonian_zero_probe_zero_driver():
    prob = unit_diffusion_circle(driver_id="zero")
    x = np.array([1.0, 0.0])
    v = prob.controls.grid()[0]
    assert hamiltonian_F(prob, ZERO_PROBE, 0.0, x, 0.0, np.zeros(1), v) == pytest.approx(0.0)


def test_hamiltonian_rotational_second_derivative():
    """With phi = x_0 (no time decay), sigma = 1, zero drift and zero driver:
    F = 1/2 (VV phi) = -cos(theta)/2."""
    probe = TestFunctionProbe(
        value=lambda t, x: np.asarray(x, dtype=float)[..., 0],
        time_derivative=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
    )
    prob = unit_diffusion_circle(driver_id="zero")
    th = np.linspace(0, 2 * np.pi, 9)
    x = np.stack([np.cos(th), np.sin(th)], axis=-1)
    v = np.array([0.0, 1.0])
    out = hamiltonian_F(prob, probe, 0.0, x, np.zeros(9), np.zeros((9, 1)), v)
    np.testing.assert_allclose(out, -0.5 * np.cos(th), atol=1e-6)


def test_hamiltonian_F0_brute_force_oracle():
    prob = circle_problem(driver_id="linear_y", driver_params={"beta": 0.5, "c": 0.2})
    probe = _coord_probe()
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


@pytest.mark.parametrize("case", ["circle-closed-form", "circle-fd", "torus-fd", "ties"])
def test_hamiltonian_F0_one_call_equals_the_per_control_list(case):
    """One broadcast hamiltonian_F call gives the minimum and the minimizing
    control of the former per-control loop bit for bit, ties included (the
    zero probe and zero driver tie every control: the first one wins)."""
    probe = TestFunctionProbe(value=lambda t, x: np.asarray(x, dtype=float)[..., 0])
    if case == "circle-closed-form":
        prob, probe = circle_problem(driver_id="linear_y", grid_points=5), _coord_probe()
    elif case == "circle-fd":
        prob = circle_problem(driver_id="smooth", grid_points=4)
    elif case == "torus-fd":
        prob = _torus_problem()
    else:
        prob, probe = circle_problem(driver_id="zero", grid_points=3), ZERO_PROBE
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
            if case == "ties":
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
    probe = TestFunctionProbe(
        value=lambda t, x_: np.asarray(x_, dtype=float)[..., 0],
        time_derivative=lambda t, x_: np.zeros(np.asarray(x_).shape[:-1]),
    )
    y = frozen_ode_solve(prob, probe, x, 0.0, 0.5)
    assert abs(y) < 1e-12


def test_frozen_ode_linear_driver_closed_form():
    """Zero probe and f = -beta y + c frozen at z = 0: y' = beta y - c
    backward from 0, so y(t) = (c/beta)(1 - e^{-beta delta})."""
    prob = unit_diffusion_circle(driver_id="linear_y", driver_params={"beta": 0.7, "c": 0.4})
    delta = 0.8
    y = frozen_ode_solve(prob, ZERO_PROBE, np.array([1.0, 0.0]), 0.0, delta, n_substeps=64)
    exact = 0.4 / 0.7 * (1.0 - np.exp(-0.7 * delta))
    assert abs(y - exact) < 1e-10


def test_frozen_ode_bracket_vs_constant_controls():
    prob = circle_problem(driver_id="linear_y", driver_params={"beta": 0.5, "c": 0.2})
    probe = _coord_probe()
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
        frozen_ode_solve(prob, ZERO_PROBE, x, 0.1, delta)
    with pytest.raises(ValueError, match="delta must be positive"):
        frozen_ode_solve(one_point_problem(prob, prob.controls.grid()[0]), ZERO_PROBE, x, 0.1, delta)


# References: the former constant-control ODE, a backward RK4 over
# hamiltonian_F at the one control v, and the former freezing-sweep driver,
# which computed the probe terms of each step once and cached them.


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
            phi = probe.value(t, xx)
            base = probe.time_derivative(t, xx) + v[..., 0] * probe.dir1(m, prob.fields[0], t, xx)
            zs = np.zeros((xx.shape[0], prob.d))
            for a in range(1, prob.d + 1):
                base = base + 0.5 * v[..., a] ** 2 * probe.dir2(m, prob.fields[a], t, xx)
                zs[:, a - 1] = v[..., a] * probe.dir1(m, prob.fields[a], t, xx)
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
_LEMMA_PROBES = {
    "closed_form": _coord_probe,
    "finite_difference": lambda: TestFunctionProbe(value=_coord_probe().value),
}


@pytest.mark.parametrize("probe_id", sorted(_LEMMA_PROBES))
@pytest.mark.parametrize("problem_id", sorted(_LEMMA_PROBLEMS))
def test_one_point_frozen_ode_equals_the_former_constant_control_ode(problem_id, probe_id):
    """The frozen ODE over the one-point control set {v} is the former
    constant-control ODE bit for bit, for every grid control v."""
    prob, probe = _LEMMA_PROBLEMS[problem_id](), _LEMMA_PROBES[probe_id]()
    x = np.array([np.cos(1.1), np.sin(1.1)])
    for v in prob.controls.grid():
        for n_substeps in (16, 40):
            want = _former_constant_control_ode(prob, probe, x, 0.1, 0.5, v, n_substeps)
            got = frozen_ode_solve(one_point_problem(prob, v), probe, x, 0.1, 0.5, n_substeps=n_substeps)
            assert got == want, (v, n_substeps)


@pytest.mark.parametrize("probe_id", sorted(_LEMMA_PROBES))
@pytest.mark.parametrize("problem_id", sorted(_LEMMA_PROBLEMS))
def test_freezing_gaps_equal_the_former_sweep(problem_id, probe_id):
    """The freezing sweep with hamiltonian_F as its driver and the one-point
    frozen ODE gives the gaps of the former cached driver and constant-control
    ODE bit for bit, over every grid control."""
    prob, probe = _LEMMA_PROBLEMS[problem_id](), _LEMMA_PROBES[probe_id]()
    x = np.array([np.cos(0.4), np.sin(0.4)])
    deltas = [0.25, 0.125]
    rep = freezing_gap_report(prob, probe, 0.0, x, deltas, seed=5, n_paths=512)
    assert rep.gaps == _former_freezing_gaps(prob, probe, 0.0, x, deltas, seed=5, n_paths=512)


def test_shift_identity_smooth_probe():
    prob = circle_problem()
    probe = _coord_probe()
    grid = TimeGrid(0.0, 0.25, 16)
    noise = BrownianGrid(grid=grid, d=1, n_paths=4096, seed=31, antithetic=True)
    rep = shift_identity_check(
        prob, probe, 0.0, np.array([1.0, 0.0]),
        constant_policy([0.0, 1.0]), noise,
    )
    assert rep.passed, f"gap {rep.gap}"


def test_shift_identity_constant_probe_exact():
    prob = circle_problem()
    const_probe = TestFunctionProbe(
        value=lambda t, x: np.full(np.asarray(x).shape[:-1], 0.75),
        time_derivative=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
    )
    grid = TimeGrid(0.0, 0.25, 16)
    noise = BrownianGrid(grid=grid, d=1, n_paths=2048, seed=13, antithetic=True)
    rep = shift_identity_check(
        prob, const_probe, 0.0, np.array([1.0, 0.0]),
        constant_policy([0.0, 0.5]), noise, tolerance=1e-10,
    )
    assert rep.passed, f"gap {rep.gap}"


def test_freezing_gap_decays():
    prob = circle_problem()
    probe = _coord_probe()
    rep = freezing_gap_report(
        prob, probe, 0.0, np.array([1.0, 0.0]),
        delta_sequence=[0.25, 0.125, 0.0625, 0.03125], seed=41,
    )
    assert rep.monotone_decay, f"ratios {rep.ratios}"
    with pytest.raises(ValueError):
        freezing_gap_report(prob, probe, 0.0, np.array([1.0, 0.0]), [0.1, 0.2], seed=1)
