"""Acceptance suite: one test per criterion, each printing a single
pass/fail line with the measured quantity and its bound."""

import dataclasses
import filecmp
import time

import numpy as np

from geodp.bsde import RegressionBasis, backward_sweep, solve_backward, stability_check
from geodp.config import ExperimentConfig
from geodp.dynamics import BrownianGrid, ControlPolicy, TimeGrid, simulate
from geodp.geometry import Circle, Sphere2, get_field, get_manifold
from geodp.harness import run
from geodp.hjb import (
    TestFunctionProbe,
    freezing_gap_report,
    frozen_ode_constant_control,
    frozen_ode_solve,
    hjb_steps_for_cfl,
    shift_identity_check,
    solve_hjb,
)
from geodp.hypotheses import check_H1, check_H2
from geodp.value import CircleMesh, dpp_residual_check, value_function

from conftest import circle_problem, unit_diffusion_circle

BASIS = RegressionBasis(degree=2)


def _verdict(num, name, ok, detail):
    line = f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _suite_probe():
    return TestFunctionProbe(
        value=lambda t, x: np.exp(-t) * np.asarray(x, dtype=float)[..., 0],
        time_derivative=lambda t, x: -np.exp(-t) * np.asarray(x, dtype=float)[..., 0],
        dir1={"rot": lambda t, x: -np.exp(-t) * np.asarray(x, dtype=float)[..., 1]},
        dir2={"rot": lambda t, x: -np.exp(-t) * np.asarray(x, dtype=float)[..., 0]},
    )


def test_criterion_01_on_manifold_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [
        ("circle", ["zero", "rot"], [1.0, 0.0]),
        ("sphere2", ["zero", "rot_z", "rot_x"], [1.0, 0.0, 0.0]),
        ("torus2", ["zero", "rot1", "rot2"], [1.0, 0.0, 1.0, 0.0]),
    ]
    for name, fids, x0 in cases:
        m = get_manifold(name)
        fields = [get_field(m, f) for f in fids]
        d = len(fields) - 1
        noise = BrownianGrid(grid=TimeGrid(0.0, 1.0, 64), d=d, n_paths=8192, seed=12345)
        ens = simulate(m, fields, np.array(x0), ControlPolicy.constant([0.0] + [1.0] * d), noise)
        worst = max(worst, ens.constraint_violation())
    elapsed = time.perf_counter() - t0
    _verdict(
        1, "on-manifold invariance",
        worst <= 1e-9 and elapsed < 10.0,
        f"sup violation {worst:.2e} <= 1e-9, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_circle_diffusion_oracle():
    t0 = time.perf_counter()
    prob = unit_diffusion_circle(driver_id="zero")
    noise = BrownianGrid(grid=TimeGrid(0.0, 1.0, 64), d=1, n_paths=8192, seed=12345)
    ens = simulate(
        prob.manifold, prob.fields, np.array([1.0, 0.0]),
        ControlPolicy.constant([0.0, 1.0]), noise,
    )
    sol = solve_backward(ens, prob.driver, prob.terminal, BASIS)
    phiT = ens.states[-1, :, 0]
    se = float(np.std(phiT, ddof=1) / np.sqrt(len(phiT)))
    err = abs(sol.y_at_t0 - np.exp(-0.5))
    elapsed = time.perf_counter() - t0
    _verdict(
        2, "circle diffusion oracle",
        err <= 3.0 * se and elapsed < 10.0,
        f"|J - e^(-1/2)| = {err:.4f} <= 3 SE = {3 * se:.4f}, {elapsed:.1f}s < 10s",
    )


def test_criterion_03_dpp_identity():
    t0 = time.perf_counter()
    prob = circle_problem()  # U = {0} x {0.5, 1.0}
    grid = TimeGrid(0.0, 1.0, 64)
    mesh = CircleMesh(128)
    vf = value_function(prob, grid, mesh)
    probes = [(i, j) for i in (0, 20, 40, 59) for j in (0, 32, 64, 96)]
    worst = 0.0
    for ds in (1, 4):
        rep = dpp_residual_check(prob, vf, ds, probes, fresh_seed=777, n_paths=4096)
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    _verdict(
        3, "DPP identity",
        worst <= 2e-2 and elapsed < 120.0,
        f"max residual {worst:.4f} <= 2e-2, {elapsed:.1f}s < 2min",
    )


def test_criterion_04_solver_agreement():
    t0 = time.perf_counter()
    prob = circle_problem()
    sups = []
    n_steps, n_theta = 64, 128
    for level in range(2):
        grid = TimeGrid(0.0, 1.0, n_steps)
        mesh = CircleMesh(n_theta)
        vf = value_function(prob, grid, mesh)
        n_hjb = hjb_steps_for_cfl(prob, 0.0, 1.0, mesh, multiple_of=n_steps)
        hf = solve_hjb(prob, TimeGrid(0.0, 1.0, n_hjb), mesh)
        stride = n_hjb // n_steps
        sups.append(float(np.max(np.abs(vf.u - hf.u[::stride]))))
        n_steps, n_theta = 2 * n_steps, 2 * n_theta
    elapsed = time.perf_counter() - t0
    _verdict(
        4, "solver agreement",
        sups[0] <= 5e-2 and sups[1] <= 2.5e-2 and elapsed < 180.0,
        f"sup {sups[0]:.4f} <= 5e-2 at defaults, {sups[1]:.4f} <= 2.5e-2 refined, "
        f"{elapsed:.1f}s < 3min",
    )


def test_criterion_05_stability_estimate_suite():
    t0 = time.perf_counter()
    m = Circle()
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    sgrid = TimeGrid(0.0, 0.5, 32)
    n_pass = 0
    n_inst = 100
    for k in range(n_inst):
        r = np.random.default_rng(10_000 + k)
        noise = BrownianGrid(grid=sgrid, d=1, n_paths=2048, seed=10_000 + k)
        ens = simulate(m, fields, np.array([1.0, 0.0]), ControlPolicy.constant([0.0, 1.0]), noise)
        C_L = float(r.uniform(0.1, 1.0))
        a = C_L * float(r.uniform(0.0, 1.0))
        b = C_L - a
        c1, c2 = r.uniform(-1, 1, size=(2, 2))
        xi1, xi2 = ens.states[-1] @ c1, ens.states[-1] @ c2
        p1, p2 = r.uniform(-1, 1, size=2)
        phi1 = p1 * ens.states[:-1, :, 0]
        phi2 = p2 * ens.states[:-1, :, 1]

        def mk(phi):
            return lambda i, xx, y, z: a * np.sin(y) + b * np.tanh(z[:, 0]) + phi[i]

        s1 = backward_sweep(ens.states, ens.noise.increments, sgrid, mk(phi1), xi1, BASIS)
        s2 = backward_sweep(ens.states, ens.noise.increments, sgrid, mk(phi2), xi2, BASIS)
        n_pass += int(stability_check(s1, s2, xi1, xi2, phi1, phi2, C_L, slack=0.05).passed)
    elapsed = time.perf_counter() - t0
    _verdict(
        5, "mean-square stability estimate",
        n_pass == n_inst and elapsed < 60.0,
        f"{n_pass}/{n_inst} instances with 5% slack, {elapsed:.1f}s < 1min",
    )


def test_criterion_06_shift_identity():
    t0 = time.perf_counter()
    prob = circle_problem()
    grid = TimeGrid(0.0, 0.25, 16)
    noise = BrownianGrid(grid=grid, d=1, n_paths=4096, seed=12345, antithetic=True)
    rep = shift_identity_check(
        prob, _suite_probe(), 0.0, np.array([1.0, 0.0]), 0.25,
        ControlPolicy.constant([0.0, 1.0]), noise, tolerance=1e-4,
    )
    const_probe = TestFunctionProbe(
        value=lambda t, x: np.full(np.asarray(x).shape[:-1], 0.6),
        time_derivative=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
    )
    rep_c = shift_identity_check(
        prob, const_probe, 0.0, np.array([1.0, 0.0]), 0.25,
        ControlPolicy.constant([0.0, 1.0]), noise, tolerance=1e-10,
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        6, "probe-shift identity",
        rep.passed and rep_c.passed and elapsed < 30.0,
        f"gap {rep.gap:.2e} <= 1e-4, constant-probe gap {rep_c.gap:.2e} <= 1e-10, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_07_freezing_gap_trend():
    t0 = time.perf_counter()
    prob = circle_problem()
    rep = freezing_gap_report(
        prob, _suite_probe(), 0.0, np.array([1.0, 0.0]),
        delta_sequence=[0.25, 0.125, 0.0625, 0.03125], seed=12345,
        decay_factor=0.8,
    )
    elapsed = time.perf_counter() - t0
    decay = 1.0 - rep.ratios[-1] / rep.ratios[0]
    _verdict(
        7, "state-freezing gap trend",
        rep.monotone_decay and elapsed < 60.0,
        f"gap/delta decays {100 * decay:.0f}% >= 20% from delta 1/4 to 1/32, "
        f"{elapsed:.1f}s < 1min",
    )


def test_criterion_08_frozen_ode_bracket():
    t0 = time.perf_counter()
    prob = circle_problem(driver_id="linear_y", driver_params={"beta": 0.5, "c": 0.2})
    probe = _suite_probe()
    x = np.array([np.cos(1.1), np.sin(1.1)])
    y = frozen_ode_solve(prob, probe, x, 0.1, 0.5, n_substeps=64)
    brute = min(
        frozen_ode_constant_control(prob, probe, x, 0.1, 0.5, v, n_substeps=64)
        for v in prob.controls.grid()
    )
    finer = min(
        frozen_ode_constant_control(prob, probe, x, 0.1, 0.5, v, n_substeps=64)
        for v in dataclasses.replace(
            prob.controls, grid_points_per_axis=4 * prob.controls.grid_points_per_axis
        ).grid()
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        8, "frozen-control ODE bracket",
        abs(y - brute) <= 1e-8 and y <= finer + 1e-8 and elapsed < 10.0,
        f"|ode - brute min| = {abs(y - brute):.2e} <= 1e-8, "
        f"ode - finer min = {y - finer:.2e} <= 1e-8, {elapsed:.1f}s < 10s",
    )


def test_criterion_09_hypothesis_checks():
    t0 = time.perf_counter()
    circle = Circle()
    sphere = Sphere2()
    h2_ok = check_H2(circle, get_field(circle, "rot"), n_samples=1000, seed=12345)
    h2_bad = check_H2(sphere, get_field(sphere, "rot_z"), n_samples=1000, seed=12345)
    h1_ok = check_H1(circle, get_field(circle, "rot"), mu=0.0, n_samples=1000, seed=12345)
    elapsed = time.perf_counter() - t0
    ok = (
        h2_ok.passed
        and h2_ok.max_violation <= 1e-10
        and (not h2_bad.passed)
        and h2_bad.max_violation > 1e-3
        and h1_ok.passed
        and elapsed < 10.0
    )
    _verdict(
        9, "hypothesis spot checks",
        ok,
        f"circle rot violation {h2_ok.max_violation:.1e} <= 1e-10, "
        f"sphere rot_z violation {h2_bad.max_violation:.1e} > 1e-3, "
        f"parallel drift mu=0 {'passes' if h1_ok.passed else 'fails'}, {elapsed:.1f}s < 10s",
    )


def test_criterion_10_maximum_principle():
    t0 = time.perf_counter()
    worst = 0.0
    for prob, n_theta in ((circle_problem(driver_id="zero"), 128),
                          (unit_diffusion_circle(driver_id="zero"), 64)):
        mesh = CircleMesh(n_theta)
        n = hjb_steps_for_cfl(prob, 0.0, 1.0, mesh)
        hf = solve_hjb(prob, TimeGrid(0.0, 1.0, n), mesh)
        phi = prob.terminal(mesh.nodes)
        worst = max(
            worst,
            float(np.max(hf.u) - np.max(phi)),
            float(np.min(phi) - np.min(hf.u)),
        )
    elapsed = time.perf_counter() - t0
    _verdict(
        10, "maximum principle",
        worst <= 1e-10 and elapsed < 30.0,
        f"max range excess {worst:.2e} <= 1e-10, {elapsed:.1f}s < 30s",
    )


def test_criterion_11_determinism_across_repeats(tmp_path):
    t0 = time.perf_counter()
    configs = {
        "oracle": dict(experiment="oracle-circle"),
        "dpp": dict(
            experiment="dpp-check", mesh={"n_theta": 64}, time={"n_steps": 32},
            dpp={"n_paths": 1024},
            control_set={"lower": [0.0, 0.5], "upper": [0.0, 1.0], "grid_points_per_axis": 2},
        ),
        "agree": dict(experiment="solver-agreement", mesh={"n_theta": 64}, time={"n_steps": 32}),
        "conv": dict(experiment="convergence-table"),
        "hyp": dict(experiment="hypotheses"),
    }
    mismatches = []
    for label, raw in configs.items():
        dirs = []
        for rep in (1, 2):
            d = tmp_path / f"{label}_run{rep}"
            run(ExperimentConfig.from_dict(raw), out_dir=str(d))
            dirs.append(d)
        names = sorted(p.name for p in dirs[0].iterdir())
        for other in dirs[1:]:
            for name in names:
                if not filecmp.cmp(dirs[0] / name, other / name, shallow=False):
                    mismatches.append(f"{label}/{name}")
    elapsed = time.perf_counter() - t0
    _verdict(
        11, "run-to-run determinism",
        not mismatches,
        f"all report files byte-identical across two runs "
        f"({'; '.join(mismatches) or 'no mismatches'}), {elapsed:.1f}s",
    )
