"""Explicit backward solver for the nonlinear control PDE on the mesh.

Directional derivatives along each vector field are taken over the field's own
integral curve: with x(+-) = flow_step(x, +-h),

    (V u)(x)  ~ [u(x+) - u(x-)] / (2h)
    (VVu)(x)  ~ [u(x+) - 2 u(x) + u(x-)] / h^2

and the time stepping is explicit with a CFL guard, which keeps the update a
positively weighted average (a monotone scheme) for diffusion-dominated
control sets.

The module also carries the pointwise Hamiltonian built from a smooth test
function probe, the state-frozen backward ODE that realizes the inf over
controls, and two diagnostic checks tying the BSDE pipeline to the PDE one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bsde import RegressionBasis, backward_sweep, conditional_expectation
from .dynamics import BrownianGrid, ControlPolicy, TimeGrid, grid_argmin, simulate
from .errors import CflViolated
from .geometry import VectorField, flow_step, rk4_step
from .problem import ControlProblem
from .value import ManifoldMesh, ValueField, export_value_field

_T_FD = 1e-6  # time finite-difference step for probes without registered dt
_DIR_FD = 1e-4  # flow-parameter step for probe derivatives without closed forms


class TestFunctionProbe:
    """A smooth scalar function of (t, x) with directional derivatives.

    Closed-form first/second derivatives along specific fields can be
    registered by field id; anything unregistered falls back to nested finite
    differences along the field's flow.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    def __init__(
        self,
        value: Callable[[float, np.ndarray], np.ndarray],
        time_derivative: Optional[Callable[[float, np.ndarray], np.ndarray]] = None,
        dir1: Optional[Dict[str, Callable[[float, np.ndarray], np.ndarray]]] = None,
        dir2: Optional[Dict[str, Callable[[float, np.ndarray], np.ndarray]]] = None,
    ):
        self._value = value
        self._dt = time_derivative
        self._dir1 = dict(dir1 or {})
        self._dir2 = dict(dir2 or {})

    def value(self, t, x):
        return self._value(t, np.asarray(x, dtype=float))

    def time_derivative(self, t, x):
        if self._dt is not None:
            return self._dt(t, np.asarray(x, dtype=float))
        return (self.value(t + _T_FD, x) - self.value(t - _T_FD, x)) / (2.0 * _T_FD)

    def dir1(self, m, V: VectorField, t, x, h: float = _DIR_FD):
        if V.id in self._dir1:
            return self._dir1[V.id](t, np.asarray(x, dtype=float))
        xp = flow_step(m, V, t, x, h)
        xm = flow_step(m, V, t, x, -h)
        return (self.value(t, xp) - self.value(t, xm)) / (2.0 * h)

    def dir2(self, m, V: VectorField, t, x, h: float = _DIR_FD):
        if V.id in self._dir2:
            return self._dir2[V.id](t, np.asarray(x, dtype=float))
        xp = flow_step(m, V, t, x, h)
        xm = flow_step(m, V, t, x, -h)
        return (self.value(t, xp) - 2.0 * self.value(t, x) + self.value(t, xm)) / h**2


ZERO_PROBE = TestFunctionProbe(
    value=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
    time_derivative=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
)


def hamiltonian_F(
    prob: ControlProblem,
    probe: TestFunctionProbe,
    t: float,
    x: np.ndarray,
    y,
    z,
    v: np.ndarray,
) -> np.ndarray:
    """Probe-shifted generator: time term + transport + half second-order term
    + driver evaluated at the shifted (y, z) arguments."""
    m = prob.manifold
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    single = x.ndim == 1
    if single:
        x = x[None, :]
        y = np.atleast_1d(y)
    phi = probe.value(t, x)
    out = probe.time_derivative(t, x) + v[..., 0] * probe.dir1(m, prob.fields[0], t, x)
    z_shift = np.zeros((x.shape[0], prob.d))
    for a in range(1, prob.d + 1):
        out = out + 0.5 * v[..., a] ** 2 * probe.dir2(m, prob.fields[a], t, x)
        z_shift[:, a - 1] = v[..., a] * probe.dir1(m, prob.fields[a], t, x)
    vv = np.broadcast_to(v, (x.shape[0], v.shape[-1]) if v.ndim == 1 else v.shape)
    out = out + prob.driver(t, x, y + phi, z + z_shift, vv)
    return out[0] if single else out


def hamiltonian_F0(
    prob: ControlProblem,
    probe: TestFunctionProbe,
    t: float,
    x: np.ndarray,
    y,
    z,
    points_per_axis: Optional[int] = None,
) -> Tuple[float, np.ndarray]:
    """Minimum of the probe Hamiltonian over the finite control grid.

    Ties resolve to the lexicographically smallest control (grid order).
    """
    controls = prob.controls.grid(points_per_axis)
    best, best_v = grid_argmin(
        controls, [float(hamiltonian_F(prob, probe, t, x, y, z, v)) for v in controls]
    )
    return float(best), best_v


@dataclass(frozen=True)
class HjbField:
    grid: TimeGrid
    mesh: ManifoldMesh
    u: np.ndarray  # (n_steps+1, n_nodes)
    cfl_ratio: float
    argmin_control: np.ndarray  # (n_steps, n_nodes, d+1)

    def as_value_field(self) -> ValueField:
        return ValueField(
            grid=self.grid, mesh=self.mesh, u=self.u, argmin_control=self.argmin_control
        )


def _max_diffusion_load(prob: ControlProblem) -> float:
    """max_v sum_a v_a^2 over the control grid: the CFL-relevant diffusion load."""
    controls = prob.controls.grid()
    return float(np.max(np.sum(controls[:, 1:] ** 2, axis=1)))


def _stencil_hamiltonian(prob, t, nodes, un, d1, d2, v):
    """Discrete Hamiltonian at every node under the constant control v."""
    ham = v[0] * d1[0]
    z = np.zeros((nodes.shape[0], prob.d))
    for a in range(1, prob.d + 1):
        ham = ham + 0.5 * v[a] ** 2 * d2[a]
        z[:, a - 1] = v[a] * d1[a]
    vv = np.broadcast_to(v, (nodes.shape[0], v.shape[0]))
    return ham + prob.driver(t, nodes, un, z, vv)


def solve_hjb(
    prob: ControlProblem,
    grid: TimeGrid,
    mesh: ManifoldMesh,
    h_stencil: Optional[float] = None,
    cfl_limit: float = 0.4,
) -> HjbField:
    """Explicit backward sweep with flow-aligned stencils.

    Stencil points are precomputed at t0 (the catalog fields are autonomous).
    Raises CflViolated when dt * max_v sum_a v_a^2 > cfl_limit * h^2.
    """
    h = h_stencil if h_stencil is not None else mesh.spacing()
    cfl_ratio = grid.dt * _max_diffusion_load(prob) / h**2
    if cfl_ratio > cfl_limit:
        raise CflViolated(
            f"dt*max|v_diff|^2/h^2 = {cfl_ratio:.3g} > {cfl_limit}"
        )

    m = prob.manifold
    nodes = mesh.nodes
    d = prob.d
    dt = grid.dt
    times = grid.times
    controls = prob.controls.grid()

    plus = [flow_step(m, V, grid.t0, nodes, h) for V in prob.fields]
    minus = [flow_step(m, V, grid.t0, nodes, -h) for V in prob.fields]

    u = np.empty((grid.n_steps + 1, mesh.n_nodes))
    u[grid.n_steps] = prob.terminal(nodes)
    argmin = np.empty((grid.n_steps, mesh.n_nodes, controls.shape[1]))

    for i in range(grid.n_steps - 1, -1, -1):
        un = u[i + 1]
        up = [mesh.interpolate(un, p) for p in plus]
        um = [mesh.interpolate(un, p) for p in minus]
        d1 = [(up[a] - um[a]) / (2.0 * h) for a in range(d + 1)]
        d2 = [None] + [(up[a] - 2.0 * un + um[a]) / h**2 for a in range(1, d + 1)]
        best, argmin[i] = grid_argmin(
            controls,
            [_stencil_hamiltonian(prob, times[i + 1], nodes, un, d1, d2, v) for v in controls],
        )
        u[i] = un + dt * best

    return HjbField(grid=grid, mesh=mesh, u=u, cfl_ratio=cfl_ratio, argmin_control=argmin)


def hjb_steps_for_cfl(
    prob: ControlProblem,
    t0: float,
    T: float,
    mesh: ManifoldMesh,
    cfl_limit: float = 0.4,
    multiple_of: int = 1,
) -> int:
    """Smallest step count satisfying the CFL guard, rounded up to a multiple."""
    h = mesh.spacing()
    diff_load = _max_diffusion_load(prob)
    n = int(np.ceil((T - t0) * diff_load / (cfl_limit * h**2))) if diff_load > 0 else 1
    n = max(n, 1)
    if multiple_of > 1:
        n = int(np.ceil(n / multiple_of)) * multiple_of
    return n


def _backward_rk4(g, t: float, delta: float, n_substeps: int) -> float:
    """RK4 for y' = g(s, y) from y(t + delta) = 0 back down to time t."""
    n_substeps = max(n_substeps, 32)
    hstep = -delta / n_substeps
    s = t + delta
    y = 0.0
    for _ in range(n_substeps):
        y = rk4_step(g, s, y, hstep)
        s = s + hstep
    return float(y)


def frozen_ode_solve(
    prob: ControlProblem,
    probe: TestFunctionProbe,
    x: np.ndarray,
    t: float,
    delta: float,
    n_substeps: int = 64,
    points_per_axis: Optional[int] = None,
) -> float:
    """Backward RK4 integration of the state-frozen minimized Hamiltonian ODE.

    Integrates -y' = F0(s, x, y, 0) from y(t + delta) = 0 down to time t.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    zeros = np.zeros(prob.d)
    return _backward_rk4(
        lambda s, y: -hamiltonian_F0(prob, probe, s, x, y, zeros, points_per_axis)[0],
        t, delta, n_substeps,
    )


def frozen_ode_constant_control(
    prob: ControlProblem,
    probe: TestFunctionProbe,
    x: np.ndarray,
    t: float,
    delta: float,
    v: np.ndarray,
    n_substeps: int = 64,
) -> float:
    """Same backward ODE with the control held at one fixed value."""
    zeros = np.zeros(prob.d)
    return _backward_rk4(
        lambda s, y: -float(hamiltonian_F(prob, probe, s, x, y, zeros, v)),
        t, delta, n_substeps,
    )


# ---------------------------------------------------------------------------
# BSDE <-> PDE diagnostic checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftIdentityReport:
    gap: float
    tolerance: float
    passed: bool


def shift_identity_check(
    prob: ControlProblem,
    probe: TestFunctionProbe,
    t: float,
    x: np.ndarray,
    delta: float,
    policy: ControlPolicy,
    noise: BrownianGrid,
    basis: Optional[RegressionBasis] = None,
    picard_iters: int = 3,
    tolerance: float = 1e-4,
) -> ShiftIdentityReport:
    """Shared-noise identity between the probe-shifted BSDE with zero terminal
    and the window recursion applied to the probe's terminal values.

    Both sides run on the same ensemble with the same regression operators, and
    the probe-shifted side uses the discrete probe increments (the conditional
    expectation of phi at the next layer rather than analytic derivatives), so
    the identity is algebraic at the discrete level; the reported gap measures
    only Picard-initialization and floating-point noise.
    """
    basis = basis or RegressionBasis()
    ens = simulate(prob.manifold, prob.fields, x, policy, noise)
    grid = ens.grid
    times = grid.times
    dt = grid.dt
    f = prob.driver

    # Side A: window recursion with terminal probe values.
    eta = probe.value(times[-1], ens.states[-1])
    solA = backward_sweep(
        ens.states,
        ens.noise.increments,
        grid,
        lambda i, xx, y, z: f(times[i], xx, y, z, ens.policy.values(i, xx)),
        eta,
        basis,
        picard_iters=picard_iters,
    )
    lhs = solA.y_at_t0 - float(probe.value(t, np.asarray(x, dtype=float)))

    # Side B: probe-shifted driver, zero terminal, discrete probe increments.
    phi_layers = [probe.value(times[i], ens.states[i]) for i in range(grid.n_steps + 1)]
    cond_phi = {}
    for i in range(grid.n_steps):
        dW = ens.noise.increments[i]
        R = np.concatenate(
            [phi_layers[i + 1][:, None], phi_layers[i + 1][:, None] * dW], axis=1
        )
        pred = conditional_expectation(ens.states[i], R, basis)
        cond_phi[i] = (pred[:, 0], pred[:, 1:] / dt)

    def driver_B(i, xx, y, z):
        phi_bar, z_phi = cond_phi[i]
        v = ens.policy.values(i, xx)
        incr = (phi_bar - phi_layers[i]) / dt
        return incr + f(times[i], xx, y + phi_layers[i], z + z_phi, v)

    solB = backward_sweep(
        ens.states,
        ens.noise.increments,
        grid,
        driver_B,
        np.zeros(ens.n_paths),
        basis,
        picard_iters=picard_iters,
    )
    gap = abs(lhs - solB.y_at_t0)
    return ShiftIdentityReport(gap=gap, tolerance=tolerance, passed=gap <= tolerance)


@dataclass(frozen=True)
class FreezingGapReport:
    deltas: List[float]
    gaps: List[float]
    ratios: List[float]  # gap / delta
    monotone_decay: bool


def _analytic_shift_driver(prob, probe, times, ens, v):
    """Probe-shifted driver with analytic probe derivatives along the path."""
    m = prob.manifold
    f = prob.driver
    cache = {}

    def fn(i, xx, y, z):
        if i not in cache:
            t_i = times[i]
            phi = probe.value(t_i, xx)
            base = probe.time_derivative(t_i, xx) + v[0] * probe.dir1(
                m, prob.fields[0], t_i, xx
            )
            zs = np.zeros((xx.shape[0], prob.d))
            for a in range(1, prob.d + 1):
                base = base + 0.5 * v[a] ** 2 * probe.dir2(m, prob.fields[a], t_i, xx)
                zs[:, a - 1] = v[a] * probe.dir1(m, prob.fields[a], t_i, xx)
            cache[i] = (phi, base, zs)
        phi, base, zs = cache[i]
        vv = np.broadcast_to(v, (xx.shape[0], v.shape[0]))
        return base + f(times[i], xx, y + phi, z + zs, vv)

    return fn


def freezing_gap_report(
    prob: ControlProblem,
    probe: TestFunctionProbe,
    t: float,
    x: np.ndarray,
    delta_sequence: Sequence[float],
    seed: int,
    n_paths: int = 8192,
    steps_per_window: int = 16,
    basis: Optional[RegressionBasis] = None,
    picard_iters: int = 3,
    decay_factor: float = 0.8,
) -> FreezingGapReport:
    """Gap between the probe-shifted BSDE along the moving state and its
    state-frozen counterpart, per window length, maximized over the control
    grid.  The per-unit-time gap must shrink along the (decreasing) sequence.
    """
    basis = basis or RegressionBasis()
    deltas = list(delta_sequence)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta_sequence must be strictly decreasing")
    gaps = []
    x = np.asarray(x, dtype=float)
    for k, delta in enumerate(deltas):
        grid = TimeGrid(t0=t, T=t + delta, n_steps=steps_per_window)
        worst = 0.0
        noise = BrownianGrid(
            grid=grid,
            d=prob.d,
            n_paths=n_paths,
            seed=seed,
            antithetic=True,
        )
        for v in prob.controls.grid():
            ens = simulate(
                prob.manifold, prob.fields, x, ControlPolicy.constant(v), noise
            )
            driver = _analytic_shift_driver(prob, probe, grid.times, ens, v)
            sol1 = backward_sweep(
                ens.states,
                ens.noise.increments,
                grid,
                driver,
                np.zeros(n_paths),
                basis,
                picard_iters=picard_iters,
            )
            y2 = frozen_ode_constant_control(
                prob, probe, x, t, delta, v, n_substeps=max(32, steps_per_window)
            )
            worst = max(worst, abs(sol1.y_at_t0 - y2))
        gaps.append(worst)
    ratios = [g / d for g, d in zip(gaps, deltas)]
    monotone = ratios[-1] <= decay_factor * ratios[0]
    return FreezingGapReport(
        deltas=deltas, gaps=gaps, ratios=ratios, monotone_decay=monotone
    )


def export_hjb_field(hf: HjbField, path: str) -> None:
    """CSV dump with the same shape as the value-field export."""
    export_value_field(hf.as_value_field(), path)
