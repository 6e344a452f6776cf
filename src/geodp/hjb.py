"""Explicit backward solver for the nonlinear control PDE on the mesh.

Directional derivatives along each vector field are taken over the field's own
integral curve: with x(+-) = flow_step(x, +-h),

    (V u)(x)  ~ [u(x+) - u(x-)] / (2h)
    (VVu)(x)  ~ [u(x+) - 2 u(x) + u(x-)] / h^2

and the time stepping is explicit with a CFL guard, which keeps the update a
positively weighted average (a monotone scheme) for diffusion-dominated
control sets.  Each step minimizes the Hamiltonian of every grid control at
every node as one array, and the solver keeps only every ``stride``-th layer.

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

    def dir1(self, m, V: VectorField, t, x):
        if V.id in self._dir1:
            return self._dir1[V.id](t, np.asarray(x, dtype=float))
        xp = flow_step(m, V, t, x, _DIR_FD)
        xm = flow_step(m, V, t, x, -_DIR_FD)
        return (self.value(t, xp) - self.value(t, xm)) / (2.0 * _DIR_FD)

    def dir2(self, m, V: VectorField, t, x):
        if V.id in self._dir2:
            return self._dir2[V.id](t, np.asarray(x, dtype=float))
        xp = flow_step(m, V, t, x, _DIR_FD)
        xm = flow_step(m, V, t, x, -_DIR_FD)
        return (self.value(t, xp) - 2.0 * self.value(t, x) + self.value(t, xm)) / _DIR_FD**2


ZERO_PROBE = TestFunctionProbe(
    value=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
    time_derivative=lambda t, x: np.zeros(np.asarray(x).shape[:-1]),
)


def _probe_terms(prob: ControlProblem, probe: TestFunctionProbe, t: float, x, v):
    """The probe's part of the shifted generator at points x (N, n) under v:
    phi, the sum of the time term, the transport term and the half
    second-order terms, and the z shift (N, d)."""
    m = prob.manifold
    phi = probe.value(t, x)
    out = probe.time_derivative(t, x) + v[..., 0] * probe.dir1(m, prob.fields[0], t, x)
    z_shift = np.zeros((x.shape[0], prob.d))
    for a in range(1, prob.d + 1):
        out = out + 0.5 * v[..., a] ** 2 * probe.dir2(m, prob.fields[a], t, x)
        z_shift[:, a - 1] = v[..., a] * probe.dir1(m, prob.fields[a], t, x)
    return phi, out, z_shift


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
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    single = x.ndim == 1
    if single:
        x = x[None, :]
        y = np.atleast_1d(y)
    phi, out, z_shift = _probe_terms(prob, probe, t, x, v)
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
) -> Tuple[float, np.ndarray]:
    """Minimum of the probe Hamiltonian over the finite control grid.

    One ``hamiltonian_F`` call evaluates all k grid controls at x, y and z
    repeated k times.  Ties resolve to the lexicographically smallest control
    (grid order).
    """
    controls = prob.controls.grid()
    k = controls.shape[0]
    x = np.asarray(x, dtype=float)
    values = hamiltonian_F(
        prob, probe, t,
        np.broadcast_to(x, (k, x.shape[-1])),
        np.broadcast_to(y, (k,)),
        np.broadcast_to(z, (k, prob.d)),
        controls,
    )
    best, row = grid_argmin(values)
    return float(best), controls[row]


@dataclass(frozen=True)
class HjbField(ValueField):
    """A value field on the output grid (HJB step = time index * stride) with
    the CFL ratio its steps ran at."""

    cfl_ratio: float


def _max_diffusion_load(prob: ControlProblem) -> float:
    """max_v sum_a v_a^2 over the control grid: the CFL-relevant diffusion load."""
    controls = prob.controls.grid()
    return float(np.max(np.sum(controls[:, 1:] ** 2, axis=1)))


def solve_hjb(
    prob: ControlProblem,
    grid: TimeGrid,
    mesh: ManifoldMesh,
    cfl_limit: float = 0.4,
    stride: int = 1,
) -> HjbField:
    """Explicit backward sweep with flow-aligned stencils.

    Only every ``stride``-th layer is kept: u at HJB steps 0, stride, ...,
    n_steps and the minimizing control at steps 0, stride, ..., n_steps -
    stride, on the output grid ``TimeGrid(t0, T, n_steps // stride)``.  A
    caller that compares against a coarser value table passes the ratio of
    the step counts; one that reads only t0 passes ``grid.n_steps``.

    Stencil points are precomputed at t0 (the catalog fields are autonomous),
    and so are their stencil gathers: the plus and minus points of the fields
    are stacked into one (2, fields, n_nodes, ambient) array and handed to
    ``mesh.gather`` once, so each time step is a single gather of u.  Each
    step evaluates the Hamiltonian of all k grid controls at all nodes as one
    (k, n_nodes) array, with one driver call on y (n_nodes,), z (k, n_nodes,
    d) and v (k, n_nodes, d+1), and minimizes it with one ``grid_argmin``;
    the differences and the Hamiltonian are computed in buffers made once,
    and the minimizing controls are looked up only on kept layers.

    Zero drift: when the drift field's matrix is zero, only the d diffusion
    fields are gathered and the drift term starts the Hamiltonian as
    v_0 * (+0.0).  This is exact, not an approximation: the zero field's plus
    and minus stencil points are one and the same point, so for finite u
    their gathered values are equal, u(x+) - u(x-) is +0.0, and v_0 times its
    central difference is v_0 * (+0.0) bit for bit.  The rule reads only the
    drift matrix; nonzero drift keeps the full d+1 field stencil.

    Raises ValueError unless stride divides n_steps, and CflViolated when
    dt * max_v sum_a v_a^2 > cfl_limit * h^2.
    """
    if stride < 1 or grid.n_steps % stride:
        raise ValueError(f"stride {stride} does not divide n_steps = {grid.n_steps}")
    h = mesh.spacing()
    cfl_ratio = grid.dt * _max_diffusion_load(prob) / h**2
    if cfl_ratio > cfl_limit:
        raise CflViolated(
            f"dt*max|v_diff|^2/h^2 = {cfl_ratio:.3g} > {cfl_limit}"
        )

    m = prob.manifold
    nodes = mesh.nodes
    n = mesh.n_nodes
    dt = grid.dt
    times = grid.times
    controls = prob.controls.grid()
    k = controls.shape[0]

    # A zero drift's central difference is exactly +0.0 (see above): gather only the rest.
    zero_drift = not np.any(prob.fields[0].A)
    moving = prob.fields[1:] if zero_drift else prob.fields
    stencil = mesh.gather(
        np.array([[flow_step(m, V, grid.t0, nodes, s) for V in moving] for s in (h, -h)])
        .reshape(2, len(moving), *nodes.shape)
    )
    first = len(moving) - prob.d  # row of the first diffusion field in the stencil
    # Per-control coefficients, one row per control: v_0, 1/2 v_a^2 and v_a.
    v0 = controls[:, :1]  # (k, 1)
    half_v2 = [0.5 * controls[:, a : a + 1] ** 2 for a in range(1, prob.d + 1)]  # d of (k, 1)
    v_diff = controls[:, None, 1:]  # (k, 1, d)
    vv = np.broadcast_to(controls[:, None, :], (k, n, controls.shape[1]))
    ham0 = v0 * 0.0  # (k, 1): v_0 times the zero drift's central difference

    # Per-step buffers: differences, Hamiltonian and its per-field term.  z
    # is left to numpy, which lays it out like d1.T; written into a C-ordered
    # (k, n_nodes, d) buffer it made the 28^2 torus step 15% slower.
    d1 = np.empty((len(moving), n))
    d2 = np.empty((prob.d, n))
    ham = np.empty((k, n))
    term = np.empty((k, n))

    n_out = grid.n_steps // stride
    u = np.empty((n_out + 1, n))
    u[n_out] = prob.terminal(nodes)
    un = u[n_out].copy()
    argmin = np.empty((n_out, n, controls.shape[1]))

    for i in range(grid.n_steps - 1, -1, -1):
        up, um = stencil(un)  # each (len(moving), n_nodes)
        np.divide(np.subtract(up, um, out=d1), 2.0 * h, out=d1)
        np.subtract(up[first:], 2.0 * un, out=d2)
        np.divide(np.add(d2, um[first:], out=d2), h**2, out=d2)
        acc = ham0 if zero_drift else np.multiply(v0, d1[0], out=ham)
        for c, d2_a in zip(half_v2, d2):
            acc = np.add(acc, np.multiply(c, d2_a, out=term), out=ham)
        z = v_diff * d1[first:].T  # (k, n_nodes, d)
        np.add(acc, prob.driver(times[i + 1], nodes, un, z, vv), out=ham)
        best, rows = grid_argmin(ham)
        un += dt * best
        if i % stride == 0:
            u[i // stride] = un
            argmin[i // stride] = controls[rows]

    return HjbField(
        grid=TimeGrid(t0=grid.t0, T=grid.T, n_steps=n_out),
        mesh=mesh,
        u=u,
        cfl_ratio=cfl_ratio,
        argmin_control=argmin,
    )


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
    if delta <= 0:
        raise ValueError("delta must be positive")
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
) -> float:
    """Backward RK4 integration of the state-frozen minimized Hamiltonian ODE.

    Integrates -y' = F0(s, x, y, 0) from y(t + delta) = 0 down to time t.
    """
    zeros = np.zeros(prob.d)
    return _backward_rk4(
        lambda s, y: -hamiltonian_F0(prob, probe, s, x, y, zeros)[0],
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

    # Side A is the window recursion with terminal probe values; side B the
    # probe-shifted driver with zero terminal and discrete probe increments.
    # Both sides share the ensemble, so they sweep in lockstep.
    eta = probe.value(times[-1], ens.states[-1])
    phi_layers = [probe.value(times[i], ens.states[i]) for i in range(grid.n_steps + 1)]
    cond_phi = {}
    for i in range(grid.n_steps):
        dW = ens.noise.increments[i]
        R = np.concatenate(
            [phi_layers[i + 1][:, None], phi_layers[i + 1][:, None] * dW], axis=1
        )
        pred = conditional_expectation(ens.states[i], R, basis)
        cond_phi[i] = (pred[:, 0], pred[:, 1:] / dt)

    def driver(i, xx, y, z):
        phi_bar, z_phi = cond_phi[i]
        v = ens.policy.values(i, xx)
        incr = (phi_bar - phi_layers[i]) / dt
        return np.stack([
            f(times[i], xx, y[0], z[0], v),
            incr + f(times[i], xx, y[1] + phi_layers[i], z[1] + z_phi, v),
        ])

    sol = backward_sweep(
        ens.states,
        ens.noise.increments,
        grid,
        driver,
        np.stack([eta, np.zeros(ens.n_paths)]),
        basis,
        picard_iters=picard_iters,
    )
    lhs = float(sol.y_at_t0[0]) - float(probe.value(t, np.asarray(x, dtype=float)))
    gap = abs(lhs - float(sol.y_at_t0[1]))
    return ShiftIdentityReport(gap=gap, tolerance=tolerance, passed=gap <= tolerance)


@dataclass(frozen=True)
class FreezingGapReport:
    deltas: List[float]
    gaps: List[float]
    ratios: List[float]  # gap / delta
    monotone_decay: bool


def _analytic_shift_driver(prob, probe, times, v):
    """Probe-shifted driver with analytic probe derivatives along the path;
    the probe terms of each step are computed once."""
    cache = {}

    def fn(i, xx, y, z):
        if i not in cache:
            cache[i] = _probe_terms(prob, probe, times[i], xx, v)
        phi, base, zs = cache[i]
        vv = np.broadcast_to(v, (xx.shape[0], v.shape[0]))
        return base + prob.driver(times[i], xx, y + phi, z + zs, vv)

    return fn


def freezing_gap_report(
    prob: ControlProblem,
    probe: TestFunctionProbe,
    t: float,
    x: np.ndarray,
    delta_sequence: Sequence[float],
    seed: int,
    n_paths: int = 8192,
    basis: Optional[RegressionBasis] = None,
    picard_iters: int = 3,
    decay_factor: float = 0.8,
) -> FreezingGapReport:
    """Gap between the probe-shifted BSDE along the moving state and its
    state-frozen counterpart, per window length, maximized over the control
    grid.  Each window has 16 BSDE steps, and the frozen ODE takes 32 RK4
    substeps.  The per-unit-time gap must shrink along the
    (decreasing) sequence.
    """
    basis = basis or RegressionBasis()
    deltas = list(delta_sequence)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta_sequence must be strictly decreasing")
    gaps = []
    x = np.asarray(x, dtype=float)
    for k, delta in enumerate(deltas):
        grid = TimeGrid(t0=t, T=t + delta, n_steps=16)
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
            driver = _analytic_shift_driver(prob, probe, grid.times, v)
            sol1 = backward_sweep(
                ens.states,
                ens.noise.increments,
                grid,
                driver,
                np.zeros(n_paths),
                basis,
                picard_iters=picard_iters,
            )
            y2 = frozen_ode_constant_control(prob, probe, x, t, delta, v, n_substeps=32)
            worst = max(worst, abs(sol1.y_at_t0 - y2))
        gaps.append(worst)
    ratios = [g / d for g, d in zip(gaps, deltas)]
    monotone = ratios[-1] <= decay_factor * ratios[0]
    return FreezingGapReport(
        deltas=deltas, gaps=gaps, ratios=ratios, monotone_decay=monotone
    )


def export_hjb_field(hf: HjbField, path: str) -> None:
    """CSV dump with the same shape as the value-field export."""
    export_value_field(hf, path)
