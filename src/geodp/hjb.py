"""Explicit backward solver for the nonlinear control PDE on the mesh.

Directional derivatives along each vector field are taken over the field's own
integral curve: with x(+-) = flow_step(x, +-h),

    (V u)(x)  ~ [u(x+) - u(x-)] / (2h)
    (VVu)(x)  ~ [u(x+) - 2 u(x) + u(x-)] / h^2

so one explicit step under a grid control v is a controlled Markov chain on
the mesh (Kushner & Dupuis 2001, ch. 5): with u(x+-) read off the cell corners
of x(+-) by multilinear weights,

    y_v = (1 - dt sum_a v_a^2 / h^2) u + sum_a dt v_a^2 / (2h^2) (u_a+ + u_a-)
          + dt v_0 / (2h) (u_0+ - u_0-) + dt f(t, x, u, z_v, v),
    z_v,a = v_a (u_a+ - u_a-) / (2h),

and the new layer is min_v y_v.  ``transition_weights`` builds these weights
once per solve, per (control, row, node); their rows sum to 1, so the scheme
is monotone exactly when every weight is >= 0 (Barles & Souganidis 1991).
The CFL guard keeps the node's weight >= 1 - cfl_limit; a drift's corner
weights are negative, which ``HjbField.min_weight`` reports.  The backward
loop is ``value.backward_induction``.

The module also carries the pointwise Hamiltonian built from a smooth test
function probe, the state-frozen backward ODE that realizes the inf over
controls, and two diagnostic checks tying the BSDE pipeline to the PDE one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bsde import RegressionBasis, backward_sweep, conditional_expectation
from .dynamics import BrownianGrid, ControlSet, Policy, TimeGrid, constant_policy, grid_argmin, simulate
from .errors import CflViolated
from .geometry import VectorField, flow_step, rk4_step
from .problem import ControlProblem
from .value import ManifoldMesh, ValueField, backward_induction, export_value_field

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
        xp = flow_step(m, V, x, _DIR_FD)
        xm = flow_step(m, V, x, -_DIR_FD)
        return (self.value(t, xp) - self.value(t, xm)) / (2.0 * _DIR_FD)

    def dir2(self, m, V: VectorField, t, x):
        if V.id in self._dir2:
            return self._dir2[V.id](t, np.asarray(x, dtype=float))
        xp = flow_step(m, V, x, _DIR_FD)
        xm = flow_step(m, V, x, -_DIR_FD)
        return (self.value(t, xp) - 2.0 * self.value(t, x) + self.value(t, xm)) / _DIR_FD**2


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
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    single = x.ndim == 1
    if single:
        x = x[None, :]
        y = np.atleast_1d(y)
    m = prob.manifold
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
    the CFL ratio its steps ran at and the smallest y-weight of its step over
    controls, rows and nodes: the step is monotone when it is >= 0."""

    cfl_ratio: float
    min_weight: float


def _max_diffusion_load(prob: ControlProblem) -> float:
    """max_v sum_a v_a^2 over the control grid: the CFL-relevant diffusion load."""
    controls = prob.controls.grid()
    return float(np.max(np.sum(controls[:, 1:] ** 2, axis=1)))


def transition_weights(
    prob: ControlProblem, mesh: ManifoldMesh, dt: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[int]]:
    """The explicit HJB step on the mesh as transition weights.

    Returns (index, wy, wz, z_fields).  With h = ``mesh.spacing()`` and
    x(+-) = flow_step(x, +-h) along each field whose matrix is nonzero (the
    live fields, drift first):

    - index (rows, n_nodes): the node itself, then for each live field the
      2^axes cell corners of its plus point and then of its minus point, with
      the live diffusion fields' rows last;
    - wy (k, rows, n_nodes): the weight of each row for each grid control v,
      the corner's multilinear weight times its coefficient: dt v_0 / (2h)
      for the drift's plus corners and its negative for the minus corners,
      dt v_a^2 / (2h^2) for both of diffusion field a's; the node's weight
      is 1 - dt sum_a v_a^2 / h^2 over the live diffusion fields, so each
      (control, node) sums to 1 up to rounding;
    - wz (live diffusion fields, 2 * 2^axes, n_nodes): +-corner weight / (2h)
      over each live diffusion field's own rows, the last rows of index;
    - z_fields: the live diffusion fields' columns of z (field a is column
      a - 1).

    A zero field has no rows: its flow points are the node itself, so its
    differences vanish.
    """
    h = mesh.spacing()
    nodes = mesh.nodes
    n = mesh.n_nodes
    controls = prob.controls.grid()
    k = controls.shape[0]
    live = [a for a, V in enumerate(prob.fields) if np.any(V.A)]
    points = [flow_step(prob.manifold, prob.fields[a], nodes, s) for a in live for s in (h, -h)]
    corner, w = mesh.corners(np.reshape(points, (len(points),) + nodes.shape))
    corner, w = corner.swapaxes(0, 1), w.swapaxes(0, 1)  # (2 live, 2^axes, n_nodes)
    n_points, n_corners = w.shape[:2]
    node = np.ones(k)
    coef = np.empty((k, n_points))
    for j, a in enumerate(live):
        if a == 0:
            c = controls[:, 0] * (dt / (2.0 * h))
            coef[:, 2 * j], coef[:, 2 * j + 1] = c, -c
        else:
            c = controls[:, a] ** 2 * (dt / (2.0 * h**2))
            coef[:, 2 * j] = coef[:, 2 * j + 1] = c
            node = node - 2.0 * c
    wy = np.concatenate(
        [np.broadcast_to(node[:, None, None], (k, 1, n)),
         (coef[:, :, None, None] * w).reshape(k, n_points * n_corners, n)],
        axis=1,
    )
    z_fields = [a - 1 for a in live if a > 0]
    n_z = len(z_fields)
    w_diff = w[n_points - 2 * n_z:].reshape(n_z, 2, n_corners, n)
    wz = (w_diff * np.array([1.0, -1.0])[:, None, None] / (2.0 * h)).reshape(n_z, 2 * n_corners, n)
    index = np.concatenate([np.arange(n)[None], corner.reshape(n_points * n_corners, n)])
    return index, wy, wz, z_fields


def solve_hjb(
    prob: ControlProblem,
    grid: TimeGrid,
    mesh: ManifoldMesh,
    cfl_limit: float = 0.4,
    stride: int = 1,
) -> HjbField:
    """Explicit backward sweep with flow-aligned stencils, run by
    ``value.backward_induction``, which keeps every ``stride``-th layer.  A
    caller that compares against a coarser value table passes the ratio of
    the step counts; one that reads only t0 passes ``grid.n_steps``.

    The stencil is built once per solve by ``transition_weights``.  Each step
    takes u at the stencil rows into one buffer (``take`` in ``clip`` mode,
    which writes into ``out`` without buffering), forms every control's
    weighted row sum y with one einsum over (k, rows, n_nodes) and each
    diffusion field's z with one einsum over the view of its rows, makes one
    driver call on y = u (n_nodes,), z (k, n_nodes, d) and v (k, n_nodes,
    d+1), adds dt times the driver to y and takes the minimum over the
    controls with one ``grid_argmin``.

    Raises CflViolated when dt * max_v sum_a v_a^2 > cfl_limit * h^2, and
    ValueError unless stride divides n_steps.
    """
    h = mesh.spacing()
    cfl_ratio = grid.dt * _max_diffusion_load(prob) / h**2
    if cfl_ratio > cfl_limit:
        raise CflViolated(
            f"dt*max|v_diff|^2/h^2 = {cfl_ratio:.3g} > {cfl_limit}"
        )

    nodes = mesh.nodes
    dt = grid.dt
    times = grid.times
    index, wy, wz, z_fields = transition_weights(prob, mesh, dt)
    v_diff = prob.controls.grid()[:, None, 1:]  # (k, 1, d)
    U = np.empty(index.shape)
    Uz = U[U.shape[0] - wz.shape[0] * wz.shape[1]:].reshape(wz.shape)
    zsum = np.zeros((prob.d, mesh.n_nodes))  # z / v_a per field; a zero field's row stays 0
    every_z = len(z_fields) == prob.d

    def layer(i, un, vv):
        un.take(index, mode="clip", out=U)
        y = np.einsum("kmn,mn->kn", wy, U)
        if every_z:
            np.einsum("amn,amn->an", wz, Uz, out=zsum)
        else:
            zsum[z_fields] = np.einsum("amn,amn->an", wz, Uz)
        y += dt * prob.driver(times[i + 1], nodes, un, v_diff * zsum.T, vv)
        return grid_argmin(y)

    vf = backward_induction(prob, grid, mesh, layer, stride)
    return HjbField(**vars(vf), cfl_ratio=cfl_ratio, min_weight=float(wy.min()))


def hjb_steps_for_cfl(
    prob: ControlProblem,
    t0: float,
    T: float,
    mesh: ManifoldMesh,
    cfl_limit: float = 0.4,
    multiple_of: int = 1,
) -> int:
    """Smallest step count satisfying the CFL guard, rounded up to a multiple."""
    load = _max_diffusion_load(prob)
    n = max(int(np.ceil((T - t0) * load / (cfl_limit * mesh.spacing() ** 2))), 1)
    return int(np.ceil(n / multiple_of)) * multiple_of


def frozen_ode_solve(
    prob: ControlProblem,
    probe: TestFunctionProbe,
    x: np.ndarray,
    t: float,
    delta: float,
    n_substeps: int = 64,
) -> float:
    """Backward RK4 integration of the state-frozen minimized Hamiltonian ODE.

    Integrates -y' = F0(s, x, y, 0) from y(t + delta) = 0 down to time t in
    max(n_substeps, 32) steps.  The ODE of one constant control v is this ODE
    over the one-point control set ``ControlSet(v, v)``, whose grid is v.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    zeros = np.zeros(prob.d)

    def g(s, y):
        return -hamiltonian_F0(prob, probe, s, x, y, zeros)[0]

    n_substeps = max(n_substeps, 32)
    hstep = -delta / n_substeps
    s = t + delta
    y = 0.0
    for _ in range(n_substeps):
        y = rk4_step(g, s, y, hstep)
        s = s + hstep
    return float(y)


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
    policy: Policy,
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
    only Picard-initialization and floating-point noise.  The window is
    ``noise.grid``.
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
        v = ens.policy(i, xx)
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
    grid.  Each window has 16 BSDE steps, whose driver is the probe-shifted
    generator ``hamiltonian_F`` under v, and the frozen ODE of v takes 32 RK4
    substeps.  The per-unit-time gap must shrink along the (decreasing)
    sequence.
    """
    basis = basis or RegressionBasis()
    deltas = list(delta_sequence)
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta_sequence must be strictly decreasing")
    gaps = []
    x = np.asarray(x, dtype=float)
    for delta in deltas:
        grid = TimeGrid(t0=t, T=t + delta, n_steps=16)
        times = grid.times
        worst = 0.0
        noise = BrownianGrid(
            grid=grid,
            d=prob.d,
            n_paths=n_paths,
            seed=seed,
            antithetic=True,
        )
        for v in prob.controls.grid():
            ens = simulate(prob.manifold, prob.fields, x, constant_policy(v), noise)
            sol1 = backward_sweep(
                ens.states,
                ens.noise.increments,
                grid,
                lambda i, xx, y, z: hamiltonian_F(prob, probe, times[i], xx, y, z, v),
                np.zeros(n_paths),
                basis,
                picard_iters=picard_iters,
            )
            frozen = replace(prob, controls=ControlSet(v, v))
            y2 = frozen_ode_solve(frozen, probe, x, t, delta, n_substeps=32)
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
