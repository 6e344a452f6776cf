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
loop is ``value.backward_induction``.  With the zero driver and one control
the step is linear, u_i = P u_{i+1}, and ``kernel_power`` composes P^s so
that one layer runs s steps.

The module also carries the pointwise Hamiltonian shifted by a smooth test
function, the state-frozen backward ODE that realizes the inf over controls,
and two diagnostic checks tying the BSDE pipeline to the PDE one.  The test
function, or probe, is any function phi(t, x) of a time and (..., n) points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bsde import RegressionBasis, backward_sweep, conditional_expectation
from .dynamics import BrownianGrid, ControlSet, Policy, TimeGrid, constant_policy, grid_argmin, simulate
from .errors import CflViolated
from .geometry import along_flow, flow_step, rk4_step
from .problem import ControlProblem
from .value import ManifoldMesh, ValueField, backward_induction, export_value_field

_T_FD = 1e-6  # time step of the central difference in hamiltonian_F


def hamiltonian_F(
    prob: ControlProblem,
    phi: Callable,
    t: float,
    x: np.ndarray,
    y,
    z,
    v: np.ndarray,
) -> np.ndarray:
    """Generator shifted by a probe phi(t, x), a function of a time and
    (..., n) points: phi's time derivative (a central difference) + transport
    + half second-order term (``along_flow``'s, two ``flow_step`` calls per
    field) + driver at the shifted arguments (y + phi, z + v_a V_a phi)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    single = x.ndim == 1
    if single:
        x = x[None, :]
        y = np.atleast_1d(y)
    m = prob.manifold
    phi_t = (phi(t + _T_FD, x) - phi(t - _T_FD, x)) / (2.0 * _T_FD)
    out = phi_t + v[..., 0] * along_flow(phi, m, prob.fields[0], t, x)[0]
    z_shift = np.zeros((x.shape[0], prob.d))
    for a in range(1, prob.d + 1):
        first, second = along_flow(phi, m, prob.fields[a], t, x)
        out = out + 0.5 * v[..., a] ** 2 * second
        z_shift[:, a - 1] = v[..., a] * first
    vv = np.broadcast_to(v, (x.shape[0], v.shape[-1]) if v.ndim == 1 else v.shape)
    out = out + prob.driver(t, x, y + phi(t, x), z + z_shift, vv)
    return out[0] if single else out


def hamiltonian_F0(
    prob: ControlProblem,
    phi: Callable,
    t: float,
    x: np.ndarray,
    y,
    z,
) -> Tuple[float, np.ndarray]:
    """Minimum of ``hamiltonian_F`` under phi over the finite control grid.

    One ``hamiltonian_F`` call evaluates all k grid controls at x, y and z
    repeated k times.  Ties resolve to the lexicographically smallest control
    (grid order).
    """
    controls = prob.controls.grid()
    k = controls.shape[0]
    x = np.asarray(x, dtype=float)
    values = hamiltonian_F(
        prob, phi, t,
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
    the CFL ratio its steps ran at, the smallest y-weight of its step over
    controls, rows and nodes (the step is monotone when it is >= 0) and the
    step count s of the composed kernel its linear layers ran (1 when it
    composed none)."""

    cfl_ratio: float
    min_weight: float
    kernel_steps: int


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


# One take and one einsum over up to this many elements cost about their fixed
# per-call overhead (about 5 us against 1-2.5 ns an element on a 2-CPU x86
# host, one BLAS thread); past it a layer is bound by its elements.
_KERNEL_ELEMENTS = 8192


def kernel_steps_for(rows: int, n_nodes: int, n_steps: int, stride: int) -> int:
    """The step count s of the composed kernel a linear solve runs.

    s doubles from 1 while 2s <= stride and the 2s-step kernel stays small.
    Its row count is estimated from the sizes alone, before anything is
    composed, as min(2s (rows - 1) + 1, n_nodes): each step reaches at most
    rows - 1 more nodes along a line.  Its rows times n_nodes must stay
    within ``_KERNEL_ELEMENTS``, so that one layer of it is still bound by
    the per-call overhead it shares among 2s steps, and its rows squared
    within n_steps, since composing it sorts about rows^2 entries per node
    once per solve.  A one-step kernel that is already element-bound keeps
    s = 1 and nothing is composed.
    """
    s = 1
    while 2 * s <= stride:
        est = min(2 * s * (rows - 1) + 1, n_nodes)
        if est * n_nodes > _KERNEL_ELEMENTS or est**2 > n_steps:
            break
        s *= 2
    return s


def _compose(a: Tuple[np.ndarray, np.ndarray], b: Tuple[np.ndarray, np.ndarray]):
    """The kernel of step a after step b, u -> a(b(u)), each a pair (index,
    weight) of shape (rows, n_nodes): node j reaches ib[q, ia[r, j]] with
    weight wa[r, j] wb[q, ia[r, j]].  Equal targets of a node are summed in
    the order of (q, r), and every node is padded to the same row count
    with (node, 0.0)."""
    (ia, wa), (ib, wb) = a, b
    n = ia.shape[1]
    target = ib[:, ia].reshape(-1, n).T  # (n_nodes, rb * ra)
    weight = (wb[:, ia] * wa).reshape(-1, n).T
    order = np.argsort(target, axis=1, kind="stable")
    target = np.take_along_axis(target, order, axis=1)
    weight = np.take_along_axis(weight, order, axis=1)
    first = np.ones(target.shape, dtype=bool)
    np.not_equal(target[:, 1:], target[:, :-1], out=first[:, 1:])
    row = np.cumsum(first, axis=1) - 1  # each entry's row in the composed kernel
    rows = int(row[:, -1].max()) + 1
    flat = (row + rows * np.arange(n)[:, None]).ravel()
    index = np.repeat(np.arange(n), rows)
    index[flat] = target.ravel()
    w = np.bincount(flat, weight.ravel(), minlength=n * rows)
    return index.reshape(n, rows).T.copy(), w.reshape(n, rows).T.copy()


def kernel_power(index: np.ndarray, weight: np.ndarray, s: int) -> Tuple[np.ndarray, np.ndarray]:
    """The s-step kernel P^s of the one-step kernel P = (index, weight), each
    of shape (rows, n_nodes), where (P u)[j] = sum_r weight[r, j] u[index[r,
    j]]: P^s u is s steps of P (Chapman-Kolmogorov).  Built by binary
    powering, P^(2m) = P^m P^m, from compositions that sum equal targets per
    node and pad every node to the same row count with (node, 0.0).  Rows
    that sum to 1 and weights >= 0 carry over up to rounding."""
    power, out = (index, weight), None
    while True:
        if s & 1:
            out = power if out is None else _compose(out, power)
        s >>= 1
        if not s:
            return out
        power = _compose(power, power)


def _linear_layer(kernels: Dict[int, Tuple[np.ndarray, np.ndarray]]) -> Callable:
    """The layer of a linear HJB step: u at step i + n taken at the n-step
    kernel's rows (``take`` in ``clip`` mode into one buffer per kernel) and
    summed with its weights by one einsum.  There is one control, so the
    minimizing rows are all 0."""
    runs = {n: (index, weight[None], np.empty(index.shape)) for n, (index, weight) in kernels.items()}
    rows = np.zeros(kernels[1][0].shape[1], dtype=np.intp)

    def layer(i, un, vv, n):
        index, weight, U = runs[n]
        un.take(index, mode="clip", out=U)
        return np.einsum("kmn,mn->kn", weight, U)[0], rows

    return layer


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
    controls with one ``grid_argmin``.  When the driver vanishes (K = K0 =
    0, ``Driver.vanishes``) the step is the transition average alone: the
    ``take``, the y-einsum and ``grid_argmin``, with no z, no driver call and
    no y + dt * 0.  The bytes are the same, because y + 0.0 only turns -0.0
    into 0.0, and the einsum's sums start from 0.0.

    With a vanishing driver and one grid control the step is linear and the
    same at every step, u_i = P u_{i+1}, so s steps are one step of the
    s-step kernel P^s.  Then s comes from the sizes (``kernel_steps_for``),
    ``kernel_power`` composes P^s once per solve when s > 1, and each kept
    window of ``stride`` steps runs as stride % s one-step layers followed
    by stride // s s-step layers, each one ``take`` and one einsum, with no
    ``grid_argmin``.  With s = 1 the bytes are those of the step above; with
    s > 1 they move by rounding only.

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
    s = 1
    if prob.driver.vanishes and wy.shape[0] == 1:
        s = kernel_steps_for(index.shape[0], mesh.n_nodes, grid.n_steps, stride)
        kernels = {1: (index, wy[0])}
        if s > 1:
            kernels[s] = kernel_power(index, wy[0], s)
        layer = _linear_layer(kernels)
    else:
        v_diff = prob.controls.grid()[:, None, 1:]  # (k, 1, d)
        U = np.empty(index.shape)
        Uz = U[U.shape[0] - wz.shape[0] * wz.shape[1]:].reshape(wz.shape)
        zsum = np.zeros((prob.d, mesh.n_nodes))  # z / v_a per field; a zero field's row stays 0

        def layer(i, un, vv, n):  # n = 1: only the linear layer passes s
            un.take(index, mode="clip", out=U)
            y = np.einsum("kmn,mn->kn", wy, U)
            if prob.driver.vanishes:
                return grid_argmin(y)
            zsum[z_fields] = np.einsum("amn,amn->an", wz, Uz)
            y += dt * prob.driver(times[i + 1], nodes, un, v_diff * zsum.T, vv)
            return grid_argmin(y)

    vf = backward_induction(prob, grid, mesh, layer, stride, s)
    return HjbField(**vars(vf), cfl_ratio=cfl_ratio, min_weight=float(wy.min()), kernel_steps=s)


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
    phi: Callable,
    x: np.ndarray,
    t: float,
    delta: float,
    n_substeps: int = 64,
) -> float:
    """Backward RK4 integration of the state-frozen minimized Hamiltonian ODE.

    Integrates -y' = F0(s, x, y, 0) from y(t + delta) = 0 down to time t in
    n_substeps steps.  The ODE of one constant control v is this ODE
    over the one-point control set ``ControlSet(v, v)``, whose grid is v.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    zeros = np.zeros(prob.d)

    def g(s, y):
        return -hamiltonian_F0(prob, phi, s, x, y, zeros)[0]

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
    phi: Callable,
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
    eta = phi(times[-1], ens.states[-1])
    phi_layers = [phi(times[i], ens.states[i]) for i in range(grid.n_steps + 1)]
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
    lhs = float(sol.y_at_t0[0]) - float(phi(t, np.asarray(x, dtype=float)))
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
    phi: Callable,
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
                lambda i, xx, y, z: hamiltonian_F(prob, phi, times[i], xx, y, z, v),
                np.zeros(n_paths),
                basis,
                picard_iters=picard_iters,
            )
            frozen = replace(prob, controls=ControlSet(v, v))
            y2 = frozen_ode_solve(frozen, phi, x, t, delta, n_substeps=32)
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
