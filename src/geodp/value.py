"""Cost functional and value function by backward dynamic programming.

The recursion works on a manifold mesh: the terminal layer is the terminal
cost at the nodes, and each earlier layer takes, per node, the minimum over a
finite control grid of the one-step recursion value

    u(t_i, x) = min_v  y,   y = E[u(t_{i+1}, X_1)] + dt * f(t_i, x, y, Z, v),

where X_1 is one projected Euler step from x under v.  The expectation over
the Brownian increment is the tensor 3-point Gauss-Hermite rule for N(0, I_d):
points xi in {-sqrt 3, 0, sqrt 3}^d with weights that are products of
(1/6, 2/3, 1/6), exact for every moment up to degree 5 in each axis, and
dW = xi * sqrt(dt), so E[u] = sum_k w_k u_k and Z = sum_k w_k u_k xi_k / sqrt(dt).
This is a semi-Lagrangian scheme (Camilli & Falcone, M2AN 1995; Debrabant &
Jakobsen, Math. Comp. 2013).  Its weights are positive, and next-layer values
at off-node states are obtained by positively weighted (multilinear)
interpolation, so each layer is a positively weighted average of the next one
plus dt times the driver: the scheme keeps comparison and the maximum
principle, and the table is deterministic.

One mesh covers the catalog: ``ManifoldMesh``, the tensor product of one mesh
per unit-sphere factor of the manifold's ``factor_dims``.  A circle factor
gives one periodic angle axis; a sphere factor gives a clamped latitude axis
and a periodic longitude axis, with each pole stored once.  ``CircleMesh``,
``SphereMesh`` and ``TorusMesh`` fix the manifold; ``make_mesh`` reads the
sizes from a config mapping.

A mesh reads values off its nodes in one way, multilinear interpolation:
``corners(points)`` gives each point's cell as explicit (corner node index,
multilinear weight) arrays, and ``corner_sum`` adds the weighted corner values
in corner order; ``interpolate`` is the two in a row.  ``value_function`` and
``hjb.transition_weights`` find the corners of their fixed points once.
``backward_induction`` is the recursion shared with ``hjb.solve_hjb``: both
are controlled-Markov-chain schemes (Kushner & Dupuis 2001, ch. 5) that differ
only in the layer that combines u at their fixed off-node points, with a
combiner each builds once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .bsde import RegressionBasis, semigroup, solve_backward
from .dynamics import (
    BrownianGrid,
    Policy,
    TimeGrid,
    constant_policy,
    euler_step,
    float_texts,
    fork_map,
    grid_argmin,
    simulate,
    write_csv_layers,
)
from .geometry import Circle, FlatTorus2, ManifoldModel, Sphere2
from .problem import ControlProblem


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Axis:
    """``n`` node angles from ``start`` over ``span``: around a circle, with
    cells of span / n (periodic), or with both ends on nodes and cells of
    span / (n - 1) (clamped)."""

    start: float
    span: float
    n: int
    periodic: bool

    @property
    def cells(self) -> int:
        return self.n if self.periodic else self.n - 1

    def angles(self) -> np.ndarray:
        return self.start + self.span * np.arange(self.n) / self.cells

    def next(self, i):
        """The next node index: around the circle, or clamped at the last node."""
        return (i + 1) % self.n if self.periodic else np.minimum(i + 1, self.n - 1)

    def cell(self, angle):
        """Lower node index and weight of the upper node of each angle's cell."""
        off = angle - self.start
        if self.periodic:
            pos = off % self.span / self.span * self.n
            lo = np.floor(pos)
            return lo.astype(int) % self.n, pos - lo
        pos = off / self.span * self.cells
        lo = np.clip(np.floor(pos).astype(int), 0, self.n - 2)
        return lo, pos - lo


# A factor mesh is (axes, node coordinates (n_nodes, factor dim), node index
# of per-axis indices).


def _circle_mesh(n: int):
    """One periodic axis of n angles from 0."""
    axis = _Axis(0.0, 2.0 * np.pi, n, True)
    th = axis.angles()
    return (axis,), np.stack([np.cos(th), np.sin(th)], axis=-1), lambda i: i


def _sphere_mesh(n_lat: int, n_lon: int):
    """Clamped latitudes from the south pole to the north pole and periodic
    longitudes from -pi; each pole is one node (first and last), the rings
    between them are stored row by row."""
    lat_axis = _Axis(-0.5 * np.pi, np.pi, n_lat, False)
    lon_axis = _Axis(-np.pi, 2.0 * np.pi, n_lon, True)
    lat, lon = lat_axis.angles()[1:-1, None], lon_axis.angles()
    rings = np.stack(
        np.broadcast_arrays(np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)),
        axis=-1,
    ).reshape(-1, 3)
    coords = np.concatenate([[[0.0, 0.0, -1.0]], rings, [[0.0, 0.0, 1.0]]])
    npole = coords.shape[0] - 1
    # Ring row r, column c is node 1 + (r - 1) n_lon + c; every column of
    # row 0 clips to the south pole and every column of the last row to the north pole.
    return (lat_axis, lon_axis), coords, lambda r, c: np.clip(1 + (r - 1) * n_lon + c, 0, npole)


# Factor mesh and its number of size arguments, by the factor's ambient dimension.
_FACTOR_MESHES = {2: (_circle_mesh, 1), 3: (_sphere_mesh, 2)}


def corner_sum(values: np.ndarray, index: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_c weight[c] * values[index[c]] over the leading corner axis (one take,
    one product), added in corner order; on one axis, the lerp (1 - w) u0 + w u1."""
    u = np.asarray(values, dtype=float).take(index)
    u *= weight
    total = u[0] + u[1]
    for c in range(2, len(u)):
        total += u[c]
    return total


class ManifoldMesh:
    """Tensor product of one mesh per unit-sphere factor of ``manifold``.

    ``sizes`` gives the node count of each mesh axis, factor by factor: one
    periodic angle axis per circle factor, a clamped latitude and a periodic
    longitude axis per sphere factor.  Node k is the row-major position of
    its factor node indices; interpolation is multilinear over the axes, so
    its weights are positive.
    """

    def __init__(self, manifold: ManifoldModel, *sizes: int):
        builds = [_FACTOR_MESHES[k] for k in manifold.factor_dims]
        if len(sizes) != sum(n_args for _, n_args in builds) or min(sizes) < 3:
            raise ValueError(f"{manifold.name}: need one size >= 3 per mesh axis; got {sizes}")
        self.manifold = manifold
        self.sizes = sizes
        left = iter(sizes)
        self.factors = [build(*itertools.islice(left, n_args)) for build, n_args in builds]
        self.axes = tuple(a for axes, _, _ in self.factors for a in axes)
        counts = [coords.shape[0] for _, coords, _ in self.factors]
        idx = np.indices(counts).reshape(len(counts), -1)
        self.nodes = np.concatenate([c[i] for (_, c, _), i in zip(self.factors, idx)], axis=-1)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def _node_index(self, axis_indices):
        """Flat node index of per-axis index arrays (broadcast together)."""
        it = iter(axis_indices)
        flat = 0
        for axes, coords, index in self.factors:
            flat = flat * coords.shape[0] + index(*itertools.islice(it, len(axes)))
        return flat

    def corners(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The cell corners of fixed on-manifold points as explicit weights.

        Returns (index, weight), each of shape (2^axes,) + points.shape[:-1]:
        the flat node index of each corner of each point's cell and its
        multilinear weight, the product over the axes of 1 - w or w, with w
        the weight of the upper node along the axis.  The weights are
        nonnegative and sum to 1 over the corners of a point up to rounding;
        ``corner_sum`` interpolates nodal values with them.
        """
        ch = self.manifold.chart(points)
        n_axes = len(self.axes)
        ends, weight = [], 1.0
        for a, axis in enumerate(self.axes):
            lo, w = axis.cell(ch[..., a])
            corner_axis = (1,) * a + (2,) + (1,) * (n_axes - 1 - a)
            ends.append(np.stack([lo, axis.next(lo)]).reshape(corner_axis + lo.shape))
            weight = weight * np.stack([1.0 - w, w]).reshape(corner_axis + w.shape)
        shape = (2**n_axes,) + np.shape(points)[:-1]
        return self._node_index(ends).reshape(shape), weight.reshape(shape)

    def interpolate(self, values: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Interpolate nodal values at on-manifold points: ``corner_sum`` over ``corners``."""
        return corner_sum(values, *self.corners(points))

    def neighbor_pairs(self) -> List[Tuple[int, int]]:
        """Pairs of adjacent node indices (each pair once): every node with its
        next node along each axis, node by node.  Axis steps that stay on one
        node (along a pole, or past the last latitude) are left out."""
        grid = list(np.indices(self.sizes))
        start = self._node_index(grid).ravel()
        succ = [
            self._node_index(grid[:a] + [axis.next(grid[a])] + grid[a + 1 :]).ravel()
            for a, axis in enumerate(self.axes)
        ]
        i = np.repeat(start, len(succ))
        j = np.stack(succ, axis=-1).ravel()
        keep = i != j
        return list(zip(i[keep].tolist(), j[keep].tolist()))

    def spacing(self) -> float:
        """Node spacing (geodesic) of the finest factor, each factor's along
        its first axis (the circle angle, the sphere latitude)."""
        return min(axes[0].span / axes[0].cells for axes, _, _ in self.factors)

    def refine(self) -> "ManifoldMesh":
        """Mesh with half the spacing: every node kept and every cell split in two."""
        return ManifoldMesh(self.manifold, *(a.n + a.cells for a in self.axes))


# The catalog meshes, each fixing its manifold.


class CircleMesh(ManifoldMesh):
    def __init__(self, n_theta: int):
        super().__init__(Circle(), n_theta)


class SphereMesh(ManifoldMesh):
    def __init__(self, n_lat: int, n_lon: int):
        super().__init__(Sphere2(), n_lat, n_lon)


class TorusMesh(ManifoldMesh):
    def __init__(self, n1: int, n2: int):
        super().__init__(FlatTorus2(), n1, n2)


# Mesh size keys, with their defaults, by the manifold's factor dimensions.
_MESH_SIZES = {(2,): {"n_theta": 128}, (3,): {"n_lat": 32, "n_lon": 64},
               (2, 2): {"n1": 64, "n2": 64}}
# The largest time step value_function accepts; validation checks it too.
_MAX_DT = 0.1


def make_mesh(m: ManifoldModel, sizes: Optional[dict] = None) -> ManifoldMesh:
    sizes = sizes or {}
    if m.factor_dims not in _MESH_SIZES:
        raise KeyError(f"no mesh sizes for manifold '{m.name}'")
    defaults = _MESH_SIZES[m.factor_dims]
    return ManifoldMesh(m, *(int(sizes.get(key, n)) for key, n in defaults.items()))


# ---------------------------------------------------------------------------
# Value field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueField:
    """A value table ``u`` and, at each node of each layer but the last, the
    ``grid_argmin`` row of the control grid ``controls`` that minimized it."""

    grid: TimeGrid
    mesh: ManifoldMesh
    u: np.ndarray  # (n_steps+1, n_nodes)
    controls: np.ndarray  # (k, d+1), the control grid
    argmin_row: np.ndarray  # (n_steps, n_nodes), intp rows of controls

    @property
    def argmin_control(self) -> np.ndarray:
        """The minimizing controls ``controls[argmin_row]``, built on each read."""
        return self.controls[self.argmin_row]


@dataclass(frozen=True)
class DppReport:
    residuals: np.ndarray  # per probe
    probes: List[Tuple[int, int]]
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def cost_functional(
    prob: ControlProblem,
    x: np.ndarray,
    policy: Policy,
    noise: BrownianGrid,
    basis: Optional[RegressionBasis] = None,
    picard_iters: int = 3,
) -> float:
    """Recursive cost of one policy from x over the window ``noise.grid``:
    simulate forward on the noise, solve the BSDE backward."""
    ens = simulate(prob.manifold, prob.fields, x, policy, noise)
    sol = solve_backward(
        ens, prob.driver, prob.terminal, basis or RegressionBasis(), picard_iters
    )
    return sol.y_at_t0


_GH3_POINTS = np.array([-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
_GH3_WEIGHTS = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])


def gauss_hermite_rule(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor 3-point Gauss-Hermite rule for N(0, I_d).

    Returns points (3^d, d) and positive weights (3^d,) summing to 1, in
    lexicographic order of the per-axis points (-sqrt 3, 0, sqrt 3).
    """
    idx = np.array(list(itertools.product(range(3), repeat=d)), dtype=int)
    return _GH3_POINTS[idx], np.prod(_GH3_WEIGHTS[idx], axis=1)


def backward_induction(prob: ControlProblem, grid: TimeGrid, mesh: ManifoldMesh,
                       layer: Callable, stride: int = 1, s: int = 1) -> ValueField:
    """The dynamic-programming recursion, from the terminal layer back to
    step 0.  ``layer(i, u, vv, n)`` maps u at step i + n to (u at step i,
    the ``grid_argmin`` rows of its minimizing controls), with ``vv`` the
    control grid broadcast to (k, n_nodes, d+1); a layer brings its own
    combiner of u at the scheme's fixed off-node points, built once.  Every
    ``stride``-th layer is kept, u and its rows copied, on ``TimeGrid(t0, T,
    n_steps // stride)``; ValueError unless stride divides n_steps.

    n is 1 unless ``s`` > 1, which a scheme passes when its step is linear
    and the same at every step, so that s steps are one step of its s-step
    kernel: then each kept window of stride steps runs as stride % s layers
    with n = 1 followed by stride // s layers with n = s.
    """
    if stride < 1 or grid.n_steps % stride:
        raise ValueError(f"stride {stride} does not divide n_steps = {grid.n_steps}")
    controls = prob.controls.grid()
    vv = np.broadcast_to(controls[:, None, :], (len(controls), mesh.n_nodes, controls.shape[1]))
    n_out = grid.n_steps // stride
    u = np.empty((n_out + 1, mesh.n_nodes))
    u[n_out] = prob.terminal(mesh.nodes)
    argmin_row = np.empty((n_out, mesh.n_nodes), dtype=np.intp)
    u_i = u[n_out]
    window = [1] * (stride % s) + [s] * (stride // s)
    for w in range(n_out - 1, -1, -1):
        i = (w + 1) * stride
        for n in window:
            i -= n
            u_i, rows = layer(i, u_i, vv, n)
        u[w] = u_i
        argmin_row[w] = rows
    out = TimeGrid(t0=grid.t0, T=grid.T, n_steps=n_out)
    return ValueField(grid=out, mesh=mesh, u=u, controls=controls, argmin_row=argmin_row)


def value_function(
    prob: ControlProblem,
    grid: TimeGrid,
    mesh: ManifoldMesh,
    picard_iters: int = 3,
    *,
    n_sub: int = 0,
) -> ValueField:
    """Backward induction over the control grid on the mesh.

    Each layer sums u over the cell corners of the one-step states of every
    (control, node, rule point), averages them into y_bar with the rule
    weights and runs ``picard_iters`` Picard iterations of
    y = y_bar + dt f(t_i, x, y, Z, v).
    When the driver vanishes (K = K0 = 0, ``Driver.vanishes``) the layer is
    ``grid_argmin(y_bar)``, with no Z and no Picard loop.  The bytes are the
    same, because y_bar + 0.0 only turns -0.0 into 0.0, and the matmul's
    sums start from 0.0.

    ``n_sub`` is ignored.  Its only reader is the benchmark's span tracer
    (``benchmark/spans.py``), which counts value evaluations from it by name;
    it goes when the tracer stops reading it.
    """
    if grid.dt > _MAX_DT:
        raise ValueError(f"dt = {grid.dt:.3g} exceeds the {_MAX_DT} sanity bound")
    controls = prob.controls.grid()
    nodes = mesh.nodes
    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    times = grid.times
    xi, w = gauss_hermite_rule(prob.d)

    # One-step states from every node under every rule point and grid control:
    # the (control, node, rule point) triples are the columns of one
    # coordinate-major step, read as one (k, n_nodes, 3^d) array per layer.
    k = controls.shape[0]
    n_rule = xi.shape[0]
    X = np.tile(np.repeat(nodes.T, n_rule, axis=1), k)
    V = np.repeat(controls.T, mesh.n_nodes * n_rule, axis=1)
    dW_cols = np.tile((xi * sqrt_dt).T, k * mesh.n_nodes)
    X1 = euler_step(prob.manifold, prob.fields, dt, X, V, dW_cols)
    at_next = mesh.corners(np.ascontiguousarray(X1.T).reshape(k, mesh.n_nodes, n_rule, -1))

    def layer(i, u, vv, n):  # n = 1: the table passes no s
        u_next = corner_sum(u, *at_next)  # (k, n_nodes, 3^d)
        y_bar = u_next @ w
        if prob.driver.vanishes:
            return grid_argmin(y_bar)
        Z = (u_next * w) @ xi / sqrt_dt
        y = y_bar
        for _ in range(picard_iters):
            y = y_bar + dt * prob.driver(times[i], nodes, y, Z, vv)
        return grid_argmin(y)

    return backward_induction(prob, grid, mesh, layer)


# A dpp_residual_check call forks its windows out to fork_map workers when its
# work, n_paths x controls x the window steps summed over every delta and
# probe, reaches this many path-steps; below it a fork round costs more than
# it saves.
_FORK_MIN_PATH_STEPS = 2**17


def dpp_residual_check(
    prob: ControlProblem,
    vf: ValueField,
    delta_steps: Sequence[int],
    probes: Sequence[Tuple[int, int]],
    seed: int,
    n_paths: int = 4096,
    basis: Optional[RegressionBasis] = None,
    picard_iters: int = 3,
    tolerance: float = 2e-2,
    meanwhile: Optional[Callable[[], None]] = None,
) -> List[DppReport]:
    """Recompute u at probe (time, node) pairs through a window of each
    length in ``delta_steps``; one report per delta, in order.

    The window minimization searches constant-per-window controls on the
    finite control grid, with fresh noise seeded from ``seed``, the delta and
    the probe, and compares against the stored value layer.  The minimum
    over the grid is ``grid_argmin``'s, as in ``value_function``, so a NaN
    window value gives a NaN residual.  Each probe (i, j) must lie in
    [0, n_steps) x [0, n_nodes), so that its window has at least one step.

    The windows run delta by delta, each over every probe, and each residual
    depends only on its delta and its (i, j); so at
    ``_FORK_MIN_PATH_STEPS`` and above all of them run in one ``fork_map``
    round, whose workers only read ``vf``.  The residuals, and the error
    raised if a window fails, are those of the serial loop.  ``meanwhile``
    is handed to ``fork_map``: it runs in this process while the workers
    run, or before the windows when they run here.
    """
    for ds in delta_steps:
        if not 1 <= ds <= vf.grid.n_steps:
            raise ValueError("delta_steps out of range")
    for i, j in probes:
        if not (0 <= i < vf.grid.n_steps and 0 <= j < vf.mesh.n_nodes):
            raise ValueError(
                f"probe ({i}, {j}) outside [0, {vf.grid.n_steps}) x [0, {vf.mesh.n_nodes})"
            )
    basis = basis or RegressionBasis()
    controls = prob.controls.grid()
    n_steps = vf.grid.n_steps
    n_probes = len(probes)

    def window_residuals(ks):
        for k in ks:
            delta, probe = divmod(k, n_probes)
            i, j = probes[probe]
            i_end = min(i + delta_steps[delta], n_steps)
            window = vf.grid.window(i, i_end)
            x0 = vf.mesh.nodes[j]
            noise = BrownianGrid(
                grid=window,
                d=prob.d,
                n_paths=n_paths,
                seed=rng.derive_seed(seed, delta_steps[delta], i, j),
                antithetic=True,
            )
            values = np.empty(len(controls))
            for c, v in enumerate(controls):
                ens = simulate(prob.manifold, prob.fields, x0, constant_policy(v), noise)
                eta = vf.mesh.interpolate(vf.u[i_end], ens.states[-1])
                values[c] = semigroup(ens, prob.driver, basis, eta, picard_iters)
            best, _ = grid_argmin(values)
            yield abs(vf.u[i, j] - best)

    n_windows = len(delta_steps) * n_probes
    path_steps = n_paths * len(controls) * sum(
        min(i + ds, n_steps) - i for ds in delta_steps for i, _ in probes
    )
    if path_steps >= _FORK_MIN_PATH_STEPS:
        residuals = fork_map(window_residuals, n_windows, meanwhile)
    else:
        if meanwhile is not None:
            meanwhile()
        residuals = list(window_residuals(range(n_windows)))
    return [
        DppReport(
            residuals=r,
            probes=list(probes),
            max_residual=float(np.max(r)) if n_probes else 0.0,
            tolerance=tolerance,
        )
        for r in np.asarray(residuals).reshape(len(delta_steps), n_probes)
    ]


@dataclass(frozen=True)
class ContinuityModuli:
    space_modulus: Dict[float, float]  # neighbor distance -> max |du|
    time_modulus: Dict[float, float]  # layer spacing -> max |du|


def continuity_moduli(vf: ValueField) -> ContinuityModuli:
    """Empirical moduli of continuity of the value table.

    Space: neighbor-pair |du| maxima bucketed by pair distance.  Time: max |du|
    between adjacent layers.
    """
    mesh = vf.mesh
    pairs = mesh.neighbor_pairs()
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    dists = mesh.manifold.distance(mesh.nodes[ii], mesh.nodes[jj])
    du = np.max(np.abs(vf.u[:, ii] - vf.u[:, jj]), axis=0)
    space: Dict[float, float] = {}
    rounded = np.round(dists, 10)
    for dist in np.unique(rounded):
        sel = rounded == dist
        space[float(dist)] = float(np.max(du[sel]))
    dt = vf.grid.dt
    time_mod = {float(dt): float(np.max(np.abs(np.diff(vf.u, axis=0))))}
    return ContinuityModuli(space_modulus=space, time_modulus=time_mod)


def export_value_field(vf: ValueField, path: str) -> None:
    """CSV dump: time index, node index, node coordinates, u, argmin control.

    The bytes are those of ``csv.writer`` with ``repr`` floats (CRLF line
    ends, empty control fields on the last layer).  A row is the pieces
    ``"{i},"``, the node's head ``"{j},{x0},...,"``, the u text and the
    control tail ``",v0,...,vd"`` with the line end: the heads are built
    once per export, the tails once per grid control and read through each
    layer's ``argmin_row``, each float text once per distinct value of the
    nodes or of a layer (``float_texts``), and each layer is written as one
    string.
    """
    nodes = vf.mesh.nodes
    n_nodes, n = nodes.shape
    dctrl = vf.controls.shape[1]
    header = (
        ["time_index", "node_index"]
        + [f"x{k}" for k in range(n)]
        + ["u"]
        + [f"v{k}" for k in range(dctrl)]
    )
    row = np.empty((n_nodes, 4), dtype=object)
    row[:, 1] = [f"{j},{','.join(x)}," for j, x in enumerate(float_texts(nodes).tolist())]
    tails = np.array([f",{','.join(v)}\r\n" for v in float_texts(vf.controls).tolist()],
                     dtype=object)
    no_ctrl = "," * dctrl + "\r\n"

    def layers():
        for i in range(vf.u.shape[0]):
            row[:, 0] = f"{i},"
            row[:, 2] = float_texts(vf.u[i])
            row[:, 3] = tails[vf.argmin_row[i]] if i < len(vf.argmin_row) else no_ctrl
            yield row

    write_csv_layers(path, header, layers())
