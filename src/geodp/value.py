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

A mesh exposes its interpolation as ``gather(points)``: chart, cell corner
indices and weights are built once for a point set, and the returned function
maps nodal values to interpolated values with one take of the cell corners
and one lerp per axis.  ``interpolate(values, points)`` is
``gather(points)(values)``.
Because the rule's points are fixed and the catalog fields are autonomous,
``value_function`` builds one gather for all grid controls before its time
loop, and steps every control of a layer as one array.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .bsde import RegressionBasis, semigroup, solve_backward
from .dynamics import BrownianGrid, ControlPolicy, TimeGrid, euler_step, grid_argmin, simulate
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

    def gather(self, points: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Interpolation at fixed on-manifold points, as a function of nodal values.

        The chart, the 2^axes corner node indices of each point's cell (one
        flat-index array with the corner axes first) and the (1 - w, w)
        weights per axis are computed here once; the returned function only
        takes nodal values and combines them, so a caller that interpolates
        many value arrays at the same points (the HJB stencil) pays for the
        geometry once.  ``apply`` is one take and then one lerp per axis, from
        the last axis to the first: on two axes (1 - w1)((1 - w2) u00 +
        w2 u01) + w1((1 - w2) u10 + w2 u11).
        """
        ch = self.manifold.chart(points)
        n_axes = len(self.axes)
        ends, lerps = [], []
        for a, axis in enumerate(self.axes):
            lo, w = axis.cell(ch[..., a])
            corner_axis = (1,) * a + (2,) + (1,) * (n_axes - 1 - a)
            ends.append(np.stack([lo, axis.next(lo)]).reshape(corner_axis + lo.shape))
            lead = (slice(None),) * a
            lerps.append((1.0 - w, w, lead + (0,), lead + (1,)))
        corners = self._node_index(ends)
        lerps.reverse()

        def apply(values):
            u = np.asarray(values, dtype=float).take(corners)
            for w0, w1, lo, hi in lerps:
                u = w0 * u[lo] + w1 * u[hi]
            return u

        return apply

    def interpolate(self, values: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Interpolate nodal values at arbitrary on-manifold points."""
        return self.gather(points)(values)

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
    grid: TimeGrid
    mesh: ManifoldMesh
    u: np.ndarray  # (n_steps+1, n_nodes)
    argmin_control: np.ndarray  # (n_steps, n_nodes, d+1)


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
    t: float,
    x: np.ndarray,
    policy: ControlPolicy,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    basis: Optional[RegressionBasis] = None,
    picard_iters: int = 3,
    antithetic: bool = True,
) -> float:
    """Recursive cost of one policy: simulate forward, solve the BSDE backward."""
    grid = TimeGrid(t0=t, T=T, n_steps=n_steps)
    noise = BrownianGrid(
        grid=grid, d=prob.d, n_paths=n_paths, seed=seed, antithetic=antithetic
    )
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


def value_function(
    prob: ControlProblem,
    grid: TimeGrid,
    mesh: ManifoldMesh,
    picard_iters: int = 3,
    *,
    n_sub: int = 0,
) -> ValueField:
    """Backward induction over the control grid on the mesh.

    ``n_sub`` is ignored.  Its only reader is the benchmark's span tracer
    (``benchmark/spans.py``), which counts value evaluations from it by name;
    it goes when the tracer stops reading it.
    """
    if grid.dt > 0.1:
        raise ValueError(f"dt = {grid.dt:.3g} exceeds the 0.1 sanity bound")
    controls = prob.controls.grid()
    if controls.shape[0] == 0:
        raise ValueError("empty control grid")
    nodes = mesh.nodes
    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    times = grid.times
    xi, w = gauss_hermite_rule(prob.d)
    dW = xi * sqrt_dt
    u = np.empty((grid.n_steps + 1, mesh.n_nodes))
    u[grid.n_steps] = prob.terminal(nodes)
    argmin = np.empty((grid.n_steps, mesh.n_nodes, controls.shape[1]))

    # One-step states from every node under every rule point and every grid
    # control, charted once: the points are fixed and the catalog fields
    # autonomous.  The (control, node, rule point) triples are the columns of
    # one coordinate-major step, and their values are gathered as one
    # (k, n_nodes, 3^d) array per layer.
    k = controls.shape[0]
    n_rule = xi.shape[0]
    X = np.tile(np.repeat(nodes.T, n_rule, axis=1), k)
    V = np.repeat(controls.T, mesh.n_nodes * n_rule, axis=1)
    dW_cols = np.tile(dW.T, k * mesh.n_nodes)
    at_next = mesh.gather(
        np.ascontiguousarray(
            euler_step(prob.manifold, prob.fields, grid.t0, dt, X, V, dW_cols).T
        ).reshape(k, mesh.n_nodes, n_rule, -1)
    )
    vv = np.broadcast_to(controls[:, None, :], (k, mesh.n_nodes, controls.shape[1]))
    for i in range(grid.n_steps - 1, -1, -1):
        u_next = at_next(u[i + 1])  # (k, n_nodes, 3^d)
        y_bar = u_next @ w
        Z = (u_next * w) @ xi / sqrt_dt
        y = y_bar
        for _ in range(picard_iters):
            y = y_bar + dt * prob.driver(times[i], nodes, y, Z, vv)
        u[i], rows = grid_argmin(y)
        argmin[i] = controls[rows]

    return ValueField(grid=grid, mesh=mesh, u=u, argmin_control=argmin)


def dpp_residual_check(
    prob: ControlProblem,
    vf: ValueField,
    delta_steps: int,
    probes: Sequence[Tuple[int, int]],
    fresh_seed: int,
    n_paths: int = 4096,
    basis: Optional[RegressionBasis] = None,
    picard_iters: int = 3,
    tolerance: float = 2e-2,
) -> DppReport:
    """Recompute u at probe (time, node) pairs through a delta-step window.

    The window minimization searches constant-per-window controls on the
    finite control grid, with fresh noise, and compares against the stored
    value layer.  The minimum over the grid is ``grid_argmin``'s, as in
    ``value_function``, so a NaN window value gives a NaN residual.
    """
    if not 1 <= delta_steps <= vf.grid.n_steps:
        raise ValueError("delta_steps out of range")
    basis = basis or RegressionBasis()
    controls = prob.controls.grid()
    residuals = []
    for k, (i, j) in enumerate(probes):
        i_end = min(i + delta_steps, vf.grid.n_steps)
        window = vf.grid.window(i, i_end)
        x0 = vf.mesh.nodes[j]
        noise = BrownianGrid(
            grid=window,
            d=prob.d,
            n_paths=n_paths,
            seed=rng.derive_seed(fresh_seed, i, j),
            antithetic=True,
        )
        values = np.empty(len(controls))
        for c, v in enumerate(controls):
            ens = simulate(prob.manifold, prob.fields, x0, ControlPolicy.constant(v), noise)
            eta = vf.mesh.interpolate(vf.u[i_end], ens.states[-1])
            values[c] = semigroup(ens, prob.driver, basis, eta, picard_iters)
        best, _ = grid_argmin(values)
        residuals.append(abs(vf.u[i, j] - best))
    residuals = np.asarray(residuals)
    return DppReport(
        residuals=residuals,
        probes=list(probes),
        max_residual=float(np.max(residuals)) if len(residuals) else 0.0,
        tolerance=tolerance,
    )


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


class _FormattedRows(dict):
    """The CSV text of a float64 row, keyed by the row's bytes and formatted
    on its first lookup: equal bytes are equal reprs, so each distinct row is
    formatted once."""

    def __missing__(self, row: bytes) -> str:
        text = self[row] = ",".join(map(repr, np.frombuffer(row).tolist()))
        return text


def export_value_field(vf: ValueField, path: str) -> None:
    """CSV dump: time index, node index, node coordinates, u, argmin control.

    The bytes are those of ``csv.writer`` with ``repr`` floats (CRLF line
    ends, empty control fields on the last layer); each node's coordinate
    string and each distinct control row are formatted once, and each time
    layer is written as one string.
    """
    n = vf.mesh.nodes.shape[1]
    n_ctrl_layers, _, dctrl = vf.argmin_control.shape
    header = (
        ["time_index", "node_index"]
        + [f"x{k}" for k in range(n)]
        + ["u"]
        + [f"v{k}" for k in range(dctrl)]
    )
    coords = [",".join(map(repr, x)) for x in vf.mesh.nodes.tolist()]
    no_ctrl = [",".join([""] * dctrl)] * len(coords)
    # One bytes object per (layer, node): the row of its argmin control.
    ctrl_rows = (
        np.ascontiguousarray(vf.argmin_control, dtype=np.float64)
        .view(np.dtype((np.void, 8 * dctrl)))[..., 0]
    )
    ctrl_text = _FormattedRows()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(vf.u.shape[0]):
            ctrl = (
                list(map(ctrl_text.__getitem__, ctrl_rows[i].tolist()))
                if i < n_ctrl_layers
                else no_ctrl
            )
            fh.write(
                "".join(
                    f"{i},{j},{x},{u!r},{c}\r\n"
                    for j, (x, u, c) in enumerate(zip(coords, vf.u[i].tolist(), ctrl))
                )
            )
