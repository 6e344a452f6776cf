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
at off-node states are obtained by positively weighted interpolation
(periodic linear on the circle, bilinear lat-lon with shared pole values on
the sphere, periodic bilinear on the torus), so each layer is a positively
weighted average of the next one plus dt times the driver: the scheme keeps
comparison and the maximum principle, and the table is deterministic.

Each mesh exposes its interpolation as ``gather(points)``: chart, cell
indices and weights are built once for a point set, and the returned function
maps nodal values to interpolated values with a few takes and the bilinear
combination.  ``interpolate(values, points)`` is ``gather(points)(values)``.
Because the rule's points are fixed and the catalog fields are autonomous,
``value_function`` builds one gather per control before its time loop.
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


class ManifoldMesh:
    """Node set plus interpolation on one of the catalog manifolds."""

    manifold: ManifoldModel
    nodes: np.ndarray  # (n_nodes, ambient_dim)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def gather(self, points: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Interpolation at fixed on-manifold points, as a function of nodal values.

        The chart, cell indices and weights are computed here once; the
        returned function only takes nodal values and combines them, so a
        caller that interpolates many value arrays at the same points (the
        HJB stencil) pays for the geometry once.
        """
        raise NotImplementedError

    def interpolate(self, values: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Interpolate nodal values at arbitrary on-manifold points."""
        return self.gather(points)(values)

    def neighbor_pairs(self) -> List[Tuple[int, int]]:
        """Pairs of adjacent node indices (each pair once)."""
        raise NotImplementedError

    def spacing(self) -> float:
        """Representative node spacing (geodesic)."""
        raise NotImplementedError

    def refine(self) -> "ManifoldMesh":
        """Mesh with roughly half the spacing."""
        raise NotImplementedError


class CircleMesh(ManifoldMesh):
    def __init__(self, n_theta: int = 128):
        if n_theta < 3:
            raise ValueError("n_theta must be >= 3")
        self.manifold = Circle()
        self.n_theta = n_theta
        th = 2.0 * np.pi * np.arange(n_theta) / n_theta
        self.nodes = np.stack([np.cos(th), np.sin(th)], axis=-1)

    def gather(self, points):
        th = self.manifold.chart(points)[..., 0]
        pos = (th % (2.0 * np.pi)) / (2.0 * np.pi) * self.n_theta
        i0 = np.floor(pos).astype(int) % self.n_theta
        w = pos - np.floor(pos)
        i1 = (i0 + 1) % self.n_theta

        def apply(values):
            values = np.asarray(values, dtype=float)
            return (1.0 - w) * values[i0] + w * values[i1]

        return apply

    def neighbor_pairs(self):
        return [(k, (k + 1) % self.n_theta) for k in range(self.n_theta)]

    def spacing(self):
        return 2.0 * np.pi / self.n_theta

    def refine(self):
        return CircleMesh(2 * self.n_theta)


class SphereMesh(ManifoldMesh):
    """Latitude-longitude mesh with each pole stored once."""

    def __init__(self, n_lat: int = 32, n_lon: int = 64):
        if n_lat < 3 or n_lon < 3:
            raise ValueError("need n_lat >= 3 and n_lon >= 3")
        self.manifold = Sphere2()
        self.n_lat = n_lat
        self.n_lon = n_lon
        self.lats = -0.5 * np.pi + np.pi * np.arange(n_lat) / (n_lat - 1)
        self.lons = -np.pi + 2.0 * np.pi * np.arange(n_lon) / n_lon
        nodes = [np.array([0.0, 0.0, -1.0])]  # south pole, index 0
        for lat in self.lats[1:-1]:
            for lon in self.lons:
                nodes.append(
                    np.array(
                        [np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)]
                    )
                )
        nodes.append(np.array([0.0, 0.0, 1.0]))  # north pole, last index
        self.nodes = np.stack(nodes, axis=0)

    def _row_index(self, row, col):
        """Node index of (lat row, lon column); poles ignore the column."""
        npole = self.n_nodes - 1
        return np.where(
            row == 0,
            0,
            np.where(
                row == self.n_lat - 1,
                npole,
                np.clip(1 + (row - 1) * self.n_lon + col, 0, npole),
            ),
        )

    def gather(self, points):
        ch = self.manifold.chart(points)
        lat, lon = ch[..., 0], ch[..., 1]
        posl = (lat + 0.5 * np.pi) / np.pi * (self.n_lat - 1)
        r0 = np.clip(np.floor(posl).astype(int), 0, self.n_lat - 2)
        wl = posl - r0
        posm = ((lon + np.pi) % (2.0 * np.pi)) / (2.0 * np.pi) * self.n_lon
        c0 = np.floor(posm).astype(int) % self.n_lon
        wm = posm - np.floor(posm)
        c1 = (c0 + 1) % self.n_lon
        k00 = self._row_index(r0, c0)
        k01 = self._row_index(r0, c1)
        k10 = self._row_index(r0 + 1, c0)
        k11 = self._row_index(r0 + 1, c1)

        def apply(values):
            values = np.asarray(values, dtype=float)
            return (1.0 - wl) * ((1.0 - wm) * values[k00] + wm * values[k01]) + wl * (
                (1.0 - wm) * values[k10] + wm * values[k11]
            )

        return apply

    def neighbor_pairs(self):
        pairs = []
        npole = self.n_nodes - 1

        def idx(r, c):
            return 1 + (r - 1) * self.n_lon + (c % self.n_lon)

        for c in range(self.n_lon):
            pairs.append((0, idx(1, c)))
            pairs.append((npole, idx(self.n_lat - 2, c)))
        for r in range(1, self.n_lat - 1):
            for c in range(self.n_lon):
                pairs.append((idx(r, c), idx(r, c + 1)))
                if r + 1 <= self.n_lat - 2:
                    pairs.append((idx(r, c), idx(r + 1, c)))
        return pairs

    def spacing(self):
        return np.pi / (self.n_lat - 1)

    def refine(self):
        return SphereMesh(2 * self.n_lat - 1, 2 * self.n_lon)


class TorusMesh(ManifoldMesh):
    def __init__(self, n1: int = 64, n2: int = 64):
        if n1 < 3 or n2 < 3:
            raise ValueError("need n1, n2 >= 3")
        self.manifold = FlatTorus2()
        self.n1 = n1
        self.n2 = n2
        t1 = 2.0 * np.pi * np.arange(n1) / n1
        t2 = 2.0 * np.pi * np.arange(n2) / n2
        G1, G2 = np.meshgrid(t1, t2, indexing="ij")
        self.nodes = np.stack(
            [np.cos(G1), np.sin(G1), np.cos(G2), np.sin(G2)], axis=-1
        ).reshape(-1, 4)

    def gather(self, points):
        ch = self.manifold.chart(points)
        p1 = (ch[..., 0] % (2.0 * np.pi)) / (2.0 * np.pi) * self.n1
        p2 = (ch[..., 1] % (2.0 * np.pi)) / (2.0 * np.pi) * self.n2
        i0 = np.floor(p1).astype(int) % self.n1
        j0 = np.floor(p2).astype(int) % self.n2
        w1 = p1 - np.floor(p1)
        w2 = p2 - np.floor(p2)
        i1 = (i0 + 1) % self.n1
        j1 = (j0 + 1) % self.n2

        def apply(values):
            values = np.asarray(values, dtype=float).reshape(self.n1, self.n2)
            return (1.0 - w1) * ((1.0 - w2) * values[i0, j0] + w2 * values[i0, j1]) + w1 * (
                (1.0 - w2) * values[i1, j0] + w2 * values[i1, j1]
            )

        return apply

    def neighbor_pairs(self):
        pairs = []
        for i in range(self.n1):
            for j in range(self.n2):
                k = i * self.n2 + j
                pairs.append((k, ((i + 1) % self.n1) * self.n2 + j))
                pairs.append((k, i * self.n2 + (j + 1) % self.n2))
        return pairs

    def spacing(self):
        return 2.0 * np.pi / max(self.n1, self.n2)

    def refine(self):
        return TorusMesh(2 * self.n1, 2 * self.n2)


def make_mesh(m: ManifoldModel, sizes: Optional[dict] = None) -> ManifoldMesh:
    sizes = sizes or {}
    if isinstance(m, Circle):
        return CircleMesh(int(sizes.get("n_theta", 128)))
    if isinstance(m, Sphere2):
        return SphereMesh(int(sizes.get("n_lat", 32)), int(sizes.get("n_lon", 64)))
    if isinstance(m, FlatTorus2):
        return TorusMesh(int(sizes.get("n1", 64)), int(sizes.get("n2", 64)))
    raise KeyError(f"no mesh rule for manifold '{m.name}'")


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

    # One-step states from every node under every rule point, charted once
    # per control: the points are fixed and the catalog fields autonomous.
    # The (node, rule point) pairs are the columns of one coordinate-major step.
    n_rule = xi.shape[0]
    X = np.repeat(nodes.T, n_rule, axis=1)
    dW_cols = np.tile(dW.T, mesh.n_nodes)
    at_next = [
        mesh.gather(
            np.ascontiguousarray(
                euler_step(prob.manifold, prob.fields, grid.t0, dt, X, v[:, None], dW_cols).T
            ).reshape(mesh.n_nodes, n_rule, -1)
        )
        for v in controls
    ]
    values = np.empty((controls.shape[0], mesh.n_nodes))
    for i in range(grid.n_steps - 1, -1, -1):
        for k, (v, gather) in enumerate(zip(controls, at_next)):
            u_next = gather(u[i + 1])  # (n_nodes, 3^d)
            y_bar = u_next @ w
            Z = (u_next * w) @ xi / sqrt_dt
            vv = np.broadcast_to(v, (mesh.n_nodes, v.shape[0]))
            y = y_bar
            for _ in range(picard_iters):
                y = y_bar + dt * prob.driver(times[i], nodes, y, Z, vv)
            values[k] = y
        u[i], argmin[i] = grid_argmin(controls, values)

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
    value layer.
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
        best = np.inf
        noise = BrownianGrid(
            grid=window,
            d=prob.d,
            n_paths=n_paths,
            seed=rng.derive_seed(fresh_seed, i, j),
            antithetic=True,
        )
        for v in controls:
            ens = simulate(prob.manifold, prob.fields, x0, ControlPolicy.constant(v), noise)
            eta = vf.mesh.interpolate(vf.u[i_end], ens.states[-1])
            val = semigroup(ens, prob.driver, basis, eta, picard_iters)
            best = min(best, val)
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


def continuity_moduli(vf: ValueField, n_space_bins: int = 4) -> ContinuityModuli:
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
    ends, empty control fields on the last layer); each node's coordinate
    string is formatted once and each time layer is written as one string.
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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(vf.u.shape[0]):
            ctrl = (
                [",".join(map(repr, c)) for c in vf.argmin_control[i].tolist()]
                if i < n_ctrl_layers
                else no_ctrl
            )
            fh.write(
                "".join(
                    f"{i},{j},{x},{u!r},{c}\r\n"
                    for j, (x, u, c) in enumerate(zip(coords, vf.u[i].tolist(), ctrl))
                )
            )
