"""Controlled diffusion simulation in ambient coordinates.

One Euler-Maruyama step reads

    X' = proj( X + v0*V0 dt + sum_a v_a*Va dW^a + 1/2 sum_a v_a^2 (D_Va Va) dt )

where the last term is the ambient directional-derivative correction that makes
the projected chain consistent with the geometric (Stratonovich) dynamics, and
proj is the metric projection, which enforces manifold invariance at every
step instead of relying on it analytically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng
from .errors import GridMismatch, NonTangentField
from .geometry import ManifoldModel, VectorField, ambient_derivative

# Paths are stepped in fixed-size chunks to bound the per-step temporaries.
# Each path depends only on its own noise, so the states do not depend on the
# chunk size; bsde accumulates its Gram matrices in chunks of the same size so
# that cross-path sums have one fixed order.
CHUNK = 2048


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        # n_steps == 0 with t0 == T is the degenerate window used by the
        # zero-delta semigroup; otherwise the grid must be nontrivial.
        if self.n_steps == 0:
            if self.t0 != self.T:
                raise ValueError("zero-step grid requires t0 == T")
            return
        if not self.t0 < self.T:
            raise ValueError(f"need t0 < T, got [{self.t0}, {self.T}]")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        if self.n_steps == 0:
            return 0.0
        return (self.T - self.t0) / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def window(self, i0: int, i1: int) -> "TimeGrid":
        """Sub-grid covering steps [i0, i1)."""
        t = self.times
        return TimeGrid(t0=float(t[i0]), T=float(t[i1]), n_steps=i1 - i0)


@dataclass(frozen=True)
class BrownianGrid:
    """Counter-based Brownian increments on a time grid.

    increments[i, p, a] is a pure function of (seed, i, p, a); see rng.py.
    """

    grid: TimeGrid
    d: int
    n_paths: int
    seed: int
    antithetic: bool = False
    increments: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        inc = rng.normal_increments(
            self.seed, self.grid.n_steps, self.n_paths, self.d, self.grid.dt,
            antithetic=self.antithetic,
        )
        object.__setattr__(self, "increments", inc)


@dataclass(frozen=True)
class ControlSet:
    """A box in R^{d+1} with a finite uniform grid used for minimization."""

    lower: np.ndarray
    upper: np.ndarray
    grid_points_per_axis: int = 1

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        up = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if lo.shape != up.shape:
            raise ValueError("lower/upper shape mismatch")
        if np.any(lo > up):
            raise ValueError("need lower <= upper componentwise")
        if self.grid_points_per_axis < 1:
            raise ValueError("grid_points_per_axis must be >= 1")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, v, tol=1e-12) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(
            np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol)
        )

    def grid(self, points_per_axis: Optional[int] = None) -> np.ndarray:
        """Finite control grid, rows in lexicographic order.

        Axes with lower == upper collapse to a single point.
        """
        k = points_per_axis or self.grid_points_per_axis
        axes = []
        for lo, up in zip(self.lower, self.upper):
            if up - lo < 1e-15:
                axes.append(np.array([lo]))
            else:
                axes.append(np.linspace(lo, up, k))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


class ControlPolicy:
    """Piecewise-constant-in-time control: open-loop or feedback.

    ``values(i, X)`` returns the control applied on step i for states X of
    shape (N, n), as an array of shape (N, d+1).
    """

    def __init__(self, kind: str, fn: Callable[[int, np.ndarray], np.ndarray]):
        self.kind = kind
        self._fn = fn

    def values(self, i: int, X: np.ndarray) -> np.ndarray:
        return self._fn(i, np.asarray(X, dtype=float))

    @classmethod
    def constant(cls, v) -> "ControlPolicy":
        v = np.atleast_1d(np.asarray(v, dtype=float))

        def fn(i, X):
            return np.broadcast_to(v, (X.shape[0], v.shape[0])).copy()

        return cls("open_loop_constant", fn)

    @classmethod
    def feedback(cls, fn: Callable[[int, np.ndarray], np.ndarray]) -> "ControlPolicy":
        return cls("feedback", fn)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    grid: TimeGrid
    manifold: ManifoldModel
    states: np.ndarray  # (n_steps+1, n_paths, ambient_dim)
    noise: BrownianGrid
    policy: ControlPolicy

    @property
    def n_paths(self) -> int:
        return self.states.shape[1]

    def constraint_violation(self) -> float:
        return float(np.max(self.manifold.constraint_violation(self.states)))

    def control_values(self) -> np.ndarray:
        """Controls actually applied, shape (n_steps, n_paths, d+1)."""
        out = []
        for i in range(self.grid.n_steps):
            out.append(self.policy.values(i, self.states[i]))
        return np.stack(out, axis=0)


def euler_step(m, fields, t, dt, X, v, dW):
    """One projected Euler step, broadcasting over the leading axes of X, v, dW.

    X: (..., n) states; v: (..., d+1) controls; dW: (..., d) increments.
    Computes X + dt*(v0*V0 + 1/2 sum_a va^2 D_Va Va), then adds
    sum_a (va*Va)*dW^a, then projects.
    """
    v = np.asarray(v, dtype=float)
    drift = v[..., 0:1] * fields[0](t, X)
    for a in range(1, len(fields)):
        drift = drift + 0.5 * v[..., a : a + 1] ** 2 * ambient_derivative(
            m, fields[a], fields[a], t, X
        )
    Y = X + dt * drift
    for a in range(1, len(fields)):
        Y = Y + v[..., a : a + 1] * fields[a](t, X) * dW[..., a - 1 : a]
    return m.project(Y)


def grid_argmin(controls: np.ndarray, values):
    """Pointwise minimum over the rows of a control grid.

    ``values[k]`` is the objective (scalar or per-point array) under
    ``controls[k]``.  Returns (minimum, minimizing row per point).  Rows are
    visited in grid order and only a strictly smaller value replaces the
    incumbent, so ties resolve to the first (lexicographically smallest) control.
    """
    best, best_k = np.inf, 0
    for k, val in enumerate(values):
        better = val < best
        best = np.where(better, val, best)
        best_k = np.where(better, k, best_k)
    return best, controls[best_k]


def simulate(
    m: ManifoldModel,
    fields: Sequence[VectorField],
    x0: np.ndarray,
    policy: ControlPolicy,
    noise: BrownianGrid,
) -> TrajectoryEnsemble:
    """Run the projected Euler scheme for all paths of the noise grid."""
    d = len(fields) - 1
    if noise.d != d:
        raise GridMismatch(f"noise has d={noise.d}, fields imply d={d}")
    for f in fields[1:]:
        if not f.tangency_certified:
            raise NonTangentField(f"diffusion field '{f.id}' lacks a tangency certificate")
    grid = noise.grid
    times = grid.times
    dt = grid.dt
    states = np.empty((grid.n_steps + 1, noise.n_paths, m.ambient_dim))
    states[0] = np.asarray(x0, dtype=float)
    for p0 in range(0, noise.n_paths, CHUNK):
        paths = slice(p0, p0 + CHUNK)
        X = states[0, paths]
        for i in range(grid.n_steps):
            dW = noise.increments[i, paths]
            X = euler_step(m, fields, times[i], dt, X, policy.values(i, X), dW)
            states[i + 1, paths] = X
    return TrajectoryEnsemble(grid=grid, manifold=m, states=states, noise=noise, policy=policy)


@dataclass(frozen=True)
class FlowContinuityReport:
    lhs: float
    rhs: float
    constant_C: float
    passed: bool


def flow_continuity_check(
    m: ManifoldModel,
    fields: Sequence[VectorField],
    x: np.ndarray,
    x2: np.ndarray,
    policy: ControlPolicy,
    policy2: ControlPolicy,
    noise: BrownianGrid,
    C: float,
) -> FlowContinuityReport:
    """Mean-square flow continuity under shared noise.

    lhs: Monte Carlo estimate of E sup_s |X_s - X'_s|^2 (ambient norm).
    rhs: C * (|x - x'|^2 + E int |v - v'|^2 ds), with C supplied by config.
    """
    ens1 = simulate(m, fields, x, policy, noise)
    ens2 = simulate(m, fields, x2, policy2, noise)
    diff2 = np.sum((ens1.states - ens2.states) ** 2, axis=-1)  # (steps+1, paths)
    lhs = float(np.mean(np.max(diff2, axis=0)))
    v1 = ens1.control_values()
    v2 = ens2.control_values()
    ctrl_term = float(np.mean(np.sum(np.sum((v1 - v2) ** 2, axis=-1), axis=0) * noise.grid.dt))
    rhs = C * (float(np.sum((np.asarray(x) - np.asarray(x2)) ** 2)) + ctrl_term)
    return FlowContinuityReport(lhs=lhs, rhs=rhs, constant_C=C, passed=lhs <= rhs)


def export_paths(ens: TrajectoryEnsemble, path: str) -> None:
    """Columnar CSV dump: step, path, embedded coordinates."""
    n = ens.manifold.ambient_dim
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "path"] + [f"x{k}" for k in range(n)])
        for i in range(ens.grid.n_steps + 1):
            for p in range(ens.n_paths):
                w.writerow([i, p] + [repr(float(c)) for c in ens.states[i, p]])
