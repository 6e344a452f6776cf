"""Controlled diffusion simulation in ambient coordinates.

With every field linear, Va(x) = x A_a^T, one Euler-Maruyama step reads

    X' = proj( X + v0*V0 dt + sum_a v_a*Va dW^a + 1/2 sum_a v_a^2 (D_Va Va) dt )

where D_Va Va = (X A_a^T) A_a^T is the ambient directional-derivative
correction that makes the projected chain consistent with the geometric
(Stratonovich) dynamics, and proj is the metric projection, which enforces
manifold invariance at every step instead of relying on it analytically.

The step works coordinate-major: the states are an (n, N) array with one
contiguous row per ambient coordinate, each field is one A X, and each
factor's norm is a sum of squared rows rather than a reduction over a 2- to
4-long axis.  ``simulate`` keeps each CHUNK of paths in that layout across
all its steps and writes each step's rows into the path-major
``TrajectoryEnsemble.states``.  The states stay path-major for their readers:
bsde builds its regression features from them, and a Gram matrix summed
from an F-ordered feature matrix differs in the last bits.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import rng
from .errors import GridMismatch, NonTangentField, WorkerLost
from .geometry import ManifoldModel, VectorField

# Paths are stepped in fixed-size chunks to bound the per-step temporaries:
# a chunk is held as an (n, CHUNK) coordinate-major array, a few rows of 16 KB
# that stay in cache across its steps.  Each path depends only on its own
# noise, so the states do not depend on the chunk size; bsde accumulates its
# Gram matrices in chunks of the same size so that cross-path sums have one
# fixed order.
CHUNK = 2048


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    T: float
    n_steps: int

    def __post_init__(self):
        if not self.t0 < self.T:
            raise ValueError(f"need t0 < T, got [{self.t0}, {self.T}]")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
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

    increments[i, p, a] is a pure function of (seed, i, path_offset + p, a); see
    rng.py.  The increments are computed when first read and cached, so a grid
    that is only split into blocks never holds all (n_steps, n_paths, d) of them.
    ``block(p0, p1)`` is the grid of paths [p0, p1): its increments equal
    ``increments[:, p0:p1]`` bit for bit, antithetic pairs included.
    """

    grid: TimeGrid
    d: int
    n_paths: int
    seed: int
    antithetic: bool = False
    path_offset: int = 0

    @cached_property
    def increments(self) -> np.ndarray:
        return rng.normal_increments(
            self.seed, self.grid.n_steps, self.n_paths, self.d, self.grid.dt,
            antithetic=self.antithetic, path_offset=self.path_offset,
        )

    def block(self, p0: int, p1: int) -> "BrownianGrid":
        """The paths [p0, p1) of this grid, as a grid of their own."""
        return replace(self, n_paths=p1 - p0, path_offset=self.path_offset + p0)


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

    def grid(self) -> np.ndarray:
        """Finite control grid of ``grid_points_per_axis`` points per axis,
        rows in lexicographic order.

        Axes with lower == upper collapse to a single point.
        """
        k = self.grid_points_per_axis
        axes = []
        for lo, up in zip(self.lower, self.upper):
            if up - lo < 1e-15:
                axes.append(np.array([lo]))
            else:
                axes.append(np.linspace(lo, up, k))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


# A control policy: the controls applied on step i to states X of shape
# (N, n), as an (N, d+1) array.  A feedback control is any such function.
Policy = Callable[[int, np.ndarray], np.ndarray]


def constant_policy(v) -> Policy:
    """The control v on every step and path.  The policy returns a read-only
    broadcast view of one private copy of v, not a fresh array, and the same
    view again while the number of paths stays the same."""
    v = np.array(v, dtype=float, ndmin=1)
    view = np.broadcast_to(v, (0, v.shape[0]))

    def policy(i, X):
        nonlocal view
        if view.shape[0] != X.shape[0]:
            view = np.broadcast_to(v, (X.shape[0], v.shape[0]))
        return view

    return policy


@dataclass(frozen=True)
class TrajectoryEnsemble:
    grid: TimeGrid
    manifold: ManifoldModel
    states: np.ndarray  # (n_steps+1, n_paths, ambient_dim)
    noise: BrownianGrid
    policy: Policy

    @property
    def n_paths(self) -> int:
        return self.states.shape[1]

    def constraint_violation(self) -> float:
        return float(np.max(self.manifold.constraint_violation(self.states)))


def euler_step(m, fields, dt, X, v, dW):
    """One projected Euler step in coordinate-major layout.

    X: (n, N) states, one row per ambient coordinate; v: (d+1, N) controls,
    or (d+1, 1) for one control on every column; dW: (d, N) increments.
    With W_a = A_a X computed once per field, computes
    X + dt*(v0*W_0 + 1/2 sum_a va^2 A_a W_a), then adds sum_a (va*W_a)*dW^a,
    then projects each factor's rows.  Every number is the one the path-major
    formula X A_a^T gives, because each catalog matrix has at most one
    nonzero per row; an overflow is left to the projection guard, which names
    it, instead of being warned about.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        W = [f.A @ X for f in fields]
        drift = v[0] * W[0]
        for a in range(1, len(fields)):
            drift += 0.5 * v[a] ** 2 * (fields[a].A @ W[a])
        drift *= dt
        Y = drift
        Y += X
        for a in range(1, len(fields)):
            Wa = W[a]
            Wa *= v[a]
            Wa *= dW[a - 1]
            Y += Wa
    return m.project(Y.T).T


def grid_argmin(values: np.ndarray):
    """Pointwise minimum over the rows of a control grid.

    ``values`` is stacked over the grid, of shape (k,) or (k, n_points):
    ``values[k]`` is the objective (a scalar or a per-point array) under the
    grid's k-th control.  Returns (minimum, minimizing row index) per point;
    the minimizing controls are ``controls[rows]``.

    The rule is ``np.argmin``'s.  The first minimum in grid order wins, so
    ties, -0.0 against 0.0 among them, resolve to the first
    (lexicographically smallest) control.  A NaN counts as the minimum, so a
    NaN objective comes back as a NaN minimum with its own control and is
    never passed over for another control.
    """
    if values.shape[0] == 1:  # one control: its row (a view) is the minimum, NaN or not
        return values[0], np.zeros(values.shape[1:], dtype=np.intp)
    rows = values.argmin(axis=0)
    if values.ndim == 1:
        return values[rows], rows
    n = values.shape[1]
    return values.take(rows * n + np.arange(n)), rows


def simulate(
    m: ManifoldModel,
    fields: Sequence[VectorField],
    x0: np.ndarray,
    policy: Policy,
    noise: BrownianGrid,
) -> TrajectoryEnsemble:
    """Run the projected Euler scheme for all paths of the noise grid."""
    d = len(fields) - 1
    if noise.d != d:
        raise GridMismatch(f"noise has d={noise.d}, fields imply d={d}")
    for f in fields[1:]:
        if not f.tangent_to(m):
            raise NonTangentField(f"diffusion field '{f.id}' is not tangent to {m.name}")
    grid = noise.grid
    dt = grid.dt
    states = np.empty((grid.n_steps + 1, noise.n_paths, m.ambient_dim))
    states[0] = np.asarray(x0, dtype=float)
    for p0 in range(0, noise.n_paths, CHUNK):
        paths = slice(p0, p0 + CHUNK)
        X = np.ascontiguousarray(states[0, paths].T)
        for i in range(grid.n_steps):
            v = policy(i, states[i, paths]).T
            X = euler_step(m, fields, dt, X, v, noise.increments[i, paths].T)
            # Row by row: numpy copies a whole transposed block several times slower.
            for k, row in enumerate(X):
                states[i + 1, paths, k] = row
    return TrajectoryEnsemble(grid=grid, manifold=m, states=states, noise=noise, policy=policy)


# True in a fork_map worker, where a nested fork_map runs serially.
_IN_WORKER = False

# The most workers one fork_map call forks, however many CPUs it may use: each
# worker holds its own private memory (9-22 MB for an `estimates` stability
# instance), so a 50-CPU host would otherwise fork 50 of them.
_MAX_WORKERS = 8


def fork_map(
    units: Callable[[range], Iterator], n: int, meanwhile: Optional[Callable[[], None]] = None
) -> list:
    """``list(units(range(n)))``, with the units shared out over forked
    worker processes.

    ``units(indices)`` yields the result of each index in ``indices``, in
    order, and each result must depend only on its index.  A generator keeps
    one unit's arrays alive while the next allocates its own, as a plain
    loop does; a function called once per index frees them all on return,
    and glibc then gives the heap back and faults it in again for every unit.

    On Linux there are W = min(n, usable CPUs, ``_MAX_WORKERS``) workers.
    Only 2-CPU hosts have been measured, where the cap does not bind; wall
    time on wider hosts, and whether 8 suits them, is unmeasured.  Worker w
    runs ``units(range(w, n, W))``, sends back through a pipe one pickle of its
    results and of the error that stopped it, if any, and leaves with
    ``os._exit``.  The parent reaps every worker before it returns or raises.
    The results are those of the serial loop, in index order, and the error
    raised is that of the lowest failing index.  With one worker, off Linux
    and inside a worker, the units run serially in this process.

    ``meanwhile()``, if given, is the parent's own work: it runs once the
    workers are forked, while they run, and an error it raises is raised
    after every worker is reaped.  When the units run serially it runs
    before them, so a failing unit leaves the same effects of ``meanwhile``
    at any worker count.
    """
    n_workers = (1 if _IN_WORKER or sys.platform != "linux"
                 else min(n, len(os.sched_getaffinity(0)), _MAX_WORKERS))
    if n_workers <= 1:
        if meanwhile is not None:
            meanwhile()
        return list(units(range(n)))
    workers, replies = [], []
    try:
        for w in range(n_workers):
            r, wfd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _fork_worker(units, range(w, n, n_workers), wfd)  # leaves with os._exit
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(wfd)
            workers.append((pid, r))
        if meanwhile is not None:
            meanwhile()
        for _, r in workers:
            with open(r, "rb", closefd=False) as fh:
                replies.append(fh.read())
    finally:
        # Closing the read ends first: a worker still writing gets EPIPE and leaves.
        statuses = []
        for pid, r in workers:
            os.close(r)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    results, failure = [None] * n, None
    for w, (reply, status) in enumerate(zip(replies, statuses)):
        try:
            values, error = pickle.loads(reply)
        except Exception as e:
            raise WorkerLost(f"worker {w} of {n_workers} ended with exit code {status} "
                             f"and no readable result ({e!r})") from None
        results[w : w + len(values) * n_workers : n_workers] = values
        i = w + len(values) * n_workers  # the index that failed, if one did
        if error is not None and (failure is None or i < failure[0]):
            failure = (i, error)
    if failure is not None:
        raise failure[1]
    return results


def _fork_worker(units, indices, fd) -> None:
    """A fork_map worker: collect the results of units(indices) until one
    raises, write (results, error or None) to the pipe fd and end the process
    without running exit handlers or unwinding into the caller."""
    global _IN_WORKER
    _IN_WORKER = True
    status = 1
    try:
        values, error = [], None
        try:
            for value in units(indices):
                values.append(value)
        except BaseException as e:  # the parent raises it again
            error = e
        with open(fd, "wb") as fh:
            fh.write(pickle.dumps((values, error)))
        status = 0
    finally:
        os._exit(status)


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
    policy: Policy,
    policy2: Policy,
    noise: BrownianGrid,
    C: float,
) -> FlowContinuityReport:
    """Mean-square flow continuity under shared noise.

    lhs: Monte Carlo estimate of E sup_s |X_s - X'_s|^2 (ambient norm).
    rhs: C * (|x - x'|^2 + E int |v - v'|^2 ds), with C supplied by config.

    Both flows are simulated one CHUNK-sized block of paths at a time, each
    block on its own noise, and only sup_s |X_s - X'_s|^2 and sum_i |v - v'|^2
    are kept per path, so memory is O(CHUNK * n_steps) plus two floats per path.
    The blocks run in ``fork_map`` workers.
    """
    starts = range(0, noise.n_paths, CHUNK)

    def block_sums(ks):
        for k in ks:
            block = noise.block(starts[k], min(starts[k] + CHUNK, noise.n_paths))
            ens1 = simulate(m, fields, x, policy, block)
            ens2 = simulate(m, fields, x2, policy2, block)
            sup = np.max(np.sum((ens1.states - ens2.states) ** 2, axis=-1), axis=0)
            # Sum the steps in step order for every block width: np.sum(axis=0)
            # switches to pairwise summation on a one-path block.
            ctrl = sum(
                np.sum((policy(i, X1) - policy2(i, X2)) ** 2, axis=-1)
                for i, (X1, X2) in enumerate(zip(ens1.states[:-1], ens2.states[:-1]))
            )
            yield sup, ctrl

    sup_sq, ctrl_sq = zip(*fork_map(block_sums, len(starts)))
    lhs = float(np.mean(np.concatenate(sup_sq)))
    ctrl_term = float(np.mean(np.concatenate(ctrl_sq) * noise.grid.dt))
    rhs = C * (float(np.sum((np.asarray(x) - np.asarray(x2)) ** 2)) + ctrl_term)
    return FlowContinuityReport(lhs=lhs, rhs=rhs, constant_C=C, passed=lhs <= rhs)


def float_texts(a: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 of ``a``, as an object array of ``a``'s shape.

    Each distinct bit pattern is formatted once and its text scattered back
    through ``np.unique``'s inverse index: a value-table layer repeats most of
    its values.  Keying on the uint64 bits keeps -0.0 and 0.0 apart, and
    ``return_inverse`` keeps ``np.unique`` on its sorting path, which does not
    import ``numpy.ma``.
    """
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    return texts[inverse.reshape(bits.shape)]


def write_csv_layers(path: str, header: Sequence[str], layers) -> None:
    """Write the CSV header, then each layer, an object array of text pieces
    whose concatenation in C order is that layer's rows, as one string."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for layer in layers:
            fh.write("".join(layer.ravel().tolist()))


def export_paths(ens: TrajectoryEnsemble, path: str) -> None:
    """Columnar CSV dump: step, path, embedded coordinates.

    The bytes are those of ``csv.writer`` with ``repr`` floats (CRLF line
    ends); each step is written as one string.
    """
    n_paths, n = ens.states.shape[1:]
    # Per path: "{i},", "{p},", then the coordinates with "," between them
    # and the line end after the last.
    row = np.empty((n_paths, 2 + 2 * n), dtype=object)
    row[:, 1] = [f"{p}," for p in range(n_paths)]
    row[:, 3::2] = ","
    row[:, -1] = "\r\n"

    def layers():
        for i in range(ens.grid.n_steps + 1):
            row[:, 0] = f"{i},"
            row[:, 2::2] = float_texts(ens.states[i])
            yield row

    write_csv_layers(path, ["step", "path"] + [f"x{k}" for k in range(n)], layers())
