"""Backward SDE solver along a trajectory ensemble.

Discretization: backward in time,

    Z_i = E[Y_{i+1} dW^T | X_i] / dt
    Y_i = E[Y_{i+1} | X_i] + dt * f(t_i, X_i, Y_i, Z_i, v_i)

with the implicit Y_i resolved by a fixed number of Picard iterations
(contraction guard K*dt < 1), and conditional expectations estimated by global
least squares on ambient monomial features of X_i.  When all paths share the
state (the deterministic start node, or any degenerate layer) plain averaging
is used instead.

Sweeps that share an ensemble run in lockstep: least-squares conditional
expectation is linear in its target, so B stacked sweeps make one regression
per step (features, Gram matrix and its eigendecomposition once) on the
column-stacked targets of every member, and each member's prediction equals
the one its own sweep would make, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Callable, Tuple

import numpy as np

from .dynamics import CHUNK, TrajectoryEnsemble
from .errors import ContractionViolated

# Relative singular-value cutoff: ambient monomials are exactly collinear on an
# embedded manifold (e.g. x1^2 + x2^2 = 1), so the null directions of the
# feature matrix are structural and are truncated rather than flagged.
_SV_CUTOFF = 1e-12


@dataclass(frozen=True)
class Driver:
    """Generator f(t, x, y, z, v); must be vectorized over paths.

    ``lipschitz_K`` and ``bound_K0`` are bounds that the solvers rely on, not
    only labels: f is K-Lipschitz in (x, y, z, v) (hypothesis A1) and
    |f(t, x, 0, 0, v)| <= K0 (hypothesis A2), so |f| <= K0 + K(|y| + |z|).
    K = K0 = 0 therefore means f = 0 everywhere (``vanishes``), and the grid
    solvers then leave the driver out of their steps.
    """

    f: Callable[[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    lipschitz_K: float
    bound_K0: float

    def __call__(self, t, x, y, z, v):
        return self.f(t, x, y, z, v)

    @property
    def vanishes(self) -> bool:
        """f = 0 identically, by its declared bounds K = K0 = 0."""
        return self.lipschitz_K == 0 and self.bound_K0 == 0


@dataclass(frozen=True)
class TerminalCost:
    phi: Callable[[np.ndarray], np.ndarray]
    lipschitz_K: float

    def __call__(self, x):
        return self.phi(x)


@dataclass(frozen=True)
class RegressionBasis:
    """Ambient monomials of the embedded coordinates up to a total degree."""

    degree: int = 2

    def feature_count(self, ambient_dim: int) -> int:
        return comb(ambient_dim + self.degree, self.degree)

    def features(self, X: np.ndarray) -> np.ndarray:
        """The (N, p) feature matrix, C-ordered: the constant, then the
        monomials by degree in ``combinations_with_replacement`` order, each
        the left-to-right product 1.0 * x_j1 * x_j2 * ... of its coordinates.
        A monomial's column is the column of its prefix (one coordinate
        shorter, listed earlier; the constant for degree 1) times its last
        coordinate, which is that product bit for bit."""
        X = np.asarray(X, dtype=float)
        N, n = X.shape
        F = np.empty((N, self.feature_count(n)))
        F[:, 0] = 1.0
        column = {(): 0}
        for deg in range(1, self.degree + 1):
            for combo in combinations_with_replacement(range(n), deg):
                c = column[combo] = len(column)
                np.multiply(F[:, column[combo[:-1]]], X[:, combo[-1]], out=F[:, c])
        return F


@dataclass(frozen=True)
class BsdeSolution:
    """One sweep's solution; a lockstep sweep of B members puts a leading
    batch axis of length B on ``Y``, ``Z`` and ``y_at_t0``.  Two BSDEs on
    shared noise are such a sweep with B = 2, which the pair checks read."""

    grid: "object"
    Y: np.ndarray  # ([B,] n_steps+1, n_paths)
    Z: np.ndarray  # ([B,] n_steps, n_paths, d)
    y_at_t0: float  # or (B,) for a lockstep sweep
    picard_residual: float


def _chunked_gram(F: np.ndarray, R: np.ndarray):
    """Phi^T Phi and Phi^T R accumulated in fixed-size chunks, in index order."""
    k = F.shape[1]
    G = np.zeros((k, k))
    b = np.zeros((k, R.shape[1]))
    for p0 in range(0, F.shape[0], CHUNK):
        Fc = F[p0 : p0 + CHUNK]
        Rc = R[p0 : p0 + CHUNK]
        G += Fc.T @ Fc
        b += Fc.T @ Rc
    return G, b


def _regress(F: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Least-squares prediction of each column of R on features F, at the samples.

    Solved through the eigendecomposition of the Gram matrix with the
    directions below ``_SV_CUTOFF`` times the largest eigenvalue truncated, so
    the kept system's condition number is below 1 / _SV_CUTOFF.  The constant
    feature makes the largest eigenvalue at least the sample count.
    """
    G, b = _chunked_gram(F, R)
    w, V = np.linalg.eigh(G)
    keep = w > w[-1] * _SV_CUTOFF
    Vk = V[:, keep]
    beta = Vk @ ((Vk.T @ b) / w[keep][:, None])
    return F @ beta


def conditional_expectation(
    X: np.ndarray, R: np.ndarray, basis: RegressionBasis
) -> np.ndarray:
    """E[R | X] per path; plain average when all paths share the state.

    The layer is degenerate when max |X - X[0]| < 1e-12.  A last row that
    differs from row 0 by at least that much settles it without the full
    scan; a NaN anywhere fails the comparison, so it always regresses.
    """
    R = np.atleast_2d(np.asarray(R, dtype=float).T).T  # (N, m)
    degenerate = X.shape[0] <= 1
    if not degenerate and not np.any(np.abs(X[-1] - X[0]) >= 1e-12):
        degenerate = np.max(np.abs(X - X[0:1])) < 1e-12
    if degenerate:
        mean = np.mean(R, axis=0)
        return np.broadcast_to(mean, R.shape).copy()
    return _regress(basis.features(X), R)


def backward_sweep(
    states: np.ndarray,
    increments: np.ndarray,
    grid,
    driver_fn: Callable[[int, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    terminal_values: np.ndarray,
    basis: RegressionBasis,
    picard_iters: int = 3,
) -> BsdeSolution:
    """Generic backward recursion with per-path terminal values.

    driver_fn(i, x, y, z) evaluates the generator on step i (control already
    folded in by the caller).  With terminal_values of shape (N,) it gets y of
    shape (N,) and z of shape (N, d).  Terminal values of shape (B, N) run B
    sweeps in lockstep on the same ensemble: driver_fn gets y (B, N) and
    z (B, N, d) and returns (B, N), each step makes one regression for all
    members, and the solution carries a leading batch axis; its
    picard_residual is the maximum over the members.

    z is fixed within a step: the picard_iters calls of driver_fn on step i
    all get the same z, and only y changes between them, so a driver may
    compute its z terms once per step.
    """
    terminal_values = np.asarray(terminal_values, dtype=float)
    batched = terminal_values.ndim == 2
    yT = terminal_values if batched else terminal_values[None]
    B = yT.shape[0]
    n_steps = grid.n_steps
    n_paths = states.shape[1]
    d = increments.shape[2]
    dt = grid.dt

    Y = np.empty((B, n_steps + 1, n_paths))
    Z = np.zeros((B, n_steps, n_paths, d))
    Y[:, n_steps] = yT
    residual = 0.0
    # Targets [Y_b, Y_b dW] of every member side by side, one C-ordered
    # (N, B, 1+d) buffer refilled each step, and the Picard residual's buffer.
    targets = np.empty((n_paths, B, 1 + d))
    R = targets.reshape(n_paths, B * (1 + d))
    diff = np.empty((B, n_paths))

    for i in range(n_steps - 1, -1, -1):
        X = states[i]
        dW = increments[i]
        for b in range(B):
            # One path-long row at a time: a broadcast over the short B and
            # d axes would run numpy's inner loop on length-1 or -2 axes.
            y_next = Y[b, i + 1]
            targets[:, b, 0] = y_next
            for a in range(d):
                np.multiply(y_next, dW[:, a], out=targets[:, b, 1 + a])
        pred = conditional_expectation(X, R, basis).reshape(n_paths, B, 1 + d).transpose(1, 0, 2)
        y_bar = pred[:, :, 0]
        z = Z[:, i]
        np.divide(pred[:, :, 1:], dt, out=z)
        y = y_bar
        for _ in range(picard_iters):
            if batched:
                y_new = y_bar + dt * driver_fn(i, X, y, z)
            else:
                y_new = y_bar + dt * driver_fn(i, X, y[0], z[0])
            np.subtract(y_new, y, out=diff)
            np.abs(diff, out=diff)
            residual = max(residual, float(diff.max()))
            y = y_new
        Y[:, i] = y

    y_at_t0 = np.mean(Y[:, 0], axis=-1)
    if not batched:
        Y, Z, y_at_t0 = Y[0], Z[0], float(y_at_t0[0])
    return BsdeSolution(
        grid=grid,
        Y=Y,
        Z=Z,
        y_at_t0=y_at_t0,
        picard_residual=residual,
    )


def _check_contraction(driver: Driver, grid) -> None:
    """The implicit Picard step contracts only when K*dt < 1."""
    if driver.lipschitz_K * grid.dt >= 1.0:
        raise ContractionViolated(f"K*dt = {driver.lipschitz_K * grid.dt:.3g} >= 1")


def _policy_driver(ens: TrajectoryEnsemble, driver: Driver):
    times = ens.grid.times

    def fn(i, x, y, z):
        v = ens.policy(i, x)
        return driver(times[i], x, y, z, v)

    return fn


def solve_backward(
    ens: TrajectoryEnsemble,
    driver: Driver,
    terminal: TerminalCost,
    basis: RegressionBasis,
    picard_iters: int = 3,
) -> BsdeSolution:
    """Solve the BSDE with terminal cost at maturity along the ensemble."""
    _check_contraction(driver, ens.grid)
    return backward_sweep(
        ens.states,
        ens.noise.increments,
        ens.grid,
        _policy_driver(ens, driver),
        terminal(ens.states[-1]),
        basis,
        picard_iters=picard_iters,
    )


def semigroup(
    ens: TrajectoryEnsemble,
    driver: Driver,
    basis: RegressionBasis,
    eta: np.ndarray,
    picard_iters: int = 3,
) -> float:
    """One-window recursion operator: BSDE value at the window start with
    terminal payoff eta at the window end.

    With f == 0 it reduces to the sample mean of eta.
    """
    return solve_backward(ens, driver, lambda x: eta, basis, picard_iters).y_at_t0


def stability_check(
    pair: BsdeSolution,
    xi: np.ndarray,
    phi: np.ndarray,
    C_L: float,
) -> Tuple[float, float, float]:
    """Mean-square stability of a BSDE pair differing only in (xi, phi):
    returns (lhs, rhs, beta0).

    lhs = |dY_t0|^2 + 1/2 E sum_i e^{beta0 (t_i - t0)} (|dY_i|^2 + |dZ_i|^2) dt
    and rhs = E|dxi|^2 e^{beta0 (T - t0)} + E sum_i e^{beta0 (t_i - t0)} |dphi_i|^2 dt,
    with beta0 = 16 (1 + C_L^2); the estimate says lhs <= rhs, and the
    caller applies its slack.

    ``pair`` is one lockstep sweep of two members, so both share the grid,
    the noise and the common generator g.  xi holds their terminal values,
    shape (2, n_paths), and phi their per-path-per-step additive perturbation
    processes, shape (2, n_steps, n_paths).
    """
    beta0 = 16.0 * (1.0 + C_L**2)
    grid = pair.grid
    dt = grid.dt
    t = grid.times
    horizon = grid.T - grid.t0

    dY = pair.Y[0] - pair.Y[1]
    dZ = pair.Z[0] - pair.Z[1]
    w = np.exp(beta0 * (t[:-1] - grid.t0))  # left-endpoint weights
    integrand = dY[:-1] ** 2 + np.sum(dZ**2, axis=-1)
    lhs = float(
        (pair.y_at_t0[0] - pair.y_at_t0[1]) ** 2
        + 0.5 * np.mean(np.sum(w[:, None] * integrand, axis=0) * dt)
    )
    xi = np.asarray(xi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    dxi = xi[0] - xi[1]
    dphi = phi[0] - phi[1]
    rhs = float(
        np.mean(dxi**2) * np.exp(beta0 * horizon)
        + np.mean(np.sum(w[:, None] * dphi**2, axis=0) * dt)
    )
    return lhs, rhs, beta0


def comparison_check(pair: BsdeSolution) -> float:
    """The comparison margin: max(Y_low - Y_high) over every node of the
    lockstep pair (low, high).  Comparison holds when it is <= 0, up to the
    Monte Carlo error that the caller allows."""
    low, high = pair.Y
    return float(np.max(low - high))
