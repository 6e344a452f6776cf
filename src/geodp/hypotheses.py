"""Sampled checks of the standing assumptions on the problem data.

Transport-based field conditions (drift field transport-Lipschitz, diffusion
fields transport-parallel), sampled Lipschitz/bound conditions on the driver
and terminal cost, and the sampled structural-modulus diagnostic used as a
uniqueness surrogate.  Everything is a reproducible, seed-pinned spot check,
not a proof.

Each check draws its whole sample at once and evaluates it with one batched
call per primitive, field and control; the worst sample is the first maximum
in sample order, as a loop over the samples would find it.  Sample times are
passed to fields, drivers and probes as an array, one time per sample.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

import numpy as np

from .geometry import ManifoldModel, VectorField
from .hjb import TestFunctionProbe
from .problem import ControlProblem

# Roundoff guard added to every ratio threshold; exact identities evaluated in
# closed form still carry ~1e-15 noise that a pure relative bound would trip on.
_ABS_EPS = 1e-10


def _norm(a):
    """Norms of the rows of a (..., k): the square root of a BLAS dot product
    per row, which is ``np.linalg.norm`` of each row as a 1-D vector bit for
    bit (a norm along ``axis=-1`` sums the squares in another order)."""
    return np.sqrt(np.vecdot(a, a))


def _first_max(values, initial, keep=True):
    """What the loop ``if v > worst: worst, k = v, i`` finds over ``values``
    in C order, from ``worst = initial`` and skipping entries where ``keep``
    is False: the first maximum and its flat index, or (initial, None) when
    no kept value beats ``initial``.  A NaN never beats it."""
    beats = (values > initial) & keep
    if not beats.any():
        return initial, None
    k = int(np.argmax(np.where(beats, values, initial)))
    return float(values.flat[k]), k


def _witness(x, y, t, k, **extra) -> Dict:
    """The sample pair k as a report witness; empty when k is None."""
    if k is None:
        return {}
    return {"x": x[k].tolist(), "y": y[k].tolist(), "t": float(t[k]), **extra}


@dataclass(frozen=True)
class HypothesisReport:
    name: str  # H1 | H2 | Mod311 | A1 | A2
    max_violation: float
    witness: Dict
    passed: bool
    samples: int
    seed: int

    def to_json(self) -> str:
        payload = asdict(self)
        payload["pass"] = payload.pop("passed")
        return json.dumps(payload, indent=2, default=lambda o: np.asarray(o).tolist())


def _sample_pairs(m: ManifoldModel, n: int, rng: np.random.Generator):
    """Pairs (x, y) with d(x, y) < half the injectivity radius, plus times."""
    x = m.random_points(n, rng)
    w = rng.standard_normal(size=x.shape)
    w = m.tangent_project(x, w)
    nw = np.linalg.norm(w, axis=-1, keepdims=True)
    nw = np.where(nw < 1e-12, 1.0, nw)
    # Radii bounded away from 0 so difference quotients stay well-scaled.
    r = rng.uniform(0.02, 0.5 * m.injectivity_radius * 0.98, size=(n, 1))
    y = m.exp(x, w / nw * r)
    t = rng.uniform(0.0, 1.0, size=n)
    return x, y, t


def check_H2(
    m: ManifoldModel,
    V: VectorField,
    n_samples: int = 1000,
    seed: int = 0,
    threshold: float = 1e-8,
) -> HypothesisReport:
    """Transported field values must agree with the field at the target point."""
    if not V.tangent_to(m):
        raise ValueError(f"field '{V.id}' is not tangent to {m.name}")
    x, y, t = _sample_pairs(m, n_samples, np.random.default_rng(seed))
    worst, k = _first_max(_norm(m.transport(x, y, V(t, x)) - V(t, y)), -1.0)
    return HypothesisReport(
        name="H2",
        max_violation=worst,
        witness=_witness(x, y, t, k),
        passed=worst <= threshold,
        samples=n_samples,
        seed=seed,
    )


def check_H1(
    m: ManifoldModel,
    V0: VectorField,
    mu: float,
    n_samples: int = 1000,
    seed: int = 0,
) -> HypothesisReport:
    """Transport defect of the drift field must be Lipschitz in the distance."""
    x, y, t = _sample_pairs(m, n_samples, np.random.default_rng(seed))
    dist = m.distance(x, y)
    keep = dist >= 1e-10  # degenerate pairs have no quotient
    defect = _norm(m.transport(x, y, V0(t, x)) - V0(t, y))
    worst, k = _first_max(defect / np.where(keep, dist, 1.0), -1.0, keep)
    return HypothesisReport(
        name="H1",
        max_violation=worst,
        witness=_witness(x, y, t, k),
        passed=worst <= mu * (1.0 + 1e-6) + _ABS_EPS,
        samples=int(keep.sum()),
        seed=seed,
    )


def check_A1(
    prob: ControlProblem,
    n_samples: int = 1000,
    seed: int = 0,
) -> HypothesisReport:
    """Sampled joint Lipschitz condition on the driver and terminal cost."""
    m = prob.manifold
    f = prob.driver
    d = prob.d
    rng_ = np.random.default_rng(seed)
    x, y, t = _sample_pairs(m, n_samples, rng_)
    # Per sample, uniform draws of y1, y2 and z1, z2 (d each) in [-2, 2] and
    # of v1, v2 in the control box, in that order: one block of the stream.
    lo, up = prob.controls.lower, prob.controls.upper
    low = np.concatenate([np.full(2 + 2 * d, -2.0), lo, lo])
    high = np.concatenate([np.full(2 + 2 * d, 2.0), up, up])
    u = low + (high - low) * rng_.random((n_samples, 4 * d + 4))
    y1, y2 = u[:, 0], u[:, 1]
    z1, z2, v1, v2 = np.split(u[:, 2:], np.cumsum([d, d, d + 1]), axis=1)
    K = f.lipschitz_K + prob.terminal.lipschitz_K
    lhs = np.abs(f(t, x, y1, z1, v1) - f(t, y, y2, z2, v2)) + np.abs(
        prob.terminal(x) - prob.terminal(y)
    )
    bound = K * (np.abs(y1 - y2) + _norm(z1 - z2) + m.distance(x, y) + _norm(v1 - v2))
    worst, k = _first_max(lhs - bound, -1.0)
    return HypothesisReport(
        name="A1",
        max_violation=max(worst, 0.0),
        witness=_witness(x, y, t, k),
        passed=worst <= 1e-9,
        samples=n_samples,
        seed=seed,
    )


def check_A2(
    prob: ControlProblem,
    n_samples: int = 1000,
    seed: int = 0,
) -> HypothesisReport:
    """Sampled bound |f(t, x, 0, 0, v)| <= K0."""
    m = prob.manifold
    f = prob.driver
    rng_ = np.random.default_rng(seed)
    x = m.random_points(n_samples, rng_)
    t = rng_.uniform(0.0, 1.0, size=n_samples)
    v = rng_.uniform(prob.controls.lower, prob.controls.upper, size=(n_samples, prob.controls.dim))
    vals = np.abs(f(t, x, np.zeros(n_samples), np.zeros((n_samples, prob.d)), v))
    worst = float(np.max(vals) - f.bound_K0)
    k = int(np.argmax(vals))
    return HypothesisReport(
        name="A2",
        max_violation=max(worst, 0.0),
        witness={"x": x[k].tolist(), "t": float(t[k]), "v": v[k].tolist()},
        passed=worst <= 1e-9,
        samples=n_samples,
        seed=seed,
    )


def _hamiltonian_symbol(prob, t, x, r, zeta, quad, v):
    """PDE symbol at the points x (N, n) under one control v: minus driver
    minus transport minus half quadratic.

    ``quad[a - 1]`` (N,) stands in for the second-order pairing of the
    (unknown) Hessian with diffusion field a; here it is a directional second
    difference of a shared smooth probe, so the two sides of the modulus test
    stay coupled.
    """
    z = np.empty((len(r), prob.d))
    for a in range(1, prob.d + 1):
        z[:, a - 1] = np.vecdot(zeta, v[a] * prob.fields[a](t, x))
    fval = prob.driver(t, x, r, z, np.broadcast_to(v, (len(r), len(v))))
    out = -fval - np.vecdot(zeta, v[0] * prob.fields[0](t, x))
    for a in range(1, prob.d + 1):
        out -= 0.5 * v[a] ** 2 * quad[a - 1]
    return out


def sample_structural_modulus(
    prob: ControlProblem,
    probe: TestFunctionProbe,
    alpha_list: Sequence[float],
    n_samples: int = 1000,
    seed: int = 0,
    C_bar: float = 10.0,
) -> HypothesisReport:
    """Sampled comparison-structure diagnostic.

    For point pairs (x, y) and doubling parameters alpha, evaluates the spread
    of the PDE symbol between the two points with opposed first-order
    arguments and probe-derived second-order surrogates, and reports the worst
    ratio against alpha*d^2 + d.  The witness is the first worst (pair,
    alpha) in sample order, alpha varying fastest.
    """
    m = prob.manifold
    rng_ = np.random.default_rng(seed)
    x, y, t = _sample_pairs(m, n_samples, rng_)
    dist = m.distance(x, y)
    keep = dist >= 1e-10  # degenerate pairs have no ratio and draw no r
    x, y, t, dist = x[keep], y[keep], t[keep], dist[keep]
    r = rng_.uniform(-1.0, 1.0, size=len(dist))
    log_xy, log_yx = m.log(x, y), m.log(y, x)
    P = [probe.dir2(m, V, t, x) for V in prob.fields[1:]]
    Q = [probe.dir2(m, V, t, y) for V in prob.fields[1:]]
    # libm pow, as a float's ** takes it; dist * dist rounds differently on
    # about one sample in a thousand.
    dist2 = np.float_power(dist, 2)
    ratios = []
    for alpha in alpha_list:
        spread = np.full(len(dist), -np.inf)
        for v in prob.controls.grid():
            hy = _hamiltonian_symbol(prob, t, y, r, alpha * log_yx, Q, v)
            hx = _hamiltonian_symbol(prob, t, x, r, -alpha * log_xy, P, v)
            gap = hy - hx
            spread = np.where(gap > spread, gap, spread)  # max(spread, gap): ties keep spread
        ratios.append(spread / (alpha * dist2 + dist))
    worst, k = _first_max(np.array(ratios).T, -np.inf)  # (pair, alpha), alpha fastest
    witness = {}
    if k is not None:
        i, j = divmod(k, len(ratios))
        witness = _witness(x, y, t, i, alpha=float(alpha_list[j]))
    return HypothesisReport(
        name="Mod311",
        max_violation=float(worst),
        witness=witness,
        passed=worst <= C_bar,
        samples=n_samples,
        seed=seed,
    )


def uniqueness_certified(
    prob: ControlProblem,
    mu: float,
    n_samples: int = 1000,
    seed: int = 0,
    h2_threshold: float = 1e-8,
) -> List[HypothesisReport]:
    """All hypothesis reports a configuration must pass to be flagged
    uniqueness-certified: A1, A2, H1 for the drift field, H2 per diffusion field
    (each with transport defect at most ``h2_threshold``)."""
    reports = [
        check_A1(prob, n_samples, seed),
        check_A2(prob, n_samples, seed),
        check_H1(prob.manifold, prob.fields[0], mu, n_samples, seed),
    ]
    for a, V in enumerate(prob.fields[1:], start=1):
        reports.append(check_H2(prob.manifold, V, n_samples, seed + a, h2_threshold))
    return reports
