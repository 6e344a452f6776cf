"""Sampled checks of the standing assumptions on the problem data.

Transport-based field conditions (drift field transport-Lipschitz, diffusion
fields transport-parallel), sampled Lipschitz/bound conditions on the driver
and terminal cost, and the sampled structural-modulus diagnostic used as a
uniqueness surrogate.  Everything is a reproducible, seed-pinned spot check,
not a proof.
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


def _scalar(a) -> float:
    """First element of a length-1 driver evaluation as a Python float."""
    return float(np.asarray(a).reshape(-1)[0])


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


def _sample_pairs(m: ManifoldModel, n: int, rng: np.random.Generator, max_frac=0.5):
    """Pairs (x, y) with d(x, y) < max_frac * injectivity radius, plus times."""
    x = m.random_points(n, rng)
    w = rng.standard_normal(size=x.shape)
    w = m.tangent_project(x, w)
    nw = np.linalg.norm(w, axis=-1, keepdims=True)
    nw = np.where(nw < 1e-12, 1.0, nw)
    # Radii bounded away from 0 so difference quotients stay well-scaled.
    r = rng.uniform(0.02, max_frac * m.injectivity_radius * 0.98, size=(n, 1))
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
    if not V.tangency_certified:
        raise ValueError(f"field '{V.id}' lacks a tangency certificate")
    rng_ = np.random.default_rng(seed)
    x, y, t = _sample_pairs(m, n_samples, rng_)
    worst = -1.0
    witness = {}
    for k in range(n_samples):
        moved = m.transport(x[k], y[k], V(t[k], x[k]))
        viol = float(np.linalg.norm(moved - V(t[k], y[k])))
        if viol > worst:
            worst = viol
            witness = {"x": x[k].tolist(), "y": y[k].tolist(), "t": float(t[k])}
    return HypothesisReport(
        name="H2",
        max_violation=worst,
        witness=witness,
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
    rng_ = np.random.default_rng(seed)
    x, y, t = _sample_pairs(m, n_samples, rng_)
    worst = -1.0
    witness = {}
    used = 0
    for k in range(n_samples):
        dist = float(m.distance(x[k], y[k]))
        if dist < 1e-10:
            continue  # degenerate pair, no quotient
        used += 1
        moved = m.transport(x[k], y[k], V0(t[k], x[k]))
        ratio = float(np.linalg.norm(moved - V0(t[k], y[k]))) / dist
        if ratio > worst:
            worst = ratio
            witness = {"x": x[k].tolist(), "y": y[k].tolist(), "t": float(t[k])}
    return HypothesisReport(
        name="H1",
        max_violation=worst,
        witness=witness,
        passed=worst <= mu * (1.0 + 1e-6) + _ABS_EPS,
        samples=used,
        seed=seed,
    )


def check_A1(
    prob: ControlProblem,
    n_samples: int = 1000,
    seed: int = 0,
    slack: float = 1e-9,
) -> HypothesisReport:
    """Sampled joint Lipschitz condition on the driver and terminal cost."""
    m = prob.manifold
    f = prob.driver
    rng_ = np.random.default_rng(seed)
    x, y, t = _sample_pairs(m, n_samples, rng_)
    K = f.lipschitz_K + prob.terminal.lipschitz_K
    lo, up = prob.controls.lower, prob.controls.upper
    worst = -1.0
    witness = {}
    for k in range(n_samples):
        y1, y2 = rng_.uniform(-2, 2, size=2)
        z1 = rng_.uniform(-2, 2, size=(1, prob.d))
        z2 = rng_.uniform(-2, 2, size=(1, prob.d))
        v1 = rng_.uniform(lo, up)[None, :]
        v2 = rng_.uniform(lo, up)[None, :]
        lhs = abs(
            _scalar(f(t[k], x[k][None], np.array([y1]), z1, v1))
            - _scalar(f(t[k], y[k][None], np.array([y2]), z2, v2))
        ) + abs(_scalar(prob.terminal(x[k])) - _scalar(prob.terminal(y[k])))
        bound = K * (
            abs(y1 - y2)
            + float(np.linalg.norm(z1 - z2))
            + float(m.distance(x[k], y[k]))
            + float(np.linalg.norm(v1 - v2))
        )
        excess = lhs - bound
        if excess > worst:
            worst = excess
            witness = {"x": x[k].tolist(), "y": y[k].tolist(), "t": float(t[k])}
    return HypothesisReport(
        name="A1",
        max_violation=max(worst, 0.0),
        witness=witness,
        passed=worst <= slack,
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
    vals = np.array(
        [
            abs(_scalar(f(t[k], x[k][None], np.zeros(1), np.zeros((1, prob.d)), v[k][None])))
            for k in range(n_samples)
        ]
    )
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
    """Pointwise PDE symbol: minus driver minus transport minus half quadratic.

    ``quad[a]`` stands in for the second-order pairing of the (unknown) Hessian
    with diffusion field a; here it is a directional second difference of a
    shared smooth probe, so the two sides of the modulus test stay coupled.
    """
    z = np.array(
        [float(np.dot(zeta, v[a] * prob.fields[a](t, x))) for a in range(1, prob.d + 1)]
    )
    fval = _scalar(
        prob.driver(t, x[None], np.array([r]), z[None, :], np.asarray(v, dtype=float)[None, :])
    )
    out = -fval - float(np.dot(zeta, v[0] * prob.fields[0](t, x)))
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
    ratio against alpha*d^2 + d.
    """
    m = prob.manifold
    rng_ = np.random.default_rng(seed)
    x, y, t = _sample_pairs(m, n_samples, rng_)
    controls = prob.controls.grid()
    worst = -np.inf
    witness = {}
    for k in range(n_samples):
        dist = float(m.distance(x[k], y[k]))
        if dist < 1e-10:
            continue
        r = float(rng_.uniform(-1.0, 1.0))
        log_xy = m.log(x[k], y[k])
        log_yx = m.log(y[k], x[k])
        P = [float(probe.dir2(m, prob.fields[a], t[k], x[k][None])[0]) for a in range(1, prob.d + 1)]
        Q = [float(probe.dir2(m, prob.fields[a], t[k], y[k][None])[0]) for a in range(1, prob.d + 1)]
        for alpha in alpha_list:
            spread = -np.inf
            for v in controls:
                hy = _hamiltonian_symbol(prob, t[k], y[k], r, alpha * log_yx, Q, v)
                hx = _hamiltonian_symbol(prob, t[k], x[k], r, -alpha * log_xy, P, v)
                spread = max(spread, hy - hx)
            ratio = spread / (alpha * dist**2 + dist)
            if ratio > worst:
                worst = ratio
                witness = {
                    "x": x[k].tolist(),
                    "y": y[k].tolist(),
                    "t": float(t[k]),
                    "alpha": float(alpha),
                }
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
