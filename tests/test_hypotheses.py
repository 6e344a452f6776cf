import json

import numpy as np
import pytest

from geodp import hypotheses
from geodp.catalog import get_driver, get_terminal
from geodp.dynamics import ControlSet
from geodp.geometry import Circle, Sphere2, get_field, get_manifold
from geodp.hjb import TestFunctionProbe
from geodp.hypotheses import (
    HypothesisReport,
    check_A1,
    check_A2,
    check_H1,
    check_H2,
    sample_structural_modulus,
    uniqueness_certified,
)
from geodp.problem import ControlProblem

from conftest import CATALOG, NON_TANGENT, circle_problem


def test_h2_passes_circle_rotation():
    rep = check_H2(Circle(), get_field(Circle(), "rot"), n_samples=500, seed=1)
    assert rep.passed
    assert rep.max_violation <= 1e-10


def test_h2_fails_sphere_rotation():
    """e3 x x is Killing but not transport-parallel on the sphere."""
    rep = check_H2(Sphere2(), get_field(Sphere2(), "rot_z"), n_samples=500, seed=1)
    assert not rep.passed
    assert rep.max_violation > 1e-3
    assert "x" in rep.witness and "y" in rep.witness


def test_h2_requires_tangency_certificate():
    """H2 is defined for tangent fields only: the exact tangency check rejects a
    non-skew matrix and a torus matrix coupling the two factors."""
    for name, bad in NON_TANGENT:
        with pytest.raises(ValueError, match=bad.id):
            check_H2(get_manifold(name), bad)


def test_h1_parallel_field_mu_zero():
    rep = check_H1(Circle(), get_field(Circle(), "rot"), mu=0.0, n_samples=500, seed=2)
    assert rep.passed


def test_h1_respects_given_modulus():
    """A non-parallel drift on the sphere passes with a large mu and fails
    with one below its actual transport-Lipschitz constant."""
    m = Sphere2()
    V = get_field(m, "rot_z")
    ok = check_H1(m, V, mu=2.0, n_samples=500, seed=3)
    assert ok.passed
    bad = check_H1(m, V, mu=0.01, n_samples=500, seed=3)
    assert not bad.passed


def test_h1_h2_symmetric_in_seed():
    rep_a = check_H2(Circle(), get_field(Circle(), "rot"), n_samples=100, seed=5)
    rep_b = check_H2(Circle(), get_field(Circle(), "rot"), n_samples=100, seed=5)
    assert rep_a == rep_b


def test_a1_a2_on_catalog_driver():
    prob = circle_problem(driver_id="smooth")
    assert check_A1(prob, n_samples=400, seed=4).passed
    assert check_A2(prob, n_samples=400, seed=4).passed


def test_a2_detects_unbounded_driver():
    from geodp.bsde import Driver
    from geodp.problem import ControlProblem

    base = circle_problem()
    lying = Driver(f=lambda t, x, y, z, v: np.full_like(y, 5.0), lipschitz_K=0.0, bound_K0=1.0)
    prob = ControlProblem(
        manifold=base.manifold, fields=base.fields, driver=lying,
        terminal=base.terminal, controls=base.controls,
    )
    rep = check_A2(prob, n_samples=100, seed=0)
    assert not rep.passed
    assert rep.max_violation == pytest.approx(4.0)


def test_structural_modulus_bounded_on_suite():
    prob = circle_problem()
    probe = TestFunctionProbe(value=lambda t, x: np.asarray(x, dtype=float)[..., 0])
    rep = sample_structural_modulus(prob, probe, alpha_list=[1.0, 10.0], n_samples=200, seed=6)
    assert rep.name == "Mod311"
    assert rep.passed
    assert rep.max_violation <= 10.0


def test_report_json_round_trip():
    rep = check_H2(Circle(), get_field(Circle(), "rot"), n_samples=50, seed=7)
    payload = json.loads(rep.to_json())
    assert payload["name"] == "H2"
    assert payload["pass"] is True
    assert payload["samples"] == 50
    assert payload["seed"] == 7
    assert isinstance(payload["max_violation"], float)


def test_uniqueness_certified_bundle():
    prob = circle_problem(driver_id="smooth")
    reports = uniqueness_certified(prob, mu=0.0, n_samples=300, seed=8)
    names = [r.name for r in reports]
    assert names == ["A1", "A2", "H1", "H2"]
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# The batched checks against the per-sample loops they replaced.  The loops
# below are the former implementations, kept as references: each batched
# report must equal its loop's field for field, bit for bit.
# ---------------------------------------------------------------------------


def _scalar(a) -> float:
    return float(np.asarray(a).reshape(-1)[0])


def _loop_H2(m, V, n_samples, seed, threshold=1e-8):
    rng_ = np.random.default_rng(seed)
    x, y, t = hypotheses._sample_pairs(m, n_samples, rng_)
    worst = -1.0
    witness = {}
    for k in range(n_samples):
        moved = m.transport(x[k], y[k], V(t[k], x[k]))
        viol = float(np.linalg.norm(moved - V(t[k], y[k])))
        if viol > worst:
            worst = viol
            witness = {"x": x[k].tolist(), "y": y[k].tolist(), "t": float(t[k])}
    return HypothesisReport("H2", worst, witness, worst <= threshold, n_samples, seed)


def _loop_H1(m, V0, mu, n_samples, seed):
    rng_ = np.random.default_rng(seed)
    x, y, t = hypotheses._sample_pairs(m, n_samples, rng_)
    worst = -1.0
    witness = {}
    used = 0
    for k in range(n_samples):
        dist = float(m.distance(x[k], y[k]))
        if dist < 1e-10:
            continue
        used += 1
        moved = m.transport(x[k], y[k], V0(t[k], x[k]))
        ratio = float(np.linalg.norm(moved - V0(t[k], y[k]))) / dist
        if ratio > worst:
            worst = ratio
            witness = {"x": x[k].tolist(), "y": y[k].tolist(), "t": float(t[k])}
    passed = worst <= mu * (1.0 + 1e-6) + 1e-10
    return HypothesisReport("H1", worst, witness, passed, used, seed)


def _loop_A1(prob, n_samples, seed, slack=1e-9):
    m = prob.manifold
    f = prob.driver
    rng_ = np.random.default_rng(seed)
    x, y, t = hypotheses._sample_pairs(m, n_samples, rng_)
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
    return HypothesisReport("A1", max(worst, 0.0), witness, worst <= slack, n_samples, seed)


def _loop_A2(prob, n_samples, seed):
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
    witness = {"x": x[k].tolist(), "t": float(t[k]), "v": v[k].tolist()}
    return HypothesisReport("A2", max(worst, 0.0), witness, worst <= 1e-9, n_samples, seed)


def _loop_symbol(prob, t, x, r, zeta, quad, v):
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


def _loop_modulus(prob, probe, alpha_list, n_samples, seed, C_bar=10.0):
    m = prob.manifold
    rng_ = np.random.default_rng(seed)
    x, y, t = hypotheses._sample_pairs(m, n_samples, rng_)
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
                hy = _loop_symbol(prob, t[k], y[k], r, alpha * log_yx, Q, v)
                hx = _loop_symbol(prob, t[k], x[k], r, -alpha * log_xy, P, v)
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
    return HypothesisReport("Mod311", float(worst), witness, worst <= C_bar, n_samples, seed)


def _assert_same(batched, loop):
    for name in ("name", "max_violation", "witness", "samples", "passed", "seed"):
        assert getattr(batched, name) == getattr(loop, name), name
    assert batched.to_json() == loop.to_json()


_PROBE = TestFunctionProbe(value=lambda t, x: np.asarray(x, dtype=float)[..., 0])


def _problem(manifold, fields, driver, lower, upper, points=1, terminal_index=0):
    m = get_manifold(manifold)
    driver_id, driver_params = driver
    return ControlProblem(
        manifold=m,
        fields=[get_field(m, fid) for fid in fields],
        driver=get_driver(driver_id, driver_params),
        terminal=get_terminal("coord", {"index": terminal_index, "scale": 1.5}),
        controls=ControlSet(np.array(lower, float), np.array(upper, float), points),
    )


# Problems for A1, A2 and the modulus: the default circle, a 2-control circle
# with the smooth driver, a drifting circle with lower < upper on both axes,
# the sphere and the torus (a const_angle drift), and d = 0.
PROBLEMS = {
    "circle-default": _problem("circle", ["zero", "rot"], ("zero", None), [0, 1], [0, 1]),
    "circle-2-controls": _problem(
        "circle", ["zero", "rot"], ("smooth", None), [0, 0.5], [0, 1], points=2
    ),
    "circle-drift": _problem(
        "circle", ["scale:0.5:rot", "rot"], ("smooth", {"c": 0.7, "b": 0.5, "beta": 0.3}),
        [0.2, 0.5], [1.0, 1.0], points=3,
    ),
    "sphere2": _problem(
        "sphere2", ["rot_z", "rot_x", "rot_y"], ("smooth", None), [1, 0.5, 1], [1, 1, 1],
        points=2, terminal_index=2,
    ),
    "torus2": _problem(
        "torus2", ["const_angle:0.3", "rot1", "rot2"], ("linear_y", {"beta": 0.5, "c": 0.2}),
        [0.5, 0.5, 1.0], [1.0, 1.0, 1.0], points=2, terminal_index=3,
    ),
    "d0": _problem("circle", ["zero"], ("constant", {"c": 0.4}), [0.0], [1.0], points=2),
}

_CATALOG_FIELDS = [(name, fid) for name, ids in CATALOG.items() for fid in ids]


@pytest.mark.parametrize("manifold, fid", _CATALOG_FIELDS)
def test_batched_h1_h2_equal_the_loops_on_every_catalog_field(manifold, fid):
    m = get_manifold(manifold)
    V = get_field(m, fid)
    _assert_same(check_H2(m, V, n_samples=300, seed=11), _loop_H2(m, V, 300, 11))
    _assert_same(check_H1(m, V, 0.5, n_samples=300, seed=12), _loop_H1(m, V, 0.5, 300, 12))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_batched_a1_a2_equal_the_loops(name):
    prob = PROBLEMS[name]
    for seed in (3, 4):
        _assert_same(check_A1(prob, n_samples=300, seed=seed), _loop_A1(prob, 300, seed))
        _assert_same(check_A2(prob, n_samples=300, seed=seed), _loop_A2(prob, 300, seed))


def test_batched_a1_keeps_the_initial_worst_when_no_sample_beats_it():
    """A Lipschitz constant far above the driver's leaves every excess below
    -1: the loop then reports no witness and 0.0, and so must the batch."""
    from geodp.bsde import Driver

    base = PROBLEMS["circle-default"]
    slack = Driver(f=base.driver.f, lipschitz_K=10.0, bound_K0=0.0)
    prob = ControlProblem(base.manifold, base.fields, slack, base.terminal, base.controls)
    rep = check_A1(prob, n_samples=200, seed=5)
    _assert_same(rep, _loop_A1(prob, 200, 5))
    assert rep.witness == {} and rep.max_violation == 0.0 and rep.passed


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_batched_modulus_equals_the_loop(name):
    prob = PROBLEMS[name]
    rep = sample_structural_modulus(prob, _PROBE, [1.0, 10.0], n_samples=120, seed=6)
    _assert_same(rep, _loop_modulus(prob, _PROBE, [1.0, 10.0], 120, 6))
    assert set(rep.witness) == {"x", "y", "t", "alpha"}


def test_degenerate_pairs_are_skipped_as_in_the_loops(monkeypatch):
    """A near-zero tangent draw can give y = x; such pairs count in no
    quotient and, in the modulus, draw no r."""
    sample_pairs = hypotheses._sample_pairs

    def with_degenerate_pairs(m, n, rng):
        x, y, t = sample_pairs(m, n, rng)
        y[::7] = x[::7]
        return x, y, t

    monkeypatch.setattr(hypotheses, "_sample_pairs", with_degenerate_pairs)
    for name in ("sphere2", "circle-drift"):
        prob = PROBLEMS[name]
        V0 = prob.fields[0]
        rep = check_H1(prob.manifold, V0, 2.0, n_samples=140, seed=9)
        _assert_same(rep, _loop_H1(prob.manifold, V0, 2.0, 140, 9))
        assert rep.samples == 120
        _assert_same(
            sample_structural_modulus(prob, _PROBE, [1.0, 10.0], n_samples=70, seed=9),
            _loop_modulus(prob, _PROBE, [1.0, 10.0], 70, 9),
        )


def test_all_degenerate_pairs_report_no_witness(monkeypatch):
    def same_point(m, n, rng):
        x = m.random_points(n, rng)
        return x, x.copy(), rng.uniform(0.0, 1.0, size=n)

    monkeypatch.setattr(hypotheses, "_sample_pairs", same_point)
    prob = PROBLEMS["circle-default"]
    h1 = check_H1(prob.manifold, prob.fields[0], 0.0, n_samples=20, seed=1)
    _assert_same(h1, _loop_H1(prob.manifold, prob.fields[0], 0.0, 20, 1))
    assert h1.samples == 0 and h1.witness == {} and h1.max_violation == -1.0
    mod = sample_structural_modulus(prob, _PROBE, [1.0], n_samples=20, seed=1)
    _assert_same(mod, _loop_modulus(prob, _PROBE, [1.0], 20, 1))
    assert mod.witness == {} and mod.max_violation == -np.inf


def test_first_max_is_the_loops_strict_first_maximum():
    first_max = hypotheses._first_max
    assert first_max(np.array([0.5, 2.0, 2.0, 1.0]), -1.0) == (2.0, 1)
    assert first_max(np.array([np.nan, 0.5, np.nan]), -1.0) == (0.5, 1)
    assert first_max(np.array([-3.0, -1.0]), -1.0) == (-1.0, None)
    assert first_max(np.array([3.0, 1.0]), -1.0, np.array([False, True])) == (1.0, 1)
    assert first_max(np.zeros((0, 2)), -np.inf) == (-np.inf, None)


def test_norm_is_the_per_row_vector_norm_bit_for_bit():
    a = np.random.default_rng(0).standard_normal((3000, 4)) * 3.0
    for k in (1, 2, 3, 4):
        rows = np.ascontiguousarray(a[:, :k])
        np.testing.assert_array_equal(
            hypotheses._norm(rows), [np.linalg.norm(r) for r in rows]
        )


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_batched_symbol_equals_the_pointwise_one(name):
    prob = PROBLEMS[name]
    m = prob.manifold
    rng_ = np.random.default_rng(2)
    x, y, t = hypotheses._sample_pairs(m, 200, rng_)
    r = rng_.uniform(-1.0, 1.0, size=200)
    zeta = 3.0 * m.log(x, y)
    quad = [_PROBE.dir2(m, V, t, x) for V in prob.fields[1:]]
    for v in prob.controls.grid():
        got = hypotheses._hamiltonian_symbol(prob, t, x, r, zeta, quad, v)
        want = [
            _loop_symbol(prob, t[k], x[k], r[k], zeta[k], [q[k] for q in quad], v)
            for k in range(200)
        ]
        np.testing.assert_array_equal(got, want)


def test_modulus_squares_distances_as_the_loop_did(monkeypatch):
    """The loop squared each distance with a float's ** (libm pow), which on
    some distances rounds differently from d * d.  On pairs chosen among
    those, the worst ratio shows the difference unless the batch squares the
    same way."""
    prob = PROBLEMS["circle-2-controls"]
    m = prob.manifold
    x, y, t = hypotheses._sample_pairs(m, 100000, np.random.default_rng(0))
    dist = m.distance(x, y).tolist()
    pick = np.array([10.0 * d**2 + d != 10.0 * (d * d) + d for d in dist])
    assert pick.sum() >= 20
    monkeypatch.setattr(
        hypotheses, "_sample_pairs", lambda m, n, rng: (x[pick], y[pick], t[pick])
    )
    n = int(pick.sum())
    for seed in range(5):
        rep = sample_structural_modulus(prob, _PROBE, [10.0], n_samples=n, seed=seed)
        _assert_same(rep, _loop_modulus(prob, _PROBE, [10.0], n, seed))
