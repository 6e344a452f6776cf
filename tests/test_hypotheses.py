import json

import numpy as np
import pytest

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

from conftest import NON_TANGENT, circle_problem


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
