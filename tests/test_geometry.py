import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geodp.errors import CutLocus, SingularProjection
from geodp.geometry import (
    Circle,
    FlatTorus2,
    Sphere2,
    VectorField,
    flow_step,
    get_field,
    get_manifold,
)

from conftest import CATALOG, NON_TANGENT

MANIFOLDS = [Circle(), Sphere2(), FlatTorus2()]



def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_tangent(m, x, rng, scale=1.0):
    w = m.tangent_project(x, rng.standard_normal(size=x.shape))
    n = np.linalg.norm(w, axis=-1, keepdims=True)
    n = np.where(n < 1e-12, 1.0, n)
    return w / n * scale


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_projection_idempotent_and_on_manifold(m):
    rng = _rng(1)
    p = rng.standard_normal(size=(200, m.ambient_dim)) * 2.0 + 0.5
    q = m.project(p)
    assert np.max(m.constraint_violation(q)) < 1e-12
    np.testing.assert_allclose(m.project(q), q, atol=1e-14)


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_tangent_projection_kills_normal_component(m):
    rng = _rng(2)
    x = m.random_points(100, rng)
    w = rng.standard_normal(size=x.shape)
    tw = m.tangent_project(x, w)
    assert np.max(m.tangency_defect(x, tw)) < 1e-12
    # idempotent
    np.testing.assert_allclose(m.tangent_project(x, tw), tw, atol=1e-13)


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), r=st.floats(1e-3, 3.0))
def test_exp_log_roundtrip(m, seed, r):
    rng = _rng(seed)
    r = min(r, m.injectivity_radius * 0.95)
    x = m.random_points(1, rng)[0]
    v = _random_tangent(m, x, rng, scale=r)
    y = m.exp(x, v)
    assert m.constraint_violation(y) < 1e-12
    back = m.log(x, y)
    np.testing.assert_allclose(back, v, atol=1e-9)
    assert abs(m.distance(x, y) - np.linalg.norm(v)) < 1e-9


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_transport_isometry_and_inverse(m, seed):
    rng = _rng(seed)
    x, y = m.random_points(2, rng)
    if m.distance(x, y) >= m.injectivity_radius - 1e-6:
        return
    v = _random_tangent(m, x, rng, scale=rng.uniform(0.1, 2.0))
    moved = m.transport(x, y, v)
    assert m.tangency_defect(y, moved) < 1e-10
    assert abs(np.linalg.norm(moved) - np.linalg.norm(v)) < 1e-10
    np.testing.assert_allclose(m.transport(y, x, moved), v, atol=1e-9)


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_triangle_inequality(m):
    rng = _rng(5)
    x = m.random_points(200, rng)
    y = m.random_points(200, rng)
    z = m.random_points(200, rng)
    # arccos near 1 carries ~sqrt(eps) roundoff, hence the 1e-7 slack
    assert np.all(m.distance(x, z) <= m.distance(x, y) + m.distance(y, z) + 1e-7)
    assert np.all(m.distance(x, y) >= 0.0)
    assert np.max(m.distance(x, x)) < 1e-7


def test_cut_locus_guard_circle():
    m = Circle()
    x = np.array([1.0, 0.0])
    y = -x  # antipodal
    with pytest.raises(CutLocus):
        m.log(x, y)
    with pytest.raises(CutLocus):
        m.transport(x, y, np.array([0.0, 1.0]))


def test_cut_locus_guard_torus_tests_each_factor_angle():
    """On the torus the geodesic is unique while every factor angle is below
    pi, even when the product distance exceeds pi."""
    m = FlatTorus2()
    x = np.array([1.0, 0.0, 1.0, 0.0])
    y = np.array([np.cos(3.0), np.sin(3.0), np.cos(1.5), np.sin(1.5)])
    assert m.distance(x, y) > np.pi
    v = m.log(x, y)
    np.testing.assert_allclose(v, [0.0, 3.0, 0.0, 1.5], atol=1e-12)
    np.testing.assert_allclose(m.exp(x, v), y, atol=1e-12)
    m.transport(x, y, np.array([0.0, 1.0, 0.0, 0.0]))
    antipodal_factor = np.array([-1.0, 0.0, np.cos(0.1), np.sin(0.1)])
    with pytest.raises(CutLocus):
        m.log(x, antipodal_factor)
    with pytest.raises(CutLocus):
        m.transport(x, antipodal_factor, np.array([0.0, 1.0, 0.0, 0.0]))


def test_singular_projection():
    with pytest.raises(SingularProjection):
        Circle().project(np.zeros(2))
    with pytest.raises(SingularProjection):
        Sphere2().project(np.array([1e-12, 0.0, 0.0]))


@pytest.mark.parametrize("name", ["circle", "sphere2", "torus2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_projection_rejects_non_finite_norms(name, bad):
    """Every catalog projection goes through the norm guard, which also
    rejects NaN and overflowing norms, in any factor and any row."""
    m = get_manifold(name)
    p = np.ones((3, m.ambient_dim))
    p[1, -1] = bad
    with pytest.raises(SingularProjection, match="non-finite"), np.errstate(over="ignore"):
        m.project(p)


def test_sphere_transport_around_equator():
    """Transport along a quarter of the equator rotates the frame consistently:
    the tangent 'east' direction maps to 'east' at the target, 'north' stays
    'north' (closed-form holonomy of the round sphere along a geodesic)."""
    m = Sphere2()
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    east = np.array([0.0, 1.0, 0.0])  # tangent at x along the equator
    north = np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(m.transport(x, y, east), np.array([-1.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(m.transport(x, y, north), north, atol=1e-12)


@pytest.mark.parametrize("a", [1e-12, 1e-8, 1e-6, 1e-3, np.pi - 1e-6])
def test_log_and_distance_are_accurate_at_small_and_near_pi_angles(a):
    """The angle comes from arctan2(sine, cosine): arccos of the cosine
    returned 0 at a = 1e-8 and a relative error of 4e-5 at a = 1e-6."""
    m = get_manifold("circle")
    x, y = np.array([1.0, 0.0]), np.array([np.cos(a), np.sin(a)])
    np.testing.assert_allclose(m.distance(x, y), a, rtol=1e-12)
    np.testing.assert_allclose(m.log(x, y), [0.0, a], rtol=1e-12, atol=1e-15 * a)
    s = get_manifold("sphere2")
    xs, ys = np.array([0.0, 0.0, 1.0]), np.array([np.sin(a), 0.0, np.cos(a)])
    np.testing.assert_allclose(s.distance(xs, ys), a, rtol=1e-12)
    np.testing.assert_allclose(s.log(xs, ys), [a, 0.0, 0.0], rtol=1e-12, atol=1e-15 * a)


def test_torus_distance_is_product_metric():
    m = FlatTorus2()
    a, b = 0.7, 1.1
    x = np.array([1.0, 0.0, 1.0, 0.0])
    y = np.array([np.cos(a), np.sin(a), np.cos(b), np.sin(b)])
    assert abs(m.distance(x, y) - np.hypot(a, b)) < 1e-12


def _central_difference(V, x, w, h=1e-5):
    """Reference ambient directional derivative (D_w V)(x) by central differences."""
    return (V(x + h * w) - V(x - h * w)) / (2.0 * h)


def test_ambient_derivative_jacobian_vs_fd():
    """For every catalog field, (x A^T) A^T, the ambient derivative of V along
    itself that the Euler step uses, matches central differences."""
    rng = _rng(3)
    for m in MANIFOLDS:
        x = m.random_points(50, rng)
        for fid in CATALOG[m.name]:
            V = get_field(m, fid)
            exact = V(x) @ V.A.T
            np.testing.assert_allclose(
                _central_difference(V, x, V(x)), exact, atol=1e-8, err_msg=f"{m.name}:{fid}"
            )
    # rot(rot(x)) = -x: the covariant correction points inward
    m = Circle()
    x = m.random_points(50, rng)
    rot = get_field(m, "rot")
    np.testing.assert_allclose(rot(x) @ rot.A.T, -x, atol=1e-12)


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_catalog_fields_pass_the_exact_tangency_check(m):
    """Every catalog id is accepted by the structural check, and its values are
    tangent at sampled points."""
    x = m.random_points(200, _rng(4))
    for fid in CATALOG[m.name]:
        V = get_field(m, fid)
        assert V.tangent_to(m), fid
        assert np.max(m.tangency_defect(x, V(x))) < 1e-12, fid


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_catalog_field_squares_are_diagonal(m):
    """A A is diagonal for every catalog id, so the heat mean under any mix of
    catalog fields decays coordinate by coordinate: the precondition of the
    closed form that oracle-circle and convergence-table compare against."""
    for fid in CATALOG[m.name]:
        A = get_field(m, fid).A
        sq = A @ A
        assert np.array_equal(sq, np.diag(np.diag(sq))), fid


def test_tangency_check_rejects_non_skew_and_coupling_matrices():
    for name, V in NON_TANGENT:
        assert not V.tangent_to(get_manifold(name)), V.id
    # a field of another manifold's dimension
    assert not get_field(Sphere2(), "rot_z").tangent_to(Circle())


def test_flow_step_circle_rotation():
    m = Circle()
    V = get_field(m, "rot")
    x = np.array([1.0, 0.0])
    h = 0.05
    y = flow_step(m, V, x, h)
    np.testing.assert_allclose(y, [np.cos(h), np.sin(h)], atol=1e-10)
    # large parameters are split into substeps, staying accurate
    y2 = flow_step(m, V, x, 1.0)
    np.testing.assert_allclose(y2, [np.cos(1.0), np.sin(1.0)], atol=1e-6)
    # zero step is the identity
    np.testing.assert_allclose(flow_step(m, V, x, 0.0), x)


def test_field_catalog():
    m = Circle()
    rot = get_field(m, "rot")
    x = np.array([[0.0, 1.0]])
    np.testing.assert_allclose(rot(x), [[-1.0, 0.0]])
    half = get_field(m, "scale:0.5:rot")
    np.testing.assert_allclose(half(x), [[-0.5, 0.0]])
    z = get_field(m, "zero")
    np.testing.assert_allclose(z(x), [[0.0, 0.0]])
    with pytest.raises(KeyError):
        get_field(m, "rot_z")  # sphere-only id
    s = get_manifold("sphere2")
    rz = get_field(s, "rot_z")
    np.testing.assert_allclose(rz(np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0])
    t = get_manifold("torus2")
    r1 = get_field(t, "rot1")
    np.testing.assert_allclose(
        r1(np.array([1.0, 0.0, 1.0, 0.0])), [0.0, 1.0, 0.0, 0.0]
    )
    # scale:<c>:<id> is c times the matrix; fields own a read-only copy of it
    assert [f.name for f in dataclasses.fields(VectorField)] == ["id", "A"]
    np.testing.assert_array_equal(half.A, 0.5 * rot.A)


@pytest.mark.parametrize(
    "name, fid",
    [
        ("circle", "scale:abc:rot"),
        ("circle", "scale:0.5"),
        ("circle", "scale:nan:rot"),
        ("circle", "scale:inf:rot"),
        ("torus2", "const_angle:x"),
        ("torus2", "const_angle:-inf"),
    ],
)
def test_malformed_field_ids_raise_value_error(name, fid):
    with pytest.raises(ValueError, match="field"):
        get_field(get_manifold(name), fid)


def test_get_manifold_unknown():
    with pytest.raises(KeyError):
        get_manifold("klein_bottle")


# ---------------------------------------------------------------------------
# The former per-class formulas, kept as references for the per-factor ones
# ---------------------------------------------------------------------------


def _ref_rot90(p):
    return np.stack([-p[..., 1], p[..., 0]], axis=-1)


def _ref_circle_chart(x):
    return np.arctan2(x[..., 1], x[..., 0])[..., None]


def _ref_sphere_chart(x):
    lat = np.arcsin(np.clip(x[..., 2], -1.0, 1.0))
    lon = np.arctan2(x[..., 1], x[..., 0])
    return np.stack([lat, lon], axis=-1)


def _ref_torus_chart(x):
    t1 = np.arctan2(x[..., 1], x[..., 0])
    t2 = np.arctan2(x[..., 3], x[..., 2])
    return np.stack([t1, t2], axis=-1)


def _ref_sphere_tangent(x, w):
    return w - np.sum(w * x, axis=-1, keepdims=True) * x


def _ref_torus_tangent(x, w):
    ta = _ref_sphere_tangent(x[..., 0:2], w[..., 0:2])
    tb = _ref_sphere_tangent(x[..., 2:4], w[..., 2:4])
    return np.concatenate([ta, tb], axis=-1)


def _ref_circle_exp(x, v):
    a = np.sum(v * _ref_rot90(x), axis=-1, keepdims=True)
    return np.cos(a) * x + np.sin(a) * _ref_rot90(x)


def _ref_sphere_exp(x, v):
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    small = nv < 1e-300
    out = np.cos(nv) * x + np.sin(nv) * (v / np.where(small, 1.0, nv))
    return np.where(small, x, out)


def _ref_torus_exp(x, v):
    return np.concatenate(
        [_ref_circle_exp(x[..., 0:2], v[..., 0:2]), _ref_circle_exp(x[..., 2:4], v[..., 2:4])],
        axis=-1,
    )


REFERENCES = {
    "circle": (_ref_circle_chart, _ref_sphere_tangent, _ref_circle_exp),
    "sphere2": (_ref_sphere_chart, _ref_sphere_tangent, _ref_sphere_exp),
    "torus2": (_ref_torus_chart, _ref_torus_tangent, _ref_torus_exp),
}


def _special_points(m):
    """Signed zeros, seams and poles of the charts, plus the first mesh node."""
    if m.name == "sphere2":
        return np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, 1.0],
                         [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0], [1e-17, -1e-17, -1.0]])
    pair = np.array([[1.0, 0.0], [-1.0, 0.0], [-1.0, -0.0], [0.0, -1.0], [-0.0, 1.0]])
    if m.name == "circle":
        return pair
    return np.concatenate([np.repeat(pair, 5, axis=0), np.tile(pair, (5, 1))], axis=-1)


@pytest.mark.parametrize("m", MANIFOLDS, ids=lambda m: m.name)
def test_chart_and_tangent_projection_equal_the_former_formulas(m):
    ref_chart, ref_tangent, _ = REFERENCES[m.name]
    rng = _rng(8)
    x = np.concatenate([_special_points(m), m.random_points(300, rng)])
    assert np.array_equal(m.chart(x), ref_chart(x))
    stacked = x[:300].reshape(30, 10, 1, m.ambient_dim)
    assert np.array_equal(m.chart(stacked), ref_chart(stacked))
    w = rng.standard_normal(x.shape)
    assert np.array_equal(m.tangent_project(x, w), ref_tangent(x, w))
    # one point against a batch of vectors, as harness._pair_direction uses it
    eye = np.eye(m.ambient_dim)
    assert np.array_equal(m.tangent_project(x[0], eye), ref_tangent(x[0], eye))


@pytest.mark.parametrize("name", ["circle", "sphere2", "torus2"])
def test_exp_at_the_estimates_pair_equals_the_former_formula(name):
    """The flow-continuity pair of ``estimates``: x0 the first mesh node, x1
    at pair_distance along the tangent of the all-ones vector."""
    from geodp.config import DEFAULTS, ExperimentConfig
    from geodp.harness import _pair_direction

    fields = {"circle": ["zero", "rot"], "sphere2": ["zero", "rot_z"], "torus2": ["zero", "rot1"]}
    cfg = ExperimentConfig.from_dict({"manifold": name, "fields": fields[name]})
    m = get_manifold(name)
    x0 = cfg.x0()
    v = DEFAULTS["estimates"]["pair_distance"] * _pair_direction(m, x0)
    assert np.array_equal(m.exp(x0, v), REFERENCES[name][2](x0, v))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), r=st.floats(1e-3, 3.0))
def test_torus_primitives_are_the_circle_primitives_per_factor(seed, r):
    """exp, log and transport on the torus are the circle's on each coordinate
    pair, and its distance is the hypot sqrt(d_a^2 + d_b^2) of the pair
    distances, as the former torus class computed it."""
    rng = _rng(seed)
    t, c = FlatTorus2(), Circle()
    x, z = t.random_points(2, rng)
    v = _random_tangent(t, x, rng, scale=min(r, 2.0))
    y = t.exp(x, v)
    pairs = (slice(0, 2), slice(2, 4))
    assert np.array_equal(y, np.concatenate([c.exp(x[b], v[b]) for b in pairs]))
    da, db = (c.distance(x[b], z[b]) for b in pairs)
    assert t.distance(x, z) == np.sqrt(da**2 + db**2)
    assert t.distance(x, z) == pytest.approx(np.hypot(da, db), rel=1e-15)
    if max(c.distance(x[b], y[b]) for b in pairs) >= np.pi - 1e-6:
        return
    assert np.array_equal(t.log(x, y), np.concatenate([c.log(x[b], y[b]) for b in pairs]))
    w = _random_tangent(t, x, rng)
    assert np.array_equal(t.transport(x, y, w),
                          np.concatenate([c.transport(x[b], y[b], w[b]) for b in pairs]))


def test_catalog_manifolds_are_declarations():
    """Circle, Sphere2 and FlatTorus2 declare a name and factor dimensions and
    define no method; the dimensions follow from the factors."""
    for m, dims, ambient, intrinsic in ((Circle(), (2,), 2, 1), (Sphere2(), (3,), 3, 2),
                                        (FlatTorus2(), (2, 2), 4, 2)):
        assert not [k for k, v in vars(type(m)).items() if callable(v) or isinstance(v, property)]
        assert (m.factor_dims, m.ambient_dim, m.intrinsic_dim) == (dims, ambient, intrinsic)
        assert m.chart(m.random_points(3, _rng(0))).shape == (3, intrinsic)
