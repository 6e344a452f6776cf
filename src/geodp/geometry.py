"""Embedded compact manifolds and the differential-geometric primitives.

The catalog is deliberately small and explicit: the unit circle in R^2, the
unit sphere in R^3, and the flat torus S^1 x S^1 in R^4.  Points are stored in
embedded (ambient) coordinates only, and all motion is ambient formulas plus
metric projection, so no chart or Christoffel machinery is needed.

All operations broadcast over leading axes: a "point" argument may be a single
ambient vector of shape (n,) or a batch of shape (..., n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CutLocus, SingularProjection

_EMBED_TOL = 1e-12
_TANGENT_TOL = 1e-10
_PROJ_EPS = 1e-8
_CUT_GUARD = 1e-9

# Central-difference step for ambient derivatives without a registered Jacobian.
H_GEO = 1e-5


@dataclass(frozen=True)
class VectorField:
    """A vector field given through a smooth ambient extension.

    ``eval(t, x)`` must accept batched x of shape (..., n) and return matching
    shapes.  ``jacobian(t, x)``, when registered, returns the ambient Jacobian
    with shape (..., n, n); otherwise directional derivatives fall back to
    central differences.
    """

    id: str
    eval: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    tangency_certified: bool = False

    def __call__(self, t, x):
        return self.eval(t, np.asarray(x, dtype=float))


class ManifoldModel:
    """Base class for the explicitly embedded catalog manifolds."""

    name: str
    intrinsic_dim: int
    ambient_dim: int
    injectivity_radius: float
    curvature_lower_bound_k0: float

    # -- embedding constraints ------------------------------------------------

    def constraint_violation(self, p):
        """Max violation of the defining embedding constraints, per point."""
        raise NotImplementedError

    def is_on_manifold(self, p, tol=_EMBED_TOL):
        return bool(np.all(self.constraint_violation(p) <= tol))

    def project(self, p):
        raise NotImplementedError

    def tangent_project(self, x, w):
        """Orthogonal projection of an ambient vector onto the tangent space at x."""
        raise NotImplementedError

    def tangency_defect(self, x, v):
        """Norm of the normal component of v at x."""
        v = np.asarray(v, dtype=float)
        return np.linalg.norm(v - self.tangent_project(x, v), axis=-1)

    # -- metric primitives ----------------------------------------------------

    def distance(self, x, y):
        raise NotImplementedError

    def exp(self, x, v):
        raise NotImplementedError

    def log(self, x, y):
        raise NotImplementedError

    def transport(self, x, y, v):
        """Parallel transport of v in T_xM to T_yM along the minimizing geodesic."""
        raise NotImplementedError

    def _check_cut(self, x, y):
        d = self.distance(x, y)
        if np.any(d >= self.injectivity_radius - _CUT_GUARD):
            raise CutLocus(
                f"{self.name}: distance {np.max(d):.6g} reaches the injectivity "
                f"radius {self.injectivity_radius:.6g}"
            )

    # -- sampling and charts --------------------------------------------------

    def random_points(self, n, rng):
        """n points uniform on the manifold (for sampled checks)."""
        raise NotImplementedError

    def chart(self, x):
        """Intrinsic angle coordinates of shape (..., intrinsic_dim); used by meshes."""
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


def _normalize(p, eps=_PROJ_EPS):
    n = np.linalg.norm(p, axis=-1, keepdims=True)
    if np.any(n < eps):
        raise SingularProjection(f"norm {float(np.min(n)):.3g} below {eps}")
    return p / n


def _rot90(p):
    """(x1, x2) -> (-x2, x1), batched."""
    return np.stack([-p[..., 1], p[..., 0]], axis=-1)


class Circle(ManifoldModel):
    """Unit circle S^1 in R^2."""

    name = "circle"
    intrinsic_dim = 1
    ambient_dim = 2
    injectivity_radius = np.pi
    curvature_lower_bound_k0 = 0.0

    def constraint_violation(self, p):
        p = np.asarray(p, dtype=float)
        return np.abs(np.linalg.norm(p, axis=-1) - 1.0)

    def project(self, p):
        return _normalize(np.asarray(p, dtype=float))

    def tangent_project(self, x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        return w - np.sum(w * x, axis=-1, keepdims=True) * x

    def distance(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.arccos(np.clip(np.sum(x * y, axis=-1), -1.0, 1.0))

    def exp(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        a = np.sum(v * _rot90(x), axis=-1, keepdims=True)
        return np.cos(a) * x + np.sin(a) * _rot90(x)

    def log(self, x, y):
        self._check_cut(x, y)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ang = np.arctan2(
            x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0],
            np.sum(x * y, axis=-1),
        )
        return ang[..., None] * _rot90(x)

    def transport(self, x, y, v):
        self._check_cut(x, y)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        v = np.asarray(v, dtype=float)
        a = np.sum(v * _rot90(x), axis=-1, keepdims=True)
        return a * _rot90(y)

    def random_points(self, n, rng):
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    def chart(self, x):
        x = np.asarray(x, dtype=float)
        return np.arctan2(x[..., 1], x[..., 0])[..., None]


class Sphere2(ManifoldModel):
    """Unit sphere S^2 in R^3 (sectional curvature +1)."""

    name = "sphere2"
    intrinsic_dim = 2
    ambient_dim = 3
    injectivity_radius = np.pi
    curvature_lower_bound_k0 = 0.0

    def constraint_violation(self, p):
        p = np.asarray(p, dtype=float)
        return np.abs(np.linalg.norm(p, axis=-1) - 1.0)

    def project(self, p):
        return _normalize(np.asarray(p, dtype=float))

    def tangent_project(self, x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        return w - np.sum(w * x, axis=-1, keepdims=True) * x

    def distance(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.arccos(np.clip(np.sum(x * y, axis=-1), -1.0, 1.0))

    def exp(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        nv = np.linalg.norm(v, axis=-1, keepdims=True)
        small = nv < 1e-300
        safe = np.where(small, 1.0, nv)
        out = np.cos(nv) * x + np.sin(nv) * (v / safe)
        return np.where(small, x, out)

    def log(self, x, y):
        self._check_cut(x, y)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        th = self.distance(x, y)[..., None]
        w = y - np.sum(x * y, axis=-1, keepdims=True) * x
        nw = np.linalg.norm(w, axis=-1, keepdims=True)
        small = nw < 1e-14
        safe = np.where(small, 1.0, nw)
        return np.where(small, 0.0 * x, th * w / safe)

    def transport(self, x, y, v):
        self._check_cut(x, y)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        v = np.asarray(v, dtype=float)
        th = self.distance(x, y)[..., None]
        lg = self.log(x, y)
        small = th < 1e-14
        safe = np.where(small, 1.0, th)
        u = lg / safe
        a = np.sum(v * u, axis=-1, keepdims=True)
        out = v + a * ((np.cos(th) - 1.0) * u - np.sin(th) * x)
        return np.where(small, v, out)

    def random_points(self, n, rng):
        g = rng.standard_normal(size=(n, 3))
        return g / np.linalg.norm(g, axis=-1, keepdims=True)

    def chart(self, x):
        # (lat, lon): lat in [-pi/2, pi/2], lon in (-pi, pi].
        x = np.asarray(x, dtype=float)
        lat = np.arcsin(np.clip(x[..., 2], -1.0, 1.0))
        lon = np.arctan2(x[..., 1], x[..., 0])
        return np.stack([lat, lon], axis=-1)


class FlatTorus2(ManifoldModel):
    """Flat torus S^1 x S^1 in R^4, each coordinate pair on the unit circle."""

    name = "torus2"
    intrinsic_dim = 2
    ambient_dim = 4
    # Injectivity radius of each factor; used as the (conservative) guard.
    injectivity_radius = np.pi
    curvature_lower_bound_k0 = 0.0

    @staticmethod
    def _pairs(p):
        p = np.asarray(p, dtype=float)
        return p[..., 0:2], p[..., 2:4]

    def constraint_violation(self, p):
        a, b = self._pairs(p)
        va = np.abs(np.linalg.norm(a, axis=-1) - 1.0)
        vb = np.abs(np.linalg.norm(b, axis=-1) - 1.0)
        return np.maximum(va, vb)

    def project(self, p):
        a, b = self._pairs(p)
        return np.concatenate([_normalize(a), _normalize(b)], axis=-1)

    def tangent_project(self, x, w):
        xa, xb = self._pairs(x)
        wa, wb = self._pairs(w)
        ta = wa - np.sum(wa * xa, axis=-1, keepdims=True) * xa
        tb = wb - np.sum(wb * xb, axis=-1, keepdims=True) * xb
        return np.concatenate([ta, tb], axis=-1)

    def distance(self, x, y):
        xa, xb = self._pairs(x)
        ya, yb = self._pairs(y)
        da = np.arccos(np.clip(np.sum(xa * ya, axis=-1), -1.0, 1.0))
        db = np.arccos(np.clip(np.sum(xb * yb, axis=-1), -1.0, 1.0))
        return np.sqrt(da**2 + db**2)

    def exp(self, x, v):
        xa, xb = self._pairs(x)
        va, vb = self._pairs(v)
        aa = np.sum(va * _rot90(xa), axis=-1, keepdims=True)
        ab = np.sum(vb * _rot90(xb), axis=-1, keepdims=True)
        na = np.cos(aa) * xa + np.sin(aa) * _rot90(xa)
        nb = np.cos(ab) * xb + np.sin(ab) * _rot90(xb)
        return np.concatenate([na, nb], axis=-1)

    @staticmethod
    def _factor_angle(xa, ya):
        return np.arctan2(
            xa[..., 0] * ya[..., 1] - xa[..., 1] * ya[..., 0],
            np.sum(xa * ya, axis=-1),
        )

    def log(self, x, y):
        self._check_cut(x, y)
        xa, xb = self._pairs(x)
        ya, yb = self._pairs(y)
        aa = self._factor_angle(xa, ya)[..., None]
        ab = self._factor_angle(xb, yb)[..., None]
        return np.concatenate([aa * _rot90(xa), ab * _rot90(xb)], axis=-1)

    def transport(self, x, y, v):
        self._check_cut(x, y)
        xa, xb = self._pairs(x)
        ya, yb = self._pairs(y)
        va, vb = self._pairs(v)
        ca = np.sum(va * _rot90(xa), axis=-1, keepdims=True)
        cb = np.sum(vb * _rot90(xb), axis=-1, keepdims=True)
        return np.concatenate([ca * _rot90(ya), cb * _rot90(yb)], axis=-1)

    def random_points(self, n, rng):
        th = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2))
        return np.stack(
            [np.cos(th[:, 0]), np.sin(th[:, 0]), np.cos(th[:, 1]), np.sin(th[:, 1])],
            axis=-1,
        )

    def chart(self, x):
        xa, xb = self._pairs(x)
        t1 = np.arctan2(xa[..., 1], xa[..., 0])
        t2 = np.arctan2(xb[..., 1], xb[..., 0])
        return np.stack([t1, t2], axis=-1)


def ambient_derivative(
    m: ManifoldModel,
    V: VectorField,
    W: VectorField,
    t: float,
    x,
    h: float = H_GEO,
) -> np.ndarray:
    """Directional derivative (D_W V)(t, x) in the ambient connection."""
    x = np.asarray(x, dtype=float)
    w = W(t, x)
    if V.jacobian is not None:
        J = V.jacobian(t, x)
        return np.einsum("...ij,...j->...i", J, w)
    return (V(t, x + h * w) - V(t, x - h * w)) / (2.0 * h)


def flow_step(m: ManifoldModel, V: VectorField, t: float, x, h: float) -> np.ndarray:
    """Flow of xdot = V(t, x) for parameter h: projected RK4, with parameters
    larger than 0.1 split into equal substeps to keep the local error bounded."""
    x = np.asarray(x, dtype=float)
    if h == 0.0:
        return x.copy()
    n_sub = max(1, int(np.ceil(abs(h) / 0.1)))
    hs = h / n_sub
    for k in range(n_sub):
        x = m.project(rk4_step(V, t + k * hs, x, hs))
    return x


def rk4_step(g: Callable, s: float, y, h: float):
    """One classical Runge-Kutta step of y' = g(s, y) from s to s + h."""
    k1 = g(s, y)
    k2 = g(s + h / 2.0, y + (h / 2.0) * k1)
    k3 = g(s + h / 2.0, y + (h / 2.0) * k2)
    k4 = g(s + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# Catalogs addressable by string id
# ---------------------------------------------------------------------------

_MANIFOLDS = {
    "circle": Circle,
    "sphere2": Sphere2,
    "torus2": FlatTorus2,
}


def get_manifold(name: str) -> ManifoldModel:
    key = name.lower()
    if key not in _MANIFOLDS:
        raise KeyError(
            f"unknown manifold '{name}'; available: {sorted(_MANIFOLDS)}"
        )
    return _MANIFOLDS[key]()


def linear_field(fid: str, A: np.ndarray, tangent: bool) -> VectorField:
    """Field x -> A x with its exact (constant) Jacobian registered."""
    A = np.asarray(A, dtype=float)

    def ev(t, x):
        return x @ A.T

    def jac(t, x):
        return np.broadcast_to(A, x.shape + (A.shape[0],)).copy()

    return VectorField(id=fid, eval=ev, jacobian=jac, tangency_certified=tangent)


def zero_field(n: int) -> VectorField:
    def ev(t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def jac(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (x.shape[-1],))

    return VectorField(id="zero", eval=ev, jacobian=jac, tangency_certified=True)


def _cross_matrix(a):
    a = np.asarray(a, dtype=float)
    return np.array(
        [
            [0.0, -a[2], a[1]],
            [a[2], 0.0, -a[0]],
            [-a[1], a[0], 0.0],
        ]
    )


_ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def get_field(m: ManifoldModel, fid: str) -> VectorField:
    """Resolve a field id against the manifold's catalog.

    Ids: "zero" everywhere; "rot" on the circle; "rot_x", "rot_y", "rot_z" on
    the sphere; "rot1", "rot2" and "const_angle:<a>" on the torus (rotation of
    the two factors mixed with direction angle a).  "scale:<c>:<id>" rescales
    any catalog field by c.
    """
    fid = fid.strip()
    if fid == "zero":
        return zero_field(m.ambient_dim)
    if fid.startswith("scale:"):
        _, c, inner = fid.split(":", 2)
        base = get_field(m, inner)
        scale = float(c)

        def ev(t, x, _b=base, _s=scale):
            return _s * _b(t, x)

        jac = None
        if base.jacobian is not None:

            def jac(t, x, _b=base, _s=scale):
                return _s * _b.jacobian(t, x)

        return VectorField(
            id=fid, eval=ev, jacobian=jac, tangency_certified=base.tangency_certified
        )
    if isinstance(m, Circle):
        if fid == "rot":
            return linear_field("rot", _ROT2, tangent=True)
    elif isinstance(m, Sphere2):
        axes = {"rot_x": (1, 0, 0), "rot_y": (0, 1, 0), "rot_z": (0, 0, 1)}
        if fid in axes:
            return linear_field(fid, _cross_matrix(axes[fid]), tangent=True)
    elif isinstance(m, FlatTorus2):
        Z2 = np.zeros((2, 2))
        if fid == "rot1":
            A = np.block([[_ROT2, Z2], [Z2, Z2]])
            return linear_field("rot1", A, tangent=True)
        if fid == "rot2":
            A = np.block([[Z2, Z2], [Z2, _ROT2]])
            return linear_field("rot2", A, tangent=True)
        if fid.startswith("const_angle:"):
            a = float(fid.split(":", 1)[1])
            A = np.block(
                [[np.cos(a) * _ROT2, Z2], [Z2, np.sin(a) * _ROT2]]
            )
            return linear_field(fid, A, tangent=True)
    raise KeyError(f"unknown field '{fid}' for manifold '{m.name}'")
