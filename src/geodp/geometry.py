"""Embedded compact manifolds and the differential-geometric primitives.

The catalog is deliberately small and explicit: the unit circle in R^2, the
unit sphere in R^3, and the flat torus S^1 x S^1 in R^4.  Points are stored in
embedded (ambient) coordinates only, and all motion is ambient formulas plus
metric projection, so no chart or Christoffel machinery is needed.  Each
manifold is a product of unit spheres, listed by ``factor_dims``; the metric
projection and the constraint violation are defined once from it.

Every catalog vector field is linear, x -> A x with A skew: an infinitesimal
isometry.  A field is stored as its matrix, its ambient derivative along
itself is (x A^T) A^T, and whether it is tangent is decided exactly from A.

All operations broadcast over leading axes: a "point" argument may be a single
ambient vector of shape (n,) or a batch of shape (..., n).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CutLocus, SingularProjection

_PROJ_EPS = 1e-8
_CUT_GUARD = 1e-9


@dataclass(frozen=True, eq=False)
class VectorField:
    """The linear field x -> A x in ambient coordinates.

    ``V(t, x)`` accepts batched x of shape (..., n) and returns ``x @ A.T``;
    catalog fields are autonomous, so t is ignored.
    """

    id: str
    A: np.ndarray

    def __call__(self, t, x):
        return np.asarray(x, dtype=float) @ self.A.T

    def tangent_to(self, m: "ManifoldModel") -> bool:
        """Exact tangency test: x -> A x is tangent to m at every point iff A is
        skew and maps each unit-sphere factor's coordinates into that factor."""
        A = self.A
        if A.shape != (m.ambient_dim, m.ambient_dim) or not np.array_equal(A, -A.T):
            return False
        factor = np.repeat(np.arange(len(m.factor_dims)), m.factor_dims)
        return not np.any(A[factor[:, None] != factor])


class ManifoldModel:
    """Base class for the explicitly embedded catalog manifolds."""

    name: str
    intrinsic_dim: int
    ambient_dim: int
    # Ambient dimensions of the unit-sphere factors, in coordinate order.
    factor_dims: tuple
    injectivity_radius: float

    # -- embedding constraints ------------------------------------------------

    @functools.cached_property
    def factor_slices(self) -> tuple:
        """The ambient coordinates of each unit-sphere factor, as slices."""
        ends = itertools.accumulate(self.factor_dims)
        return tuple(slice(e - k, e) for k, e in zip(self.factor_dims, ends))

    def constraint_violation(self, p):
        """Max over the factors of | |p_factor| - 1 |, per point."""
        p = np.asarray(p, dtype=float)
        return functools.reduce(
            np.maximum, [np.abs(_row_norm(_coords(p, b)) - 1.0) for b in self.factor_slices]
        )

    def project(self, p):
        """Metric projection of points p of shape (..., n): each factor's
        coordinates divided by their norm.  Raises SingularProjection where a
        factor norm is below eps or not finite (an overflowed state).

        The result has the memory order of p, and the norms read p's
        coordinates as rows, so the transposed view of a coordinate-major
        (n, N) array projects in its own layout: ``project(Y.T).T``.
        """
        p = np.asarray(p, dtype=float)
        out = np.empty_like(p)
        with np.errstate(over="ignore", invalid="ignore"):
            for b in self.factor_slices:
                np.divide(p[..., b], _guarded_norm(_coords(p, b))[..., None], out=out[..., b])
        return out

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


def _row_norm(rows):
    """Euclidean norm across ``rows``, a sequence of equal-shape arrays, one
    per coordinate: the square root of the left-to-right sum of their
    squares.  Over the 2- to 4-long factors of the catalog this is
    ``np.linalg.norm`` over the coordinate axis bit for bit, without a
    reduction, so it serves the path-major and the coordinate-major layout."""
    s = rows[0] * rows[0]
    for r in rows[1:]:
        s = s + r * r
    return np.sqrt(s)


def _coords(p, b):
    """The rows p[..., k] of the coordinates k in slice b of points p (..., n)."""
    return [p[..., k] for k in range(b.start, b.stop)]


def _guarded_norm(rows, eps=_PROJ_EPS):
    """``_row_norm(rows)``; raises SingularProjection where a norm is below eps
    or not finite (an overflowed state), the one guard of every projection."""
    n = np.asarray(_row_norm(rows))
    if n.size and not (n.min() >= eps and n.max() < np.inf):  # a NaN fails both
        bad = float(n[~((n >= eps) & (n < np.inf))][0])
        raise SingularProjection(f"norm {bad:.3g} is non-finite or below {eps}")
    return n


def _rot90(p):
    """(x1, x2) -> (-x2, x1), batched."""
    return np.stack([-p[..., 1], p[..., 0]], axis=-1)


class Circle(ManifoldModel):
    """Unit circle S^1 in R^2."""

    name = "circle"
    intrinsic_dim = 1
    ambient_dim = 2
    factor_dims = (2,)
    injectivity_radius = np.pi

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
    factor_dims = (3,)
    injectivity_radius = np.pi

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
    factor_dims = (2, 2)
    # Injectivity radius of each factor; used as the (conservative) guard.
    injectivity_radius = np.pi

    @staticmethod
    def _pairs(p):
        p = np.asarray(p, dtype=float)
        return p[..., 0:2], p[..., 2:4]

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


def _rotation(n: int, i: int, j: int) -> np.ndarray:
    """The so(n) generator E_ij - E_ji: it turns coordinate j towards coordinate i."""
    A = np.zeros((n, n))
    A[i, j], A[j, i] = 1.0, -1.0
    return A


# Catalog matrices per manifold; "zero" and the parametric ids are resolved in get_field.
_FIELDS = {
    "circle": {"rot": _rotation(2, 1, 0)},
    "sphere2": {
        "rot_x": _rotation(3, 2, 1),
        "rot_y": _rotation(3, 0, 2),
        "rot_z": _rotation(3, 1, 0),
    },
    "torus2": {"rot1": _rotation(4, 1, 0), "rot2": _rotation(4, 3, 2)},
}


def _finite(fid: str, text: str) -> float:
    try:
        c = float(text)
    except ValueError:
        c = np.nan
    if not np.isfinite(c):
        raise ValueError(f"field '{fid}': '{text}' is not a finite number")
    return c


def get_field(m: ManifoldModel, fid: str) -> VectorField:
    """Resolve a field id against the manifold's catalog.

    Ids: "zero" everywhere; "rot" on the circle; "rot_x", "rot_y", "rot_z" on
    the sphere; "rot1", "rot2" and "const_angle:<a>" on the torus (rotation of
    the two factors mixed with direction angle a).  "scale:<c>:<id>" is the
    field of c times the matrix of any catalog id.  Unknown ids raise KeyError,
    malformed or non-finite numbers ValueError.
    """
    fid = fid.strip()
    if fid == "zero":
        return VectorField(fid, np.zeros((m.ambient_dim, m.ambient_dim)))
    if fid.startswith("scale:"):
        c, sep, inner = fid[len("scale:") :].partition(":")
        if not sep:
            raise ValueError(f"field '{fid}': expected scale:<c>:<id>")
        return VectorField(fid, _finite(fid, c) * get_field(m, inner).A)
    if m.name == "torus2" and fid.startswith("const_angle:"):
        a = _finite(fid, fid[len("const_angle:") :])
        rot = _FIELDS["torus2"]
        return VectorField(fid, np.cos(a) * rot["rot1"] + np.sin(a) * rot["rot2"])
    A = _FIELDS.get(m.name, {}).get(fid)
    if A is None:
        raise KeyError(f"unknown field '{fid}' for manifold '{m.name}'")
    return VectorField(fid, A)
