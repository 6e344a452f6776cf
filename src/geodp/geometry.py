"""Embedded compact manifolds and the differential-geometric primitives.

The catalog is deliberately small and explicit: the unit circle in R^2, the
unit sphere in R^3, and the flat torus S^1 x S^1 in R^4.  Points are stored in
embedded (ambient) coordinates only, and all motion is ambient formulas plus
metric projection, so no chart or Christoffel machinery is needed.  Each
manifold is a product of unit spheres, declared by ``factor_dims`` alone:
``ManifoldModel`` defines every primitive once, as the unit-sphere formula
applied factor by factor (projection, tangent projection, exp, log, parallel
transport, sampling and chart), with the product distance sqrt(sum d_b^2).

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
from typing import Callable, Tuple

import numpy as np

from .errors import CutLocus, SingularProjection

_PROJ_EPS = 1e-8
_CUT_GUARD = 1e-9


@dataclass(frozen=True, eq=False)
class VectorField:
    """The linear field x -> A x in ambient coordinates.

    ``V(x)`` accepts batched x of shape (..., n) and returns ``x @ A.T``.
    """

    id: str
    A: np.ndarray

    def __call__(self, x):
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
    """A product of unit spheres, declared by ``name`` and ``factor_dims``.

    Every primitive is the unit-sphere formula applied to each factor's
    coordinates; the factor results are concatenated (points, tangent
    vectors, chart angles) or combined as sqrt(sum d_b^2) (distance).  The
    injectivity radius of every catalog manifold is pi, that of a unit
    sphere.  A product's minimizing geodesic is unique exactly when each
    factor's is, so the cut-locus guard tests the largest factor angle
    against pi, not the product distance; with one factor the two agree.
    """

    name: str
    # Ambient dimensions of the unit-sphere factors, in coordinate order.
    factor_dims: tuple
    injectivity_radius = np.pi

    @property
    def ambient_dim(self) -> int:
        return sum(self.factor_dims)

    @property
    def intrinsic_dim(self) -> int:
        return sum(k - 1 for k in self.factor_dims)

    @functools.cached_property
    def factor_slices(self) -> tuple:
        """The ambient coordinates of each unit-sphere factor, as slices."""
        ends = itertools.accumulate(self.factor_dims)
        return tuple(slice(e - k, e) for k, e in zip(self.factor_dims, ends))

    def _by_factor(self, formula, *arrays):
        """``formula`` applied to each factor's coordinates of ``arrays``,
        the results concatenated along the last axis."""
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        return np.concatenate(
            [formula(*(a[..., b] for a in arrays)) for b in self.factor_slices], axis=-1
        )

    # -- embedding constraints ------------------------------------------------

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
        return self._by_factor(_sphere_tangent, x, w)

    def tangency_defect(self, x, v):
        """Norm of the normal component of v at x."""
        v = np.asarray(v, dtype=float)
        return np.linalg.norm(v - self.tangent_project(x, v), axis=-1)

    # -- metric primitives ----------------------------------------------------

    def distance(self, x, y):
        """Product-metric distance sqrt(sum_b d_b^2) of the factor angles d_b;
        with one factor this is d_0 bit for bit, since sqrt(d*d) == d."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return _row_norm([_sphere_angle(x[..., b], y[..., b]) for b in self.factor_slices])

    def exp(self, x, v):
        return self._by_factor(_sphere_exp, x, v)

    def log(self, x, y):
        self._check_cut(x, y)
        return self._by_factor(_sphere_log, x, y)

    def transport(self, x, y, v):
        """Parallel transport of v in T_xM to T_yM along the minimizing geodesic."""
        self._check_cut(x, y)
        return self._by_factor(_sphere_transport, x, y, v)

    def _check_cut(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = functools.reduce(
            np.maximum, [_sphere_angle(x[..., b], y[..., b]) for b in self.factor_slices]
        )
        if np.any(d >= self.injectivity_radius - _CUT_GUARD):
            raise CutLocus(
                f"{self.name}: factor angle {np.max(d):.6g} reaches the injectivity "
                f"radius {self.injectivity_radius:.6g}"
            )

    # -- sampling and charts --------------------------------------------------

    def random_points(self, n, rng):
        """n points uniform on the manifold (for sampled checks): projected
        standard normals, uniform on each factor and independent across them."""
        return self.project(rng.standard_normal((n, self.ambient_dim)))

    def chart(self, x):
        """Intrinsic angle coordinates of shape (..., intrinsic_dim); used by
        meshes.  Per factor: the angle arctan2(x1, x0) of a 2-coordinate
        factor, (lat, lon) with lat in [-pi/2, pi/2] and lon in (-pi, pi] of a
        3-coordinate one."""
        x = np.asarray(x, dtype=float)
        angles = []
        for b in self.factor_slices:
            c = x[..., b]
            if c.shape[-1] == 3:
                angles.append(np.arcsin(np.clip(c[..., 2], -1.0, 1.0)))
            angles.append(np.arctan2(c[..., 1], c[..., 0]))
        return np.stack(angles, axis=-1)

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


def _guarded_norm(rows):
    """``_row_norm(rows)``; raises SingularProjection where a norm is below
    _PROJ_EPS or not finite (an overflowed state), the one guard of every
    projection."""
    n = np.asarray(_row_norm(rows))
    if n.size and not (n.min() >= _PROJ_EPS and n.max() < np.inf):  # a NaN fails both
        bad = float(n[~((n >= _PROJ_EPS) & (n < np.inf))][0])
        raise SingularProjection(f"norm {bad:.3g} is non-finite or below {_PROJ_EPS}")
    return n


# ---------------------------------------------------------------------------
# Unit-sphere formulas, on the coordinates (..., k) of one factor
# ---------------------------------------------------------------------------


def _sphere_tangent(x, w):
    return w - np.sum(w * x, axis=-1, keepdims=True) * x


def _sphere_angle(x, y):
    """Angle between unit vectors: arctan2 of its sine |y - <x, y> x| and its
    cosine <x, y>, accurate near 0 and pi, where arccos of <x, y> is not."""
    c = np.sum(x * y, axis=-1)
    return np.arctan2(np.linalg.norm(y - c[..., None] * x, axis=-1), c)


def _sphere_exp(x, v):
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    small = nv < 1e-300
    safe = np.where(small, 1.0, nv)
    out = np.cos(nv) * x + np.sin(nv) * (v / safe)
    return np.where(small, x, out)


def _sphere_log(x, y, th=None):
    """log_x y; ``th`` is the angle between x and y (..., 1) when the caller has it."""
    if th is None:
        th = _sphere_angle(x, y)[..., None]
    w = y - np.sum(x * y, axis=-1, keepdims=True) * x
    nw = np.linalg.norm(w, axis=-1, keepdims=True)
    small = nw < 1e-14
    safe = np.where(small, 1.0, nw)
    return np.where(small, 0.0 * x, th * w / safe)


def _sphere_transport(x, y, v):
    th = _sphere_angle(x, y)[..., None]
    small = th < 1e-14
    safe = np.where(small, 1.0, th)
    u = _sphere_log(x, y, th) / safe
    a = np.sum(v * u, axis=-1, keepdims=True)
    out = v + a * ((np.cos(th) - 1.0) * u - np.sin(th) * x)
    return np.where(small, v, out)


class Circle(ManifoldModel):
    """Unit circle S^1 in R^2."""

    name = "circle"
    factor_dims = (2,)


class Sphere2(ManifoldModel):
    """Unit sphere S^2 in R^3 (sectional curvature +1)."""

    name = "sphere2"
    factor_dims = (3,)


class FlatTorus2(ManifoldModel):
    """Flat torus S^1 x S^1 in R^4, each coordinate pair on the unit circle."""

    name = "torus2"
    factor_dims = (2, 2)


def flow_step(m: ManifoldModel, V: VectorField, x, h: float) -> np.ndarray:
    """Flow of xdot = V(x) for parameter h: projected RK4, with parameters
    larger than 0.1 split into equal substeps to keep the local error bounded."""
    x = np.asarray(x, dtype=float)
    if h == 0.0:
        return x.copy()
    n_sub = max(1, int(np.ceil(abs(h) / 0.1)))
    hs = h / n_sub
    for _ in range(n_sub):
        x = m.project(rk4_step(lambda s, y: V(y), 0.0, x, hs))
    return x


_DIR_FD = 1e-4  # flow-parameter step of along_flow's differences


def along_flow(phi: Callable, m: ManifoldModel, V: VectorField, t, x) -> Tuple[np.ndarray, np.ndarray]:
    """(V phi, VV phi) at the points x for a probe phi(t, x), a function of a
    time and (..., n) points: the central differences (phi+ - phi-) / (2h) and
    (phi+ - 2 phi + phi-) / h^2 over the one pair of flow points
    flow_step(x, +-h), h = ``_DIR_FD``."""
    up = phi(t, flow_step(m, V, x, _DIR_FD))
    um = phi(t, flow_step(m, V, x, -_DIR_FD))
    return (up - um) / (2.0 * _DIR_FD), (up - 2.0 * phi(t, x) + um) / _DIR_FD**2


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
