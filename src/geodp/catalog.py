"""Driver and terminal-cost catalogs addressable by string id."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .bsde import Driver, TerminalCost


class ParameterError(ValueError):
    """A catalog parameter that is not a finite number; ``name`` is its key."""

    def __init__(self, name: str, value):
        self.name = name
        super().__init__(_not_finite_text(value))


def _not_finite_text(value) -> str:
    """The error text for a value that is not a finite number.  PyYAML reads
    a float with an exponent but no decimal point (1e-6) as a string."""
    text = f"must be a finite number, got {value!r}"
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return text
        text += "; YAML read it as a string (an exponent needs a decimal point: 1.0e-6, not 1e-6)"
    return text


def _is_finite_number(v) -> bool:
    """A real number, not a bool, that is finite as a float (an int too
    large for a float is not)."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _param(params: dict, name: str, default: float) -> float:
    """params[name] as a float, ``default`` where it is absent; ParameterError
    where it is not a finite number."""
    value = params.get(name, default)
    if not _is_finite_number(value):
        raise ParameterError(name, value)
    return float(value)


def get_driver(did: str, params: dict | None = None) -> Driver:
    """Driver catalog.

    ids:
      zero                     f = 0
      constant   {c}           f = c
      linear_y   {beta, c}     f = -beta*y + c
      smooth     {c, b, beta}  f = c*cos(y + x_0) + b*tanh(z_0) - beta*y
    """
    params = params or {}
    did = did.strip()
    if did == "zero":
        return Driver(f=lambda t, x, y, z, v: np.zeros_like(y), lipschitz_K=0.0, bound_K0=0.0)
    if did == "constant":
        c = _param(params, "c", 1.0)
        return Driver(
            f=lambda t, x, y, z, v: np.full_like(np.asarray(y, dtype=float), c),
            lipschitz_K=0.0,
            bound_K0=abs(c),
        )
    if did == "linear_y":
        beta = _param(params, "beta", 1.0)
        c = _param(params, "c", 0.0)
        return Driver(
            f=lambda t, x, y, z, v: -beta * np.asarray(y, dtype=float) + c,
            lipschitz_K=abs(beta),
            bound_K0=abs(c),
        )
    if did == "smooth":
        c = _param(params, "c", 0.5)
        b = _param(params, "b", 0.25)
        beta = _param(params, "beta", 0.5)

        def f(t, x, y, z, v):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            z = np.asarray(z, dtype=float)
            return c * np.cos(y + x[..., 0]) + b * np.tanh(z[..., 0]) - beta * y

        # |d/dy| <= c + beta, |d/dz| <= b, x-dependence via cos(y + x_0).
        return Driver(f=f, lipschitz_K=2.0 * abs(c) + abs(b) + abs(beta), bound_K0=abs(c))
    raise KeyError(f"unknown driver '{did}'")


def get_terminal(tid: str, params: dict | None = None) -> TerminalCost:
    """Terminal-cost catalog.

    ids:
      constant {c}        Phi = c
      coord    {index, scale}  Phi = scale * x_index  (x_0 is cos(theta) on the circle)
    """
    params = params or {}
    tid = tid.strip()
    if tid == "constant":
        c = _param(params, "c", 1.0)
        return TerminalCost(
            phi=lambda x: np.full(np.asarray(x).shape[:-1], c), lipschitz_K=0.0
        )
    if tid == "coord":
        idx = int(params.get("index", 0))
        scale = _param(params, "scale", 1.0)
        return TerminalCost(
            phi=lambda x: scale * np.asarray(x, dtype=float)[..., idx],
            lipschitz_K=abs(scale),
        )
    raise KeyError(f"unknown terminal '{tid}'")
