import dataclasses

import numpy as np
import pytest

from geodp.catalog import get_driver, get_terminal
from geodp.dynamics import ControlSet, TimeGrid
from geodp.errors import GeodpError
from geodp.geometry import VectorField, get_field, get_manifold
from geodp.problem import ControlProblem

# Every catalog id per manifold, the parametric ones with sample parameters.
CATALOG = {
    "circle": ["zero", "rot", "scale:0.5:rot", "scale:-3:rot"],
    "sphere2": ["zero", "rot_x", "rot_y", "rot_z", "scale:2.5:rot_y"],
    "torus2": [
        "zero", "rot1", "rot2", "const_angle:0.3", "const_angle:-2",
        "scale:0.7:const_angle:1.1", "scale:0:rot2",
    ],
}


def _coupling():
    """Skew on R^4, but it moves the first torus factor's coordinates into the second."""
    A = np.zeros((4, 4))
    A[0, 2], A[2, 0] = -1.0, 1.0
    return A


# Fields that are not tangent: a non-skew matrix on the circle and a torus
# matrix that couples its two factors.
NON_TANGENT = [
    ("circle", VectorField("stretch", np.eye(2))),
    ("torus2", VectorField("couple", _coupling())),
]


def circle_problem(
    driver_id="smooth",
    driver_params=None,
    terminal_id="coord",
    terminal_params=None,
    sigma_low=0.5,
    sigma_high=1.0,
    grid_points=2,
):
    """The standard circle setup used across the heavier tests: zero drift,
    rotational diffusion with controllable intensity, a smooth nonlinear
    driver, and the first-coordinate terminal cost."""
    m = get_manifold("circle")
    fields = [get_field(m, "zero"), get_field(m, "rot")]
    return ControlProblem(
        manifold=m,
        fields=fields,
        driver=get_driver(driver_id, driver_params),
        terminal=get_terminal(terminal_id, terminal_params),
        controls=ControlSet(
            lower=np.array([0.0, sigma_low]),
            upper=np.array([0.0, sigma_high]),
            grid_points_per_axis=grid_points,
        ),
    )


def unit_diffusion_circle(driver_id="zero", driver_params=None, terminal_id="coord"):
    """Circle with a single sigma = 1 control (the closed-form oracle setup)."""
    return circle_problem(
        driver_id=driver_id, driver_params=driver_params, terminal_id=terminal_id,
        sigma_low=1.0, sigma_high=1.0, grid_points=1,
    )


def one_point_problem(prob, v):
    """The problem over the one-point control set {v}: its frozen ODE is that of
    the constant control v."""
    return dataclasses.replace(prob, controls=ControlSet(v, v))


class StepError(GeodpError):
    """A toolkit error of several arguments, kept as ``args`` as errors.py
    requires: the fork_map tests raise it from a probe window, and the
    errors tests pickle it."""

    def __init__(self, step, path, low, high):
        super().__init__(step, path, low, high)
        self.step = step
        self.path = path

    def __str__(self):
        step, path, low, high = self.args
        return f"step error at step={step}, path={path}: {low!r} > {high!r}"


@pytest.fixture
def grid64():
    return TimeGrid(t0=0.0, T=1.0, n_steps=64)
