"""Both grid solvers are monotone schemes, on random catalog configs.

``value_function`` averages the next layer with the positive Gauss-Hermite
and multilinear corner weights; ``solve_hjb`` with no drift and within its
CFL guard has nonnegative transition weights.  A positively weighted average
followed by the minimum over the control grid keeps the maximum principle
(under the zero driver every layer stays within [min Phi, max Phi]) and
comparison (Phi_1 <= Phi_2 at every node gives u_1 <= u_2 at every layer and
node).  These are the properties behind the viscosity-solution convergence of
such schemes (Barles & Souganidis 1991; Kushner & Dupuis 2001, ch. 5).

Comparison for the value table holds under every catalog driver: with
dt <= 0.1 each Picard iterate of y = y_bar + dt f(y, Z) grows with every
next-layer value (for smooth at its defaults, dt |f_y| <= 0.1 and
sqrt(dt) |f_z xi| <= 0.14).  For the HJB it is checked under the drivers that
read neither y nor z, since dt f_y or dt f_z can outweigh a weight that the
CFL guard lets reach 0.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from geodp.bsde import TerminalCost
from geodp.config import ExperimentConfig
from geodp.dynamics import TimeGrid
from geodp.hjb import hjb_steps_for_cfl, solve_hjb
from geodp.value import value_function

# Catalog field ids, mesh size keys and ambient dimension by manifold.
_MANIFOLDS = {
    "circle": (["zero", "rot", "scale:0.5:rot", "scale:-2:rot"], ["n_theta"], 2),
    "sphere2": (["zero", "rot_x", "rot_y", "rot_z", "scale:0.5:rot_z"], ["n_lat", "n_lon"], 3),
    "torus2": (["zero", "rot1", "rot2", "const_angle:0.3", "scale:-1:rot2"], ["n1", "n2"], 4),
}
_TOL = 1e-12


@st.composite
def _configs(draw, drift, drivers):
    """A solver-agreement config on a random catalog problem: its fields,
    control box, driver, terminal, mesh and time grid.  With ``drift`` False
    the drift field is zero."""
    manifold = draw(st.sampled_from(sorted(_MANIFOLDS)))
    catalog, size_keys, ambient = _MANIFOLDS[manifold]
    drift_id = draw(st.sampled_from(catalog)) if drift else "zero"
    diffusions = draw(st.lists(st.sampled_from(catalog[1:]), min_size=1, max_size=3))
    lower = [draw(st.floats(-1.0, 1.0)) for _ in range(len(diffusions) + 1)]
    upper = [lo + draw(st.floats(0.0, 1.0)) for lo in lower]
    driver = draw(st.sampled_from(drivers))
    params = {"constant": {"c": draw(st.floats(-2.0, 2.0))},
              "linear_y": {"beta": draw(st.floats(-2.0, 2.0)), "c": draw(st.floats(-2.0, 2.0))}}
    if draw(st.booleans()):
        terminal = {"id": "coord", "params": {"index": draw(st.integers(0, ambient - 1)),
                                              "scale": draw(st.floats(-2.0, 2.0))}}
    else:
        terminal = {"id": "constant", "params": {"c": draw(st.floats(-2.0, 2.0))}}
    n_steps = draw(st.integers(1, 6))
    return ExperimentConfig.from_dict({
        "experiment": "solver-agreement",
        "manifold": manifold,
        "fields": [drift_id] + diffusions,
        "driver": {"id": driver, "params": params.get(driver, {})},
        "terminal": terminal,
        "control_set": {"lower": lower, "upper": upper,
                        "grid_points_per_axis": draw(st.integers(1, 2))},
        "mesh": {key: draw(st.integers(3, 10)) for key in size_keys},
        "time": {"t0": 0.0, "T": draw(st.floats(0.01, 0.099)) * n_steps, "n_steps": n_steps},
    })


def _raised(prob, draw):
    """prob with Phi_2 = Phi_1 + a sum of nonnegative ramps a (x_j - c)_+."""
    ambient = prob.manifold.ambient_dim
    ramps = [(draw(st.floats(0.0, 2.0)), draw(st.integers(0, ambient - 1)), draw(st.floats(-1.0, 1.0)))
             for _ in range(draw(st.integers(1, 3)))]
    phi = prob.terminal

    def raised(x):
        x = np.asarray(x, dtype=float)
        return phi(x) + sum(a * np.maximum(x[..., j] - c, 0.0) for a, j, c in ramps)

    lipschitz = phi.lipschitz_K + sum(a for a, _, _ in ramps)
    return replace(prob, terminal=TerminalCost(phi=raised, lipschitz_K=lipschitz))


def _assert_within_terminal_range(u, phi):
    assert np.all(u >= phi.min() - _TOL) and np.all(u <= phi.max() + _TOL)


def _assert_compared(u1, u2, phi1, phi2):
    assert np.all(phi1 <= phi2)
    assert np.all(u1 <= u2 + _TOL)


@settings(max_examples=100, deadline=None)
@given(cfg=_configs(drift=True, drivers=["zero"]))
def test_value_function_keeps_the_maximum_principle(cfg):
    prob, mesh = cfg.build_problem(), cfg.build_mesh()
    vf = value_function(prob, cfg.build_grid(), mesh)
    _assert_within_terminal_range(vf.u, prob.terminal(mesh.nodes))


@settings(max_examples=100, deadline=None)
@given(cfg=_configs(drift=True, drivers=["zero", "constant", "linear_y", "smooth"]),
       data=st.data())
def test_value_function_keeps_comparison(cfg, data):
    prob, mesh, grid = cfg.build_problem(), cfg.build_mesh(), cfg.build_grid()
    higher = _raised(prob, data.draw)
    _assert_compared(value_function(prob, grid, mesh).u, value_function(higher, grid, mesh).u,
                     prob.terminal(mesh.nodes), higher.terminal(mesh.nodes))


def _hjb_grid(prob, mesh, draw):
    """A CFL-guarded grid on [0, T] and its limit."""
    cfl_limit = draw(st.floats(0.2, 1.0))
    T = draw(st.floats(0.01, 0.2))
    return TimeGrid(0.0, T, hjb_steps_for_cfl(prob, 0.0, T, mesh, cfl_limit=cfl_limit)), cfl_limit


@settings(max_examples=100, deadline=None)
@given(cfg=_configs(drift=False, drivers=["zero"]), data=st.data())
def test_solve_hjb_keeps_the_maximum_principle_without_drift(cfg, data):
    prob, mesh = cfg.build_problem(), cfg.build_mesh()
    grid, cfl_limit = _hjb_grid(prob, mesh, data.draw)
    hf = solve_hjb(prob, grid, mesh, cfl_limit=cfl_limit)
    assert hf.min_weight >= 0.0
    _assert_within_terminal_range(hf.u, prob.terminal(mesh.nodes))


@settings(max_examples=100, deadline=None)
@given(cfg=_configs(drift=False, drivers=["zero", "constant"]), data=st.data())
def test_solve_hjb_keeps_comparison_without_drift(cfg, data):
    prob, mesh = cfg.build_problem(), cfg.build_mesh()
    grid, cfl_limit = _hjb_grid(prob, mesh, data.draw)
    higher = _raised(prob, data.draw)
    hf = solve_hjb(prob, grid, mesh, cfl_limit=cfl_limit)
    assert hf.min_weight >= 0.0
    _assert_compared(hf.u, solve_hjb(higher, grid, mesh, cfl_limit=cfl_limit).u,
                     prob.terminal(mesh.nodes), higher.terminal(mesh.nodes))
