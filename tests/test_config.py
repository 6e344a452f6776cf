"""ExperimentConfig keeps the problem, time grid, mesh, ladder and x0 that
its validation built and checked; each builder returns those objects."""

import numpy as np
import pytest

from geodp import config as config_module
from geodp.catalog import get_driver, get_terminal
from geodp.config import ExperimentConfig
from geodp.dynamics import ControlSet, TimeGrid
from geodp.errors import ConfigError
from geodp.geometry import get_field, get_manifold
from geodp.value import make_mesh

CONFIGS = {
    "circle": {},
    "sphere2": {"manifold": "sphere2", "fields": ["zero", "rot_z"]},
    "torus2": {"manifold": "torus2", "fields": ["zero", "rot1"]},
    "given-x0": {"manifold": "sphere2", "fields": ["zero", "rot_x", "rot_y"],
                 "control_set": {"lower": [0.0, 1.0, 1.0], "upper": [0.0, 1.0, 1.0]},
                 "x0": [1.0, 2.0, -2.0]},
    "ladder": {"experiment": "convergence-table",
               "ladder": [{"n_theta": 100}, {"n_theta": 200}, {"n_theta": 400}]},
    "9-controls-drift": {"experiment": "solver-agreement", "fields": ["rot", "rot"],
                         "control_set": {"lower": [0.5, 0.5], "upper": [1, 1],
                                         "grid_points_per_axis": 3}},
}


def _independent_build(raw):
    """The problem, grid, mesh and x0 of ``raw``, built through the catalogs
    as the builders built them before validation kept its own."""
    m = get_manifold(raw["manifold"])
    cs, tm = raw["control_set"], raw["time"]
    controls = ControlSet(
        lower=np.asarray(cs["lower"], dtype=float),
        upper=np.asarray(cs["upper"], dtype=float),
        grid_points_per_axis=int(cs["grid_points_per_axis"]),
    )
    mesh = make_mesh(m, raw["mesh"])
    x0 = mesh.nodes[0] if raw["x0"] is None else m.project(np.asarray(raw["x0"], dtype=float))
    return dict(
        fields=[get_field(m, fid) for fid in raw["fields"]],
        driver=get_driver(raw["driver"]["id"], raw["driver"].get("params")),
        terminal=get_terminal(raw["terminal"]["id"], raw["terminal"].get("params")),
        controls=controls,
        grid=TimeGrid(t0=float(tm["t0"]), T=float(tm["T"]), n_steps=int(tm["n_steps"])),
        mesh=mesh,
        x0=x0,
    )


@pytest.mark.parametrize("name", CONFIGS)
def test_builders_return_the_same_objects_on_every_call(name):
    cfg = ExperimentConfig.from_dict(CONFIGS[name])
    for build in (cfg.build_problem, cfg.build_grid, cfg.build_mesh, cfg.build_ladder, cfg.x0):
        assert build() is build()


@pytest.mark.parametrize("name", CONFIGS)
def test_kept_objects_equal_an_independent_build(name):
    cfg = ExperimentConfig.from_dict(CONFIGS[name])
    ref = _independent_build(cfg.raw)
    prob, grid, mesh, x0 = cfg.build_problem(), cfg.build_grid(), cfg.build_mesh(), cfg.x0()
    assert [f.id for f in prob.fields] == [f.id for f in ref["fields"]]
    for f, g in zip(prob.fields, ref["fields"]):
        assert f.A.tobytes() == g.A.tobytes()
    assert prob.controls.grid().tobytes() == ref["controls"].grid().tobytes()
    assert (prob.driver.lipschitz_K, prob.driver.bound_K0) == (
        ref["driver"].lipschitz_K, ref["driver"].bound_K0)
    assert prob.terminal(mesh.nodes).tobytes() == ref["terminal"](mesh.nodes).tobytes()
    assert (grid.t0, grid.T, grid.n_steps) == (ref["grid"].t0, ref["grid"].T, ref["grid"].n_steps)
    assert mesh.nodes.tobytes() == ref["mesh"].nodes.tobytes()
    assert x0.dtype == ref["x0"].dtype and x0.tobytes() == ref["x0"].tobytes()
    assert not np.shares_memory(x0, mesh.nodes)
    assert mesh.manifold is prob.manifold
    sizes = cfg["ladder"] if cfg["experiment"] == "convergence-table" else []
    ladder = cfg.build_ladder()
    assert [m.nodes.tobytes() for m in ladder] == [
        make_mesh(prob.manifold, s).nodes.tobytes() for s in sizes]
    assert all(m.manifold is prob.manifold for m in ladder)


@pytest.mark.parametrize("name", CONFIGS)
def test_validation_builds_each_object_once(name, monkeypatch):
    """Validation calls each catalog and constructor once per object, the
    ladder meshes included; the builders call none of them."""
    calls = {}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for key in ("get_manifold", "get_field", "get_driver", "get_terminal",
                "ControlSet", "TimeGrid", "make_mesh"):
        monkeypatch.setattr(config_module, key, counted(getattr(config_module, key), key))
    cfg = ExperimentConfig.from_dict(CONFIGS[name])
    raw = cfg.raw
    n_meshes = 1 + (len(raw["ladder"]) if raw["experiment"] == "convergence-table" else 0)
    expected = {"get_manifold": 1, "get_field": len(raw["fields"]), "get_driver": 1,
                "get_terminal": 1, "ControlSet": 1, "TimeGrid": 1, "make_mesh": n_meshes}
    assert calls == expected
    for _ in range(2):
        cfg.build_problem(), cfg.build_grid(), cfg.build_mesh(), cfg.build_ladder(), cfg.x0()
    assert calls == expected
    assert cfg.build_ladder() is cfg.build_ladder()
    assert len(cfg.build_ladder()) == n_meshes - 1


@pytest.mark.parametrize(
    "override, key, message",
    [
        ({"time": {"t0": 1.0, "T": 0.5}}, "time", "need t0 < T, got [1.0, 0.5]"),
        ({"driver": {"id": "linear_y", "params": {"beta": 100}}}, "time.n_steps",
         "driver K*dt = 1.56 >= 1"),
        ({"experiment": "solver-agreement", "time": {"n_steps": 9}}, "time.n_steps",
         "dt = 0.111 exceeds the value table's 0.1 bound"),
    ],
)
def test_rules_enforced_elsewhere_are_reported_under_their_config_key(override, key, message):
    """t0 < T (TimeGrid), K*dt < 1 (bsde's contraction guard) and the value
    table's dt bound are each checked where they are enforced; validation
    reports them under the key it names."""
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(override)
    assert exc.value.field == key
    assert str(exc.value) == f"config field '{key}': {message}"


_YAML_NOTE = "YAML read it as a string (an exponent needs a decimal point: 1.0e-6, not 1e-6)"


@pytest.mark.parametrize(
    "text, key",
    [
        ("time: {T: 1e-6}\n", "time.T"),
        ("experiment: hypotheses\ndriver: {id: constant, params: {c: 1e-3}}\n", "driver.params.c"),
    ],
)
def test_yaml_exponent_float_without_a_point_is_rejected_with_a_note(tmp_path, text, key):
    """PyYAML reads 1e-6 (an exponent, no decimal point) as the string '1e-6'."""
    f = tmp_path / "c.yaml"
    f.write_text(text)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_yaml(str(f))
    assert exc.value.field == key
    assert "must be a finite number" in str(exc.value) and _YAML_NOTE in str(exc.value)
    f.write_text(text.replace("e-", ".0e-"))
    ExperimentConfig.from_yaml(str(f))


def test_a_string_that_is_not_a_number_gets_no_yaml_note(tmp_path):
    f = tmp_path / "c.yaml"
    f.write_text("driver: {id: constant, params: {c: abc}}\n")
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_yaml(str(f))
    assert str(exc.value) == "config field 'driver.params.c': must be a finite number, got 'abc'"
