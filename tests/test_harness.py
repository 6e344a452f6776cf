import ast
import contextlib
import csv
import filecmp
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geodp import harness
from geodp.cli import main as cli_main
from geodp.config import EXPERIMENTS, ExperimentConfig, print_defaults
from geodp.errors import ConfigError, GeodpError, SingularProjection
from geodp.geometry import get_manifold
from geodp.harness import run
from geodp.hjb import hjb_steps_for_cfl
from geodp.value import _MESH_SIZES

from conftest import CATALOG


def _cfg(**over):
    return ExperimentConfig.from_dict(over)


def test_config_names_exactly_the_experiments_the_harness_runs():
    assert list(EXPERIMENTS) == list(harness._EXPERIMENTS)


def test_defaults_validate_and_print():
    cfg = _cfg()
    assert cfg["experiment"] == "oracle-circle"
    text = print_defaults()
    assert "n_paths" in text and "tolerances" in text


@pytest.mark.parametrize(
    "override, field",
    [
        ({"experiment": "nope"}, "experiment"),
        ({"manifold": "moebius"}, "manifold"),
        ({"fields": ["zero", "warp"]}, "fields"),
        ({"driver": {"id": "spicy"}}, "driver.id"),
        ({"terminal": {"id": "spicy"}}, "terminal.id"),
        ({"control_set": {"lower": [0.0], "upper": [0.0]}}, "control_set"),
        ({"time": {"t0": 1.0, "T": 0.0}}, "time"),
        ({"time": {"n_steps": 0}}, "time.n_steps"),
        (
            {"driver": {"id": "linear_y", "params": {"beta": 100.0}}},
            "time.n_steps",
        ),
        ({"experiment": "convergence-table", "ladder": [{"n_theta": 32}]}, "ladder"),
        ({"x0": [1.0, 0.0, 0.0]}, "x0"),
        ({"experiment": "dpp-check", "time": {"n_steps": 5}}, "time.n_steps"),
        ({"experiment": "solver-agreement", "time": {"n_steps": 9}}, "time.n_steps"),
        ({"x0": [0.0, 0.0]}, "x0"),
        ({"experiment": "estimates", "mc": {"n_paths": 0}}, "mc.n_paths"),
        ({"manifold": "torus2", "fields": ["zero", "rot1"], "x0": [1.0, 0.0, 0.0, 0.0]}, "x0"),
        ({"mesh": {"n_theta": 2}}, "mesh"),
        (
            {"experiment": "convergence-table",
             "ladder": [{"n_theta": 32}, {"n_theta": 2}, {"n_theta": 128}]},
            "ladder[1]",
        ),
        ({"manifold": "sphere2", "fields": ["zero", "rot_z"], "mesh": {"n_lat": 2}}, "mesh"),
        ({"control_set": {"lower": [0.0, 1.0], "upper": [0.0, 0.5]}}, "control_set"),
        ({"control_set": {"grid_points_per_axis": 0}}, "control_set"),
        ({"fields": ["zero", "scale:abc:rot"]}, "fields"),
        ({"fields": ["zero", "scale:0.5"]}, "fields"),
        ({"fields": ["zero", "scale:nan:rot"]}, "fields"),
        ({"manifold": "torus2", "fields": ["const_angle:x", "rot1"]}, "fields"),
        ({"time": {"n_steps": "64"}}, "time.n_steps"),
        ({"time": {"T": "1"}}, "time.T"),
        ({"time": {"T": True}}, "time.T"),
        ({"mc": {"n_paths": "x"}}, "mc.n_paths"),
        ({"seed": "abc"}, "seed"),
        ({"x0": [1, "a"]}, "x0[1]"),
        ({"fields": ["zero", 1]}, "fields[1]"),
        ({"control_set": {"lower": 0}}, "control_set.lower"),
        ({"mesh": {"n_theta": 64.5}}, "mesh.n_theta"),
        ({"manifold": "torus2", "fields": ["zero", "rot1"], "mesh": {"n1": 8.0}}, "mesh.n1"),
        (
            {"experiment": "convergence-table",
             "ladder": [{"n_theta": 32}, {"n_theta": 64}, {"n_lat": 9.5}]},
            "ladder[2].n_lat",
        ),
        ({"estimates": {"n_instances": 0}}, "estimates.n_instances"),
        ({"experiment": "dpp-check", "dpp": {"delta_steps": [0, 4]}}, "dpp.delta_steps"),
        ({"experiment": "dpp-check", "dpp": {"delta_steps": [1, 65]}}, "dpp.delta_steps"),
        ({"agreement": {"levels": 0}}, "agreement.levels"),
        ({"experiment": "dpp-check", "dpp": {"n_paths": 0}}, "dpp.n_paths"),
        ({"experiment": "dpp-check", "dpp": {"n_probes": 0}}, "dpp.n_probes"),
        ({"mc": {"picard_iters": 0}}, "mc.picard_iters"),
        ({"experiment": "dpp-check", "mc": {"picard_iters": -2}}, "mc.picard_iters"),
        ({"mc": {"basis_degree": 0}}, "mc.basis_degree"),
        ({"experiment": "estimates", "mc": {"basis_degree": -1}}, "mc.basis_degree"),
        (
            {"experiment": "convergence-table", "manifold": "torus2", "fields": ["zero", "rot1"]},
            "ladder[0]",
        ),
        (
            {"experiment": "convergence-table",
             "ladder": [{"n_theta": 32}, {"n_theta": 64, "n1": 64}, {"n_theta": 128}]},
            "ladder[1]",
        ),
        ({"experiment": "oracle-circle", "mc": {"n_paths": 1}}, "mc.n_paths"),
        ({"mesh": {"n_thetaa": 16}}, "mesh"),
        ({"manifold": "torus2", "fields": ["zero", "rot1"], "mesh": {"n_lat": 9}}, "mesh"),
        ({"experiment": "convergence-table", "ladder": [{}, {}, {}]}, "ladder[1]"),
        (
            {"experiment": "convergence-table",
             "ladder": [{"n_theta": 128}, {"n_theta": 64}, {"n_theta": 32}]},
            "ladder[1]",
        ),
        ({"tolerances": {"cfl_limit": 0}}, "tolerances.cfl_limit"),
        ({"tolerances": {"cfl_limit": -0.4}}, "tolerances.cfl_limit"),
        ({"tolerances": {"cfl_limit": 1.5}}, "tolerances.cfl_limit"),
        ({"tolerances": {"oracle_se_mult": -3}}, "tolerances.oracle_se_mult"),
        ({"experiment": "estimates", "tolerances": {"stability_slack": -0.01}}, "tolerances.stability_slack"),
        ({"tolerances": {"h2_threshold": -1e-8}}, "tolerances.h2_threshold"),
        ({"mu": -1.0}, "mu"),
        ({"experiment": "hypotheses", "seed": -1}, "seed"),
        ({"fields": ["zero"], "control_set": {"lower": [0.0], "upper": [0.0]},
          "experiment": "dpp-check", "driver": {"id": "smooth"}}, "driver.id"),
        ({"fields": ["rot"], "control_set": {"lower": [1.0], "upper": [1.0]},
          "experiment": "estimates"}, "fields"),
    ],
)
def test_config_validation_errors(override, field):
    with pytest.raises(ConfigError) as exc:
        _cfg(**override)
    assert exc.value.field == field


def test_ladder_entries_take_the_manifold_defaults_not_mesh():
    """An empty ladder entry is the default mesh, like any missing size key;
    `mesh` sizes only the mesh."""
    cfg = _cfg(experiment="convergence-table", mesh={"n_theta": 16},
               ladder=[{"n_theta": 32}, {"n_theta": 64}, {}])
    assert cfg.build_mesh().n_nodes == 16
    assert [mesh.n_nodes for mesh in cfg.build_ladder()] == [32, 64, 128]
    with pytest.raises(ConfigError, match="128 nodes after 128"):
        _cfg(experiment="convergence-table", ladder=[{"n_theta": 32}, {}, {}])


def test_dpp_check_fails_on_a_nan_window_value(tmp_path, monkeypatch):
    """One NaN window value makes its delta's maximum residual and the run's
    NaN, and the run FAILs, although every other residual is small."""
    import geodp.value as value

    semigroup = value.semigroup
    calls = []

    def first_nan(*a, **k):
        calls.append(1)
        return np.nan if len(calls) == 1 else semigroup(*a, **k)

    monkeypatch.setattr(value, "semigroup", first_nan)
    cfg = _cfg(experiment="dpp-check", time={"n_steps": 16}, mesh={"n_theta": 32},
               dpp={"n_paths": 256, "n_probes": 4})
    rep = run(cfg, out_dir=str(tmp_path))
    m = rep.metrics
    assert np.isnan(m["max_residual_delta_1"]) and np.isnan(m["max_residual"])
    assert m["max_residual_delta_4"] <= cfg["tolerances"]["dpp_max_residual"]
    assert not rep.passed
    assert json.loads((tmp_path / "metrics.json").read_text())["pass"] is False


def test_run_oracle_writes_reports(tmp_path):
    cfg = _cfg(experiment="oracle-circle", mc={"n_paths": 2048}, seed=7)
    rep = run(cfg, out_dir=str(tmp_path), dump_paths=True)
    assert rep.passed
    assert rep.wall_time > 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["pass"] is True
    assert metrics["seed"] == 7
    assert "wall_time" not in json.dumps(metrics)
    # pass decision is reproducible from the metrics file alone
    m = metrics["metrics"]
    t = metrics["tolerances"]
    expected = (
        m["abs_error"] <= t["oracle_se_mult"] * m["mc_se"]
        and m["on_manifold_violation"] <= t["on_manifold"]
    )
    assert metrics["pass"] == expected
    assert (tmp_path / "paths.csv").exists()
    assert (tmp_path / "csv_schema.txt").exists()


def test_run_is_deterministic_across_repeats(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        run(_cfg(experiment="convergence-table"), out_dir=str(d))
    assert filecmp.cmp(a / "metrics.json", b / "metrics.json", shallow=False)
    assert filecmp.cmp(a / "convergence.csv", b / "convergence.csv", shallow=False)


def test_convergence_table_constant_terminal_roundoff(tmp_path):
    cfg = _cfg(
        experiment="convergence-table",
        terminal={"id": "constant", "params": {"c": 2.0}},
    )
    rep = run(cfg, out_dir=str(tmp_path))
    assert rep.passed
    assert all(v <= 1e-10 for k, v in rep.metrics.items() if k.startswith("error_level"))


def test_convergence_table_does_not_hold_the_full_hjb_field(tmp_path):
    cfg = _cfg(experiment="convergence-table")
    finest = cfg.build_ladder()[-1]
    n_hjb = hjb_steps_for_cfl(cfg.build_problem(), 0.0, 1.0, finest)
    # u and argmin_control of the finest level at every HJB step
    full_field = ((n_hjb + 1) + n_hjb * 2) * finest.n_nodes * 8
    tracemalloc.start()
    try:
        rep = run(cfg, out_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < full_field / 4


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_agreement_hjb_field_lines_up_with_value_field(tmp_path):
    cfg = _cfg(experiment="solver-agreement", mesh={"n_theta": 48}, time={"n_steps": 16})
    rep = run(cfg, out_dir=str(tmp_path))
    vrows = _csv_rows(tmp_path / "value_field.csv")
    hrows = _csv_rows(tmp_path / "hjb_field.csv")
    assert len(vrows) == len(hrows) == 17 * 48
    key = ["time_index", "node_index", "x0", "x1"]
    assert [[r[k] for k in key] for r in hrows] == [[r[k] for k in key] for r in vrows]
    diff = max(abs(float(h["u"]) - float(v["u"])) for h, v in zip(hrows, vrows))
    assert 0.0 < diff <= rep.metrics["sup_diff_level_0"]


@pytest.mark.parametrize(
    "manifold, fields, controls",
    [
        ("sphere2", ["zero", "rot_z"], {"lower": [0.0, 1.0], "upper": [0.0, 1.0]}),
        ("torus2", ["zero", "rot1", "rot2"], {"lower": [0.0, 1.0, 1.0], "upper": [0.0, 1.0, 1.0]}),
    ],
    ids=["sphere2", "torus2"],
)
def test_estimates_beyond_the_circle(tmp_path, manifold, fields, controls):
    cfg = _cfg(
        experiment="estimates", manifold=manifold, fields=fields, control_set=controls,
        mc={"n_paths": 1024}, estimates={"n_instances": 5},
    )
    rep = run(cfg, out_dir=str(tmp_path))
    assert rep.passed
    assert rep.metrics["stability_instances"] == 5.0
    assert len((tmp_path / "stability.csv").read_text().splitlines()) == 1 + 5


@pytest.mark.parametrize(
    "manifold, fields, controls, x0",
    [
        ("circle", ["zero", "rot"], {"lower": [0.0, 1.0], "upper": [0.0, 1.0]}, [1.0, 1.0]),
        ("sphere2", ["zero", "rot_z"], {"lower": [0.0, 1.0], "upper": [0.0, 1.0]}, [1.0, 1.0, 1.0]),
        ("torus2", ["zero", "rot1", "rot2"], {"lower": [0.0, 1.0, 1.0], "upper": [0.0, 1.0, 1.0]},
         [1.0, 1.0, 1.0, 1.0]),
    ],
    ids=["circle", "sphere2", "torus2"],
)
def test_estimates_flow_pair_is_distinct_where_ones_is_normal(tmp_path, manifold, fields, controls, x0):
    """At these starts the all-ones vector is normal to the manifold, so its
    tangent part is roundoff.  The flow check must still start its second flow
    pair_distance away (chord 2 sin(0.05)) instead of at x0, where lhs and rhs
    were both 0."""
    cfg = _cfg(
        experiment="estimates", manifold=manifold, fields=fields, control_set=controls, x0=x0,
        mc={"n_paths": 256}, estimates={"n_instances": 1},
    )
    rep = run(cfg, out_dir=str(tmp_path))
    assert rep.metrics["flow_rhs"] == pytest.approx(50.0 * (2.0 * np.sin(0.05)) ** 2, rel=1e-9)
    assert rep.metrics["flow_lhs"] > 0.0


def test_hypotheses_h2_threshold_is_applied(tmp_path):
    """The circle rotation's transport defect is at roundoff (~1e-16): it passes
    the default threshold and fails a threshold below it."""
    rep = run(_cfg(experiment="hypotheses", tolerances={"h2_threshold": 1e-30}), out_dir=str(tmp_path))
    assert rep.metrics["H2_pass"] == 0.0
    assert 0.0 < rep.metrics["H2_max_violation"] <= 1e-8
    assert not rep.passed
    assert json.loads((tmp_path / "metrics.json").read_text())["pass"] is False


def test_hypotheses_experiment_writes_json(tmp_path):
    cfg = _cfg(experiment="hypotheses")
    rep = run(cfg, out_dir=str(tmp_path))
    assert rep.passed
    names = {"H1", "H2", "A1", "A2", "Mod311"}
    for n in names:
        f = tmp_path / f"hypothesis_{n}.json"
        assert f.exists()
        payload = json.loads(f.read_text())
        assert payload["pass"] is True


def test_cli_pass_fail_and_config_error(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text("experiment: oracle-circle\nmc:\n  n_paths: 2048\n")
    out = tmp_path / "out"
    assert cli_main(["run", str(good), "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out

    bad = tmp_path / "bad.yaml"
    bad.write_text("experiment: not-an-experiment\n")
    assert cli_main(["run", str(bad), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err



@pytest.mark.parametrize(
    "experiment", ["dpp-check", "solver-agreement", "estimates", "hypotheses", "convergence-table"]
)
def test_cli_dump_paths_outside_oracle_circle_is_a_config_error(tmp_path, capsys, experiment):
    """Only oracle-circle writes paths.csv; elsewhere --dump-paths exits 2
    before any work, naming dump_paths, rather than being ignored."""
    f = tmp_path / "c.yaml"
    f.write_text(f"experiment: {experiment}\n")
    out = tmp_path / "o"
    assert cli_main(["run", str(f), "--out", str(out), "--dump-paths"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "dump_paths" in err and experiment in err
    assert not out.exists()

@pytest.mark.parametrize(
    "text, key",
    [
        # A repeated delta would run each of its windows twice.
        ("{experiment: dpp-check, dpp: {delta_steps: [4, 4]}}\n", "dpp.delta_steps"),
        # The heat rules of oracle-circle and convergence-table are checked at load.
        ("{experiment: oracle-circle, driver: {id: smooth}}\n", "driver.id"),
        ("{experiment: oracle-circle, driver: {id: ' smooth '}}\n", "driver.id"),
        ("{experiment: convergence-table, driver: {id: linear_y}}\n", "driver.id"),
        ("{experiment: convergence-table, fields: [rot, rot], control_set: {lower: [1, 1], upper: [1, 1]}}\n",
         "fields"),
        ("{experiment: convergence-table, control_set: {lower: [0, 0.5], upper: [0, 1], "
         "grid_points_per_axis: 2}}\n", "control_set"),
    ],
)
def test_cli_config_errors_exit_2_before_the_out_directory_is_made(tmp_path, capsys, text, key):
    f = tmp_path / "c.yaml"
    f.write_text(text)
    out = tmp_path / "o"
    assert cli_main(["run", str(f), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: config field '{key}': ")
    assert not out.exists()


def test_cli_value_table_dt_bound_is_a_config_error(tmp_path, capsys):
    """dt = 0.2 would stop value_function; validation rejects it first."""
    f = tmp_path / "c.yaml"
    f.write_text("experiment: dpp-check\ntime:\n  n_steps: 5\n")
    assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "time.n_steps" in err


def test_cli_mesh_and_control_set_errors_exit_2(tmp_path, capsys):
    """Mesh sizes and control bounds that the builders reject are config errors."""
    for text, key in (
        ("experiment: dpp-check\nmesh:\n  n_theta: 2\n", "mesh"),
        ("control_set:\n  grid_points_per_axis: 0\n", "control_set"),
    ):
        f = tmp_path / "c.yaml"
        f.write_text(text)
        assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err


def test_cli_nonpositive_picard_iters_and_basis_degree_exit_2(tmp_path, capsys):
    """Zero or negative Picard iterations would never apply the driver, and a
    nonpositive degree would regress on the constant alone: both are config
    errors naming the key."""
    for text, key in (
        ("experiment: dpp-check\nmc:\n  picard_iters: -2\n", "mc.picard_iters"),
        ("experiment: dpp-check\nmc:\n  basis_degree: -1\n", "mc.basis_degree"),
    ):
        f = tmp_path / "c.yaml"
        f.write_text(text)
        assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err


def test_cli_malformed_field_ids_exit_2(tmp_path, capsys):
    """Malformed and non-finite numbers in field ids are config errors, not a
    ValueError or LinAlgError traceback with exit 1."""
    for fid in ("scale:abc:rot", "scale:0.5", "scale:nan:rot"):
        f = tmp_path / "c.yaml"
        f.write_text(f"fields: [zero, '{fid}']\n")
        assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "fields" in err and fid in err


@pytest.mark.parametrize(
    "text, key",
    [
        ("experiment: hypotheses\nmu: .nan\n", "mu"),
        ("experiment: hypotheses\ntolerances: {h2_threshold: .nan}\n", "tolerances.h2_threshold"),
        ("time: {T: .inf}\n", "time.T"),
        ("time: {t0: -.inf}\n", "time.t0"),
        ("control_set: {lower: [0.0, .nan]}\n", "control_set.lower[1]"),
        ("x0: [.inf, 0.0]\n", "x0[0]"),
        ("terminal: {id: coord, params: {scale: .nan}}\n", "terminal.params.scale"),
        ("mu: 1" + "0" * 400 + "\n", "mu"),
        # Catalog parameters have no default to type-check them against: the
        # catalog rejects them (before, a NaN driver gave a hypotheses PASS).
        ("experiment: hypotheses\ndriver: {id: smooth, params: {c: .nan}}\n", "driver.params.c"),
        ("driver: {id: smooth, params: {b: -.inf}}\n", "driver.params.b"),
        ("driver: {id: linear_y, params: {beta: .inf}}\n", "driver.params.beta"),
        ("driver: {id: constant, params: {c: abc}}\n", "driver.params.c"),
        ("experiment: convergence-table\nterminal: {id: constant, params: {c: .nan}}\n",
         "terminal.params.c"),
    ],
)
def test_cli_non_finite_numbers_exit_2_naming_the_key(tmp_path, capsys, text, key):
    """NaN and infinities are config errors on the key that holds them, not a
    FAIL with exit 1 (a NaN tolerance or mu) or a run error with exit 3."""
    f = tmp_path / "c.yaml"
    f.write_text(text)
    assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config field '{key}': must be a finite number" in err


def test_oracle_passes_with_a_constant_terminal(tmp_path):
    """Every path has the terminal value c, so mc_se is 0 and the error is
    roundoff: the pass rule's absolute floor accepts it."""
    cfg = _cfg(experiment="oracle-circle", mc={"n_paths": 512},
               terminal={"id": "constant", "params": {"c": 2.0}})
    rep = run(cfg, out_dir=str(tmp_path))
    assert rep.metrics["mc_se"] == 0.0 and rep.metrics["reference"] == 2.0
    assert 0.0 < rep.metrics["abs_error"] <= 1e-10
    assert rep.passed


@pytest.mark.parametrize(
    "experiment, section, padded",
    [
        ("oracle-circle", "terminal", " constant"),
        ("oracle-circle", "driver", "zero "),
        ("convergence-table", "terminal", "\tconstant "),
    ],
)
def test_padded_ids_run_as_the_stripped_ids(tmp_path, experiment, section, padded):
    """The catalog strips ids, and so does validation: the heat rules and the
    reference see the id the catalog resolves, and the reports are those of
    the unpadded id byte for byte."""
    for name, did in (("padded", padded), ("plain", padded.strip())):
        f = tmp_path / f"{name}.yaml"
        f.write_text(json.dumps({"experiment": experiment, section: {"id": did},
                                 "mc": {"n_paths": 512}}))
        assert cli_main(["run", str(f), "--out", str(tmp_path / name)]) == 0
    files = sorted(os.listdir(tmp_path / "plain"))
    assert sorted(os.listdir(tmp_path / "padded")) == files
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "plain", tmp_path / "padded", files,
                                               shallow=False)
    assert match == files and not mismatch and not errors


def _former_heat_reference(cfg, prob, grid, v, x):
    """The heat reference as it was when it read the terminal from the raw
    config: c, or scale * x_i * e^{-rate (T - t0) / 2} for coordinate i alone."""
    params = cfg["terminal"]["params"]
    if cfg["terminal"]["id"] == "constant":
        return float(params.get("c", 1.0))
    i = int(params["index"])
    w = np.array([-(f.A @ f.A)[i, i] for f in prob.fields[1:]])
    rate = float(np.sum(np.asarray(v[1:]) ** 2 * w))
    decay = np.exp(-rate * (grid.T - grid.t0) / 2.0)
    return float(params.get("scale", 1.0)) * x[..., i] * decay


def _one_control(*v):
    return {"lower": list(v), "upper": list(v)}


_HEAT_CASES = {
    "circle-two-rot": dict(fields=["zero", "rot", "rot"], control_set=_one_control(0.0, 0.7, 1.3),
                           time={"t0": 0.25, "T": 1.5}),
    "sphere2-mixed": dict(manifold="sphere2",
                          fields=["zero", "rot_x", "scale:0.37:rot_y", "rot_z", "scale:1.9:rot_x"],
                          control_set=_one_control(0.0, 0.3, 1.7, 0.9, 0.45)),
    "torus2-angle-scale": dict(manifold="torus2", fields=["zero", "const_angle:0.4", "scale:0.6:rot2"],
                               control_set=_one_control(0.0, 1.1, 0.8), time={"T": 0.7}),
    "circle-no-diffusion": dict(fields=["zero"], control_set=_one_control(0.0)),
}


@pytest.mark.parametrize("name", _HEAT_CASES)
def test_heat_reference_is_the_former_formula_bit_for_bit(name):
    """On the mesh nodes and at x0, for the constant terminal and every coord
    index: at scale 1 the reference is the former formula to the last bit; at
    scale 0.3, scale * (x_i * decay) is within one ulp of (scale * x_i) * decay."""
    case = _HEAT_CASES[name]
    n = get_manifold(case.get("manifold", "circle")).ambient_dim
    terminals = [{"id": "constant", "params": {"c": 2.5}}] + [
        {"id": "coord", "params": {"index": i, "scale": scale}} for i in range(n) for scale in (1.0, 0.3)
    ]
    for terminal in terminals:
        cfg = _cfg(terminal=terminal, **case)
        prob, grid = cfg.build_problem(), cfg.build_grid()
        v = prob.controls.grid()[0]
        for x in (cfg.build_mesh().nodes, cfg.x0()):
            new = harness._heat_reference(prob, grid, v, x)
            former = np.broadcast_to(_former_heat_reference(cfg, prob, grid, v, x), new.shape)
            if terminal["params"].get("scale", 1.0) == 1.0:
                assert new.tobytes() == former.tobytes()
            else:
                assert np.all(np.abs(new - former) <= 2 * np.spacing(np.abs(former)))


@pytest.mark.parametrize("manifold", sorted(CATALOG))
def test_every_catalog_terminal_is_affine(manifold):
    """The heat reference is Phi(E X_T), which is E Phi(X_T) only for an
    affine Phi.  Every terminal id that get_terminal lists, at its defaults and
    at sample parameters, must be affine, so a terminal that is not (a
    quadratic) fails here rather than getting a wrong reference."""
    from geodp.catalog import get_terminal

    ids = [line.split()[0] for line in get_terminal.__doc__.split("ids:")[1].strip().splitlines()]
    assert ids == ["constant", "coord"]
    n = get_manifold(manifold).ambient_dim
    r = np.random.default_rng(5)
    x, y = r.uniform(-1.0, 1.0, size=(2, 256, n))
    lam = r.uniform(size=256)
    for tid in ids:
        for params in ({}, {"c": -1.7, "index": n - 1, "scale": 0.3}):
            phi = get_terminal(tid, params)
            mixed = phi(lam[:, None] * x + (1.0 - lam[:, None]) * y)
            assert np.allclose(mixed, lam * phi(x) + (1.0 - lam) * phi(y), rtol=0.0, atol=1e-15)


_VANISHING_DRIVERS = [{"id": "constant", "params": {"c": 0.0}},
                      {"id": "linear_y", "params": {"beta": 0.0, "c": 0.0}}]


@pytest.mark.parametrize("experiment", ["oracle-circle", "convergence-table"])
def test_heat_experiments_take_any_vanishing_driver(tmp_path, experiment):
    """The heat rule reads K = K0 = 0 from the kept driver, not its id: a
    constant driver with c = 0 and linear_y with beta = c = 0 pass validation
    and write the zero driver's reports byte for byte."""
    over = dict(experiment=experiment, mc={"n_paths": 512})
    run(_cfg(**over), out_dir=str(tmp_path / "zero"))
    files = sorted(os.listdir(tmp_path / "zero"))
    for k, driver in enumerate(_VANISHING_DRIVERS):
        out = tmp_path / str(k)
        run(_cfg(driver=driver, **over), out_dir=str(out))
        assert sorted(os.listdir(out)) == files
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "zero", out, files, shallow=False)
        assert match == files and not mismatch and not errors


@pytest.mark.parametrize("experiment", ["oracle-circle", "convergence-table"])
@pytest.mark.parametrize("driver", [{"id": "linear_y"}, {"id": "constant", "params": {"c": 1.0}},
                                    {"id": "smooth"}], ids=["linear_y", "constant-1", "smooth"])
def test_heat_experiments_reject_a_driver_that_does_not_vanish(experiment, driver):
    with pytest.raises(ConfigError) as exc:
        _cfg(experiment=experiment, driver=driver)
    assert exc.value.field == "driver.id"
    assert str(exc.value).endswith(f"{experiment} requires a vanishing driver (K = K0 = 0)")


def test_convergence_table_solves_on_the_kept_ladder(tmp_path, monkeypatch):
    """Validation keeps the ladder meshes it checks: a convergence-table run
    constructs no mesh and solves on the objects ``build_ladder()`` returns."""
    from geodp import value

    cfg = _cfg(experiment="convergence-table")
    built, solved = [], []
    init, solve = value.ManifoldMesh.__init__, harness._hjb_on_cfl_grid

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def recorded_solve(cfg, prob, mesh, n_out):
        solved.append(mesh)
        return solve(cfg, prob, mesh, n_out)

    monkeypatch.setattr(value.ManifoldMesh, "__init__", counted_init)
    monkeypatch.setattr(harness, "_hjb_on_cfl_grid", recorded_solve)
    assert run(cfg, out_dir=str(tmp_path)).passed
    assert built == []
    assert len(solved) == 3 and all(a is b for a, b in zip(solved, cfg.build_ladder()))
    value.make_mesh(cfg.build_problem().manifold, {})
    assert len(built) == 1  # the counter sees a mesh construction


_SPHERE_HEAT = ["manifold: sphere2", "fields: [zero, rot_x, rot_y, rot_z]",
                "control_set: {lower: [0, 1, 1, 1], upper: [0, 1, 1, 1]}"]
_TORUS_HEAT = ["manifold: torus2", "control_set: {lower: [0, 1, 1], upper: [0, 1, 1]}"]


@pytest.mark.parametrize(
    "lines, reference",
    [
        # x0 is the south pole: E x_2(1) = -e^{-1}, the so(3) basis summing to the Laplacian.
        (_SPHERE_HEAT + ["terminal: {id: coord, params: {index: 2}}"], -np.exp(-1.0)),
        # x0 = (1, 0, 1, 0): the second factor turns at half speed, rate 1/4.
        (_TORUS_HEAT + ["fields: [zero, rot1, 'scale:0.5:rot2']",
                        "terminal: {id: coord, params: {index: 2}}"], np.exp(-0.125)),
        (_TORUS_HEAT + ["fields: [zero, rot1, rot2]"], np.exp(-0.5)),
    ],
)
def test_cli_oracle_runs_beyond_the_circle_against_the_closed_form(tmp_path, capsys, lines, reference):
    f = tmp_path / "c.yaml"
    f.write_text("\n".join(["experiment: oracle-circle"] + lines) + "\n")
    out = tmp_path / "o"
    assert cli_main(["run", str(f), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("oracle-circle: PASS")
    m = json.loads((out / "metrics.json").read_text())["metrics"]
    assert m["reference"] == pytest.approx(reference, rel=1e-14)
    assert m["abs_error"] <= 3.0 * m["mc_se"]


def _convergence_rows(out):
    return [(float(r["error"]), float(r["ratio"])) for r in _csv_rows(out / "convergence.csv")]


def test_cli_convergence_table_on_the_torus(tmp_path, capsys):
    """Unit rotations of both factors on a 16^2 / 32^2 / 64^2 ladder: second
    order against x_0 e^{-1/2}."""
    f = tmp_path / "c.yaml"
    f.write_text("\n".join(
        ["experiment: convergence-table", "fields: [zero, rot1, rot2]",
         "ladder: [{n1: 16, n2: 16}, {n1: 32, n2: 32}, {n1: 64, n2: 64}]"] + _TORUS_HEAT
    ) + "\n")
    out = tmp_path / "o"
    assert cli_main(["run", str(f), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("convergence-table: PASS")
    rows = _convergence_rows(out)
    assert rows[0][0] < 2e-3 and all(ratio >= 2.0 for _, ratio in rows[1:])


def test_convergence_table_reads_the_field_scale(tmp_path):
    """scale:2:rot diffuses four times as fast: the reference is x_0 e^{-2},
    and the errors against it fall at second order."""
    cfg = _cfg(experiment="convergence-table", fields=["zero", "scale:2:rot"])
    rep = run(cfg, out_dir=str(tmp_path))
    assert rep.passed
    rows = _convergence_rows(tmp_path)
    assert rows[0][0] < 1e-3 and all(ratio >= 2.0 for _, ratio in rows[1:])


@pytest.mark.parametrize("experiment", ["oracle-circle", "convergence-table"])
def test_heat_experiments_reject_a_drift(tmp_path, experiment):
    """The closed form holds without drift; v_0 A_0 != 0 is a config error on
    fields, not a FAIL against the wrong reference."""
    with pytest.raises(ConfigError) as exc:
        _cfg(experiment=experiment, fields=["rot", "rot"],
             control_set={"lower": [1.0, 1.0], "upper": [1.0, 1.0]})
    assert exc.value.field == "fields"
    # A drift field at v_0 = 0 moves nothing.
    cfg = _cfg(experiment=experiment, fields=["rot", "rot"], mc={"n_paths": 2048})
    assert run(cfg, out_dir=str(tmp_path)).passed


@pytest.mark.parametrize(
    "override",
    [
        {"terminal": {"id": "coord", "params": {"index": 5}}},
        {"experiment": "dpp-check", "terminal": {"id": "coord", "params": {"index": 2}}},
        {"terminal": {"id": "coord", "params": {"index": -1}}},
        {"manifold": "sphere2", "fields": ["zero", "rot_z"], "terminal": {"params": {"index": 3}}},
    ],
)
def test_out_of_range_terminal_index_is_a_config_error(override):
    with pytest.raises(ConfigError) as exc:
        _cfg(**override)
    assert exc.value.field == "terminal.params.index"


def test_terminal_index_in_range_validates():
    _cfg(manifold="torus2", fields=["zero", "rot1"], terminal={"params": {"index": 3}})
    _cfg(terminal={"id": "constant", "params": {"c": 2.0, "index": 7}})  # index unread


def test_oracle_reference_reads_the_terminal_index(tmp_path):
    """Phi = scale * x_1 at x0 = (0.6, 0.8): the reference is scale * 0.8 * e^{-1/2}."""
    cfg = _cfg(
        experiment="oracle-circle", mc={"n_paths": 2048}, x0=[0.6, 0.8],
        terminal={"id": "coord", "params": {"index": 1, "scale": 2.0}},
    )
    rep = run(cfg, out_dir=str(tmp_path))
    assert rep.metrics["reference"] == pytest.approx(2.0 * 0.8 * np.exp(-0.5), rel=1e-12)
    assert rep.passed


def test_convergence_table_reference_reads_the_terminal_index(tmp_path):
    """Phi = x_1 = sin(theta): the errors are those of Phi = x_0 (the same
    problem turned by a quarter), not the 0.86 of comparing against cos."""
    errors = {}
    for index in (0, 1):
        cfg = _cfg(experiment="convergence-table", terminal={"id": "coord", "params": {"index": index}})
        rep = run(cfg, out_dir=str(tmp_path / str(index)))
        assert rep.passed
        errors[index] = [rep.metrics[f"error_level_{i}"] for i in range(3)]
    np.testing.assert_allclose(errors[1], errors[0], rtol=0.05)
    assert max(errors[1]) < 1e-3


def _cli_env():
    """The environment of a `geodp` subprocess that imports this checkout's package."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_closed_stdout_keeps_the_run_status(tmp_path):
    """`geodp run cfg.yaml | head -1`: a reader that closes the pipe before the
    summary is written leaves no BrokenPipeError traceback, and a passing run
    still exits 0 with its reports on disk."""
    f = tmp_path / "c.yaml"
    f.write_text("experiment: oracle-circle\nmc:\n  n_paths: 256\n")
    out = tmp_path / "o"
    with open(tmp_path / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "geodp.cli", "run", str(f), "--out", str(out)],
            stdout=subprocess.PIPE, stderr=err, env=_cli_env(),
        )
        proc.stdout.close()
        rc = proc.wait(timeout=300)
    assert (tmp_path / "stderr.txt").read_text() == ""
    assert rc == 0
    assert json.loads((out / "metrics.json").read_text())["pass"] is True


def test_cli_toolkit_error_exits_3_and_names_the_class(tmp_path, capsys, monkeypatch):
    """A toolkit error raised inside a validated run exits 3 and names its class."""

    def singular(cfg, out_dir, dump_paths):
        raise SingularProjection("norm 0 below 1e-12")

    monkeypatch.setitem(harness._EXPERIMENTS, "oracle-circle", singular)
    f = tmp_path / "c.yaml"
    f.write_text("experiment: oracle-circle\nmc:\n  n_paths: 64\n")
    assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 3
    assert "SingularProjection" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["experiment: [oracle\n", None])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, text):
    """Malformed YAML and a missing config file are config errors, not a
    traceback with the tolerance-failure exit code."""
    f = tmp_path / "c.yaml"
    if text is not None:
        f.write_text(text)
    assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(f) in err


def test_cli_unexpected_error_exits_3_and_names_the_class(tmp_path, capsys, monkeypatch):
    """An error that is not a toolkit error still ends the run with exit 3
    and one line naming its class, not a traceback."""

    def broken(cfg, out_dir, dump_paths):
        raise ValueError("boom")

    monkeypatch.setitem(harness._EXPERIMENTS, "oracle-circle", broken)
    f = tmp_path / "c.yaml"
    f.write_text("experiment: oracle-circle\n")
    assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "run error: ValueError: boom\n"


def test_cli_overflowing_field_exits_3_with_singular_projection(tmp_path, capsys):
    """A field scale that passes validation but overflows the Euler step makes
    non-finite states; the projection guard names it instead of a LinAlgError
    traceback with exit 1."""
    f = tmp_path / "c.yaml"
    f.write_text("fields: [zero, 'scale:1e200:rot']\nmc:\n  n_paths: 256\n")
    assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "run error: SingularProjection" in err and "non-finite" in err


def test_cli_overflowing_field_prints_only_the_run_error(tmp_path):
    """The projection guard is the one report of an overflow: the stderr of
    `geodp run` is the single run error line, with no numpy RuntimeWarning
    before it."""
    f = tmp_path / "c.yaml"
    f.write_text("fields: [zero, 'scale:1e200:rot']\nmc:\n  n_paths: 256\n")
    proc = subprocess.run(
        [sys.executable, "-m", "geodp.cli", "run", str(f), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=_cli_env(), timeout=300,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("run error: SingularProjection: norm "), proc.stderr


def test_cli_summary_reports_peak_rss_outside_metrics(tmp_path, capsys):
    f = tmp_path / "c.yaml"
    f.write_text("experiment: oracle-circle\nmc:\n  n_paths: 256\n")
    out = tmp_path / "o"
    assert cli_main(["run", str(f), "--out", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    match = re.search(r"wall=\d+\.\d\ds, peak_rss=(\d+\.\d)MB\)$", summary)
    assert match and float(match.group(1)) > 0.0
    assert "rss" not in (out / "metrics.json").read_text()


@pytest.mark.parametrize("self_kib, children_kib", [(40 * 1024, 60 * 1024), (60 * 1024, 40 * 1024)])
def test_cli_peak_rss_is_that_of_the_largest_process(tmp_path, capsys, monkeypatch, self_kib, children_kib):
    """peak_rss= is the larger of this process's peak and that of its largest
    reaped child, a fork_map worker."""
    import resource
    from types import SimpleNamespace

    kib = {resource.RUSAGE_SELF: self_kib, resource.RUSAGE_CHILDREN: children_kib}
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=kib[who]))
    f = tmp_path / "c.yaml"
    f.write_text("experiment: oracle-circle\nmc:\n  n_paths: 256\n")
    assert cli_main(["run", str(f), "--out", str(tmp_path / "o")]) == 0
    assert "peak_rss=60.0MB)" in capsys.readouterr().out.splitlines()[0]


def test_cli_print_defaults(capsys):
    assert cli_main(["run", "--print-defaults"]) == 0
    assert "oracle-circle" in capsys.readouterr().out


def test_cli_seed_override(tmp_path):
    f = tmp_path / "c.yaml"
    f.write_text("experiment: oracle-circle\nmc:\n  n_paths: 1024\n")
    out = tmp_path / "o"
    cli_main(["run", str(f), "--out", str(out), "--seed", "99"])
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["seed"] == 99


@pytest.mark.parametrize("text, seed, rc", [("experiment: hypotheses\n", "-1", 2),
                                            ("{experiment: hypotheses, seed: -1}\n", "7", 0)])
def test_cli_seed_override_is_validated_with_the_config(tmp_path, capsys, text, seed, rc):
    """--seed replaces the config's seed before validation: a negative one is
    a config error on seed before the out directory is made, and a valid one
    replaces a negative seed in the file."""
    f = tmp_path / "c.yaml"
    f.write_text(text)
    out = tmp_path / "o"
    assert cli_main(["run", str(f), "--out", str(out), "--seed", seed]) == rc
    if rc == 2:
        assert capsys.readouterr().err.startswith("config error: config field 'seed': ")
        assert not out.exists()
    else:
        assert json.loads((out / "metrics.json").read_text())["seed"] == 7


@pytest.mark.parametrize("n_time, n_nodes, max_delta, count", [
    (32, 450, 4, 16), (16, 32, 4, 4), (5, 3, 4, 16), (8, 1, 8, 9), (64, 2048, 1, 25),
])
def test_probe_points_are_the_unique_grid_indices(n_time, n_nodes, max_delta, count):
    k = int(np.sqrt(count))
    tis = np.unique(np.linspace(0, max(n_time - max_delta - 1, 0), k).astype(int))
    njs = np.unique(np.linspace(0, n_nodes - 1, k).astype(int))
    want = [(int(i), int(j)) for i in tis for j in njs]
    got = harness._probe_points(n_time, n_nodes, max_delta, count)
    assert got == want and all(type(i) is int and type(j) is int for i, j in got)


def _unread_parameters(fn: ast.FunctionDef):
    """The parameters of ``fn`` that its body never reads.  A nested function
    reading one counts, and a zero-argument ``super()`` reads the first."""
    a = fn.args
    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
    read = set()
    for node in (n for stmt in fn.body for n in ast.walk(stmt)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            read.add(node.target.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "super" and not node.args and params):
            read.add(params[0])
    return [p for p in params if p not in read]


def test_no_geodp_function_has_an_unread_parameter():
    """Every parameter of a module-level function or method in geodp is read
    by its body.  Nested functions and lambdas are exempt, as they implement a
    caller's protocol.  Two are kept unread on purpose: ``value_function``'s
    ``n_sub``, which the benchmark's span tracer reads by name, and the
    ``dump_paths`` that ``harness.run`` hands to every experiment."""
    allowed = {("value.py", "value_function", "n_sub")} | {
        ("harness.py", fn.__name__, "dump_paths") for fn in harness._EXPERIMENTS.values()
    }
    unread = []
    for path in sorted(pathlib.Path(harness.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            methods = [(f"{node.name}.", m) for m in node.body] if isinstance(node, ast.ClassDef) else []
            for prefix, fn in [("", node)] + methods:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    unread += [(path.name, prefix + fn.name, p) for p in _unread_parameters(fn)
                               if (path.name, prefix + fn.name, p) not in allowed]
    assert unread == []


# ---------------------------------------------------------------------------
# Robustness: random small configs end in a documented exit code
# ---------------------------------------------------------------------------


def _error_classes(cls=GeodpError):
    return {cls.__name__}.union(*(_error_classes(c) for c in cls.__subclasses__()))


@st.composite
def _small_configs(draw):
    """A random small config over every experiment, manifold, catalog field,
    driver and terminal: 1-16 steps, 2-256 paths, 3-16 nodes per mesh axis.
    Many of them are config errors, which is one of the outcomes tested."""
    manifold = draw(st.sampled_from(sorted(CATALOG)))
    m = get_manifold(manifold)
    fields = draw(st.lists(st.sampled_from(CATALOG[manifold]), min_size=1, max_size=3))
    bound = st.sampled_from([0.0, 0.5, 1.0])
    lower = draw(st.lists(bound, min_size=len(fields), max_size=len(fields)))
    keys = list(_MESH_SIZES[m.factor_dims])
    axis = st.integers(3, 16)
    ladder = [sorted(draw(axis) for _ in range(3)) for _ in keys]
    paths = st.integers(2, 256)
    return {
        "experiment": draw(st.sampled_from(EXPERIMENTS)),
        "manifold": manifold,
        "fields": fields,
        "driver": {"id": draw(st.sampled_from(["zero", "constant", "linear_y", "smooth"]))},
        "terminal": {"id": draw(st.sampled_from(["coord", "constant"])),
                     "params": {"index": draw(st.integers(0, m.ambient_dim))}},
        "control_set": {"lower": lower, "upper": [lo + draw(bound) for lo in lower],
                        "grid_points_per_axis": draw(st.integers(1, 2))},
        "time": {"T": draw(st.sampled_from([0.1, 0.5, 1.0])), "n_steps": draw(st.integers(1, 16))},
        "mesh": {k: draw(axis) for k in keys},
        "ladder": [{k: sizes[level] for k, sizes in zip(keys, ladder)} for level in range(3)],
        "mc": {"n_paths": draw(paths), "picard_iters": draw(st.integers(1, 3))},
        "dpp": {"delta_steps": draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True)),
                "n_probes": draw(st.integers(1, 4)), "n_paths": draw(paths)},
        "agreement": {"levels": draw(st.integers(1, 2))},
        "estimates": {"n_instances": draw(st.integers(1, 3))},
        "seed": draw(st.integers(0, 2**31 - 1)),
    }


@settings(max_examples=120, deadline=None)
@given(cfg=_small_configs())
def test_cli_random_small_configs_end_in_a_documented_exit(cfg):
    """Exit 0 (PASS), 1 (FAIL) or 2 (config error), or exit 3 naming a
    toolkit error.  A builtin exception at exit 3 is a crash."""
    with tempfile.TemporaryDirectory() as d:
        f = os.path.join(d, "c.yaml")
        with open(f, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli_main(["run", f, "--out", os.path.join(d, "o")])
    assert rc in (0, 1, 2, 3)
    if rc == 3:
        name = re.match(r"run error: (\w+):", err.getvalue()).group(1)
        assert name in _error_classes(), err.getvalue()


def _former_write_csv(path, header, rows):
    """The reference: ``_write_csv`` as it wrote through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(
                [repr(float(c)) if isinstance(c, (float, np.floating)) else c for c in row]
            )


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[0, 1, 2, 0.5], [4, 5, 6, np.float64(1 / 3)]],
        [[1, -0.0, np.nan, np.inf], [2, -np.inf, 5e-324, np.float64(-1e300)],
         [3, np.float32(0.1), np.int64(7), 1]],
    ],
    ids=["empty", "ints-and-floats", "special-floats"],
)
def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path, rows):
    header = ["a", "b", "c", "d"]
    harness._write_csv(str(tmp_path / "new.csv"), header, rows)
    _former_write_csv(str(tmp_path / "former.csv"), header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "former.csv").read_bytes()
