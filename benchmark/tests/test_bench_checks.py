"""tol_ratio extraction, digest checks, and traced-run byte identity."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402


def _report(tmp_path, experiment, metrics, tolerances, files=None):
    payload = {"experiment": experiment, "seed": 1, "metrics": metrics,
               "tolerances": tolerances, "pass": True}
    (tmp_path / "metrics.json").write_text(json.dumps(payload))
    for name, text in (files or {}).items():
        (tmp_path / name).write_text(text)
    return str(tmp_path)


def test_tol_ratio_estimates_takes_worst_of_flow_and_stability(tmp_path):
    out = _report(
        tmp_path, "estimates",
        {"flow_lhs": 0.1, "flow_rhs": 1.0},
        {"stability_slack": 0.25},
        {"stability.csv": "instance,lhs,rhs,beta0,pass\n0,0.5,2.0,16.0,1\n1,1.0,2.0,16.0,1\n"},
    )
    assert W.tol_ratio(out) == pytest.approx(1.0 / (2.0 * 1.25))


def test_tol_ratio_dpp(tmp_path):
    out = _report(tmp_path, "dpp-check", {"max_residual": 0.005}, {"dpp_max_residual": 0.02})
    assert W.tol_ratio(out) == pytest.approx(0.25)


def test_tol_ratio_agreement_is_worst_level(tmp_path):
    out = _report(
        tmp_path, "solver-agreement",
        {"sup_diff_level_0": 0.01, "tolerance_level_0": 0.05,
         "sup_diff_level_1": 0.02, "tolerance_level_1": 0.025},
        {},
    )
    assert W.tol_ratio(out) == pytest.approx(0.8)


def test_tol_ratio_convergence_is_lower_bound_check_over_levels_ge_1(tmp_path):
    out = _report(
        tmp_path, "convergence-table", {}, {"convergence_ratio": 2.0},
        {"convergence.csv": "level,error,ratio\n0,0.1,1.0\n1,0.025,4.0\n2,0.00625,2.5\n"},
    )
    assert W.tol_ratio(out) == pytest.approx(0.8)


def test_all_finite_flags_nan_and_inf():
    assert W.all_finite({"metrics": {"a": 1.0, "b": 0.0}})
    assert not W.all_finite({"metrics": {"a": math.nan}})
    assert not W.all_finite({"metrics": {"a": math.inf}})


def test_digest_mismatch_names_changed_missing_and_extra_files(tmp_path):
    (tmp_path / "a.csv").write_text("1\n")
    (tmp_path / "b.csv").write_text("2\n")
    got = W.report_digests(str(tmp_path))
    assert W.digest_mismatches(got, dict(got)) == []
    stored = dict(got)
    stored["a.csv"] = "0" * 64
    del stored["b.csv"]
    stored["c.csv"] = got["b.csv"]
    assert W.digest_mismatches(got, stored) == ["a.csv", "b.csv", "c.csv"]


def test_workload_configs_validate():
    from geodp.config import ExperimentConfig

    for name in W.WORKLOADS:
        cfg = ExperimentConfig.from_dict(W.workload_config(name, 7))
        assert cfg["seed"] == 7 and cfg["n_workers"] == 1
        assert cfg["experiment"] in W.TOL_RATIO


def test_traced_run_writes_identical_report_files(tmp_path):
    from geodp import harness
    from geodp.config import ExperimentConfig

    cfg = {"experiment": "dpp-check", "driver": {"id": "smooth"},
           "control_set": {"lower": [0, 0.5], "upper": [0, 1], "grid_points_per_axis": 2},
           "time": {"n_steps": 16}, "mesh": {"n_theta": 32},
           "mc": {"n_sub": 64}, "dpp": {"n_paths": 256, "n_probes": 4}}
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    harness.run(ExperimentConfig.from_dict(cfg), out_dir=str(plain))
    tr = Tracer().install()
    try:
        harness.run(ExperimentConfig.from_dict(cfg), out_dir=str(traced))
    finally:
        tr.uninstall()
    assert W.report_digests(str(plain)) == W.report_digests(str(traced))
    names = set(tr.span_table()[0])
    assert {"harness.run", "value.value_function", "value.dpp_residual_check", "mesh.interpolate",
            "dynamics.simulate", "rng.normal_increments", "bsde.backward_sweep",
            "bsde.gram_solve", "geometry.project", "value.export_value_field"} <= names
