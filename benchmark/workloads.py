"""Workload definitions and the output checks applied to every run.

Each workload is a YAML override of ``geodp.config.DEFAULTS`` for one
experiment.  The checks read only the report files an experiment writes
(``metrics.json`` plus its CSV artifacts), so they judge a run exactly as a
user of ``geodp run`` would.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from typing import Callable, Dict, List

WORKLOADS: Dict[str, dict] = {
    "circle-mc": {
        "why": "Monte Carlo and regression: 50 BSDE stability instances and a 32768-path flow check; no value table or HJB",
        "config": {"experiment": "estimates", "mc": {"n_paths": 32768}, "estimates": {"n_instances": 50}},
    },
    "sphere-dp": {
        "why": "dynamic programming on the sphere mesh with a nonlinear driver and two controls; value layer dominates",
        "config": {
            "experiment": "dpp-check",
            "manifold": "sphere2",
            "fields": ["zero", "rot_z"],
            "driver": {"id": "smooth"},
            "control_set": {"lower": [0, 0.5], "upper": [0, 1], "grid_points_per_axis": 2},
            "mesh": {"n_lat": 16, "n_lon": 32},
            "time": {"n_steps": 32},
        },
    },
    "torus-agree": {
        "why": "torus heat agreement: value table on a periodic bilinear mesh, HJB, and an 11 MB CSV export",
        "config": {
            "experiment": "solver-agreement",
            "manifold": "torus2",
            "fields": ["zero", "rot1", "rot2"],
            "control_set": {"lower": [0, 1, 1], "upper": [0, 1, 1]},
            "mesh": {"n1": 28, "n2": 28},
            "time": {"n_steps": 12},
        },
    },
    "circle-pde": {
        "why": "HJB convergence ladder on the circle: about 80k small interpolate calls, no Monte Carlo",
        "config": {
            "experiment": "convergence-table",
            "ladder": [{"n_theta": 100}, {"n_theta": 200}, {"n_theta": 400}],
        },
    },
}

DEFAULT_SEED = 12345


def workload_config(name: str, seed: int) -> dict:
    """The config mapping a run of ``name`` with ``seed`` hands to geodp."""
    cfg = json.loads(json.dumps(WORKLOADS[name]["config"]))
    cfg["seed"] = int(seed)
    cfg["n_workers"] = 1
    return cfg


# ---------------------------------------------------------------------------
# tol_ratio: the experiment's own pass rule as (largest checked quantity) /
# (its bound); lower-bound checks contribute bound / quantity.  A run passes
# exactly when tol_ratio <= 1.
# ---------------------------------------------------------------------------


def _read_csv(path: str) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _ratio_estimates(m: dict, out_dir: str) -> float:
    slack = float(m["tolerances"]["stability_slack"])
    worst = float(m["metrics"]["flow_lhs"]) / float(m["metrics"]["flow_rhs"])
    for row in _read_csv(os.path.join(out_dir, "stability.csv")):
        worst = max(worst, float(row["lhs"]) / (float(row["rhs"]) * (1.0 + slack)))
    return worst


def _ratio_dpp(m: dict, out_dir: str) -> float:
    return float(m["metrics"]["max_residual"]) / float(m["tolerances"]["dpp_max_residual"])


def _ratio_agreement(m: dict, out_dir: str) -> float:
    met = m["metrics"]
    levels = sorted(int(k.rsplit("_", 1)[1]) for k in met if k.startswith("sup_diff_level_"))
    if not levels:
        raise ValueError("metrics.json has no sup_diff_level_* entries")
    return max(float(met[f"sup_diff_level_{l}"]) / float(met[f"tolerance_level_{l}"]) for l in levels)


def _ratio_convergence(m: dict, out_dir: str) -> float:
    bound = float(m["tolerances"]["convergence_ratio"])
    rows = _read_csv(os.path.join(out_dir, "convergence.csv"))
    ratios = [float(r["ratio"]) for r in rows if int(r["level"]) >= 1]
    if not ratios:
        raise ValueError("convergence.csv has no level >= 1")
    return max(bound / r if r > 0 else math.inf for r in ratios)


TOL_RATIO: Dict[str, Callable[[dict, str], float]] = {
    "estimates": _ratio_estimates,
    "dpp-check": _ratio_dpp,
    "solver-agreement": _ratio_agreement,
    "convergence-table": _ratio_convergence,
}


def read_metrics(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "metrics.json")) as fh:
        return json.load(fh)


def tol_ratio(out_dir: str) -> float:
    m = read_metrics(out_dir)
    return TOL_RATIO[m["experiment"]](m, out_dir)


def all_finite(m: dict) -> bool:
    """True when every metric value in a parsed metrics.json is finite."""
    return all(math.isfinite(float(v)) for v in m["metrics"].values())


# ---------------------------------------------------------------------------
# Report-file digests
# ---------------------------------------------------------------------------


def report_digests(out_dir: str) -> Dict[str, str]:
    """SHA-256 of every report file in ``out_dir``, keyed by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def digest_mismatches(got: Dict[str, str], stored: Dict[str, str]) -> List[str]:
    """File names whose digest differs from the stored one, or that exist on one side only."""
    return sorted(n for n in set(got) | set(stored) if got.get(n) != stored.get(n))
