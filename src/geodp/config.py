"""Experiment configuration: defaults, YAML parsing, validation."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np
import yaml

from .catalog import get_driver, get_terminal
from .dynamics import ControlSet, TimeGrid
from .errors import ConfigError, SingularProjection
from .geometry import get_field, get_manifold
from .problem import ControlProblem
from .value import ManifoldMesh, make_mesh

EXPERIMENTS = (
    "oracle-circle",
    "dpp-check",
    "solver-agreement",
    "estimates",
    "hypotheses",
    "convergence-table",
)

DEFAULTS: Dict[str, Any] = {
    "manifold": "circle",
    "fields": ["zero", "rot"],  # first entry is the drift field
    "driver": {"id": "zero", "params": {}},
    "terminal": {"id": "coord", "params": {"index": 0, "scale": 1.0}},
    "control_set": {"lower": [0.0, 1.0], "upper": [0.0, 1.0], "grid_points_per_axis": 1},
    "time": {"t0": 0.0, "T": 1.0, "n_steps": 64},
    "mesh": {"n_theta": 128},
    "mc": {"n_paths": 8192, "basis_degree": 2, "picard_iters": 3},
    "seed": 12345,
    "experiment": "oracle-circle",
    "x0": None,  # embedded coordinates; None = first mesh node
    "mu": 0.0,  # drift transport-Lipschitz constant for hypothesis checks
    "dpp": {"delta_steps": [1, 4], "n_probes": 16, "n_paths": 4096},
    "agreement": {"levels": 1},
    "estimates": {"n_instances": 100, "pair_distance": 0.1},
    "ladder": [{"n_theta": 32}, {"n_theta": 64}, {"n_theta": 128}],
    "tolerances": {
        "oracle_se_mult": 3.0,
        "dpp_max_residual": 2e-2,
        "agreement_sup": 5e-2,
        "stability_slack": 0.05,
        "flow_C": 50.0,
        "cfl_limit": 0.4,
        "h2_threshold": 1e-8,
        "c_bar": 10.0,
        "on_manifold": 1e-9,
        "convergence_ratio": 2.0,
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


@dataclass
class ExperimentConfig:
    raw: Dict[str, Any]

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "ExperimentConfig":
        cfg = cls(raw=_deep_merge(DEFAULTS, data or {}))
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a mapping")
        return cls.from_dict(data)

    def __getitem__(self, key):
        return self.raw[key]

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        r = self.raw
        if r["experiment"] not in EXPERIMENTS:
            raise ConfigError("experiment", f"unknown experiment '{r['experiment']}'")
        try:
            m = get_manifold(r["manifold"])
        except KeyError as e:
            raise ConfigError("manifold", str(e)) from e
        if not r["fields"]:
            raise ConfigError("fields", "need at least a drift field id")
        for fid in r["fields"]:
            try:
                get_field(m, fid)
            except KeyError as e:
                raise ConfigError("fields", str(e)) from e
        try:
            driver = get_driver(r["driver"]["id"], r["driver"].get("params"))
        except KeyError as e:
            raise ConfigError("driver.id", str(e)) from e
        try:
            get_terminal(r["terminal"]["id"], r["terminal"].get("params"))
        except KeyError as e:
            raise ConfigError("terminal.id", str(e)) from e
        cs = r["control_set"]
        d = len(r["fields"]) - 1
        if len(cs["lower"]) != d + 1 or len(cs["upper"]) != d + 1:
            raise ConfigError("control_set", f"bounds must have length d+1 = {d + 1}")
        try:
            self._control_set()
        except (TypeError, ValueError) as e:
            raise ConfigError("control_set", str(e)) from e
        try:
            self.build_mesh()
        except (TypeError, ValueError) as e:
            raise ConfigError("mesh", str(e)) from e
        tm = r["time"]
        if not tm["t0"] < tm["T"]:
            raise ConfigError("time", "need t0 < T")
        if tm["n_steps"] < 1:
            raise ConfigError("time.n_steps", "must be >= 1")
        dt = (tm["T"] - tm["t0"]) / tm["n_steps"]
        if driver.lipschitz_K * dt >= 1.0:
            raise ConfigError(
                "time.n_steps", f"driver K*dt = {driver.lipschitz_K * dt:.3g} >= 1"
            )
        if r["experiment"] in ("dpp-check", "solver-agreement") and dt > 0.1:
            raise ConfigError(
                "time.n_steps", f"dt = {dt:.3g} exceeds the value table's 0.1 bound"
            )
        if r["mc"]["n_paths"] < 1:
            raise ConfigError("mc.n_paths", "must be >= 1")
        if r["experiment"] == "convergence-table":
            if len(r["ladder"]) < 3:
                raise ConfigError("ladder", "need at least 3 levels")
            for k, sizes in enumerate(r["ladder"]):
                try:
                    self.build_mesh(sizes)
                except (TypeError, ValueError) as e:
                    raise ConfigError(f"ladder[{k}]", str(e)) from e
        if r["x0"] is not None:
            if len(r["x0"]) != m.ambient_dim:
                raise ConfigError("x0", f"must have {m.ambient_dim} coordinates")
            try:
                m.project(np.asarray(r["x0"], dtype=float))
            except SingularProjection as e:
                raise ConfigError("x0", f"cannot be projected onto {m.name}: {e}") from e

    # -- builders ------------------------------------------------------------

    def build_problem(self) -> ControlProblem:
        r = self.raw
        m = get_manifold(r["manifold"])
        fields = [get_field(m, fid) for fid in r["fields"]]
        driver = get_driver(r["driver"]["id"], r["driver"].get("params"))
        terminal = get_terminal(r["terminal"]["id"], r["terminal"].get("params"))
        return ControlProblem(
            manifold=m, fields=fields, driver=driver, terminal=terminal,
            controls=self._control_set(),
        )

    def _control_set(self) -> ControlSet:
        cs = self.raw["control_set"]
        return ControlSet(
            lower=np.asarray(cs["lower"], dtype=float),
            upper=np.asarray(cs["upper"], dtype=float),
            grid_points_per_axis=int(cs["grid_points_per_axis"]),
        )

    def build_grid(self) -> TimeGrid:
        tm = self.raw["time"]
        return TimeGrid(t0=float(tm["t0"]), T=float(tm["T"]), n_steps=int(tm["n_steps"]))

    def build_mesh(self, sizes: Optional[dict] = None) -> ManifoldMesh:
        m = get_manifold(self.raw["manifold"])
        return make_mesh(m, sizes or self.raw["mesh"])

    def x0(self, mesh: Optional[ManifoldMesh] = None) -> np.ndarray:
        if self.raw["x0"] is not None:
            m = get_manifold(self.raw["manifold"])
            return m.project(np.asarray(self.raw["x0"], dtype=float))
        mesh = mesh or self.build_mesh()
        return mesh.nodes[0]


def print_defaults() -> str:
    return yaml.safe_dump(DEFAULTS, sort_keys=True)
