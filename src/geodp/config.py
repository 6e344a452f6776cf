"""Experiment configuration: defaults, YAML parsing, validation."""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np
import yaml

from .catalog import ParameterError, _is_finite_number, get_driver, get_terminal
from .dynamics import ControlSet, TimeGrid
from .errors import ConfigError, SingularProjection
from .geometry import get_field, get_manifold
from .problem import ControlProblem
from .value import _MESH_SIZES, ManifoldMesh, make_mesh

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
    "mesh": {},  # sizes by key; value._MESH_SIZES has the keys and defaults per manifold
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


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# Accepted values, by the type of the default value: an int is accepted where
# the default is a float, a bool never as a number, and NaN or an infinity
# never where the default is a float.
_LEAF_TYPES = {
    int: (_is_int, "an integer"),
    float: (_is_finite_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _check_types(value, default, key: str) -> None:
    """Raise ConfigError naming the dotted key of the first value whose type
    differs from that of its default: mappings are checked key by key (keys
    without a default are not checked) and a list's entries against the
    default's first entry."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(key, f"must be a mapping, got {value!r}")
        for k, v in value.items():
            if k in default and default[k] is not None:
                _check_types(v, default[k], f"{key}.{k}" if key else k)
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(key, f"must be a list, got {value!r}")
        for i, v in enumerate(value):
            _check_types(v, default[0], f"{key}[{i}]")
    else:
        accepts, what = _LEAF_TYPES[type(default)]
        if not accepts(value):
            raise ConfigError(key, f"must be {what}, got {value!r}")


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
        _check_types(r, DEFAULTS, "")
        if r["x0"] is not None:
            _check_types(r["x0"], [0.0], "x0")
        for key, sizes in [("mesh", r["mesh"])] + [
            (f"ladder[{k}]", s) for k, s in enumerate(r["ladder"])
        ]:
            for name, n in sizes.items():
                if not _is_int(n):
                    raise ConfigError(f"{key}.{name}", f"mesh sizes must be integers, got {n!r}")
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
            except (KeyError, ValueError) as e:
                raise ConfigError("fields", str(e)) from e
        try:
            driver = get_driver(r["driver"]["id"], r["driver"].get("params"))
        except KeyError as e:
            raise ConfigError("driver.id", str(e)) from e
        except ParameterError as e:
            raise ConfigError(f"driver.params.{e.name}", str(e)) from e
        try:
            get_terminal(r["terminal"]["id"], r["terminal"].get("params"))
        except KeyError as e:
            raise ConfigError("terminal.id", str(e)) from e
        except ParameterError as e:
            raise ConfigError(f"terminal.params.{e.name}", str(e)) from e
        index = r["terminal"]["params"]["index"]
        if r["terminal"]["id"].strip() == "coord" and not 0 <= index < m.ambient_dim:
            raise ConfigError(
                "terminal.params.index", f"must be in [0, {m.ambient_dim}) on {m.name}, got {index}"
            )
        cs = r["control_set"]
        d = len(r["fields"]) - 1
        if len(cs["lower"]) != d + 1 or len(cs["upper"]) != d + 1:
            raise ConfigError("control_set", f"bounds must have length d+1 = {d + 1}")
        try:
            self._control_set()
        except (TypeError, ValueError) as e:
            raise ConfigError("control_set", str(e)) from e
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
        for key in ("mc.n_paths", "mc.picard_iters", "mc.basis_degree", "dpp.n_paths",
                    "dpp.n_probes", "estimates.n_instances", "agreement.levels"):
            section, name = key.split(".")
            if r[section][name] < 1:
                raise ConfigError(key, "must be >= 1")
        if r["experiment"] == "oracle-circle" and r["mc"]["n_paths"] < 2:
            raise ConfigError("mc.n_paths", "oracle-circle needs >= 2 paths for its standard error")
        if r["experiment"] == "dpp-check":
            deltas = r["dpp"]["delta_steps"]
            if not deltas or not all(1 <= ds <= tm["n_steps"] for ds in deltas):
                raise ConfigError(
                    "dpp.delta_steps", f"need at least one entry, each in [1, n_steps = {tm['n_steps']}]"
                )
        meshes = [("mesh", r["mesh"])]
        if r["experiment"] == "convergence-table":
            if len(r["ladder"]) < 3:
                raise ConfigError("ladder", "need at least 3 levels")
            meshes += [(f"ladder[{k}]", sizes) for k, sizes in enumerate(r["ladder"])]
        keys = _MESH_SIZES[m.factor_dims]
        for key, sizes in meshes:
            unknown = sorted(set(sizes) - set(keys))
            if unknown:
                raise ConfigError(
                    key, f"unknown mesh size keys {unknown} on {m.name}; its keys are {list(keys)}"
                )
            try:
                self.build_mesh(sizes)
            except (TypeError, ValueError) as e:
                raise ConfigError(key, str(e)) from e
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

    def x0(self) -> np.ndarray:
        if self.raw["x0"] is not None:
            m = get_manifold(self.raw["manifold"])
            return m.project(np.asarray(self.raw["x0"], dtype=float))
        return self.build_mesh().nodes[0]


def print_defaults() -> str:
    return yaml.safe_dump(DEFAULTS, sort_keys=True)
