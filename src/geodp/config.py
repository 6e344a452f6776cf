"""Experiment configuration: defaults, YAML parsing, validation."""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np
import yaml

from .bsde import _check_contraction
from .catalog import ParameterError, _is_finite_number, _not_finite_text, get_driver, get_terminal
from .dynamics import ControlSet, TimeGrid
from .errors import ConfigError, ContractionViolated, SingularProjection
from .geometry import get_field, get_manifold
from .problem import ControlProblem
from .value import _MAX_DT, _MESH_SIZES, ManifoldMesh, make_mesh

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


# The error text of a rejected value, by the type of the default value: an
# int is accepted where the default is a float, a bool never as a number, and
# NaN or an infinity never where the default is a float.
_LEAF_TYPES = {
    int: (_is_int, lambda v: f"must be an integer, got {v!r}"),
    float: (_is_finite_number, _not_finite_text),
    str: (lambda v: isinstance(v, str), lambda v: f"must be a string, got {v!r}"),
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
        accepts, message = _LEAF_TYPES[type(default)]
        if not accepts(value):
            raise ConfigError(key, message(value))


@dataclass
class ExperimentConfig:
    """An experiment config, validated on construction (ConfigError names the
    key at fault).  Validation builds the problem, time grid, mesh, ladder
    and x0 it checks and keeps them; the builders return those same objects,
    which callers only read."""

    raw: Dict[str, Any]

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "ExperimentConfig":
        return cls(raw=_deep_merge(DEFAULTS, data or {}))

    @classmethod
    def from_yaml(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(read_yaml(path))

    def __getitem__(self, key):
        return self.raw[key]

    # -- validation ----------------------------------------------------------

    def __post_init__(self) -> None:
        r = self.raw
        _check_types(r, DEFAULTS, "")
        if r["x0"] is not None:
            _check_types(r["x0"], [0.0], "x0")
        meshes = [("mesh", r["mesh"])] + [(f"ladder[{k}]", s) for k, s in enumerate(r["ladder"])]
        for key, sizes in meshes:
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
        try:
            fields = [get_field(m, fid) for fid in r["fields"]]
        except (KeyError, ValueError) as e:
            raise ConfigError("fields", str(e)) from e
        built = []
        for section, get in (("driver", get_driver), ("terminal", get_terminal)):
            r[section]["id"] = r[section]["id"].strip()  # as the catalog strips it
            try:
                built.append(get(r[section]["id"], r[section].get("params")))
            except KeyError as e:
                raise ConfigError(f"{section}.id", str(e)) from e
            except ParameterError as e:
                raise ConfigError(f"{section}.params.{e.name}", str(e)) from e
        driver, terminal = built
        index = r["terminal"]["params"]["index"]
        if r["terminal"]["id"] == "coord" and not 0 <= index < m.ambient_dim:
            raise ConfigError(
                "terminal.params.index", f"must be in [0, {m.ambient_dim}) on {m.name}, got {index}"
            )
        cs = r["control_set"]
        d = len(r["fields"]) - 1
        if len(cs["lower"]) != d + 1 or len(cs["upper"]) != d + 1:
            raise ConfigError("control_set", f"bounds must have length d+1 = {d + 1}")
        try:
            controls = ControlSet(cs["lower"], cs["upper"], cs["grid_points_per_axis"])
        except (TypeError, ValueError) as e:
            raise ConfigError("control_set", str(e)) from e
        self._problem = ControlProblem(m, fields, driver, terminal, controls)
        if d == 0 and r["driver"]["id"] == "smooth":
            raise ConfigError("driver.id", "the smooth driver reads z_0: it needs a diffusion field")
        if d == 0 and r["experiment"] == "estimates":
            raise ConfigError("fields", "estimates needs a diffusion field: its driver reads z_0")
        tm = r["time"]
        if tm["n_steps"] < 1:
            raise ConfigError("time.n_steps", "must be >= 1")
        try:
            grid = self._grid = TimeGrid(float(tm["t0"]), float(tm["T"]), int(tm["n_steps"]))
        except ValueError as e:
            raise ConfigError("time", str(e)) from e
        try:
            _check_contraction(driver, grid)
        except ContractionViolated as e:
            raise ConfigError("time.n_steps", f"driver {e}") from e
        if r["experiment"] in ("dpp-check", "solver-agreement") and grid.dt > _MAX_DT:
            raise ConfigError(
                "time.n_steps", f"dt = {grid.dt:.3g} exceeds the value table's {_MAX_DT} bound"
            )
        for key in ("mc.n_paths", "mc.picard_iters", "mc.basis_degree", "dpp.n_paths",
                    "dpp.n_probes", "estimates.n_instances", "agreement.levels"):
            section, name = key.split(".")
            if r[section][name] < 1:
                raise ConfigError(key, "must be >= 1")
        tols = r["tolerances"]
        for name in DEFAULTS["tolerances"]:
            if tols[name] < 0:
                raise ConfigError(f"tolerances.{name}", f"must be >= 0, got {tols[name]!r}")
        if not 0 < tols["cfl_limit"] <= 1:
            # Above 1 the weight 1 - dt*sum v_a^2/h^2 on u(x) is negative: not monotone.
            raise ConfigError("tolerances.cfl_limit", "must be in (0, 1]")
        for key in ("mu", "seed"):
            if r[key] < 0:
                raise ConfigError(key, f"must be >= 0, got {r[key]!r}")
        if r["experiment"] == "oracle-circle" and r["mc"]["n_paths"] < 2:
            raise ConfigError("mc.n_paths", "oracle-circle needs >= 2 paths for its standard error")
        if r["experiment"] == "dpp-check":
            deltas = r["dpp"]["delta_steps"]
            if not deltas or not all(1 <= ds <= tm["n_steps"] for ds in deltas):
                raise ConfigError(
                    "dpp.delta_steps", f"need at least one entry, each in [1, n_steps = {tm['n_steps']}]"
                )
            if len(set(deltas)) != len(deltas):
                raise ConfigError("dpp.delta_steps", f"each delta may appear once, got {deltas}")
        if r["experiment"] != "convergence-table":
            meshes = meshes[:1]  # only convergence-table reads the ladder
        elif len(r["ladder"]) < 3:
            raise ConfigError("ladder", "need at least 3 levels")
        keys = _MESH_SIZES[m.factor_dims]
        kept = []
        for key, sizes in meshes:
            unknown = sorted(set(sizes) - set(keys))
            if unknown:
                raise ConfigError(
                    key, f"unknown mesh size keys {unknown} on {m.name}; its keys are {list(keys)}"
                )
            try:
                mesh = make_mesh(m, sizes)
            except (TypeError, ValueError) as e:
                raise ConfigError(key, str(e)) from e
            if len(kept) > 1 and mesh.n_nodes <= kept[-1].n_nodes:  # kept[0] is the mesh
                raise ConfigError(key, f"a ladder must refine: {mesh.n_nodes} nodes after {kept[-1].n_nodes}")
            kept.append(mesh)
        self._mesh, *self._ladder = kept
        if r["x0"] is None:
            self._x0 = self._mesh.nodes[0].copy()
        else:
            if len(r["x0"]) != m.ambient_dim:
                raise ConfigError("x0", f"must have {m.ambient_dim} coordinates")
            try:
                self._x0 = m.project(np.asarray(r["x0"], dtype=float))
            except SingularProjection as e:
                raise ConfigError("x0", f"cannot be projected onto {m.name}: {e}") from e
        if r["experiment"] in ("oracle-circle", "convergence-table"):
            self._check_heat_problem()

    def _check_heat_problem(self) -> None:
        """oracle-circle and convergence-table compare against the closed form
        of ``harness._heat_reference``: a vanishing driver (K = K0 = 0) and no
        drift (v_0 A_0 = 0) under the first grid control, which for
        convergence-table is the only one.  It also needs an affine terminal,
        and ``get_terminal`` builds no other."""
        what = self.raw["experiment"]
        prob = self._problem
        if not prob.driver.vanishes:
            raise ConfigError("driver.id", f"{what} requires a vanishing driver (K = K0 = 0)")
        controls = prob.controls.grid()
        if np.any(controls[0][0] * prob.fields[0].A != 0.0):
            drift = f"'{prob.fields[0].id}' at v0 = {float(controls[0][0])!r}"
            raise ConfigError("fields", f"{what} requires zero drift, got {drift}")
        if what == "convergence-table" and len(controls) != 1:
            raise ConfigError("control_set", "convergence-table requires a singleton control grid")

    # -- builders ------------------------------------------------------------

    def build_problem(self) -> ControlProblem:
        return self._problem

    def build_grid(self) -> TimeGrid:
        return self._grid

    def build_mesh(self) -> ManifoldMesh:
        """The validated mesh of ``mesh``."""
        return self._mesh

    def build_ladder(self) -> List[ManifoldMesh]:
        """The validated meshes of ``ladder``, coarsest first, for
        convergence-table; empty for every other experiment."""
        return self._ladder

    def x0(self) -> np.ndarray:
        """``x0`` projected onto the manifold, or a copy of the mesh's first node."""
        return self._x0


def read_yaml(path: str) -> dict:
    """The mapping a YAML config file holds, not yet merged or validated."""
    # Read as bytes, so that yaml reports an undecodable file as a YAMLError.
    try:
        with open(path, "rb") as fh:
            data = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as e:
        raise ConfigError("<root>", f"cannot read {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a mapping")
    return data


def print_defaults() -> str:
    return yaml.safe_dump(DEFAULTS, sort_keys=True)
