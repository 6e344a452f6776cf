"""Experiment runner: wires the catalogs from a config, executes one named
experiment, and emits deterministic CSV/JSON reports.

All report files are byte-reproducible for a fixed (config, seed); wall time
is returned to the caller but never written into the report files.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import rng
from .bsde import RegressionBasis, backward_sweep, solve_backward, stability_check
from .config import ExperimentConfig
from .dynamics import (
    BrownianGrid, TimeGrid, constant_policy, export_paths, flow_continuity_check, fork_map, simulate,
)
from .errors import ConfigError
from .hjb import TestFunctionProbe, export_hjb_field, hjb_steps_for_cfl, solve_hjb
from .hypotheses import sample_structural_modulus, uniqueness_certified
from .value import dpp_residual_check, export_value_field, value_function

CSV_SCHEMA = """\
paths.csv:        step, path, x0..x{n-1}            (embedded coordinates per step/path)
value_field.csv:  time_index, node_index, x0..x{n-1}, u, v0..v{d}   (value table + argmin control)
hjb_field.csv:    same columns and layers as value_field.csv (HJB step = time_index * stride)
dpp_residuals.csv: delta_steps, time_index, node_index, residual
convergence.csv:  level, error, ratio
stability.csv:    instance, lhs, rhs, beta0, pass
"""


@dataclass(frozen=True)
class RunReport:
    experiment: str
    metrics: Dict[str, float]
    passed: bool
    wall_time: float
    seed: int


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: List[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(
                [repr(float(c)) if isinstance(c, (float, np.floating)) else c for c in row]
            )


def _basis(cfg: ExperimentConfig) -> RegressionBasis:
    return RegressionBasis(degree=int(cfg["mc"]["basis_degree"]))


# Errors at or below this are roundoff: a run whose reference is exact (a
# constant terminal) passes on it whatever its standard error or ratio.
_ROUNDOFF = 1e-10


def _heat_problem(cfg: ExperimentConfig, what: str):
    """The problem and its first grid control v of a heat experiment: zero
    driver, coord or constant terminal and no drift (v_0 A_0 = 0), the
    problems that ``_heat_reference`` solves in closed form."""
    if cfg["driver"]["id"] != "zero":
        raise ConfigError("driver.id", f"{what} requires the zero driver")
    if cfg["terminal"]["id"] not in ("coord", "constant"):
        raise ConfigError("terminal.id", f"{what} requires a coord or constant terminal")
    prob = cfg.build_problem()
    v = prob.controls.grid()[0]
    if np.any(v[0] * prob.fields[0].A != 0.0):
        drift = f"'{prob.fields[0].id}' at v0 = {float(v[0])!r}"
        raise ConfigError("fields", f"{what} requires zero drift, got {drift}")
    return prob, v


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


def _heat_reference(cfg: ExperimentConfig, prob, grid: TimeGrid, v, x):
    """Closed-form value at t0 of the heat problem under the constant control
    v, at points x (..., n): c for the constant terminal, and for the coord
    terminal scale * x_i * e^{-rate (T - t0) / 2} with rate = sum_a v_a^2 w_ai,
    w_ai = -(A_a A_a)_ii.  With no drift E X_T = exp((T - t0) sum_a v_a^2
    A_a^2 / 2) x, and every catalog A_a^2 is diagonal, so coordinate i decays
    on its own; for the so(n+1) basis the sum is the Laplacian of S^n."""
    params = cfg["terminal"]["params"]
    if cfg["terminal"]["id"] == "constant":
        return float(params.get("c", 1.0))
    i = int(params["index"])
    w = np.array([-(f.A @ f.A)[i, i] for f in prob.fields[1:]])
    rate = float(np.sum(np.asarray(v[1:]) ** 2 * w))
    decay = np.exp(-rate * (grid.T - grid.t0) / 2.0)
    return float(params.get("scale", 1.0)) * x[..., i] * decay


def _exp_oracle_circle(cfg, out_dir, dump_paths):
    prob, v = _heat_problem(cfg, "oracle-circle")
    grid = cfg.build_grid()
    tol = cfg["tolerances"]
    x0 = cfg.x0()
    noise = BrownianGrid(
        grid=grid, d=prob.d, n_paths=int(cfg["mc"]["n_paths"]), seed=int(cfg["seed"])
    )
    ens = simulate(prob.manifold, prob.fields, x0, constant_policy(v), noise)
    sol = solve_backward(ens, prob.driver, prob.terminal, _basis(cfg), int(cfg["mc"]["picard_iters"]))
    phiT = prob.terminal(ens.states[-1])
    se = float(np.std(phiT, ddof=1) / np.sqrt(len(phiT)))
    reference = float(_heat_reference(cfg, prob, grid, v, x0))
    abs_error = abs(sol.y_at_t0 - reference)
    violation = ens.constraint_violation()
    metrics = {
        "estimate": sol.y_at_t0,
        "reference": reference,
        "abs_error": abs_error,
        "mc_se": se,
        "se_mult": tol["oracle_se_mult"],
        "on_manifold_violation": violation,
    }
    passed = (
        abs_error <= max(tol["oracle_se_mult"] * se, _ROUNDOFF) and violation <= tol["on_manifold"]
    )
    if dump_paths:
        export_paths(ens, os.path.join(out_dir, "paths.csv"))
    return metrics, passed


def _probe_points(n_time: int, n_nodes: int, max_delta: int, count: int = 16):
    # sorted(set(...)), not np.unique: the first np.unique call imports numpy.ma.
    k = int(np.sqrt(count))
    tis = sorted(set(np.linspace(0, max(n_time - max_delta - 1, 0), k).astype(int).tolist()))
    njs = sorted(set(np.linspace(0, n_nodes - 1, k).astype(int).tolist()))
    return [(i, j) for i in tis for j in njs]


def _exp_dpp_check(cfg, out_dir, dump_paths):
    prob = cfg.build_problem()
    grid = cfg.build_grid()
    mesh = cfg.build_mesh()
    tol = cfg["tolerances"]
    vf = value_function(prob, grid, mesh, picard_iters=int(cfg["mc"]["picard_iters"]))
    deltas = [int(d) for d in cfg["dpp"]["delta_steps"]]
    probes = _probe_points(grid.n_steps, mesh.n_nodes, max(deltas), int(cfg["dpp"]["n_probes"]))
    rows = []
    metrics = {}
    reports = []
    for ds in deltas:
        rep = dpp_residual_check(
            prob, vf, ds, probes,
            fresh_seed=rng.derive_seed(int(cfg["seed"]), 7, ds),
            n_paths=int(cfg["dpp"]["n_paths"]),
            basis=_basis(cfg),
            picard_iters=int(cfg["mc"]["picard_iters"]),
            tolerance=tol["dpp_max_residual"],
        )
        reports.append(rep)
        metrics[f"max_residual_delta_{ds}"] = rep.max_residual
        for (i, j), r in zip(rep.probes, rep.residuals):
            rows.append([ds, i, j, float(r)])
    # np.max, not max: a NaN residual of any delta is the run's maximum.
    metrics["max_residual"] = float(np.max([rep.max_residual for rep in reports]))
    export_value_field(vf, os.path.join(out_dir, "value_field.csv"))
    _write_csv(os.path.join(out_dir, "dpp_residuals.csv"),
               ["delta_steps", "time_index", "node_index", "residual"], rows)
    return metrics, all(rep.passed for rep in reports)


def _exp_solver_agreement(cfg, out_dir, dump_paths):
    prob = cfg.build_problem()
    tol = cfg["tolerances"]
    tm = cfg["time"]
    levels = int(cfg["agreement"]["levels"])
    metrics = {}
    passed = True
    mesh = cfg.build_mesh()
    n_steps = int(tm["n_steps"])
    for level in range(levels):
        grid = TimeGrid(t0=float(tm["t0"]), T=float(tm["T"]), n_steps=n_steps)
        vf = value_function(prob, grid, mesh, picard_iters=int(cfg["mc"]["picard_iters"]))
        n_hjb = hjb_steps_for_cfl(
            prob, grid.t0, grid.T, mesh,
            cfl_limit=tol["cfl_limit"],
            multiple_of=grid.n_steps,
        )
        hgrid = TimeGrid(t0=grid.t0, T=grid.T, n_steps=n_hjb)
        hf = solve_hjb(prob, hgrid, mesh, cfl_limit=tol["cfl_limit"], stride=n_hjb // grid.n_steps)
        sup = float(np.max(np.abs(vf.u - hf.u)))
        level_tol = tol["agreement_sup"] / (2**level)
        metrics[f"sup_diff_level_{level}"] = sup
        metrics[f"tolerance_level_{level}"] = level_tol
        passed = passed and sup <= level_tol
        if level == 0:
            export_value_field(vf, os.path.join(out_dir, "value_field.csv"))
            export_hjb_field(hf, os.path.join(out_dir, "hjb_field.csv"))
        mesh = mesh.refine()
        n_steps *= 2
    return metrics, passed


def _pair_direction(m, x0):
    """Unit tangent at x0 along the all-ones vector, or along the coordinate axis
    with the largest tangent part where that of all-ones is roundoff (x0 =
    (1, 1)/sqrt(2) on the circle): normalised, it would point along the normal."""
    w = m.tangent_project(x0, np.ones(m.ambient_dim))
    if np.linalg.norm(w) < 1e-8:
        axes = m.tangent_project(x0, np.eye(m.ambient_dim))
        w = axes[np.argmax(np.linalg.norm(axes, axis=-1))]
    return w / np.linalg.norm(w)


def _exp_estimates(cfg, out_dir, dump_paths):
    prob = cfg.build_problem()
    grid = cfg.build_grid()
    tol = cfg["tolerances"]
    m = prob.manifold
    seed = int(cfg["seed"])
    x0 = cfg.x0()

    # Mean-square flow continuity under shared noise.
    x1 = m.exp(x0, float(cfg["estimates"]["pair_distance"]) * _pair_direction(m, x0))
    v = prob.controls.grid()[0]
    noise = BrownianGrid(grid=grid, d=prob.d, n_paths=int(cfg["mc"]["n_paths"]), seed=seed)
    flow = flow_continuity_check(
        m, prob.fields, x0, x1,
        constant_policy(v), constant_policy(v),
        noise, C=tol["flow_C"],
    )

    # Randomized BSDE stability suite on a shared ensemble per instance; the
    # instances run in fork_map workers.
    n_inst = int(cfg["estimates"]["n_instances"])
    sgrid = TimeGrid(t0=0.0, T=0.5, n_steps=32)
    basis = _basis(cfg)

    def instances(ks):
        for k in ks:
            sk = rng.derive_seed(seed, 1000 + k)
            r = np.random.default_rng(sk)
            noise_k = BrownianGrid(grid=sgrid, d=prob.d, n_paths=2048, seed=sk)
            ens = simulate(m, prob.fields, x0, constant_policy(v), noise_k)
            C_L = float(r.uniform(0.1, 1.0))
            ua = float(r.uniform(0.0, 1.0))
            a, b = C_L * ua, C_L * (1.0 - ua)
            c1 = r.uniform(-1.0, 1.0, size=m.ambient_dim)
            c2 = r.uniform(-1.0, 1.0, size=m.ambient_dim)
            xi1 = ens.states[-1] @ c1
            xi2 = ens.states[-1] @ c2
            p1, p2 = r.uniform(-1.0, 1.0, size=2)
            phi = np.stack([p1 * ens.states[:-1, :, 0], p2 * ens.states[:-1, :, 1]])

            tanh_step = [None, None]  # (step, b * tanh(z0)): z is fixed within a step

            def driver(i, xx, y, z):
                if tanh_step[0] != i:
                    tanh_step[:] = i, b * np.tanh(z[..., 0])
                return a * np.sin(y) + tanh_step[1] + phi[:, i]

            # Both members of the pair share the ensemble, so they sweep in lockstep.
            xi = np.stack([xi1, xi2])
            pair = backward_sweep(ens.states, ens.noise.increments, sgrid, driver, xi, basis)
            rep = stability_check(pair, xi, phi, C_L, slack=tol["stability_slack"])
            yield [k, rep.lhs, rep.rhs, rep.beta0, int(rep.passed)]

    rows = fork_map(instances, n_inst)
    n_pass = sum(row[-1] for row in rows)
    _write_csv(os.path.join(out_dir, "stability.csv"),
               ["instance", "lhs", "rhs", "beta0", "pass"], rows)
    metrics = {
        "flow_lhs": flow.lhs,
        "flow_rhs": flow.rhs,
        "flow_C": flow.constant_C,
        "stability_pass_rate": n_pass / n_inst,
        "stability_instances": float(n_inst),
    }
    passed = flow.passed and n_pass == n_inst
    return metrics, passed


def _exp_hypotheses(cfg, out_dir, dump_paths):
    prob = cfg.build_problem()
    tol = cfg["tolerances"]
    seed = int(cfg["seed"])
    reports = uniqueness_certified(
        prob, mu=float(cfg["mu"]), n_samples=1000, seed=seed,
        h2_threshold=float(tol["h2_threshold"]),
    )
    probe = TestFunctionProbe(value=lambda t, x: np.asarray(x, dtype=float)[..., 0])
    reports.append(
        sample_structural_modulus(
            prob, probe, alpha_list=[1.0, 10.0], n_samples=200, seed=seed,
            C_bar=tol["c_bar"],
        )
    )
    metrics = {}
    for rep in reports:
        with open(os.path.join(out_dir, f"hypothesis_{rep.name}.json"), "w") as fh:
            fh.write(rep.to_json())
            fh.write("\n")
        metrics[f"{rep.name}_max_violation"] = rep.max_violation
        metrics[f"{rep.name}_pass"] = float(rep.passed)
    passed = all(r.passed for r in reports)
    return metrics, passed


def _exp_convergence_table(cfg, out_dir, dump_paths):
    prob, v = _heat_problem(cfg, "convergence-table")
    tm = cfg["time"]
    tol = cfg["tolerances"]
    if prob.controls.grid().shape[0] != 1:
        raise ConfigError("control_set", "convergence-table requires a singleton control grid")
    rows = []
    errors = []
    for level, sizes in enumerate(cfg["ladder"]):
        mesh = cfg.build_mesh(sizes)
        n_hjb = hjb_steps_for_cfl(prob, float(tm["t0"]), float(tm["T"]), mesh, cfl_limit=tol["cfl_limit"])
        grid = TimeGrid(t0=float(tm["t0"]), T=float(tm["T"]), n_steps=n_hjb)
        hf = solve_hjb(prob, grid, mesh, cfl_limit=tol["cfl_limit"], stride=n_hjb)
        errors.append(float(np.max(np.abs(hf.u[0] - _heat_reference(cfg, prob, grid, v, mesh.nodes)))))
    passed = True
    for level, err in enumerate(errors):
        if level == 0 or err <= _ROUNDOFF:
            ratio = 1.0  # errors at roundoff (constant-type configs): any ratio accepted
        else:
            ratio = errors[level - 1] / err
            passed = passed and ratio >= tol["convergence_ratio"]
        rows.append([level, err, ratio])
    _write_csv(os.path.join(out_dir, "convergence.csv"), ["level", "error", "ratio"], rows)
    metrics = {f"error_level_{i}": e for i, e in enumerate(errors)}
    return metrics, passed


_EXPERIMENTS = {
    "oracle-circle": _exp_oracle_circle,
    "dpp-check": _exp_dpp_check,
    "solver-agreement": _exp_solver_agreement,
    "estimates": _exp_estimates,
    "hypotheses": _exp_hypotheses,
    "convergence-table": _exp_convergence_table,
}


def run(
    cfg: ExperimentConfig,
    out_dir: str = ".",
    dump_paths: bool = False,
) -> RunReport:
    if dump_paths and cfg["experiment"] != "oracle-circle":
        raise ConfigError(
            "dump_paths", f"only oracle-circle writes paths.csv; {cfg['experiment']} has no paths"
        )
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()
    metrics, passed = _EXPERIMENTS[cfg["experiment"]](cfg, out_dir, dump_paths)
    wall = time.perf_counter() - t_start

    _write_json(
        os.path.join(out_dir, "metrics.json"),
        {
            "experiment": cfg["experiment"],
            "seed": int(cfg["seed"]),
            "metrics": metrics,
            "tolerances": cfg["tolerances"],
            "pass": bool(passed),
        },
    )
    with open(os.path.join(out_dir, "csv_schema.txt"), "w") as fh:
        fh.write(CSV_SCHEMA)
    return RunReport(
        experiment=cfg["experiment"],
        metrics=metrics,
        passed=bool(passed),
        wall_time=wall,
        seed=int(cfg["seed"]),
    )
