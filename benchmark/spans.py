"""In-memory span tracing of geodp's layers, installed from outside the package.

``Tracer.install()`` rebinds each traced function at every site that binds it:
the defining module, every ``geodp`` module that imported it by name, and the
package namespace.  Methods (mesh ``interpolate``, manifold ``project`` and
``chart``) are wrapped on each class that defines them.  A span records its
name, start, end and parent; each span also carries one work count (points,
normals, path-steps, rows, ...).  Spans stay in memory until ``write``.

``layer_metrics`` turns the spans into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

EXPORT_SPANS = (
    "value.export_value_field",
    "hjb.export_hjb_field",
    "dynamics.export_paths",
    "harness._write_csv",
    "harness._write_json",
)


def _points(x) -> float:
    """Number of points in a (..., n) batch of ambient vectors."""
    shape = np.shape(x)
    return float(math.prod(shape[:-1])) if len(shape) > 1 else 1.0


def _arg_reader(fn: Callable) -> Callable:
    """``read(args, kwargs, name)``: the value ``fn`` received for parameter ``name``."""
    params = list(inspect.signature(fn).parameters.values())
    index = {p.name: i for i, p in enumerate(params)}
    default = {p.name: p.default for p in params}

    def read(args, kwargs, name):
        i = index[name]
        if i < len(args):
            return args[i]
        return kwargs.get(name, default[name])

    return read


def _file_mb(path) -> float:
    try:
        return os.path.getsize(path) / 1e6
    except OSError:
        return 0.0


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.work = array("d")
        self.stats: Dict[str, float] = {}  # name -> running max
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stat_max(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, float("-inf")), float(value))

    def wrap(
        self,
        name: str,
        fn: Callable,
        work: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Span wrapper around ``fn``.  ``work(arg)`` gives the span's work
        count and ``after(arg, result)`` records run-level stats, where
        ``arg(name)`` reads one argument of the call by parameter name."""
        nid = self._nid(name)
        reader = _arg_reader(fn) if (work or after) else None
        stack = self._stack
        name_ids, parents, starts, ends, work_counts = (
            self.name_ids, self.parents, self.starts, self.ends, self.work)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            work_counts.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if reader is not None:
                arg = functools.partial(reader, args, kwargs)
                if work is not None:
                    work_counts[idx] = float(work(arg))
                if after is not None:
                    after(arg, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _rebind_function(self, module, attr: str, name: str, work=None, after=None) -> None:
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, work, after)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("geodp"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, wrapped)

    def _rebind_method(self, cls, attr: str, name: str, work=None) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(name, orig, work))

    def install(self) -> "Tracer":
        """Wrap geodp's layer entry points; ``uninstall`` restores them."""
        from geodp import bsde, dynamics, geometry, harness, hjb, rng, value

        fn = self._rebind_function
        fn(rng, "normal_increments", "rng.normal_increments",
           work=lambda a: a("n_steps") * a("n_paths") * a("d"))
        fn(dynamics, "simulate", "dynamics.simulate",
           work=lambda a: a("noise").n_paths * a("noise").grid.n_steps)
        fn(dynamics, "flow_continuity_check", "dynamics.flow_continuity_check")
        fn(dynamics, "export_paths", "dynamics.export_paths",
           work=lambda a: a("ens").states.shape[0] * a("ens").states.shape[1],
           after=self._after_export)
        for cls in (geometry.ManifoldModel, geometry.Circle, geometry.Sphere2, geometry.FlatTorus2):
            for meth in ("project", "chart"):
                if meth in cls.__dict__:
                    self._rebind_method(cls, meth, f"geometry.{meth}",
                                        work=lambda a, k=("p" if meth == "project" else "x"): _points(a(k)))
        fn(bsde, "backward_sweep", "bsde.backward_sweep",
           work=lambda a: a("grid").n_steps,
           after=lambda a, r: self._stat_max("bsde.picard_residual_max", r.picard_residual))
        for attr in ("solve_backward", "semigroup", "conditional_expectation", "stability_check"):
            fn(bsde, attr, f"bsde.{attr}")
        # The Gram eigendecomposition is reached as np.linalg.eigh inside bsde.
        self._undo.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self.wrap("bsde.gram_solve", np.linalg.eigh)
        fn(value, "value_function", "value.value_function",
           work=lambda a: (a("mesh").n_nodes * a("prob").controls.grid().shape[0]
                           * a("n_sub") * a("grid").n_steps))
        for attr in ("dpp_residual_check", "cost_functional"):
            fn(value, attr, f"value.{attr}")
        fn(value, "export_value_field", "value.export_value_field",
           work=lambda a: a("vf").u.size,
           after=self._after_export)
        for cls in (value.ManifoldMesh, value.CircleMesh, value.SphereMesh, value.TorusMesh):
            if "interpolate" in cls.__dict__:
                self._rebind_method(cls, "interpolate", "mesh.interpolate",
                                    work=lambda a: _points(a("points")))
        fn(hjb, "solve_hjb", "hjb.solve_hjb",
           work=lambda a: a("mesh").n_nodes * a("grid").n_steps,
           after=self._after_hjb)
        for attr in ("hjb_steps_for_cfl", "shift_identity_check", "freezing_gap_report"):
            fn(hjb, attr, f"hjb.{attr}")
        fn(hjb, "export_hjb_field", "hjb.export_hjb_field",
           work=lambda a: a("hf").u.size,
           after=self._after_export)
        fn(harness, "run", "harness.run")
        fn(harness, "_write_csv", "harness._write_csv",
           work=lambda a: len(a("rows")),
           after=self._after_export)
        fn(harness, "_write_json", "harness._write_json",
           after=self._after_export)
        return self

    def _after_export(self, a, _result) -> None:
        self._stat_max("mb:" + a("path"), _file_mb(a("path")))

    def _after_hjb(self, a, hf) -> None:
        self._stat_max("hjb.cfl_ratio_max", hf.cfl_ratio)
        self._stat_max("hjb.field_mb", (hf.u.nbytes + hf.argmin_control.nbytes) / 1e6)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # -- output ---------------------------------------------------------------

    def span_table(self):
        """(names, starts, ends, parents, work) as parallel sequences."""
        names = [self.names[i] for i in self.name_ids]
        return names, list(self.starts), list(self.ends), list(self.parents), list(self.work)

    def write(self, path: str) -> None:
        """Write every span as CSV: index, name, start_s, end_s, parent, work."""
        names, starts, ends, parents, work = self.span_table()
        t0 = starts[0] if starts else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,work\n")
            for i, (n, s, e, p, w) in enumerate(zip(names, starts, ends, parents, work)):
                fh.write(f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p},{w:g}\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    return [
        (ends[i] - starts[i]) - covered_length(children.get(i, ()), starts[i], ends[i])
        for i in range(len(starts))
    ]


def _enclosing(i: int, names: Sequence[str], parents: Sequence[int], prefixes: Tuple[str, ...]) -> Optional[str]:
    """Name of the nearest ancestor of span ``i`` whose name starts with one of ``prefixes``."""
    p = parents[i]
    while p >= 0:
        if names[p].startswith(prefixes):
            return names[p]
        p = parents[p]
    return None


def _nested_in_same(i: int, names: Sequence[str], parents: Sequence[int]) -> bool:
    p = parents[i]
    while p >= 0:
        if names[p] == names[i]:
            return True
        p = parents[p]
    return False


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("mb"):
        return "MB"
    if name.endswith(("_frac", "cfl_ratio_max")):
        return "ratio"
    if name.endswith("residual_max"):
        return "1"
    return "count"


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(names, starts, ends, parents, work, stats: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a span table (see the benchmark README)."""
    selfs = self_times(starts, ends, parents)
    n = len(names)
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    incl: Dict[str, float] = {}  # inclusive time of outermost spans of a name
    tot_work: Dict[str, float] = {}
    for i in range(n):
        nm = names[i]
        calls[nm] = calls.get(nm, 0) + 1
        self_s[nm] = self_s.get(nm, 0.0) + selfs[i]
        tot_work[nm] = tot_work.get(nm, 0.0) + work[i]
        if not _nested_in_same(i, names, parents):
            incl[nm] = incl.get(nm, 0.0) + (ends[i] - starts[i])

    def c(nm):
        return float(calls.get(nm, 0))

    def s(nm):
        return self_s.get(nm, 0.0)

    def w(nm):
        return tot_work.get(nm, 0.0)

    def t(nm):
        return incl.get(nm, 0.0)

    # interpolate, attributed to its enclosing value_* or hjb span
    interp = {"value": [0, 0.0, 0.0, 0.0], "hjb": [0, 0.0, 0.0, 0.0]}  # calls, self, incl, points
    # regressions and fallbacks, from the Gram solves under each conditional expectation
    solves_under: Dict[int, int] = {}
    export_rows = 0.0
    export_incl = 0.0
    for i in range(n):
        nm = names[i]
        if nm == "mesh.interpolate":
            owner = _enclosing(i, names, parents, ("value.", "hjb."))
            if owner is not None:
                acc = interp[owner.split(".", 1)[0]]
                acc[0] += 1
                acc[1] += selfs[i]
                acc[2] += ends[i] - starts[i]
                acc[3] += work[i]
        elif nm == "bsde.gram_solve" and parents[i] >= 0 and names[parents[i]] == "bsde.conditional_expectation":
            solves_under[parents[i]] = solves_under.get(parents[i], 0) + 1
        elif nm in EXPORT_SPANS and _enclosing(i, names, parents, EXPORT_SPANS) is None:
            export_rows += work[i]
            export_incl += ends[i] - starts[i]
    regressions = float(len(solves_under))
    fallbacks = float(sum(k - 1 for k in solves_under.values()))

    return {
        "rng.normal_increments.calls": c("rng.normal_increments"),
        "rng.normal_increments.self_s": s("rng.normal_increments"),
        "rng.normals": w("rng.normal_increments"),
        "rng.normals_per_s": _rate(w("rng.normal_increments"), t("rng.normal_increments")),
        "dynamics.simulate.calls": c("dynamics.simulate"),
        "dynamics.simulate.self_s": s("dynamics.simulate"),
        "dynamics.path_steps": w("dynamics.simulate"),
        "dynamics.path_steps_per_s": _rate(w("dynamics.simulate"), t("dynamics.simulate")),
        "geometry.project.calls": c("geometry.project"),
        "geometry.project.self_s": s("geometry.project"),
        "geometry.project.points_per_s": _rate(w("geometry.project"), t("geometry.project")),
        "geometry.chart.self_s": s("geometry.chart"),
        "bsde.backward_sweep.calls": c("bsde.backward_sweep"),
        "bsde.backward_sweep.self_s": s("bsde.backward_sweep"),
        "bsde.regressions": regressions,
        "bsde.regressions_per_s": _rate(regressions, t("bsde.conditional_expectation")),
        "bsde.gram_solves": c("bsde.gram_solve"),
        "bsde.fallback_frac": fallbacks / regressions if regressions else 0.0,
        "bsde.picard_residual_max": stats.get("bsde.picard_residual_max", 0.0),
        "value.value_function.calls": c("value.value_function"),
        "value.value_function.self_s": s("value.value_function"),
        "value.evals": w("value.value_function"),
        "value.evals_per_s": _rate(w("value.value_function"), t("value.value_function")),
        "value.interpolate.calls": float(interp["value"][0]),
        "value.interpolate.self_s": interp["value"][1],
        "value.interp_points_per_s": _rate(interp["value"][3], interp["value"][2]),
        "value.dpp_residual_check.self_s": s("value.dpp_residual_check"),
        "hjb.solve_hjb.calls": c("hjb.solve_hjb"),
        "hjb.solve_hjb.self_s": s("hjb.solve_hjb"),
        "hjb.node_steps": w("hjb.solve_hjb"),
        "hjb.node_steps_per_s": _rate(w("hjb.solve_hjb"), t("hjb.solve_hjb")),
        "hjb.interpolate.calls": float(interp["hjb"][0]),
        "hjb.cfl_ratio_max": stats.get("hjb.cfl_ratio_max", 0.0),
        "hjb.field_mb": stats.get("hjb.field_mb", 0.0),
        "harness.export.self_s": sum(s(nm) for nm in EXPORT_SPANS),
        "harness.export.rows": export_rows,
        "harness.export.mb": sum(v for k, v in stats.items() if k.startswith("mb:")),
        "harness.export.rows_per_s": _rate(export_rows, export_incl),
    }
