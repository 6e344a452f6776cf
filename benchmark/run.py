"""geodp benchmark: run experiment workloads end to end and report their metrics.

Usage (from the repository root):

    python3 benchmark/run.py --workload circle-mc [--seed 12345] [--seconds 28] [--trace 0]
    python3 benchmark/run.py --workload all            # every workload, one table

Each experiment run is a fresh single-threaded process (``child.py``) that goes
through ``ExperimentConfig`` -> ``geodp.harness.run`` exactly as ``geodp run``
does.  Runs are closed loop, one at a time, all with the experiment seed
``--seed``.  A benchmark run repeats the experiment until ``--seconds`` have
passed and reports medians; every repeat must write the same report files
byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced runs and prints the per-layer metrics.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import yaml

import workloads as W
from spans import metric_unit

BENCH_DIR = Path(__file__).resolve().parent
HARD_LIMIT_S = 165.0  # a benchmark run must end within 180 s
DIGESTS_PATH = BENCH_DIR / "digests.json"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    # One BLAS thread: the single worker is the only load on the machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment_record() -> List[str]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        caches.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''}={size}")
    return [
        f"env: python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"blas {blas.get('name', '?')} {blas.get('version', '?')}",
        f"env: nproc {len(os.sched_getaffinity(0))}, caches {' '.join(caches) or '?'}, "
        "BLAS pinned by OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
    ]


@dataclass
class Rep:
    """One experiment run in a fresh process, with its output checks."""

    traced: bool
    result: dict = field(default_factory=dict)
    error: Optional[str] = None
    timed_out: bool = False
    digests: Dict[str, str] = field(default_factory=dict)
    tol_ratio: float = math.nan

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_rep(root: Path, work: Path, workload: str, seed: int, traced: bool, timeout: float) -> Rep:
    rep = Rep(traced)
    tag = "traced" if traced else "untraced"
    out_dir = work / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cfg_path = work / f"{tag}.yaml"
    cfg_path.write_text(yaml.safe_dump(W.workload_config(workload, seed), sort_keys=True))
    spans = ["--spans", str(work / f"spans-{tag}.csv")] if traced else []
    env = child_env(root)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(cfg_path), str(out_dir),
             repr(time.monotonic())] + spans,
            cwd=root, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        rep.error, rep.timed_out = f"timed out after {timeout:.0f} s", True
        return rep
    lines = proc.stdout.strip().splitlines()
    try:
        rep.result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else {}
    except json.JSONDecodeError:
        pass
    if not rep.result:
        rep.error = f"exit code {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
        return rep
    if not rep.result["geodp_file"].startswith(str(root / "src") + os.sep):
        rep.error = f"geodp imported from {rep.result['geodp_file']}, not this checkout"
        return rep
    try:
        metrics = W.read_metrics(str(out_dir))
        rep.tol_ratio = W.tol_ratio(str(out_dir))
        rep.digests = W.report_digests(str(out_dir))
    except (OSError, KeyError, ValueError) as e:
        rep.error = f"report files unreadable: {e!r}"
        return rep
    if proc.returncode != 0 or not rep.result["passed"] or not metrics["pass"]:
        rep.error = "FAIL verdict"
    elif not W.all_finite(metrics):
        rep.error = "non-finite metric in metrics.json"
    elif not rep.tol_ratio <= 1.0:
        rep.error = f"PASS verdict but tol_ratio {rep.tol_ratio:.4g} > 1"
    return rep


def quartiles(xs: List[float]):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool, write_digests: bool):
    """Repeat the experiment until ``seconds`` pass; return (correct, summary)."""
    work = root / ".bench_work" / workload
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    reps: List[Rep] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(root, work, workload, seed, traced, HARD_LIMIT_S - (time.monotonic() - t0)))
        elapsed = time.monotonic() - t0
        per_rep = elapsed / len(reps)
        if reps[-1].timed_out:
            break
        if trace and len(reps) % 2 == 1:
            continue  # a traced run always follows its untraced twin
        if elapsed + per_rep * (2 if trace else 1) > min(seconds, HARD_LIMIT_S):
            break

    notes: List[str] = []
    ok = [r for r in reps if not r.failed]
    plain = [r for r in ok if not r.traced]
    traced_reps = [r for r in ok if r.traced]
    correct = len(ok) == len(reps) and bool(plain) and (bool(traced_reps) or not trace)
    # Every run uses the same seed, so every run must write the same bytes;
    # in a traced run this is the traced-vs-untraced identity.
    if ok:
        ref = ok[0]
        for r in ok[1:]:
            bad = W.digest_mismatches(r.digests, ref.digests)
            if bad:
                kind = "traced" if r.traced else "repeated"
                notes.append(f"{kind} run differs from the first run in {', '.join(bad)}")
                correct = False
        stored_all = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.is_file() else {}
        stored = stored_all.get(workload, {}).get(str(seed))
        if stored is None:
            notes.append(f"no stored digests for seed {seed}")
        else:
            bad = W.digest_mismatches(ref.digests, stored)
            notes.append(f"digest mismatch vs stored in {', '.join(bad)}" if bad
                         else "report files match the stored digests")
        if write_digests and correct:
            stored_all.setdefault(workload, {})[str(seed)] = ref.digests
            DIGESTS_PATH.write_text(json.dumps(stored_all, indent=1, sort_keys=True) + "\n")
    for r in reps:
        if r.failed:
            notes.append(f"{'traced' if r.traced else 'untraced'} run FAILED: {r.error}")

    summary = {"reps": len(reps), "failed": len(reps) - len(ok), "notes": notes}
    if plain:
        for key in ("wall_s", "setup_s", "peak_rss_mb", "cpu_s"):
            xs = [r.result[key] for r in plain]
            summary[key] = (statistics.median(xs), *quartiles(xs), len(xs))
        summary["wall_s_all"] = [r.result["wall_s"] for r in plain]
        summary["tol_ratio"] = plain[0].tol_ratio
        summary["blas_threads"] = sorted({r.result["blas_threads"] for r in plain})
    if plain and traced_reps:
        layers = {}
        for name in traced_reps[0].result["layers"]:
            layers[name] = statistics.median(r.result["layers"][name] for r in traced_reps)
        layers["process.cpu_s"] = summary["cpu_s"][0]
        layers["trace.overhead_frac"] = (
            statistics.median(r.result["wall_s"] for r in traced_reps) / summary["wall_s"][0] - 1.0
        )
        summary["layers"] = layers
        summary["n_spans"] = statistics.median(r.result["n_spans"] for r in traced_reps)
    return correct, summary


def print_summary(workload: str, seed: int, summary: dict, trace: bool) -> None:
    print(f"workload {workload}: seed {seed}, {summary['reps']} runs (closed loop, one experiment "
          f"at a time, n_workers 1), {summary['failed']} failed")
    print(f"  why: {W.WORKLOADS[workload]['why']}")
    if "wall_s" in summary:
        for key in ("wall_s", "setup_s", "peak_rss_mb"):
            med, q1, q3, n = summary[key]
            print(f"  {key:<12} {med:12.4f} {END_TO_END_UNITS[key]:<6} median of {n}, quartiles {q1:.4f} .. {q3:.4f}")
        print(f"  {'tol_ratio':<12} {summary['tol_ratio']:12.4f} {'ratio':<6} pass rule margin, <= 1 passes")
        print(f"  wall_s per run: {' '.join(f'{x:.3f}' for x in summary['wall_s_all'])}")
        print(f"  BLAS threads in the runs: {summary['blas_threads']}")
    frac = summary["failed"] / summary["reps"]
    print(f"  {'fail_frac':<12} {frac:12.4f} {'ratio':<6} {summary['failed']} of {summary['reps']} runs")
    if trace and "layers" in summary:
        print(f"  traced: {summary['n_spans']:.0f} spans per run")
        for name, val in summary["layers"].items():
            print(f"  {name:<34} {val:14.6g} {metric_unit(name)}")
    for note in summary["notes"]:
        print(f"  check: {note}")


def metrics_json(summary: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": v, "unit": metric_unit(k)} for k, v in summary.get("layers", {}).items()}
    out = {}
    for key, unit in END_TO_END_UNITS.items():
        if key in summary:
            out[key] = {"value": summary[key][0], "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="geodp end-to-end and per-layer benchmark")
    ap.add_argument("--workload", default="all", choices=sorted(W.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="store this run's report-file digests as the reference for its seeds")
    args = ap.parse_args(argv)

    # On SIGTERM, unwind so that subprocess.run kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "geodp" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no geodp sources under {root / 'src'}; run from the repository root\n")
        return 2

    for line in environment_record():
        print(line)
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, summary = run_workload(root, name, args.seed, args.seconds, bool(args.trace), args.write_digests)
        print_summary(name, args.seed, summary, bool(args.trace))
        correct = correct and ok
        attempted += summary["reps"]
        failed += summary["failed"]
        m = metrics_json(summary, bool(args.trace))
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
