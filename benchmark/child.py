"""Run one experiment in a fresh process, as ``geodp run`` does, and report timings.

Usage: python3 benchmark/child.py CONFIG.yaml OUT_DIR SPAWN_T [--spans PATH]

SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so ``setup_s`` covers
interpreter start, imports, YAML parsing, validation and building the
problem.  ``wall_s`` runs from there until ``geodp.harness.run`` has written
every report file.  The last stdout line is one JSON object; the exit code
follows ``geodp run`` (0 pass, 1 tolerance failed, 2 config error).
"""

import json
import os
import resource
import sys
import time


def _blas_threads() -> int:
    """OpenBLAS thread count of this process, or -1 when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return -1
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def main(argv) -> int:
    config_path, out_dir, spawn_t = argv[0], argv[1], float(argv[2])
    spans_path = argv[4] if len(argv) > 4 and argv[3] == "--spans" else None

    from geodp.config import ExperimentConfig
    from geodp.errors import ConfigError
    from geodp import harness

    try:
        cfg = ExperimentConfig.from_yaml(config_path)
        cfg.build_problem()
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    t_setup = time.monotonic()

    tracer = None
    if spans_path is not None:
        from spans import Tracer

        tracer = Tracer().install()
    report = harness.run(cfg, out_dir=out_dir)
    t_done = time.monotonic()

    ru = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_s": t_setup - spawn_t,
        "wall_s": t_done - t_setup,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "passed": bool(report.passed),
        "blas_threads": _blas_threads(),
        "geodp_file": os.path.abspath(sys.modules["geodp"].__file__),
    }
    if tracer is not None:
        from spans import layer_metrics

        tracer.uninstall()
        table = tracer.span_table()
        result["layers"] = layer_metrics(*table, tracer.stats)
        result["n_spans"] = len(table[0])
        tracer.write(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
