"""Command-line entry point: run one configured experiment and report pass/fail."""

from __future__ import annotations

import argparse
import sys

from .config import ExperimentConfig, print_defaults
from .errors import ConfigError
from .harness import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geodp",
        description="Run a configured experiment for the recursive-control toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a YAML config")
    p_run.add_argument("config", nargs="?", help="path to a YAML config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=".", help="output directory for report files")
    p_run.add_argument("--dump-paths", action="store_true", help="also write raw path CSVs")
    p_run.add_argument(
        "--print-defaults", action="store_true", help="print the default config and exit"
    )
    args = parser.parse_args(argv)

    if args.print_defaults:
        sys.stdout.write(print_defaults())
        return 0
    if args.config is None:
        parser.error("run requires a config path (or --print-defaults)")

    try:
        cfg = ExperimentConfig.from_yaml(args.config)
        if args.seed is not None:
            cfg.raw["seed"] = int(args.seed)
        report = run(cfg, out_dir=args.out, dump_paths=args.dump_paths)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    status = "PASS" if report.passed else "FAIL"
    sys.stdout.write(
        f"{report.experiment}: {status} (seed={report.seed}, wall={report.wall_time:.2f}s)\n"
    )
    for k in sorted(report.metrics):
        sys.stdout.write(f"  {k} = {report.metrics[k]}\n")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
