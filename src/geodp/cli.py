"""Command-line entry point: run one configured experiment and report pass/fail."""

from __future__ import annotations

import argparse
import os
import resource
import sys

from .config import ExperimentConfig, print_defaults, read_yaml
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
        _write_stdout(print_defaults())
        return 0
    if args.config is None:
        parser.error("run requires a config path (or --print-defaults)")

    try:
        data = read_yaml(args.config)
        if args.seed is not None:
            data["seed"] = args.seed  # validated with the rest of the config
        cfg = ExperimentConfig.from_dict(data)
        report = run(cfg, out_dir=args.out, dump_paths=args.dump_paths)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except Exception as e:  # toolkit errors and any other failure of the run
        sys.stderr.write(f"run error: {type(e).__name__}: {e}\n")
        return 3
    status = "PASS" if report.passed else "FAIL"
    # The peak of the largest process of the run: this one or a fork_map worker
    # (RUSAGE_CHILDREN holds the largest reaped child's).  ru_maxrss is in KiB
    # on Linux; like the wall time it stays out of metrics.json.
    peak_rss = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    lines = [
        f"{cfg['experiment']}: {status} (seed={cfg['seed']}, wall={report.wall_time:.2f}s, "
        f"peak_rss={peak_rss:.1f}MB)\n"
    ]
    lines += [f"  {k} = {report.metrics[k]}\n" for k in sorted(report.metrics)]
    _write_stdout("".join(lines))
    return 0 if report.passed else 1


def _write_stdout(text: str) -> None:
    """Write and flush stdout.  A reader that leaves early (`geodp run cfg.yaml
    | head -1`) does not change the exit status: the reports are already on
    disk.  stdout is then pointed at devnull, so that the flush at interpreter
    exit does not raise again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
