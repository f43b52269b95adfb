"""Command line front end.

Subcommands:

* ``relcon run <config>``     run every cell of a config's sweep grid
* ``relcon report <dir>``     summarize a results directory
* ``relcon selftest``         run the built-in verification suites

What a run computes is set by its config file alone, which ``report.json``
echoes with its sha256. ``run`` takes two more flags that leave its
results unchanged: ``--out`` writes the run directory somewhere other than
the config's ``[output] dir``, and ``--parallel N`` runs up to N sweep
cells concurrently. A bad config or an unreadable dataset exits with status 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments, selftest
from .errors import ConfigError, FormatError


def _cmd_run(args) -> int:
    cfg = experiments.parse_config_text(Path(args.config).read_text(encoding="utf-8"))
    try:
        report = experiments.run_experiment(cfg, parallel=args.parallel)
    except (FormatError, OSError) as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    outdir = args.out or cfg.output.dir
    experiments.emit_reports(report, outdir)
    print(f"wrote {len(report.rows)} rows to {outdir}/results.csv "
          f"({report.wall_time_s:.1f}s)")
    for row in report.rows:
        if row.error:
            print(f"  FAILED {row.run_name}: {row.error}", file=sys.stderr)
    return 1 if report.failed else 0


def _print_table(rows: list[dict], columns: list[str]) -> None:
    widths = {c: max([len(c), *(len(_cell(r, c)) for r in rows)]) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(_cell(r, c).ljust(widths[c]) for c in columns))


def _cell(row: dict, column: str) -> str:
    v = row.get(column, "")
    return f"{v:.4f}" if isinstance(v, float) else str(v)


def _cmd_report(args) -> int:
    results = Path(args.dir) / "results.csv"
    if not results.exists():
        print(f"no results.csv under {args.dir}", file=sys.stderr)
        return 1
    rows = experiments.load_results_csv(results)
    summary = Path(args.dir) / "summary.csv"
    if summary.exists():
        print(summary.read_text(encoding="utf-8"))
    if args.baseline in {r["variant"] for r in rows}:
        print(f"deltas vs {args.baseline}:")
        table = experiments.compare_table(rows, args.baseline)
        _print_table(table, ["variant", "beta", "labeled_fraction", "runs",
                             *(f"d_{m}" for m in experiments._METRIC_NAMES)])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relcon",
        description="semi-supervised self-ensembling experiments with "
                    "sample-relation consistency")
    subs = parser.add_subparsers(dest="command", required=True)
    run = subs.add_parser("run", help="run every cell of a config")
    run.add_argument("config", help="path to the experiment config file")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="output directory (default: the config's [output] dir)")
    run.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="run up to N sweep cells concurrently")
    rep = subs.add_parser("report", help="summarize a results directory")
    rep.add_argument("dir")
    rep.add_argument("--baseline", default="baseline",
                     help="variant used as the delta reference")
    subs.add_parser("selftest", help="run built-in verification suites")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        return 1 if selftest.run_all() else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
