"""Command line front end.

Subcommands:

* ``relcon run <config>``     execute a config (honoring its sweep section)
* ``relcon sweep <config>``   same, but requires a non-empty sweep section
* ``relcon report <dir>``     summarize a results directory
* ``relcon selftest``         run the built-in verification suites

Common flags: ``--seed`` replaces the seed axis with one seed, ``--out``
overrides the output directory, ``--parallel N`` runs independent sweep
cells concurrently, ``--dump-relations e1,e2`` writes relation and
distance matrix CSVs at those epochs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import experiments, selftest
from .errors import ConfigError


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="path to the experiment config file")
    sub.add_argument("--seed", type=int, default=None,
                     help="override: run only this training seed")
    sub.add_argument("--out", default=None, help="override the output directory")
    sub.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="run up to N sweep cells concurrently")
    sub.add_argument("--dump-relations", default=None, metavar="EPOCHS",
                     help="comma-separated epochs at which to dump relation matrices")


def _apply_overrides(cfg: experiments.ExperimentConfig, args) -> experiments.ExperimentConfig:
    if args.seed is not None:
        cfg.train = dataclasses.replace(cfg.train, seed=args.seed)
        cfg.sweep = dataclasses.replace(cfg.sweep, seeds=(args.seed,))
    if args.out is not None:
        cfg.output = dataclasses.replace(cfg.output, dir=args.out)
    if args.dump_relations is not None:
        cfg = experiments.with_dump_relations(cfg, args.dump_relations)
    return cfg


def _cmd_run(args, require_sweep: bool) -> int:
    cfg = experiments.parse_config(args.config)
    if require_sweep and cfg.sweep.empty:
        raise ConfigError("'relcon sweep' needs a [sweep] section; use 'relcon run' otherwise")
    cfg = _apply_overrides(cfg, args)
    report = experiments.run_experiment(cfg, parallel=args.parallel)
    experiments.emit_reports(report, cfg.output.dir)
    print(f"wrote {len(report.rows)} rows to {cfg.output.dir}/results.csv "
          f"({report.wall_time_s:.1f}s)")
    for row in report.rows:
        if row.error:
            print(f"  FAILED {row.run_name}: {row.error}", file=sys.stderr)
    return 1 if report.failed else 0


def _print_table(rows: list[dict], columns: list[str]) -> None:
    widths = {c: max(len(c), *(len(_cell(r, c)) for r in rows)) for c in columns}
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
    variants = {r["variant"] for r in rows}
    baseline = args.baseline if args.baseline in variants else None
    if baseline:
        print(f"deltas vs {baseline}:")
        table = experiments.compare_table(rows, baseline)
        _print_table(table, ["variant", "beta", "labeled_fraction", "runs",
                             *(f"d_{m}" for m in experiments._METRIC_NAMES)])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relcon",
        description="semi-supervised self-ensembling experiments with "
                    "sample-relation consistency")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(subs.add_parser("run", help="run a config"))
    _add_run_flags(subs.add_parser("sweep", help="run a config's sweep grid"))
    rep = subs.add_parser("report", help="summarize a results directory")
    rep.add_argument("dir")
    rep.add_argument("--baseline", default="baseline",
                     help="variant used as the delta reference")
    subs.add_parser("selftest", help="run built-in verification suites")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, require_sweep=False)
        if args.command == "sweep":
            return _cmd_run(args, require_sweep=True)
        if args.command == "report":
            return _cmd_report(args)
        return 1 if selftest.run_all() else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
