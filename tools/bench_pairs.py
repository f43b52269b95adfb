"""Alternating parent/change pairs of one benchmark workload, kept in BENCH_<n>.json.

Run from the root of the checkout that keeps the file, with both checkouts
holding committed source trees:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload sweep_moons_te --pairs 10 --bench 16

Pair p runs ``python3 perfbench/run.py --workload W --seed p --seconds S
--trace T`` from the root of each checkout, the parent first on even pairs
and the change first on odd ones. Each run's own minor page faults
(``ru_minflt``) and peak RSS (``ru_maxrss``, KiB) come from ``os.wait4`` on
its pid, which on Linux also counts the children it reaped, such as a
sweep's workers.

The workload ``relcon_run_p1`` instead times ``relcon run --parallel 1`` on
``tools/relcon_run_p1.cfg``, two 16-epoch ``src_mt`` cells of the acceptance
ordering setup, from each checkout's ``src`` with BLAS threads pinned to 1
and the run directory in a temporary folder. Both sides run it from one
working directory, the folder of that config: the directory a run starts
from moves its fault count by thousands. ``--seconds`` and ``--seed``
do not apply to it, and ``--trace`` must be 0. Its metrics are the run's
``wall_s``, ``minor_faults`` and ``peak_rss_mb``, lower being better on each,
with no bounds; a run that exits non-zero counts as one failed op.

The file keeps one summary per workload: for each side the ops attempted and
failed, whether every output check passed, and the median and quartiles
(numpy linear percentiles 25 and 75) of every metric and of ``ru_minflt``,
plus the number of pairs in which the change did better on each metric and
the number of ties, which count for neither side; the direction of "better"
comes from the change's ``BENCHMARK.json``. For each end-to-end metric,
``worse_by`` holds the change median's shift from the parent median,
relative to the parent median and signed so that positive is worse, next to
that metric's ``bound``, and ``within_bound`` says whether the shift is at
most the bound. ``parent_spread`` is the parent's interquartile range over
its median, and ``resolved`` says whether that spread is at most the bound:
a metric whose runs spread wider than its bound is reported as unresolved,
not as unchanged. Untraced pairs summarise the end-to-end metrics under
``summary``; with ``--trace 1`` the per-layer metrics go under
``traced_rounds``. Every run's result is kept under ``runs``. Running again
for a workload replaces its summary and runs of the same ``--trace`` and
keeps the rest of the file.

Each summary's ``trees`` names the two trees it compared: for each side the
commit checked out at its root (``git rev-parse HEAD``) and whether any
tracked file differs from that commit (``git status --porcelain
--untracked-files=no`` prints anything); both are null where the root is
not the top of a git checkout.

``--claim METRIC`` also records under the summary's ``claim`` whether the
pairs support claiming a gain on METRIC: the change must win at least nine
tenths of the pairs, a tie counting for neither side, and the gap between
the two medians, in the direction of "better", must be larger than the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_WORKLOAD = "relcon_run_p1"
RUN_CONFIG = Path(__file__).resolve().parent / "relcon_run_p1.cfg"
RUN_METRICS = {"wall_s": "s", "minor_faults": "count", "peak_rss_mb": "MiB"}


def run_child(cmd: list[str], cwd: Path, env: dict | None):
    """Run ``cmd`` from ``cwd`` in ``env`` (None: this process's) to its end.
    Returns its exit code, stdout and stderr, its wall time, and its own
    rusage from ``os.wait4``; ``getrusage(RUSAGE_CHILDREN)`` would keep
    ``ru_maxrss`` as a running maximum over every child this process has reaped."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), wall_s, usage)


def run_result(code: int, wall_s: float, usage) -> dict:
    """The result of one ``relcon run`` in perfbench's layout: one op, failed
    unless it exited 0, and the values of ``RUN_METRICS``."""
    values = {"wall_s": wall_s, "minor_faults": usage.ru_minflt,
              "peak_rss_mb": usage.ru_maxrss / 1024}
    return {"attempted": 1, "failed": int(code != 0), "correct": code == 0,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in RUN_METRICS.items()}}


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run from ``root``: its parsed result, exit code, wall
    time, minor faults and peak RSS."""
    if workload == RUN_WORKLOAD:
        env = {**os.environ, **dict.fromkeys(THREAD_ENV, "1"),
               "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                           os.environ.get("PYTHONPATH")]))}
        with tempfile.TemporaryDirectory() as out:
            code, _, stderr, wall_s, usage = run_child(
                [sys.executable, "-m", "relcon.cli", "run", str(RUN_CONFIG), "--out", out,
                 "--parallel", "1"], RUN_CONFIG.parent, env)
        result = run_result(code, wall_s, usage)
        if code:
            print(f"{root}: relcon run exited {code}; stderr:\n{stderr}", file=sys.stderr)
    else:
        code, stdout, stderr, wall_s, usage = run_child(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)], root, None)
        lines = stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
            print(f"{root}: no result line; stderr:\n{stderr}", file=sys.stderr)
    return {"workload": workload, "pair": seed, "seed": seed, "trace": trace,
            "seconds": seconds, "exit": code, "result": result,
            "ru_minflt": usage.ru_minflt, "ru_maxrss_kb": usage.ru_maxrss,
            "wall_s": round(wall_s, 3)}


def metric_rules(workload: str, change_root: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Each metric's direction of "better", and the bound of each end-to-end
    metric: from the change's ``BENCHMARK.json``, or ``RUN_METRICS`` with no
    bounds for ``RUN_WORKLOAD``."""
    if workload == RUN_WORKLOAD:
        return dict.fromkeys(RUN_METRICS, "lower"), {}
    spec = json.loads((change_root / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def tree_state(root: Path) -> dict:
    """The commit checked out at ``root`` and whether a tracked file differs
    from it; both None where ``root`` is not the top of a git checkout."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)

    try:
        top = git("rev-parse", "--show-toplevel", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except OSError:   # no git on the path
        return {"head": None, "dirty": None}
    lines = top.stdout.splitlines()
    if top.returncode or status.returncode or Path(lines[0]).resolve() != root.resolve():
        return {"head": None, "dirty": None}
    return {"head": lines[1], "dirty": bool(status.stdout.strip())}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def worse_shift(parent: float, change: float, better: str) -> float:
    """How far ``change`` is worse than a positive ``parent``, relative to
    ``parent``; negative when it is better."""
    shift = (change - parent) if better == "lower" else (parent - change)
    return shift / parent


def won_and_tied(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """How many pairs ``change`` won, and how many tied, which count for
    neither side."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return won, sum(c == p for p, c in zip(parent, change))


def judge_claim(parent: list[float], change: list[float], better: str) -> dict:
    """Whether paired values support claiming that ``change`` is better: it
    wins at least nine tenths of the pairs (a tie is neither a win nor a
    loss), and its median beats the parent's by more than the parent's
    interquartile range."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    won, tied = won_and_tied(parent, change, better)
    q = quartiles(parent)
    gap = sign * (float(np.median(change)) - q["median"])
    iqr = q["q3"] - q["q1"]
    wins_met, gap_met = 10 * won >= 9 * pairs, gap > iqr
    return {"pairs": pairs, "won": won, "tied": tied, "lost": pairs - won - tied,
            "median_gap": gap, "parent_iqr": iqr, "wins_met": wins_met, "gap_met": gap_met,
            "met": wins_met and gap_met}


def summarise(runs: list[dict], better: dict[str, str], bounds: dict[str, float],
              claim: str | None = None) -> dict:
    """Per side medians and quartiles, the pairs the change won and tied,
    the change median's relative worsening against each bound, and the
    verdict on ``claim``, a metric whose gain is claimed."""
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
               for side in SIDES}
    out: dict = {"pairs": len(by_side["change"]), "seconds": runs[0]["seconds"]}
    names = [name for name in by_side["parent"][0]["result"]["metrics"] if name in better]
    won, tied, worse_by = {}, {}, {}
    for name in names:
        values = {side: [r["result"]["metrics"][name]["value"] for r in by_side[side]]
                  for side in SIDES}
        won[name], tied[name] = won_and_tied(values["parent"], values["change"], better[name])
        if name == claim:
            out["claim"] = {"metric": name, **judge_claim(values["parent"], values["change"],
                                                          better[name])}
        if name in bounds:
            parent = quartiles(values["parent"])
            shift = worse_shift(parent["median"], float(np.median(values["change"])),
                                better[name])
            spread = (parent["q3"] - parent["q1"]) / parent["median"]
            worse_by[name] = {"shift": shift, "bound": bounds[name],
                              "within_bound": shift <= bounds[name],
                              "parent_spread": spread, "resolved": spread <= bounds[name]}
    out["pairs_won_by_change"] = won
    out["pairs_tied"] = tied
    out["worse_by"] = worse_by
    for side, side_runs in by_side.items():
        results = [r["result"] for r in side_runs]
        entry: dict = {"failed_ops": sum(r["failed"] for r in results),
                       "attempted_ops": sum(r["attempted"] for r in results),
                       "all_correct": all(r["correct"] for r in results)}
        for name in names:
            entry[name] = {**quartiles([r["metrics"][name]["value"] for r in results]),
                           "unit": results[0]["metrics"][name]["unit"]}
        entry["ru_minflt"] = quartiles([r["ru_minflt"] for r in side_runs])
        out[side] = entry
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_env": {name: "1" for name in THREAD_ENV},
            "thread_env_note": "perfbench/run.py sets these to 1 in the workload process, "
                               "and this tool in a relcon_run_p1 run's environment",
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--bench", required=True, type=int, help="n of BENCH_<n>.json")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--what", default="", help="what the two sides are")
    parser.add_argument("--claim", default=None, metavar="METRIC",
                        help="a metric whose gain is claimed; record whether the pairs support it")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.workload == RUN_WORKLOAD and args.trace:
        parser.error(f"--trace: {RUN_WORKLOAD} is not traced")

    better, bounds = metric_rules(args.workload, args.change)
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim: {args.claim!r} is not a metric of {args.workload}")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = {"side": side, **run_once(roots[side], args.workload, pair, args.seconds,
                                            args.trace)}
            runs.append(run)
            metrics = (run["result"] or {}).get("metrics", {})
            shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in metrics.items()
                              if k in ("samples_per_s", "op_s_p50", "peak_rss_mb",
                                       "perturb.perturb_pair_s", *RUN_METRICS))
            print(f"pair {pair} {side}: exit {run['exit']}, {shown}", flush=True)
    if any(r["result"] is None for r in runs):
        print("a run gave no result; nothing written", file=sys.stderr)
        return 1

    path = Path(f"BENCH_{args.bench}.json")
    bench = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    bench.setdefault("bench", args.bench)
    if args.what:
        bench["what"] = args.what
    bench["command"] = (
        "python3 tools/bench_pairs.py --parent <parent root> --change <change root> "
        "--workload <workload> --pairs <n> --bench <bench> --seconds <seconds> --trace <0|1>; "
        "see its docstring for the pairing, the rusage fields, relcon_run_p1 and quartiles")
    bench["environment"] = environment()
    key = "traced_rounds" if args.trace else "summary"
    summary = summarise(runs, better, bounds, args.claim)
    summary["trees"] = {side: tree_state(root) for side, root in roots.items()}
    bench.setdefault(key, {})[args.workload] = summary
    kept = [r for r in bench.get("runs", [])
            if (r["workload"], r["trace"]) != (args.workload, args.trace)]
    bench["runs"] = kept + runs
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    for name, entry in summary["worse_by"].items():
        verdict = "within" if entry["within_bound"] else "OUTSIDE"
        resolved = "" if entry["resolved"] else \
            f"; UNRESOLVED, the parent's runs spread {entry['parent_spread']:.1%}"
        print(f"{name}: change median worse by {entry['shift']:+.1%}, {verdict} "
              f"its bound {entry['bound']:.0%}{resolved}")
    if args.claim is not None and "claim" not in summary:
        print(f"claim {args.claim}: not judged, the runs do not record it")
    elif args.claim is not None:
        c = summary["claim"]
        print(f"claim {c['metric']}: {'MET' if c['met'] else 'NOT MET'}; change won "
              f"{c['won']} of {c['pairs']} pairs ({c['tied']} tied), median gap "
              f"{c['median_gap']:.4g} against the parent's IQR {c['parent_iqr']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
