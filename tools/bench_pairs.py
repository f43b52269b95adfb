"""Alternating parent/change pairs of one benchmark workload, kept in BENCH_<n>.json.

Run from the root of the checkout that keeps the file, with both checkouts
holding committed source trees:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload sweep_moons_te --pairs 10 --bench 16

Pair p runs ``python3 perfbench/run.py --workload W --seed p --seconds S
--trace T`` from the root of each checkout, the parent first on even pairs
and the change first on odd ones. A run's minor page faults (``ru_minflt``)
are read from ``getrusage(RUSAGE_CHILDREN)`` around it.

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
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run from ``root``: its parsed result, exit code, wall
    time and minor faults."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall_s = time.perf_counter() - started
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
        print(f"{root}: no result line; stderr:\n{proc.stderr}", file=sys.stderr)
    return {"workload": workload, "pair": seed, "seed": seed, "trace": trace,
            "seconds": seconds, "exit": proc.returncode, "result": result,
            "ru_minflt": faults, "wall_s": round(wall_s, 3)}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def worse_shift(parent: float, change: float, better: str) -> float:
    """How far ``change`` is worse than a positive ``parent``, relative to
    ``parent``; negative when it is better."""
    shift = (change - parent) if better == "lower" else (parent - change)
    return shift / parent


def summarise(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per side medians and quartiles, the pairs the change won and tied,
    and the change median's relative worsening against each bound."""
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
               for side in SIDES}
    out: dict = {"pairs": len(by_side["change"]), "seconds": runs[0]["seconds"]}
    names = [name for name in by_side["parent"][0]["result"]["metrics"] if name in better]
    won, tied, worse_by = {}, {}, {}
    for name in names:
        values = {side: [r["result"]["metrics"][name]["value"] for r in by_side[side]]
                  for side in SIDES}
        sign = 1.0 if better[name] == "higher" else -1.0
        pairs = list(zip(values["parent"], values["change"]))
        won[name] = sum(sign * (c - p) > 0 for p, c in pairs)
        tied[name] = sum(c == p for p, c in pairs)
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
            "thread_env_note": "perfbench/run.py sets these to 1 in the workload process",
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
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
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
                                       "perturb.perturb_pair_s"))
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
        "see its docstring for the pairing, ru_minflt and quartiles")
    bench["environment"] = environment()
    key = "traced_rounds" if args.trace else "summary"
    summary = summarise(runs, better, bounds)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
