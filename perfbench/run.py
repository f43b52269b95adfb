"""relcon benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload train_blobs_src_mt --seed 0 --seconds 30 --trace 0

It starts ``perfbench/workloads.py`` in a fresh process with BLAS threads
pinned to 1 and ``src`` on the import path, relays its output and returns
its exit code. The last line of standard output is the JSON result. It
stops the workload and its pool workers if they overrun the time limit.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_blobs_src_mt", "sweep_moons_te", "eval_blobs_large")
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relcon benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = Path.cwd() / "src"
    if not (src / "relcon" / "__init__.py").is_file():
        print(f"relcon sources not found under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    env.update({name: "1" for name in PINNED_THREADS})
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # own session, so a timeout can stop the pool workers along with the workload
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # still runs `finally`
    try:
        return proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"workload stopped after {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
