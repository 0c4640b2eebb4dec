"""szwalk benchmark launcher: time-to-entropy on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rank2_deep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --trace 1        # every workload in turn

Each workload runs in its own process (`worker.py`) with BLAS and OpenMP
pinned to one thread, imports szwalk from `src/` of this checkout, and prints
its metrics; the last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rank2_deep", "coherent_wide", "kraus_tree")
WORKER_TIMEOUT_S = 170
# One thread: the operators are at most 98x98, where BLAS threads only add noise.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> subprocess.CompletedProcess:
    env = {**os.environ, **PINNED}
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if not (ROOT / "src" / "szwalk" / "__init__.py").is_file():
        print(f"error: no szwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            proc = run_worker(name, args.seed, args.seconds, args.trace)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").splitlines()
        results[name] = json.loads(lines[-1])
        if args.workload == "all":
            print("\n".join(lines[:-1]))
        else:
            print(proc.stdout, end="")
    if args.workload == "all":
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
