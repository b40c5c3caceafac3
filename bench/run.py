"""zeropack benchmark: three CLI workloads, end-to-end metrics and layer tracing.

Usage, from the root of a checkout:

    python3 bench/run.py --workload minimize --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the exact command lines):

  minimize      planar gamma=8 (n=16) and hyperbolic r=0.9 (n=5) searches with
                12 restarts, each under two CLI seeds; the optimizer is nearly
                all of the time.
  gap-sweep     the minimize -> cut-off -> correction -> starred-density
                pipeline over 5 radii and 4 gammas at small degree, under two
                CLI seeds; grids, dbar and poly dominate, the optimizer is a
                minority.
  lattice-scan  a 21-angle triangular-lattice scan at 512x512; sigma only,
                the control that minimizer and ring-grid changes should not move.

Each run starts one fresh interpreter per workload (worker.py), which drives
``zeropack.cli.main(argv)`` in-process.  BLAS is pinned to one thread through
this process's environment before any child imports numpy.  Set-up
(interpreter start, ``import zeropack``, input generation) is timed over
several separate start-ups and reported as their median.

A pass runs every command of the workload once.  Passes repeat while the
next one is expected to end within --seconds; there is always at least one.

--trace 0 prints the end-to-end metrics: wall_s (median pass time),
setup_s, peak_rss_mb, best_value, ref_err and ok_frac (operations that
passed their checks over operations attempted).  --trace 1 runs
untraced and traced passes alternately and prints the per-layer metrics:
calls and self time of each layer's public functions, work counters, layer
shares, the tracing overhead and the --jobs 2 / --jobs 1 wall ratio of the
scan.  The last line of stdout is the result object; the line before it
records provenance and run details.

Exits non-zero, without a result line, when the checkout holds no zeropack
sources or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 7
# A run must end within 180 s; leave room for set-up and reporting.
WORKER_TIMEOUT_S = 165.0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def worker_argv(args, *extra: str) -> list[str]:
    return [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]


def measure_setup(args, env) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(worker_argv(args, "--setup-only"), env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "zeropack" / "__init__.py").is_file():
        print(f"bench: no zeropack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pins go into the children's environment before they import numpy.
    env = {**os.environ, **BLAS_PINS}

    try:
        setup = [] if args.trace else measure_setup(args, env)
        proc = subprocess.run(worker_argv(args), env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "blas_pins": BLAS_PINS,
        "setup_samples_s": setup,
        **result["record"],
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
