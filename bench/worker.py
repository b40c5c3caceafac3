"""One workload in one fresh interpreter; started by run.py, not by hand.

Imports zeropack from the checkout's ``src``, builds the workload's command
lines from the seed, then either exits (``--setup-only``, which run.py times
as set-up), runs timed passes (``--trace 0``) or runs the traced
measurement (``--trace 1``).  Every command goes through
``zeropack.cli.main(argv)`` in this process.  The last line on stdout is one
JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import zeropack  # noqa: E402
import zeropack.cli  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Functions whose calls and self time the traced run reports by name.
TRACED = (
    "quadrature.build_grid",
    "poly.poly_eval",
    "poly.vandermonde",
    "functionals.density",
    "functionals.boundary_mass",
    "dbar.equality_gap",
    "dbar.minimal_correction",
    "dbar.project_polynomial",
    "optimize.minimize",
    "lattice_sigma.sigma",
    "lattice_sigma.cell_average_density",
    "lattice_sigma.lattice_normalize",
    "cli.main",
)


def run_command(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zeropack.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_pass(cmds: list[wl.Command]) -> tuple[float, list[tuple[int, str, str]]]:
    gc.collect()
    start = time.perf_counter()
    results = [run_command(c.argv) for c in cmds]
    return time.perf_counter() - start, results


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self, cmds: list[wl.Command]):
        self.cmds = cmds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: list[wl.Outcome] | None = None
        self.first_stdout: list[str] | None = None

    def count(self, cmd: wl.Command, code: int, stdout: str, stderr: str, expected: str | None) -> wl.Outcome:
        """Check one command's output; ``expected`` is the output it must repeat."""
        out = wl.check(cmd, code, stdout)
        if out.error is None and expected is not None and stdout != expected:
            out = wl.Outcome(cmd.expected_ops, cmd.expected_ops, error="output differs from the first run")
        if out.error is not None and len(self.errors) < 5:
            self.errors.append(f"{' '.join(cmd.argv)}: {out.error} {stderr.strip()}".strip())
        self.attempted += out.attempted
        self.failed += out.failed
        return out

    def add(self, results: list[tuple[int, str, str]]) -> None:
        """Check one pass; every pass must repeat the first byte for byte."""
        expected = self.first_stdout or [None] * len(self.cmds)
        outcomes = [self.count(cmd, code, stdout, stderr, exp)
                    for cmd, (code, stdout, stderr), exp in zip(self.cmds, results, expected)]
        if self.first is None:
            self.first = outcomes
            self.first_stdout = [stdout for _, stdout, _ in results]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(cmds, args) -> dict:
    tally = Tally(cmds)
    times: list[float] = []
    start = time.perf_counter()
    # Start another pass only if it should end within the budget; always run one.
    while not times or time.perf_counter() - start + statistics.median(times) <= args.seconds:
        dt, results = run_pass(cmds)
        times.append(dt)
        tally.add(results)
    rss = peak_rss_mb()  # before the reference grids, which are not the workload's
    best = wl.best_results(tally.first)
    ref = wl.reference_errors(best)
    metrics = {
        "wall_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rss, "MB"),
        # Both 0 only when no command produced a report, which also fails the run.
        "best_value": (statistics.fmean(r.value for r in best) if best else 0.0, "1"),
        "ref_err": (statistics.fmean(ref) if ref else 0.0, "1"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    return finish(tally, metrics, {"passes": len(times), "pass_s": times})


def traced(cmds, args) -> dict:
    tally = Tally(cmds)
    tracer = tr.Tracer()
    plain_times: list[float] = []
    traced_times: list[float] = []
    start = time.perf_counter()
    while not traced_times or (
        time.perf_counter() - start + statistics.median(plain_times) + statistics.median(traced_times)
        <= args.seconds
    ):
        dt, plain = run_pass(cmds)
        plain_times.append(dt)
        tally.add(plain)
        with tracer:
            dt, results = run_pass(cmds)
        traced_times.append(dt)
        tally.add(results)  # also fails any output that differs from the untraced one
    passes = len(traced_times)

    # --jobs probe, untraced: the same scan serially and on two threads, in
    # the order 1, 2, 2, 1 so that neither side alone pays for first use of
    # the scan's memory.  Every output must repeat the first serial one.
    probe_times = {1: 0.0, 2: 0.0}
    serial_out = None
    for jobs in (1, 2, 2, 1):
        cmd = wl.Command(wl.lattice_scan_argv(args.seed, jobs), wl.SCAN_STEPS)
        t0 = time.perf_counter()
        code, stdout, stderr = run_command(cmd.argv)
        probe_times[jobs] += time.perf_counter() - t0
        tally.count(cmd, code, stdout, stderr, serial_out)
        serial_out = serial_out or stdout

    stats = tracer.self_times()
    c = tracer.counters
    root = tracer.root_seconds()
    metrics = {}
    for name in TRACED:
        s = stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (s["calls"] / passes, "count")
        metrics[f"{name}.self_s"] = (s["self_s"] / passes, "s")
    for layer in tr.LAYERS:
        layer_self = sum(s["self_s"] for n, s in stats.items() if n.split(".")[0] == layer)
        metrics[f"{layer}.self_frac"] = (layer_self / root if root > 0 else 0.0, "ratio")
    restarts = c["optimize.restarts"]
    minimize_calls = stats.get("optimize.minimize", {}).get("calls", 0)
    minimize_s = stats.get("optimize.minimize", {}).get("total_s", 0.0)
    metrics.update({
        "quadrature.nodes_built": (c["quadrature.nodes_built"] / passes, "count"),
        "lattice_sigma.sigma.points": (c["lattice_sigma.sigma.points"] / passes, "count"),
        "optimize.restarts": (restarts / passes, "count"),
        "optimize.s_per_restart": (minimize_s / restarts if restarts else 0.0, "s"),
        "optimize.iterations": (c["optimize.iterations"] / passes, "count"),
        "optimize.converged_frac": (c["optimize.converged"] / minimize_calls if minimize_calls else 0.0, "ratio"),
        "optimize.restart_hit_frac": (c["optimize.restart_hits"] / restarts if restarts else 0.0, "ratio"),
        "dbar.bound_margin_min": (c.get("dbar.bound_margin_min", 0.0), "ratio"),
        "trace.overhead_frac": (statistics.median(traced_times) / statistics.median(plain_times) - 1.0, "ratio"),
        "cli.jobs2_wall_ratio": (probe_times[2] / probe_times[1], "ratio"),
    })
    extra = {
        "passes": passes,
        "plain_s": plain_times,
        "traced_s": traced_times,
        "spans": len(tracer.spans),
        "leftover_wrappers": tr.leftover_wrappers(),
        "jobs_probe_s": probe_times,
    }
    if extra["leftover_wrappers"]:
        tally.failed += 1
        tally.errors.append(f"wrappers left after restore: {extra['leftover_wrappers']}")
    return finish(tally, metrics, extra)


def finish(tally: Tally, metrics: dict, extra: dict) -> dict:
    trend = [out.gap_trend_decreasing for out in tally.first if out.gap_trend_decreasing is not None]
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "record": {
            **extra,
            "gap_trend_decreasing": trend,
            "errors": tally.errors,
            "numpy": np.__version__,
            "blas": blas_info(),
        },
    }


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    cmds = wl.commands(args.workload, args.seed)
    if args.setup_only:
        return 0
    result = traced(cmds, args) if args.trace else timed(cmds, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
