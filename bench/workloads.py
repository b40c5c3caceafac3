"""Workload definitions: CLI commands built from a seed, their output checks,
and the reference errors computed outside the timed passes.

A workload is a list of ``zeropack`` command lines.  Each command yields a
fixed number of operations (one minimize report, one gap report or one scan
row); the check of a command returns how many of them failed, so that the
result line counts failures against attempts.  A command-level failure (bad
exit code, wrong report count, wrong argmin) fails all of its operations.

Importing this module does not import zeropack; ``reference_errors`` does.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("minimize", "gap-sweep", "lattice-scan")

GAP_HYPERBOLIC_R = (0.5, 0.6, 0.7, 0.8, 0.85)
GAP_PLANAR_GAMMA = (0.5, 1.0, 1.5, 2.0)
# The CLI default, spelled out so that a change of default does not silently
# change the workload.
GAP_RESTARTS = 3
SCAN_STEPS = 21
SCAN_RESOLUTION = "512x512"
# Cell-average density of the triangular lattice, the scan's expected minimum.
SCAN_MIN_VALUE = 0.0612035
SCAN_MIN_TOL = 1e-6
REF_RESOLUTION = (512, 512)
SCAN_REF_RESOLUTION = (1024, 1024)
# Reference errors below this are summation rounding and are reported as this
# floor: every gap-sweep output at 384x384 agrees with 768x768 to 7e-14 unless
# the minimizer has zeros inside the disk.
REF_ERR_FLOOR = 1e-12


@dataclass(frozen=True)
class Command:
    argv: list[str]
    expected_ops: int


@dataclass(frozen=True)
class Result:
    """One best-found value: a minimize report, a gap report or a scan minimum."""

    search: str  # what was searched, e.g. "planar:8.0"; equal across seeds
    value: float
    seed: int
    report: dict


@dataclass
class Outcome:
    """Checked output of one command."""

    attempted: int
    failed: int
    results: list[Result] = field(default_factory=list)
    gap_trend_decreasing: bool | None = None
    error: str | None = None


def scan_window(seed: int) -> tuple[float, float]:
    """Angle window centred on pi/3 with a half-width drawn from the seed.

    With an odd step count the middle grid point is pi/3 whatever the width,
    so the argmin check holds on every seed.  Widths up to 0.32 keep the
    theta series at six terms for every angle; above 0.335 the smallest angle
    needs a seventh, which adds 8 MB and a share of the work for some seeds.
    """
    half = random.Random(seed).uniform(0.24, 0.32)
    return math.pi / 3 - half, math.pi / 3 + half


def lattice_scan_argv(seed: int, jobs: int = 1) -> list[str]:
    lo, hi = scan_window(seed)
    return [
        "lattice-scan", "--beta", "1", "--theta-min", repr(lo), "--theta-max", repr(hi),
        "--steps", str(SCAN_STEPS), "--resolution", SCAN_RESOLUTION, "--jobs", str(jobs),
    ]


def commands(workload: str, seed: int) -> list[Command]:
    # minimize and gap-sweep run every search under two CLI seeds, 2S and 2S+1.
    # The cost of a search depends on its seed (one 12-restart planar search
    # takes 8963 to 13359 IRLS steps over seeds 0-9), and so does the minimum
    # it lands in; two seeds per run halve the variance of both.
    cli_seeds = (str(2 * seed), str(2 * seed + 1))
    if workload == "minimize":
        return [
            Command(["minimize", "--geometry", geometry, flag, value, "--restarts", "12", "--seed", s], 1)
            for geometry, flag, value in (("planar", "--gamma", "8"), ("hyperbolic", "--r", "0.9"))
            for s in cli_seeds
        ]
    if workload == "gap-sweep":
        return [
            Command(["gap", "--geometry", geometry, flag, ",".join(map(str, params)), "--resolution", "384x384",
                     "--restarts", str(GAP_RESTARTS), "--seed", s], len(params))
            for geometry, flag, params in (("hyperbolic", "--r", GAP_HYPERBOLIC_R),
                                           ("planar", "--gamma", GAP_PLANAR_GAMMA))
            for s in cli_seeds
        ]
    if workload == "lattice-scan":
        return [Command(lattice_scan_argv(seed), SCAN_STEPS)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _finite(x) -> bool:
    if isinstance(x, float):
        return math.isfinite(x)
    if isinstance(x, list):
        return all(_finite(v) for v in x)
    if isinstance(x, dict):
        return all(_finite(v) for v in x.values())
    return True


def _minimize_ok(report: dict, restarts: int) -> bool:
    values = report["restart_values"]
    return (
        report["converged"] is True
        and len(values) == restarts
        and abs(report["value"] - min(values)) <= 1e-12
        and _finite(report)
    )


def _gap_ok(report: dict) -> bool:
    return report["dbar_lhs"] <= report["dbar_rhs"] and _finite(report)


def _search(report: dict) -> str:
    return f"{report['geometry']}:{report['param']!r}"


def _parse(cmd: Command, stdout: str) -> Outcome:
    n = cmd.expected_ops
    sub = cmd.argv[0]
    if sub == "minimize":
        report = json.loads(stdout)
        restarts = int(cmd.argv[cmd.argv.index("--restarts") + 1])
        result = Result(_search(report), report["value"], report["seed"], report)
        return Outcome(n, 0 if _minimize_ok(report, restarts) else 1, [result])
    if sub == "gap":
        payload = json.loads(stdout)
        reports = payload["reports"]
        if len(reports) != n:
            raise ValueError(f"{len(reports)} gap reports for {n} parameters")
        return Outcome(
            n,
            sum(not _gap_ok(r) for r in reports),
            [Result(_search(r), r["rho_unstarred"], payload["seed"], r) for r in reports],
            bool(payload["summary"]["gap_trend_decreasing"]),
        )
    if sub == "lattice-scan":
        rows = [(float(r["theta"]), float(r["value"])) for r in csv.DictReader(io.StringIO(stdout))]
        if len(rows) != n:
            raise ValueError(f"{len(rows)} scan rows for {n} steps")
        argmin = min(range(n), key=lambda i: rows[i][1])
        theta, min_value = rows[argmin]
        if argmin != n // 2 or abs(theta - math.pi / 3) > 1e-9:
            raise ValueError(f"argmin at theta {theta}, not at the middle point pi/3")
        if abs(min_value - SCAN_MIN_VALUE) > SCAN_MIN_TOL:
            raise ValueError(f"min value {min_value} not within {SCAN_MIN_TOL} of {SCAN_MIN_VALUE}")
        failed = sum(not math.isfinite(v) for _, v in rows)
        return Outcome(n, failed, [Result("scan", min_value, 0, {})])
    raise ValueError(f"no check for subcommand {sub!r}")


def check(cmd: Command, exit_code: int, stdout: str) -> Outcome:
    """Parse and check one command's output."""
    if exit_code != 0:
        return Outcome(cmd.expected_ops, cmd.expected_ops, error=f"exit code {exit_code}")
    try:
        return _parse(cmd, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(cmd.expected_ops, cmd.expected_ops, error=f"{type(exc).__name__}: {exc}")


def best_results(outcomes: list[Outcome]) -> list[Result]:
    """The best result of each search over the run's seeds.

    Taking the best over seeds keeps one unlucky seed from moving the run's
    figures: the hyperbolic r=0.9 search lands on 0.0655 instead of 0.0505
    for 1 CLI seed in 40.  Restart luck shows in the trace instead.
    """
    best: dict[str, Result] = {}
    for out in outcomes:
        for res in out.results:
            if res.search not in best or res.value < best[res.search].value:
                best[res.search] = res
    return list(best.values())


def reference_errors(results: list[Result]) -> list[float]:
    """Distance of each best value from an independent finer-grid value.

    minimize: the reported value against ``density()`` of the reported
    minimizer on a 512x512 grid.  gap-sweep: ``rho_unstarred`` against
    ``density()`` on 512x512 of the minimizer that ``zeropack.minimize``
    returns for the same spec, degree, seed and restarts (gap reports do not
    carry their minimizer).  lattice-scan: the scan minimum against
    ``cell_average_density`` at pi/3 on a 1024x1024 cell grid.
    """
    import numpy as np
    import zeropack as zp

    def fine_density(f, spec, degree):
        return zp.density(f, spec, zp.default_grid(spec, REF_RESOLUTION, degree=degree)).value

    errors = []
    for res in results:
        rep = res.report
        if res.search == "scan":
            cand = zp.abrikosov_candidate(zp.lattice_normalize(math.pi / 3, 1.0), 1.0)
            ref = zp.cell_average_density(cand, SCAN_REF_RESOLUTION)
        elif "minimizer" in rep:
            spec = zp.FunctionalSpec(rep["geometry"], rep["param"])
            f = zp.ComplexPolynomial(np.array([complex(a, b) for a, b in rep["minimizer"]]))
            ref = fine_density(f, spec, rep["degree"])
        else:
            spec = zp.FunctionalSpec(rep["geometry"], rep["param"])
            config = zp.OptimizerConfig(seed=res.seed, restarts=GAP_RESTARTS)
            ref = fine_density(zp.minimize(spec, rep["degree"], config).minimizer, spec, rep["degree"])
        errors.append(max(abs(res.value - ref), REF_ERR_FLOOR))
    return errors
