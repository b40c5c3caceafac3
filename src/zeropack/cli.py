"""Command-line pipeline: minimize, lattice-scan, gap, eval, dbar-check.

Reports are flat JSON (or CSV for scans) with deterministic key order and
float formatting, so identical configs and seeds produce byte-identical
output.  Exit codes: 0 success, 2 non-convergence, 3 I/O error, 4 usage
error, 5 numerical error.  Parameter sweeps run their elements concurrently
up to --jobs, with output assembled in input order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import __version__
from .dbar import default_cutoff, equality_gap, minimal_correction
from .errors import ConditioningError, NumericError, ZeropackError
from .functionals import DEFAULT_RESOLUTION, FunctionalSpec, default_grid, density
from .lattice_sigma import abrikosov_candidate, cell_average_density, lattice_normalize, scan_csv
from .optimize import OptimizerConfig, degree_schedule, minimize
from .poly import ComplexPolynomial

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_IO = 3
EXIT_USAGE = 4
EXIT_NUMERIC = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except Exception as exc:
        raise UsageError(f"resolution must look like 128x64, got {text!r}") from exc


def _parse_sweep(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad parameter list {text!r}") from exc
    if not values:
        raise UsageError("empty parameter sweep")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise UsageError("sweep lists must be strictly increasing")
    return values


def _geometry_params(args) -> tuple[str, list[float]]:
    if args.geometry == "hyperbolic":
        if args.r is None:
            raise UsageError("--r is required for hyperbolic geometry")
        return "hyperbolic", _parse_sweep(args.r)
    if args.geometry == "planar":
        if args.gamma is None:
            raise UsageError("--gamma is required for planar geometry")
        return "planar", _parse_sweep(args.gamma)
    raise UsageError("--geometry must be hyperbolic or planar")


def _json_text(payload: dict) -> str:
    """Deterministic JSON text plus a newline; a non-finite number is a numerical error."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"non-finite value in the report: {exc}") from exc


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise IOError(str(exc)) from exc


def _dump_json(payload: dict, out: str | None) -> None:
    _write_text(_json_text(payload), out)


def _map(fn, items: list, jobs: int) -> list:
    """fn over items in input order, on up to `jobs` threads."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _with_provenance(payload: dict, resolution: tuple[int, int]) -> dict:
    payload["version"] = __version__
    payload["grid_resolution"] = list(resolution)
    return payload


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(seed=args.seed, restarts=args.restarts)


def cmd_minimize(args) -> int:
    if args.format == "csv":
        raise UsageError("minimize emits JSON only; csv is for lattice-scan")
    geometry, params = _geometry_params(args)
    if len(params) != 1:
        raise UsageError("minimize takes a single parameter, not a sweep")
    param = params[0]
    spec = FunctionalSpec(geometry=geometry, param=param)
    n = args.degree if args.degree is not None else degree_schedule(geometry, param)
    resolution = args.resolution
    grid = default_grid(spec, resolution, degree=n)
    result = minimize(spec, n, _optimizer_config(args), grid)
    payload = _with_provenance(result.to_json_dict(), resolution)
    payload["degree"] = n
    payload["geometry"] = geometry
    payload["param"] = param
    payload["seed"] = args.seed
    _dump_json(payload, args.out)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_lattice_scan(args) -> int:
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    thetas = [
        args.theta_min + i * (args.theta_max - args.theta_min) / (args.steps - 1)
        for i in range(args.steps)
    ]

    def one(theta: float) -> tuple[float, float]:
        cand = abrikosov_candidate(lattice_normalize(theta, args.beta), args.beta)
        return theta, cell_average_density(cand, args.resolution, optimize_scale=True)

    rows = _map(one, thetas, args.jobs)
    text = _json_text({"rows": [[t, v] for t, v in rows]}) if args.format == "json" else scan_csv(rows)
    if args.out is None:
        _write_text(text, None)
        return EXIT_OK
    argmin = min(range(len(rows)), key=lambda i: rows[i][1])
    sidecar = _with_provenance(
        {
            "beta": args.beta,
            "steps": args.steps,
            "theta_min": args.theta_min,
            "theta_max": args.theta_max,
            "argmin_theta": rows[argmin][0],
            "min_value": rows[argmin][1],
        },
        args.resolution,
    )
    sidecar_text = _json_text(sidecar)
    _write_text(text, args.out)
    _write_text(sidecar_text, str(Path(args.out).with_suffix(".summary.json")))
    return EXIT_OK


def cmd_gap(args) -> int:
    geometry, params = _geometry_params(args)
    config = _optimizer_config(args)
    resolution = args.resolution

    reports = _map(lambda param: equality_gap(geometry, param, config, resolution), params, args.jobs)

    gaps = [rep.gap for rep in reports]
    payload = _with_provenance(
        {
            "reports": [rep.to_json_dict() for rep in reports],
            "summary": {
                "params": params,
                "gaps": gaps,
                "gap_trend_decreasing": all(b <= a for a, b in zip(gaps, gaps[1:])),
            },
            "seed": args.seed,
        },
        resolution,
    )
    _dump_json(payload, args.out)
    converged = all(rep.minimize_result.converged for rep in reports)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _load_poly(path: str) -> ComplexPolynomial:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IOError(str(exc)) from exc
    return ComplexPolynomial.from_json(text)


def cmd_eval(args) -> int:
    geometry, params = _geometry_params(args)
    if len(params) != 1:
        raise UsageError("eval takes a single parameter, not a sweep")
    if args.poly is None:
        raise UsageError("--poly FILE is required for eval")
    f = _load_poly(args.poly)
    spec = FunctionalSpec(geometry=geometry, param=params[0], starred=args.starred, beta=args.beta)
    grid = default_grid(spec, args.resolution, degree=max(len(f.coeffs), 1))
    report = density(f, spec, grid)
    _dump_json(_with_provenance(report.to_json_dict(), args.resolution), args.out)
    return EXIT_OK


def cmd_dbar_check(args) -> int:
    geometry, params = _geometry_params(args)
    if len(params) != 1:
        raise UsageError("dbar-check takes a single parameter, not a sweep")
    param = params[0]
    spec = FunctionalSpec(geometry=geometry, param=param)
    if args.poly is not None:
        f = _load_poly(args.poly)
    else:
        f = minimize(spec, degree_schedule(geometry, param), _optimizer_config(args)).minimizer
    cut = default_cutoff(geometry, param)
    if args.delta is not None:
        cut = replace(cut, delta=args.delta)
    corr = minimal_correction(f, cut, geometry, param, args.resolution)
    payload = _with_provenance(
        {
            "geometry": geometry,
            "param": param,
            "delta": cut.delta,
            "degree": corr.degree_bound,
            "dbar_lhs": corr.lhs,
            "dbar_rhs": corr.rhs,
            "bound_satisfied": corr.lhs <= corr.rhs,
            "orthogonality_residual": corr.orthogonality_residual(),
        },
        args.resolution,
    )
    _dump_json(payload, args.out)
    return EXIT_OK


def _splice_config(argv: list[str]) -> list[str]:
    """Insert flags from a flat key=value file after the subcommand.

    Explicit command-line flags win because they come later.  Lines are
    `name = value` with the flag name spelled without dashes; blank lines and
    #-comments are skipped.  Boolean switches are not configurable this way.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    try:
        text = Path(argv[i + 1]).read_text()
    except OSError as exc:
        raise IOError(str(exc)) from exc
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config lines must look like key = value, got {line!r}")
        tokens += [f"--{key.strip().replace('_', '-')}", value.strip()]
    rest = argv[:i] + argv[i + 2 :]
    return rest[:1] + tokens + rest[1:]


def build_parser() -> _Parser:
    parser = _Parser(prog="zeropack", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zeropack {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p, sweep_ok=False):
        p.add_argument("--geometry", choices=["hyperbolic", "planar"])
        p.add_argument("--r", type=str, default=None, help="radius (comma list for sweeps)" if sweep_ok else "radius")
        p.add_argument("--gamma", type=str, default=None, help="Gaussian exponent")
        p.add_argument("--resolution", type=_parse_resolution, default=DEFAULT_RESOLUTION, metavar="NRADxNANG")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=3)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--config", type=str, default=None, help="flat key = value file mirroring the flags")

    p_min = sub.add_parser("minimize", help="minimize a density over polynomial coefficients")
    common(p_min)
    p_min.add_argument("--degree", type=int, default=None, help="coefficient count; default is the degree schedule")
    p_min.set_defaults(func=cmd_minimize)

    p_scan = sub.add_parser("lattice-scan", help="cell-average density across lattice angles")
    common(p_scan)
    p_scan.add_argument("--beta", type=float, default=1.0)
    p_scan.add_argument("--theta-min", type=float, default=math.pi / 3 - 0.3)
    p_scan.add_argument("--theta-max", type=float, default=math.pi / 3 + 0.3)
    p_scan.add_argument("--steps", type=int, default=21)
    p_scan.set_defaults(func=cmd_lattice_scan)

    p_gap = sub.add_parser("gap", help="equality-gap pipeline over a parameter sweep")
    common(p_gap, sweep_ok=True)
    p_gap.set_defaults(func=cmd_gap)

    p_eval = sub.add_parser("eval", help="evaluate a density for a polynomial from a JSON file")
    common(p_eval)
    p_eval.add_argument("--poly", type=str, default=None, help="JSON array of [re, im] coefficient pairs")
    p_eval.add_argument("--starred", action="store_true")
    p_eval.add_argument("--beta", type=float, default=1.0)
    p_eval.set_defaults(func=cmd_eval)

    p_dbar = sub.add_parser("dbar-check", help="run the minimal dbar correction standalone")
    common(p_dbar)
    p_dbar.add_argument("--poly", type=str, default=None)
    p_dbar.add_argument("--delta", type=float, default=None)
    p_dbar.set_defaults(func=cmd_dbar_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(_splice_config(argv))
        if getattr(args, "command", None) is None:
            raise UsageError("a subcommand is required")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConditioningError, NumericError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ZeropackError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
