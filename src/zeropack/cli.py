"""Command-line pipeline: minimize, lattice-scan, gap, eval, dbar-check.

Reports are flat JSON (or CSV for scans) with deterministic key order and
float formatting, so identical configs and seeds produce byte-identical
output at a fixed BLAS thread count.  Another thread count can sum in
another order and move a search to another basin: planar gamma=16 n=42 seed
7 reads 0.055002 with one BLAS thread and 0.055336 with two.  Exit codes:
0 success, 2 non-convergence, 3 I/O error, 4 usage error (a bad flag, or a
ConfigurationError: bad panel edges, a bad resolution, lattice angle or beta, an
unnormalized candidate; in the library also node values of the wrong shape
given to integrate), 5 numerical error (a NumericError: an underflowing Gram
diagonal, a non-finite value, a failed Legendre check).  Either error class
is reported as one stderr line.  lattice-scan runs its angles concurrently
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
from .errors import ConfigurationError, NumericError, ZeropackError
from .functionals import DEFAULT_RESOLUTION, FunctionalSpec, default_grid, density
from .lattice_sigma import scan_csv, theta_scan
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


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError as exc:
        raise UsageError(f"--jobs must be an integer, got {text!r}") from exc
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    return jobs


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
        if args.gamma is not None:
            raise UsageError("--gamma applies to planar geometry only")
        return "hyperbolic", _parse_sweep(args.r)
    if args.geometry == "planar":
        if args.gamma is None:
            raise UsageError("--gamma is required for planar geometry")
        if args.r is not None:
            raise UsageError("--r applies to hyperbolic geometry only")
        return "planar", _parse_sweep(args.gamma)
    raise UsageError("--geometry must be hyperbolic or planar")


def _single_param(args) -> tuple[str, float]:
    """The geometry and its one parameter, for the commands that take no sweep."""
    geometry, params = _geometry_params(args)
    if len(params) != 1:
        raise UsageError(f"{args.command} takes a single parameter, not a sweep")
    return geometry, params[0]


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
    """The search flags given, over OptimizerConfig's defaults."""
    return OptimizerConfig(**{k: getattr(args, k) for k in ("seed", "restarts") if getattr(args, k) is not None})


def cmd_minimize(args) -> int:
    geometry, param = _single_param(args)
    spec = FunctionalSpec(geometry=geometry, param=param)
    n = args.degree if args.degree is not None else degree_schedule(spec)
    grid = default_grid(spec, args.resolution, degree=n)
    config = _optimizer_config(args)
    result = minimize(spec, n, config, grid)
    payload = _with_provenance(result.to_json_dict(), grid.resolution)
    payload["degree"] = n
    payload["geometry"] = geometry
    payload["param"] = param
    payload["seed"] = config.seed
    _dump_json(payload, args.out)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_lattice_scan(args) -> int:
    rows = theta_scan(
        args.theta_min, args.theta_max, args.steps, args.beta, args.resolution,
        mapper=lambda fn, thetas: _map(fn, thetas, args.jobs),
    )
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
    resolution = args.resolution or FunctionalSpec(geometry, params[0]).default_resolution

    reports = [equality_gap(FunctionalSpec(geometry, param), config, resolution) for param in params]

    gaps = [rep.gap for rep in reports]
    payload = _with_provenance(
        {
            "reports": [rep.to_json_dict() for rep in reports],
            "summary": {
                "params": params,
                "gaps": gaps,
                "gap_trend_decreasing": all(b <= a for a, b in zip(gaps, gaps[1:])),
            },
            "seed": config.seed,
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
    try:
        return ComplexPolynomial.from_json(text)
    except ConfigurationError as exc:
        raise UsageError(f"--poly {path}: {exc}") from exc


def cmd_eval(args) -> int:
    geometry, param = _single_param(args)
    if args.poly is None:
        raise UsageError("--poly FILE is required for eval")
    f = _load_poly(args.poly)
    spec = FunctionalSpec(geometry=geometry, param=param, starred=args.starred, beta=args.beta)
    grid = default_grid(spec, args.resolution, degree=max(len(f.coeffs), 1))
    report = density(f, spec, grid)
    _dump_json(_with_provenance(report.to_json_dict(), grid.resolution), args.out)
    return EXIT_OK


def cmd_dbar_check(args) -> int:
    geometry, param = _single_param(args)
    spec = FunctionalSpec(geometry=geometry, param=param)
    if args.poly is not None:
        if args.seed is not None or args.restarts is not None:
            raise UsageError("--seed and --restarts apply to the search that dbar-check runs without --poly")
        f = _load_poly(args.poly)
    else:
        f = minimize(spec, degree_schedule(spec), _optimizer_config(args)).minimizer
    cut = default_cutoff(spec)
    if args.delta is not None:
        cut = replace(cut, delta=args.delta)
    corr = minimal_correction(f, spec, cut, args.resolution)
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
        corr.grid.resolution,
    )
    _dump_json(payload, args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="zeropack", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zeropack {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p, sweep_ok=False, geometry=True, search=True):
        # A command gets only the flags it reads: the others are usage errors.
        if geometry:
            p.add_argument("--geometry", choices=["hyperbolic", "planar"])
            r_help = "radius (comma list for sweeps)" if sweep_ok else "radius"
            p.add_argument("--r", type=str, default=None, help=r_help)
            p.add_argument("--gamma", type=str, default=None, help="Gaussian exponent")
        if search:
            p.add_argument("--seed", type=int, default=None, help=f"default {OptimizerConfig.seed}")
            p.add_argument("--restarts", type=int, default=None, help=f"default {OptimizerConfig.restarts}")
        res_help = "default: the geometry's grid, 128x129 planar and 128x128 hyperbolic"
        p.add_argument(
            "--resolution", type=_parse_resolution, metavar="NRADxNANG",
            default=None if geometry else DEFAULT_RESOLUTION, help=res_help if geometry else None,
        )
        p.add_argument("--out", type=str, default=None)

    p_min = sub.add_parser("minimize", help="minimize a density over polynomial coefficients")
    common(p_min)
    p_min.add_argument("--degree", type=int, default=None, help="coefficient count; default is the degree schedule")
    p_min.set_defaults(func=cmd_minimize)

    p_scan = sub.add_parser("lattice-scan", help="cell-average density across lattice angles")
    common(p_scan, geometry=False, search=False)
    p_scan.add_argument("--jobs", type=_parse_jobs, default=1)
    p_scan.add_argument("--format", choices=["json", "csv"], default="csv")
    p_scan.add_argument("--beta", type=float, default=1.0)
    p_scan.add_argument("--theta-min", type=float, default=math.pi / 3 - 0.3)
    p_scan.add_argument("--theta-max", type=float, default=math.pi / 3 + 0.3)
    p_scan.add_argument("--steps", type=int, default=21)
    p_scan.set_defaults(func=cmd_lattice_scan)

    p_gap = sub.add_parser("gap", help="equality-gap pipeline over a parameter sweep")
    common(p_gap, sweep_ok=True)
    p_gap.set_defaults(func=cmd_gap)

    p_eval = sub.add_parser("eval", help="evaluate a density for a polynomial from a JSON file")
    common(p_eval, search=False)
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
        args = parser.parse_args(argv)
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
    except NumericError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ZeropackError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
