"""Per-step costs of the minimizer on the workspaces of the bench's searches, as JSON.

For every workspace that the bench's `minimize` searches use (planar
gamma=8 n=16 on its rotation classes and the full space, hyperbolic r=0.9
n=5 on the full space), time one single-precision IRLS step, one
double-precision IRLS step, one trial iterate (a ring product with its
value), `derivatives` and `newton_direction`, each from the iterate a
20-step burn-in reaches from a seeded start, rescaled in double.  Also time
one `poly.ring_abs_sums` call, the node sums of |f| that density, the
starred value and the correction's L^1 term take, on the core rings of the
gap pipeline's starred planar gamma=2 grid at 384x384, for a monomial, a
3-fold polynomial and a generic polynomial of 3 coefficients: the sums run
on one rotation period of the angles, 1, 128 and 384 of them.

    python3 tools/step_costs.py [--number 200] [--repeat 7]

Each cost is the fastest of ``--repeat`` timings of ``--number`` calls, in
microseconds per call: on a shared machine the slower timings measure the
other load.  BLAS is pinned to one thread before numpy loads, as
bench/run.py pins it, and the checkout's ``src`` is imported, whatever
zeropack is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SEARCHES = (("planar", 8.0), ("hyperbolic", 0.9))
RESTARTS = 12
# The ring_abs_sums cases: a name and the coefficient of each mode.
RING_SUM_CASES = (("monomial", {2: 1.0}), ("3-fold", {1: 1.0, 4: 0.5j}), ("generic", {0: 1.0, 1: 0.5j, 2: -0.25}))
RING_SUM_RESOLUTION = (384, 384)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def step_costs(number: int, repeat: int) -> list[dict]:
    """One record per (search, class): its sizes and the microseconds per call of each step."""
    import numpy as np

    from zeropack import FunctionalSpec, default_grid, degree_schedule
    from zeropack.optimize import _burn_in, _restart_classes, _Workspace

    def cost(call):
        return min(timeit.repeat(call, number=number, repeat=repeat)) / number * 1e6

    records = []
    for geometry, param in SEARCHES:
        spec = FunctionalSpec(geometry, param)
        n = degree_schedule(spec)
        grid = default_grid(spec, degree=n)
        for m, j in dict.fromkeys(_restart_classes(spec, grid, n, RESTARTS)):
            # A twin overwrites its double workspace's node values, so each gets its own buffers.
            double, single = _Workspace(spec, grid, n, m, j), _Workspace(spec, grid, n, m, j).single()
            rng = np.random.default_rng(0)
            k = len(double.diagonal)
            start = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0 * double.diagonal)
            burnt, _, _ = _burn_in(single, start)
            it, it32 = double.iterate(burnt.c), single.iterate(burnt.c, rescale=False)
            direction, _, _ = double.newton_direction(it)
            records.append({
                "search": f"{geometry}:{param!r}:n={n}",
                "class": [m, j],
                "coefficients": k,
                "nodes": len(double.b_wt),
                "single_irls_us": cost(lambda: single.irls_step(it32)),
                "double_irls_us": cost(lambda: double.irls_step(it)),
                "iterate_us": cost(lambda: double.iterate(it.c + direction, 1 - it.slot)),
                "derivatives_us": cost(lambda: double.derivatives(it)),
                "newton_direction_us": cost(lambda: double.newton_direction(it)),
            })
    return records


def ring_sum_costs(number: int, repeat: int) -> list[dict]:
    """One record per RING_SUM_CASES entry: its modes, the rings and angles summed, and the microseconds per call."""
    import numpy as np

    from zeropack import FunctionalSpec, default_grid
    from zeropack.poly import ring_abs_sums, vandermonde

    spec = FunctionalSpec("planar", 2.0, starred=True)
    grid = default_grid(spec, RING_SUM_RESOLUTION, degree=4)
    core = grid.radii[grid.radii < spec.indicator_radius]
    n_ang = grid.resolution[1]
    records = []
    for name, coefficients in RING_SUM_CASES:
        c = np.zeros(max(coefficients) + 1, dtype=complex)
        c[list(coefficients)] = list(coefficients.values())
        rows = vandermonde(core, len(c)) * c
        seconds = min(timeit.repeat(lambda: ring_abs_sums(rows, n_ang, 1.0), number=number, repeat=repeat))
        records.append({"polynomial": name, "modes": sorted(coefficients), "rings": len(core), "angles": n_ang,
                        "ring_abs_sums_us": seconds / number * 1e6})
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", type=int, default=200, help="calls per timing")
    parser.add_argument("--repeat", type=int, default=7, help="timings per step, of which the fastest counts")
    args = parser.parse_args(argv)
    for name in BLAS_THREADS:
        os.environ[name] = "1"
    import numpy as np

    out = {
        "machine": f"{os.cpu_count()} CPUs, numpy {np.__version__}, Python {platform.python_version()}, "
                   "BLAS pinned to 1 thread",
        "number": args.number,
        "repeat": args.repeat,
        "workspaces": step_costs(args.number, args.repeat),
        "ring_sums": ring_sum_costs(args.number, args.repeat),
    }
    sys.stdout.write(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
