"""The value panel: best-found minima per search and seed, and how two panels differ.

Run the panel (CLI seeds 0-11, 12 restarts; planar gamma 4, 8, 16 and
hyperbolic r 0.9, 0.95, each at the schedule degree and at schedule+10) and
write one JSON record per search and seed:

    python3 tools/value_panel.py --out panel.json

List every winner that moved by more than its quad_err between two panels,
how many of them rose and fell, overall and per search, how many winners
are bit-identical in both panels, the totals of both (capped restarts, the
finish's IRLS fallback steps, single and double steps, seconds), and per
search the best, median and worst winner over the seeds and how many seeds
lie within their quad_err of the lowest value in either panel:

    python3 tools/value_panel.py --compare old.json new.json

A panel written before records carried ``fallback_steps`` reads ``n/a``
there.  The searches are those of ``zeropack minimize --restarts 12 --seed
S``; the checkout's ``src`` is imported, whatever zeropack is installed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SEARCHES = (("planar", 4.0), ("planar", 8.0), ("planar", 16.0), ("hyperbolic", 0.9), ("hyperbolic", 0.95))
SEEDS = range(12)
RESTARTS = 12
EXTRA_DEGREE = 10


def run_panel() -> list[dict]:
    from zeropack import FunctionalSpec, OptimizerConfig, default_grid, degree_schedule, minimize

    records = []
    for geometry, param in SEARCHES:
        spec = FunctionalSpec(geometry, param)
        for n in (degree_schedule(spec), degree_schedule(spec) + EXTRA_DEGREE):
            grid = default_grid(spec, degree=n)
            for seed in SEEDS:
                start = time.perf_counter()
                res = minimize(spec, n, OptimizerConfig(seed=seed, restarts=RESTARTS), grid)
                single = sum(r["single_iterations"] for r in res.restarts)
                records.append({
                    "search": f"{geometry}:{param!r}:n={n}",
                    "seed": seed,
                    "value": res.value,
                    "quad_err": res.diagnostics.quad_err,
                    "single_steps": single,
                    "double_steps": sum(r["iterations"] for r in res.restarts) - single,
                    "fallback_steps": sum(r["fallback_iterations"] for r in res.restarts),
                    "capped": res.capped,
                    "tied": res.tied,
                    "seconds": time.perf_counter() - start,
                })
                print(json.dumps(records[-1]), file=sys.stderr)
    return records


def distribution(old: list[dict], new: list[dict]) -> list[str]:
    """Per search: best, median and worst winner over seeds, and the seeds within their quad_err of the lowest, old -> new."""
    searches = {}
    for panel, records in enumerate((old, new)):
        for r in records:
            searches.setdefault(r["search"], ([], []))[panel].append(r)
    lines = ["search: best / median / worst, seeds within quad_err of the lowest in either panel"]
    for search, panels in searches.items():
        lowest = min(r["value"] for records in panels for r in records)
        cells = []
        for records in panels:
            values = [r["value"] for r in records]
            within = sum(r["value"] - lowest <= r["quad_err"] for r in records)
            cells.append(f"{min(values):.6f} / {statistics.median(values):.6f} / {max(values):.6f}, "
                         f"{within} of {len(records)}")
        lines.append(f"{search}: {cells[0]} -> {cells[1]}")
    return lines


def _add(total, value):
    """total + value, None once either is None (a record without the key)."""
    return None if total is None or value is None else total + value


def compare(old: list[dict], new: list[dict]) -> str:
    """Winners moved by more than the old quad_err, up or down, bit-identical winners, per-search totals and distributions."""
    before = {(r["search"], r["seed"]): r for r in old}
    lines, totals, identical = [], {}, 0
    for r in new:
        o = before[r["search"], r["seed"]]
        moved = r["value"] - o["value"]
        identical += r["value"] == o["value"]
        t = totals.setdefault(r["search"], {"n": 0, "max_rise_over_quad_err": -float("inf"), "rose": 0, "fell": 0,
                                            "capped": [0, 0], "fallback_steps": [0, 0], "double_steps": [0, 0],
                                            "single_steps": [0, 0], "seconds": [0.0, 0.0]})
        t["n"] += 1
        t["max_rise_over_quad_err"] = max(t["max_rise_over_quad_err"], moved / o["quad_err"])
        for key in ("capped", "fallback_steps", "double_steps", "single_steps", "seconds"):
            t[key] = [_add(total, record.get(key)) for total, record in zip(t[key], (o, r))]
        if abs(moved) > o["quad_err"]:
            t["rose" if moved > 0 else "fell"] += 1
            lines.append(f"{r['search']} seed {r['seed']}: {o['value']:.9f} -> {r['value']:.9f} "
                         f"({moved:+.2e}, quad_err {o['quad_err']:.2e} -> {r['quad_err']:.2e})")
    rose, fell = (sum(t[key] for t in totals.values()) for key in ("rose", "fell"))
    lines.append(f"{rose + fell} winners moved by more than their quad_err: {rose} rose, {fell} fell")
    lines.append(f"{identical} of {len(new)} winners bit-identical")
    for search, t in totals.items():
        fallback = " -> ".join("n/a" if x is None else str(x) for x in t["fallback_steps"])
        lines.append(f"{search}: {t['rose']} rose and {t['fell']} fell by more than quad_err; max rise "
                     f"{t['max_rise_over_quad_err']:+.3f} x quad_err; capped {t['capped'][0]} -> "
                     f"{t['capped'][1]}; fallback steps {fallback}; single steps {t['single_steps'][0]} -> "
                     f"{t['single_steps'][1]}; double steps "
                     f"{t['double_steps'][0]} -> {t['double_steps'][1]}; seconds {t['seconds'][0]:.1f} -> "
                     f"{t['seconds'][1]:.1f}")
    return "\n".join(lines + distribution(old, new)) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="run the panel and write its records to this JSON file")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two panel files")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        sys.stdout.write(compare(old, new))
        return 0
    Path(args.out).write_text(json.dumps(run_panel(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
