"""The bench commands' exit codes and stdout, and which of them differ between two runs.

Run every command of ``bench/workloads.py``'s ``commands()`` for every
workload at the given bench seeds, in process through ``zeropack.cli.main``,
and write one JSON object mapping each command line to its exit code and
stdout:

    python3 tools/cli_outputs.py --out outputs.json --seeds 3 4 5

List the commands whose exit code or stdout differ between two such files
(or that only one of them ran), and exit 1 if any does:

    python3 tools/cli_outputs.py --compare old.json new.json

Under each command whose stdout differs and is JSON on both sides come the
key paths that only one side has (list indices written ``[]``), the largest
relative and the largest absolute change of a float, and the largest change
of an integer (a step count) found at the same key path on both sides.
Floats and integers are kept apart so that a count leaving 0 cannot hide a
value that moved, and the absolute change shows a rounding-level move of a
value near 0 that reads large relative to it.  Under a differing
``theta,value`` CSV stdout (``lattice-scan``'s) come the number of rows
that differ, whether the theta column is identical, and the largest
relative and the largest absolute change of a value.

BLAS is pinned to one thread before numpy loads, with the bench's own
settings: another thread count can sum in another order and move a search
to another basin.  The checkout's ``src`` is imported, whatever zeropack is
installed; ``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_commands(seeds: list[int]) -> dict[str, list]:
    """Command line (argv joined by spaces) -> [exit code, stdout], for every workload at every seed."""
    # Leave no bytecode cache under bench/, which this tool only reads.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    from run import BLAS_PINS

    os.environ.update(BLAS_PINS)
    import workloads
    from zeropack.cli import main

    outputs = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for cmd in workloads.commands(workload, seed):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(list(cmd.argv))
                outputs[" ".join(cmd.argv)] = [code, out.getvalue()]
                print(f"exit {code}: zeropack {' '.join(cmd.argv)}", file=sys.stderr)
    return outputs


def leaves(value, path: str = "") -> dict[str, object]:
    """Key path -> scalar, for every scalar in parsed JSON: "reports[0].gap" for the gap of the first report."""
    if isinstance(value, dict):
        return {p: x for k, v in value.items() for p, x in leaves(v, f"{path}.{k}" if path else k).items()}
    if isinstance(value, list):
        return {p: x for i, v in enumerate(value) for p, x in leaves(v, f"{path}[{i}]").items()}
    return {path: value}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _largest_changes(moves: list[tuple[str, float, float]], kind: str) -> list[str]:
    """The largest relative and the largest absolute change among (where, old, new) moves, one line each.

    The relative change is |new - old| / |old|, inf for one leaving 0; no
    line at all when nothing moved.
    """
    relative = ((abs(y - x) / abs(x) if x else (math.inf if y else 0.0), w, x, y) for w, x, y in moves)
    change, where, x, y = max(relative, default=(0.0, None, None, None))
    if change == 0.0:
        return []
    lines = [f"largest relative {kind} change {change:.3g} at {where}: {x!r} -> {y!r}"]
    change, where, x, y = max((abs(y - x), w, x, y) for w, x, y in moves)
    return lines + [f"largest absolute {kind} change {change:.3g} at {where}: {x!r} -> {y!r}"]


def json_changes(old_stdout: str, new_stdout: str) -> list[str] | None:
    """What moved between two JSON outputs, one line per finding; None when either output is not JSON.

    The key paths only one side has, with list indices collapsed to ``[]``;
    then the largest relative change |new - old| / |old| and the largest
    absolute change |new - old| of a number that is a float on either side
    (one leaving 0 changes by inf relative), and the largest change
    |new - old| of a number that is an integer on both sides.
    """
    try:
        old, new = leaves(json.loads(old_stdout)), leaves(json.loads(new_stdout))
    except json.JSONDecodeError:
        return None
    lines = []
    for side, only in (("old", old.keys() - new.keys()), ("new", new.keys() - old.keys())):
        if only:
            paths = sorted({re.sub(r"\[\d+\]", "[]", p) for p in only})
            lines.append(f"keys only in {side}: {', '.join(paths)}")
    shared = [p for p in old.keys() & new.keys() if _is_number(old[p]) and _is_number(new[p])]
    ints = {p for p in shared if isinstance(old[p], int) and isinstance(new[p], int)}
    floats = [p for p in shared if p not in ints]
    moves = [(p, old[p], new[p]) for p in floats]
    lines += _largest_changes(moves, "float") or ["no float at a shared key path changed"]
    step, path = max(((abs(new[p] - old[p]), p) for p in ints), default=(0, None))
    if step == 0:
        lines.append("no integer at a shared key path changed")
    else:
        lines.append(f"largest integer change {step} at {path}: {old[path]!r} -> {new[path]!r}")
    return lines


def _scan_rows(stdout: str) -> list[tuple[str, float]] | None:
    """The rows of a ``theta,value`` CSV as (theta as printed, value), None if stdout is not one."""
    header, *rows = stdout.splitlines() or [""]
    if header != "theta,value":
        return None
    try:
        return [(theta, float(value)) for theta, value in (row.split(",") for row in rows)]
    except ValueError:
        return None


def csv_changes(old_stdout: str, new_stdout: str) -> list[str] | None:
    """What moved between two ``theta,value`` CSV outputs, one line per finding; None when either is not one.

    The number of rows that differ, whether the theta column is identical,
    then the largest relative change |new - old| / |old| and the largest
    absolute change |new - old| of a value in the same row.
    """
    old, new = _scan_rows(old_stdout), _scan_rows(new_stdout)
    if old is None or new is None:
        return None
    differ = sum(a != b for a, b in zip(old, new)) + abs(len(old) - len(new))
    same_theta = [t for t, _ in old] == [t for t, _ in new]
    lines = [f"{differ} of {max(len(old), len(new))} rows differ",
             f"theta column {'identical' if same_theta else 'differs'}"]
    moves = [(f"theta {theta}", x, y) for (theta, x), (_, y) in zip(old, new)]
    return lines + (_largest_changes(moves, "value") or ["no value changed"])


def compare(old: dict[str, list], new: dict[str, list]) -> list[str]:
    """One line per command whose exit code or stdout differs, or that one side did not run.

    A differing JSON or ``theta,value`` CSV stdout adds indented lines naming
    what moved (``json_changes``, ``csv_changes``).
    """
    lines = []
    for argv in sorted(old.keys() | new.keys()):
        if argv not in old or argv not in new:
            lines.append(f"only in {'new' if argv in new else 'old'}: {argv}")
        elif old[argv][0] != new[argv][0]:
            lines.append(f"exit code {old[argv][0]} -> {new[argv][0]}: {argv}")
        elif old[argv][1] != new[argv][1]:
            lines.append(f"stdout differs: {argv}")
            found = json_changes(old[argv][1], new[argv][1]) or csv_changes(old[argv][1], new[argv][1]) or []
            lines += [f"  {line}" for line in found]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="run the commands and write their outputs to this JSON file")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two output files")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 4, 5], help="bench seeds (default 3 4 5)")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(old, new)
        differing = sum(not line.startswith("  ") for line in lines)
        print("\n".join(lines + [f"{differing} of {len(old.keys() | new.keys())} commands differ"]))
        return 1 if lines else 0
    Path(args.out).write_text(json.dumps(run_commands(args.seeds), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
