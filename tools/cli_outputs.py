"""The bench commands' exit codes and stdout, and which of them differ between two runs.

Run every command of ``bench/workloads.py``'s ``commands()`` for every
workload at the given bench seeds, in process through ``zeropack.cli.main``,
and write one JSON object mapping each command line to its exit code and
stdout:

    python3 tools/cli_outputs.py --out outputs.json --seeds 3 4 5

List the commands whose exit code or stdout differ between two such files
(or that only one of them ran), and exit 1 if any does:

    python3 tools/cli_outputs.py --compare old.json new.json

Under each command whose stdout differs and is JSON on both sides, the
largest relative change of any number found at the same key path on both
sides is printed with that path, so that rounding-level moves can be told
from real ones.

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


def numbers(value, path: str = "") -> dict[str, float]:
    """Key path -> number, for every number in parsed JSON: "reports[0].gap" for the gap of the first report."""
    if isinstance(value, dict):
        return {p: x for k, v in value.items() for p, x in numbers(v, f"{path}.{k}" if path else k).items()}
    if isinstance(value, list):
        return {p: x for i, v in enumerate(value) for p, x in numbers(v, f"{path}[{i}]").items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {path: value}
    return {}


def largest_change(old_stdout: str, new_stdout: str) -> str | None:
    """The largest relative change |new - old| / |old| of a number at a key path both JSON outputs have.

    None when either output is not JSON.  A number that leaves 0 changes by inf.
    """
    try:
        old, new = numbers(json.loads(old_stdout)), numbers(json.loads(new_stdout))
    except json.JSONDecodeError:
        return None
    changes = [
        (abs(new[p] - old[p]) / abs(old[p]) if old[p] else (math.inf if new[p] else 0.0), p)
        for p in old.keys() & new.keys()
    ]
    change, path = max(changes, default=(0.0, None))
    if path is None or change == 0.0:
        return "no number at a shared key path changed"
    return f"largest relative change {change:.3g} at {path}: {old[path]!r} -> {new[path]!r}"


def compare(old: dict[str, list], new: dict[str, list]) -> list[str]:
    """One line per command whose exit code or stdout differs, or that one side did not run.

    A differing JSON stdout adds an indented line with its largest relative change.
    """
    lines = []
    for argv in sorted(old.keys() | new.keys()):
        if argv not in old or argv not in new:
            lines.append(f"only in {'new' if argv in new else 'old'}: {argv}")
        elif old[argv][0] != new[argv][0]:
            lines.append(f"exit code {old[argv][0]} -> {new[argv][0]}: {argv}")
        elif old[argv][1] != new[argv][1]:
            lines.append(f"stdout differs: {argv}")
            change = largest_change(old[argv][1], new[argv][1])
            if change is not None:
                lines.append(f"  {change}")
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
