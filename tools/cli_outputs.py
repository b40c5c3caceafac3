"""The bench commands' exit codes and stdout, and which of them differ between two runs.

Run every command of ``bench/workloads.py``'s ``commands()`` for every
workload at the given bench seeds, in process through ``zeropack.cli.main``,
and write one JSON object mapping each command line to its exit code and
stdout:

    python3 tools/cli_outputs.py --out outputs.json --seeds 3 4 5

List the commands whose exit code or stdout differ between two such files
(or that only one of them ran), and exit 1 if any does:

    python3 tools/cli_outputs.py --compare old.json new.json

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


def compare(old: dict[str, list], new: dict[str, list]) -> list[str]:
    """One line per command whose exit code or stdout differs, or that one side did not run."""
    lines = []
    for argv in sorted(old.keys() | new.keys()):
        if argv not in old or argv not in new:
            lines.append(f"only in {'new' if argv in new else 'old'}: {argv}")
        elif old[argv][0] != new[argv][0]:
            lines.append(f"exit code {old[argv][0]} -> {new[argv][0]}: {argv}")
        elif old[argv][1] != new[argv][1]:
            lines.append(f"stdout differs: {argv}")
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
        print("\n".join(lines + [f"{len(lines)} of {len(old.keys() | new.keys())} commands differ"]))
        return 1 if lines else 0
    Path(args.out).write_text(json.dumps(run_commands(args.seeds), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
