"""Outside-in layer tracing for zeropack.

The library carries no instrumentation.  ``Tracer.install`` wraps every
public function of each layer module (a module-level function whose name has
no leading underscore and whose ``__module__`` is that layer) and puts the
wrapper into every ``zeropack`` namespace that binds the original: the
defining module, but also ``zeropack.optimize.vandermonde``,
``zeropack.functionals.build_grid``, ``zeropack.dbar.minimize``,
``zeropack.cli.equality_gap`` and the package root.  Patching only the
defining module would miss every call made through such an imported name.
``restore`` puts the originals back.

Each call records a span (name, start, end, parent span) in memory; per-span
hooks also count work from the arguments and results.  Self time of a span is
its duration minus the durations of its child spans.  Spans are recorded on
one thread: trace single-threaded runs only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("quadrature", "poly", "functionals", "optimize", "lattice_sigma", "dbar", "cli")
PACKAGE = "zeropack"
# Attribute that marks a wrapper, so a test can prove none is left behind.
WRAPPER_MARK = "__bench_span__"


def _count_build_grid(counters, args, kwargs, result):
    counters["quadrature.nodes_built"] += len(result.nodes)


def _count_sigma(counters, args, kwargs, result):
    z = args[0] if args else kwargs["z"]
    counters["lattice_sigma.sigma.points"] += int(np.size(z))


def _count_minimize(counters, args, kwargs, result):
    values = result.restart_values
    best = min(values)
    counters["optimize.restarts"] += len(values)
    counters["optimize.restart_hits"] += sum(v - best <= 1e-9 for v in values)
    # Steps of the winning restart: the only count MinimizeResult exposes.
    counters["optimize.iterations"] += result.iterations
    counters["optimize.converged"] += bool(result.converged)


def _count_correction(counters, args, kwargs, result):
    margin = (result.rhs - result.lhs) / result.rhs
    counters["dbar.bound_margin_min"] = min(counters.get("dbar.bound_margin_min", margin), margin)


HOOKS = {
    "quadrature.build_grid": _count_build_grid,
    "lattice_sigma.sigma": _count_sigma,
    "optimize.minimize": _count_minimize,
    "dbar.minimal_correction": _count_correction,
}


def _namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions():
    """Map each traced function object to its span name ``layer.function``."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[obj] = f"{layer}.{attr}"
    return found


def leftover_wrappers():
    """Names in zeropack namespaces still bound to a tracer wrapper."""
    return [f"{ns.__name__}.{attr}" for ns in _namespaces()
            for attr, obj in vars(ns).items() if hasattr(obj, WRAPPER_MARK)]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.counters: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, name) for fn, name in public_functions().items()}
        for ns in _namespaces():
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, attr, wrappers[obj])
                    self._patches.append((ns, attr, obj))

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        return dict(stats)

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)
