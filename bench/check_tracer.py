"""Tests of the benchmark's own code: the tracer and the output checks.

Run from the root of the checkout:

    python3 -m pytest -q bench/check_tracer.py

The file name keeps these tests out of the library's test run; they use
scaled-down versions of the workload commands so that they take seconds.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import zeropack  # noqa: E402
import zeropack.cli  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from worker import run_command  # noqa: E402

SMALL = {
    "minimize": ["minimize", "--geometry", "hyperbolic", "--r", "0.9", "--restarts", "2", "--seed", "3"],
    "gap-sweep": ["gap", "--geometry", "planar", "--gamma", "0.5,1", "--resolution", "64x64", "--seed", "3"],
    "lattice-scan": wl.lattice_scan_argv(3)[:-6] + ["--steps", "3", "--resolution", "64x64"],
}
DOMINANT = {
    "minimize": ("optimize",),
    "gap-sweep": ("quadrature", "dbar", "poly", "functionals"),
    "lattice-scan": ("lattice_sigma",),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_output_is_byte_identical(workload):
    plain = run_command(SMALL[workload])
    with tr.Tracer():
        traced = run_command(SMALL[workload])
    assert plain[0] == 0
    assert traced == plain


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_dominant_layers_record_spans(workload):
    with tr.Tracer() as t:
        run_command(SMALL[workload])
    stats = t.self_times()
    for layer in DOMINANT[workload]:
        spans = {n: s for n, s in stats.items() if n.split(".")[0] == layer}
        assert spans, f"no spans for layer {layer}"
        assert sum(s["self_s"] for s in spans.values()) > 0.0
    assert stats["cli.main"]["calls"] == 1
    assert t.root_seconds() == pytest.approx(stats["cli.main"]["total_s"])


def test_imported_names_are_patched():
    names = [
        (zeropack.optimize, "vandermonde", "poly.vandermonde"),
        (zeropack.functionals, "build_grid", "quadrature.build_grid"),
        (zeropack.dbar, "minimize", "optimize.minimize"),
        (zeropack.cli, "equality_gap", "dbar.equality_gap"),
        (zeropack, "minimize", "optimize.minimize"),
    ]
    with tr.Tracer() as t:
        for ns, attr, span in names:
            assert getattr(getattr(ns, attr), tr.WRAPPER_MARK) == span
        run_command(SMALL["gap-sweep"])
    # vandermonde is reached through optimize's own binding, inside minimize.
    by_index = t.spans
    parents = {by_index[p][0] for name, _, _, p in by_index if name == "poly.vandermonde" and p >= 0}
    assert "optimize.minimize" in parents
    assert any(name == "quadrature.build_grid" and by_index[p][0] == "functionals.default_grid"
               for name, _, _, p in by_index if p >= 0)


def test_restore_leaves_no_wrapper():
    before = {(ns.__name__, attr): obj for ns in tr._namespaces() for attr, obj in vars(ns).items()}
    t = tr.Tracer()
    t.install()
    assert tr.leftover_wrappers()
    t.restore()
    assert tr.leftover_wrappers() == []
    after = {(ns.__name__, attr): obj for ns in tr._namespaces() for attr, obj in vars(ns).items()}
    assert all(after[key] is obj for key, obj in before.items() if callable(obj))


def test_self_time_subtracts_children():
    t = tr.Tracer()
    t.spans[:] = [("a.f", 0.0, 10.0, -1), ("b.g", 2.0, 5.0, 0), ("b.g", 6.0, 7.0, 0)]
    stats = t.self_times()
    assert stats["a.f"]["self_s"] == pytest.approx(6.0)
    assert stats["b.g"] == {"calls": 2, "total_s": pytest.approx(4.0), "self_s": pytest.approx(4.0)}
    assert t.root_seconds() == pytest.approx(10.0)


def test_scan_window_centres_pi_over_3():
    for seed in range(50):
        lo, hi = wl.scan_window(seed)
        mid = lo + (wl.SCAN_STEPS // 2) * (hi - lo) / (wl.SCAN_STEPS - 1)
        assert abs(mid - math.pi / 3) < 1e-12


def test_checks_count_failures():
    minimize = wl.commands("minimize", 0)[0]
    report = {"geometry": "planar", "param": 8.0, "value": 0.5, "restart_values": [0.5] * 12,
              "converged": True, "minimizer": [[1.0, 0.0]], "seed": 0}
    assert wl.check(minimize, 0, json.dumps(report)).failed == 0
    assert wl.check(minimize, 0, json.dumps({**report, "value": 0.4})).failed == 1
    assert wl.check(minimize, 0, json.dumps({**report, "converged": False})).failed == 1
    assert wl.check(minimize, 2, json.dumps(report)).failed == 1
    worse = wl.check(minimize, 0, json.dumps({**report, "value": 0.7, "restart_values": [0.7] * 12}))
    best = wl.best_results([worse, wl.check(minimize, 0, json.dumps(report))])
    assert [r.value for r in best] == [0.5]

    gap = wl.commands("gap-sweep", 0)[2]
    good = {"geometry": "planar", "param": 1.0, "dbar_lhs": 1.0, "dbar_rhs": 2.0, "rho_unstarred": 0.1}
    payload = {"reports": [good] * 4, "summary": {"gap_trend_decreasing": False}, "seed": 0}
    assert wl.check(gap, 0, json.dumps(payload)).failed == 0
    payload["reports"] = [good] * 3 + [{**good, "dbar_lhs": 3.0}]
    assert wl.check(gap, 0, json.dumps(payload)).failed == 1
    payload["reports"] = [good] * 3
    assert wl.check(gap, 0, json.dumps(payload)).failed == 4

    scan = wl.commands("lattice-scan", 0)[0]
    lo, hi = wl.scan_window(0)
    thetas = [lo + i * (hi - lo) / 20 for i in range(21)]
    rows = [(t, wl.SCAN_MIN_VALUE + (t - math.pi / 3) ** 2) for t in thetas]
    csv_text = zeropack.lattice_sigma.scan_csv(rows)
    assert wl.check(scan, 0, csv_text).failed == 0
    shifted = zeropack.lattice_sigma.scan_csv([(t, v + (t - thetas[3]) ** 2) for t, v in rows])
    assert wl.check(scan, 0, shifted).failed == 21
