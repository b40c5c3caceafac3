"""The tools' comparisons, on synthetic records."""

import importlib.util
import json
import math
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


value_panel = _load("value_panel")
cli_outputs = _load("cli_outputs")
step_costs = _load("step_costs")


def _record(search, seed, value, quad_err=0.25):
    return {"search": search, "seed": seed, "value": value, "quad_err": quad_err, "single_steps": 100,
            "double_steps": 10, "capped": 0, "tied": 1, "seconds": 0.5}


# Search "a": seed 0 moves by exactly its quad_err, which is no move; seed 1
# rises; seeds 2 and 3 fall, seed 2 by less than its new quad_err but more
# than its old one, which is the one that counts.  Search "b": seed 1 rises.
OLD = [_record("a", seed, 1.0) for seed in range(4)] + [_record("b", seed, 2.0) for seed in range(2)]
NEW = [_record("a", 0, 1.25), _record("a", 1, 2.0), _record("a", 2, 0.5, quad_err=1.0), _record("a", 3, 0.0),
       _record("b", 0, 2.0), _record("b", 1, 2.5)]


def test_compare_splits_the_moved_winners_into_rose_and_fell():
    lines = value_panel.compare(OLD, NEW).splitlines()
    moved = [line for line in lines if " seed " in line]
    assert [line.split(":")[0] for line in moved] == ["a seed 1", "a seed 2", "a seed 3", "b seed 1"]
    assert moved[0] == "a seed 1: 1.000000000 -> 2.000000000 (+1.00e+00, quad_err 2.50e-01 -> 2.50e-01)"
    assert "4 winners moved by more than their quad_err: 2 rose, 2 fell" in lines
    totals = {line.split(":")[0]: line for line in lines if "rose and" in line}
    assert totals["a"].startswith("a: 1 rose and 2 fell by more than quad_err; max rise +4.000 x quad_err;")
    assert totals["b"].startswith("b: 1 rose and 0 fell by more than quad_err; max rise +2.000 x quad_err;")
    assert totals["a"].endswith("single steps 400 -> 400; double steps 40 -> 40; seconds 2.0 -> 2.0")


def test_compare_gives_each_search_its_distribution():
    # The lowest value in either panel is 0.0 for "a": no old winner lies
    # within its quad_err of it, and the new seeds 2 and 3 do.
    lines = value_panel.compare(OLD, NEW).splitlines()
    assert lines[-3] == "search: best / median / worst, seeds within quad_err of the lowest in either panel"
    assert lines[-2] == "a: 1.000000 / 1.000000 / 1.000000, 0 of 4 -> 0.000000 / 0.875000 / 2.000000, 2 of 4"
    assert lines[-1] == "b: 2.000000 / 2.000000 / 2.000000, 2 of 2 -> 2.000000 / 2.250000 / 2.500000, 1 of 2"


def test_compare_of_a_panel_with_itself_moves_nothing(tmp_path, capsys):
    old = tmp_path / "old.json"
    old.write_text(json.dumps(OLD))
    assert value_panel.main(["--compare", str(old), str(old)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "0 winners moved by more than their quad_err: 0 rose, 0 fell" in out
    assert "6 of 6 winners bit-identical" in out
    assert not [line for line in out if " seed " in line]


def test_compare_counts_the_bit_identical_winners():
    # Only "b" seed 0 keeps its value; a winner one ulp away has not moved
    # by its quad_err, but it is not bit-identical.
    assert "1 of 6 winners bit-identical" in value_panel.compare(OLD, NEW).splitlines()
    ulp = [dict(r, value=math.nextafter(r["value"], 3.0)) if r["seed"] == 0 else r for r in OLD]
    lines = value_panel.compare(OLD, ulp).splitlines()
    assert "0 winners moved by more than their quad_err: 0 rose, 0 fell" in lines
    assert "4 of 6 winners bit-identical" in lines


def _totals(old, new):
    """Each search's totals line of a compare, by search."""
    return {line.split(":")[0]: line for line in value_panel.compare(old, new).splitlines() if "rose and" in line}


def test_compare_totals_the_fallback_steps():
    # Each search's totals give the finish's IRLS fallbacks old -> new, where
    # a cap first shows.
    totals = _totals([dict(r, fallback_steps=r["seed"]) for r in OLD],
                     [dict(r, fallback_steps=1000 * r["seed"]) for r in OLD])
    assert "; capped 0 -> 0; fallback steps 6 -> 6000; single steps 400 -> 400;" in totals["a"]
    assert "; fallback steps 1 -> 1000;" in totals["b"]


def test_compare_reads_a_panel_without_fallback_steps_as_na():
    # A record without the key, from a panel written before records carried
    # it, makes its side's total of the search read n/a.
    new = [dict(r, fallback_steps=2) for r in OLD]
    assert "; fallback steps n/a -> 8;" in _totals(OLD, new)["a"]
    assert "; fallback steps n/a -> n/a;" in _totals(OLD, OLD)["b"]
    totals = _totals(new, new[:5] + [OLD[5]])
    assert "; fallback steps 8 -> 8;" in totals["a"] and "; fallback steps 4 -> n/a;" in totals["b"]


def test_compare_totals_the_whole_panel():
    # One line sums every search's records, old -> new: here the six of "a"
    # and "b", whose new capped counts are their seeds.
    old = [dict(r, fallback_steps=1) for r in OLD]
    new = [dict(r, fallback_steps=2, capped=r["seed"], seconds=0.25) for r in NEW]
    lines = value_panel.compare(old, new).splitlines()
    panel = [line for line in lines if line.startswith("whole panel:")]
    assert panel == ["whole panel: capped 0 -> 7; fallback steps 6 -> 12; single steps 600 -> 600; "
                     "double steps 60 -> 60; seconds 3.0 -> 1.5"]
    # It follows the bit-identical count, and a side with a record that lacks fallback_steps reads n/a.
    assert lines[lines.index(panel[0]) - 1] == "1 of 6 winners bit-identical"
    assert "whole panel: capped 0 -> 7; fallback steps n/a -> 12;" in value_panel.compare(OLD, new)


def test_cli_outputs_compare_keeps_counts_apart_from_values():
    # A step count leaving 0 is an infinite relative change; it must not hide
    # the value that moved, and a field one side lacks is named once per
    # list entry shape.
    old = {"value": 0.5, "restarts": [{"value": 0.5, "steps": 0}, {"value": 0.6, "steps": 4}], "seed": 3}
    new = {"value": 0.5, "restarts": [{"value": 0.5001, "steps": 3, "certificate": 1.0},
                                         {"value": 0.6, "steps": 4, "certificate": 2.0}], "seed": 3}
    outputs = lambda payload: {"minimize x": [0, json.dumps(payload)], "lattice-scan": [0, "t,v\n1,2\n"]}
    lines = cli_outputs.compare(outputs(old), outputs(new))
    assert lines == [
        "stdout differs: minimize x",
        "  keys only in new: restarts[].certificate",
        "  largest relative float change 0.0002 at restarts[0].value: 0.5 -> 0.5001",
        "  largest absolute float change 0.0001 at restarts[0].value: 0.5 -> 0.5001",
        "  largest integer change 3 at restarts[0].steps: 0 -> 3",
    ]
    same = cli_outputs.json_changes(json.dumps(old), json.dumps({**old, "seed": 3.0, "extra": None}))
    assert same == ["keys only in new: extra", "no float at a shared key path changed",
                    "no integer at a shared key path changed"]
    assert cli_outputs.json_changes("t,v", "t,v") is None


def test_cli_outputs_compare_gives_the_absolute_float_change():
    # A value near 0 that moves by rounding reads large relative to itself;
    # its absolute change, next to the largest one elsewhere, shows it is not
    # a real move.
    old = {"gap": 0.5, "quad_err": 2.8114e-17}
    new = {"gap": 0.5 + 2.0**-50, "quad_err": 2.8158e-17}
    assert cli_outputs.json_changes(json.dumps(old), json.dumps(new)) == [
        "largest relative float change 0.00157 at quad_err: 2.8114e-17 -> 2.8158e-17",
        "largest absolute float change 8.88e-16 at gap: 0.5 -> 0.5000000000000009",
        "no integer at a shared key path changed",
    ]


def test_cli_outputs_compare_reads_the_scan_csv():
    # A lattice-scan stdout that differs names its rows: here one value moved
    # in its 12th printed digit, and the theta column held.
    old = "theta,value\n0.8,0.0702\n1.0,0.063634744302\n1.2,0.0619\n"
    new = "theta,value\n0.8,0.0702\n1.0,0.0636347443019\n1.2,0.0619\n"
    lines = cli_outputs.compare({"lattice-scan x": [0, old]}, {"lattice-scan x": [0, new]})
    assert lines == [
        "stdout differs: lattice-scan x",
        "  1 of 3 rows differ",
        "  theta column identical",
        "  largest relative value change 1.57e-12 at theta 1.0: 0.063634744302 -> 0.0636347443019",
        "  largest absolute value change 1e-13 at theta 1.0: 0.063634744302 -> 0.0636347443019",
    ]
    # Another angle window moves the theta column, and a missing row counts as differing.
    shifted = cli_outputs.csv_changes(old, "theta,value\n0.9,0.0702\n1.0,0.063634744302\n")
    assert shifted[:2] == ["2 of 3 rows differ", "theta column differs"]
    assert cli_outputs.csv_changes(old, old)[1:] == ["theta column identical", "no value changed"]
    assert cli_outputs.csv_changes(old, "{}") is None and cli_outputs.csv_changes("t,v\n1,2\n", old) is None


def test_step_costs_times_every_step_on_every_bench_workspace(capsys):
    # One call per timing: the layout, not the speed.  The planar search
    # cycles through the classes (3, 0), (3, 1), (3, 2) and the full space.
    assert step_costs.main(["--number", "1", "--repeat", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [(w["search"], w["class"], w["coefficients"]) for w in out["workspaces"]] == [
        ("planar:8.0:n=16", [3, 0], 6), ("planar:8.0:n=16", [3, 1], 5), ("planar:8.0:n=16", [3, 2], 5),
        ("planar:8.0:n=16", [1, 0], 16), ("hyperbolic:0.9:n=5", [1, 0], 5),
    ]
    steps = ("single_irls_us", "double_irls_us", "iterate_us", "derivatives_us", "newton_direction_us")
    for w in out["workspaces"]:
        assert all(w[key] > 0.0 for key in steps) and w["nodes"] > 0
    # ring_abs_sums on the gap pipeline's core rings at 384 angles.
    assert [(r["polynomial"], r["modes"], r["angles"]) for r in out["ring_sums"]] == [
        ("monomial", [2], 384), ("3-fold", [1, 4], 384), ("generic", [0, 1, 2], 384),
    ]
    assert all(r["ring_abs_sums_us"] > 0.0 and r["rings"] == 384 for r in out["ring_sums"])
    assert (out["number"], out["repeat"]) == (1, 1)
