import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import zeropack
from zeropack import theta_scan
from zeropack.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_minimize_planar_closed_form(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "minimize", "--geometry", "planar", "--gamma", "1", "--degree", "1", "--out", str(out)
    )
    assert code == 0
    payload = json.loads(out.read_text())
    g = 1.0
    expect = 1.0 - (2.0 / g) * (1 - math.exp(-g)) ** 2 / (1 - math.exp(-2 * g))
    assert abs(payload["value"] - expect) < 1e-6
    assert payload["degree"] == 1
    assert payload["converged"] is True
    assert payload["version"]


def test_minimize_degree_auto_schedule(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(
        capsys,
        "minimize", "--geometry", "hyperbolic", "--r", "0.9",
        "--restarts", "2", "--resolution", "96x96", "--out", str(out),
    )
    assert code in (0, 2)
    payload = json.loads(out.read_text())
    assert payload["degree"] == 5


def test_missing_flags_usage_error(capsys):
    code, _, err = run(capsys, "minimize")
    assert code == 4
    assert "usage" in err.lower()
    code, _, _ = run(capsys, "minimize", "--geometry", "hyperbolic")
    assert code == 4
    code, _, _ = run(capsys)
    assert code == 4


def test_lattice_scan_two_rows(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys,
        "lattice-scan", "--beta", "1", "--theta-min", "1.0", "--theta-max", "1.1",
        "--steps", "2", "--resolution", "32x32", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,value"
    assert len(lines) == 3
    sidecar = json.loads((tmp_path / "scan.summary.json").read_text())
    assert {"argmin_theta", "min_value"} <= set(sidecar)


def test_lattice_scan_argmin_near_center(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys,
        "lattice-scan", "--theta-min", str(math.pi / 3 - 0.2), "--theta-max", str(math.pi / 3 + 0.2),
        "--steps", "5", "--resolution", "64x64", "--out", str(out),
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "scan.summary.json").read_text())
    assert abs(sidecar["argmin_theta"] - math.pi / 3) < 1e-9
    assert abs(sidecar["min_value"] - 0.061203) < 5e-4


def test_lattice_scan_beta_two(tmp_path, capsys):
    out = tmp_path / "b2.csv"
    code, _, _ = run(
        capsys,
        "lattice-scan", "--beta", "2", "--theta-min", "1.0", "--theta-max", "1.1",
        "--steps", "3", "--resolution", "32x32", "--out", str(out),
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "b2.summary.json").read_text())
    assert 0.0 < sidecar["min_value"] < 1.0


def test_lattice_scan_stdout(capsys):
    code, out, _ = run(
        capsys,
        "lattice-scan", "--theta-min", "1.0", "--theta-max", "1.1", "--steps", "2",
        "--resolution", "32x32",
    )
    assert code == 0
    assert out.startswith("theta,value\n")


def test_lattice_scan_rows_equal_theta_scan(capsys):
    # The CLI and theta_scan score the same angles: on the default window
    # np.linspace would differ from the CLI's angles at indices 3 and 17.
    code, out, _ = run(capsys, "lattice-scan", "--format", "json", "--resolution", "32x32")
    assert code == 0
    rows = [tuple(row) for row in json.loads(out)["rows"]]
    assert rows == theta_scan(math.pi / 3 - 0.3, math.pi / 3 + 0.3, 21, 1.0, (32, 32))


def test_lattice_scan_refuses_a_window_before_scoring(tmp_path, capsys):
    # The scan is theta_scan's, so a window that is not increasing inside
    # (0, pi) is a usage error, and nothing is written.
    out_path = tmp_path / "scan.csv"
    for lo, hi in (("1.1", "1.0"), ("1.0", "1.0"), ("0.0", "1.0"), ("1.0", "3.2")):
        for out in ([], ["--out", str(out_path)]):
            code, stdout, err = run(
                capsys, "lattice-scan", "--theta-min", lo, "--theta-max", hi, "--steps", "3", "--resolution", "16x16", *out,
            )
            assert code == 4 and stdout == "" and not out_path.exists()
            assert err.startswith("usage error:") and "scan interval" in err


def test_gap_sweep_hyperbolic(tmp_path, capsys):
    out = tmp_path / "gap.json"
    code, _, _ = run(
        capsys,
        "gap", "--geometry", "hyperbolic", "--r", "0.5,0.7",
        "--restarts", "2", "--resolution", "64x64", "--out", str(out),
    )
    assert code in (0, 2)
    payload = json.loads(out.read_text())
    assert len(payload["reports"]) == 2
    for rep in payload["reports"]:
        assert rep["dbar_lhs"] <= rep["dbar_rhs"]
        assert "sigma_sq_estimate" in rep
    assert payload["summary"]["params"] == [0.5, 0.7]


def test_gap_planar_no_sigma_field(tmp_path, capsys):
    out = tmp_path / "gapp.json"
    code, _, _ = run(
        capsys,
        "gap", "--geometry", "planar", "--gamma", "2",
        "--restarts", "2", "--resolution", "64x64", "--out", str(out),
    )
    assert code in (0, 2)
    payload = json.loads(out.read_text())
    assert "sigma_sq_estimate" not in payload["reports"][0]


def test_gap_empty_sweep(capsys):
    code, _, _ = run(capsys, "gap", "--geometry", "hyperbolic", "--r", "")
    assert code == 4


def test_gap_non_increasing_sweep(capsys):
    code, _, _ = run(capsys, "gap", "--geometry", "hyperbolic", "--r", "0.9,0.7")
    assert code == 4


def test_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "minimize", "--geometry", "planar", "--gamma", "2", "--degree", "3",
        "--seed", "7", "--restarts", "2", "--resolution", "64x64",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_out_path(capsys):
    code, _, err = run(
        capsys,
        "minimize", "--geometry", "planar", "--gamma", "1", "--degree", "1",
        "--resolution", "32x32", "--out", "/nonexistent/dir/report.json",
    )
    assert code == 3
    assert "i/o" in err.lower()


def test_eval_polynomial_file(tmp_path, capsys):
    poly = tmp_path / "p.json"
    poly.write_text("[[1.0, 0.0], [0.0, 0.5]]")
    out = tmp_path / "eval.json"
    code, _, _ = run(
        capsys,
        "eval", "--geometry", "hyperbolic", "--r", "0.8", "--poly", str(poly),
        "--resolution", "64x64", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["geometry"] == "hyperbolic"
    assert payload["value"] > 0


def test_eval_requires_poly(capsys):
    code, _, _ = run(capsys, "eval", "--geometry", "hyperbolic", "--r", "0.8")
    assert code == 4


def test_dbar_check_with_poly(tmp_path, capsys):
    poly = tmp_path / "p.json"
    poly.write_text("[[1.0, 0.0], [0.2, 0.1]]")
    out = tmp_path / "dbar.json"
    code, _, _ = run(
        capsys,
        "dbar-check", "--geometry", "planar", "--gamma", "4", "--poly", str(poly),
        "--resolution", "96x96", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["bound_satisfied"] is True
    assert payload["dbar_lhs"] <= payload["dbar_rhs"]
    assert payload["orthogonality_residual"] < 1e-9


def test_dbar_check_poly_longer_than_the_angle_count_is_usage_error(tmp_path, capsys):
    # The default planar resolution has 129 angles per ring.
    poly = tmp_path / "p.json"
    for length, expect in ((129, 0), (130, 4)):
        poly.write_text(json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * (length - 2) + [[1e-3, 0.0]]))
        code, out, err = run(capsys, "dbar-check", "--geometry", "planar", "--gamma", "8", "--poly", str(poly))
        assert code == expect, err
    assert out == "" and "degree bound 130 needs at least 130 angles per ring; the grid has 129" in err


def test_eval_poly_longer_than_the_angle_count_is_usage_error(tmp_path, capsys):
    # Past the angle count the equispaced angles alias mode k + 129 onto k.
    poly = tmp_path / "p.json"
    for length, expect in ((129, 0), (130, 4)):
        poly.write_text(json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * (length - 2) + [[1e-3, 0.0]]))
        code, out, err = run(capsys, "eval", "--geometry", "planar", "--gamma", "8", "--poly", str(poly))
        assert code == expect, err
    assert out == "" and "degree bound 130 needs at least 130 angles per ring; the grid has 129" in err


@pytest.mark.parametrize("command", ["minimize", "eval", "dbar-check"])
def test_single_parameter_commands_refuse_a_sweep(tmp_path, capsys, command):
    poly = tmp_path / "p.json"
    poly.write_text("[[1, 0]]")
    extra = [] if command == "minimize" else ["--poly", str(poly)]
    code, out, err = run(capsys, command, "--geometry", "hyperbolic", "--r", "0.5,0.7", *extra)
    assert code == 4 and out == ""
    assert f"usage error: {command} takes a single parameter, not a sweep" in err


@pytest.mark.parametrize(
    "text,problem",
    [
        pytest.param("[[1, 0]", "not valid JSON", id="bad-json"),
        pytest.param('[[1, "a"]]', 'coefficient 0 must be a pair of numbers [re, im], got [1, "a"]', id="non-numeric"),
        pytest.param("[1, 2]", "coefficient 0 must be a pair of numbers [re, im], got 1", id="flat-list"),
        pytest.param("[[1, 0], [1, 2, 3]]", "coefficient 1 must be a pair of numbers [re, im], got [1, 2, 3]", id="triple"),
    ],
)
def test_malformed_poly_file_is_usage_error(tmp_path, capsys, text, problem):
    poly = tmp_path / "p.json"
    poly.write_text(text)
    planar = ["--geometry", "planar", "--gamma", "2", "--resolution", "32x32", "--poly", str(poly)]
    for command in ("eval", "dbar-check"):
        code, out, err = run(capsys, command, *planar)
        assert code == 4, (command, err)
        assert out == "" and "Traceback" not in err
        assert f"--poly {poly}: " in err and problem in err


def test_jobs_below_one_is_usage_error(capsys):
    gap = ["gap", "--geometry", "planar", "--gamma", "1", "--resolution", "32x32"]
    scan = ["lattice-scan", "--steps", "2", "--resolution", "16x16"]
    for argv, jobs in ((gap, "0"), (gap, "-3"), (scan, "0")):
        code, out, err = run(capsys, *argv, "--jobs", jobs)
        assert code == 4 and out == ""
        assert f"--jobs must be >= 1, got {jobs}" in err


def test_jobs_concurrent_matches_serial(tmp_path, capsys):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = [
        "lattice-scan", "--theta-min", "1.0", "--theta-max", "1.1", "--steps", "4",
        "--resolution", "32x32",
    ]
    assert main(base + ["--out", str(serial)]) == 0
    assert main(base + ["--jobs", "3", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "zeropack" in capsys.readouterr().out
    # python -m zeropack runs the same command from a checkout, uninstalled.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "zeropack", "--version"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("zeropack ")


def test_config_file_mirrors_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("geometry = planar\ngamma = 1\ndegree = 1\nresolution = 64x64\n")
    out = tmp_path / "from_config.json"
    code, _, _ = run(capsys, "minimize", "--config", str(cfg), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["degree"] == 1
    assert payload["geometry"] == "planar"
    # explicit flags override config values
    out2 = tmp_path / "override.json"
    code, _, _ = run(capsys, "minimize", "--config", str(cfg), "--degree", "2", "--out", str(out2))
    assert code == 0
    assert json.loads(out2.read_text())["degree"] == 2


def test_numerical_failure_exit_code(capsys):
    # At this degree the planar Gram diagonal underflows to zero.
    code, _, err = run(
        capsys,
        "minimize", "--geometry", "planar", "--gamma", "1000", "--degree", "400",
        "--resolution", "8x512", "--restarts", "1",
    )
    assert code == 5
    assert err.startswith("numerical error:")


@pytest.mark.filterwarnings("error")
def test_nonfinite_report_is_numerical_error(tmp_path, capsys):
    # Overflowing coefficients make the report non-finite; no JSON with
    # Infinity or NaN is written, and the run exits 5 with no warning.
    poly = tmp_path / "p.json"
    poly.write_text("[[1e300, 0], [1e300, 0]]")
    for command, resolution in (("eval", "16x16"), ("dbar-check", "32x32")):
        out = tmp_path / f"{command}.json"
        code, _, err = run(
            capsys,
            command, "--geometry", "planar", "--gamma", "2", "--poly", str(poly),
            "--resolution", resolution, "--out", str(out),
        )
        assert code == 5
        assert err.startswith("numerical error:")
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    [
        # A resolution with no radii.
        (["minimize", "--geometry", "planar", "--gamma", "2", "--resolution", "0x8"], 4),
        # A scan window reaching outside (0, pi).
        (["lattice-scan", "--theta-min", "0", "--steps", "3", "--resolution", "16x16"], 4),
        # The planar Gram diagonal underflows.
        (["minimize", "--geometry", "planar", "--gamma", "1000", "--degree", "400", "--resolution", "8x512"], 5),
        # A valid angle whose theta series fail the Legendre check.
        (["lattice-scan", "--theta-min", "0.065", "--steps", "3", "--resolution", "16x16"], 5),
        # Overflowing cell envelopes, scored in this thread and in worker threads.
        (["lattice-scan", "--beta", "200", "--steps", "3", "--resolution", "16x16"], 5),
        (["lattice-scan", "--beta", "200", "--steps", "3", "--resolution", "16x16", "--jobs", "2"], 5),
        # An overflowing periodicity residual.
        (["lattice-scan", "--beta", "500", "--steps", "3", "--resolution", "16x16"], 5),
        # Overflowing coefficients.
        (["eval", "--geometry", "planar", "--gamma", "2", "--poly", "{big}", "--resolution", "16x16"], 5),
        (["dbar-check", "--geometry", "planar", "--gamma", "2", "--poly", "{big}", "--resolution", "32x32"], 5),
    ],
)
def test_exit_code_table(tmp_path, capsys, argv, code):
    # Exit 4 for input the CLI cannot take, 5 for a numerical failure: one
    # stderr line each, with no numpy warning before it.
    big = tmp_path / "big.json"
    big.write_text("[[1e300, 0], [1e300, 0]]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, out, err = run(capsys, *(a.format(big=big) for a in argv))
    assert result == code
    assert err.startswith("usage error:" if code == 4 else "numerical error:") and err.count("\n") == 1, err
    assert out == ""


def test_one_error_class_per_exit_code():
    errors = [n for n in zeropack.__all__ if isinstance(getattr(zeropack, n), type)
              and issubclass(getattr(zeropack, n), Exception)]
    assert sorted(errors) == ["ConfigurationError", "NumericError", "ZeropackError"]


def test_minimize_rejects_csv_format(capsys):
    # Only lattice-scan has two output formats; every other command refuses --format.
    for command in ("minimize", "gap", "eval", "dbar-check"):
        code, _, _ = run(capsys, command, "--geometry", "planar", "--gamma", "1", "--format", "csv")
        assert code == 4
    code, out, _ = run(capsys, "lattice-scan", "--steps", "2", "--resolution", "64x64", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2


def test_config_file_errors(tmp_path, capsys):
    code, _, _ = run(capsys, "minimize", "--config", str(tmp_path / "missing.cfg"))
    assert code == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("geometry planar\n")
    code, _, _ = run(capsys, "minimize", "--config", str(bad))
    assert code == 4


def test_flags_a_command_ignores_are_usage_errors(capsys):
    # lattice-scan scans lattices: no geometry, parameter, seed or restarts.
    scan = ["lattice-scan", "--steps", "2", "--resolution", "32x32"]
    for flags in (["--geometry", "planar"], ["--r", "0.5"], ["--gamma", "3"], ["--seed", "1"], ["--restarts", "2"]):
        code, out, _ = run(capsys, *scan, *flags)
        assert code == 4, flags
        assert out == ""
    code, _, _ = run(capsys, *scan)
    assert code == 0
    # Each geometry takes its own parameter only.
    for command in ("minimize", "gap", "eval", "dbar-check"):
        for flags in (["--geometry", "planar", "--gamma", "1", "--r", "0.5"],
                      ["--geometry", "hyperbolic", "--r", "0.5", "--gamma", "1"]):
            code, _, err = run(capsys, command, *flags)
            assert code == 4, (command, flags)
            assert "applies to" in err


def test_search_and_jobs_flags_only_where_read(tmp_path, capsys):
    # --jobs is read by the sweeps only, and --seed/--restarts only where a
    # search runs: eval never searches, dbar-check not when given --poly.
    poly = tmp_path / "p.json"
    poly.write_text("[[1.0, 0.0], [0.2, 0.1]]")
    planar = ["--geometry", "planar", "--gamma", "2", "--resolution", "32x32"]
    refused = [
        ["eval", *planar, "--poly", str(poly), "--seed", "5"],
        ["eval", *planar, "--poly", str(poly), "--restarts", "9"],
        ["eval", *planar, "--poly", str(poly), "--jobs", "4"],
        ["minimize", *planar, "--degree", "1", "--jobs", "4"],
        ["dbar-check", *planar, "--poly", str(poly), "--seed", "3"],
        ["dbar-check", *planar, "--poly", str(poly), "--restarts", "7"],
        ["dbar-check", *planar, "--jobs", "3"],
    ]
    for argv in refused:
        code, out, err = run(capsys, *argv)
        assert code == 4, argv
        assert out == "" and "usage" in err.lower()
    accepted = [
        ["eval", *planar, "--poly", str(poly)],
        ["dbar-check", *planar, "--poly", str(poly)],
        ["dbar-check", *planar, "--seed", "3", "--restarts", "2"],
        ["gap", *planar, "--seed", "3", "--restarts", "2", "--jobs", "2"],
    ]
    for argv in accepted:
        assert run(capsys, *argv)[0] == 0, argv


def test_payload_reports_the_grid_used(capsys):
    # Without --resolution each geometry runs on its spec's default grid:
    # planar's angle count is rounded up to a multiple of its 3-fold symmetry.
    cases = [
        (["minimize", "--geometry", "planar", "--gamma", "1", "--degree", "1"], [128, 129]),
        (["minimize", "--geometry", "hyperbolic", "--r", "0.5", "--degree", "1"], [128, 128]),
        (["minimize", "--geometry", "planar", "--gamma", "1", "--degree", "1", "--resolution", "64x64"], [64, 64]),
        (["gap", "--geometry", "planar", "--gamma", "0.5", "--restarts", "1"], [128, 129]),
    ]
    for argv, resolution in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        payload = json.loads(out)
        assert payload["grid_resolution"] == resolution, argv
        if argv[0] == "minimize":
            assert payload["diagnostics"]["grid_resolution"] == resolution
            assert payload["seed"] == 0 and len(payload["restarts"]) == 3


def test_negative_seed_is_usage_error(capsys):
    code, out, err = run(capsys, "minimize", "--geometry", "hyperbolic", "--r", "0.5", "--seed", "-1")
    assert code == 4
    assert err.startswith("usage error:") and "seed" in err
    assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_geometry_parameters_are_usage_errors(tmp_path, capsys, value):
    # The input is at fault, so none of these is a traceback or a numerical error.
    poly = tmp_path / "p.json"
    poly.write_text("[[1.0, 0.0]]")
    for argv in (
        ["minimize", "--geometry", "planar", "--gamma", value],
        ["gap", "--geometry", "planar", "--gamma", value],
        ["eval", "--geometry", "planar", "--gamma", "2", "--poly", str(poly), "--beta", value],
        ["eval", "--geometry", "planar", "--gamma", value, "--poly", str(poly)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 4, argv
        assert err.startswith("usage error:") and out == "", argv


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lattice_scan_nonfinite_beta_is_usage_error(tmp_path, capsys, value, fmt):
    out_path = tmp_path / f"scan.{fmt}"
    for out in ([], ["--out", str(out_path)]):
        code, stdout, err = run(
            capsys,
            "lattice-scan", "--beta", value, "--steps", "3", "--resolution", "16x16", "--format", fmt, *out,
        )
        assert code == 4
        assert err.startswith("usage error:") and "beta" in err
        assert stdout == "" and not out_path.exists()


@pytest.mark.parametrize("lo,hi", [("0.02", "0.1"), ("2.9", "3.1")])
def test_lattice_scan_failed_legendre_relation_is_numerical_error(tmp_path, capsys, lo, hi):
    # theta = 0.02 and 3.1 are valid angles whose theta series lose their
    # digits to cancellation: a numerical failure, not a usage error.
    out_path = tmp_path / "scan.csv"
    for out in ([], ["--out", str(out_path)]):
        code, stdout, err = run(
            capsys, "lattice-scan", "--theta-min", lo, "--theta-max", hi, "--steps", "3", "--resolution", "16x16", *out,
        )
        assert code == 5
        assert err.startswith("numerical error:") and "Legendre" in err
        assert stdout == "" and not out_path.exists()


def test_minimize_gamma_16_converges(capsys):
    # At gamma = 16 (32 coefficients) full-space IRLS steps crawl: every
    # restart must end at a stationary point, not at the 1500-step cap, so
    # that this search's winner converges.
    code, out, _ = run(capsys, "minimize", "--geometry", "planar", "--gamma", "16", "--restarts", "4", "--seed", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True and payload["capped"] == 0
    assert {r["stop"] for r in payload["restarts"]} <= {"stationary", "tolerance"}
    assert 1 <= payload["tied"] <= 4
    assert 0.0 < payload["diagnostics"]["quad_err"] < 1e-3


def test_minimize_capped_winner_exits_2(monkeypatch, capsys):
    # A winner that hit the step cap did not converge: the report is still
    # written, and the exit code says so.
    monkeypatch.setattr("zeropack.optimize.MAX_ITERATIONS", 5)
    code, out, _ = run(capsys, "minimize", "--geometry", "planar", "--gamma", "8", "--restarts", "2", "--seed", "3")
    assert code == 2
    payload = json.loads(out)
    assert payload["converged"] is False and payload["capped"] == 2
    assert [r["stop"] for r in payload["restarts"]] == ["cap", "cap"]
