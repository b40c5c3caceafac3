import json
import math

import pytest

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


def test_nonfinite_report_is_numerical_error(tmp_path, capsys):
    # Overflowing coefficients make the report non-finite; no JSON with
    # Infinity or NaN is written, and the run exits 5.
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


def test_minimize_rejects_csv_format(capsys):
    code, _, _ = run(capsys, "minimize", "--geometry", "planar", "--gamma", "1", "--format", "csv")
    assert code == 4


def test_config_file_errors(tmp_path, capsys):
    code, _, _ = run(capsys, "minimize", "--config", str(tmp_path / "missing.cfg"))
    assert code == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("geometry planar\n")
    code, _, _ = run(capsys, "minimize", "--config", str(bad))
    assert code == 4
