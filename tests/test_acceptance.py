"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criterion 10 is a soft trend check: a broken trend downgrades to a warning
with the run attached, because only subsequential decay is guaranteed.
"""

import math
import time
import warnings

import numpy as np

from zeropack import (
    ComplexPolynomial,
    FunctionalSpec,
    OptimizerConfig,
    abrikosov_candidate,
    build_grid,
    cell_average_density,
    dbar_cutoff,
    default_grid,
    degree_schedule,
    density,
    equality_gap,
    gradient,
    integrate,
    lattice_normalize,
    minimal_correction,
    minimize,
    poly_eval,
    sigma,
    theta_scan,
)

PI = math.pi


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:02d} {name}: {detail}")
    return ok


def rand_polys(seed: int, count: int, n: int):
    rng = np.random.default_rng(seed)
    return [ComplexPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(count)]


def test_criterion_01_abrikosov_golden_value():
    t0 = time.time()
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    value = cell_average_density(cand, (256, 256))
    elapsed = time.time() - t0
    ok = abs(value - 0.061203) <= 5e-4 and elapsed < 60.0
    assert report(1, "Abrikosov golden value", ok, f"value={value:.6f} target=0.061203+-5e-4 time={elapsed:.1f}s")


def test_criterion_02_figure_shape():
    t0 = time.time()
    rows = theta_scan(PI / 3 - 0.3, PI / 3 + 0.3, 21, 1.0, (128, 128))
    elapsed = time.time() - t0
    values = [v for _, v in rows]
    center = min(range(21), key=lambda i: abs(rows[i][0] - PI / 3))
    argmin = int(np.argmin(values))
    monotone = all(values[center + k + 1] > values[center + k] for k in range(3)) and all(
        values[center - k - 1] > values[center - k] for k in range(3)
    )
    ok = argmin == center and monotone and elapsed < 600.0
    assert report(
        2,
        "theta-scan shape",
        ok,
        f"argmin={rows[argmin][0]:.4f} (grid point nearest pi/3: {rows[center][0]:.4f}), "
        f"3-step monotone={monotone}, time={elapsed:.0f}s",
    )


def test_criterion_03_variational_identities():
    worst_ell, worst_val = 0.0, 0.0
    all_converged = True
    for geometry, params in (("hyperbolic", (0.5, 0.8, 0.9)), ("planar", (1.0, 4.0, 8.0))):
        for p in params:
            spec = FunctionalSpec(geometry, p)
            res = minimize(spec, degree_schedule(spec), OptimizerConfig(restarts=3, seed=0))
            all_converged &= res.converged
            d = res.diagnostics
            worst_ell = max(worst_ell, abs(d.ell1 - d.ell2))
            worst_val = max(worst_val, abs(res.value - (1.0 - d.ell1)))
    ok = all_converged and worst_ell < 1e-5 and worst_val < 1e-5
    assert report(
        3,
        "variational identities",
        ok,
        f"max|l1-l2|={worst_ell:.2e} max|value-(1-l1)|={worst_val:.2e} converged={all_converged}",
    )


def test_criterion_04_star_identity():
    worst = 0.0
    for r in (0.5, 0.9):
        spec_u = FunctionalSpec("hyperbolic", r)
        spec_s = FunctionalSpec("hyperbolic", r, starred=True)
        grid_u = default_grid(spec_u)
        grid_s = default_grid(spec_s)
        ann = build_grid((r, 1.0), grid_u.resolution)
        L = math.log(1.0 / (1.0 - r * r))
        for f in rand_polys(404, 100, 9):
            vu = density(f, spec_u, grid_u).value
            vs = density(f, spec_s, grid_s).value
            pun = integrate(ann, lambda z: np.abs(poly_eval(f, z)) ** 2 * (1 - np.abs(z) ** 2)) / L
            worst = max(worst, abs(vs - vu - pun))
    ok = worst < 1e-10
    assert report(4, "star identity", ok, f"max deviation={worst:.2e} over 200 random polynomials")


def test_criterion_05_dbar_bound():
    worst_orth = 0.0
    holds = True
    cases = []
    for geometry, param, delta in (("hyperbolic", 0.9, 0.1), ("planar", 8.0, 8**-0.5)):
        spec = FunctionalSpec(geometry, param)
        res = minimize(spec, degree_schedule(spec), OptimizerConfig(restarts=3, seed=0))
        fs = [res.minimizer] + rand_polys(505, 20, 7)
        for f in fs:
            corr = minimal_correction(f, spec, delta)
            holds &= corr.lhs <= corr.rhs
            worst_orth = max(worst_orth, corr.orthogonality_residual())
        cases.append(f"{geometry}: lhs<=rhs for minimizer+20 random")
    ok = holds and worst_orth < 1e-9
    assert report(5, "dbar bound", ok, f"{'; '.join(cases)}; max orthogonality residual={worst_orth:.2e}")


def test_criterion_06_cutoff_bounds():
    ok = True
    details = []
    for delta, r in ((0.1, 0.9), (0.3, 1.0), (0.05, 0.7)):
        grid = build_grid(((1 - delta) * r, r), (128, 16))
        l2 = integrate(grid, lambda z: np.abs(dbar_cutoff(z, delta, r)) ** 2)
        s = np.linspace((1 - delta) * r, r, 2000)
        sup = float(np.max(np.abs(dbar_cutoff(s + 0j, delta, r)) ** 2))
        ok &= l2 <= 4.0 / delta and sup <= (1.0 / (delta * r) ** 2) * (1 + 1e-12)
        details.append(f"(d={delta},r={r}): L2={l2:.3f}<=4/d={4/delta:.0f}")
    assert report(6, "cut-off bounds", ok, "; ".join(details))


def test_criterion_07_gradient_correctness():
    h = 1e-6
    worst = 0.0
    for geometry, param in (("hyperbolic", 0.8), ("planar", 2.0)):
        spec = FunctionalSpec(geometry, param)
        grid = default_grid(spec, (96, 96))
        for f in rand_polys(707, 20, 5):
            grad = gradient(f, spec, grid)
            fd = np.zeros_like(grad)
            for j in range(5):
                for part in range(2):
                    dc = np.zeros(5, complex)
                    dc[j] = h if part == 0 else 1j * h
                    vp = density(ComplexPolynomial(f.coeffs + dc), spec, grid).value
                    vm = density(ComplexPolynomial(f.coeffs - dc), spec, grid).value
                    fd[2 * j + part] = (vp - vm) / (2 * h)
            worst = max(worst, float(np.max(np.abs(grad - fd))) / max(float(np.max(np.abs(fd))), 1e-12))
    ok = worst < 1e-5
    assert report(7, "gradient correctness", ok, f"max relative error={worst:.2e} over 40 instances")


def test_criterion_08_degree_sufficiency():
    # The schedule is an asymptotic sufficiency statement; this checks how
    # tight it already is at r = 0.9 / gamma = 8 with a 1e-3 budget.
    results = []
    ok = True
    for geometry, param in (("hyperbolic", 0.9), ("planar", 8.0)):
        spec = FunctionalSpec(geometry, param)
        n = degree_schedule(spec)
        v1 = minimize(spec, n, OptimizerConfig(restarts=5, seed=0)).value
        v2 = minimize(spec, n + 10, OptimizerConfig(restarts=5, seed=0)).value
        diff = abs(v1 - v2)
        ok &= diff < 1e-3
        results.append(f"{geometry} n={n}: {v1:.6f} vs n+10: {v2:.6f} (diff {diff:.2e})")
    assert report(8, "degree sufficiency", ok, "; ".join(results))


def test_criterion_09_closed_form_optimizer():
    g = 1.0
    res = minimize(FunctionalSpec("planar", g), 1, OptimizerConfig(restarts=3, seed=0))
    expect_val = 1.0 - (2.0 / g) * (1 - math.exp(-g)) ** 2 / (1 - math.exp(-2 * g))
    expect_mod = 2.0 / (1.0 + math.exp(-1.0))
    val_err = abs(res.value - expect_val)
    mod_err = abs(abs(res.minimizer.coeffs[0]) - expect_mod)
    ok = val_err < 1e-6 and mod_err < 1e-5
    assert report(9, "closed-form optimizer", ok, f"value error={val_err:.2e}, modulus error={mod_err:.2e}")


def test_criterion_10_gap_trend_soft():
    reports = {}
    for r in (0.7, 0.9, 0.95):
        reports[r] = equality_gap(FunctionalSpec("hyperbolic", r), OptimizerConfig(restarts=3, seed=0))
    gaps = {r: rep.gap for r, rep in reports.items()}
    finite = all(np.isfinite(g) for g in gaps.values())
    trend = gaps[0.95] < gaps[0.7]
    detail = ", ".join(f"gap({r})={g:.6f}" for r, g in gaps.items())
    if not trend:
        warnings.warn(
            f"gap trend not decreasing (only subsequential decay is guaranteed): {detail}",
            stacklevel=1,
        )
    assert report(10, "gap trend (soft)", finite, detail + ("" if trend else " [trend WARN]"))


def test_criterion_11_elliptic_suite():
    # Legendre relation across 10 lattices.
    max_leg = 0.0
    for i, theta in enumerate(np.linspace(0.4, PI - 0.4, 10)):
        lat = lattice_normalize(float(theta), 1.0 if i % 2 == 0 else 2.0)
        max_leg = max(max_leg, abs(lat.eta1 * lat.omega2 - lat.eta2 * lat.omega1 - 1j * PI / 2))
    # Quasiperiodicity on 100 random points, both generators.
    lat = lattice_normalize(PI / 3, 1.0)
    rng = np.random.default_rng(1111)
    z = 1.2 * (rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100))
    base = sigma(z, lat)
    max_qp = 0.0
    for w, eta in ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2)):
        rhs = -base * np.exp(2 * eta * (z + w))
        max_qp = max(max_qp, float(np.max(np.abs(sigma(z + 2 * w, lat) - rhs) / np.abs(rhs))))
    # Theta-series versus symmetric lattice product at 10 points.
    m = np.arange(-900, 901)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    om = (2 * mm * lat.omega1 + 2 * nn * lat.omega2)[(mm > 0) | ((mm == 0) & (nn > 0))]
    max_prod = 0.0
    for _ in range(10):
        zz = 0.2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        zeta2 = (zz / om) ** 2
        ref = zz * np.exp(np.sum(np.log1p(-zeta2) + zeta2))
        max_prod = max(max_prod, abs(sigma(zz, lat) - ref) / abs(ref))
    ok = max_leg < 1e-10 and max_qp < 1e-10 and max_prod < 1e-8
    assert report(
        11,
        "elliptic-function suite",
        ok,
        f"legendre={max_leg:.2e}, quasiperiodicity={max_qp:.2e}, product cross-check={max_prod:.2e}",
    )


def test_criterion_12_quadrature_identity():
    worst = 0.0
    for r in (0.5, 0.9, 0.99):
        grid = build_grid((0, r), (160, 32))
        val = integrate(grid, lambda z: 1.0 / (1.0 - np.abs(z) ** 2))
        worst = max(worst, abs(val - math.log(1.0 / (1.0 - r * r))))
    ok = worst < 1e-10
    assert report(12, "hyperbolic area identity", ok, f"max absolute error={worst:.2e}")
