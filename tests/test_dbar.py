import dataclasses
import math
import re

import numpy as np
import pytest

from zeropack import (
    ComplexPolynomial,
    ConfigurationError,
    FunctionalSpec,
    NumericError,
    OptimizerConfig,
    QuadratureGrid,
    build_grid,
    cutoff,
    dbar_cutoff,
    default_grid,
    degree_schedule,
    density,
    equality_gap,
    integrate,
    minimal_correction,
    minimize,
    poly_eval,
    project_polynomial,
)
from zeropack import dbar
from zeropack.cli import main
from zeropack.poly import gram_diagonal, vandermonde

from conftest import random_poly

CONFIGS = [(0.1, 0.9), (0.3, 1.0), (0.05, 0.7)]
HYP = FunctionalSpec("hyperbolic", 0.9)


def planar(gamma):
    return FunctionalSpec("planar", gamma)


def obstacle(geometry, param, z):
    return FunctionalSpec(geometry, param).obstacle(z)


def test_correction_width_validation():
    # The cut-off's width lies in (0, 1]; at 1 its ramp spans the core.
    for delta in (0.0, 1.5):
        with pytest.raises(ConfigurationError, match=re.escape(f"delta must lie in (0,1], got {delta}")):
            minimal_correction(ComplexPolynomial([1.0]), HYP, delta, (16, 16))


def test_cutoff_plateau_and_support():
    inner = (1 - 0.2) * 0.8
    assert cutoff(inner / 2, 0.2, 0.8) == 1.0
    assert dbar_cutoff(inner / 2, 0.2, 0.8) == 0.0
    assert cutoff(0.8, 0.2, 0.8) == 0.0
    assert cutoff(0.9, 0.2, 0.8) == 0.0
    assert dbar_cutoff(0.9, 0.2, 0.8) == 0.0
    # explicit ramp value mid-annulus
    s = (inner + 0.8) / 2
    expect = (1 / 0.2 - s / (0.2 * 0.8)) ** 2
    assert abs(cutoff(s, 0.2, 0.8) - expect) < 1e-14


def test_cutoff_sandwich(rng):
    z = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    chi = cutoff(z, 0.3, 0.9)
    s = np.abs(z)
    assert np.all((chi >= 0) & (chi <= 1))
    assert np.all(chi[s <= (1 - 0.3) * 0.9] == 1.0)
    assert np.all(chi[s > 0.9] == 0.0)


@pytest.mark.parametrize("delta,r", CONFIGS)
def test_dbar_cutoff_pointwise_bound(delta, r):
    # The explicit ramp attains |dbar chi|^2 <= 1/(delta r)^2, constant C = 1.
    s = np.linspace((1 - delta) * r, r, 1000)
    vals = np.abs(dbar_cutoff(s + 0j, delta, r)) ** 2
    assert np.max(vals) <= (1.0 / (delta * r) ** 2) * (1 + 1e-12)
    # The bound is attained at the inner seam.
    assert abs(np.abs(dbar_cutoff((1 - delta) * r + 0j, delta, r)) - 1.0 / (delta * r)) < 1e-12


@pytest.mark.parametrize("delta,r", CONFIGS)
def test_dbar_cutoff_l2_bound(delta, r):
    # Closed form of the ramp: ||dbar chi||^2 = 2/(3 delta) - 1/2 <= 4/delta.
    grid = build_grid(((1 - delta) * r, r), (128, 16))
    val = integrate(grid, lambda z: np.abs(dbar_cutoff(z, delta, r)) ** 2)
    assert val <= 4.0 / delta
    assert abs(val - (2.0 / (3.0 * delta) - 0.5)) < 1e-10


def test_dbar_cutoff_radial_direction(rng):
    # dbar chi = chi'(|z|) * z/(2|z|): phase of z, radial slope.
    z = 0.7 * np.exp(1j * rng.uniform(0, 2 * math.pi, 50))
    vals = dbar_cutoff(z, 0.2, 0.8)
    slope = -2.0 * (0.8 - 0.7) / (0.2 * 0.8) ** 2
    expect = slope * z / (2 * 0.7)
    assert np.max(np.abs(vals - expect)) < 1e-13


def test_project_idempotent_on_polynomials(rng):
    grid = build_grid((0, 1), (96, 64))
    for _ in range(5):
        p = random_poly(rng, 5)
        q = project_polynomial(lambda z: poly_eval(p, z), HYP, 8, grid)
        assert np.max(np.abs(q.coeffs[:5] - p.coeffs)) < 1e-10
        assert np.max(np.abs(q.coeffs[5:])) < 1e-10


def test_project_idempotent_planar_degree_64(rng):
    # The Gram diagonal spans 68 orders of magnitude here, far beyond what a
    # dense solve of the normal equations can resolve.
    n = 64
    grid = build_grid((0, planar(1.0).support(n)), (128, 256))
    weight = np.exp(-2.0 * grid.radii**2) * grid.ring_weights
    scales = 1.0 / np.sqrt(gram_diagonal(grid, weight, n))
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p = ComplexPolynomial(raw * scales)
    q = project_polynomial(lambda z: poly_eval(p, z), planar(1.0), n, grid)
    assert np.max(np.abs((q.coeffs - p.coeffs) / scales)) < 1e-10 * np.max(np.abs(raw))


def test_project_rejects_non_ring_grids():
    with pytest.raises(ConfigurationError, match="at least 20 angles"):
        project_polynomial(lambda z: z, HYP, 20, build_grid((0, 1), (32, 16)))


def test_project_rejects_values_of_the_wrong_shape():
    grid = build_grid((0, 1), (16, 16))
    values = np.ones(16 * 16, dtype=complex)
    assert np.all(np.isfinite(project_polynomial(values, HYP, 4, grid).coeffs))
    for bad in (values[:-1], values.reshape(16, 16), np.ones(17 * 16)):
        with pytest.raises(ConfigurationError, match="match the grid nodes"):
            project_polynomial(bad, HYP, 4, grid)


def test_project_antiholomorphic_to_zero():
    n = 4
    grid = build_grid((0, planar(1.0).support(n)), (96, 64))
    q = project_polynomial(lambda z: np.conj(z), planar(1.0), n, grid)
    assert np.max(np.abs(q.coeffs)) < 1e-12


def test_project_orthogonality_residuals(rng):
    grid = build_grid((0, 1), (96, 64))
    n = 6
    wv = (1 - np.abs(grid.nodes) ** 2) * grid.weights
    for _ in range(5):
        gv = np.cos(np.real(grid.nodes)) + 1j * np.abs(grid.nodes)
        p = project_polynomial(gv, HYP, n, grid)
        resid = gv - poly_eval(p, grid.nodes)
        norm_g = math.sqrt(float(np.sum(wv * np.abs(gv) ** 2)))
        for k in range(n):
            inner = abs(np.sum(wv * resid * np.conj(grid.nodes**k)))
            assert inner < 1e-10 * norm_g


def test_minimal_correction_zero():
    corr = minimal_correction(ComplexPolynomial([0.0]), HYP, 0.1)
    assert corr.lhs == 0.0
    assert corr.rhs == 0.0
    assert not np.any(corr.u_coeffs)


def test_minimal_correction_bound_random(rng):
    for _ in range(5):
        f = random_poly(rng, 6)
        ch = minimal_correction(f, HYP, 0.1)
        assert ch.lhs <= ch.rhs
        assert ch.orthogonality_residual() < 1e-9
        cp = minimal_correction(f, planar(8.0), 8**-0.5)
        assert cp.lhs <= cp.rhs
        assert cp.orthogonality_residual() < 1e-9


@pytest.mark.parametrize("spec", [planar(2.0), planar(8.0), HYP], ids=lambda s: f"{s.geometry}-{s.param}")
def test_orthogonality_residual_matches_node_sums(spec, rng):
    # u made non-orthogonal on purpose: adding c_k z^k for k < n, as c_k r^k
    # on every ring, moves <u, z^k> by c_k ||z^k||^2, so the residual is of
    # order 1.  The oracle takes u node by node, chi*f - nu + sum c_k z^k by
    # Horner, and sums the weighted inner products over the nodes.
    delta = spec.default_delta
    f = random_poly(rng, 4)
    corr = minimal_correction(f, spec, delta, (48, 50))
    n, grid = corr.degree_bound, corr.grid
    c = random_poly(rng, n)
    u_coeffs = corr.u_coeffs.copy()
    u_coeffs[:, :n] += c.coeffs * grid.radii[:, None] ** np.arange(n)
    z = grid.nodes
    a2 = np.abs(z) ** 2
    node_weight = (1.0 - a2 if spec.geometry == "hyperbolic" else np.exp(-2.0 * spec.param * a2)) * grid.weights
    u = cutoff(z, delta, spec.indicator_radius) * poly_eval(f, z) - poly_eval(corr.nu, z) + poly_eval(c, z)
    lhs = float(np.sum(node_weight * np.abs(u) ** 2))
    want = max(abs(np.sum(node_weight * u * np.conj(z**k))) for k in range(n)) / math.sqrt(lhs)
    assert want > 1e-2
    got = dataclasses.replace(corr, u_coeffs=u_coeffs, lhs=lhs).orthogonality_residual()
    assert abs(got - want) <= 1e-12 * want


def test_minimal_correction_bound_minimizer():
    res = minimize(HYP, 5, OptimizerConfig(restarts=2, seed=1))
    corr = minimal_correction(res.minimizer, HYP, 0.1)
    assert corr.lhs <= corr.rhs
    assert corr.nu.degree() <= corr.degree_bound - 1


def test_minimal_correction_planar_degree_bound(rng):
    corr = minimal_correction(random_poly(rng, 5), planar(4.0), 0.3)
    assert corr.degree_bound == 8
    assert corr.nu.degree() <= 7


def test_minimal_correction_minimality(rng):
    # Perturbing the projection along any monomial strictly increases the norm.
    f = random_poly(rng, 5)
    corr = minimal_correction(f, FunctionalSpec("hyperbolic", 0.8), 0.2)
    grid = corr.grid
    wv = (1 - np.abs(grid.nodes) ** 2) * grid.weights
    chi_f = cutoff(grid.nodes, 0.2, 0.8) * poly_eval(f, grid.nodes)
    base = float(np.sum(wv * np.abs(chi_f - poly_eval(corr.nu, grid.nodes)) ** 2))
    for k in range(corr.degree_bound):
        pert = corr.nu.coeffs.copy()
        pert[k] += 1e-3
        val = float(np.sum(wv * np.abs(chi_f - poly_eval(ComplexPolynomial(pert), grid.nodes)) ** 2))
        assert val > base


def test_obstacle_planar_seam():
    g = 3.0
    assert abs(obstacle("planar", g, 1.0 + 0j) - 2 * g) < 1e-12
    assert abs(obstacle("planar", g, 1.0 - 1e-6 + 0j) - 2 * g) < 1e-4
    # harmonic branch outside
    assert abs(obstacle("planar", g, 2.0 + 0j) - (2 * g * math.log(4.0) + 2 * g)) < 1e-12


def test_obstacle_hyperbolic_seam_and_slope():
    r = 0.8
    L = math.log(1 / (1 - r * r))
    assert abs(obstacle("hyperbolic", r, r + 0j) - L) < 1e-12
    # Radial derivative from outside at the seam: second-order one-sided stencil.
    h = 1e-5
    d = (
        -3 * obstacle("hyperbolic", r, r + 0j)
        + 4 * obstacle("hyperbolic", r, r + h + 0j)
        - obstacle("hyperbolic", r, r + 2 * h + 0j)
    ) / (2 * h)
    assert abs(d - 2 * r / (1 - r * r)) < 1e-8


def test_obstacle_planar_slope_matches():
    g = 2.0
    h = 1e-5
    d = (
        -3 * obstacle("planar", g, 1.0 + 0j)
        + 4 * obstacle("planar", g, 1.0 + h + 0j)
        - obstacle("planar", g, 1.0 + 2 * h + 0j)
    ) / (2 * h)
    assert abs(d - 4 * g) < 1e-7


def test_obstacle_laplacian_matches_bound_weights():
    # The quarter-Laplacian of the obstacle extension is what divides the
    # weight in the correction bound: (1-|z|^2)^-2 on the hyperbolic core,
    # the constant 2*gamma on the planar core.  Five-point stencil, h = 1e-4.
    h = 1e-4

    def quarter_laplacian(geometry, param, z):
        vals = [
            obstacle(geometry, param, z + h),
            obstacle(geometry, param, z - h),
            obstacle(geometry, param, z + 1j * h),
            obstacle(geometry, param, z - 1j * h),
        ]
        return (sum(vals) - 4 * obstacle(geometry, param, z)) / (4 * h * h)

    r = 0.8
    for z in (0.1 + 0.2j, -0.4j, 0.5 + 0.1j):
        expect = (1 - abs(z) ** 2) ** -2
        assert abs(quarter_laplacian("hyperbolic", r, z) - expect) < 1e-5 * expect
    g = 3.0
    for z in (0.2, 0.5j, -0.3 + 0.4j):
        assert abs(quarter_laplacian("planar", g, z) - 2 * g) < 1e-5 * g
    # The spec's Laplacian factor of the bound is the same dd-bar phi.
    for geometry, param, z in (("hyperbolic", r, 0.1 + 0.2j), ("hyperbolic", r, 0.5 + 0.1j), ("planar", g, 0.5j)):
        expect = quarter_laplacian(geometry, param, z)
        assert abs(FunctionalSpec(geometry, param).laplacian(abs(z)) - expect) < 1e-5 * expect
    # Outside the core both extensions are harmonic.
    assert abs(quarter_laplacian("hyperbolic", r, 0.95 + 0j)) < 1e-4
    assert abs(quarter_laplacian("planar", g, 1.5 + 0j)) < 1e-4


def test_obstacle_below_weight():
    # hat phi <= phi on the weight's support.
    r = 0.7
    s = np.linspace(0.01, 0.999, 200)
    hat = obstacle("hyperbolic", r, s + 0j)
    phi = np.log(1 / (1 - s * s))
    assert np.all(hat <= phi + 1e-12)


def test_equality_gap_hyperbolic_small():
    rep = equality_gap(FunctionalSpec("hyperbolic", 0.7), OptimizerConfig(restarts=2, seed=2), resolution=(96, 96))
    assert rep.degree == 1
    assert rep.dbar_lhs <= rep.dbar_rhs
    # nu is admissible for the starred infimum, so its starred value cannot
    # undercut the unstarred best-found value by more than numerics.
    assert rep.rho_starred_nu >= rep.rho_unstarred - 1e-6
    d = rep.to_json_dict()
    assert "sigma_sq_estimate" in d
    assert abs(d["sigma_sq_estimate"] - (1 - rep.rho_starred_nu)) < 1e-15
    assert d["quad_err"] == rep.minimize_result.diagnostics.quad_err
    assert set(d) == {
        "geometry",
        "param",
        "delta",
        "degree",
        "rho_unstarred",
        "quad_err",
        "rho_starred_nu",
        "gap",
        "dbar_lhs",
        "dbar_rhs",
        "boundary_mass_l1",
        "boundary_mass_l2",
        "exterior_mass_u",
        "l1_perturbation",
        "l2_perturbation",
        "sigma_sq_estimate",
    }


@pytest.mark.parametrize("spec", [planar(2.0), FunctionalSpec("hyperbolic", 0.8)], ids=lambda s: s.geometry)
def test_gap_boundary_masses_are_the_search_reports(spec):
    # Every number about f comes from f's density report on the search grid.
    rep = equality_gap(spec, OptimizerConfig(restarts=2, seed=1), (48, 50))
    diagnostics = rep.minimize_result.diagnostics
    assert rep.boundary_mass_l1 == diagnostics.boundary_mass_l1
    assert rep.boundary_mass_l2 == diagnostics.boundary_mass_l2


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_planar_gap_cuts_off_in_the_layer_of_its_boundary_masses(gamma):
    # At gamma <= 1 the spec's boundary layer is the whole core: the cut-off
    # ramps over it, and the boundary masses are the core's ell masses.
    spec = planar(gamma)
    rep = equality_gap(spec, OptimizerConfig(restarts=2, seed=1), (48, 51))
    assert rep.delta == spec.default_delta == 1.0
    assert rep.dbar_lhs <= rep.dbar_rhs
    diagnostics = rep.minimize_result.diagnostics
    assert abs(rep.boundary_mass_l1 - diagnostics.ell1) <= 1e-12 * diagnostics.ell1
    assert abs(rep.boundary_mass_l2 - diagnostics.ell2) <= 1e-12 * diagnostics.ell2


def test_full_width_cutoff_drops_the_repeated_zero_edge(rng):
    # (1 - delta) R = 0 is the grid's first edge, so the core is one panel.
    spec = planar(1.0)
    corr = minimal_correction(random_poly(rng, 3), spec, 1.0, (32, 33))
    assert corr.grid.edges == (0.0, 1.0, spec.support(degree_schedule(spec)))
    assert corr.lhs <= corr.rhs and corr.orthogonality_residual() < 1e-9


def _horner_components(spec, delta, f, corr):
    """Exterior mass, core L^1 mass and cross term of u = chi*f - nu, node by node with Horner values."""
    z = corr.grid.nodes
    absz = np.abs(z)
    w, m = spec.envelope(absz)
    w1 = w * m * corr.grid.weights / spec.log_normalizer
    core = absz < spec.indicator_radius
    chi_f = cutoff(z, delta, spec.indicator_radius) * poly_eval(f, z)
    u = chi_f - poly_eval(corr.nu, z)
    cross = np.abs(u) ** 2 - 2.0 * np.real(chi_f * np.conj(u))
    return (
        np.sum((np.abs(u) ** 2 * w * w1)[absz > spec.indicator_radius]),
        np.sum((np.abs(u) * w1)[core]),
        abs(np.sum((cross * w * w1)[core])),
    )


def test_equality_gap_planar_small():
    rep = equality_gap(planar(2.0), OptimizerConfig(restarts=2, seed=2), resolution=(96, 96))
    assert rep.dbar_lhs <= rep.dbar_rhs
    assert rep.rho_starred_nu >= rep.rho_unstarred - 1e-6
    d = rep.to_json_dict()
    assert "sigma_sq_estimate" not in d
    for component in (rep.exterior_mass_u, rep.l1_perturbation, rep.l2_perturbation):
        assert np.isfinite(component) and component >= 0
    assert d["exterior_mass_u"] == rep.exterior_mass_u
    assert d["l1_perturbation"] == rep.l1_perturbation
    assert d["l2_perturbation"] == rep.l2_perturbation
    # The terms come from the correction of the minimizer; recomputed node by
    # node, with f and nu evaluated by Horner on the correction grid, they agree.
    spec = planar(2.0)
    corr = minimal_correction(rep.minimize_result.minimizer, spec, rep.delta, (96, 96))
    got = (rep.exterior_mass_u, rep.l1_perturbation, rep.l2_perturbation)
    assert (corr.exterior_mass_u, corr.l1_perturbation, corr.l2_perturbation) == got
    for value, ref in zip(got, _horner_components(spec, rep.delta, rep.minimize_result.minimizer, corr)):
        assert abs(value - ref) <= 1e-12 * ref
    with pytest.raises(ConfigurationError):
        equality_gap(FunctionalSpec("planar", 2.0, starred=True))


def test_equality_gap_planar_proof_component_chains():
    # gamma = 8, delta = gamma^{-1/2}: the three perturbation terms of the gap
    # argument are reported and each obeys its Cauchy-Schwarz chain against
    # the dbar mass.  (Their absolute size shrinks only asymptotically: at
    # gamma = 8 the u-L1 term still sits near 0.15, driven by the annulus
    # masses of the minimizer.)
    gamma = 8.0
    rep = equality_gap(planar(gamma), OptimizerConfig(restarts=3, seed=0))
    lhs = rep.dbar_lhs
    assert lhs <= rep.dbar_rhs
    assert 0.0 <= rep.exterior_mass_u <= lhs + 1e-12
    # L^1 mass of u over the unit disk (measure 1) against sqrt of its L^2 mass.
    assert rep.l1_perturbation <= math.sqrt(lhs) + 1e-12
    # Cross/quadratic u-term against lhs + 2*sqrt(L2 mass of chi*f)*sqrt(lhs);
    # the chi*f mass is at most the full weighted mass of f over the disk.
    f = rep.minimize_result.minimizer
    grid = build_grid((0, 1), (128, 128))
    f_mass = integrate(grid, lambda z: np.abs(poly_eval(f, z)) ** 2 * np.exp(-2 * gamma * np.abs(z) ** 2))
    assert rep.l2_perturbation <= lhs + 2.0 * math.sqrt(f_mass * lhs) + 1e-12
    assert rep.exterior_mass_u < 0.05


@pytest.mark.filterwarnings("error")
def test_minimal_correction_nonfinite_is_numeric_error():
    # The overflow is refused as a NumericError, with no warning on the way.
    huge = ComplexPolynomial([1e300, 1e300])
    for geometry, param in (("planar", 2.0), ("hyperbolic", 0.8)):
        with pytest.raises(NumericError):
            minimal_correction(huge, FunctionalSpec(geometry, param), 0.2, (32, 32))


def lengths(*specs):
    """(spec, coefficient count) cases: one below the degree bound n, at n, and 6, past n for every spec here.

    So f has modes the projection rescales and modes it drops entirely; the
    case of 6 keeps the spec's own id.
    """
    cases = []
    for spec in specs:
        n, name = degree_schedule(spec), f"{spec.geometry}-{spec.param}"
        assert n < 6
        cases += [
            pytest.param(spec, max(n - 1, 1), id=f"{name}-shorter"),
            pytest.param(spec, n, id=f"{name}-equal"),
            pytest.param(spec, 6, id=name),
        ]
    return cases


@pytest.mark.parametrize(
    "spec,length",
    lengths(planar(2.0), HYP, FunctionalSpec("hyperbolic", 0.8)),
)
def test_correction_ring_sums_match_node_sums(spec, length, rng):
    # The bound's two sides, with the dbar weight, its Laplacian and the
    # cut-off written out node by node on the correction's own grid, and nu
    # against the node-based projection of chi*f.
    delta, radius = spec.default_delta, spec.indicator_radius
    n = degree_schedule(spec)
    f = random_poly(rng, length)
    corr = minimal_correction(f, spec, delta, (64, 64))
    z, wts = corr.grid.nodes, corr.grid.weights
    a2 = np.abs(z) ** 2
    if spec.geometry == "hyperbolic":
        weight, laplacian = 1.0 - a2, (1.0 - a2) ** -2
    else:
        weight, laplacian = np.exp(-2.0 * spec.param * a2), 2.0 * spec.param
    chi_f = cutoff(z, delta, radius) * poly_eval(f, z)
    u = (corr.u_coeffs @ vandermonde(corr.grid.phases, corr.u_coeffs.shape[1]).T).ravel()
    lhs = float(np.sum(np.abs(u) ** 2 * weight * wts))
    rhs = float(np.sum(np.abs(dbar_cutoff(z, delta, radius)) ** 2 * np.abs(poly_eval(f, z)) ** 2 * weight / laplacian * wts))
    assert abs(corr.lhs - lhs) <= 1e-13 * lhs
    assert abs(corr.rhs - rhs) <= 1e-13 * rhs
    # u is chi*f minus nu at the nodes, with both evaluated by Horner.
    residual = u - (chi_f - poly_eval(corr.nu, z))
    assert np.max(np.abs(residual)) <= 1e-13 * np.max(np.abs(chi_f))
    projected = project_polynomial(lambda z: cutoff(z, delta, radius) * poly_eval(f, z), spec, n, corr.grid)
    assert len(corr.nu.coeffs) == n and not np.any(corr.nu.coeffs[len(f.coeffs) :])
    assert np.max(np.abs(corr.nu.coeffs - projected.coeffs)) <= 1e-13 * np.max(np.abs(projected.coeffs))
    # The per-ring weight, expanded to the nodes, is the node weight.  Near
    # |z| = 1, 1 - |z|^2 magnifies the rounding of the node moduli, so the
    # comparison is against the largest weight.
    node_weight = weight * wts
    assert np.max(np.abs(np.repeat(corr.weight, corr.grid.resolution[1]) - node_weight)) <= 1e-13 * node_weight.max()


@pytest.mark.parametrize("spec,length", lengths(planar(2.0), HYP))
def test_proof_components_match_horner_node_sums(spec, length, rng):
    # The core rings of a 64x66 grid fit in one block of ring_abs_sums; at
    # 256x258 they span several, so the oracle also sees the block seams.
    # Besides a generic f, a monomial and a member of the 3-fold class
    # g(z^3) (a monomial too when f has 3 coefficients): u carries f's
    # modes, so its node sums take one angle per ring and a third of the
    # angles.
    delta = spec.default_delta
    monomial, threefold = np.zeros(length, dtype=complex), np.zeros(length, dtype=complex)
    monomial[-1] = 0.6 + 0.8j
    threefold[::3] = random_poly(rng, len(range(0, length, 3))).coeffs
    for f in (random_poly(rng, length), ComplexPolynomial(monomial), ComplexPolynomial(threefold)):
        for resolution in ((64, 66), (256, 258)):
            corr = minimal_correction(f, spec, delta, resolution)
            got = (corr.exterior_mass_u, corr.l1_perturbation, corr.l2_perturbation)
            for value, ref in zip(got, _horner_components(spec, delta, f, corr)):
                assert abs(value - ref) <= 1e-12 * ref


@pytest.mark.parametrize("spec", [planar(2.0), FunctionalSpec("hyperbolic", 0.7)], ids=lambda s: s.geometry)
def test_radial_factors_see_one_value_per_ring(spec, monkeypatch, rng):
    # Envelope, dbar weight, Laplacian and cut-off are radial: the pipeline
    # evaluates each on the grid's radii, never on its nodes.
    seen = []

    def record(fn, arg):
        def wrapped(*args, **kwargs):
            seen.append(np.size(args[arg]))
            return fn(*args, **kwargs)

        return wrapped

    for name in ("envelope", "dbar_weight", "laplacian"):
        monkeypatch.setattr(FunctionalSpec, name, record(getattr(FunctionalSpec, name), 1))
    for name in ("cutoff", "dbar_cutoff"):
        monkeypatch.setattr(dbar, name, record(getattr(dbar, name), 0))

    resolution = (32, 33)
    grid = default_grid(spec, resolution)
    density(random_poly(rng, 4), spec, grid)
    assert seen and max(seen) <= len(grid.radii)
    seen.clear()
    corr = minimal_correction(random_poly(rng, 4), spec, spec.default_delta, resolution)
    assert seen and max(seen) <= len(corr.grid.radii) < corr.grid.nodes.size
    seen.clear()
    equality_gap(spec, OptimizerConfig(restarts=2), resolution)
    # The search runs on the spec's default grid, the rest on the resolution's.
    assert seen and max(seen) <= max(len(default_grid(spec).radii), len(corr.grid.radii))


@pytest.mark.parametrize("spec", [planar(2.0), FunctionalSpec("hyperbolic", 0.7)], ids=lambda s: s.geometry)
def test_starred_gap_value_is_the_density_value(spec):
    resolution = (64, 64)
    rep = equality_gap(spec, OptimizerConfig(restarts=2, seed=1), resolution)
    corr = minimal_correction(rep.minimize_result.minimizer, spec, spec.default_delta, resolution)
    starred = FunctionalSpec(spec.geometry, spec.param, starred=True)
    assert rep.rho_starred_nu == density(corr.nu, starred, default_grid(starred, resolution, degree=rep.degree)).value
    assert rep.gap == rep.rho_starred_nu - rep.rho_unstarred


@pytest.mark.filterwarnings("error")
def test_nonfinite_starred_gap_value_is_numeric_error(monkeypatch):
    # The overflow is refused as a NumericError, with no warning on the way.
    def blown_up(*args, **kwargs):
        corr = minimal_correction(*args, **kwargs)
        return dataclasses.replace(corr, nu=ComplexPolynomial(corr.nu.coeffs * 1e200))

    monkeypatch.setattr(dbar, "minimal_correction", blown_up)
    with pytest.raises(NumericError):
        equality_gap(planar(2.0), OptimizerConfig(restarts=2), (32, 33))


def test_gap_pipeline_builds_no_ring_grid_nodes(monkeypatch, capsys, rng):
    # Ring grids derive nodes and weights on first use; the gap pipeline,
    # from the search to the starred value, reads only their ring data, and
    # so do the correction's orthogonality residual and dbar-check.
    def ring_grids_refuse(name):
        derived = getattr(QuadratureGrid, name)

        def get(grid):
            assert grid.radii is None, f"a ring grid built its {name}"
            return derived.__get__(grid, QuadratureGrid)

        return property(get)

    for name in ("nodes", "weights"):
        monkeypatch.setattr(QuadratureGrid, name, ring_grids_refuse(name))
    for spec in (planar(2.0), FunctionalSpec("hyperbolic", 0.7)):
        rep = equality_gap(spec, OptimizerConfig(restarts=2), (32, 33))
        assert math.isfinite(rep.gap)
        corr = minimal_correction(random_poly(rng, 4), spec, spec.default_delta, (32, 33))
        assert corr.orthogonality_residual() < 1e-9
    capsys.readouterr()
    assert main(["dbar-check", "--geometry", "planar", "--gamma", "2", "--restarts", "2", "--resolution", "32x33"]) == 0
    assert capsys.readouterr().out.startswith("{")
    with pytest.raises(AssertionError, match="built its nodes"):
        build_grid((0, 1), (8, 8)).nodes


@pytest.mark.parametrize("spec", [planar(2.0), HYP], ids=lambda s: s.geometry)
def test_correction_needs_an_angle_per_coefficient(spec, rng):
    # Past n_ang coefficients the equispaced angles alias mode k + n_ang onto
    # k, and neither Parseval nor the node sums integrate |u|^2 exactly.
    corr = minimal_correction(random_poly(rng, 33, scale=0.1), spec, spec.default_delta, (32, 33))
    assert corr.u_coeffs.shape == (len(corr.grid.radii), 33)
    with pytest.raises(ConfigurationError, match="degree bound 40 needs at least 40 angles per ring; the grid has 33"):
        minimal_correction(random_poly(rng, 40, scale=0.1), spec, spec.default_delta, (32, 33))
