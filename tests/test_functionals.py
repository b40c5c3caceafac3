import math

import numpy as np
import pytest

from zeropack import (
    ComplexPolynomial,
    ConfigurationError,
    FunctionalSpec,
    NumericError,
    boundary_mass,
    build_grid,
    default_grid,
    density,
    gradient,
    integrate,
    poly_eval,
)
from zeropack.functionals import quadratic_weights
from zeropack.poly import gram_diagonal

from conftest import random_poly

ZERO = ComplexPolynomial([0.0])


def hyperbolic_norm(r):
    return math.log(1.0 / (1.0 - r * r))


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        FunctionalSpec("hyperbolic", 1.2)
    with pytest.raises(ConfigurationError):
        FunctionalSpec("planar", -1.0)
    with pytest.raises(ConfigurationError):
        FunctionalSpec("hyperbolic", 0.5, beta=2.0)
    with pytest.raises(ConfigurationError):
        FunctionalSpec("spherical", 0.5)
    for value in (math.nan, math.inf, -math.inf):
        for geometry in ("planar", "hyperbolic"):
            with pytest.raises(ConfigurationError):
                FunctionalSpec(geometry, value)
        with pytest.raises(ConfigurationError):
            FunctionalSpec("planar", 2.0, beta=value)


def test_default_grid_angles_follow_the_symmetry():
    # The default angular count is a multiple of the spec's rotation order,
    # so the optimizer's classes z^j g(z^m) are exact on the default grid.
    planar, hyperbolic = FunctionalSpec("planar", 8.0), FunctionalSpec("hyperbolic", 0.9)
    assert (planar.symmetry, hyperbolic.symmetry) == (3, 1)
    assert default_grid(planar).resolution == planar.default_resolution == (128, 129)
    assert default_grid(hyperbolic).resolution == hyperbolic.default_resolution == (128, 128)
    starred = default_grid(FunctionalSpec("planar", 8.0, starred=True), degree=16)
    assert starred.resolution == (128, 129) and len(starred.radii) == 256
    assert default_grid(planar, (64, 64)).resolution == (64, 64)


def test_density_of_zero_is_one():
    assert density(ZERO, FunctionalSpec("hyperbolic", 0.8)).value == 1.0
    assert density(ZERO, FunctionalSpec("hyperbolic", 0.8, starred=True)).value == 1.0
    assert abs(density(ZERO, FunctionalSpec("planar", 2.0)).value - 1.0) < 1e-12
    assert abs(density(ZERO, FunctionalSpec("planar", 2.0, starred=True)).value - 1.0) < 1e-12


def test_planar_constant_closed_form():
    # c^2 (1-e^{-2g})/(2g) - 2c (1-e^{-g})/g + 1 from the Gaussian radial integrals.
    for c, g in ((1.0, 1.0), (1.5, 2.0), (0.7, 0.5)):
        expect = c * c * (1 - math.exp(-2 * g)) / (2 * g) - 2 * c * (1 - math.exp(-g)) / g + 1
        got = density(ComplexPolynomial([c]), FunctionalSpec("planar", g)).value
        assert abs(got - expect) < 1e-9


def test_hyperbolic_star_identity(rng):
    # starred - unstarred equals the boundary L^2 punishment, node for node.
    r = 0.8
    spec_u = FunctionalSpec("hyperbolic", r)
    spec_s = FunctionalSpec("hyperbolic", r, starred=True)
    grid_u = default_grid(spec_u)
    grid_s = default_grid(spec_s)
    ann = build_grid((r, 1.0), grid_u.resolution)
    for _ in range(20):
        f = random_poly(rng, 9)
        vu = density(f, spec_u, grid_u).value
        vs = density(f, spec_s, grid_s).value
        pun = integrate(ann, lambda z: np.abs(poly_eval(f, z)) ** 2 * (1 - np.abs(z) ** 2))
        assert abs(vs - vu - pun / hyperbolic_norm(r)) < 1e-10


def test_star_dominance(rng):
    for geometry, param in (("hyperbolic", 0.6), ("planar", 3.0)):
        spec_u = FunctionalSpec(geometry, param)
        spec_s = FunctionalSpec(geometry, param, starred=True)
        for _ in range(10):
            f = random_poly(rng, 6)
            assert density(f, spec_s).value >= density(f, spec_u).value - 1e-12


def test_density_nonnegative(rng):
    for _ in range(10):
        f = random_poly(rng, 6)
        assert density(f, FunctionalSpec("hyperbolic", 0.85)).value >= 0.0
        assert density(f, FunctionalSpec("planar", 4.0)).value >= 0.0


def test_starred_grid_requirements():
    # Every density grid is a disk covering the density's domain: radius in
    # [r, 1] hyperbolic, exactly 1 starred; radius >= 1 planar, and past the
    # core, > 1, starred.
    hyp, hyp_s = FunctionalSpec("hyperbolic", 0.8), FunctionalSpec("hyperbolic", 0.8, starred=True)
    pl, pl_s = FunctionalSpec("planar", 2.0), FunctionalSpec("planar", 2.0, starred=True)
    refused = [
        (hyp_s, (0, 0.8)),
        (hyp, (0, 1.2)),
        (hyp, (0.3, 0.9)),
        (pl, (0.3, 2.0)),
        (pl_s, (0.3, 4.0)),
        (pl, (0, 0.5)),
        (pl_s, (0, 0.5)),
        (pl_s, (0, 1)),
    ]
    one = ComplexPolynomial([1.0])
    for spec, edges in refused:
        grid = build_grid(edges, (32, 32))
        with pytest.raises(ConfigurationError):
            density(one, spec, grid)
        with pytest.raises(ConfigurationError):
            gradient(one, spec, grid)
    for spec, edges in ((hyp, (0, 0.8)), (hyp, (0, 1)), (hyp_s, (0, 1)), (pl, (0, 1)), (pl, (0, 3))):
        assert density(one, spec, build_grid(edges, (32, 32))).value >= 0.0
    # The starred planar support is the disk of radius support(n), split at the core.
    n = 4
    grid = build_grid((0, 1.0, pl_s.support(n)), (32, 32))
    assert density(one, pl_s, grid).value == density(one, pl_s, default_grid(pl_s, (32, 32), degree=n)).value


def test_ell_zero_and_constant():
    r = 0.6
    spec = FunctionalSpec("hyperbolic", r)
    grid = build_grid((0, r), (96, 64))
    rep = density(ZERO, spec, grid)
    assert rep.ell1 == 0.0
    assert rep.ell2 == 0.0
    # Oracle: area of D(0,r) under dA divided by the hyperbolic normalizer.
    c = 1.7
    expect = c * r * r / hyperbolic_norm(r)
    assert abs(density(ComplexPolynomial([c]), spec, grid).ell1 - expect) < 1e-12


def test_boundary_mass_zero_poly():
    assert boundary_mass(ZERO, FunctionalSpec("hyperbolic", 0.8), (96, 128)) == (0.0, 0.0)
    assert boundary_mass(ZERO, FunctionalSpec("planar", 4.0), (96, 128)) == (0.0, 0.0)


def test_boundary_mass_full_layer_is_density_ell(rng):
    # At planar gamma <= 1, delta = 1 and the layer is the whole core disk,
    # so the pair equals the ell masses of density() on the same disk grid.
    res = (64, 48)
    for spec in (
        FunctionalSpec("planar", 1.0),
        FunctionalSpec("planar", 0.5),
        FunctionalSpec("planar", 0.5, beta=2.0),
    ):
        assert spec.default_delta == 1.0
        grid = build_grid((0, spec.indicator_radius), res)
        for _ in range(3):
            f = random_poly(rng, 6)
            rep = density(f, spec, grid)
            l1, l2 = boundary_mass(f, spec, res)
            assert abs(l1 - rep.ell1) <= 1e-12 * abs(rep.ell1)
            assert abs(l2 - rep.ell2) <= 1e-12 * abs(rep.ell2)


def test_boundary_mass_cauchy_schwarz(rng):
    # (1/L) int_A |f| dA <= sqrt(ell-type L2 mass) * sqrt(annulus hyperbolic area / L).
    r = 0.8
    delta = FunctionalSpec("hyperbolic", r).default_delta
    L = hyperbolic_norm(r)
    area_ratio = 1.0 - math.log(1.0 / (1.0 - r * r * (1 - delta) ** 2)) / L
    for _ in range(20):
        f = random_poly(rng, 7)
        b1, b2 = boundary_mass(f, FunctionalSpec("hyperbolic", r), (96, 128))
        assert b1 <= math.sqrt(b2) * math.sqrt(area_ratio) + 1e-9


def test_boundary_mass_full_layer_allowed():
    # delta = 1 covers the whole disk: the planar pairing at gamma = 1.
    f = ComplexPolynomial([1.0])
    val, _ = boundary_mass(f, FunctionalSpec("planar", 1.0), (96, 128))
    assert abs(val - (1 - math.exp(-1.0))) < 1e-10


def test_default_delta_pairings():
    assert FunctionalSpec("hyperbolic", 0.8).default_delta == pytest.approx(0.2)
    assert FunctionalSpec("planar", 4.0).default_delta == pytest.approx(0.5)
    assert FunctionalSpec("planar", 0.5).default_delta == 1.0


def test_core_mass_is_laplacian_mass():
    # The degree schedule and the obstacle's outer flux both read the core
    # mass, the integral of the Laplacian factor dd-bar phi over the core disk.
    for spec in (FunctionalSpec("hyperbolic", 0.9), FunctionalSpec("planar", 8.0)):
        grid = build_grid((0, spec.indicator_radius), (64, 8))
        mass = integrate(grid, np.broadcast_to(spec.laplacian(np.abs(grid.nodes)), grid.nodes.shape))
        assert abs(mass - spec.core_mass) < 1e-10 * spec.core_mass


def test_gradient_matches_finite_differences(rng):
    # Oracle: central differences of the density value, step 1e-6.
    h = 1e-6
    for geometry, param in (("hyperbolic", 0.8), ("planar", 2.0)):
        spec = FunctionalSpec(geometry, param)
        grid = default_grid(spec, (96, 96))
        for _ in range(5):
            f = random_poly(rng, 5)
            grad = gradient(f, spec, grid)
            fd = np.zeros_like(grad)
            for j in range(len(f.coeffs)):
                for part in range(2):
                    dc = np.zeros(len(f.coeffs), complex)
                    dc[j] = h if part == 0 else 1j * h
                    vp = density(ComplexPolynomial(f.coeffs + dc), spec, grid).value
                    vm = density(ComplexPolynomial(f.coeffs - dc), spec, grid).value
                    fd[2 * j + part] = (vp - vm) / (2 * h)
            scale = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(grad - fd)) / scale < 1e-5


def test_gradient_matches_finite_differences_starred(rng):
    h = 1e-6
    for geometry, param in (("hyperbolic", 0.7), ("planar", 2.0)):
        spec = FunctionalSpec(geometry, param, starred=True)
        grid = default_grid(spec, (96, 96))
        f = random_poly(rng, 4)
        grad = gradient(f, spec, grid)
        fd = np.zeros_like(grad)
        for j in range(4):
            for part in range(2):
                dc = np.zeros(4, complex)
                dc[j] = h if part == 0 else 1j * h
                vp = density(ComplexPolynomial(f.coeffs + dc), spec, grid).value
                vm = density(ComplexPolynomial(f.coeffs - dc), spec, grid).value
                fd[2 * j + part] = (vp - vm) / (2 * h)
        assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-5


def test_gradient_matches_central_differences_at_gamma_32():
    # |f| grows like exp(gamma |z|^2) over the core, so at gamma=32 a floor
    # relative to the grid's largest |f| lifted core nodes, and the gradient
    # read 0.4% to 24% off these directional differences.  The modulus floor
    # is absolute, and these starts have no node near it.
    spec, n, h = FunctionalSpec("planar", 32.0), 64, 1e-5
    grid = default_grid(spec, degree=n)
    a, _, _ = quadratic_weights(spec, grid)
    scale = 1.0 / np.sqrt(2.0 * gram_diagonal(grid, a, n))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        c, d = ((rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale for _ in range(2))
        vp, vm = (density(ComplexPolynomial(c + t * d), spec, grid).value for t in (h, -h))
        along = gradient(ComplexPolynomial(c), spec, grid) @ d.view(np.float64)
        assert abs(along - (vp - vm) / (2.0 * h)) <= 1e-7 * abs(along)


def test_gradient_planar_constant_closed_form():
    # d/dc of c^2 A - 2 c B + 1 with A, B the Gaussian disk integrals.
    g = 1.0
    spec = FunctionalSpec("planar", g)
    grid = default_grid(spec)
    A = (1 - math.exp(-2 * g)) / (2 * g)
    B = (1 - math.exp(-g)) / g
    for c in (0.5, 1.0, 2.0):
        grad = gradient(ComplexPolynomial([c]), spec, grid)
        assert abs(grad[0] - (2 * c * A - 2 * B)) < 1e-10
        assert abs(grad[1]) < 1e-10


def test_gradient_stationary_at_constant_minimizer():
    g = 1.0
    c_star = 2.0 / (1.0 + math.exp(-g))
    spec = FunctionalSpec("planar", g)
    grad = gradient(ComplexPolynomial([c_star]), spec)
    assert abs(grad[0]) < 1e-8


def test_density_grid_convergence(rng):
    # Values stabilize under refinement.  Convergence of the L^1-type term is
    # algebraic, not spectral (|f| has conical points at the zeros of f), so
    # the default resolution is good to ~1e-6 rather than machine precision.
    f = random_poly(rng, 6)
    for spec in (FunctionalSpec("hyperbolic", 0.8), FunctionalSpec("planar", 2.0)):
        base = density(f, spec, default_grid(spec)).value
        fine = density(f, spec, default_grid(spec, (256, 256))).value
        assert abs(base - fine) < 1e-5 * max(1.0, abs(fine))


def test_density_report_json_fields():
    spec = FunctionalSpec("planar", 2.0, starred=True)
    rep = density(ComplexPolynomial([1.0, 0.1j]), spec)
    d = rep.to_json_dict()
    assert set(d) == {
        "value",
        "quad_err",
        "ell1",
        "ell2",
        "boundary_mass_l1",
        "boundary_mass_l2",
        "geometry",
        "param",
        "beta",
        "starred",
        "grid_resolution",
    }
    assert d["geometry"] == "planar"
    assert d["starred"] is True


def test_scaling_is_quadratic_minus_linear(rng):
    # t -> density(t*f) is exactly A t^2 - 2 B t + C with A, B, C the
    # quadratic parts; its minimizer is B/A and the report masses are equal
    # there (the assertable form of the scaling variation).
    from zeropack.functionals import quadratic_parts

    spec = FunctionalSpec("hyperbolic", 0.8)
    grid = default_grid(spec)
    f = random_poly(rng, 5)
    A, B, C = quadratic_parts(f, spec, grid)
    for t in (0.3, 1.0, 1.7):
        scaled = ComplexPolynomial(t * f.coeffs)
        assert abs(density(scaled, spec, grid).value - (A * t * t - 2 * B * t + C)) < 1e-11
    t_star = B / A
    rep = density(ComplexPolynomial(t_star * f.coeffs), spec, grid)
    assert abs(rep.ell1 - rep.ell2) < 1e-12


def test_ell_equality_at_minimizer_standalone():
    # The two standalone masses agree at a converged minimizer and the value
    # collapses to 1 - ell1.
    from zeropack import OptimizerConfig, degree_schedule, minimize

    r = 0.8
    spec = FunctionalSpec("hyperbolic", r)
    res = minimize(spec, degree_schedule(spec), OptimizerConfig(restarts=3, seed=1))
    assert res.converged
    rep = density(res.minimizer, spec, build_grid((0, r), (128, 128)))
    e1, e2 = rep.ell1, rep.ell2
    assert abs(e1 - e2) < 1e-5
    assert abs(res.value - (1.0 - e1)) < 1e-5


def test_beta_family_zero_scores_one():
    # The exponent family keeps the unit normalizer so f = 0 scores 1.
    spec = FunctionalSpec("planar", 1.0, beta=2.0)
    assert abs(density(ZERO, spec).value - 1.0) < 1e-12


def test_beta_family_constant_closed_form():
    # |c|^beta e^{-gamma |z|^2} with beta = 2: quadratic Gaussian integrals.
    g, c, beta = 1.0, 1.3, 2.0
    spec = FunctionalSpec("planar", g, beta=beta)
    cb = c**beta
    expect = cb * cb * (1 - math.exp(-2 * g)) / (2 * g) - 2 * cb * (1 - math.exp(-g)) / g + 1
    assert abs(density(ComplexPolynomial([c]), spec).value - expect) < 1e-9


@pytest.mark.filterwarnings("error")
def test_density_nonfinite_is_numeric_error():
    # The overflow is refused as a NumericError, with no warning on the way.
    huge = ComplexPolynomial([1e300, 1e300])
    for spec in (FunctionalSpec("planar", 2.0), FunctionalSpec("hyperbolic", 0.8)):
        with pytest.raises(NumericError):
            density(huge, spec, default_grid(spec, (16, 16)))


def test_density_with_underflowing_powers(rng):
    # At r = 0.01 the powers r^(2k) of the top coefficients of 100 underflow
    # to 0.  The Parseval sums take them as 0 and match the node sums; the
    # Gram diagonal's underflow refusal does not apply to an evaluation.
    spec = FunctionalSpec("hyperbolic", 0.01)
    grid = default_grid(spec)
    f = random_poly(rng, 100)
    rep, ref = density(f, spec, grid), _node_masses(f, spec, grid)
    for key in ("value", "ell1", "ell2"):
        assert abs(getattr(rep, key) - ref[key]) <= 1e-13 * abs(ref[key]), key


def _node_envelope(spec, absz):
    # The envelope written out node by node: hyperbolic w = 1 - |z|^2,
    # m = 1/w; planar w = exp(-gamma*|z|^2), m = 1.
    if spec.geometry == "hyperbolic":
        w = 1.0 - absz**2
        return w, 1.0 / w
    return np.exp(-spec.param * absz**2), np.ones_like(absz)


def _node_masses(f, spec, grid):
    # Reference for density() and quadratic_parts(): sums over the grid's nodes.
    absz = np.abs(grid.nodes)
    core = absz < spec.indicator_radius
    domain = np.ones_like(core) if spec.starred else core
    w, m = _node_envelope(spec, absz)
    fv = np.abs(poly_eval(f, grid.nodes)) ** spec.beta
    wm = m * grid.weights
    normalizer = float(np.sum(grid.weights[core] / (1.0 - absz[core] ** 2))) if spec.geometry == "hyperbolic" else 1.0
    log_norm = spec.log_normalizer
    return {
        "value": float(np.sum(((w * fv - core) ** 2 * wm)[domain])) / normalizer,
        "ell1": float(np.sum((w * fv * wm)[core])) / log_norm,
        "ell2": float(np.sum(((w * fv) ** 2 * wm)[core])) / log_norm,
        "A": float(np.sum(((w * fv) ** 2 * wm)[domain])) / normalizer,
        "B": float(np.sum((w * fv * wm)[core])) / normalizer,
        "C": float(np.sum(wm[core])) / normalizer,
    }


def _node_boundary_masses(f, spec, delta, resolution):
    R = spec.indicator_radius
    grid = build_grid(((1.0 - delta) * R, R), resolution)
    w, m = _node_envelope(spec, np.abs(grid.nodes))
    wf = w * np.abs(poly_eval(f, grid.nodes)) ** spec.beta
    return tuple(float(np.sum(wf**k * m * grid.weights)) / spec.log_normalizer for k in (1, 2))


RING_CASES = [
    FunctionalSpec("planar", 2.0),
    FunctionalSpec("planar", 2.0, starred=True),
    FunctionalSpec("planar", 2.0, beta=1.5),
    FunctionalSpec("planar", 2.0, beta=0.5),
    FunctionalSpec("hyperbolic", 0.8),
    FunctionalSpec("hyperbolic", 0.8, starred=True),
]


@pytest.mark.parametrize("spec", RING_CASES, ids=lambda s: f"{s.geometry}-starred{s.starred}-b{s.beta}")
def test_ring_masses_match_node_sums(spec, rng):
    # Every radial factor is evaluated once per ring and every node sum is a
    # ring sum against it, or at beta = 1 the Parseval sum of the
    # coefficients; the node-by-node formulas give the same numbers.  n = 64
    # coefficients on 64 angles is the most that Parseval allows.  Besides
    # generic polynomials, a monomial, whose node sums take one angle per
    # ring, and a member of the 3-fold class z g(z^3), which takes a third
    # of the 66 angles (on 64 it takes all).
    from zeropack.functionals import quadratic_parts

    for n, n_ang in ((6, 66), (64, 64)):
        grid = default_grid(spec, (64, n_ang), degree=n)
        monomial, threefold = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        monomial[n // 2] = 0.8 - 0.6j
        threefold[1::3] = random_poly(rng, len(range(1, n, 3))).coeffs
        for f in [random_poly(rng, n) for _ in range(3)] + [ComplexPolynomial(monomial), ComplexPolynomial(threefold)]:
            ref = _node_masses(f, spec, grid)
            rep = density(f, spec, grid)
            got = dict(zip(("A", "B", "C"), quadratic_parts(f, spec, grid)), value=rep.value, ell1=rep.ell1, ell2=rep.ell2)
            for key, expect in ref.items():
                assert abs(got[key] - expect) <= 1e-13 * abs(expect), (n, key)
            bm = boundary_mass(f, spec, (64, n_ang))
            for got_k, expect in zip(bm, _node_boundary_masses(f, spec, spec.default_delta, (64, n_ang))):
                assert abs(got_k - expect) <= 1e-13 * abs(expect), n


@pytest.mark.parametrize("spec", RING_CASES, ids=lambda s: f"{s.geometry}-starred{s.starred}-b{s.beta}")
def test_quad_err_is_the_doubled_angle_change(spec, rng):
    # The grid with the same radii and twice the angles is this grid plus its
    # angle midpoints, where f turned by half an angle step lands: quad_err is
    # exactly the change of the value on that grid, for any beta.
    n_rad, n_ang = 48, 32
    grid = default_grid(spec, (n_rad, n_ang), degree=6)
    doubled = default_grid(spec, (n_rad, 2 * n_ang), degree=6)
    for _ in range(3):
        f = random_poly(rng, 6)
        rep = density(f, spec, grid)
        expect = abs(density(f, spec, doubled).value - rep.value)
        assert expect > 1e-9
        assert abs(rep.quad_err - expect) <= 1e-12
