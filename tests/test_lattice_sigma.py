import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zeropack import (
    ConfigurationError,
    NumericError,
    QuasiperiodicCandidate,
    abrikosov_candidate,
    cell_average_density,
    lattice_normalize,
    sigma,
    theta_scan,
)
from zeropack import lattice_sigma
from zeropack.lattice_sigma import _theta_series

PI = math.pi


def sigma_product_reference(z, lattice, M=500):
    """Truncated Weierstrass product over +/- lattice pairs.

    Independent of the theta-series route; pair terms log(1-(z/w)^2) + (z/w)^2
    leave a tail of order |z|^4 / (M * shortest period)^2.
    """
    m = np.arange(-M, M + 1)
    mm, nn = np.meshgrid(m, m, indexing="ij")
    om = 2 * mm * lattice.omega1 + 2 * nn * lattice.omega2
    half = (mm > 0) | ((mm == 0) & (nn > 0))
    om = om[half]
    zeta2 = (z / om) ** 2
    return z * np.exp(np.sum(np.log1p(-zeta2) + zeta2))


def test_normalized_omega1_values():
    # Oracle: omega1 = sqrt(pi*beta/(8 sin theta)) from the cell-area condition.
    lat = lattice_normalize(PI / 2, 1.0)
    assert abs(lat.omega1 - math.sqrt(PI / 8.0)) < 1e-12
    lat = lattice_normalize(PI / 3, 1.0)
    assert abs(lat.omega1 - math.sqrt(PI / (8.0 * math.sin(PI / 3)))) < 1e-12
    assert abs(lat.omega1.real - 0.67339) < 5e-5


def test_cell_area_condition():
    for beta in (1.0, 2.0):
        lat = lattice_normalize(1.1, beta)
        area = (np.conj(lat.omega1) * lat.omega2).imag
        assert abs(area - PI * beta / 8.0) < 1e-12


def test_legendre_relation_ten_lattices():
    thetas = np.linspace(0.4, PI - 0.4, 10)
    for i, theta in enumerate(thetas):
        beta = 1.0 if i % 2 == 0 else 2.0
        lat = lattice_normalize(float(theta), beta)
        assert abs(lat.eta1 * lat.omega2 - lat.eta2 * lat.omega1 - 1j * PI / 2) < 1e-10


def test_eta_closed_forms_from_symmetry():
    # Rotational lattice symmetry gives eta2 = e^{-i theta} eta1, which with
    # the Legendre relation forces eta1*omega1 = pi/(4 sin theta), real.
    for theta in (PI / 2, PI / 3):
        lat = lattice_normalize(theta, 1.0)
        val = lat.eta1 * lat.omega1
        assert abs(val - PI / (4.0 * math.sin(theta))) < 1e-12
        assert abs(val.imag) < 1e-12


def test_positive_orientation():
    lat = lattice_normalize(2.0, 1.0)
    assert (np.conj(lat.omega1) * lat.omega2).imag > 0
    assert lat.tau.imag > 0


def test_invalid_lattice_inputs():
    with pytest.raises(ConfigurationError):
        lattice_normalize(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        lattice_normalize(PI, 1.0)
    with pytest.raises(ConfigurationError):
        lattice_normalize(1.0, -2.0)


@pytest.mark.parametrize("theta", [0.02, 0.05, 3.1])
def test_failed_legendre_relation_is_numeric_error(theta):
    # Valid angles where the theta series lose their digits to cancellation.
    with pytest.raises(NumericError, match="Legendre"):
        lattice_normalize(theta, 1.0)


def test_sigma_normalization():
    lat = lattice_normalize(PI / 3, 1.0)
    assert sigma(0.0, lat) == 0.0
    h = 1e-6
    deriv = sigma(h, lat) / h
    assert abs(deriv - 1.0) < 1e-8


def test_sigma_oddness(rng):
    lat = lattice_normalize(1.3, 1.0)
    z = 1.5 * (rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100))
    vals = sigma(z, lat)
    assert np.max(np.abs(sigma(-z, lat) + vals) / np.abs(vals)) < 1e-12


def test_sigma_quasiperiodicity(rng):
    # Classical identity sigma(z + 2w) = -sigma(z) exp(2 eta (z + w)), both generators.
    lat = lattice_normalize(PI / 3, 1.0)
    z = 1.2 * (rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100))
    base = sigma(z, lat)
    for w, eta in ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2)):
        lhs = sigma(z + 2 * w, lat)
        rhs = -base * np.exp(2 * eta * (z + w))
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10


def test_sigma_against_lattice_product(rng):
    # Independent oracle: symmetric truncated Weierstrass product.
    for theta in (PI / 3, 1.2):
        lat = lattice_normalize(theta, 1.0)
        for _ in range(5):
            z = 0.2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            ref = sigma_product_reference(z, lat, M=500)
            val = sigma(z, lat)
            assert abs(val - ref) / abs(ref) < 1e-8


@pytest.mark.parametrize("theta", [1.0, PI / 3, 1.3, PI / 2])
def test_sigma_and_eta1_against_mpmath_jtheta(theta):
    # Oracle: the same theta-function formulas on mpmath's jtheta at 30 digits,
    # eta1 = -pi^2/(12 w1) theta1'''(0)/theta1'(0) and
    # sigma(z) = 2 w1/(pi theta1'(0)) e^{eta1 z^2/(2 w1)} theta1(pi z/(2 w1)).
    mpmath = pytest.importorskip("mpmath")
    lat = lattice_normalize(theta, 1.0)
    w1 = lat.omega1
    zs = [0.3 + 0.2j, -0.5 + 0.6j, 0.9 * lat.omega2 - 0.2, lat.omega1 + 0.4 * lat.omega2]
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(lat.tau))
        t1p = mpmath.jtheta(1, 0, q, 1)
        eta1 = -(mpmath.pi**2) / (12 * w1) * mpmath.jtheta(1, 0, q, 3) / t1p
        pref = 2 * w1 / (mpmath.pi * t1p)
        ref = [pref * mpmath.exp(eta1 * z**2 / (2 * w1)) * mpmath.jtheta(1, mpmath.pi * z / (2 * w1), q) for z in zs]
    assert abs(lat.eta1 - complex(eta1)) < 1e-13 * abs(complex(eta1))
    mine = sigma(np.array(zs), lat)
    for got, want in zip(mine, map(complex, ref)):
        assert abs(got - want) < 1e-13 * abs(want)


def test_candidate_nu_consistency():
    # The two generator equations must give the same Gaussian exponent.
    for theta in (PI / 3, PI / 2, 2 * PI / 5):
        lat = lattice_normalize(theta, 1.0)
        cand = abrikosov_candidate(lat, 1.0)
        nus = [
            (2.0 * np.conj(w) / 1.0 - eta) / (2.0 * w)
            for w, eta in ((lat.omega1, lat.eta1), (lat.omega2, lat.eta2))
        ]
        assert abs(nus[0] - nus[1]) < 1e-10
        assert abs(cand.nu - nus[0]) < 1e-10


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_nonfinite_beta_rejected(beta):
    with pytest.raises(ConfigurationError, match="finite"):
        lattice_normalize(PI / 3, beta)
    with pytest.raises(ConfigurationError, match="finite"):
        abrikosov_candidate(lattice_normalize(PI / 3, 1.0), beta)


def test_candidate_normalization_mismatch_rejected():
    lat = lattice_normalize(PI / 3, 1.0)
    with pytest.raises(ConfigurationError):
        abrikosov_candidate(lat, 2.0)


def test_candidate_periodicity_residual():
    for beta in (1.0, 2.0):
        cand = abrikosov_candidate(lattice_normalize(PI / 3, beta), beta)
        assert cand.periodicity_residual(1000) < 1e-8


def test_candidate_vanishes_on_lattice():
    lat = lattice_normalize(PI / 3, 1.0)
    cand = abrikosov_candidate(lat, 1.0)
    for point in (2 * lat.omega1, 2 * lat.omega2, 2 * lat.omega1 + 2 * lat.omega2):
        local = np.max(np.abs(cand.f0_values(point + 0.05 * np.exp(2j * PI * np.arange(8) / 8))))
        assert abs(cand.f0_values(point)) < 1e-10 * local


def test_periodicity_residual_is_finite_at_small_angles():
    # e^{nu z^2} and sigma overflow separately at z + 2 omega_j here; the
    # envelope's single exponent does not.
    for theta in (0.1, 0.12):
        cand = abrikosov_candidate(lattice_normalize(theta, 1.0), 1.0)
        residual = cand.periodicity_residual(1000)
        assert math.isfinite(residual) and residual < 1e-8


def test_nonfinite_periodicity_residual_is_numeric_error():
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    broken = QuasiperiodicCandidate(cand.lattice, complex(math.nan, 0.0), cand.beta)
    with pytest.raises(NumericError, match="not finite"):
        broken.periodicity_residual(50)
    with pytest.raises(NumericError, match="not finite"):
        cell_average_density(broken, (32, 32))


@pytest.mark.parametrize("theta", [0.3, PI / 3, 2.8])
def test_few_point_check_refuses_a_slightly_misnormalized_candidate(theta):
    # nu off by 1e-7 leaves g(z + 2 omega_j) / g(z) = e^{L_j(z)} with a small
    # real-affine L_j: the cell means' few points see it as the dense check
    # does, and refuse the candidate.
    cand = abrikosov_candidate(lattice_normalize(theta, 1.0), 1.0)
    off = QuasiperiodicCandidate(cand.lattice, cand.nu + 1e-7, 1.0)
    few, dense = off.periodicity_residual(lattice_sigma.PERIODICITY_POINTS), off.periodicity_residual(1000)
    assert dense > 1e-8 and dense / 2 <= few <= 2 * dense
    with pytest.raises(ConfigurationError, match="not doubly periodic"):
        cell_average_density(off, (32, 32))


def test_cell_average_evaluates_theta_once(monkeypatch):
    # The periodicity check evaluates z and both generator shifts in one
    # envelope call, and the cell means call no point-wise theta_1 at all.
    calls = []
    theta1 = lattice_sigma._theta1

    def counted(v, tau):
        calls.append(np.shape(v))
        return theta1(v, tau)

    monkeypatch.setattr(lattice_sigma, "_theta1", counted)
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    cell_average_density(cand, (64, 64))
    assert calls == [(3, lattice_sigma.PERIODICITY_POINTS)]


@pytest.mark.parametrize("theta", [0.3, 0.8, 1.3])
def test_mirror_lattices_score_alike(theta):
    # The lattices at theta and pi - theta are mirror images of each other,
    # so their cell averages agree.
    values = [
        cell_average_density(abrikosov_candidate(lattice_normalize(t, 1.0), 1.0), (128, 128))
        for t in (theta, PI - theta)
    ]
    assert abs(values[0] - values[1]) <= 1e-12 * abs(values[0])


def midpoint_nodes(lattice, res):
    """The cell's midpoint nodes 2 u omega1 + 2 v omega2 at u = (i + 1/2)/n_u, v = (j + 1/2)/n_v."""
    u = (np.arange(res[0]) + 0.5) / res[0]
    v = (np.arange(res[1]) + 0.5) / res[1]
    return (2.0 * u[:, None] * lattice.omega1 + 2.0 * v[None, :] * lattice.omega2).ravel()


def node_cell_means(cand, res):
    """Oracle: cell means of |e^{nu z^2} sigma(z)|^beta e^{-|z|^2} and its square on the cell's
    midpoint nodes, from two separate factors and T complex sines per node."""
    z = midpoint_nodes(cand.lattice, res)
    g = np.abs(cand.f0_values(z)) ** cand.beta * np.exp(-np.abs(z) ** 2)
    assert np.max(np.abs(cand.envelope(z) - cand.scale * g)) < 1e-13 * np.max(cand.scale * g)
    return np.mean(g), np.mean(g * g)


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("theta", [0.3, 0.6, PI / 3, 1.37, 2.8])
def test_envelope_is_even_about_the_cell_centre(theta, beta):
    # The cell means form only half the rows: node (i, j) stands for node
    # (n_u - 1 - i, n_v - 1 - j), 2 omega1 + 2 omega2 - z, which needs an even
    # and doubly periodic envelope.  Checked on the midpoint nodes of an odd
    # and an even axis.
    cand = abrikosov_candidate(lattice_normalize(theta, beta), beta)
    lat = cand.lattice
    z = midpoint_nodes(lat, (49, 80))
    g = cand.envelope(z)
    mirrored = cand.envelope(2.0 * lat.omega1 + 2.0 * lat.omega2 - z)
    assert np.max(np.abs(mirrored - g)) <= 1e-13 * np.max(g)


# Ids read theta-beta on the 48x80 grid and theta-beta-RES on the grids with an odd axis.
NODE_QUADRATURE_CASES = [
    pytest.param(theta, beta, res, id=f"{theta}-{beta}" + ("" if res == (48, 80) else f"-{res[0]}x{res[1]}"))
    for res in ((48, 80), (49, 80), (48, 81))
    for theta in (0.3, 0.6, 0.75, PI / 3, 1.37, 2.8)
    for beta in (1.0, 2.0)
]


@pytest.mark.parametrize("theta,beta,res", NODE_QUADRATURE_CASES)
def test_cell_means_match_the_node_quadrature(theta, beta, res):
    # The non-square grid catches factors built on mismatched axes; theta =
    # 0.6 needs a seventh series term, and 0.3 and 2.8 are flat cells, whose
    # exponent loses its u^2 and uv terms by cancelling the largest parts.
    # An odd n_u has a middle row that is its own mirror and counts once.
    cand = abrikosov_candidate(lattice_normalize(theta, beta), beta)
    if theta == 0.6:
        v_max = (res[1] - 0.5) / res[1]
        assert len(_theta_series(cand.lattice.tau, PI * cand.lattice.tau.imag * v_max)[0]) >= 7
    m1, m2 = node_cell_means(cand, res)
    s = m1 / m2
    checks = [
        (cell_average_density(cand, res), 1.0 - 2.0 * s * m1 + s * s * m2),
        (cell_average_density(cand, res, optimize_scale=False), 1.0 - 2.0 * m1 + m2),
    ]
    for got, want in checks:
        assert abs(got - want) <= 1e-13 * abs(want)


def test_cell_means_at_a_large_beta():
    # Here |pref theta_1|^beta alone overflows. The envelope (and so the
    # periodicity check) and the cell means raise the modulus times its
    # Gaussian to the power instead.
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 60.0), 60.0)
    m1, m2 = node_cell_means(cand, (48, 80))
    s = m1 / m2
    want = 1.0 - 2.0 * s * m1 + s * s * m2
    assert abs(cell_average_density(cand, (48, 80)) - want) <= 1e-13 * want


def test_cell_means_of_an_unnormalized_candidate():
    # Another nu leaves the envelope non-periodic, with u^2 and uv terms in its
    # exponent; its cell means are no large-disk average, so the cell average
    # refuses it, with the candidate's scale or the optimal one.
    cand = abrikosov_candidate(lattice_normalize(1.2, 1.0), 1.0)
    off = QuasiperiodicCandidate(cand.lattice, cand.nu + 0.05 - 0.03j, 1.0)
    for optimize_scale in (True, False):
        with pytest.raises(ConfigurationError):
            cell_average_density(off, (48, 80), optimize_scale)


def test_cell_means_refuse_bad_resolutions_bases_and_values():
    # The cell average needs at least 16 nodes on each axis and a positively
    # oriented cell (Lattice itself refuses any other), and a non-finite
    # envelope value is a numeric failure, not a mean.
    lat = lattice_normalize(PI / 3, 1.0)
    cand = abrikosov_candidate(lat, 1.0)
    for res in ((0, 32), (32, 0)):
        with pytest.raises(ConfigurationError):
            cell_average_density(cand, res)
    with pytest.raises(ConfigurationError):
        replace(lat, omega2=lat.omega2.conjugate(), tau=lat.tau.conjugate())
    with pytest.raises(NumericError):
        cell_average_density(QuasiperiodicCandidate(lat, math.nan, 1.0), (32, 32))


def test_cell_means_name_a_non_finite_node(monkeypatch):
    # A nan nu fails the periodicity check first; past it, the cell grid's own
    # check reports the first non-finite node.
    lat = lattice_normalize(PI / 3, 1.0)
    monkeypatch.setattr(QuasiperiodicCandidate, "periodicity_residual", lambda self, n_points: 0.0)
    with pytest.raises(NumericError, match="at node") as info:
        cell_average_density(QuasiperiodicCandidate(lat, math.nan, 1.0), (32, 32))
    assert abs(info.value.node - (lat.omega1 + lat.omega2) / 32) < 1e-15


def test_cell_means_refuse_a_sum_that_overflows(monkeypatch):
    # Every envelope value and square is finite, but the sum of the squares
    # is not: that is a numeric failure at no node, not an infinite mean.
    lat = lattice_normalize(PI / 3, 1.0)
    cand = abrikosov_candidate(lat, 1.0)
    pref, c = cand._modulus_factors()
    monkeypatch.setattr(QuasiperiodicCandidate, "_modulus_factors", lambda self: (1e154 * pref, c))
    with pytest.raises(NumericError, match="overflow") as info:
        cell_average_density(cand, (32, 32))
    assert info.value.node is None


def test_cell_means_build_no_nodes_and_no_grid_sines(monkeypatch):
    # The cell means read only the two midpoint axes: every sine, cosine or
    # exponential is taken on one axis times the series terms, never on the
    # u x v nodes.
    class AxisSinesOnly:
        def __getattr__(self, name):
            func = getattr(np, name)
            if name not in ("sin", "cos", "exp"):
                return func

            def small(x):
                assert np.size(x) <= 4096, f"{name} on {np.shape(x)}"
                return func(x)

            return small

    monkeypatch.setattr(lattice_sigma, "np", AxisSinesOnly())
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    assert abs(cell_average_density(cand, (256, 256)) - 0.061203) < 5e-4
    assert abs(cell_average_density(cand, (128, 192)) - 0.061203) < 5e-4
    assert len(theta_scan(1.0, 1.1, 2, 1.0, (128, 128))) == 2


def test_cell_means_peak_memory():
    # At 512x512 the node path held the nodes and a (terms x nodes) complex
    # sine array, 67 MB at its peak; the separable path on half the rows
    # holds about 3.3 MB.
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    cell_average_density(cand, (64, 64))
    tracemalloc.start()
    try:
        cell_average_density(cand, (512, 512))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_cell_average_golden_value():
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    val = cell_average_density(cand, (128, 128), optimize_scale=True)
    assert abs(val - 0.061203) < 5e-4


def test_cell_average_scaled_matches_unscaled_does_not():
    # Resolves which normalization reproduces the documented minimum: the
    # scale-optimized candidate does; the raw sigma normalization does not.
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    scaled = cell_average_density(cand, (128, 128), optimize_scale=True)
    unscaled = cell_average_density(cand, (128, 128), optimize_scale=False)
    assert abs(scaled - 0.061203) < 5e-4
    assert abs(unscaled - 0.061203) > 5e-3


def test_cell_average_resolution_stability():
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    v1 = cell_average_density(cand, (512, 512))
    v2 = cell_average_density(cand, (1024, 1024))
    assert abs(v1 - v2) < 1e-8


def test_cell_average_scale_identity():
    # With the optimal s the value collapses to 1 - s * (cell mean of g).
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    res = (128, 128)
    m1, m2 = node_cell_means(cand, res)
    s = m1 / m2
    val = cell_average_density(cand, res, optimize_scale=True)
    assert abs(val - (1.0 - s * m1)) < 1e-12


def test_cell_average_zero_scale_edge():
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    zero_scale = QuasiperiodicCandidate(cand.lattice, cand.nu, cand.beta, scale=0.0)
    assert cell_average_density(zero_scale, (32, 32), optimize_scale=False) == 1.0


def test_cell_average_coarse_resolution_refused():
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 1.0), 1.0)
    with pytest.raises(ConfigurationError):
        cell_average_density(cand, (8, 8))


def test_beta_two_abrikosov_ratio():
    # Regression against the classical triangular-lattice ratio ~1.1595953
    # from the Bose-Einstein condensate literature: value = 1 - 1/ratio.
    cand = abrikosov_candidate(lattice_normalize(PI / 3, 2.0), 2.0)
    val = cell_average_density(cand, (256, 256))
    assert 0 < val < 1
    assert abs(1.0 / (1.0 - val) - 1.1595953) < 1e-4


def test_theta_scan_minimum_at_pi_thirds():
    rows = theta_scan(PI / 3 - 0.2, PI / 3 + 0.2, 5, 1.0, (64, 64))
    assert len(rows) == 5
    values = [v for _, v in rows]
    assert int(np.argmin(values)) == 2
    assert values[1] > values[2] < values[3]


def test_theta_scan_two_steps():
    rows = theta_scan(1.0, 1.1, 2, 1.0, (32, 32))
    assert len(rows) == 2
    assert rows[0][0] == 1.0 and rows[1][0] == 1.1


def test_theta_scan_scores_the_angles_through_its_mapper():
    # The mapper gets the row function and the angles in order, and its
    # results, in order, are the rows: a mapper that scores them in another
    # order changes nothing.
    seen = []

    def backwards(fn, thetas):
        seen.extend(thetas)
        return [fn(theta) for theta in thetas[::-1]][::-1]

    rows = theta_scan(1.0, 1.1, 3, 1.0, (32, 32), mapper=backwards)
    assert seen == [1.0 + i * (1.1 - 1.0) / 2 for i in range(3)] == [t for t, _ in rows]
    assert rows == theta_scan(1.0, 1.1, 3, 1.0, (32, 32))


def test_theta_scan_validation():
    with pytest.raises(ConfigurationError):
        theta_scan(1.0, 1.1, 1, 1.0, (32, 32))
    with pytest.raises(ConfigurationError):
        theta_scan(-0.1, 1.0, 3, 1.0, (32, 32))
    with pytest.raises(ConfigurationError):
        theta_scan(1.0, 3.2, 3, 1.0, (32, 32))
