import json
import math
import tracemalloc

import numpy as np
import pytest

from zeropack import (
    ComplexPolynomial,
    ConfigurationError,
    FunctionalSpec,
    build_grid,
    integrate,
    poly_eval,
    project_polynomial,
)
from zeropack import poly
from zeropack.poly import RingVandermonde, gram_diagonal, ring_abs_sums, ring_vandermonde, vandermonde

from conftest import random_poly


def test_eval_examples():
    p = ComplexPolynomial([1.0, 2.0])
    assert poly_eval(p, 1j) == 1 + 2j
    zero = ComplexPolynomial([0.0])
    assert poly_eval(zero, 3.7 - 2j) == 0
    cubic = ComplexPolynomial([0.0, 0.0, 0.0, 1.0])
    assert poly_eval(cubic, 2.0) == 8.0


def test_eval_matches_numpy(rng):
    for _ in range(20):
        p = random_poly(rng, 7)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        mine = poly_eval(p, z)
        ref = np.polynomial.polynomial.polyval(z, p.coeffs)
        assert np.max(np.abs(mine - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_degree_sentinel():
    assert ComplexPolynomial([0.0, 0.0]).degree() == float("-inf")
    assert ComplexPolynomial([1.0, 0.0, 0.0]).degree() == 0
    assert ComplexPolynomial([0.0, 3.0]).degree() == 1


# The hyperbolic dbar weight 1-|z|^2 does not depend on r.
HYP = FunctionalSpec("hyperbolic", 0.5)


def planar(gamma):
    return FunctionalSpec("planar", gamma)


def dbar_gram(spec, n, grid):
    # Gram diagonal of the spec's dbar weight.
    return gram_diagonal(grid, spec.dbar_weight(grid.radii) * grid.ring_weights, n)


def test_gram_hyperbolic_diagonal():
    # Oracle: 2*int_0^1 r^(2j+1) (1-r^2) dr = 1/((j+1)(j+2)).
    grid = build_grid((0, 1), (128, 64))
    G = dbar_gram(HYP, 16, grid)
    for j in range(16):
        assert abs(G[j] - 1.0 / ((j + 1) * (j + 2))) < 1e-10


def test_gram_planar_diagonal_factorials():
    # Oracle: Gaussian moments, 2*int_0^inf r^(2j+1) e^{-2 gamma r^2} dr = j!/(2 gamma)^(j+1).
    for gamma, n in ((0.5, 11), (8.0, 26)):
        grid = build_grid((0, planar(gamma).support(n)), (160, 64))
        G = dbar_gram(planar(gamma), n, grid)
        for j in range(n):
            exact = math.factorial(j) / (2.0 * gamma) ** (j + 1)
            assert abs(G[j] - exact) < 1e-8 * exact


def _dense_gram(spec, n, grid):
    # Reference: the dense quadrature Gram V^H diag(w) V, with the weight written out.
    a2 = np.abs(grid.nodes) ** 2
    w = (1 - a2 if spec.geometry == "hyperbolic" else np.exp(-2 * spec.param * a2)) * grid.weights
    V = grid.nodes[:, None] ** np.arange(n)[None, :]
    return V.conj().T @ (w[:, None] * V)


_DENSE_CASES = (
    (HYP, 64, (0, 1)),
    (planar(8.0), 26, (0, planar(8.0).support(26))),
)


def test_gram_offdiagonal_zero():
    grid = build_grid((0, 1), (64, 64))
    dense = _dense_gram(HYP, 8, grid)
    off = dense - np.diag(np.diag(dense))
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(dbar_gram(HYP, 8, grid), np.real(np.diag(dense)), rtol=1e-14, atol=0)

    for spec, n, edges in _DENSE_CASES:
        dense = _dense_gram(spec, n, build_grid(edges, (128, 256)))
        d = np.real(np.diag(dense))
        off = np.abs(dense - np.diag(np.diag(dense)))
        assert np.all(off <= 1e-14 * np.sqrt(np.outer(d, d)))


def test_gram_hermitian_cholesky_degree_64(rng):
    grid = build_grid((0, 1), (128, 256))
    dense = _dense_gram(HYP, 64, grid)
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-14
    np.linalg.cholesky(dense)  # PD with the default grids
    assert np.all(dbar_gram(HYP, 64, grid) > 0)

    gp = build_grid((0, planar(1.0).support(64)), (128, 256))
    np.linalg.cholesky(_dense_gram(planar(1.0), 64, gp))
    assert np.all(dbar_gram(planar(1.0), 64, gp) > 0)

    # The diagonal divide agrees with a general solve of the dense system.
    for spec, n, edges in _DENSE_CASES:
        grid = build_grid(edges, (128, 256))
        dense = _dense_gram(spec, n, grid)
        G = dbar_gram(spec, n, grid)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(rhs / G - ref)) < 1e-10 * np.max(np.abs(ref))


def test_gram_rejects_non_ring_grids():
    with pytest.raises(ConfigurationError, match="at least 20 angles"):
        dbar_gram(HYP, 20, build_grid((0, 1), (32, 16)))


def test_norm_via_gram_matches_integral(rng):
    grid = build_grid((0, 1), (96, 96))
    n = 9
    G = dbar_gram(HYP, n, grid)
    for _ in range(5):
        p = random_poly(rng, n)
        direct = integrate(grid, lambda z: np.abs(poly_eval(p, z)) ** 2 * (1 - np.abs(z) ** 2))
        assert abs(np.sum(G * np.abs(p.coeffs) ** 2) - direct) < 1e-10 * max(1.0, direct)


def test_gram_weight_grid_mismatch():
    # The hyperbolic weight has no support off the unit disk.
    grid = build_grid((0, 4.0), (32, 32))
    with pytest.raises(ConfigurationError, match="support"):
        project_polynomial(lambda z: z, HYP, 4, grid)
    with pytest.raises(ConfigurationError):
        FunctionalSpec("unknown", 0.5)


def test_serialization_roundtrip(rng):
    p = random_poly(rng, 5)
    q = ComplexPolynomial.from_json(json.dumps(p.pairs()))
    assert np.array_equal(p.coeffs, q.coeffs)
    # Wire format: bare JSON array of [re, im] pairs indexed by power.
    data = json.loads(json.dumps(p.pairs()))
    assert data[2] == [p.coeffs[2].real, p.coeffs[2].imag]


@pytest.mark.parametrize(
    "edges",
    [(0, 1), (0.3, 0.9), (0, 1.0, 2.5, 4.0)],
    ids=["disk", "annulus", "split-plane"],
)
def test_ring_product_matches_dense(rng, edges):
    n_ang = 24
    grid = build_grid(edges, (20, n_ang))
    out = np.empty(len(grid.nodes), dtype=np.complex64)
    for n in (1, 16, n_ang + 5):
        dense = vandermonde(grid.nodes, n)
        V = ring_vandermonde(grid, n)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(len(grid.nodes)) + 1j * rng.standard_normal(len(grid.nodes))
        # Relative to the sums of moduli, the scale of rounding in either product.
        assert np.all(np.abs(V @ c - dense @ c) <= 1e-13 * (np.abs(dense) @ np.abs(c)))
        assert np.all(np.abs(V.adjoint(y) - dense.conj().T @ y) <= 1e-13 * (np.abs(dense).T @ np.abs(y)))
        # complex64 factors run both products in single precision, c rounded
        # to complex64 first, and write into a complex64 node buffer.
        V = RingVandermonde(V.radial.astype(np.complex64), V.angular.astype(np.complex64))
        y = y.astype(np.complex64)
        assert (V @ c).dtype == V.adjoint(y).dtype == np.complex64
        written = V.__matmul__(c, out=out)
        assert np.shares_memory(written, out) and np.array_equal(written, V @ c)
        assert np.all(np.abs(out - dense @ c) <= 1e-6 * (np.abs(dense) @ np.abs(c)))
        assert np.all(np.abs(V.adjoint(y) - dense.conj().T @ y) <= 1e-6 * (np.abs(dense).T @ np.abs(y)))
    horner = poly_eval(ComplexPolynomial(c), grid.nodes)
    assert np.all(np.abs(ring_vandermonde(grid, n) @ c - horner) <= 1e-13 * (np.abs(dense) @ np.abs(c)))


@pytest.mark.parametrize(
    "n_ang,modes,period",
    [
        pytest.param(256, range(7), 1, id="generic"),
        pytest.param(129, (1, 4, 7, 10), 3, id="3-fold"),
        pytest.param(256, (5,), 256, id="monomial"),
        pytest.param(256, (0, 2, 6), 2, id="zero-columns"),
        pytest.param(256, (), 256, id="zero-rows"),
    ],
)
@pytest.mark.parametrize("p", [1.0, 0.5, 2.0])
def test_ring_abs_sums_match_one_product(rng, p, n_ang, modes, period, monkeypatch):
    # Rows of 11 columns carrying the given modes, the others zero on every
    # ring.  The sums are formed on n_ang/d angles, d = gcd(n_ang, the gaps
    # between the modes), so a block holds RING_BLOCK // (n_ang/d) rings: at
    # four rings a block, row counts on both sides of each block seam: none,
    # one ring, a block short by one, a block, and two blocks and one ring.
    n, per_block = 11, 4
    monkeypatch.setattr(poly, "RING_BLOCK", per_block * (n_ang // period))
    angular = vandermonde(np.exp(2j * np.pi * np.arange(n_ang) / n_ang), n)
    for count in (0, 1, per_block - 1, per_block, 2 * per_block + 1):
        rows = np.zeros((count, n), dtype=complex)
        rows[:, list(modes)] = rng.standard_normal((count, len(modes))) + 1j * rng.standard_normal((count, len(modes)))
        ref = (np.abs(rows @ angular.T) ** p).sum(axis=1)
        got = ring_abs_sums(rows, n_ang, p)
        assert got.shape == (count,)
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)
    # A ring of more angles than a block holds is a block of its own.
    monkeypatch.setattr(poly, "RING_BLOCK", n_ang // period // 2)
    assert np.all(np.abs(ring_abs_sums(rows, n_ang, p) - ref) <= 1e-13 * ref)


def test_ring_abs_sums_form_one_angle_for_a_monomial(rng):
    # A monomial's modulus is constant on each ring: its sums take one angle
    # per ring, so on 2^20 angles they hold far less than one ring of node
    # values (16 MB).
    n_ang = 1 << 20
    rows = np.zeros((64, 5), dtype=complex)
    rows[:, 3] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    tracemalloc.start()
    try:
        got = ring_abs_sums(rows, n_ang, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * n_ang / 100
    assert np.all(np.abs(got - n_ang * np.abs(rows[:, 3]) ** 1.5) <= 1e-15 * got)
