import math
import tracemalloc

import numpy as np
import pytest

from zeropack import (
    ConfigurationError,
    FunctionalSpec,
    NumericError,
    build_grid,
    default_grid,
    density,
    integrate,
    minimal_correction,
)
from zeropack.quadrature import _gauss_legendre

from conftest import random_poly


def test_total_weight_unit_disk():
    grid = build_grid((0, 1), (64, 128))
    assert abs(integrate(grid, np.ones(grid.size)) - 1.0) < 1e-12


def test_total_weight_half_disk():
    grid = build_grid((0, 0.5), (64, 128))
    assert abs(integrate(grid, np.ones(grid.size)) - 0.25) < 1e-12


def test_total_weight_annulus():
    # Oracle: difference of disk areas under normalized measure.
    grid = build_grid((0.5, 1.0), (64, 128))
    assert abs(integrate(grid, np.ones(grid.size)) - 0.75) < 1e-12


def test_weights_positive_nodes_inside():
    for edges in ((0, 0.7), (0.3, 0.9), (0, 4.0)):
        grid = build_grid(edges, (32, 16))
        assert np.all(grid.weights > 0)
        s = np.abs(grid.nodes)
        if edges[0] == 0:
            assert np.all(s < edges[1])
        else:
            assert np.all((s > edges[0]) & (s < edges[1]))


@pytest.mark.parametrize("r", [0.5, 0.9])
def test_hyperbolic_log_identity(r):
    grid = build_grid((0, r), (128, 64))
    val = integrate(grid, lambda z: 1.0 / (1.0 - np.abs(z) ** 2))
    exact = math.log(1.0 / (1.0 - r * r))
    assert abs(val - exact) / exact < 1e-10


def test_moment_integral_unit_disk():
    # Oracle: 2*int_0^1 r^3 dr = 1/2.
    grid = build_grid((0, 1), (64, 32))
    assert abs(integrate(grid, lambda z: np.abs(z) ** 2) - 0.5) < 1e-12


def test_truncated_plane_gaussian():
    # Oracle: closed-form radial integral (1 - e^{-2 gamma R^2})/(2 gamma).
    grid = build_grid((0, 6.0), (160, 16))
    val = integrate(grid, lambda z: np.exp(-2.0 * np.abs(z) ** 2))
    assert abs(val - (1.0 - math.exp(-72.0)) / 2.0) < 1e-12


@pytest.mark.parametrize("j,k", [(0, 1), (1, 3), (5, 2), (7, 0)])
def test_offdiagonal_monomials_vanish(j, k):
    for edges in ((0, 0.8), (0.4, 1.0)):
        grid = build_grid(edges, (48, 64))
        val = np.sum(grid.nodes**j * np.conj(grid.nodes) ** k * grid.weights)
        assert abs(val) < 1e-12


def test_radial_convergence_order():
    # Error of the log identity improves at least 10x per radial doubling
    # until it bottoms out at 1e-12.
    r = 0.9
    exact = math.log(1.0 / (1.0 - r * r))
    errs = []
    for n_rad in (8, 16, 32, 64):
        grid = build_grid((0, r), (n_rad, 16))
        errs.append(abs(integrate(grid, lambda z: 1.0 / (1.0 - np.abs(z) ** 2)) - exact))
    for a, b in zip(errs[:-1], errs[1:]):
        assert b < a / 10.0 or b < 1e-12


def test_region_additivity_shared_split():
    r_in, r_out = 0.5, 0.9
    whole = build_grid((0, r_in, r_out), (48, 32))
    inner = build_grid((0, r_in), (48, 32))
    outer = build_grid((r_in, r_out), (48, 32))

    def f(z):
        return np.abs(z) ** 2 + 0.3

    lhs = integrate(whole, f)
    rhs = integrate(inner, f) + integrate(outer, f)
    assert abs(lhs - rhs) < 1e-10


def test_split_grid_nodes_match_pieces():
    r_in, r_out = 0.5, 0.9
    whole = build_grid((0, r_in, r_out), (48, 32))
    inner = build_grid((0, r_in), (48, 32))
    outer = build_grid((r_in, r_out), (48, 32))
    assert np.array_equal(whole.nodes, np.concatenate([inner.nodes, outer.nodes]))
    assert np.array_equal(whole.weights, np.concatenate([inner.weights, outer.weights]))


def test_degenerate_regions_rejected():
    # A single distinct edge, a negative first edge, a non-finite edge or no
    # nodes leaves no grid.
    for edges in ((0.0, 0.0), (0.7,), (), (-0.5, 1.0), (0.0, math.inf), (0.0, math.nan, 1.0)):
        with pytest.raises(ConfigurationError):
            build_grid(edges, (8, 8))
    with pytest.raises(ConfigurationError):
        build_grid((0, 1.0), (0, 8))


def test_nonfinite_integrand_reports_node():
    grid = build_grid((0, 1), (8, 8))

    def bad(z):
        out = np.ones_like(np.real(z))
        out[3] = np.nan
        return out

    with pytest.raises(NumericError) as info:
        integrate(grid, bad)
    assert info.value.node == grid.nodes[3]


def test_integrate_accepts_value_array():
    grid = build_grid((0, 1), (16, 16))
    vals = np.abs(grid.nodes) ** 2
    assert abs(integrate(grid, vals) - 0.5) < 1e-10
    with pytest.raises(ConfigurationError):
        integrate(grid, vals[:-1])


def test_integrate_callable_must_return_node_shape():
    # A callable's output is checked like a value array; there is no per-node fallback.
    grid = build_grid((0, 1), (8, 8))
    with pytest.raises(ConfigurationError):
        integrate(grid, lambda z: 1.0)


def test_default_r_cut_dominates_growth():
    for n, gamma in ((4, 1.0), (16, 8.0), (26, 8.0), (11, 0.5)):
        rc = FunctionalSpec("planar", gamma).support(n)
        assert rc >= 3.0
        # Polynomial growth crushed at the cut relative to the unit scale.
        assert rc ** (2 * (n - 1)) * math.exp(-2.0 * gamma * rc * rc) < 1e-16


def test_gauss_legendre_rule_cached_read_only():
    first = build_grid((0, 0.5, 1), (48, 16))
    again = build_grid((0, 0.5, 1), (48, 16))
    assert first.nodes.tobytes() == again.nodes.tobytes()
    assert first.weights.tobytes() == again.weights.tobytes()
    x, w = _gauss_legendre(48)
    assert _gauss_legendre(48)[0] is x
    fresh_x, fresh_w = np.polynomial.legendre.leggauss(48)
    assert np.array_equal(x, fresh_x) and np.array_equal(w, fresh_w)
    # The inner panel [0, 0.5] maps the rule affinely, exactly as before caching.
    assert np.array_equal(first.radii[:48], 0.25 + 0.25 * fresh_x)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_ring_layout_radii():
    for edges in ((0, 1), (0.3, 0.9), (0, 1.0, 2.5, 4.0)):
        grid = build_grid(edges, (12, 10))
        assert grid.edges == tuple(map(float, edges))
        assert grid.radii.shape == (12 * (len(edges) - 1),)
        # Nodes and weights are derived, once, from the radii and ring weights.
        assert grid.size == grid.radii.size * 10
        assert grid.nodes.tobytes() == (grid.radii[:, None] * grid.phases).ravel().tobytes()
        assert grid.weights.tobytes() == np.repeat(grid.ring_weights, 10).tobytes()
        assert grid.nodes is grid.nodes and grid.weights is grid.weights


def test_ring_grid_builds_no_node_arrays():
    # A 1024x1024 disk grid with node arrays holds 16 MB of nodes and 8 MB of
    # weights; a ring grid stores 1024 radii and 1024 ring weights.  The
    # Gauss-Legendre rule is cached, and its 8 MB eigensolve is left out.
    _gauss_legendre(1024)
    tracemalloc.start()
    try:
        grid = build_grid((0, 1), (1024, 1024))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert abs(integrate(grid, np.ones(grid.size)) - 1.0) < 1e-12


def test_ring_sums_hold_no_node_arrays(rng):
    # The |f| and |u| ring sums take a block of rings at a time, so density
    # and the correction's proof terms hold no node-sized array.  One product
    # of all rings held 25 and 29 MB here; the blocks hold about 1.7 MB.
    _gauss_legendre(1024)
    _gauss_legendre(768)
    spec, hyp = FunctionalSpec("planar", 8.0), FunctionalSpec("hyperbolic", 0.85)
    for evaluate in (
        lambda: density(random_poly(rng, 16), spec, default_grid(spec, (1024, 1024))),
        lambda: minimal_correction(random_poly(rng, 3), hyp, hyp.default_delta, (768, 768)),
    ):
        tracemalloc.start()
        try:
            evaluate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


@pytest.mark.parametrize(
    "edges,resolution,expect",
    [
        ((0, 0.2, 0.5, 0.7), (33, 17), (0.4899999999999999, 0.36599899978347916, 0.12004999999999995)),
        ((0, 1.0, 2.5, 4.0), (12, 10), (16.0, 0.7788007699519007, 128.0)),
    ],
    ids=["split-disk", "split-plane"],
)
def test_total_weight_and_integrate_keep_their_values(edges, resolution, expect):
    # The expected values are node-by-node sums against the node weights;
    # integrate sums each ring first, so only rounding differs.
    grid = build_grid(edges, resolution)
    vals = np.cos(np.real(grid.nodes)) * np.exp(-np.abs(grid.nodes) ** 2)
    got = (integrate(grid, np.ones(grid.size)), integrate(grid, vals), integrate(grid, lambda z: np.abs(z) ** 2))
    for value, ref in zip(got, expect):
        assert abs(value - ref) <= 1e-14 * abs(ref)


def test_outer_panel_is_the_annulus_grid():
    # Panels are independent: the outer panel of a split disk is the annulus
    # grid on the same edges, radius for radius and weight for weight.
    a, b, res = 0.35, 0.9, (24, 12)
    split, annulus = build_grid((0, a, b), res), build_grid((a, b), res)
    assert split.radii[24:].tobytes() == annulus.radii.tobytes()
    assert split.ring_weights[24:].tobytes() == annulus.ring_weights.tobytes()
    # Edge order and repeats do not matter: the grid is that of the sorted distinct edges.
    for edges in ((b, 0, a), (0, a, a, b, b), (a, 0.0, b, 0)):
        grid = build_grid(edges, res)
        assert grid.edges == (0.0, a, b)
        assert grid.radii.tobytes() == split.radii.tobytes()
        assert grid.ring_weights.tobytes() == split.ring_weights.tobytes()

