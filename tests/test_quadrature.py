import math

import numpy as np
import pytest

from zeropack import (
    Annulus,
    Cell,
    Disk,
    InvalidRegionError,
    NumericError,
    TruncatedPlane,
    build_grid,
    default_r_cut,
    integrate,
)


def test_total_weight_unit_disk():
    grid = build_grid(Disk(0, 1), (64, 128))
    assert abs(grid.total_weight - 1.0) < 1e-12


def test_total_weight_half_disk():
    grid = build_grid(Disk(0, 0.5), (64, 128))
    assert abs(grid.total_weight - 0.25) < 1e-12


def test_total_weight_annulus():
    # Oracle: difference of disk areas under normalized measure.
    grid = build_grid(Annulus(0.5, 1.0), (64, 128))
    assert abs(grid.total_weight - 0.75) < 1e-12


def test_weights_positive_nodes_inside():
    for region in (Disk(0, 0.7), Annulus(0.3, 0.9), TruncatedPlane(4.0)):
        grid = build_grid(region, (32, 16))
        assert np.all(grid.weights > 0)
        s = np.abs(grid.nodes)
        if isinstance(region, Disk):
            assert np.all(s < region.radius)
        elif isinstance(region, Annulus):
            assert np.all((s > region.r_in) & (s < region.r_out))
        else:
            assert np.all(s < region.r_cut)


@pytest.mark.parametrize("r", [0.5, 0.9])
def test_hyperbolic_log_identity(r):
    grid = build_grid(Disk(0, r), (128, 64))
    val = integrate(grid, lambda z: 1.0 / (1.0 - np.abs(z) ** 2))
    exact = math.log(1.0 / (1.0 - r * r))
    assert abs(val - exact) / exact < 1e-10


def test_moment_integral_unit_disk():
    # Oracle: 2*int_0^1 r^3 dr = 1/2.
    grid = build_grid(Disk(0, 1), (64, 32))
    assert abs(integrate(grid, lambda z: np.abs(z) ** 2) - 0.5) < 1e-12


def test_truncated_plane_gaussian():
    # Oracle: closed-form radial integral (1 - e^{-2 gamma R^2})/(2 gamma).
    grid = build_grid(TruncatedPlane(6.0), (160, 16))
    val = integrate(grid, lambda z: np.exp(-2.0 * np.abs(z) ** 2))
    assert abs(val - (1.0 - math.exp(-72.0)) / 2.0) < 1e-12


@pytest.mark.parametrize("j,k", [(0, 1), (1, 3), (5, 2), (7, 0)])
def test_offdiagonal_monomials_vanish(j, k):
    for region in (Disk(0, 0.8), Annulus(0.4, 1.0)):
        grid = build_grid(region, (48, 64))
        val = np.sum(grid.nodes**j * np.conj(grid.nodes) ** k * grid.weights)
        assert abs(val) < 1e-12


def test_radial_convergence_order():
    # Error of the log identity improves at least 10x per radial doubling
    # until it bottoms out at 1e-12.
    r = 0.9
    exact = math.log(1.0 / (1.0 - r * r))
    errs = []
    for n_rad in (8, 16, 32, 64):
        grid = build_grid(Disk(0, r), (n_rad, 16))
        errs.append(abs(integrate(grid, lambda z: 1.0 / (1.0 - np.abs(z) ** 2)) - exact))
    for a, b in zip(errs[:-1], errs[1:]):
        assert b < a / 10.0 or b < 1e-12


def test_region_additivity_shared_split():
    r_in, r_out = 0.5, 0.9
    whole = build_grid(Disk(0, r_out), (48, 32), radial_splits=(r_in,))
    inner = build_grid(Disk(0, r_in), (48, 32))
    outer = build_grid(Annulus(r_in, r_out), (48, 32))

    def f(z):
        return np.abs(z) ** 2 + 0.3

    lhs = integrate(whole, f)
    rhs = integrate(inner, f) + integrate(outer, f)
    assert abs(lhs - rhs) < 1e-10


def test_split_grid_nodes_match_pieces():
    r_in, r_out = 0.5, 0.9
    whole = build_grid(Disk(0, r_out), (48, 32), radial_splits=(r_in,))
    inner = build_grid(Disk(0, r_in), (48, 32))
    outer = build_grid(Annulus(r_in, r_out), (48, 32))
    assert np.array_equal(whole.nodes, np.concatenate([inner.nodes, outer.nodes]))
    assert np.array_equal(whole.weights, np.concatenate([inner.weights, outer.weights]))


def test_cell_grid_measure():
    # Euclidean cell area |Im(conj(2 w1) * 2 w2)| under dA = dxdy/pi.
    grid = build_grid(Cell(1.0, 1j), (32, 32))
    assert abs(grid.total_weight - 4.0 / math.pi) < 1e-12
    assert np.all(grid.weights > 0)


def test_degenerate_regions_rejected():
    with pytest.raises(InvalidRegionError):
        build_grid(Disk(0, 0.0), (8, 8))
    with pytest.raises(InvalidRegionError):
        build_grid(Annulus(0.9, 0.5), (8, 8))
    with pytest.raises(InvalidRegionError):
        build_grid(Cell(1.0, 2.0), (8, 8))  # collinear basis, zero area
    with pytest.raises(InvalidRegionError):
        build_grid(Disk(0, 1.0), (0, 8))


def test_nonfinite_integrand_reports_node():
    grid = build_grid(Disk(0, 1), (8, 8))

    def bad(z):
        out = np.ones_like(np.real(z))
        out[3] = np.nan
        return out

    with pytest.raises(NumericError) as info:
        integrate(grid, bad)
    assert info.value.node == grid.nodes[3]


def test_integrate_accepts_value_array():
    grid = build_grid(Disk(0, 1), (16, 16))
    vals = np.abs(grid.nodes) ** 2
    assert abs(integrate(grid, vals) - 0.5) < 1e-10
    with pytest.raises(NumericError):
        integrate(grid, vals[:-1])


def test_integrate_callable_must_return_node_shape():
    # A callable's output is checked like a value array; there is no per-node fallback.
    grid = build_grid(Disk(0, 1), (8, 8))
    with pytest.raises(NumericError):
        integrate(grid, lambda z: 1.0)


def test_default_r_cut_dominates_growth():
    for n, gamma in ((4, 1.0), (16, 8.0), (26, 8.0), (11, 0.5)):
        rc = default_r_cut(n, gamma)
        assert rc >= 3.0
        # Polynomial growth crushed at the cut relative to the unit scale.
        assert rc ** (2 * (n - 1)) * math.exp(-2.0 * gamma * rc * rc) < 1e-16
