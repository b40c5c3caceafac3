"""Product quadrature rules on disks, annuli, truncated planes and lattice cells.

All rules integrate against the normalized area measure dA = dx dy / pi, so the
total weight of a disk of radius r is r**2.  The radial direction uses
Gauss-Legendre nodes applied to the measure 2 r dr (optionally split at interior
breakpoints so that integrands with circular seams stay piecewise smooth); the
angular direction is equispaced, which integrates trigonometric polynomials of
degree below the angular count exactly.  Lattice cells use an equispaced tensor
rule in cell coordinates, offset to midpoints so nodes avoid the cell corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, InvalidRegionError, NumericError

__all__ = [
    "Disk",
    "Annulus",
    "TruncatedPlane",
    "Cell",
    "QuadratureGrid",
    "build_grid",
    "integrate",
    "default_r_cut",
]


@dataclass(frozen=True)
class Disk:
    center: complex = 0.0
    radius: float = 1.0


@dataclass(frozen=True)
class Annulus:
    r_in: float
    r_out: float


@dataclass(frozen=True)
class TruncatedPlane:
    r_cut: float


@dataclass(frozen=True)
class Cell:
    """Fundamental cell of the lattice 2*omega1*Z + 2*omega2*Z."""

    omega1: complex
    omega2: complex


Region = Disk | Annulus | TruncatedPlane | Cell


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and positive weights for one region, w.r.t. dA = dx dy / pi.

    On rings centred at 0, row j of ``nodes.reshape(-1, n_ang)`` is ``radii[j] * phases``,
    each of weight ``ring_weights[j]``; ``radii`` is None for cells and off-centre disks.
    """

    nodes: np.ndarray
    weights: np.ndarray
    region: Region
    resolution: tuple[int, int]
    radii: np.ndarray | None = None

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    @property
    def phases(self) -> np.ndarray:
        """The n_ang equispaced unit phases e^{i theta} shared by every ring."""
        return _phases(self.resolution[1])

    def half_turn(self, n: int) -> np.ndarray:
        """The factors e^{i pi k / n_ang}, k < n, that turn a polynomial by half an angle step.

        With c_k -> c_k e^{i pi k / n_ang}, the turned polynomial's values on
        the rings are the original's on the midpoints of the grid's angles,
        which complete the grid with twice the angles.
        """
        return np.exp(1j * math.pi * np.arange(n) / self.resolution[1])

    @property
    def ring_weights(self) -> np.ndarray:
        """The node weight on each ring, one entry per radius; ConfigurationError off ring grids."""
        if self.radii is None:
            raise ConfigurationError(f"ring data need a ring grid centred at 0, got {self.region!r}")
        return self.weights[:: self.resolution[1]]

    def ring_sums(self, values: np.ndarray) -> np.ndarray:
        """The angular sum of node values over each ring, one entry per radius."""
        return np.reshape(values, (len(self.ring_weights), self.resolution[1])).sum(axis=1)


def normalized_area(region: Region) -> float:
    """Exact measure of the region under dA."""
    if isinstance(region, Disk):
        return region.radius**2
    if isinstance(region, Annulus):
        return region.r_out**2 - region.r_in**2
    if isinstance(region, TruncatedPlane):
        return region.r_cut**2
    if isinstance(region, Cell):
        return 4.0 * abs((np.conj(region.omega1) * region.omega2).imag) / math.pi
    raise InvalidRegionError(f"unknown region {region!r}")


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], read-only since they are shared."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _phases(n_ang: int) -> np.ndarray:
    return np.exp(1j * (2.0 * math.pi * np.arange(n_ang) / n_ang))


def _radial_rule(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for integral_a^b g(r) 2r dr."""
    x, w = _gauss_legendre(n)
    r = 0.5 * (a + b) + 0.5 * (b - a) * x
    return r, w * (0.5 * (b - a)) * 2.0 * r


def _radial_region(
    center: complex,
    a: float,
    b: float,
    resolution: tuple[int, int],
    radial_splits: Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Ring-major nodes and weights, plus the ring radii if the rings are centred at 0."""
    n_rad, n_ang = resolution
    edges = [a, *sorted(s for s in radial_splits if a < s < b), b]
    phase = _phases(n_ang)
    rules = [_radial_rule(lo, hi, n_rad) for lo, hi in zip(edges[:-1], edges[1:])]
    radii = np.concatenate([r for r, _ in rules])
    wr = np.concatenate([w for _, w in rules])
    nodes = (center + radii[:, None] * phase[None, :]).ravel()
    weights = np.repeat(wr / n_ang, n_ang)
    return nodes, weights, (radii if center == 0 else None)


def build_grid(
    region: Region,
    resolution: tuple[int, int],
    radial_splits: Sequence[float] = (),
) -> QuadratureGrid:
    """Build a product rule for the region.

    ``radial_splits`` lists interior radii at which the radial interval is
    subdivided; each sub-interval receives the full radial node count.  Grids
    that share a radial splitting are exactly additive across the split.
    """
    n_rad, n_ang = resolution
    if n_rad < 1 or n_ang < 1:
        raise InvalidRegionError(f"resolution must be >= 1, got {resolution}")

    radii = None
    if isinstance(region, Disk):
        if region.radius <= 0:
            raise InvalidRegionError(f"disk radius must be positive, got {region.radius}")
        nodes, weights, radii = _radial_region(region.center, 0.0, region.radius, resolution, radial_splits)
    elif isinstance(region, Annulus):
        if not 0 < region.r_in < region.r_out:
            raise InvalidRegionError(f"annulus needs 0 < r_in < r_out, got {region}")
        nodes, weights, radii = _radial_region(0.0, region.r_in, region.r_out, resolution, radial_splits)
    elif isinstance(region, TruncatedPlane):
        if region.r_cut <= 0:
            raise InvalidRegionError(f"r_cut must be positive, got {region.r_cut}")
        nodes, weights, radii = _radial_region(0.0, 0.0, region.r_cut, resolution, radial_splits)
    elif isinstance(region, Cell):
        area = (np.conj(region.omega1) * region.omega2).imag
        if area <= 0:
            raise InvalidRegionError("cell basis must be positively oriented with nonzero area")
        n_u, n_v = resolution
        # Midpoint offset keeps nodes off the lattice points, where integrands
        # built from |sigma| are only Lipschitz.
        u = (np.arange(n_u) + 0.5) / n_u
        v = (np.arange(n_v) + 0.5) / n_v
        uu, vv = np.meshgrid(u, v, indexing="ij")
        nodes = (2.0 * uu * region.omega1 + 2.0 * vv * region.omega2).ravel()
        cell_measure = normalized_area(region)
        weights = np.full(nodes.shape, cell_measure / (n_u * n_v))
    else:
        raise InvalidRegionError(f"unknown region {region!r}")

    return QuadratureGrid(nodes=nodes, weights=weights, region=region, resolution=tuple(resolution), radii=radii)


def integrate(grid: QuadratureGrid, integrand: Callable[[np.ndarray], np.ndarray] | np.ndarray) -> float:
    """Weighted sum of the integrand over the grid nodes.

    ``integrand`` may be a vectorized callable of the complex nodes or an array
    of precomputed node values; either way the values must have the nodes'
    shape.  numpy's pairwise summation keeps the reduction deterministic for a
    fixed grid.
    """
    values = np.asarray(integrand(grid.nodes) if callable(integrand) else integrand)
    if values.shape != grid.nodes.shape:
        raise NumericError(f"integrand values have shape {values.shape}, expected {grid.nodes.shape}")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericError(f"non-finite integrand value at node {grid.nodes[bad]}", node=grid.nodes[bad])
    return float(np.sum(np.real(values) * grid.weights))


def default_r_cut(n: int, gamma: float) -> float:
    """Truncation radius for plane integrals against exp(-2*gamma*|z|^2).

    Chosen so that degree-(n-1) polynomial growth is crushed by the Gaussian
    well below working precision at the cut.
    """
    if gamma <= 0:
        raise InvalidRegionError(f"gamma must be positive, got {gamma}")
    n = max(int(n), 1)
    return max(3.0, math.sqrt((n * math.log(10.0 * n) + 40.0) / (2.0 * gamma)))
