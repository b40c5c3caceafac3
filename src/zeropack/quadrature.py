"""Product quadrature rules on rings centred at 0, described by their radial panel edges.

All rules integrate against the normalized area measure dA = dx dy / pi, so the
total weight of a disk of radius r is r**2.  A grid is given by its panel
edges: (0, R) is the disk of radius R, (a, b) with a > 0 the annulus between
them, and every inner edge splits the radial interval so that integrands with
circular seams stay piecewise smooth.  Each panel carries Gauss-Legendre nodes
applied to the measure 2 r dr; the angular direction is equispaced, which
integrates trigonometric polynomials of degree below the angular count exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, NumericError

__all__ = [
    "QuadratureGrid",
    "build_grid",
    "equispaced_phases",
    "integrate",
]


@dataclass(frozen=True)
class QuadratureGrid:
    """Rings centred at 0 with n_ang equispaced angles, w.r.t. dA = dx dy / pi.

    edges are the sorted, distinct radial panel edges.  Ring j carries the
    n_ang nodes ``radii[j] * phases``, each of weight ``ring_weights[j]``;
    ``nodes`` and ``weights`` are derived on first use.
    """

    edges: tuple[float, ...]
    resolution: tuple[int, int]
    radii: np.ndarray
    ring_weights: np.ndarray

    @cached_property
    def nodes(self) -> np.ndarray:
        return (self.radii[:, None] * self.phases).ravel()

    @cached_property
    def weights(self) -> np.ndarray:
        return np.repeat(self.ring_weights, self.resolution[1])

    @property
    def size(self) -> int:
        """The node count, known without building the nodes."""
        return len(self.radii) * self.resolution[1]

    @property
    def phases(self) -> np.ndarray:
        """The n_ang equispaced unit phases e^{i theta} shared by every ring."""
        return equispaced_phases(self.resolution[1])

    def half_turn(self, n: int) -> np.ndarray:
        """The factors e^{i pi k / n_ang}, k < n, that turn a polynomial by half an angle step.

        With c_k -> c_k e^{i pi k / n_ang}, the turned polynomial's values on
        the rings are the original's on the midpoints of the grid's angles,
        which complete the grid with twice the angles.
        """
        return np.exp(1j * math.pi * np.arange(n) / self.resolution[1])


def equispaced_phases(n_ang: int, count: int | None = None) -> np.ndarray:
    """The unit phases e^{2 pi i a / n_ang} of the first ``count`` (by default all) of n_ang equispaced angles from 0."""
    return np.exp(1j * (2.0 * math.pi * np.arange(n_ang if count is None else count) / n_ang))


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], read-only since they are shared."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _radial_rule(edges: Sequence[float], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights for integral g(r) 2r dr, n on each panel between consecutive edges."""
    x, w = _gauss_legendre(n)
    a, b = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    r = 0.5 * (a + b) + 0.5 * (b - a) * x
    return r.ravel(), (w * (0.5 * (b - a)) * 2.0 * r).ravel()


def build_grid(edges: Sequence[float], resolution: tuple[int, int]) -> QuadratureGrid:
    """Build the product rule on the radial panels between consecutive edges.

    The edges are sorted and repeats dropped, so a split on the rim is no
    split.  Each panel receives the full radial node count; grids that share
    an edge are exactly additive across it.
    """
    n_rad, n_ang = resolution
    if n_rad < 1 or n_ang < 1:
        raise ConfigurationError(f"resolution must be >= 1, got {resolution}")
    distinct = tuple(sorted({float(e) for e in edges}))
    if len(distinct) < 2 or distinct[0] < 0.0 or not all(map(math.isfinite, distinct)):
        raise ConfigurationError(f"panel edges need two distinct finite radii from 0 up, got {tuple(edges)}")
    radii, wr = _radial_rule(distinct, n_rad)
    return QuadratureGrid(distinct, tuple(resolution), radii, wr / n_ang)


def integrate(grid: QuadratureGrid, integrand: Callable[[np.ndarray], np.ndarray] | np.ndarray) -> float:
    """Weighted sum of the integrand over the grid nodes.

    ``integrand`` may be a vectorized callable of the complex nodes or an array
    of precomputed node values; either way values of any other shape than the
    nodes' are a ConfigurationError.  Ring sums against the ring weights keep the reduction deterministic
    for a fixed grid, and an array of values needs no node array.
    """
    values = np.asarray(integrand(grid.nodes) if callable(integrand) else integrand)
    if values.shape != (grid.size,):
        raise ConfigurationError(f"integrand values have shape {values.shape}, expected {(grid.size,)}")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NumericError(f"non-finite integrand value at node {grid.nodes[bad]}", node=grid.nodes[bad])
    ring_sums = np.reshape(np.real(values), (len(grid.radii), grid.resolution[1])).sum(axis=1)
    return float(grid.ring_weights @ ring_sums)
