"""Complex polynomials in the monomial basis and weighted Gram matrices.

The search space is the set of polynomials of degree at most n-1, stored as a
coefficient vector c[0..n-1] against the monomial basis.  Coefficients stay in
the monomial basis throughout: the radial weights used here make the Gram
matrices diagonal, so conditioning is benign and coefficients remain directly
interpretable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, ConfigurationError
from .quadrature import Annulus, Disk, QuadratureGrid, TruncatedPlane

__all__ = [
    "ComplexPolynomial",
    "WeightedGram",
    "poly_eval",
    "dilate",
    "gram",
    "gram_diagonal",
    "weight_values",
]

HYPERBOLIC = "hyperbolic"
PLANAR = "planar"


@dataclass(frozen=True)
class ComplexPolynomial:
    """Coefficient vector c0..c_{n-1}; the polynomial sum_k c_k z^k."""

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=complex))

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", c)

    def degree(self) -> float:
        """Index of the last nonzero coefficient; -inf for the zero polynomial."""
        nz = np.flatnonzero(np.abs(self.coeffs) > 0)
        return float("-inf") if nz.size == 0 else int(nz[-1])

    def __call__(self, z):
        return poly_eval(self, z)

    def to_json(self) -> str:
        """JSON array of [re, im] pairs, index = monomial power."""
        return json.dumps([[float(c.real), float(c.imag)] for c in self.coeffs])

    @staticmethod
    def from_json(text: str) -> "ComplexPolynomial":
        pairs = json.loads(text)
        return ComplexPolynomial(np.array([complex(re, im) for re, im in pairs]))


def poly_eval(p: ComplexPolynomial, z):
    """Horner evaluation of p at z (scalar or array)."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in p.coeffs[::-1]:
        acc = acc * z + c
    return acc if acc.ndim else complex(acc)


def dilate(p: ComplexPolynomial, alpha: complex) -> ComplexPolynomial:
    """Return q with q(z) = p(alpha * z), i.e. c_k -> c_k * alpha**k."""
    k = np.arange(len(p.coeffs))
    return ComplexPolynomial(p.coeffs * np.asarray(alpha, dtype=complex) ** k)


def weight_values(weight: str, z: np.ndarray, gamma: float | None = None) -> np.ndarray:
    """The weight e^{-phi} at the points z.

    "hyperbolic": 1 - |z|^2 on the unit disk (0 outside, where phi = +inf);
    "planar": e^{-2*gamma*|z|^2} on the plane.
    """
    a2 = np.abs(np.asarray(z, dtype=complex)) ** 2
    if weight == HYPERBOLIC:
        return np.maximum(1.0 - a2, 0.0)
    if weight == PLANAR:
        if gamma is None or gamma <= 0:
            raise ConfigurationError("planar weight requires gamma > 0")
        return np.exp(-2.0 * gamma * a2)
    raise ConfigurationError(f"unknown weight tag {weight!r}")


@dataclass(frozen=True)
class WeightedGram:
    """Weighted monomial inner products <z^j, z^k>, diagonal on ring grids."""

    weight: str
    gamma: float | None
    n: int
    diagonal: np.ndarray

    def norm_squared(self, p: ComplexPolynomial) -> float:
        c = np.zeros(self.n, dtype=complex)
        c[: len(p.coeffs)] = p.coeffs[: self.n]
        return float(np.sum(self.diagonal * np.abs(c) ** 2))

    def orthonormal_scales(self) -> np.ndarray:
        """1/sqrt of the diagonal; rescales monomials to unit weighted norm."""
        return 1.0 / np.sqrt(self.diagonal)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve G c = rhs for a coefficient vector rhs."""
        return rhs / self.diagonal


def _check_weight_region(weight: str, grid: QuadratureGrid) -> None:
    region = grid.region
    if weight == HYPERBOLIC:
        ok = isinstance(region, Disk) and region.radius <= 1.0 + 1e-12
        ok = ok or (isinstance(region, Annulus) and region.r_out <= 1.0 + 1e-12)
        if not ok:
            raise ConfigurationError("hyperbolic weight needs a grid inside the unit disk")


def vandermonde(z: np.ndarray, n: int) -> np.ndarray:
    """Matrix V[i, k] = z_i**k for k < n."""
    return np.asarray(z, dtype=complex)[:, None] ** np.arange(n)[None, :]


def gram_diagonal(grid: QuadratureGrid, node_weight: np.ndarray, n: int) -> np.ndarray:
    """Quadrature Gram diagonal sum_i w_i |z_i|^(2k), k < n, for a radial node weight w.

    On rings centred at 0 with n_ang equispaced angles, the rule sums the
    off-diagonal factor e^{i(j-k)theta} to zero for 0 < |j-k| < n_ang, so for
    n <= n_ang the weighted normal equations are exactly this diagonal.
    """
    if n < 1:
        raise ConfigurationError(f"degree bound must be >= 1, got {n}")
    region = grid.region
    if not (isinstance(region, (Annulus, TruncatedPlane)) or (isinstance(region, Disk) and region.center == 0)):
        raise ConfigurationError(f"weighted solves need a ring grid centred at 0, got {region!r}")
    n_ang = grid.resolution[1]
    if n > n_ang:
        raise ConfigurationError(f"degree bound {n} needs at least {n} angles per ring; the grid has {n_ang}")
    diagonal = node_weight @ np.abs(grid.nodes)[:, None] ** (2 * np.arange(n))
    if not np.all(diagonal > 0.0):
        raise ConditioningError(f"Gram diagonal underflows at degree bound {n}; lower the degree")
    return diagonal


def gram(weight: str, n: int, grid: QuadratureGrid, gamma: float | None = None) -> WeightedGram:
    """Weighted monomial Gram matrix G[j, k] = integral z^j conj(z)^k e^{-phi} dA."""
    wv = weight_values(weight, grid.nodes, gamma)
    _check_weight_region(weight, grid)
    return WeightedGram(weight=weight, gamma=gamma, n=n, diagonal=gram_diagonal(grid, grid.weights * wv, n))
