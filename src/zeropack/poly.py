"""Complex polynomials in the monomial basis, ring products and Gram diagonals.

The search space is the set of polynomials of degree at most n-1, stored as a
coefficient vector c[0..n-1] against the monomial basis.  Coefficients stay in
the monomial basis throughout: the radial weights used here make the Gram
matrices diagonal, so conditioning is benign and coefficients remain directly
interpretable.  On rings centred at 0, z^k = r^k e^{ik theta} factors the
Vandermonde matrix, and every polynomial-on-grid product uses that factoring.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError
from .quadrature import QuadratureGrid, equispaced_phases

__all__ = [
    "ComplexPolynomial",
    "RingVandermonde",
    "poly_eval",
    "ring_abs_sums",
    "check_angles",
    "gram_diagonal",
    "ring_vandermonde",
]


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

    def pairs(self) -> list[list[float]]:
        """The coefficients as [re, im] pairs, index = monomial power: the JSON wire format."""
        return [[float(c.real), float(c.imag)] for c in self.coeffs]

    @staticmethod
    def from_json(text: str) -> "ComplexPolynomial":
        """Inverse of ``json.dumps(p.pairs())``; text of any other shape raises ConfigurationError."""
        try:
            pairs = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"polynomial file is not valid JSON: {exc}") from exc
        if not isinstance(pairs, list):
            raise ConfigurationError(f"expected a JSON array of [re, im] pairs, got a {type(pairs).__name__}")
        for k, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair)):
                raise ConfigurationError(f"coefficient {k} must be a pair of numbers [re, im], got {json.dumps(pair)}")
        return ComplexPolynomial(np.array([complex(re, im) for re, im in pairs]))


def poly_eval(p: ComplexPolynomial, z):
    """Horner evaluation of p at arbitrary points z; ``ring_vandermonde(grid, n) @ c`` serves grid nodes."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in p.coeffs[::-1]:
        acc = acc * z + c
    return acc if acc.ndim else complex(acc)


def vandermonde(z: np.ndarray, n: int) -> np.ndarray:
    """Matrix V[i, k] = z_i**k for k < n."""
    return np.asarray(z, dtype=complex)[:, None] ** np.arange(n)[None, :]


@dataclass(frozen=True)
class RingVandermonde:
    """V[i, k] = z_i**k on a ring grid, as radial[j, k] * angular[a, k] for node i = j*n_ang + a.

    radial = vandermonde(radii, n) and angular = vandermonde(phases, n); exact for any n.
    Both products run in the factors' precision: with complex64 factors, c
    is rounded to complex64 first.
    """

    radial: np.ndarray
    angular: np.ndarray

    def __matmul__(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """V @ c: the polynomial with coefficients c at every node, written into ``out`` if given."""
        if out is not None:
            out = out.reshape(len(self.radial), len(self.angular))
        c = np.asarray(c, dtype=self.radial.dtype)
        return np.matmul(self.radial * c, self.angular.T, out=out).ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """V^H y, for node values y.

        It multiplies by ``radial`` without conjugating it, which is right
        only because the radii, and so r_j^k, are real.
        """
        y = np.reshape(y, (len(self.radial), len(self.angular)))
        return np.sum(self.radial * (y @ self.angular.conj()), axis=0)


# Nodes per block of ring_abs_sums: its temporaries stay near 0.8 MB
# whatever the grid.  On 768 rings x 384 angles with n = 4 (2 vCPU, BLAS at
# one thread), blocks of 2^15 nodes took 1.04 ms against 1.15-1.19 ms for one
# product of all rings, and blocks of 2^11 took 1.84 ms.
RING_BLOCK = 1 << 15


def ring_abs_sums(rows: np.ndarray, n_ang: int, p: float) -> np.ndarray:
    """For each ring j, the sum over n_ang equispaced angles theta_a of |sum_k rows[j, k] e^{ik theta_a}|^p.

    rows[j] holds a polynomial's Fourier coefficients on ring j, such as
    ``vandermonde(radii, n) * c``, and the angles are a grid's,
    theta_a = 2 pi a / n_ang from 0.  Only the modes the rows carry, the
    columns not zero on every ring, are evaluated.  With d the greatest
    common divisor of n_ang and the gaps between those modes, the modulus on
    a ring is 2 pi/d-periodic in the angle and the angles are invariant
    under that turn, so each sum is d times the one over the first n_ang/d
    angles: a monomial (or rows of zeros) takes one angle, and a member of
    the class z^j g(z^m), m dividing n_ang, n_ang/m.  The product, modulus and power are formed
    max(1, RING_BLOCK // (n_ang/d)) rings at a time, so no node-sized array
    is held.
    """
    modes = np.flatnonzero(np.any(rows != 0, axis=0))
    period = math.gcd(n_ang, *np.diff(modes).tolist())
    angular = equispaced_phases(n_ang, n_ang // period)[:, None] ** modes
    rows = rows[:, modes]
    step = max(1, RING_BLOCK // len(angular))
    sums = np.empty(len(rows))
    for j in range(0, len(rows), step):
        block = np.abs(rows[j : j + step] @ angular.T)
        if p != 1.0:
            block **= p
        sums[j : j + step] = block.sum(axis=1)
    sums *= period
    return sums


def ring_vandermonde(grid: QuadratureGrid, n: int) -> RingVandermonde:
    """The factored Vandermonde matrix of the grid's nodes for k < n."""
    return RingVandermonde(vandermonde(grid.radii, n), vandermonde(grid.phases, n))


def check_angles(grid: QuadratureGrid, n: int) -> None:
    """Refuse n coefficients on fewer angles per ring: the equispaced angles alias mode k + n_ang onto k."""
    n_ang = grid.resolution[1]
    if n > n_ang:
        raise ConfigurationError(f"degree bound {n} needs at least {n} angles per ring; the grid has {n_ang}")


def gram_diagonal(grid: QuadratureGrid, ring_weight: np.ndarray, n: int) -> np.ndarray:
    """Quadrature Gram diagonal sum_i w_i |z_i|^(2k), k < n, for the node weight w_i = ring_weight[j] on ring j.

    On rings centred at 0 with n_ang equispaced angles, the rule sums the
    off-diagonal factor e^{i(j-k)theta} to zero for 0 < |j-k| < n_ang, so for
    n <= n_ang the weighted normal equations are exactly this diagonal.
    """
    if n < 1:
        raise ConfigurationError(f"degree bound must be >= 1, got {n}")
    check_angles(grid, n)
    diagonal = (grid.resolution[1] * ring_weight) @ grid.radii[:, None] ** (2 * np.arange(n))
    if not np.all(diagonal > 0.0):
        raise NumericError(f"Gram diagonal underflows at degree bound {n}; lower the degree")
    return diagonal

