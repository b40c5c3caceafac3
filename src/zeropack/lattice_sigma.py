"""Weierstrass sigma machinery and quasiperiodic lattice candidates.

Works with the lattice 2*omega1*Z + 2*omega2*Z, omega1 real positive and
omega2 = omega1*exp(i*theta).  The sigma function is evaluated through the
first Jacobi theta function, whose nome q = exp(i*pi*tau) has |q| bounded by
exp(-pi*sin(theta)), so the series converges geometrically for every lattice
shape of interest.  The quasi-period invariants eta1, eta2 are each computed
from their own theta series (the second via the generator swap
(omega1, omega2) -> (omega2, -omega1)), which keeps the Legendre relation a
genuine cross-check instead of a definition.

Candidates f0 = exp(nu*z^2)*sigma(z) tuned so that |f0|^beta * exp(-|z|^2) is
doubly periodic: requiring the quasi-period factors to cancel forces
beta*(4*nu*omega_j + 2*eta_j) = 4*conj(omega_j) for both generators, and the
two resulting nu values agree exactly when the cell area satisfies
Im(conj(omega1)*omega2) = pi*beta/8, which is how lattice_normalize picks
omega1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError

__all__ = [
    "Lattice",
    "QuasiperiodicCandidate",
    "lattice_normalize",
    "sigma",
    "abrikosov_candidate",
    "cell_average_density",
    "theta_scan",
    "scan_csv",
]

# Points of the periodicity check that every cell average runs
# (QuasiperiodicCandidate.periodicity_residual says why a few suffice).
PERIODICITY_POINTS = 8


def _theta_series(tau: complex, im_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_n = (-1)^n e^{i pi tau (n+1/2)^2} and frequencies 2n+1 of theta_1.

    theta_1(v | tau) = 2 * sum c_n sin((2n+1) v), with enough terms for 1e-18
    relative truncation wherever |Im v| <= im_max.
    """
    decay = -math.pi * tau.imag
    limit = math.log(1e-18)
    terms = next((n + 1 for n in range(1, 200) if n * (n + 1) * decay + 2.0 * n * im_max < limit), 200)
    n = np.arange(terms)
    return (-1.0) ** n * np.exp(1j * math.pi * tau * (n + 0.5) ** 2), 2 * n + 1


def _theta1(v: np.ndarray, tau: complex) -> np.ndarray:
    """theta_1(v | tau) at arbitrary points v."""
    v = np.asarray(v, dtype=complex)
    coeff, k = _theta_series(tau, float(np.max(np.abs(v.imag))) if v.size else 0.0)
    return 2.0 * np.tensordot(coeff, np.sin(np.multiply.outer(k, v)), axes=(0, 0))


def _theta1_derivatives0(tau: complex) -> tuple[complex, complex]:
    """theta_1'(0 | tau) and theta_1'''(0 | tau)."""
    coeff, k = _theta_series(tau, 0.0)
    return 2.0 * complex(np.sum(coeff * k)), -2.0 * complex(np.sum(coeff * k**3))


def _eta_for(w1: complex, w2: complex) -> complex:
    """Quasi-period invariant eta = zeta(w1) for the basis (w1, w2)."""
    prime, ppp = _theta1_derivatives0(w2 / w1)
    return -(math.pi**2) / (12.0 * w1) * ppp / prime


@dataclass(frozen=True)
class Lattice:
    """Half-periods, quasi-period invariants and shape data of one positively oriented lattice."""

    omega1: complex
    omega2: complex
    theta: float
    eta1: complex
    eta2: complex
    tau: complex

    def __post_init__(self) -> None:
        if not ((np.conj(self.omega1) * self.omega2).imag > 0 and self.tau.imag > 0):
            raise ConfigurationError(f"basis must be positively oriented with nonzero area, got tau = {self.tau}")


def lattice_normalize(theta: float, beta: float) -> Lattice:
    """Lattice with omega2 = omega1*e^{i*theta}, sized for the exponent beta.

    omega1 > 0 is fixed by the cell-area condition Im(conj(omega1)*omega2)
    = pi*beta/8 (Euclidean cell area pi*beta/2), which is exactly the
    solvability condition for the candidate exponent nu.
    """
    if not 0.0 < theta < math.pi:
        raise ConfigurationError(f"theta must lie in (0, pi), got {theta}")
    if not 0.0 < beta < math.inf:
        raise ConfigurationError(f"beta must be positive and finite, got {beta}")
    w1 = complex(math.sqrt(math.pi * beta / (8.0 * math.sin(theta))))
    w2 = w1 * complex(math.cos(theta), math.sin(theta))
    eta1 = _eta_for(w1, w2)
    # Independent series for eta2 through the swapped basis (omega2, -omega1).
    eta2 = _eta_for(w2, -w1)
    legendre = eta1 * w2 - eta2 * w1
    if abs(legendre - 1j * math.pi / 2.0) > 1e-10:
        # A valid angle: the theta series lost their digits to cancellation.
        raise NumericError(f"Legendre relation violated at theta = {theta}: {legendre}")
    return Lattice(omega1=w1, omega2=w2, theta=theta, eta1=eta1, eta2=eta2, tau=w2 / w1)


def _sigma_prefactor(lattice: Lattice) -> complex:
    """sigma's constant 2 omega1 / (pi theta_1'(0)), which makes sigma'(0) = 1."""
    return 2.0 * lattice.omega1 / (math.pi * _theta1_derivatives0(lattice.tau)[0])


def sigma(z, lattice: Lattice):
    """Weierstrass sigma for the lattice 2*omega1*Z + 2*omega2*Z.

    sigma(z) = (2*omega1/(pi*theta1'(0))) * e^{eta1 z^2/(2 omega1)}
               * theta1(pi z/(2 omega1) | tau); odd, sigma'(0) = 1, simple
    zeros exactly on the lattice.
    """
    z = np.asarray(z, dtype=complex)
    w1 = lattice.omega1
    v = math.pi * z / (2.0 * w1)
    out = _sigma_prefactor(lattice) * np.exp(lattice.eta1 * z**2 / (2.0 * w1)) * _theta1(v, lattice.tau)
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class QuasiperiodicCandidate:
    """Trial minimizer f0 = e^{nu z^2} sigma(z) with doubly periodic envelope."""

    lattice: Lattice
    nu: complex
    beta: float

    def f0_values(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return np.exp(self.nu * z**2) * sigma(z, self.lattice)

    def _modulus_factors(self) -> tuple[complex, complex]:
        """(pref, c) with f0(z) = pref * e^{c z^2} * theta_1(pi z / (2 omega1) | tau).

        pref is sigma's constant, and c = nu + eta1/(2 omega1)
        joins the Gaussians of e^{nu z^2} and of sigma, either of which can
        overflow where their product does not.
        """
        lat = self.lattice
        return _sigma_prefactor(lat), self.nu + lat.eta1 / (2.0 * lat.omega1)

    def envelope(self, z) -> np.ndarray:
        """g(z) = |f0(z)|^beta * e^{-|z|^2}; doubly periodic by design.

        Formed as (|pref theta_1| exp(Re(c z^2) - |z|^2/beta))^beta, with
        one real exponent, so that neither factor is raised to beta alone (at
        theta = pi/3, beta = 60, |pref theta_1|^beta overflows where g does not).
        """
        z = np.asarray(z, dtype=complex)
        pref, c = self._modulus_factors()
        theta = _theta1(math.pi * z / (2.0 * self.lattice.omega1), self.lattice.tau)
        return (np.abs(pref * theta) * np.exp((c * z**2).real - np.abs(z) ** 2 / self.beta)) ** self.beta

    def periodicity_residual(self, n_points: int = PERIODICITY_POINTS) -> float:
        """max |g(z + 2*omega_j) - g(z)| / max g(z) over random cell points z; NumericError if not finite.

        A few points are enough (PERIODICITY_POINTS, 8, by default).  By
        sigma's quasi-periodicity sigma(z + 2 omega_j) = -e^{2 eta_j (z +
        omega_j)} sigma(z) (DLMF 23.2), g(z + 2 omega_j) / g(z) = e^{L_j(z)}
        with L_j(z) = beta Re((2 eta_j + 4 nu omega_j)(z + omega_j))
        - 4 Re(conj(omega_j) z) - 4 |omega_j|^2, which is real-affine in z:
        three non-collinear points fix it, and a nonzero L_j shows at almost
        every point.  With nu off by a real 1e-6 to 1e-9, at theta from 0.1
        to 3.0, 8 points read 0.88 to 1.05 times the 1000-point residual.
        z and both shifts go through one envelope call.
        """
        rng = np.random.default_rng(0)
        u = rng.uniform(0.0, 1.0, n_points)
        v = rng.uniform(0.0, 1.0, n_points)
        lat = self.lattice
        z = 2.0 * u * lat.omega1 + 2.0 * v * lat.omega2
        # Rows: g(z), g(z + 2 omega1), g(z + 2 omega2).  An overflow or inf - inf
        # here leaves a non-finite residual, refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.envelope(z + np.array([0.0, 2.0 * lat.omega1, 2.0 * lat.omega2])[:, None])
            res = float(np.max(np.abs(g[1:] - g[0]))) / max(float(np.max(g[0])), 1e-300)
        if not math.isfinite(res):
            raise NumericError(f"envelope periodicity residual is not finite at theta = {lat.theta}")
        return res


def abrikosov_candidate(lattice: Lattice, beta: float) -> QuasiperiodicCandidate:
    """Candidate with nu solving beta*(4*nu*omega_j + 2*eta_j) = 4*conj(omega_j).

    The two generator equations must give the same nu; they do exactly when the
    lattice is normalized for this beta, so a disagreement is reported as a
    normalization error rather than silently averaged away.
    """
    if not 0.0 < beta < math.inf:
        raise ConfigurationError(f"beta must be positive and finite, got {beta}")
    nus = [
        (2.0 * np.conj(w) / beta - eta) / (2.0 * w)
        for w, eta in ((lattice.omega1, lattice.eta1), (lattice.omega2, lattice.eta2))
    ]
    if abs(nus[0] - nus[1]) > 1e-8 * max(1.0, abs(nus[0])):
        raise ConfigurationError(
            f"lattice is not normalized for beta = {beta}: nu estimates {nus[0]} vs {nus[1]}"
        )
    return QuasiperiodicCandidate(lattice=lattice, nu=complex(0.5 * (nus[0] + nus[1])), beta=beta)


def _cell_means(cand: QuasiperiodicCandidate, resolution: tuple[int, int]) -> tuple[float, float]:
    """The cell means of |f0|^beta e^{-|z|^2} and of its square, by the midpoint rule.

    That is the candidate's envelope g (QuasiperiodicCandidate.envelope).
    They equal large-disk averages only for a doubly periodic g, so a
    periodicity residual above 1e-8 is a ConfigurationError; it is checked
    at PERIODICITY_POINTS points.  The nodes are z = 2u omega1 + 2v omega2
    at u = (i + 1/2)/n_u, v = (j + 1/2)/n_v, off the lattice points where
    |sigma| is only Lipschitz.  A node's theta argument is pi u + pi tau v, and
    sin(k(a + b)) = sin(ka) cos(kb) + cos(ka) sin(kb), so pref * theta_1
    on the grid is one (n_u x 2T) @ (2T x n_v) product of per-axis sines and
    cosines.  The column factors come from one complex exponential
    e = e^{i kb}, as cos(kb) = (e + 1/e)/2 and sin(kb) = (e - 1/e)/(2i),
    written into one preallocated (2T x n_v) array; complex cos and sin
    each cost more than the exponential.  For a periodic g,
    beta Re(c z^2) - |z|^2 is a v^2 alone (a = -beta pi Im tau), so
    e^{a v^2 / beta} scales the product's columns and
    |f0|^beta e^{-|z|^2} = |product|^beta.

    Only the first ceil(n_u / 2) rows of the grid are formed.  g is even
    (sigma is odd, both Gaussians are even) and doubly periodic, so the node
    of row n_u - 1 - i and column n_v - 1 - j, 2 omega1 + 2 omega2 - z, has
    the value of node (i, j): each row stands for its mirror too and counts
    twice, except the middle row of an odd n_u, which is its own mirror.
    The sines of the rows are real, so the product is taken on the real
    view of the complex columns.
    """
    n_u, n_v = resolution
    residual = cand.periodicity_residual(n_points=PERIODICITY_POINTS)
    if residual > 1e-8:
        raise ConfigurationError(
            f"candidate envelope is not doubly periodic (residual {residual:.2e}); "
            "rebuild the lattice with lattice_normalize for this beta"
        )
    lat = cand.lattice
    w1, w2 = lat.omega1, lat.omega2
    u, v = (np.arange((n_u + 1) // 2) + 0.5) / n_u, (np.arange(n_v) + 0.5) / n_v
    weight = np.full(len(u), 2.0)
    weight[-1] -= n_u % 2
    pref, c = cand._modulus_factors()
    b = math.pi * lat.tau * v
    coeff, k = _theta_series(lat.tau, float(np.max(np.abs(b.imag))))
    ka = np.multiply.outer(math.pi * u, k)
    a = 4.0 * (cand.beta * (c * w2 * w2).real - abs(w2) ** 2)
    # Rows 2 pref c_n cos(kb) = pref c_n (e + 1/e), then 2 pref c_n sin(kb) =
    # -i pref c_n (e - 1/e), with e = e^{i kb}; the sine rows hold 1/e first.
    terms = len(k)
    e = np.exp(np.multiply.outer(k, 1j * b))
    right = np.empty((2 * terms, n_v), dtype=complex)
    np.divide(1.0, e, out=right[terms:])
    np.add(e, right[terms:], out=right[:terms])
    np.subtract(e, right[terms:], out=right[terms:])
    row = (pref * coeff)[:, None]
    right[:terms] *= row
    right[terms:] *= -1j * row
    right *= np.exp(a * v**2 / cand.beta)
    # An overflow here leaves a non-finite mean, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.abs((np.concatenate([np.sin(ka), np.cos(ka)], axis=1) @ right.view(np.float64)).view(complex))
        if cand.beta != 1.0:
            g **= cand.beta
        m1 = float(weight @ g.sum(axis=1)) / (n_u * n_v)
        m2 = float(weight @ np.einsum("ij,ij->i", g, g)) / (n_u * n_v)
        # Every term is >= 0, so a sum is finite only if each of its terms is.
        if not (math.isfinite(m1) and math.isfinite(m2)):
            bad = np.argwhere(~np.isfinite(g * g))
            if not len(bad):
                raise NumericError("the cell means overflow, though every envelope value and square is finite")
            i, j = bad[0]
            node = complex(2.0 * u[i] * w1 + 2.0 * v[j] * w2)
            raise NumericError(f"non-finite cell envelope value or square at node {node}", node=node)
    return m1, m2


def cell_average_density(
    cand: QuasiperiodicCandidate,
    resolution: tuple[int, int] = (256, 256),
) -> float:
    """The cell average of (s*|f0|^beta*e^{-|z|^2} - 1)^2 w.r.t. normalized area.

    Equals the large-disk limit of the disk-averaged exponent-family density by
    periodicity.  The multiplicative normalization s is its closed-form
    optimum m1/m2 (_cell_means), so the value is 1 - s*m1, mirroring the
    stationary-scaling form of the density.
    """
    if resolution[0] < 16 or resolution[1] < 16:
        raise ConfigurationError(
            f"cell resolution {resolution} too coarse; use at least 16x16 (128x128 or more near pi/3)"
        )
    m1, m2 = _cell_means(cand, resolution)
    s = m1 / m2
    return 1.0 - 2.0 * s * m1 + s * s * m2


def theta_scan(
    theta_min: float,
    theta_max: float,
    steps: int,
    beta: float = 1.0,
    resolution: tuple[int, int] = (128, 128),
    mapper: Callable = map,
) -> list[tuple[float, float]]:
    """Scaled cell-average density on an equispaced grid of lattice angles.

    ``mapper(fn, angles)`` scores the angles, in order; a caller may pass one
    that runs them concurrently.
    """
    if steps < 2:
        raise ConfigurationError(f"steps must be >= 2, got {steps}")
    if not 0.0 < theta_min < theta_max < math.pi:
        raise ConfigurationError(f"scan interval must sit inside (0, pi), got [{theta_min}, {theta_max}]")

    def row(theta: float) -> tuple[float, float]:
        cand = abrikosov_candidate(lattice_normalize(theta, beta), beta)
        return theta, cell_average_density(cand, resolution)

    return list(mapper(row, [theta_min + i * (theta_max - theta_min) / (steps - 1) for i in range(steps)]))


def scan_csv(rows: list[tuple[float, float]]) -> str:
    """CSV with header theta,value, one row per grid point, 12 significant digits."""
    lines = ["theta,value"] + [f"{t:.12g},{v:.12g}" for t, v in rows]
    return "\n".join(lines) + "\n"
