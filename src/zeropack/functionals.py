"""Density functionals and their diagnostics.

Two geometries share one code path.  In the hyperbolic geometry the target is
the metric density 1/(1-|z|^2) on a disk of radius r < 1; in the planar (Fock)
geometry it is the Gaussian envelope exp(-gamma*|z|^2) on the unit disk.  Both
densities measure the squared mismatch between a weighted |f| and the indicator
of the core region, the starred variants extending the integral past the core
so that mass left outside is punished in L^2.  FunctionalSpec is the geometry
object: every rule that differs between the two (core radius and mass,
envelope, dbar weight and its Laplacian, obstacle, weight support, default
widths) is one of its properties or methods.

Conventions fixed here:

* Points on the indicator boundary count as outside; quadrature nodes never
  land exactly on region boundaries, so the convention is inert but fixed.
* Planar functionals are evaluated in the gamma-form (unit disk, envelope
  exp(-gamma*|z|^2)); the R-form corresponds to gamma = R**2.
* Hyperbolic values are normalized by the grid's own hyperbolic area of the
  core disk, whose closed form is log(1/(1-r^2)); this makes density(0) == 1
  exact rather than merely accurate.
* The exponent family replaces |f| by |f|**beta (planar only) and keeps the
  unit normalizer, so the zero polynomial again scores 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any

import numpy as np

from .errors import ConfigurationError, NumericError
from .poly import ComplexPolynomial, check_angles, ring_abs_sums, ring_vandermonde, vandermonde
from .quadrature import QuadratureGrid, build_grid

__all__ = [
    "FunctionalSpec",
    "DensityReport",
    "DEFAULT_RESOLUTION",
    "default_grid",
    "density",
    "boundary_mass",
    "gradient",
    "quadratic_parts",
    "quadratic_weights",
]

DEFAULT_RESOLUTION = (128, 128)
HYPERBOLIC = "hyperbolic"
PLANAR = "planar"
# The one floor under |f| wherever a weight, a step or a derivative divides
# by it: gradient here, and the IRLS step and the Newton derivatives of
# optimize.  It is absolute, so no step reduces the grid for its largest
# |f|; a floor relative to that maximum also clipped every core node of a
# starred grid, whose largest |f| sits at the support's edge.  A term that
# carries f/|f| is 0 at f = 0 whatever the floor.  It is a normal float32,
# so the single-precision burn-in keeps it (1e-300 rounds to 0 there, and
# the step divides by zero), and 1/MODULUS_FLOOR**3, which the Hessian
# forms, is finite in double.
MODULUS_FLOOR = 1e-30


@dataclass(frozen=True)
class FunctionalSpec:
    """One geometry plus the parameters pinning one density functional.

    param is the core radius r in (0, 1) for the hyperbolic geometry and the
    Gaussian exponent gamma > 0 for the planar one; beta is the modulus
    exponent of the planar family.  Every rule that differs between the
    geometries is a property or method of the spec; no other module tests the
    geometry tag.
    """

    geometry: str
    param: float
    starred: bool = False
    beta: float = 1.0

    def __post_init__(self):
        if self.geometry not in (HYPERBOLIC, PLANAR):
            raise ConfigurationError(f"unknown geometry {self.geometry!r}")
        if self.geometry == HYPERBOLIC:
            if not 0.0 < self.param < 1.0:
                raise ConfigurationError(f"hyperbolic radius must lie in (0,1), got {self.param}")
            if self.beta != 1.0:
                raise ConfigurationError("the exponent family is planar only")
        elif not 0.0 < self.param < math.inf:
            raise ConfigurationError(f"gamma must be positive and finite, got {self.param}")
        if not 0.0 < self.beta < math.inf:
            raise ConfigurationError(f"beta must be positive and finite, got {self.beta}")

    @property
    def indicator_radius(self) -> float:
        """Radius R of the core region, which is also the cut-off radius: r, or 1 planar."""
        return self.param if self.geometry == HYPERBOLIC else 1.0

    @property
    def log_normalizer(self) -> float:
        """Closed form of the hyperbolic core area, log(1/(1-r^2)); 1 for planar."""
        if self.geometry == HYPERBOLIC:
            return math.log(1.0 / (1.0 - self.param**2))
        return 1.0

    @property
    def core_mass(self) -> float:
        """Mass of the Laplacian factor over the core: r^2/(1-r^2), or 2*gamma planar."""
        if self.geometry == HYPERBOLIC:
            return self.param**2 / (1.0 - self.param**2)
        return 2.0 * self.param

    @property
    def default_delta(self) -> float:
        """Boundary-layer width pairing: 1-r, or gamma^{-1/2} capped at 1 planar.

        The one width of the layer A((1-delta)R, R): boundary_mass measures f
        there and equality_gap's cut-off ramps there.  The cap keeps the
        planar pairing usable for gamma <= 1, where the layer is the core.
        """
        if self.geometry == HYPERBOLIC:
            return 1.0 - self.param
        return min(1.0, self.param**-0.5)

    @property
    def symmetry(self) -> int:
        """Rotation order m of the search's restart classes z^j g(z^m): 3 planar, 1 hyperbolic.

        The planar density is linked to Abrikosov's triangular vortex lattice,
        so most planar restarts search 3-fold classes.  That allocates the
        restarts; it is not a proven property of the minimizers.  With 12
        restarts at seeds 0-3, the gamma = 8, n = 16 winners are 3-fold (those
        from the full space only to within 1e-8 of the largest coefficient),
        the gamma = 4, n = 18 winners have no rotation order, and the
        hyperbolic r = 0.9, n = 10 winner is not 3-fold: all ten of its
        coefficients are nonzero.
        """
        return 3 if self.geometry == PLANAR else 1

    @property
    def default_resolution(self) -> tuple[int, int]:
        """DEFAULT_RESOLUTION with the angle count rounded up to a multiple of the symmetry order."""
        n_rad, n_ang = DEFAULT_RESOLUTION
        return n_rad, -(-n_ang // self.symmetry) * self.symmetry

    @property
    def reports_sigma_sq(self) -> bool:
        """Whether a gap run reports the variance estimate 1 - rho* (hyperbolic only)."""
        return self.geometry == HYPERBOLIC

    def support(self, n: int) -> float:
        """Radius of the disk carrying the weight for degree bound n.

        1 (hyperbolic), or the radius past which the plane is truncated
        (planar): degree-(n-1) polynomial growth against exp(-2*gamma*|z|^2)
        is crushed well below working precision there.
        """
        if self.geometry == HYPERBOLIC:
            return 1.0
        n = max(int(n), 1)
        return max(3.0, math.sqrt((n * math.log(10.0 * n) + 40.0) / (2.0 * self.param)))

    def envelope(self, absz):
        """Weight w and measure density m (w.r.t. dA) at |z|.

        Hyperbolic: w = 1 - |z|^2, m = 1 / w.  Planar: w = exp(-gamma*|z|^2),
        m = 1.
        """
        if self.geometry == HYPERBOLIC:
            w = 1.0 - absz**2
            return w, 1.0 / w
        return np.exp(-self.param * absz**2), np.ones_like(absz)

    def dbar_weight(self, absz):
        """The dbar weight e^{-phi} = w^2 m of the envelope at |z|.

        That is 1 - |z|^2 (hyperbolic; negative off the unit disk, where the
        weight has no support) or exp(-2*gamma*|z|^2) (planar).
        """
        w, m = self.envelope(absz)
        m *= w
        m *= w
        return m

    def laplacian(self, absz):
        """The factor dd-bar phi of the dbar bound: (1-|z|^2)^-2, or 2*gamma planar."""
        if self.geometry == HYPERBOLIC:
            return (1.0 - absz**2) ** -2
        return 2.0 * self.param

    def obstacle(self, z):
        """Minimal C^{1,1} subharmonic extension of phi = -log(dbar weight) off the core.

        phi on the core D(0, R); outside, the harmonic c*log(|z|^2/R^2) + phi(R)
        whose flux c is the core mass, so values and normal derivatives match
        on the seam.  Planar: 2*gamma*|z|^2, then 2*gamma*log|z|^2 + 2*gamma.
        Hyperbolic: log(1/(1-|z|^2)), then (r^2/(1-r^2))*log(|z|^2/r^2) +
        log(1/(1-r^2)).
        """
        absz = np.abs(np.asarray(z, dtype=complex))
        R = self.indicator_radius
        phi = -np.log(self.dbar_weight(np.minimum(absz, R)))
        tail = 2.0 * self.core_mass * np.log(np.maximum(absz, 1e-300) / R) - math.log(self.dbar_weight(R))
        out = np.where(absz < R, phi, tail)
        return out if out.ndim else float(out)


def default_grid(
    spec: FunctionalSpec,
    resolution: tuple[int, int] | None = None,
    degree: int | None = None,
) -> QuadratureGrid:
    """Grid matched to the functional's integration domain, at spec.default_resolution by default.

    Unstarred grids are the core disk.  Starred grids cover the weight's
    support for the degree bound (by default ten above the core mass), split
    radially at the indicator boundary so that the discontinuous indicator
    never sits inside a smooth radial panel; the starred/unstarred identity
    then holds to rounding rather than quadrature error.
    """
    if resolution is None:
        resolution = spec.default_resolution
    if not spec.starred:
        return build_grid((0.0, spec.indicator_radius), resolution)
    n = degree if degree is not None else math.ceil(spec.core_mass) + 10
    return build_grid((0.0, spec.indicator_radius, spec.support(n)), resolution)


def _validate_grid(spec: FunctionalSpec, grid: QuadratureGrid) -> None:
    """Refuse a grid that is not a disk covering the density's domain.

    Hyperbolic: radius in [r, 1], or exactly 1 starred.  Planar: radius >= 1,
    and past the core, > 1, starred.
    """
    if grid.edges[0] != 0.0:
        raise ConfigurationError(f"{spec.geometry} densities need a disk grid, got panel edges {grid.edges}")
    radius = grid.edges[-1]
    if spec.geometry == HYPERBOLIC:
        needed = 1.0 if spec.starred else spec.param
        if radius < needed - 1e-12:
            raise ConfigurationError(f"grid radius {radius} does not cover the required disk of radius {needed}")
        if radius > 1.0 + 1e-12:
            raise ConfigurationError("hyperbolic grids must stay inside the unit disk")
    elif radius < 1.0 - 1e-12:
        raise ConfigurationError(f"grid radius {radius} does not cover the unit disk")
    elif spec.starred and radius <= 1.0:
        raise ConfigurationError(f"starred planar grids must reach past the core, got radius {radius}")


@dataclass(frozen=True)
class DensityReport:
    """Evaluated density plus the diagnostics driving the variational identities.

    quad_err estimates the value's quadrature error: its change when the
    grid's radii are kept and its angles doubled.
    """

    value: float
    ell1: float
    ell2: float
    boundary_mass_l1: float
    boundary_mass_l2: float
    spec: FunctionalSpec
    grid_resolution: tuple[int, int]
    quad_err: float

    def to_json_dict(self) -> dict[str, Any]:
        """The fields, with spec's fields in place of spec and grid_resolution a list."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(asdict(out.pop("spec")), grid_resolution=list(self.grid_resolution))
        return out


def quadratic_parts(
    f: ComplexPolynomial, spec: FunctionalSpec, grid: QuadratureGrid
) -> tuple[float, float, float]:
    """Coefficients (A, B, C) with density(t*f) = A*t^(2*beta) - 2*B*t^beta + C.

    A is the weighted L^2 mass of |f|^beta over the whole integration domain,
    B the weighted L^1-type mass over the core region, C the measure of the
    core; all in the same normalization as density().
    """
    a, b, c, *_, ind = _ring_data(spec, grid)
    s1, s2 = _ring_sums(f, grid, spec.beta, ind)
    return float(a @ s2), float(b @ s1), c


def quadratic_weights(spec: FunctionalSpec, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-ring node weights (a, b) and C: A and B are a and b against the ring sums of |f|^(2*beta) and |f|^beta."""
    return _ring_data(spec, grid)[:3]


def _ring_data(spec: FunctionalSpec, grid: QuadratureGrid):
    """quadratic_weights' a, b, C, then per ring: envelope w, node weight times measure density m, indicator."""
    _validate_grid(spec, grid)
    r, rw = grid.radii, grid.ring_weights
    ind = r < spec.indicator_radius
    w, m = spec.envelope(r)
    mass = rw * m
    core = grid.resolution[1] * float(np.sum(mass[ind]))
    normalizer, c = (core, 1.0) if spec.geometry == HYPERBOLIC else (1.0, core)
    wm = mass / normalizer
    return np.where(ind | spec.starred, w**2 * wm, 0.0), np.where(ind, w * wm, 0.0), c, w, mass, ind


def _ring_sums(
    f: ComplexPolynomial, grid: QuadratureGrid, beta: float, rows: np.ndarray | slice, turn: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ring sums of |f|^beta on the rings ``rows`` (0 on the others) and of |f|^(2*beta) on every ring.

    With ``turn``, unit factors, they are those of f with coefficients
    c_k * turn[k].  Only the first takes node values, from ring_abs_sums
    over ``rows``: the rings where its L^1 weight is non-zero, on one
    rotation period of the angles, which for a monomial is one angle.  At
    beta = 1 the second is the Parseval sum n_ang * sum_k |c_k|^2 r^(2k) of
    each ring, exact while the coefficients' modes stay distinct on the
    angles (check_angles), and a turn leaves it as it is; at any other beta
    it is the node sum, from ring_abs_sums over every ring.
    """
    n = len(f.coeffs)
    check_angles(grid, n)
    n_ang = grid.resolution[1]
    c = f.coeffs if turn is None else f.coeffs * turn
    s1 = np.zeros(len(grid.radii))
    s1[rows] = ring_abs_sums(vandermonde(grid.radii[rows], n) * c, n_ang, beta)
    if beta == 1.0:
        mass = np.square(f.coeffs.real) + np.square(f.coeffs.imag)
        return s1, n_ang * (grid.radii[:, None] ** (2 * np.arange(n)) @ mass)
    return s1, ring_abs_sums(vandermonde(grid.radii, n) * c, n_ang, 2.0 * beta)


def density(
    f: ComplexPolynomial,
    spec: FunctionalSpec,
    grid: QuadratureGrid | None = None,
) -> DensityReport:
    """Evaluate the density functional of f, with diagnostics.

    The report's ell values are the L^1/L^2 masses of the variational identity
    (equal at any stationary scaling): ell_k is the integral of (w|f|^beta)^k
    against m dA over the core, over the spec's log_normalizer, with w, m its
    envelope; for the hyperbolic geometry that is (1/log(1/(1-r^2))) times the
    integral of |f|^k (1-|z|^2)^(k-1) dA over D(0, r).  The boundary masses
    are boundary_mass's, in the spec's boundary layer.

    quad_err is |value(f turned) - value(f)| / 2, with f turned by half an
    angle step onto the midpoints of the grid's angles (grid.half_turn): the
    change of the value on the same radii with twice the angles.  It leaves
    out the radial error.  At beta = 1 the turn moves only the L^1 sums,
    taken on the core rings: the L^2 sums are Parseval sums of |c_k|^2.
    """
    if grid is None:
        grid = default_grid(spec)
    a, b, c, w, mass, ind = _ring_data(spec, grid)
    # An overflow or inf - inf here leaves a non-finite number, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2 = _ring_sums(f, grid, spec.beta, ind)
        value = float(a @ s2) - 2.0 * float(b @ s1) + c
        t1, t2 = _ring_sums(f, grid, spec.beta, ind, grid.half_turn(len(f.coeffs)))
        quad_err = abs(float(a @ (t2 - s2)) - 2.0 * float(b @ (t1 - s1))) / 2.0
        ell1, ell2 = _masses(w[ind], mass[ind], s1[ind], s2[ind], spec.log_normalizer)
        bm1, bm2 = boundary_mass(f, spec, grid.resolution)
    if not all(map(math.isfinite, (value, quad_err, ell1, ell2, bm1, bm2))):
        raise NumericError(
            f"non-finite density: value {value}, quad_err {quad_err}, ell1 {ell1}, ell2 {ell2}, "
            f"boundary masses {bm1}, {bm2}"
        )

    return DensityReport(
        value=value,
        ell1=ell1,
        ell2=ell2,
        boundary_mass_l1=bm1,
        boundary_mass_l2=bm2,
        spec=spec,
        grid_resolution=grid.resolution,
        quad_err=quad_err,
    )


def _masses(w: np.ndarray, mass: np.ndarray, s1: np.ndarray, s2: np.ndarray, log_norm: float) -> tuple[float, float]:
    """The L^1 and L^2 masses over log_norm, from the ring sums s1, s2 of |f|^beta and |f|^(2*beta)."""
    return float(np.sum(w * mass * s1)) / log_norm, float(np.sum(w**2 * mass * s2)) / log_norm


def boundary_mass(
    f: ComplexPolynomial,
    spec: FunctionalSpec,
    resolution: tuple[int, int],
) -> tuple[float, float]:
    """The (L^1, L^2) masses of f in the spec's boundary layer, where the gap's cut-off ramps.

    The layer is the annulus A((1-delta)R, R) of relative width
    delta = spec.default_delta under the indicator radius R;
    the masses are those of density()'s ell1/ell2 taken over it.  Hyperbolic,
    for p = 1, 2:
    (1/log(1/(1-r^2))) * integral of |f|^p (1-|z|^2)^(p-1) dA.  Planar:
    integral of |f|^(p*beta) exp(-p*gamma*|z|^2) dA.
    """
    outer = spec.indicator_radius
    grid = build_grid(((1.0 - spec.default_delta) * outer, outer), resolution)
    w, m = spec.envelope(grid.radii)
    return _masses(w, grid.ring_weights * m, *_ring_sums(f, grid, spec.beta, slice(None)), spec.log_normalizer)


def gradient(
    f: ComplexPolynomial,
    spec: FunctionalSpec,
    grid: QuadratureGrid | None = None,
) -> np.ndarray:
    """Exact gradient of density w.r.t. the 2n real coefficient coordinates.

    Layout: entry 2j is d/d(Re c_j), entry 2j+1 is d/d(Im c_j).  |f| is
    floored at MODULUS_FLOOR where it divides, so a node where f = 0 (the
    modulus is not differentiable there) contributes zero.  The search does
    not call it: it is the node-sum reference that the optimizer's
    ring-factored derivatives are tested against.
    """
    if grid is None:
        grid = default_grid(spec)
    a, b, _ = quadratic_weights(spec, grid)
    check_angles(grid, len(f.coeffs))
    V = ring_vandermonde(grid, len(f.coeffs))
    fz = np.reshape(V @ f.coeffs, (len(a), -1))
    af = np.abs(fz)
    beta = spec.beta
    q = 2.0 * beta * (a[:, None] * af**beta - b[:, None]) * np.maximum(af, MODULUS_FLOOR) ** (beta - 2.0)
    # Entries 2j and 2j+1 are the real and imaginary parts of (V^H (q f))_j.
    return V.adjoint(q * fz).view(np.float64)
