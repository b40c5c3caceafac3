"""Cut-off functions, weighted projections and the minimal dbar correction.

The correction pipeline: multiply a polynomial f by the radial Lipschitz
cut-off chi (1 on the core disk, 0 off a slightly larger one), then repair
holomorphy by subtracting the minimal-norm solution u of dbar u = dbar(chi f)
subject to polynomial growth of order n.  Solutions of that equation differ
from chi*f by entire functions with the same growth, i.e. by polynomials with
n coefficients, so the minimal solution is exactly chi*f minus its weighted
orthogonal projection onto the polynomial space - no PDE solve is needed.
The weight and the cut-off are radial and the grid is a set of rings with
equispaced angles, so the correction is computed per Fourier mode: the
projection is diagonal in the monomial index, and the L^2 masses are
Parseval sums of each ring's coefficients.
The growth-control theorem then bounds the weighted L^2 mass of u by an
explicit annulus integral of f against |dbar chi|^2, which is verified here
numerically for every correction.

The weight e^{-phi}, its support, the Laplacian factor of the bound and the
obstacle are the FunctionalSpec's: exp(-2*gamma*|z|^2) on the plane (planar
case), and (1 - |z|^2) on the unit disk (hyperbolic case, where phi is
allowed to be +infinity off the disk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Callable

import numpy as np

from .errors import ConfigurationError, NumericError
from .functionals import (
    FunctionalSpec,
    boundary_mass,
    default_grid,
    quadratic_parts,
)
from .optimize import MinimizeResult, OptimizerConfig, degree_schedule, minimize
from .poly import ComplexPolynomial, check_angles, gram_diagonal, ring_abs_sums, ring_vandermonde, vandermonde
from .quadrature import QuadratureGrid, build_grid

__all__ = [
    "CutoffSpec",
    "CorrectionResult",
    "GapReport",
    "cutoff",
    "default_cutoff",
    "dbar_cutoff",
    "project_polynomial",
    "minimal_correction",
    "equality_gap",
]


@dataclass(frozen=True)
class CutoffSpec:
    """Radial bump: 1 on D(0, (1-delta)r), 0 off D(0, r); r = 1 planar."""

    delta: float
    r: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0,1), got {self.delta}")
        if not 0.0 < self.r <= 1.0:
            raise ConfigurationError(f"r must lie in (0,1], got {self.r}")


def default_cutoff(spec: FunctionalSpec) -> CutoffSpec:
    """Cut-off at the spec's core radius with its default boundary-layer width.

    The cut-off needs a strict plateau, so the width pairing is clamped just
    below 1 (planar gamma <= 1, hyperbolic r near 0).
    """
    return CutoffSpec(delta=min(spec.default_delta, 0.999999), r=spec.indicator_radius)


def cutoff(z, spec: CutoffSpec):
    """chi(z): 1, then ((1/delta) - |z|/(delta r))^2 on the annulus, then 0."""
    s = np.abs(np.asarray(z, dtype=complex))
    inner = (1.0 - spec.delta) * spec.r
    ramp = ((spec.r - s) / (spec.delta * spec.r)) ** 2
    out = np.where(s <= inner, 1.0, np.where(s <= spec.r, ramp, 0.0))
    return out if out.ndim else float(out)


def dbar_cutoff(z, spec: CutoffSpec):
    """dbar chi = chi'(|z|) * z/(2|z|), supported on the cut-off annulus; at a radius z = r, |dbar chi| of its ring.

    chi'(s) = -2(r - s)/(delta r)^2 there; the seam circles take their
    annulus-side value (chi is Lipschitz, the seams have measure zero).
    """
    z = np.asarray(z, dtype=complex)
    s = np.abs(z)
    inner = (1.0 - spec.delta) * spec.r
    on_ramp = (s >= inner) & (s <= spec.r) & (s > 0)
    slope = -2.0 * (spec.r - s) / (spec.delta * spec.r) ** 2
    out = np.where(on_ramp, slope * z / np.maximum(2.0 * s, 1e-300), 0.0)
    return out if out.ndim else complex(out)


def project_polynomial(
    g: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    spec: FunctionalSpec,
    n: int,
    grid: QuadratureGrid,
) -> ComplexPolynomial:
    """Weighted L^2 projection of g onto the n-coefficient polynomial space.

    Characterized by <g - p, z^k> = 0 for every k < n in the inner product of
    the spec's dbar weight; the grid must stay inside the weight's support.
    """
    values = np.asarray(g(grid.nodes) if callable(g) else g, dtype=complex)
    if values.shape != (grid.size,):
        raise ConfigurationError("sampled function must match the grid nodes")
    weight = grid.ring_weights * spec.dbar_weight(grid.radii)
    if not np.all(weight >= 0.0):
        raise ConfigurationError(f"the grid leaves the support of the {spec.geometry} weight")
    # On a ring grid the weighted normal equations are a divide by the Gram diagonal.
    y = np.reshape(values, (len(weight), -1)) * weight[:, None]
    return ComplexPolynomial(ring_vandermonde(grid, n).adjoint(y) / gram_diagonal(grid, weight, n))


@dataclass(frozen=True)
class CorrectionResult:
    """Minimal dbar correction u = chi*f - nu, the two sides of its bound and the gap terms.

    u_coeffs[j, k] is the k-th Fourier coefficient of u on ring j of grid, so
    u = sum_k u_coeffs[j, k] e^{ik theta} there.  weight is the node weight of
    the correction's inner product on each ring: the dbar weight times the
    ring's quadrature weight.  The last three fields are the correction-driven
    perturbation terms of the gap argument (see _proof_components).
    """

    u_coeffs: np.ndarray
    nu: ComplexPolynomial
    lhs: float
    rhs: float
    degree_bound: int
    grid: QuadratureGrid
    weight: np.ndarray
    exterior_mass_u: float
    l1_perturbation: float
    l2_perturbation: float

    @cached_property
    def u_values(self) -> np.ndarray:
        """u at the grid's nodes, derived on first use by one ring product."""
        return (self.u_coeffs @ vandermonde(self.grid.phases, self.u_coeffs.shape[1]).T).ravel()

    def orthogonality_residual(self) -> float:
        """max_k |<u, z^k>| / ||u|| in the weighted inner product, via the dense Vandermonde matrix."""
        V = vandermonde(self.grid.nodes, self.degree_bound)
        inner = np.abs(V.conj().T @ (np.repeat(self.weight, self.grid.resolution[1]) * self.u_values))
        return float(np.max(inner)) / math.sqrt(max(self.lhs, 1e-300))


def minimal_correction(
    f: ComplexPolynomial,
    spec: FunctionalSpec,
    cut: CutoffSpec,
    resolution: tuple[int, int] | None = None,
) -> CorrectionResult:
    """Minimal-norm correction of chi*f, with the growth-control bound, computed per Fourier mode.

    The grid covers the weight's support at the scheduled degree, split at
    the cut-off seams so radial panels stay smooth.  lhs is the weighted L^2
    mass of u; rhs is the annulus integral of |f|^2 |dbar chi|^2 against the
    weight divided by the Laplacian of the obstacle extension: (1-|z|^2)^3 in
    the hyperbolic case, e^{-2*gamma*|z|^2}/(2*gamma) in the planar one.  The
    bound lhs <= rhs is the theorem being verified; it requires only
    boundedness of f.

    Weight and cut-off are radial, so everything is done per mode: on ring j,
    f = sum_k c_k z^k has Fourier coefficients c_k r_j^k, and chi*f has
    chi_j c_k r_j^k.  The projection is diagonal in k, nu_k = lambda_k c_k
    with lambda_k the weighted ratio sum_j w_j chi_j r_j^2k / sum_j w_j r_j^2k
    for k < n (0 beyond), so u has coefficients c_k r_j^k (chi_j - lambda_k),
    and the L^2 masses are Parseval sums over k.  That is exact while the
    modes stay distinct on the equispaced angles: a polynomial with more
    coefficients than the grid has angles is a ConfigurationError.
    """
    n = degree_schedule(spec)
    if resolution is None:
        resolution = spec.default_resolution
    grid = build_grid((0.0, (1.0 - cut.delta) * cut.r, cut.r, spec.support(n)), resolution)
    check_angles(grid, len(f.coeffs))
    n_ang = grid.resolution[1]
    r = grid.radii
    weight = spec.dbar_weight(r) * grid.ring_weights
    chi = cutoff(r, cut)
    width = max(n, len(f.coeffs))
    radial = r[:, None] ** np.arange(width)
    lam = np.zeros(width)
    lam[:n] = ((weight * chi) @ radial[:, :n] ** 2) / (gram_diagonal(grid, weight, n) / n_ang)
    c = np.pad(f.coeffs, (0, width - len(f.coeffs)))
    f_coeffs = radial * c
    u_coeffs = f_coeffs * (chi[:, None] - lam)

    # An overflow or inf * 0 here leaves a non-finite bound, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        f2 = n_ang * _ring_dot(f_coeffs, f_coeffs)
        u2 = n_ang * _ring_dot(u_coeffs, u_coeffs)
        rhs = float((np.abs(dbar_cutoff(r, cut)) ** 2 * weight / spec.laplacian(r)) @ f2)
        lhs = float(weight @ u2)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NumericError(f"non-finite correction bound: lhs {lhs}, rhs {rhs}")
    # Per ring, the sum over the nodes of |u|^2 - 2 Re(chi f conj u).
    cross = u2 - 2.0 * n_ang * chi * _ring_dot(f_coeffs, u_coeffs)
    ext, l1p, l2p = _proof_components(spec, grid, u2, cross, u_coeffs)
    return CorrectionResult(
        u_coeffs=u_coeffs,
        nu=ComplexPolynomial(lam[:n] * c[:n]),
        lhs=lhs,
        rhs=rhs,
        degree_bound=n,
        grid=grid,
        weight=weight,
        exterior_mass_u=ext,
        l1_perturbation=l1p,
        l2_perturbation=l2p,
    )


def _ring_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re sum_k a[j, k] conj(b[j, k]) for each row j, with no complex temporary."""
    return np.einsum("ij,ij->i", a.view(np.float64), b.view(np.float64))


@dataclass(frozen=True)
class GapReport:
    """One run of the equality-gap pipeline at a fixed parameter."""

    geometry: str
    param: float
    delta: float
    degree: int
    rho_unstarred: float
    rho_starred_nu: float
    gap: float
    dbar_lhs: float
    dbar_rhs: float
    boundary_mass_l1: float
    boundary_mass_l2: float
    # Upper-bound-derived estimate of the asymptotic variance, 1 - rho*; None
    # where the spec reports none.
    sigma_sq_estimate: float | None
    exterior_mass_u: float
    l1_perturbation: float
    l2_perturbation: float
    minimize_result: MinimizeResult
    # The quadrature-error estimate of rho_unstarred (DensityReport.quad_err).
    quad_err: float

    def to_json_dict(self) -> dict[str, Any]:
        """The fields but minimize_result, and sigma_sq_estimate only when there is one."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "minimize_result"}
        if self.sigma_sq_estimate is None:
            del out["sigma_sq_estimate"]
        return out


def _proof_components(
    spec: FunctionalSpec, grid: QuadratureGrid, u2: np.ndarray, cross: np.ndarray, u_coeffs: np.ndarray
) -> tuple[float, float, float]:
    """The three correction-driven perturbation terms of the gap argument.

    Exterior mass of u beyond the core region, the L^1 mass of u over the
    core, and the cross/quadratic u-term perturbing the L^2 mass of the
    repaired polynomial, each against the spec's envelope w, m as in
    density(); each is controlled by the dbar bound at any fixed parameter
    (the remaining perturbations come from the cut-off's bite on f and shrink
    only with the boundary layer).  u2 and cross are the per-ring node sums of
    |u|^2 and |u|^2 - 2 Re(chi f conj u).  Only the L^1 term needs |u| at
    nodes: ring_abs_sums of u_coeffs, on the core rings alone and one
    rotation period of the angles.  u carries f's modes, so for a monomial
    f that is one angle per ring.
    """
    r = grid.radii
    w, m = spec.envelope(r)
    w1 = w * m * grid.ring_weights / spec.log_normalizer
    w2 = w * w1
    core = r < spec.indicator_radius
    au = ring_abs_sums(u_coeffs[core], grid.resolution[1], 1.0)
    ext = float(np.sum((w2 * u2)[r > spec.indicator_radius]))
    l1 = float(np.sum(w1[core] * au))
    l2 = abs(float(np.sum((w2 * cross)[core])))
    return ext, l1, l2


def equality_gap(
    spec: FunctionalSpec,
    config: OptimizerConfig = OptimizerConfig(),
    resolution: tuple[int, int] | None = None,
) -> GapReport:
    """Minimize, cut off, correct, and compare the starred value of the repair.

    Runs the unstarred minimization of spec at the scheduled degree, builds
    the corrected polynomial nu = chi*f - u with the default boundary-layer
    width, and reports the starred density of nu next to the unstarred
    minimum; their difference is the finite-parameter gap that the equality
    theorems send to zero along subsequences.  The starred value is
    A - 2B + C of quadratic_parts, density()'s value without its diagnostics.
    """
    if spec.starred:
        raise ConfigurationError("equality_gap takes the unstarred functional")
    n = degree_schedule(spec)
    if resolution is None:
        resolution = spec.default_resolution
    cut = default_cutoff(spec)
    delta = cut.delta
    result = minimize(spec, n, config)
    f = result.minimizer

    corr = minimal_correction(f, spec, cut, resolution)

    starred_spec = replace(spec, starred=True)
    starred_grid = default_grid(starred_spec, resolution, degree=n)
    # An overflow or inf - inf here leaves a non-finite value, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = quadratic_parts(corr.nu, starred_spec, starred_grid)
        rho_star = a - 2.0 * b + c
    if not math.isfinite(rho_star):
        raise NumericError(f"non-finite starred density of the correction: {rho_star}")

    bm1, bm2 = boundary_mass(f, spec, delta, resolution)

    return GapReport(
        geometry=spec.geometry,
        param=spec.param,
        delta=delta,
        degree=n,
        rho_unstarred=result.value,
        rho_starred_nu=rho_star,
        gap=rho_star - result.value,
        dbar_lhs=corr.lhs,
        dbar_rhs=corr.rhs,
        boundary_mass_l1=bm1,
        boundary_mass_l2=bm2,
        sigma_sq_estimate=(1.0 - rho_star) if spec.reports_sigma_sq else None,
        exterior_mass_u=corr.exterior_mass_u,
        l1_perturbation=corr.l1_perturbation,
        l2_perturbation=corr.l2_perturbation,
        minimize_result=result,
        quad_err=result.diagnostics.quad_err,
    )
