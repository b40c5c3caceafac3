"""Cut-off functions, weighted projections and the minimal dbar correction.

The correction pipeline: multiply a polynomial f by the radial Lipschitz
cut-off chi (1 on the core disk, 0 off a slightly larger one), then repair
holomorphy by subtracting the minimal-norm solution u of dbar u = dbar(chi f)
subject to polynomial growth of order n.  Solutions of that equation differ
from chi*f by entire functions with the same growth, i.e. by polynomials with
n coefficients, so the minimal solution is exactly chi*f minus its weighted
orthogonal projection onto the polynomial space - no PDE solve is needed.
The growth-control theorem then bounds the weighted L^2 mass of u by an
explicit annulus integral of f against |dbar chi|^2, which is verified here
numerically for every correction.

Weights: exp(-2*gamma*|z|^2) on the plane (planar case), and (1 - |z|^2) on
the unit disk with weight zero outside (hyperbolic case, where the weight's
logarithm is allowed to be +infinity off the disk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConfigurationError, NumericError
from .functionals import (
    DEFAULT_RESOLUTION,
    FunctionalSpec,
    boundary_mass,
    default_delta,
    default_grid,
    density,
)
from .optimize import MinimizeResult, OptimizerConfig, degree_schedule, minimize
from .poly import HYPERBOLIC, PLANAR, ComplexPolynomial, gram, ring_vandermonde, vandermonde, weight_values
from .quadrature import Disk, QuadratureGrid, TruncatedPlane, build_grid, default_r_cut

__all__ = [
    "CutoffSpec",
    "CorrectionResult",
    "GapReport",
    "cutoff",
    "default_cutoff",
    "dbar_cutoff",
    "project_polynomial",
    "minimal_correction",
    "obstacle_function",
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


def default_cutoff(geometry: str, param: float) -> CutoffSpec:
    """Cut-off at the geometry's core radius with the default boundary-layer width.

    The cut-off needs a strict plateau, so the width pairing of default_delta
    is clamped just below 1 (planar gamma <= 1, hyperbolic r near 0).
    """
    delta = min(default_delta(FunctionalSpec(geometry=geometry, param=param)), 0.999999)
    return CutoffSpec(delta=delta, r=param if geometry == HYPERBOLIC else 1.0)


def cutoff(z, spec: CutoffSpec):
    """chi(z): 1, then ((1/delta) - |z|/(delta r))^2 on the annulus, then 0."""
    s = np.abs(np.asarray(z, dtype=complex))
    inner = (1.0 - spec.delta) * spec.r
    ramp = ((spec.r - s) / (spec.delta * spec.r)) ** 2
    out = np.where(s <= inner, 1.0, np.where(s <= spec.r, ramp, 0.0))
    return out if out.ndim else float(out)


def dbar_cutoff(z, spec: CutoffSpec):
    """dbar chi = chi'(|z|) * z/(2|z|), supported on the cut-off annulus.

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
    weight: str,
    n: int,
    grid: QuadratureGrid,
    gamma: float | None = None,
) -> ComplexPolynomial:
    """Weighted L^2 projection of g onto the n-coefficient polynomial space.

    Characterized by <g - p, z^k> = 0 for every k < n in the weighted inner
    product; on a ring grid the normal equations are a divide by the Gram diagonal.
    """
    values = np.asarray(g(grid.nodes) if callable(g) else g, dtype=complex)
    if values.shape != grid.nodes.shape:
        raise ConfigurationError("sampled function must match the grid nodes")
    wv = weight_values(weight, grid.nodes, gamma) * grid.weights
    return ComplexPolynomial(ring_vandermonde(grid, n).adjoint(wv * values) / gram(weight, n, grid, gamma))


@dataclass(frozen=True)
class CorrectionResult:
    """Minimal dbar correction u = chi*f - nu and the two sides of its bound."""

    u_values: np.ndarray
    nu: ComplexPolynomial
    lhs: float
    rhs: float
    degree_bound: int
    grid: QuadratureGrid
    weight: str
    gamma: float | None

    def orthogonality_residual(self) -> float:
        """max_k |<u, z^k>| / ||u|| in the weighted inner product, via the dense Vandermonde matrix."""
        wv = weight_values(self.weight, self.grid.nodes, self.gamma) * self.grid.weights
        V = vandermonde(self.grid.nodes, self.degree_bound)
        inner = np.abs(V.conj().T @ (wv * self.u_values))
        norm = math.sqrt(max(float(np.sum(wv * np.abs(self.u_values) ** 2)), 1e-300))
        return float(np.max(inner)) / norm


def correction_grid(
    geometry: str,
    param: float,
    spec: CutoffSpec,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
    degree: int | None = None,
) -> QuadratureGrid:
    """Grid split at the cut-off seams so radial panels stay smooth."""
    n = degree if degree is not None else degree_schedule(geometry, param)
    inner = (1.0 - spec.delta) * spec.r
    if geometry == HYPERBOLIC:
        return build_grid(Disk(0.0, 1.0), resolution, radial_splits=(inner, spec.r))
    return build_grid(
        TruncatedPlane(default_r_cut(n, param)), resolution, radial_splits=(inner, spec.r)
    )


def minimal_correction(
    f: ComplexPolynomial,
    spec: CutoffSpec,
    geometry: str,
    param: float,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
) -> CorrectionResult:
    """Minimal-norm correction of chi*f, with the growth-control bound.

    lhs is the weighted L^2 mass of u over the weight's support; rhs is the
    annulus integral of |f|^2 |dbar chi|^2 against the weight divided by the
    Laplacian of the obstacle extension: (1-|z|^2)^3 in the hyperbolic case,
    e^{-2*gamma*|z|^2}/(2*gamma) in the planar one.  The bound lhs <= rhs is
    the theorem being verified; it requires only boundedness of f.
    """
    if geometry not in (HYPERBOLIC, PLANAR):
        raise ConfigurationError(f"unknown geometry {geometry!r}")
    n = degree_schedule(geometry, param)
    grid = correction_grid(geometry, param, spec, resolution, degree=n)
    z = grid.nodes
    fz = f.on_grid(grid)
    f2 = np.abs(fz) ** 2
    chi_f = cutoff(z, spec) * fz
    gamma = param if geometry == PLANAR else None
    weight = geometry
    nu = project_polynomial(chi_f, weight, n, grid, gamma)
    u = chi_f - nu.on_grid(grid)

    wv = weight_values(weight, z, gamma)
    lhs = float(np.sum(np.abs(u) ** 2 * wv * grid.weights))
    dchi2 = np.abs(dbar_cutoff(z, spec)) ** 2
    if geometry == HYPERBOLIC:
        rhs = float(np.sum(dchi2 * f2 * (1.0 - np.abs(z) ** 2) ** 3 * grid.weights))
    else:
        rhs = float(np.sum(dchi2 * f2 * wv * grid.weights)) / (2.0 * param)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NumericError(f"non-finite correction bound: lhs {lhs}, rhs {rhs}")
    return CorrectionResult(
        u_values=u, nu=nu, lhs=lhs, rhs=rhs, degree_bound=n, grid=grid, weight=weight, gamma=gamma
    )


def obstacle_function(geometry: str, param: float, z):
    """Minimal C^{1,1} subharmonic extension of the weight's logarithm.

    Planar: 2*gamma*|z|^2 inside the unit disk, harmonic continuation
    2*gamma*log|z|^2 + 2*gamma outside.  Hyperbolic: log(1/(1-|z|^2)) inside
    D(0,r), then (r^2/(1-r^2))*log(|z|^2/r^2) + log(1/(1-r^2)); values and
    normal derivatives match on the seam.
    """
    s2 = np.abs(np.asarray(z, dtype=complex)) ** 2
    if geometry == PLANAR:
        gamma = param
        out = np.where(s2 < 1.0, 2.0 * gamma * s2, 2.0 * gamma * np.log(np.maximum(s2, 1e-300)) + 2.0 * gamma)
    elif geometry == HYPERBOLIC:
        r = param
        if not 0.0 < r < 1.0:
            raise ConfigurationError(f"hyperbolic radius must lie in (0,1), got {r}")
        core = -np.log(np.maximum(1.0 - np.minimum(s2, r * r), 1e-300))
        tail = (r * r / (1.0 - r * r)) * np.log(np.maximum(s2, 1e-300) / (r * r)) + math.log(1.0 / (1.0 - r * r))
        out = np.where(s2 < r * r, core, tail)
    else:
        raise ConfigurationError(f"unknown geometry {geometry!r}")
    return out if out.ndim else float(out)


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
    sigma_sq_estimate: float | None
    exterior_mass_u: float
    l1_perturbation: float
    l2_perturbation: float
    minimize_result: MinimizeResult

    def to_json_dict(self) -> dict[str, Any]:
        out = {
            "geometry": self.geometry,
            "param": self.param,
            "delta": self.delta,
            "degree": self.degree,
            "rho_unstarred": self.rho_unstarred,
            "rho_starred_nu": self.rho_starred_nu,
            "gap": self.gap,
            "dbar_lhs": self.dbar_lhs,
            "dbar_rhs": self.dbar_rhs,
            "boundary_mass_l1": self.boundary_mass_l1,
            "boundary_mass_l2": self.boundary_mass_l2,
        }
        if self.geometry == HYPERBOLIC:
            # Upper-bound-derived estimate of the asymptotic variance, 1 - rho*.
            out["sigma_sq_estimate"] = self.sigma_sq_estimate
        return out


def _proof_components(
    spec: FunctionalSpec,
    f: ComplexPolynomial,
    u: np.ndarray,
    cut: CutoffSpec,
    grid: QuadratureGrid,
) -> tuple[float, float, float]:
    """The three correction-driven perturbation terms of the gap argument.

    Exterior mass of u beyond the core region, the L^1 mass of u over the
    core, and the cross/quadratic u-term perturbing the L^2 mass of the
    repaired polynomial, each against the spec's envelope w, m as in
    density(); each is controlled by the dbar bound at any fixed parameter
    (the remaining perturbations come from the cut-off's bite on f and shrink
    only with the boundary layer).
    """
    z = grid.nodes
    au = np.abs(u)
    # The cross term first, so that its complex temporaries never coexist with
    # the envelope arrays; this keeps equality_gap's peak memory where it was.
    cross = au**2 - 2.0 * np.real(cutoff(z, cut) * f.on_grid(grid) * np.conj(u))
    absz = np.abs(z)
    w, m = spec.envelope(absz)
    w1 = w * m * grid.weights / spec.log_normalizer
    w2 = w * w1
    core = absz < spec.indicator_radius
    ext = float(np.sum((au**2 * w2)[absz > spec.indicator_radius]))
    l1 = float(np.sum((au * w1)[core]))
    l2 = abs(float(np.sum((cross * w2)[core])))
    return ext, l1, l2


def equality_gap(
    geometry: str,
    param: float,
    config: OptimizerConfig = OptimizerConfig(),
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
) -> GapReport:
    """Minimize, cut off, correct, and compare the starred value of the repair.

    Runs the unstarred minimization at the scheduled degree, builds the
    corrected polynomial nu = chi*f - u with the default boundary-layer width,
    and reports the starred density of nu next to the unstarred minimum; their
    difference is the finite-parameter gap that the equality theorems send to
    zero along subsequences.
    """
    spec = FunctionalSpec(geometry=geometry, param=param)
    n = degree_schedule(geometry, param)
    cut = default_cutoff(geometry, param)
    delta = cut.delta
    result = minimize(spec, n, config)
    f = result.minimizer

    corr = minimal_correction(f, cut, geometry, param, resolution)

    starred_spec = FunctionalSpec(geometry=geometry, param=param, starred=True)
    starred_grid = default_grid(starred_spec, resolution, degree=n)
    rho_star = density(corr.nu, starred_spec, starred_grid).value

    bm1, bm2 = boundary_mass(f, spec, delta, resolution)
    ext, l1p, l2p = _proof_components(spec, f, corr.u_values, cut, corr.grid)

    return GapReport(
        geometry=geometry,
        param=param,
        delta=delta,
        degree=n,
        rho_unstarred=result.value,
        rho_starred_nu=rho_star,
        gap=rho_star - result.value,
        dbar_lhs=corr.lhs,
        dbar_rhs=corr.rhs,
        boundary_mass_l1=bm1,
        boundary_mass_l2=bm2,
        sigma_sq_estimate=(1.0 - rho_star) if geometry == HYPERBOLIC else None,
        exterior_mass_u=ext,
        l1_perturbation=l1p,
        l2_perturbation=l2p,
        minimize_result=result,
    )
