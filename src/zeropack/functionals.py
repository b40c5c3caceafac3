"""Discrepancy functions, density functionals and their diagnostics.

Two geometries share one code path.  In the hyperbolic geometry the target is
the metric density 1/(1-|z|^2) on a disk of radius r < 1; in the planar (Fock)
geometry it is the Gaussian envelope exp(-gamma*|z|^2) on the unit disk.  Both
densities measure the squared mismatch between a weighted |f| and the indicator
of the core region, the starred variants extending the integral past the core
so that mass left outside is punished in L^2.

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
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigurationError
from .poly import HYPERBOLIC, PLANAR, ComplexPolynomial, poly_eval, vandermonde
from .quadrature import (
    Annulus,
    Disk,
    QuadratureGrid,
    TruncatedPlane,
    build_grid,
    default_r_cut,
)

__all__ = [
    "FunctionalSpec",
    "DensityReport",
    "DEFAULT_RESOLUTION",
    "default_grid",
    "discrepancy",
    "density",
    "boundary_mass",
    "gradient",
    "quadratic_parts",
    "quadratic_weights",
    "default_delta",
]

DEFAULT_RESOLUTION = (128, 128)


@dataclass(frozen=True)
class FunctionalSpec:
    """Geometry tag plus the parameters pinning one density functional.

    param is the core radius r in (0, 1) for the hyperbolic geometry and the
    Gaussian exponent gamma > 0 for the planar one.  alpha dilates the weight
    envelope (hyperbolic requires 0 < alpha <= 1); beta is the modulus exponent
    of the planar family.
    """

    geometry: str
    param: float
    starred: bool = False
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.geometry not in (HYPERBOLIC, PLANAR):
            raise ConfigurationError(f"unknown geometry {self.geometry!r}")
        if self.geometry == HYPERBOLIC:
            if not 0.0 < self.param < 1.0:
                raise ConfigurationError(f"hyperbolic radius must lie in (0,1), got {self.param}")
            if not 0.0 < self.alpha <= 1.0:
                raise ConfigurationError(f"hyperbolic dilation must lie in (0,1], got {self.alpha}")
            if self.beta != 1.0:
                raise ConfigurationError("the exponent family is planar only")
        else:
            if self.param <= 0.0:
                raise ConfigurationError(f"gamma must be positive, got {self.param}")
            if self.alpha <= 0.0:
                raise ConfigurationError(f"planar dilation must be positive, got {self.alpha}")
        if self.beta <= 0.0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.starred and self.alpha != 1.0:
            raise ConfigurationError("dilated functionals are defined unstarred only")

    @property
    def indicator_radius(self) -> float:
        return self.param if self.geometry == HYPERBOLIC else 1.0

    @property
    def log_normalizer(self) -> float:
        """Closed form of the hyperbolic core area, log(1/(1-r^2)); 1 for planar."""
        if self.geometry == HYPERBOLIC:
            return math.log(1.0 / (1.0 - self.param**2))
        return 1.0

    def envelope(self, absz):
        """Weight w and measure density m (w.r.t. dA) at |z|, with alpha in force.

        Hyperbolic: w = 1 - (alpha|z|)^2, m = alpha^2 / w.  Planar:
        w = exp(-alpha*gamma*|z|^2), m = 1.
        """
        if self.geometry == HYPERBOLIC:
            w = 1.0 - (self.alpha * absz) ** 2
            return w, self.alpha**2 / w
        return np.exp(-self.alpha * self.param * absz**2), np.ones_like(absz)


def default_delta(spec: FunctionalSpec) -> float:
    """Boundary-layer width pairing: 1-r (hyperbolic), gamma^{-1/2} (planar).

    The planar pairing is capped at 1 so that it stays usable for gamma <= 1.
    """
    if spec.geometry == HYPERBOLIC:
        return 1.0 - spec.param
    return min(1.0, spec.param**-0.5)


def default_grid(
    spec: FunctionalSpec,
    resolution: tuple[int, int] = DEFAULT_RESOLUTION,
    degree: int | None = None,
) -> QuadratureGrid:
    """Grid matched to the functional's integration domain.

    Starred grids are split radially at the indicator boundary so that the
    discontinuous indicator never sits inside a smooth radial panel; the
    starred/unstarred identity then holds to rounding rather than quadrature
    error.  For starred planar integrals the plane is truncated where
    degree-dependent polynomial growth is dominated by the Gaussian.
    """
    if spec.geometry == HYPERBOLIC:
        if spec.starred:
            return build_grid(Disk(0.0, 1.0), resolution, radial_splits=(spec.param,))
        return build_grid(Disk(0.0, spec.param), resolution)
    if spec.starred:
        n = degree if degree is not None else math.ceil(2.0 * spec.param) + 10
        r_cut = default_r_cut(n, spec.param)
        return build_grid(TruncatedPlane(r_cut), resolution, radial_splits=(1.0,))
    return build_grid(Disk(0.0, 1.0), resolution)


def _validate_grid(spec: FunctionalSpec, grid: QuadratureGrid) -> None:
    region = grid.region
    if spec.geometry == HYPERBOLIC:
        if not (isinstance(region, Disk) and abs(region.center) == 0):
            raise ConfigurationError("hyperbolic densities need a disk grid centred at 0")
        needed = 1.0 if spec.starred else spec.param
        if region.radius < needed - 1e-12:
            raise ConfigurationError(
                f"grid radius {region.radius} does not cover the required disk of radius {needed}"
            )
        if region.radius > 1.0 + 1e-12:
            raise ConfigurationError("hyperbolic grids must stay inside the unit disk")
    else:
        if spec.starred:
            if not isinstance(region, TruncatedPlane):
                raise ConfigurationError("starred planar densities need a truncated-plane grid")
        else:
            ok = isinstance(region, TruncatedPlane) or (
                isinstance(region, Disk) and abs(region.center) == 0 and region.radius >= 1.0 - 1e-12
            )
            if not ok:
                raise ConfigurationError("planar densities need a grid covering the unit disk")


def _node_data(spec: FunctionalSpec, grid: QuadratureGrid):
    """Envelope w, measure density m (w.r.t. dA), indicator and domain masks."""
    absz = np.abs(grid.nodes)
    ind = absz < spec.indicator_radius
    if spec.starred:
        domain = np.ones_like(ind)
    else:
        domain = ind
    w, m = spec.envelope(absz)
    if spec.geometry == HYPERBOLIC:
        # The core area stays undilated whatever alpha is.
        normalizer = float(np.sum(grid.weights[ind] / (1.0 - absz[ind] ** 2)))
    else:
        normalizer = 1.0
    return w, m, ind, domain, normalizer


def _abs_beta(f: ComplexPolynomial, z: np.ndarray, beta: float) -> np.ndarray:
    af = np.abs(poly_eval(f, z))
    return af if beta == 1.0 else af**beta


def discrepancy(f: ComplexPolynomial, z, spec: FunctionalSpec):
    """Pointwise squared mismatch (w(z)|f(z)|^beta - 1_core(z))^2."""
    z = np.asarray(z, dtype=complex)
    absz = np.abs(z)
    ind = (absz < spec.indicator_radius).astype(float)
    w, _ = spec.envelope(absz)
    out = (w * _abs_beta(f, z, spec.beta) - ind) ** 2
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DensityReport:
    """Evaluated density plus the diagnostics driving the variational identities."""

    value: float
    ell1: float
    ell2: float
    boundary_mass_l1: float
    boundary_mass_l2: float
    spec: FunctionalSpec
    grid_resolution: tuple[int, int]
    grid_region: str

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "ell1": self.ell1,
            "ell2": self.ell2,
            "boundary_mass_l1": self.boundary_mass_l1,
            "boundary_mass_l2": self.boundary_mass_l2,
            "geometry": self.spec.geometry,
            "param": self.spec.param,
            "alpha": self.spec.alpha,
            "beta": self.spec.beta,
            "starred": self.spec.starred,
            "grid_resolution": list(self.grid_resolution),
        }


def quadratic_parts(
    f: ComplexPolynomial, spec: FunctionalSpec, grid: QuadratureGrid
) -> tuple[float, float, float]:
    """Coefficients (A, B, C) with density(t*f) = A*t^(2*beta) - 2*B*t^beta + C.

    A is the weighted L^2 mass of |f|^beta over the whole integration domain,
    B the weighted L^1-type mass over the core region, C the measure of the
    core; all in the same normalization as density().
    """
    a_wt, b_wt, c = quadratic_weights(spec, grid)
    fv = _abs_beta(f, grid.nodes, spec.beta)
    return float(np.sum(a_wt * fv**2)), float(np.sum(b_wt * fv)), c


def quadratic_weights(spec: FunctionalSpec, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray, float]:
    """Radial node weights (a, b) and C with quadratic_parts = (sum a*|f|^(2*beta), sum b*|f|^beta, C)."""
    _validate_grid(spec, grid)
    w, m, ind, domain, normalizer = _node_data(spec, grid)
    wm = grid.weights * m / normalizer
    a_wt = np.where(domain, w**2 * wm, 0.0)
    b_wt = np.where(ind, w * wm, 0.0)
    return a_wt, b_wt, float(np.sum(wm[ind]))


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
    integral of |f|^k (1-|z|^2)^(k-1) dA over D(0, r).  The boundary masses use
    the default boundary-layer pairing for the geometry.
    """
    if grid is None:
        grid = default_grid(spec)
    _validate_grid(spec, grid)
    w, m, ind, domain, normalizer = _node_data(spec, grid)
    fv = _abs_beta(f, grid.nodes, spec.beta)
    terms = (w * fv - ind) ** 2 * m * grid.weights
    value = float(np.sum(terms[domain])) / normalizer

    ell1, ell2 = _masses(w[ind], fv[ind], (grid.weights * m)[ind], spec.log_normalizer)
    bm1, bm2 = boundary_mass(f, spec, default_delta(spec), grid.resolution)

    return DensityReport(
        value=value,
        ell1=ell1,
        ell2=ell2,
        boundary_mass_l1=bm1,
        boundary_mass_l2=bm2,
        spec=spec,
        grid_resolution=grid.resolution,
        grid_region=type(grid.region).__name__,
    )


def _masses(w: np.ndarray, fv: np.ndarray, wm: np.ndarray, log_norm: float) -> tuple[float, float]:
    """The L^1 and L^2 masses sum(w |f|^beta wm) and sum((w |f|^beta)^2 wm), over log_norm."""
    return float(np.sum(w * fv * wm)) / log_norm, float(np.sum(w**2 * fv**2 * wm)) / log_norm


def boundary_mass(
    f: ComplexPolynomial,
    spec: FunctionalSpec,
    delta: float,
    resolution: tuple[int, int] = (96, 128),
) -> tuple[float, float]:
    """The (L^1, L^2) masses of f in the boundary layer of relative width delta.

    The layer is the annulus A((1-delta)R, R) under the indicator radius R;
    the masses are those of density()'s ell1/ell2 taken over it with the
    undilated envelope.  Hyperbolic, for p = 1, 2:
    (1/log(1/(1-r^2))) * integral of |f|^p (1-|z|^2)^(p-1) dA.  Planar:
    integral of |f|^(p*beta) exp(-p*gamma*|z|^2) dA.
    """
    if not 0.0 < delta <= 1.0:
        raise ConfigurationError(f"delta must lie in (0,1], got {delta}")
    base = FunctionalSpec(spec.geometry, spec.param, beta=spec.beta)
    outer = base.indicator_radius
    inner = (1.0 - delta) * outer
    grid = build_grid(Disk(0.0, outer) if inner <= 0.0 else Annulus(inner, outer), resolution)
    w, m = base.envelope(np.abs(grid.nodes))
    return _masses(w, _abs_beta(f, grid.nodes, base.beta), grid.weights * m, base.log_normalizer)


def gradient(
    f: ComplexPolynomial,
    spec: FunctionalSpec,
    grid: QuadratureGrid | None = None,
    full_output: bool = False,
):
    """Exact gradient of density w.r.t. the 2n real coefficient coordinates.

    Layout: entry 2j is d/d(Re c_j), entry 2j+1 is d/d(Im c_j).  Nodes where
    |f| falls below 1e-14 of its grid maximum contribute zero (the modulus is
    not differentiable there); with ``full_output`` the subgradient flag saying
    whether any node was clipped is returned alongside.
    """
    if grid is None:
        grid = default_grid(spec)
    _validate_grid(spec, grid)
    w, m, ind, domain, normalizer = _node_data(spec, grid)
    n = len(f.coeffs)
    fz = poly_eval(f, grid.nodes)
    af = np.abs(fz)
    floor = 1e-14 * max(float(af.max()), 1e-300)
    clipped = af < floor
    safe = np.maximum(af, floor)
    u = fz / safe
    beta = spec.beta
    fv = af if beta == 1.0 else af**beta
    q = 2.0 * (w * fv - ind) * w * beta * (safe ** (beta - 1.0)) * m * grid.weights / normalizer
    q = np.where(domain & ~clipped, q, 0.0)
    V = vandermonde(grid.nodes, n)
    t = V.T @ (q * np.conj(u))
    out = np.empty(2 * n)
    out[0::2] = np.real(t)
    out[1::2] = -np.imag(t)
    if full_output:
        return out, bool(np.any(clipped & domain))
    return out
