"""Minimization of the density functionals over polynomial coefficient space.

The workhorse is an iteratively reweighted least-squares step: |f| is bounded
below by Re[f * conj(f_k)/|f_k|], so replacing the L^1-type term of the
expanded square with that linearization yields a convex quadratic surrogate
touching the objective at the current iterate.  Each surrogate solve is a
weighted normal-equations system, followed by the closed-form optimal
rescaling, which makes the accepted sequence monotone and leaves the iterate
on the manifold where the two variational masses agree.

The functional is nonconvex in the coefficients, so results are best-found
values over restarts, not certified global minima; the identities asserted in
tests hold at any stationary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, UndefinedScaleError
from .functionals import (
    DEFAULT_RESOLUTION,
    HYPERBOLIC,
    DensityReport,
    FunctionalSpec,
    default_grid,
    density,
    gradient,
    quadratic_parts,
    quadratic_weights,
)
from .poly import ComplexPolynomial, RingVandermonde, gram_diagonal, vandermonde
from .quadrature import QuadratureGrid

__all__ = [
    "OptimizerConfig",
    "MinimizeResult",
    "degree_schedule",
    "optimal_scale",
    "minimize",
]


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 1500
    tolerance: float = 1e-10
    method: str = "irls"
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ConfigurationError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.restarts < 1:
            raise ConfigurationError(f"restarts must be >= 1, got {self.restarts}")
        if self.method not in ("irls", "gradient-descent-with-line-search"):
            raise ConfigurationError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class MinimizeResult:
    minimizer: ComplexPolynomial
    value: float
    iterations: int
    converged: bool
    diagnostics: DensityReport
    restart_values: list[float]
    history: list[float] = field(default_factory=list, repr=False)

    def to_json_dict(self):
        return {
            "minimizer": [[float(c.real), float(c.imag)] for c in self.minimizer.coeffs],
            "value": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "restart_values": self.restart_values,
            "diagnostics": self.diagnostics.to_json_dict(),
        }


def degree_schedule(spec: FunctionalSpec) -> int:
    """Sufficient coefficient count: the core mass rounded up, ceil(r^2/(1-r^2)) or ceil(2*gamma).

    The core mass is the (hyperbolic resp. scaled Euclidean) area of the core
    region, matching the heuristic that each zero discretizes a fixed amount
    of mass.  The rounding guard keeps exact integer ratios (e.g.
    r = 1/sqrt(2)) from spilling over to the next integer.
    """
    return max(1, math.ceil(round(spec.core_mass, 9)))


def optimal_scale(f: ComplexPolynomial, spec: FunctionalSpec, grid: QuadratureGrid | None = None) -> float:
    """The t > 0 minimizing t -> density(t*f); ratio of the L^1 to L^2 mass."""
    if grid is None:
        grid = default_grid(spec)
    a, b, _ = quadratic_parts(f, spec, grid)
    if a <= 0.0 or b <= 0.0:
        raise UndefinedScaleError("optimal scale is undefined for the zero polynomial")
    s = b / a
    return s if spec.beta == 1.0 else s ** (1.0 / spec.beta)


@dataclass(frozen=True)
class _Iterate:
    """Coefficients c with their value, and the node values fz of a positive multiple of c.

    The IRLS phase fz/|fz| and its relative floor do not change under a
    positive rescale, so fz may belong to c before its optimal rescaling.
    """

    c: np.ndarray
    value: float
    fz: np.ndarray
    af: np.ndarray


class _Workspace:
    """Precomputed node arrays for one (spec, grid, n) minimization."""

    def __init__(self, spec: FunctionalSpec, grid: QuadratureGrid, n: int):
        self.spec, self.grid = spec, grid
        self.a_wt, self.b_wt, self.c_val = quadratic_weights(spec, grid)
        self.diagonal = gram_diagonal(grid, self.a_wt, n)
        # Factors built through this module's own vandermonde binding, which
        # bench/check_tracer.py expects to see called under minimize.
        self.V = RingVandermonde(vandermonde(grid.radii, n), vandermonde(grid.phases, n))

    def iterate(self, c: np.ndarray, rescale: bool = True) -> _Iterate:
        """c, or its optimal rescaling c*B/A with value C - B^2/A, from one ring product."""
        fz = self.V @ c
        af = np.abs(fz)
        a = float(np.sum(self.a_wt * af**2))
        b = float(np.sum(self.b_wt * af))
        if not rescale or a <= 0.0 or b <= 0.0:
            return _Iterate(c, a - 2.0 * b + self.c_val, fz, af)
        return _Iterate(c * (b / a), self.c_val - b * b / a, fz, af)

    def irls_step(self, it: _Iterate) -> _Iterate:
        floor = 1e-14 * max(float(it.af.max()), 1e-300)
        y = it.fz * (self.b_wt / np.maximum(it.af, floor))
        return self.iterate(self.V.adjoint(y) / self.diagonal)


def _canonicalize(c: np.ndarray) -> np.ndarray:
    """Rotate the free global phase so the leading nonzero coefficient is >= 0."""
    nz = np.flatnonzero(np.abs(c) > 0)
    if nz.size == 0:
        return c
    lead = c[nz[-1]]
    return c * np.exp(-1j * np.angle(lead))


def _descend(ws: _Workspace, c: np.ndarray, config: OptimizerConfig, use_irls: bool):
    it = ws.iterate(c, rescale=False)
    history = [it.value]
    iterations = 0
    converged = False
    snapshot = it.c
    accepted = 0
    for _ in range(config.max_iterations):
        iterations += 1
        improved = False
        if use_irls:
            new = ws.irls_step(it)
            if new.value <= it.value:
                improved = True
        if not use_irls or not improved:
            # Backtracking line search on the real-coordinate gradient; used as
            # the whole method when requested, else as the fallback step.  In
            # complex form, moving c by -step*g changes the value by
            # -step*|g|^2 to first order.
            g = gradient(ComplexPolynomial(it.c), ws.spec, ws.grid).view(complex)
            gnorm2 = float(np.sum(np.abs(g) ** 2))
            if gnorm2 == 0.0:
                converged = True
                break
            step = max(abs(it.value), 1e-8) / gnorm2
            for _ in range(60):
                trial = ws.iterate(it.c - step * g)
                if trial.value < it.value - 1e-4 * step * gnorm2:
                    new = trial
                    improved = True
                    break
                step *= 0.5
            if not improved:
                converged = True
                break
        drop = it.value - new.value
        it = new
        history.append(it.value)
        if drop < config.tolerance * max(abs(it.value), 1e-30):
            converged = True
            break
        # Secant extrapolation along the recent trajectory: flat valleys make
        # plain reweighting crawl, and the jump is monotone-safe since it is
        # only kept on strict decrease.
        accepted += 1
        if use_irls and accepted % 10 == 0:
            direction = it.c - snapshot
            for theta in (16.0, 8.0, 4.0, 2.0):
                candidate = ws.iterate(it.c + theta * direction)
                if candidate.value < it.value:
                    it = candidate
                    history.append(it.value)
                    break
            snapshot = it.c
    return it.c, it.value, iterations, converged, history


def _deterministic_init(spec: FunctionalSpec, grid: QuadratureGrid, ws: _Workspace, n: int) -> np.ndarray:
    if spec.geometry == HYPERBOLIC:
        c = np.zeros(n, dtype=complex)
        c[0] = 1.0 / (1.0 - spec.param**2 / 2.0)
        return c
    # Planar: project the triangular-lattice candidate, rescaled to the
    # gamma-envelope, onto the coefficient space via the surrogate Gram.
    from .lattice_sigma import abrikosov_candidate, lattice_normalize

    cand = abrikosov_candidate(lattice_normalize(math.pi / 3.0, 1.0), 1.0)
    fvals = cand.f0_values(np.sqrt(spec.param) * grid.nodes)
    c = ws.V.adjoint(ws.a_wt * fvals) / ws.diagonal
    if not np.all(np.isfinite(c)) or not np.any(np.abs(c) > 0):
        c = np.zeros(n, dtype=complex)
        c[0] = 1.0
    return c


def minimize(
    spec: FunctionalSpec,
    n: int,
    config: OptimizerConfig = OptimizerConfig(),
    grid: QuadratureGrid | None = None,
) -> MinimizeResult:
    """Best-found minimizer of the density over the n-coefficient space.

    Restart 0 is deterministic (constant for hyperbolic, lattice-candidate
    projection for planar); the rest draw Gaussian coefficients scaled to unit
    weighted norm per monomial.  Ties between restarts within 1e-12 go to the
    lowest restart index so results are reproducible under concurrency.
    """
    if n < 1:
        raise ConfigurationError(f"degree bound must be >= 1, got {n}")
    if spec.beta != 1.0:
        raise ConfigurationError("minimize handles the beta = 1 functionals only")
    if grid is None:
        grid = default_grid(spec, DEFAULT_RESOLUTION, degree=n)
    ws = _Workspace(spec, grid, n)
    use_irls = config.method == "irls"

    best = None
    restart_values: list[float] = []
    for rs in range(config.restarts):
        if rs == 0:
            c0 = _deterministic_init(spec, grid, ws, n)
        else:
            rng = np.random.default_rng(config.seed * 7919 + rs)
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            c0 = raw / np.sqrt(2.0 * ws.diagonal)
        c, val, iterations, converged, history = _descend(ws, c0, config, use_irls)
        restart_values.append(val)
        if best is None or val < best[1] - 1e-12:
            best = (c, val, iterations, converged, history)

    c, _, iterations, converged, history = best
    minimizer = ComplexPolynomial(_canonicalize(c))
    report = density(minimizer, spec, default_grid(spec, grid.resolution, degree=n))
    return MinimizeResult(
        minimizer=minimizer,
        value=report.value,
        iterations=iterations,
        converged=converged,
        diagnostics=report,
        restart_values=restart_values,
        history=history,
    )
