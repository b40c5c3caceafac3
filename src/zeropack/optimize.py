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
tests hold at any stationary point.  Restarts search the rotation classes
z^j g(z^m) of the spec's symmetry order on one angular sector of the grid,
and every few restarts the full space.

A restart is one descent that switches precision once: a short burn-in of
at most BURN_IN IRLS steps in single precision, each 0.6 to 0.9 of a double
step's time on the default grids (in double on a grid whose numbers float32
cannot hold), brings the iterate into a basin, secant jumps included, and a
Newton finish in double takes it to a stationary point there: near a minimizer with no zero on a node the density is C^2 in
the coefficients, and a modified-Hessian Newton method (Nocedal & Wright,
Numerical Optimization, 2nd ed., section 3.4) converges quadratically where
IRLS steps converge linearly.  Every number reported comes from the finish.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .functionals import (
    MODULUS_FLOOR,
    DensityReport,
    FunctionalSpec,
    default_grid,
    density,
    quadratic_weights,
)
from .poly import ComplexPolynomial, RingVandermonde, gram_diagonal, vandermonde
from .quadrature import QuadratureGrid, equispaced_phases

__all__ = [
    "OptimizerConfig",
    "MinimizeResult",
    "degree_schedule",
    "minimize",
]

# Why a descent ended: a step did not lower the value (a stationary point, to
# rounding), the drop that the Newton direction of the last step predicted
# was below TOLERANCE relative to the value, or MAX_ITERATIONS steps, the cap
# of a whole descent.
STOP_REASONS = ("stationary", "tolerance", "cap")
MAX_ITERATIONS = 1500
TOLERANCE = 1e-10
# The most IRLS steps a restart takes before its Newton finish: they only
# have to reach a basin, which the finish then descends quadratically.  A
# shorter burn-in leaves longer finishes: at planar gamma=8 n=16 seed 3 the
# longest of 12 takes 32 steps after 20 and 18 after 100, but the 12
# restarts take 386 steps in all against 1,088, and land on the same winner.
BURN_IN = 20
# The Newton finish's floor on the moduli of the projected Hessian's
# eigenvalues, relative to the largest.  It bounds the step along a saddle's
# slight negative curvature: at 1e-8 such steps overshot every backtracking
# trial, so the 72 planar gamma=8 n=16 restarts of six seeds fell back to IRLS
# 64 times, against none at 1e-3.  It floors curvature; the floor under |f|
# in the IRLS weights and the Hessian is functionals.MODULUS_FLOOR.
NEWTON_FLOOR = 1e-3


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.restarts < 1:
            raise ConfigurationError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True)
class MinimizeResult:
    minimizer: ComplexPolynomial
    value: float
    iterations: int
    converged: bool
    diagnostics: DensityReport
    # Per restart: its class [m, j] ([1, 0] is the full space), value,
    # iterations, those of them that were the burn-in's single-precision IRLS
    # steps ("single_iterations", at most BURN_IN), Newton steps of the double
    # finish ("newton_iterations") and its IRLS fallbacks
    # ("fallback_iterations"), the burn-in's accepted secant jumps
    # ("extrapolations"), the finish steps whose Newton direction the floor
    # changed ("floor_steps"), the finish steps whose projected Hessian had
    # a negative eigenvalue ("negative_steps"), the smallest eigenvalue of
    # the last projected Hessian over the largest modulus ("min_curvature",
    # positive at a strict local minimum of the class), converged flag and
    # why it stopped ("stop": stationary, tolerance or cap).  The value,
    # converged and stop are the finish's.  A restart whose class holds one
    # coefficient takes no step: every count is 0, min_curvature is None and
    # its stop is stationary.
    restarts: list[dict]
    # The precision of every burn-in's node arithmetic: "single", or "double"
    # on a grid where float32 cannot hold the node values (_burn_in_precision).
    burn_in_precision: str

    @property
    def restart_values(self) -> list[float]:
        """Each restart's value, in restart order."""
        return [r["value"] for r in self.restarts]

    @property
    def capped(self) -> int:
        """The number of restarts that hit the iteration cap."""
        return sum(r["stop"] == "cap" for r in self.restarts)

    @property
    def tied(self) -> int:
        """The number of restarts within the winner's quad_err of the best restart value."""
        best = min(self.restart_values)
        return sum(v - best <= self.diagnostics.quad_err for v in self.restart_values)

    def to_json_dict(self):
        """The fields, the minimizer as pairs, the diagnostics nested and a copy of restarts, plus the properties."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            minimizer=self.minimizer.pairs(),
            restarts=copy.deepcopy(self.restarts),
            diagnostics=self.diagnostics.to_json_dict(),
            capped=self.capped,
            tied=self.tied,
            restart_values=self.restart_values,
        )
        return out


def degree_schedule(spec: FunctionalSpec) -> int:
    """The core-mass heuristic coefficient count: the core mass rounded up, ceil(r^2/(1-r^2)) or ceil(2*gamma).

    The core mass is the (hyperbolic resp. scaled Euclidean) area of the core
    region, matching the heuristic that each zero discretizes a fixed amount
    of mass.  It is not a sufficient count at finite parameters: ten more
    coefficients still lower the best-found minimum by more than 1e-3 at
    r = 0.9 (n=5 reads 0.050546, n=15 0.043091) and at gamma = 8 (n=16
    0.052997, n=26 0.051199), so acceptance criterion 8 fails on it
    (ROADMAP item 3).  The rounding guard keeps exact integer ratios (e.g.
    r = 1/sqrt(2)) from spilling over to the next integer.
    """
    return max(1, math.ceil(round(spec.core_mass, 9)))


@dataclass(frozen=True)
class _Iterate:
    """Coefficients c with their value, and the node values fz of a positive multiple of c.

    The IRLS phase fz/|fz| does not change under a positive rescale, and the
    modulus floor (MODULUS_FLOOR) binds only where |fz| is some thirty
    orders below any modulus the value resolves, so fz may belong to c
    before its optimal rescaling.  fz and af = |fz| live in buffer slot
    ``slot`` of the workspace that made them.
    """

    c: np.ndarray
    value: float
    fz: np.ndarray
    af: np.ndarray
    slot: int


def _node_buffers(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node values and moduli for two slots (iterate and trial), and one real scratch array."""
    return np.empty((2, size), dtype=complex), np.empty((2, size)), np.empty(size)


class _Workspace:
    """Node arrays for one (spec, grid, n) minimization over the class z^j g(z^m).

    The class holds the coefficients k = j (mod m); m must divide the grid's
    angular count.  |f| of a class member is 2*pi/m-periodic in the angle, so
    the workspace keeps the first n_ang/m angles of every ring with m times
    their weights: its sums, its adjoint on the class coefficients and the
    full grid's Gram diagonal are then exactly those of the full grid, and an
    IRLS step keeps the class.  m = 1 is the full space.  Node-sized results
    go into ``buffers`` (from _node_buffers, at least this grid's size), so a
    step allocates no node array; several workspaces may share one set.
    """

    def __init__(self, spec: FunctionalSpec, grid: QuadratureGrid, n: int, m: int = 1, j: int = 0, buffers=None):
        self.spec, self.grid = spec, grid
        a, b, self.c_val = quadratic_weights(spec, grid)
        sector = grid.resolution[1] // m
        self.b_wt = np.repeat(m * b, sector)
        # The reweighting's numerators, at the node arithmetic's precision.
        self.node_wt = self.b_wt
        self.diagonal = gram_diagonal(grid, a, n)[j::m]
        # The Newton solve's coordinates sqrt(G) c are these times c's real pairs.
        self.scale = np.repeat(1.0 / np.sqrt(self.diagonal), 2)
        # Factors built through this module's own vandermonde binding, which
        # bench/check_tracer.py expects to see called under minimize.
        self.V = RingVandermonde(
            np.ascontiguousarray(vandermonde(grid.radii, n)[:, j::m]),
            np.ascontiguousarray(vandermonde(equispaced_phases(grid.resolution[1], sector), n)[:, j::m]),
        )
        self.m, self.j = m, j
        size = len(self.b_wt)
        self.buffers = _node_buffers(size) if buffers is None else buffers
        fz, af, scratch = self.buffers
        self.fz, self.af, self.scratch = fz[:, :size], af[:, :size], scratch[:size]

    @cached_property
    def pair_tables(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
        """The Hessian's ring factors (see derivatives), built on the first Newton step.

        Over the class coefficients k_p = j + m*p, sum W conj(V_p) V_q is
        the sum over the rings of r^(k_p+k_q) times W's ring DFT at m*(q-p),
        and sum W conj(u)^2 V_p V_q that of r^(k_p+k_q) times the ring DFT of
        W conj(u)^2 at k_p+k_q: both index by p+q and |q-p| alone.  The
        tables are the pair index (p+q, |q-p|, q < p), the radial factors
        r^(2j+m*s) for s < 2k-1, and the sector's difference and sum waves.
        """
        m, j, grid = self.m, self.j, self.grid
        k = len(self.diagonal)
        p, q = np.indices((k, k))
        index = (p + q, np.abs(q - p), q < p)
        radial = grid.radii ** (2 * j + m * np.arange(2 * k - 1))[:, None]
        angles = 2.0 * math.pi * np.arange(len(self.V.angular)) / grid.resolution[1]
        # cos and sin of m*d*theta, d < k, interleaved so that a real product
        # views as the complex DFT at the differences.
        waves = np.outer(angles, m * np.arange(k))
        difference_waves = np.stack([np.cos(waves), np.sin(waves)], axis=2).reshape(len(angles), 2 * k)
        sum_waves = np.exp(-1j * np.outer(2 * j + m * np.arange(2 * k - 1), angles))
        return index, radial, difference_waves, sum_waves

    def single(self) -> _Workspace:
        """This workspace with its node arithmetic in single precision.

        The ring product's factors and the node values are complex64, the
        moduli and weights float32, each in the first half of the memory of
        this workspace's buffers: iterates of the two workspaces overwrite
        each other's node values.  The coefficients, the Gram diagonal, A,
        the sum B (accumulated in float64) and the rescale stay double, so a
        value is off by the rounding of the node values, about 1e-8 relative.
        """
        twin = copy.copy(self)
        # r^k below float32's smallest normal would be subnormal, which slows
        # every product it enters several times over.
        radial = np.where(np.abs(self.V.radial) < np.finfo(np.float32).tiny, 0.0, self.V.radial)
        twin.V = RingVandermonde(radial.astype(np.complex64), self.V.angular.astype(np.complex64))
        twin.node_wt = self.b_wt.astype(np.float32)
        size = len(self.b_wt)
        twin.fz = self.fz.view(np.complex64)[:, :size]
        twin.af, twin.scratch = self.af.view(np.float32)[:, :size], self.scratch.view(np.float32)[:size]
        return twin

    def iterate(self, c: np.ndarray, slot: int = 0, rescale: bool = True) -> _Iterate:
        """c, or its optimal rescaling c*B/A with value C - B^2/A, from one ring product into ``slot``."""
        fz = self.V.__matmul__(c, out=self.fz[slot])
        af = np.abs(fz, out=self.af[slot])
        # A = sum a|f|^2 is the Gram norm c^H G c = sum_k G_k |c_k|^2, by Parseval on each ring.
        a = float(np.vdot(c, self.diagonal * c).real)
        b = float(np.dot(self.b_wt, af))
        if not rescale or a <= 0.0 or b <= 0.0:
            return _Iterate(c, a - 2.0 * b + self.c_val, fz, af, slot)
        return _Iterate(c * (b / a), self.c_val - b * b / a, fz, af, slot)

    def irls_step(self, it: _Iterate) -> _Iterate:
        """The reweighted solve from it, in the slot it does not use."""
        slot = 1 - it.slot
        weight = np.maximum(it.af, MODULUS_FLOOR, out=self.scratch)
        np.divide(self.node_wt, weight, out=weight)
        y = np.multiply(it.fz, weight, out=self.fz[slot])
        return self.iterate(self.V.adjoint(y) / self.diagonal, slot)

    def derivatives(self, it: _Iterate) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of the unscaled value A - 2B + C at a rescaled iterate.

        The gradient g is complex, d/dRe c + i d/dIm c: 2(G c - V^H(b u))
        with u = f/|f|.  The Hessian is real, over (Re c_0, Im c_0, Re c_1,
        ...), the layout of g viewed as real pairs and of
        functionals.gradient.  |f + df| has the second-order part
        (|df|^2 - Re(conj(u)^2 df^2)) / (2|f|), so with W = b/|f| the Hessian
        is the real matrix of the quadratic form
        dc^H (2G - M) dc + Re(dc^T N dc),  M = V^H W V,  N = V^T W conj(u)^2 V,
        and each of M and N takes one ring product.  Since f = V c, the
        gradient's V^H(b u) = V^H W f is M c: it takes no ring product of its
        own.  It overwrites the node arrays of the slot the iterate does not
        use.
        """
        other = 1 - it.slot
        inverse = np.reciprocal(np.maximum(it.af, MODULUS_FLOOR, out=self.af[other]), out=self.af[other])
        weight = np.multiply(self.b_wt, inverse, out=self.scratch)
        # fz belongs to c/s, and a rescaled iterate has A = B = s * sum b|fz|:
        # W is weight/s.
        s = float(np.vdot(it.c, self.diagonal * it.c).real) / float(np.dot(self.b_wt, it.af))
        (total, diff, lower), pair_radial, difference_waves, sum_waves = self.pair_tables
        rings = (pair_radial.shape[1], -1)
        differences = (pair_radial @ (weight.reshape(rings) @ difference_waves)).view(complex)
        # W u^2 s = b fz^2 / |fz|^3, whose sums against the conjugate waves are conj(N) s.
        np.multiply(np.square(inverse, out=inverse), weight, out=inverse)
        wu2 = np.multiply(np.square(it.fz, out=self.fz[other]), inverse, out=self.fz[other])
        sums = (pair_radial @ wu2.reshape(rings).view(np.float64)).view(complex)
        m = differences[total, diff]
        m[lower] = m[lower].conj()
        h = m / -s
        # fz = V c / s, so the gradient's V^H(b u) = V^H(weight fz) is M c.
        g = 2.0 * (self.diagonal * it.c + h @ it.c)
        n = (np.einsum("sa,sa->s", sums, sum_waves).conj() / s)[total]
        k = len(h)
        h.flat[:: k + 1] += 2.0 * self.diagonal
        # The rows d/dRe c_p and d/dIm c_p are conj(2G - M + N) and i conj(2G - M - N), as real pairs.
        plus, minus = h + n, h - n
        hessian = np.empty((k, 2, k, 2))
        hessian[:, 0, :, 0], hessian[:, 0, :, 1] = plus.real, -plus.imag
        hessian[:, 1, :, 0], hessian[:, 1, :, 1] = minus.imag, minus.real
        return g, hessian.reshape(2 * k, 2 * k)

    def newton_direction(self, it: _Iterate) -> tuple[np.ndarray, float, np.ndarray]:
        """The saddle-free Newton direction d at a rescaled iterate, the drop its model predicts, and the curvature.

        d solves the Hessian system with the phase direction i*c projected
        out, since the value does not change along it, and with the
        eigenvalues of the projected Hessian replaced by their moduli, floored
        at NEWTON_FLOOR times the largest: a descent direction at a saddle
        too.  The solve runs in the coordinates sqrt(G) c, where A's part of
        the Hessian is twice the identity.  The curvature is the projected
        Hessian's eigenvalues over the largest modulus, without the phase
        direction's, which is 0 to rounding and no curvature of the value:
        the floor raised those whose modulus is below NEWTON_FLOOR.
        """
        g, hessian = self.derivatives(it)
        scale = self.scale
        phase = (1j * it.c).view(np.float64) / scale
        phase /= np.linalg.norm(phase)
        # (I - p p^T) H (I - p p^T) for the unit phase direction p is
        # H - p w^T - w p^T with w = H p - (p.H p / 2) p.
        hessian = scale[:, None] * hessian * scale
        w = hessian @ phase
        w -= 0.5 * np.dot(phase, w) * phase
        pw = np.outer(phase, w)
        hessian -= pw
        hessian -= pw.T
        lam, vec = np.linalg.eigh(hessian)
        # eigh sorts the eigenvalues ascending.
        largest = max(-lam[0], lam[-1])
        # The phase direction's eigenvector is the one most parallel to it.
        curvature = np.delete(lam, np.argmax(np.abs(phase @ vec))) / largest
        lam = np.maximum(np.abs(lam), NEWTON_FLOOR * largest)
        step = scale * g.view(np.float64)
        along = vec.T @ (step - np.dot(phase, step) * phase)
        step = vec @ (along / lam)
        d = -(scale * (step - np.dot(phase, step) * phase)).view(complex)
        return d, 0.5 * float(np.sum(along**2 / lam)), curvature


def _canonicalize(c: np.ndarray) -> np.ndarray:
    """Rotate the free global phase so the leading nonzero coefficient is >= 0."""
    nz = np.flatnonzero(np.abs(c) > 0)
    if nz.size == 0:
        return c
    lead = c[nz[-1]]
    return c * np.exp(-1j * np.angle(lead))


def _burn_in(ws: _Workspace, c: np.ndarray) -> tuple[_Iterate, int, int]:
    """The iterate, step count and accepted secant jumps of at most BURN_IN IRLS steps on ws from c.

    The burn-in ends early on a step that does not decrease the value, or
    whose drop is below TOLERANCE relative to the value, and within
    MAX_ITERATIONS steps.  Every tenth step it tries a secant jump along the
    last ten steps.
    """
    it = ws.iterate(c, rescale=False)
    iterations = extrapolations = 0
    snapshot = it.c
    while iterations < min(BURN_IN, MAX_ITERATIONS):
        iterations += 1
        new = ws.irls_step(it)
        # The step minimizes a majorant that touches the value at it, so it
        # can rise only by rounding: a rise means the iterate is stationary.
        if not new.value <= it.value:
            break
        drop = it.value - new.value
        it = new
        if drop < TOLERANCE * max(abs(it.value), 1e-30):
            break
        if iterations % 10 == 0:
            # Secant extrapolation along the recent trajectory: flat valleys make
            # plain reweighting crawl, and the jump is monotone-safe since it is
            # only kept on strict decrease.  At low degree it is also what
            # crosses into the better basin.
            direction = it.c - snapshot
            for theta in (16.0, 8.0, 4.0, 2.0):
                candidate = ws.iterate(it.c + theta * direction, 1 - it.slot)
                if candidate.value < it.value:
                    it = candidate
                    extrapolations += 1
                    break
            snapshot = it.c
    return it, iterations, extrapolations


def _descend(workspaces: tuple[_Workspace, _Workspace], c: np.ndarray):
    """Coefficients, value and step counts of one restart's descent.

    ``workspaces`` are the burn-in's and the finish's: a single-precision
    twin and its double workspace, or the double workspace twice where
    float32 cannot hold the grid's numbers (_burn_in_precision).  The
    burn-in (_burn_in) runs on the first, and the Newton finish (_finish) on
    the double one, from the burn-in's iterate rescaled there; the finish's
    value and stop are the restart's, and every stop but the cap counts as
    converged.  The step counts are iterations, the burn-in's
    ("single_iterations"), the finish's Newton and fallback IRLS steps
    ("newton_iterations", "fallback_iterations"), the burn-in's accepted
    secant jumps ("extrapolations"), the finish's certificate ("floor_steps",
    "negative_steps", "min_curvature"), converged and stop.

    A class of one coefficient, {c z^k}, takes no step: its value depends on
    |c| alone, so the start rescaled on the double workspace is the class
    minimum, and the first workspace is not read.  It reports 0 for every
    step count, floor_steps and negative_steps, no min_curvature, and stop
    "stationary".
    """
    single, double = workspaces
    if len(c) == 1:
        it = double.iterate(c)
        steps = dict.fromkeys(("single_iterations", "extrapolations", "iterations", "newton_iterations",
                               "fallback_iterations", "floor_steps", "negative_steps"), 0)
        return it.c, it.value, {**steps, "min_curvature": None, "converged": True, "stop": "stationary"}
    it, steps, extrapolations = _burn_in(single, c)
    it, finish = _finish(double, double.iterate(it.c), steps)
    return it.c, it.value, {"single_iterations": steps, "extrapolations": extrapolations, **finish}


def _finish(ws: _Workspace, it: _Iterate, iterations: int) -> tuple[_Iterate, dict]:
    """Newton steps on a double workspace from the rescaled iterate it, after ``iterations`` steps of the descent.

    Each step tries it + t*d along the Newton direction (newton_direction),
    t = 1, 1/2, 1/4, 1/8, rescaled, and takes the first trial whose value is
    below it's, else one IRLS step.  The finish ends at the first of: a step
    that does not lower the value ("stationary"), a step along a Newton
    direction whose predicted drop is below TOLERANCE relative to the value
    ("tolerance") and MAX_ITERATIONS steps of the whole descent ("cap").
    Returns the last iterate and the step counts, with the certificate of
    the Newton directions: on how many of them the floor raised a modulus
    ("floor_steps"), on how many the projected Hessian had a negative
    eigenvalue ("negative_steps"), and the last one's smallest curvature
    ("min_curvature", None if there was none).
    """
    newton = fallback = floored = negative = 0
    min_curvature = None
    stop = "cap"
    while iterations < MAX_ITERATIONS:
        d, predicted, curvature = ws.newton_direction(it)
        floored += bool(np.min(np.abs(curvature)) < NEWTON_FLOOR)
        min_curvature = float(np.min(curvature))
        negative += min_curvature < 0.0
        iterations += 1
        trials = (ws.iterate(it.c + t * d, 1 - it.slot) for t in (1.0, 0.5, 0.25, 0.125))
        new = next((trial for trial in trials if trial.value < it.value), None)
        if new is None:
            fallback += 1
            new = ws.irls_step(it)
        else:
            newton += 1
        if not new.value < it.value:
            stop = "stationary"
            break
        it = new
        if predicted < TOLERANCE * max(abs(it.value), 1e-30):
            stop = "tolerance"
            break
    counts = {"iterations": iterations, "newton_iterations": newton, "fallback_iterations": fallback,
              "floor_steps": floored, "negative_steps": negative, "min_curvature": min_curvature,
              "converged": stop != "cap", "stop": stop}
    return it, counts


def _burn_in_precision(grid: QuadratureGrid, diagonal: np.ndarray) -> str:
    """The precision of a burn-in on grid, whose Gram diagonal is ``diagonal``: "single" where float32 holds it, else "double".

    The single-precision twin holds the radial factors r^k, at most R^(n-1)
    for the grid's largest radius R, and the node values: by Cauchy-Schwarz
    |f| <= sqrt(A) sqrt(sum_k R^(2k) / G_k) on the grid, with A = c^H G c
    about n at a start and at most C = 1 after a rescale.  Both bounds are
    compared with float32's largest value, 3.4e38, leaving out sqrt(A): no
    grid tried has a node bound between 4.1e26 and 1.7e44, so that factor
    of at most about sqrt(n) decides nothing.  The node bound reads 9.1 and
    9.7e3 on the bench's grids and at most 4.1e26 on the value panel's and
    on starred planar grids up to gamma=16 n=42, but 1.7e44 at starred
    gamma=32 n=64, where the twin overflowed.  The radial bound
    reads 5.1e47 at starred gamma=0.5 n=40, whose node bound is 3.9e24.
    """
    radius = float(np.max(grid.radii))
    largest = float(np.finfo(np.float32).max)
    with np.errstate(over="ignore"):
        node_bound = math.sqrt(np.sum(radius ** (2 * np.arange(len(diagonal))) / diagonal))
        radial_bound = radius ** (len(diagonal) - 1)
    return "single" if max(node_bound, radial_bound) < largest else "double"


def _restart_classes(spec: FunctionalSpec, grid: QuadratureGrid, n: int, restarts: int) -> list[tuple[int, int]]:
    """The class (m, j) that each restart searches; (1, 0) is the full space.

    m = gcd(spec.symmetry, n_ang), so that an IRLS step keeps the class.
    Restart r searches class (m, j) when r mod (m+1) = j < m, and the full
    space when r mod (m+1) = m or when the class has no coefficient (j >= n).
    """
    m = math.gcd(spec.symmetry, grid.resolution[1])
    return [(m, r % (m + 1)) if r % (m + 1) < min(m, n) else (1, 0) for r in range(restarts)]


def minimize(
    spec: FunctionalSpec,
    n: int,
    config: OptimizerConfig = OptimizerConfig(),
    grid: QuadratureGrid | None = None,
) -> MinimizeResult:
    """Best-found minimizer of the density over the n-coefficient space.

    Restart r draws Gaussian coefficients from seed*7919 + r, scaled to unit
    weighted norm per monomial, keeps those of its class (_restart_classes)
    and descends in that class in one _descend: a burn-in of at most BURN_IN
    IRLS steps on the class's single-precision workspace (its double one
    where _burn_in_precision says "double"), then the Newton
    finish on its double one; the descent takes at most MAX_ITERATIONS
    steps.  A class's single-precision workspace is built on its first
    descent of more than one coefficient, and a workspace's Newton tables on
    its first Newton step, so a class of one coefficient builds neither.
    The restart's value and stop reason are the finish's.  After
    the last restart the winner is the lowest restart index whose value is
    within 1e-12 of the smallest restart value; the result's ``tied``
    counts the restarts within the winner's quad_err, which the grid cannot
    tell apart, without changing the winner.
    """
    if n < 1:
        raise ConfigurationError(f"degree bound must be >= 1, got {n}")
    if spec.beta != 1.0:
        raise ConfigurationError("minimize handles the beta = 1 functionals only")
    if grid is None:
        grid = default_grid(spec, degree=n)
    full = _Workspace(spec, grid, n)
    precision = _burn_in_precision(grid, full.diagonal)
    twin = _Workspace.single if precision == "single" else (lambda ws: ws)
    doubles = {(1, 0): full}
    # A class's burn-in workspace, built on its first descent that takes a step.
    twins: dict[tuple[int, int], _Workspace] = {}

    found: list[np.ndarray] = []
    restarts: list[dict] = []
    for rs, (m, j) in enumerate(_restart_classes(spec, grid, n, config.restarts)):
        if (m, j) not in doubles:
            doubles[m, j] = _Workspace(spec, grid, n, m, j, full.buffers)
        double = doubles[m, j]
        rng = np.random.default_rng(config.seed * 7919 + rs)
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c0 = (raw / np.sqrt(2.0 * full.diagonal))[j::m]
        if len(c0) > 1 and (m, j) not in twins:
            twins[m, j] = twin(double)
        c_class, val, steps = _descend((twins.get((m, j), double), double), c0)
        found.append(c_class)
        restarts.append({"class": [m, j], "value": val, **steps})

    best = min(r["value"] for r in restarts)
    win = next(i for i, r in enumerate(restarts) if r["value"] <= best + 1e-12)
    m, j = restarts[win]["class"]
    c = np.zeros(n, dtype=complex)
    c[j::m] = found[win]
    minimizer = ComplexPolynomial(_canonicalize(c))
    report = density(minimizer, spec, grid)
    return MinimizeResult(
        minimizer=minimizer,
        value=report.value,
        iterations=restarts[win]["iterations"],
        converged=restarts[win]["converged"],
        diagnostics=report,
        restarts=restarts,
        burn_in_precision=precision,
    )
