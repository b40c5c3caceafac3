import copy
import dataclasses
import math

import numpy as np
import pytest

from zeropack import (
    ComplexPolynomial,
    ConfigurationError,
    FunctionalSpec,
    OptimizerConfig,
    build_grid,
    default_grid,
    degree_schedule,
    density,
    gradient,
    minimize,
)
from zeropack.functionals import quadratic_parts, quadratic_weights
from zeropack.optimize import (
    BURN_IN,
    NEWTON_FLOOR,
    STOP_REASONS,
    _burn_in,
    _burn_in_precision,
    _descend,
    _Iterate,
    _restart_classes,
    _Workspace,
)
from zeropack.poly import RingVandermonde, gram_diagonal, vandermonde

from conftest import random_poly


def test_degree_schedule_examples():
    assert degree_schedule(FunctionalSpec("hyperbolic", 0.9)) == 5
    assert degree_schedule(FunctionalSpec("planar", 8.0)) == 16
    assert degree_schedule(FunctionalSpec("hyperbolic", 1.0 / math.sqrt(2.0))) == 1
    assert degree_schedule(FunctionalSpec("hyperbolic", 0.5)) == 1
    assert degree_schedule(FunctionalSpec("planar", 1.0)) == 2
    with pytest.raises(ConfigurationError):
        degree_schedule(FunctionalSpec("hyperbolic", 1.0))
    with pytest.raises(ConfigurationError):
        degree_schedule(FunctionalSpec("spherical", 0.5))


def test_optimal_scale_planar_constant():
    # The workspace rescales c to c*B/A.  Oracle: the ratio of closed-form
    # Gaussian integrals, 2/(1+e^{-gamma}).
    g = 1.0
    spec = FunctionalSpec("planar", g)
    ws = _Workspace(spec, default_grid(spec), 1)
    t = ws.iterate(np.array([1.0 + 0j])).c[0]
    assert abs(t - 2.0 / (1.0 + math.exp(-g))) < 1e-10
    # The zero polynomial has no optimal scale: it stays as it is, at density 1.
    zero = ws.iterate(np.zeros(1, dtype=complex))
    assert zero.c[0] == 0 and abs(zero.value - 1.0) < 1e-12


def test_optimal_scale_at_minimizer_is_one():
    # The winner is at its own optimal scale: B/A = 1.
    spec = FunctionalSpec("planar", 2.0)
    res = minimize(spec, 4, OptimizerConfig(restarts=3, seed=2))
    a, b, _ = quadratic_parts(res.minimizer, spec, default_grid(spec))
    assert abs(b / a - 1.0) < 1e-5


def test_optimal_scale_never_increases_density(rng):
    # The rescaled value C - B^2/A is the density of c*B/A and at most that of c.
    spec = FunctionalSpec("hyperbolic", 0.7)
    grid = default_grid(spec)
    ws = _Workspace(spec, grid, 5)
    for _ in range(50):
        f = random_poly(rng, 5)
        it = ws.iterate(f.coeffs)
        assert abs(it.value - density(ComplexPolynomial(it.c), spec, grid).value) < 1e-12
        assert it.value <= density(f, spec, grid).value + 1e-12


def test_minimize_planar_degree_one_closed_form():
    # One-dimensional problem: minimizer is the constant 2/(1+e^{-gamma}).
    g = 1.0
    expect_val = 1.0 - (2.0 / g) * (1 - math.exp(-g)) ** 2 / (1 - math.exp(-2 * g))
    spec = FunctionalSpec("planar", g)
    res = minimize(spec, 1, OptimizerConfig(restarts=2))
    assert res.converged
    assert abs(res.value - expect_val) < 1e-8
    assert abs(abs(res.minimizer.coeffs[0]) - 2.0 / (1.0 + math.exp(-g))) < 1e-8
    _assert_rescaled_monomial(res, spec)


def test_minimize_hyperbolic_degree_one_closed_form():
    # c* = (area of D(0,r)) / (int (1-|z|^2) dA) = 8/7 at r = 1/2.
    r = 0.5
    spec = FunctionalSpec("hyperbolic", r)
    res = minimize(spec, 1, OptimizerConfig(restarts=2))
    assert res.converged
    assert abs(abs(res.minimizer.coeffs[0]) - 8.0 / 7.0) < 1e-8
    ell1 = (8.0 / 7.0) * r * r / math.log(1 / (1 - r * r))
    assert abs(res.value - (1.0 - ell1)) < 1e-8
    _assert_rescaled_monomial(res, spec)


def _assert_rescaled_monomial(res, spec):
    # A one-coefficient class takes no step: its rescaled start is its
    # minimum, of value C - B^2/A for the monomial.
    assert res.iterations == 0
    assert all(r["iterations"] == r["single_iterations"] == r["newton_iterations"] == 0 for r in res.restarts)
    assert all(r["stop"] == "stationary" for r in res.restarts)
    a, b, c = quadratic_parts(ComplexPolynomial([1.0]), spec, default_grid(spec))
    assert abs(res.value - (c - b * b / a)) <= 1e-15


@pytest.mark.parametrize(
    "geometry,param",
    [("hyperbolic", 0.8), ("planar", 1.0), ("planar", 4.0)],
)
def test_ell_equality_at_minimizer(geometry, param):
    spec = FunctionalSpec(geometry, param)
    n = degree_schedule(spec)
    res = minimize(spec, n, OptimizerConfig(restarts=3, seed=1))
    d = res.diagnostics
    assert abs(d.ell1 - d.ell2) < 1e-5
    assert abs(res.value - (1.0 - d.ell1)) < 1e-5


def test_monotone_descent_history(monkeypatch):
    # Each IRLS step and Newton direction of a restart starts from a value no
    # higher than the one before; only the switch to double may round up,
    # and the restart's value ends the descent.
    descents = _record_descents(monkeypatch)
    spec = FunctionalSpec("hyperbolic", 0.85)
    minimize(spec, 3, OptimizerConfig(restarts=2, seed=5))
    assert len(descents) == 2
    for _, events, (_, value, _) in descents:
        single = [v for _, dtype, v in events if dtype == np.complex64]
        double = [v for _, dtype, v in events if dtype == np.complex128] + [value]
        assert all(b <= a for a, b in zip(single[:-1], single[1:]))
        assert double[0] <= single[-1] + 1e-7
        assert all(b <= a for a, b in zip(double[:-1], double[1:]))


def test_value_recomputed_on_fresh_grid():
    spec = FunctionalSpec("planar", 2.0)
    res = minimize(spec, 4, OptimizerConfig(restarts=2))
    fresh = density(res.minimizer, spec, default_grid(spec)).value
    assert abs(res.value - fresh) < 1e-8


def test_value_reported_on_the_searched_grid():
    # A caller's grid, split where the default grid is not, is the grid the
    # winner is scored on: the reported value is the winning restart's.
    spec = FunctionalSpec("planar", 4.0)
    grid = build_grid((0, 0.5, 1.0), (48, 66))
    res = minimize(spec, 8, OptimizerConfig(restarts=4, seed=1), grid)
    assert abs(res.value - min(res.restart_values)) <= 1e-12
    assert res.value == density(res.minimizer, spec, grid).value


def test_stationarity_when_converged():
    for geometry, param, n in (("hyperbolic", 0.8, 2), ("planar", 2.0, 4)):
        spec = FunctionalSpec(geometry, param)
        res = minimize(spec, n, OptimizerConfig(restarts=3, seed=3))
        if res.converged:
            g = gradient(res.minimizer, spec)
            assert np.linalg.norm(g) < 1e-4 * (1.0 + abs(res.value))


def test_rotation_quotient_and_canonicalization(rng):
    spec = FunctionalSpec("planar", 2.0)
    grid = default_grid(spec)
    f = random_poly(rng, 4)
    base = density(f, spec, grid).value
    for theta in (0.7, 2.1):
        rotated = ComplexPolynomial(np.exp(1j * theta) * f.coeffs)
        assert abs(density(rotated, spec, grid).value - base) < 1e-12
    res = minimize(spec, 3, OptimizerConfig(restarts=2, seed=4))
    lead = res.minimizer.coeffs[int(res.minimizer.degree())]
    assert abs(lead.imag) < 1e-10 * max(1.0, abs(lead))
    assert lead.real >= 0


def test_restart_determinism():
    spec = FunctionalSpec("planar", 2.0)
    cfg = OptimizerConfig(restarts=3, seed=11)
    r1 = minimize(spec, 3, cfg)
    r2 = minimize(spec, 3, cfg)
    assert r1.value == r2.value
    assert np.array_equal(r1.minimizer.coeffs, r2.minimizer.coeffs)
    assert r1.restart_values == r2.restart_values


def test_minimize_validation():
    with pytest.raises(ConfigurationError):
        minimize(FunctionalSpec("planar", 1.0), 0)
    with pytest.raises(ConfigurationError):
        minimize(FunctionalSpec("planar", 1.0, beta=2.0), 2)
    # a hyperbolic grid must stay inside the unit disk
    with pytest.raises(ConfigurationError):
        minimize(FunctionalSpec("hyperbolic", 0.8), 2, grid=build_grid((0, 3.0), (32, 32)))
    # 16 equispaced angles cannot integrate |f|^2 exactly for 20 coefficients
    with pytest.raises(ConfigurationError, match="at least 20 angles"):
        minimize(FunctionalSpec("planar", 8.0), 20, grid=build_grid((0, 1), (32, 16)))
    with pytest.raises(ConfigurationError, match="restarts"):
        OptimizerConfig(restarts=0)
    # A negative seed would reach numpy's default_rng as a negative seed*7919 + r.
    with pytest.raises(ConfigurationError, match="seed"):
        OptimizerConfig(seed=-1)
    # The step cap and the tolerance are module constants, not settings.
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["seed", "restarts"]
    for field in ("max_iterations", "tolerance"):
        with pytest.raises(TypeError, match=field):
            OptimizerConfig(**{field: 1})


def test_minimize_result_json():
    res = minimize(FunctionalSpec("planar", 2.0), 4, OptimizerConfig(restarts=5, seed=1))
    d = res.to_json_dict()
    assert set(d) == {
        "minimizer", "value", "iterations", "converged", "restart_values", "restarts", "capped", "tied", "diagnostics",
        "burn_in_precision",
    }
    assert d["burn_in_precision"] == "single"
    assert len(d["minimizer"][0]) == 2
    # One entry per restart, in restart order, naming the class it searched.
    assert [r["class"] for r in d["restarts"]] == [[3, 0], [3, 1], [3, 2], [1, 0], [3, 0]]
    assert [r["value"] for r in d["restarts"]] == d["restart_values"]
    assert all(
        set(r) == {
            "class", "value", "iterations", "single_iterations", "newton_iterations", "fallback_iterations",
            "extrapolations", "floor_steps", "negative_steps", "min_curvature", "converged", "stop",
        }
        for r in d["restarts"]
    )
    # Every step is an IRLS step of the burn-in, or a Newton or fallback step of the finish.
    assert all(
        r["iterations"] == r["single_iterations"] + r["newton_iterations"] + r["fallback_iterations"]
        for r in d["restarts"]
    )
    assert all(r["converged"] is True for r in d["restarts"])
    # A class of one coefficient takes no step; every other restart takes at least one.
    steps = ("iterations", "single_iterations", "newton_iterations", "fallback_iterations", "extrapolations",
             "floor_steps", "negative_steps")
    single_coefficient = [len(range(j, 4, m)) == 1 for m, j in (r["class"] for r in d["restarts"])]
    assert single_coefficient == [False, True, True, False, False]
    for r, single in zip(d["restarts"], single_coefficient):
        if single:
            assert all(r[key] == 0 for key in steps) and r["stop"] == "stationary"
            assert r["min_curvature"] is None
        else:
            assert r["iterations"] >= 1
            # Every finish step takes one Newton direction, and the floor may
            # have changed each, or its Hessian had a negative eigenvalue.
            assert 0 <= r["floor_steps"] <= r["newton_iterations"] + r["fallback_iterations"]
            assert 0 <= r["negative_steps"] <= r["newton_iterations"] + r["fallback_iterations"]
            assert -1.0 <= r["min_curvature"] <= 1.0
    assert all(r["stop"] in STOP_REASONS and r["converged"] == (r["stop"] != "cap") for r in d["restarts"])
    assert d["capped"] == 0
    # The winner is the lowest value whatever the ties within quad_err.
    best = min(d["restart_values"])
    assert d["tied"] == sum(v - best <= d["diagnostics"]["quad_err"] for v in d["restart_values"]) >= 1
    # A secant jump is tried every tenth step and at most one is accepted each time.
    assert all(type(r["extrapolations"]) is int for r in d["restarts"])
    assert all(0 <= r["extrapolations"] <= r["iterations"] // 10 for r in d["restarts"])
    assert d == minimize(FunctionalSpec("planar", 2.0), 4, OptimizerConfig(restarts=5, seed=1)).to_json_dict()


def test_minimize_result_json_is_a_copy():
    # Editing the JSON dict, at either level of its restarts, leaves the result as it was.
    res = minimize(FunctionalSpec("planar", 2.0), 4, OptimizerConfig(restarts=2, seed=1))
    values, tied, restarts = res.restart_values, res.tied, copy.deepcopy(res.restarts)
    d = res.to_json_dict()
    d["restarts"][0]["value"] = -1.0
    d["restarts"][1]["class"][0] = 99
    assert res.restart_values == values and res.tied == tied and res.restarts == restarts


def test_starred_minimization_permitted():
    # Not used by the equality pipeline, but the optimizer must accept it:
    # the starred minimum dominates the unstarred one, and the search finds
    # no worse than the unstarred winner scored starred.  At gamma=16 n=32 a
    # floor relative to the grid's largest |f|, which a starred grid has at
    # its support's edge, clipped the whole core: the search returned 0.504
    # against 0.1175 for the unstarred winner (0.0861 with the fixed floor).
    for gamma, n, config in ((1.0, 2, OptimizerConfig(restarts=2, seed=6)),
                             (16.0, 32, OptimizerConfig(restarts=12, seed=0))):
        spec_s = FunctionalSpec("planar", gamma, starred=True)
        spec_u = FunctionalSpec("planar", gamma)
        res_s = minimize(spec_s, n, config)
        res_u = minimize(spec_u, n, config)
        assert res_s.value >= res_u.value - 1e-8
        assert res_s.value <= density(res_u.minimizer, spec_s, default_grid(spec_s, degree=n)).value
        assert res_s.diagnostics.spec.starred


def test_irls_steps_descend_on_a_starred_grid():
    # An IRLS step minimizes a majorant that touches the value at the
    # iterate, so its value cannot rise past rounding.  With a floor relative
    # to the grid's largest |f| (1.2e20 at the starred support's edge, 6e5 on
    # the core) the floor lay above every core node, and these steps rose by
    # up to +0.41.
    spec = FunctionalSpec("planar", 16.0, starred=True)
    ws = _workspace(spec, 32)
    for seed in range(4):
        it = ws.iterate(_random_start(ws, seed))
        for _ in range(30):
            new = ws.irls_step(it)
            assert new.value <= it.value + 1e-12 * abs(it.value), seed
            it = new


def test_no_restart_capped_at_gamma_32():
    # |f| grows like exp(gamma |z|^2) over the core, so past gamma ~ 30 a
    # floor relative to the grid's largest |f| reached the centre: 3 of
    # these restarts hit the cap, with 6,042 IRLS fallbacks in all.
    res = minimize(FunctionalSpec("planar", 32.0), 64, OptimizerConfig(restarts=12, seed=0))
    assert res.capped == 0
    assert sum(r["fallback_iterations"] for r in res.restarts) < 100


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma,n", [(32.0, 64), (0.5, 40)], ids=["gamma-32-n-64", "gamma-0.5-n-40"])
def test_a_twin_out_of_float32_range_burns_in_in_double(gamma, n):
    # At starred gamma=32 n=64 the node values pass float32's largest
    # value, 3.4e38 (the node bound reads 1.7e44); at starred gamma=0.5 n=40 the radial factor
    # r^39 reaches 5.1e47.  A single-precision burn-in overflowed on both
    # (11 and 7 warnings here), so these burn in in double.
    res = minimize(FunctionalSpec("planar", gamma, starred=True), n, OptimizerConfig(seed=0, restarts=3))
    assert res.burn_in_precision == "double"
    assert all(r["iterations"] == r["single_iterations"] + r["newton_iterations"] + r["fallback_iterations"]
               for r in res.restarts)
    assert math.isfinite(res.value) and res.capped == 0


def test_the_bench_and_panel_grids_burn_in_in_single_precision():
    # The node bound reads at most 5.2e14 (unstarred gamma=32 n=64) and
    # 4.1e26 (starred gamma=16 n=42), far below float32's largest value.
    cases = [(FunctionalSpec("planar", gamma), n) for gamma in (4.0, 8.0, 16.0, 32.0) for n in (int(2 * gamma),
                                                                                                int(2 * gamma) + 10)]
    cases += [(FunctionalSpec("hyperbolic", r), n) for r, n in ((0.9, 5), (0.9, 15), (0.95, 10), (0.95, 20))]
    cases += [(FunctionalSpec("planar", 16.0, starred=True), n) for n in (32, 42)]
    for spec, n in cases:
        grid = default_grid(spec, degree=n)
        assert _burn_in_precision(grid, _workspace(spec, n, grid=grid).diagonal) == "single", (spec, n)


def test_workspace_gradient_matches_central_differences_at_gamma_32():
    # The Newton finish's gradient against the change of the unscaled value
    # A - 2B + C along random directions, at a burn-in's iterate.  With the
    # relative floor they read 3% to 200% apart.
    spec, n, h = FunctionalSpec("planar", 32.0), 64, 1e-5
    ws = _workspace(spec, n)
    it, _, _ = _burn_in(ws, _random_start(ws, 0))
    it = ws.iterate(it.c)
    g, _ = ws.derivatives(it)
    rng = np.random.default_rng(1)
    for _ in range(3):
        d = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.abs(it.c)
        vp, vm = (ws.iterate(it.c + t * d, rescale=False).value for t in (h, -h))
        along = float(np.vdot(g, d).real)
        assert abs(along - (vp - vm) / (2.0 * h)) <= 1e-7 * abs(along)


def test_a_zero_node_leaves_the_steps_finite():
    # |f| = 0 on a node divides by the modulus floor: the single and double
    # IRLS steps and the Newton direction stay finite.  A floor below
    # float32's smallest normal would round to 0 in the single-precision
    # twin, and its step would divide by zero.
    spec = FunctionalSpec("planar", 8.0)
    double = _workspace(spec, 16)
    single = _workspace(spec, 16).single()
    c = _random_start(double, 3)
    for ws, rescale in ((single, False), (double, True)):
        it = ws.iterate(c, rescale=rescale)
        it.fz[5], it.af[5] = 0.0, 0.0
        step = ws.irls_step(it)
        assert np.all(np.isfinite(step.c)) and math.isfinite(step.value)
    d, predicted, curvature = double.newton_direction(it)
    assert np.all(np.isfinite(d)) and math.isfinite(predicted) and np.all(np.isfinite(curvature))


def _workspace(spec, n, m=1, j=0, grid=None):
    return _Workspace(spec, grid or default_grid(spec, degree=n), n, m, j)


def _random_start(ws, seed):
    rng = np.random.default_rng(seed)
    k = len(ws.diagonal)
    return (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0 * ws.diagonal)


def _embed(c, n, m, j):
    full = np.zeros(n, dtype=complex)
    full[j::m] = c
    return full


def _counting(counts, name, fn):
    """fn, counting its calls in counts[name]."""

    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def _count_ring_products(monkeypatch):
    """Counts of the forward ("forward") and adjoint ("adjoint") ring products made from now on."""
    counts = {"forward": 0, "adjoint": 0}
    monkeypatch.setattr(RingVandermonde, "__matmul__", _counting(counts, "forward", RingVandermonde.__matmul__))
    monkeypatch.setattr(RingVandermonde, "adjoint", _counting(counts, "adjoint", RingVandermonde.adjoint))
    return counts


def test_irls_step_makes_one_forward_product_and_one_adjoint(monkeypatch):
    # Each IRLS step needs V^H of the reweighted phases and V of the new
    # coefficients, once each; the iterate's node values serve the next step.
    # A long burn-in, with several secant jumps, tests the count best.
    monkeypatch.setattr("zeropack.optimize.BURN_IN", 100)
    ws = _workspace(FunctionalSpec("planar", 2.0), 4)
    c0 = _random_start(ws, 1)
    counts = _count_ring_products(monkeypatch)
    counts["steps"] = 0
    monkeypatch.setattr(_Workspace, "irls_step", _counting(counts, "steps", _Workspace.irls_step))
    _, iterations, _ = _burn_in(ws, c0)
    assert iterations > 20
    assert counts["adjoint"] == counts["steps"] == iterations
    # Secant extrapolation tries at most four candidates every tenth step.
    assert counts["forward"] <= counts["adjoint"] + 4 * (iterations // 10) + 1


def test_newton_direction_makes_no_ring_product(monkeypatch):
    # The Newton direction reads the iterate's node values: the gradient's
    # V^H(b u) is M c for the weighted Gram M the Hessian needs anyway, so it
    # takes neither an adjoint nor a forward ring product.
    ws = _workspace(FunctionalSpec("planar", 8.0), 16)
    it = ws.iterate(_random_start(ws, 1))
    counts = _count_ring_products(monkeypatch)
    ws.newton_direction(it)
    assert counts == {"forward": 0, "adjoint": 0}


@pytest.mark.parametrize(
    "geometry,param,m,j",
    [
        pytest.param("hyperbolic", 0.9, 1, 0, id="hyperbolic-0.9"),
        pytest.param("planar", 8.0, 1, 0, id="planar-8.0"),
        pytest.param("planar", 8.0, 3, 0, id="planar-8.0-class-3-0"),
        pytest.param("planar", 8.0, 3, 1, id="planar-8.0-class-3-1"),
    ],
)
def test_descend_value_matches_fresh_density(geometry, param, m, j, monkeypatch):
    # The closed-form value C - B^2/A carried by the burn-in's iterate must be
    # the density of its coefficients, evaluated afresh on the full grid.
    # Before every step, the node values the iterate carries in its buffer
    # slot must still be those of its coefficients: a trial written into the
    # iterate's slot would break this, most easily around accepted secant
    # jumps.  A 100-step burn-in accepts one in every case here; the shipped
    # BURN_IN accepts none at hyperbolic r=0.9.
    monkeypatch.setattr("zeropack.optimize.BURN_IN", 100)
    spec = FunctionalSpec(geometry, param)
    n = degree_schedule(spec)
    ws = _workspace(spec, n, m, j)
    step = ws.irls_step
    checked = []

    def checked_step(it):
        fresh = ws.V @ it.c
        scale = np.vdot(fresh, it.fz).real / np.vdot(fresh, fresh).real
        assert scale > 0.0
        assert np.max(np.abs(it.fz - scale * fresh)) <= 1e-12 * np.max(np.abs(it.fz))
        assert np.array_equal(it.af, np.abs(it.fz))
        checked.append(it.slot)
        return step(it)

    ws.irls_step = checked_step
    it, iterations, extrapolations = _burn_in(ws, _random_start(ws, 2))
    assert len(checked) == iterations and set(checked) == {0, 1}
    assert extrapolations >= 1, "no secant candidate was accepted"
    fresh = density(ComplexPolynomial(_embed(it.c, n, m, j)), spec, ws.grid).value
    assert abs(it.value - fresh) <= 1e-13 * abs(fresh)


class _NodeSumWorkspace(_Workspace):
    """Reference: A = sum a|f|^2 summed over the sector's nodes with quadratic_weights, not from the Gram norm."""

    def __init__(self, spec, grid, n, m=1, j=0):
        super().__init__(spec, grid, n, m, j)
        a = quadratic_weights(spec, grid)[0]
        self.a_wt = np.repeat(m * a, grid.resolution[1] // m)

    def iterate(self, c, slot=0, rescale=True):
        fz = self.V.__matmul__(c, out=self.fz[slot])
        af = np.abs(fz, out=self.af[slot])
        a, b = float(np.sum(self.a_wt * af**2)), float(np.sum(self.b_wt * af))
        if not rescale or a <= 0.0 or b <= 0.0:
            return _Iterate(c, a - 2.0 * b + self.c_val, fz, af, slot)
        return _Iterate(c * (b / a), self.c_val - b * b / a, fz, af, slot)


def _burn_in_values(ws, c):
    """_burn_in's result from c, and the value of the iterate each of its IRLS steps started from."""
    values, step = [], ws.irls_step

    def recorded(it):
        values.append(it.value)
        return step(it)

    ws.irls_step = recorded
    return _burn_in(ws, c), values


@pytest.mark.parametrize(
    "spec,n,m,j",
    [
        pytest.param(FunctionalSpec("planar", 2.0), 4, 1, 0, id="planar-2.0-full"),
        pytest.param(FunctionalSpec("planar", 2.0), 4, 3, 1, id="planar-2.0-class-3-1"),
        pytest.param(FunctionalSpec("planar", 8.0), 16, 3, 1, id="planar-8.0-class-3-1"),
        pytest.param(FunctionalSpec("hyperbolic", 0.7), 4, 1, 0, id="hyperbolic-0.7"),
    ],
)
def test_gram_norm_step_matches_node_sums(spec, n, m, j):
    # By Parseval on each equispaced ring, the Gram norm sum_k G_k |c_k|^2 is
    # the node sum of a|f|^2 for a radial weight a, in the full space and on a
    # class sector: the burn-in takes the same steps to the same values.
    grid = default_grid(spec, degree=n)
    ws, ref = _Workspace(spec, grid, n, m, j), _NodeSumWorkspace(spec, grid, n, m, j)
    c0 = _random_start(ws, 4)
    (it, *steps), values = _burn_in_values(ws, c0)
    (it_ref, *steps_ref), values_ref = _burn_in_values(ref, c0)
    assert steps == steps_ref
    assert len(values) == len(values_ref)
    assert np.max(np.abs(np.subtract(values, values_ref)) / np.abs(values_ref)) <= 1e-12
    assert abs(it.value - it_ref.value) <= 1e-12 * abs(it_ref.value)
    weighted = np.sqrt(ws.diagonal)
    assert np.max(np.abs(it.c - it_ref.c) * weighted) <= 1e-12 * np.max(np.abs(it_ref.c) * weighted)


@pytest.mark.parametrize(
    "spec,resolution",
    [
        (FunctionalSpec("planar", 8.0), None),
        (FunctionalSpec("planar", 8.0), (384, 384)),
        (FunctionalSpec("planar", 8.0, starred=True), None),
        (FunctionalSpec("hyperbolic", 0.9), (64, 96)),
    ],
)
def test_class_workspace_value_is_full_grid_density(spec, resolution, rng):
    # |f| of z^j g(z^3) is 2*pi/3-periodic, so the sector of n_ang/3 angles
    # with thrice the weights sums to the full grid's density.  Starred grids
    # are split radially, so their rows are counted by len(grid.radii).
    n = 16
    grid = default_grid(spec, resolution, degree=n)
    rows, n_ang = len(grid.radii), grid.resolution[1]
    full = _workspace(spec, n, grid=grid)
    for j in range(3):
        ws = _Workspace(spec, grid, n, 3, j, full.buffers)
        assert ws.b_wt.shape == (rows * n_ang // 3,)
        c = random_poly(rng, len(range(j, n, 3))).coeffs / np.sqrt(ws.diagonal)
        expect = density(ComplexPolynomial(_embed(c, n, 3, j)), spec, grid).value
        assert abs(ws.iterate(c, rescale=False).value - expect) <= 1e-13 * abs(expect)
        rescaled = ws.iterate(c)
        expect = density(ComplexPolynomial(_embed(rescaled.c, n, 3, j)), spec, grid).value
        assert abs(rescaled.value - expect) <= 1e-13 * abs(expect)


def test_irls_step_keeps_the_class(rng):
    # When 3 divides the angular count, a full-space step from z^j g(z^3)
    # leaves the other coefficients at rounding, and agrees with the class
    # workspace's step on one sector: a fixed point in the class is one in
    # the full space.  On 128 angles the class leaks.
    spec = FunctionalSpec("planar", 8.0)
    n = 16
    for resolution, leak in (((128, 129), 1e-13), ((128, 128), None)):
        grid = default_grid(spec, resolution, degree=n)
        full = _workspace(spec, n, grid=grid)
        for j in range(3):
            ws = _Workspace(spec, grid, n, 3, j)
            c = random_poly(rng, len(ws.diagonal)).coeffs / np.sqrt(ws.diagonal)
            step = full.irls_step(full.iterate(_embed(c, n, 3, j)))
            weighted = np.abs(step.c) * np.sqrt(full.diagonal)
            other = np.delete(weighted, np.arange(j, n, 3))
            if leak is None:
                assert np.max(other) > 1e-6 * np.max(weighted)
                continue
            assert np.max(other) <= leak * np.max(weighted)
            sector = ws.irls_step(ws.iterate(c))
            assert np.max(np.abs(sector.c - step.c[j::3]) * np.sqrt(ws.diagonal)) <= leak * np.max(weighted)
            assert abs(sector.value - step.value) <= 1e-13 * step.value


def test_restart_schedule():
    planar, hyperbolic = FunctionalSpec("planar", 8.0), FunctionalSpec("hyperbolic", 0.9)
    grid = default_grid(planar, degree=16)
    assert _restart_classes(planar, grid, 16, 12) == [(3, 0), (3, 1), (3, 2), (1, 0)] * 3
    # An angle count that 3 does not divide would let the classes leak.
    flat = default_grid(planar, (128, 128), degree=16)
    assert _restart_classes(planar, flat, 16, 12) == [(1, 0)] * 12
    assert _restart_classes(hyperbolic, default_grid(hyperbolic), 5, 12) == [(1, 0)] * 12
    # A class with no coefficient below n runs in the full space instead.
    assert _restart_classes(planar, grid, 2, 4) == [(3, 0), (3, 1), (1, 0), (1, 0)]
    res = minimize(planar, 16, OptimizerConfig(restarts=4, seed=3), flat)
    assert [r["class"] for r in res.restarts] == [[1, 0]] * 4
    assert res.diagnostics.grid_resolution == (128, 128)
    res = minimize(planar, 16, OptimizerConfig(restarts=4, seed=3))
    assert res.diagnostics.grid_resolution == (128, 129)
    assert all(r["converged"] for r in res.restarts)


def _record_descents(monkeypatch):
    """minimize's _descend calls, each as (workspaces, its steps and Newton directions in order, result).

    Each is recorded as ("step" for an IRLS step or "newton" for a Newton
    direction, the dtype of the node values of the workspace that took it,
    the value of the iterate it started from).
    """
    descents, events = [], []

    def recorded(kind, method):
        def wrapped(ws, it):
            events.append((kind, ws.fz.dtype, it.value))
            return method(ws, it)

        return wrapped

    def recording(workspaces, c):
        start = len(events)
        out = _descend(workspaces, c)
        descents.append((workspaces, events[start:], out))
        return out

    monkeypatch.setattr(_Workspace, "irls_step", recorded("step", _Workspace.irls_step))
    monkeypatch.setattr(_Workspace, "newton_direction", recorded("newton", _Workspace.newton_direction))
    monkeypatch.setattr("zeropack.optimize._descend", recording)
    return descents


def _step_dtypes(events):
    return [dtype for kind, dtype, _ in events if kind == "step"]


def _assert_double_density(entry, c, spec, n, grid):
    m, j = entry["class"]
    assert c.dtype == np.complex128
    fresh = density(ComplexPolynomial(_embed(c, n, m, j)), spec, grid).value
    assert abs(entry["value"] - fresh) <= 1e-13 * abs(fresh)


@pytest.mark.parametrize(
    "spec,restarts",
    [
        pytest.param(FunctionalSpec("planar", 8.0), 4, id="planar-8.0-classes-and-full"),
        pytest.param(FunctionalSpec("hyperbolic", 0.9), 2, id="hyperbolic-0.9"),
    ],
)
def test_reported_numbers_come_from_the_double_stage(spec, restarts, monkeypatch):
    # Each restart is one descent: a burn-in of at most BURN_IN IRLS steps in
    # single precision, then a Newton finish in double.  Every number minimize
    # reports is the finish's: a restart's value is the double density of its
    # coefficients, and the winner is the lowest of them.
    descents = _record_descents(monkeypatch)
    n = degree_schedule(spec)
    grid = default_grid(spec, degree=n)
    res = minimize(spec, n, OptimizerConfig(restarts=restarts, seed=3))
    assert len(descents) == restarts
    # One set of node buffers serves every workspace, of either precision.
    assert len({id(ws.buffers) for workspaces, _, _ in descents for ws in workspaces}) == 1
    for entry, ((ws32, ws64), events, (c, value, steps)) in zip(res.restarts, descents):
        m, j = entry["class"]
        assert (ws32.fz.dtype, ws32.af.dtype, ws64.fz.dtype, ws64.af.dtype) == (
            np.complex64, np.float32, np.complex128, np.float64,
        )
        assert len(ws32.diagonal) == len(ws64.diagonal) == len(range(j, n, m))
        assert entry == {"class": [m, j], "value": value, **steps}
        _assert_double_density(entry, c, spec, n, grid)
        # The burn-in's IRLS steps come first.  Every step of the finish
        # tries Newton first and takes an IRLS step only when no trial lowers
        # the value, and each Newton direction is followed by its step.
        single, newton, fallback = entry["single_iterations"], entry["newton_iterations"], entry["fallback_iterations"]
        assert entry["iterations"] == single + newton + fallback
        assert 0 <= entry["extrapolations"] <= single // 10
        assert 1 <= single <= BURN_IN
        assert _step_dtypes(events) == [np.complex64] * single + [np.complex128] * fallback
        finish = [kind for kind, dtype, _ in events if dtype == np.complex128]
        assert finish.count("newton") == newton + fallback
        # The finish starts where the burn-in ended: at most the burn-in's
        # last iterate's value, to the single values' rounding.
        last_single = [v for kind, dtype, v in events if kind == "step" and dtype == np.complex64][-1]
        values = [v for kind, _, v in events if kind == "newton"]
        assert values[0] <= last_single + 1e-7
        # Each Newton direction starts from the value the step before lowered;
        # a stationary stop keeps the last iterate, and any other stop ends
        # on a value below it.
        assert all(b < a for a, b in zip(values[:-1], values[1:]))
        assert (value == values[-1]) if entry["stop"] == "stationary" else (value < values[-1])
        assert entry["stop"] in ("stationary", "tolerance") and entry["converged"] is True
    assert {tuple(r["class"]) for r in res.restarts} == set(_restart_classes(spec, grid, n, restarts))
    # The bench's check of a minimize report.
    best = min(res.restart_values)
    assert abs(res.value - best) <= 1e-12
    # Restarts within 1e-12 of the best tie, and the lowest index among them wins.
    winner = next(i for i, v in enumerate(res.restart_values) if v <= best + 1e-12)
    assert res.iterations == res.restarts[winner]["iterations"]


def test_tie_chain_goes_to_the_lowest_index_within_1e12_of_the_best(monkeypatch):
    # Values x+1.5e-12, x+0.7e-12, x: restart 1 is the lowest index within
    # 1e-12 of the best, though restart 2 beats restart 0 by more than 1e-12.
    x = 0.5
    values = [x + 1.5e-12, x + 0.7e-12, x]
    order = iter(range(3))

    def fake_descend(workspaces, c0):
        k = next(order)
        steps = {"iterations": 10 + k, "converged": k == 1, "stop": "stationary" if k == 1 else "cap"}
        return np.arange(1.0, len(c0) + 1) * (k + 1) + 0j, values[k], steps

    monkeypatch.setattr("zeropack.optimize._descend", fake_descend)
    res = minimize(FunctionalSpec("hyperbolic", 0.9), 5, OptimizerConfig(restarts=3))
    assert res.restart_values == values
    np.testing.assert_array_equal(res.minimizer.coeffs, 2.0 * np.arange(1.0, 6.0))
    assert (res.iterations, res.converged) == (11, True)


def test_newton_finish_takes_few_steps(monkeypatch):
    # Newton steps converge quadratically from where a long burn-in ends:
    # no finish nears the step cap, few fall back to IRLS, and each ends on
    # the double density of its coefficients.
    monkeypatch.setattr("zeropack.optimize.BURN_IN", 100)
    descents = _record_descents(monkeypatch)
    spec, n = FunctionalSpec("planar", 8.0), 16
    res = minimize(spec, n, OptimizerConfig(restarts=12, seed=3))
    for entry, (_, _, (c, _, _)) in zip(res.restarts, descents):
        assert entry["newton_iterations"] >= 1
        # At most 19 at this seed after a 100-step burn-in.
        assert entry["newton_iterations"] + entry["fallback_iterations"] <= 20
        _assert_double_density(entry, c, spec, n, default_grid(spec, degree=n))
    assert sum(r["fallback_iterations"] for r in res.restarts) <= 3


def test_short_burn_in_halves_the_steps(monkeypatch):
    # The shipped burn-in only brings each restart into its basin, and the
    # Newton finish does the rest: the 12 restarts take 386 steps in all
    # against 1,088 after 100-step burn-ins, none capped, for the same winner.
    spec, n, config = FunctionalSpec("planar", 8.0), 16, OptimizerConfig(restarts=12, seed=3)
    res = minimize(spec, n, config)
    monkeypatch.setattr("zeropack.optimize.BURN_IN", 100)
    long = minimize(spec, n, config)
    assert res.capped == long.capped == 0
    assert sum(r["iterations"] for r in res.restarts) <= 0.5 * sum(r["iterations"] for r in long.restarts)
    assert abs(res.value - long.value) <= res.diagnostics.quad_err


@pytest.mark.parametrize("spec,n", [(FunctionalSpec("planar", 8.0), 16), (FunctionalSpec("hyperbolic", 0.9), 5)],
                         ids=["planar-8.0", "hyperbolic-0.9"])
def test_every_restart_ends_on_positive_curvature(spec, n):
    # The bench's two searches at its seed 3 (CLI seeds 6 and 7): the
    # projected Hessian at the end of every finish is positive definite, so
    # every restart ends at a strict local minimum of its class, not on a
    # saddle.  The phase direction's zero eigenvalue is left out.
    for seed in (6, 7):
        res = minimize(spec, n, OptimizerConfig(restarts=12, seed=seed))
        assert all(r["min_curvature"] > 0.0 for r in res.restarts), res.restarts
        assert all(0 <= r["floor_steps"] <= r["newton_iterations"] + r["fallback_iterations"] for r in res.restarts)


def test_negative_steps_count_the_newton_directions_at_negative_curvature(monkeypatch):
    # Each restart's negative_steps is the number of its finish's Newton
    # directions whose projected Hessian had a negative eigenvalue, as
    # counted through a wrapped newton_direction.  The bench's gamma=8 n=16
    # search at CLI seed 6 takes some.
    negative = []
    direction = _Workspace.newton_direction

    def counted(ws, it):
        out = direction(ws, it)
        negative[-1] += bool(np.min(out[2]) < 0.0)
        return out

    def descend(workspaces, c):
        negative.append(0)
        return _descend(workspaces, c)

    monkeypatch.setattr(_Workspace, "newton_direction", counted)
    monkeypatch.setattr("zeropack.optimize._descend", descend)
    res = minimize(FunctionalSpec("planar", 8.0), 16, OptimizerConfig(restarts=12, seed=6))
    assert [r["negative_steps"] for r in res.restarts] == negative
    assert sum(negative) > 0
    for r in res.restarts:
        assert 0 <= r["negative_steps"] <= r["newton_iterations"] + r["fallback_iterations"]


def test_cap_ends_the_descent_in_double(monkeypatch):
    # A cap that falls in the burn-in still ends on the double value of
    # the coefficients reached, and the restart reports it as not converged.
    monkeypatch.setattr("zeropack.optimize.MAX_ITERATIONS", 5)
    descents = _record_descents(monkeypatch)
    spec, n = FunctionalSpec("planar", 8.0), 16
    res = minimize(spec, n, OptimizerConfig(restarts=2, seed=3))
    assert res.capped == 2 and res.converged is False
    for entry, (_, events, (c, _, _)) in zip(res.restarts, descents):
        assert (entry["stop"], entry["converged"]) == ("cap", False)
        assert entry["iterations"] == entry["single_iterations"] == 5 and _step_dtypes(events) == [np.complex64] * 5
        assert [kind for kind, dtype, _ in events if dtype == np.complex128] == []
        # No Newton direction was taken, so there is no curvature to report.
        assert (entry["floor_steps"], entry["negative_steps"], entry["min_curvature"]) == (0, 0, None)
        _assert_double_density(entry, c, spec, n, default_grid(spec, degree=n))
    assert res.to_json_dict()["capped"] == 2


def test_cap_in_the_finish_ends_on_a_double_value(monkeypatch):
    # A cap two steps into the finish ends it there, on the double value of
    # the coefficients reached, and the restart reports it as not converged.
    spec, n = FunctionalSpec("planar", 8.0), 16
    single = minimize(spec, n, OptimizerConfig(restarts=1, seed=3)).restarts[0]["single_iterations"]
    monkeypatch.setattr("zeropack.optimize.MAX_ITERATIONS", single + 2)
    descents = _record_descents(monkeypatch)
    res = minimize(spec, n, OptimizerConfig(restarts=1, seed=3))
    (entry,), [(_, events, (c, value, _))] = res.restarts, descents
    assert (entry["stop"], entry["converged"], res.converged) == ("cap", False, False)
    assert (entry["iterations"], entry["single_iterations"]) == (single + 2, single)
    # Both steps lowered the value: the two Newton directions start from
    # falling values, and the restart ends below the second.
    values = [v for kind, _, v in events if kind == "newton"]
    assert entry["newton_iterations"] + entry["fallback_iterations"] == 2 and len(values) == 2
    assert value < values[1] < values[0]
    _assert_double_density(entry, c, spec, n, default_grid(spec, degree=n))


@pytest.mark.parametrize(
    "spec,m,j",
    [
        pytest.param(FunctionalSpec("planar", 8.0), 1, 0, id="planar-8.0-full"),
        pytest.param(FunctionalSpec("planar", 8.0), 3, 1, id="planar-8.0-class-3-1"),
        pytest.param(FunctionalSpec("hyperbolic", 0.9), 1, 0, id="hyperbolic-0.9"),
    ],
)
def test_single_precision_step_matches_double(spec, m, j):
    # From one iterate, a single-precision step agrees with the double one to
    # the node values' rounding, and the coefficients and values it returns
    # are double.
    n = degree_schedule(spec)
    grid = default_grid(spec, degree=n)
    # A twin shares its double workspace's buffers, so the two need their own.
    double, single = _Workspace(spec, grid, n, m, j), _Workspace(spec, grid, n, m, j).single()
    # No subnormal radial factor: r^k below float32's smallest normal is 0.
    radial = np.abs(single.V.radial)
    assert np.all((radial == 0.0) | (radial >= np.finfo(np.float32).tiny))
    it = double.iterate(_random_start(double, 6))
    for _ in range(30):
        it = double.irls_step(it)
    it32, it64 = single.iterate(it.c, rescale=False), double.iterate(it.c, rescale=False)
    assert (it32.fz.dtype, it32.af.dtype) == (np.complex64, np.float32)
    assert abs(it32.value - it64.value) <= 1e-7
    step32, step64 = single.irls_step(it32), double.irls_step(it64)
    assert step32.c.dtype == np.complex128 and type(step32.value) is float
    assert abs(step32.value - step64.value) <= 1e-7
    weighted = np.sqrt(double.diagonal)
    assert np.max(np.abs(step32.c - step64.c) * weighted) <= 1e-5 * np.max(np.abs(step64.c) * weighted)


def _dense_derivatives(spec, grid, n, m, j, c):
    """Gradient and Hessian of A - 2B + C over (Re c_0, Im c_0, ...) of the class coefficients, node by node on the full grid.

    Node i has real 2 x 2k Jacobian J_i of (Re f, Im f); A is sum a |J z|^2
    and |f| has gradient J^T u and Hessian J^T (I - u u^T) J / |f|.
    """
    a, b, _ = quadratic_weights(spec, grid)
    a, b = np.repeat(a, grid.resolution[1]), np.repeat(b, grid.resolution[1])
    V = vandermonde(grid.nodes, n)[:, j::m]
    f = V @ c
    jac = np.stack([np.stack([V.real, V.imag], 1), np.stack([-V.imag, V.real], 1)], 3).reshape(len(f), 2, -1)
    u = np.stack([f.real, f.imag], 1) / np.abs(f)[:, None]
    gradient = 2.0 * np.einsum("i,ipk,ip->k", a, jac, np.stack([f.real, f.imag], 1)) - 2.0 * np.einsum(
        "i,ipk,ip->k", b, jac, u
    )
    curvature = np.eye(2) - u[:, :, None] * u[:, None, :]
    hessian = 2.0 * np.einsum("i,ipk,ipl->kl", a, jac, jac, optimize=True) - 2.0 * np.einsum(
        "i,ipk,ipq,iql->kl", b / np.abs(f), jac, curvature, jac, optimize=True
    )
    return gradient, hessian


@pytest.mark.parametrize(
    "spec,m,j",
    [
        pytest.param(FunctionalSpec("planar", 8.0), 1, 0, id="planar-8.0-full"),
        pytest.param(FunctionalSpec("planar", 8.0), 3, 1, id="planar-8.0-class-3-1"),
        pytest.param(FunctionalSpec("hyperbolic", 0.9), 1, 0, id="hyperbolic-0.9"),
    ],
)
def test_derivatives_match_dense_oracle(spec, m, j):
    # The ring-factored gradient and Hessian of a rescaled iterate are the
    # node-by-node ones on the full grid, and the gradient is the density's.
    n = degree_schedule(spec)
    grid = default_grid(spec, degree=n)
    ws = _Workspace(spec, grid, n, m, j)
    it = ws.iterate(_random_start(ws, 8))
    for _ in range(5):
        it = ws.irls_step(it)
    g, hessian = ws.derivatives(it)
    dense_g, dense_h = _dense_derivatives(spec, grid, n, m, j, it.c)
    assert np.max(np.abs(hessian - dense_h)) <= 1e-12 * np.max(np.abs(dense_h))
    # The gradient is the difference of A's part 2 G c and B's, which nearly
    # cancel near a minimizer: its error is relative to their size.
    size = np.max(np.abs(2.0 * ws.diagonal * it.c))
    assert np.max(np.abs(g.view(np.float64) - dense_g)) <= 1e-12 * size
    full = gradient(ComplexPolynomial(_embed(it.c, n, m, j)), spec, grid).reshape(n, 2)[j::m].ravel()
    assert np.max(np.abs(g.view(np.float64) - full)) <= 1e-12 * size


def _projected_newton(ws, it):
    """Reference: newton_direction with the dense projector I - p p^T/|p|^2 applied to the Hessian and both vectors."""
    g, hessian = ws.derivatives(it)
    scale = np.repeat(1.0 / np.sqrt(ws.diagonal), 2)
    phase = (1j * it.c).view(np.float64) / scale
    project = np.eye(len(phase)) - np.outer(phase, phase / np.dot(phase, phase))
    lam, vec = np.linalg.eigh(project @ (scale[:, None] * hessian * scale) @ project)
    largest = np.max(np.abs(lam))
    curvature = np.delete(lam, np.argmax(np.abs(phase @ vec))) / largest
    lam = np.maximum(np.abs(lam), NEWTON_FLOOR * largest)
    along = vec.T @ (project @ (scale * g.view(np.float64)))
    d = -(scale * (project @ (vec @ (along / lam)))).view(complex)
    return d, 0.5 * float(np.sum(along**2 / lam)), curvature


@pytest.mark.parametrize(
    "spec,m,j",
    [
        pytest.param(FunctionalSpec("planar", 8.0), 1, 0, id="planar-8.0-full"),
        pytest.param(FunctionalSpec("planar", 8.0), 3, 1, id="planar-8.0-class-3-1"),
        pytest.param(FunctionalSpec("hyperbolic", 0.9), 1, 0, id="hyperbolic-0.9"),
    ],
)
def test_newton_direction_matches_the_dense_projector(spec, m, j):
    # The rank-one projection of the phase direction gives the direction,
    # predicted drop and curvature of the dense projector, at the start of a
    # finish and a few Newton steps into it.
    n = degree_schedule(spec)
    ws = _Workspace(spec, default_grid(spec, degree=n), n, m, j)
    it, _, _ = _burn_in(ws, _random_start(ws, 8))
    it = ws.iterate(it.c)
    for _ in range(3):
        d, predicted, curvature = ws.newton_direction(it)
        ref_d, ref_predicted, ref_curvature = _projected_newton(ws, it)
        assert np.max(np.abs(d - ref_d)) <= 1e-10 * np.max(np.abs(ref_d))
        assert abs(predicted - ref_predicted) <= 1e-10 * ref_predicted
        assert np.max(np.abs(curvature - ref_curvature)) <= 1e-10
        it = ws.iterate(it.c + d, 1 - it.slot)


@pytest.mark.parametrize(
    "spec,restarts,seed",
    [
        pytest.param(FunctionalSpec("planar", 8.0), 4, 3, id="planar-8.0-classes-and-full"),
        pytest.param(FunctionalSpec("hyperbolic", 0.9), 4, 3, id="hyperbolic-0.9"),
        pytest.param(FunctionalSpec("hyperbolic", 0.9), 4, 0, id="hyperbolic-0.9-seed-0"),
        pytest.param(FunctionalSpec("hyperbolic", 0.9), 4, 6, id="hyperbolic-0.9-seed-6"),
    ],
)
def test_restarts_end_at_stationary_points(spec, restarts, seed, monkeypatch):
    # Each restart ends where the density's gradient vanishes but for the
    # phase direction i*c, along which the density does not change.  Measured
    # in the coordinates sqrt(G) c, the gradient left is at most 1.2e-7 at
    # the ends of the 144 restarts of either search over seeds 0-11 (12
    # restarts each).  A finish that stops on the Newton model's predicted
    # drop before taking its step leaves up to 3.3e-6 there, and 1.8e-6 and
    # 2.0e-6 in the first restart at hyperbolic seeds 0 and 6.
    descents = _record_descents(monkeypatch)
    n = degree_schedule(spec)
    grid = default_grid(spec, degree=n)
    res = minimize(spec, n, OptimizerConfig(restarts=restarts, seed=seed))
    scale = np.repeat(np.sqrt(gram_diagonal(grid, quadratic_weights(spec, grid)[0], n)), 2)
    for entry, (_, _, (c, _, _)) in zip(res.restarts, descents):
        full = _embed(c, n, *entry["class"])
        g = gradient(ComplexPolynomial(full), spec, grid) / scale
        phase = (1j * full).view(np.float64) * scale
        g -= phase * np.dot(phase, g) / np.dot(phase, phase)
        assert np.linalg.norm(g) <= 1e-6, entry
