import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from roughpaths import rde_solver
from roughpaths.log_sphere_map import sphere_state_projection
from roughpaths.partial_rough_paths import PartialRoughPath
from roughpaths.rough_paths import (AreaDrift, RoughPath, brownian_lift,
                                    decompose, dilate, geometricity_defect,
                                    lift_piecewise_linear, pure_area_path,
                                    pvar_norm, recompose)
from roughpaths.rde_solver import (BlowupRecord, FieldEvaluationError,
                                   SolverConfig, adaptive_partition,
                                   apriori_sup_bound,
                                   blowup_json, growth_bound_check,
                                   solution_to_partial, solve_rde,
                                   solve_rde_corrected, write_solution_csv)
from roughpaths.vector_fields import (FieldBounds, SecondOrderField,
                                      VectorField, counterexample_field,
                                      f_dot_grad_f, linear_field, tanh_field,
                                      zero_field)

from oracles import (davie_solve_floats, field_of_arrays, mesh_increments,
                     rk4_polyline, rough_integral_along)


def time_lift(T=1.0):
    return lift_piecewise_linear(np.array([[0.0], [T]]), [0.0, T])


def random_polyline(rng, n=6, m=1, T=1.0, scale=0.3):
    pts = np.zeros((n + 1, m))
    pts[1:] = np.cumsum(rng.normal(0.0, scale, size=(n, m)), axis=0)
    return lift_piecewise_linear(pts, np.linspace(0.0, T, n + 1)), pts


# ---------------------------------------------------------------------------
# basic correctness


def test_solve_computes_no_driver_pvar(monkeypatch):
    # the p-variation scan is quadratic in the driver's grid; a solve
    # returns its triple and leaves driver measures to callers
    import roughpaths.rde_solver as rde_solver

    def refuse(*args, **kwargs):
        raise AssertionError("solve_rde called pvar_norm")

    monkeypatch.setattr(rde_solver, "pvar_norm", refuse)
    x, _ = random_polyline(np.random.default_rng(3), n=50)
    sol = solve_rde(x, tanh_field(1, 1), np.array([0.2]), 1.0,
                    SolverConfig(base_mesh=128))
    assert len(sol.times) == 129


def test_zero_field_is_constant():
    sol = solve_rde(time_lift(), zero_field(2, 1), np.array([1.0, -2.0]), 1.0,
                    SolverConfig(base_mesh=64))
    assert np.max(np.abs(sol.y - sol.y[0])) == 0.0
    assert np.max(np.abs(sol.cross_inc)) == 0.0
    assert sol.blowup is None


def test_exponential_growth_against_closed_form():
    a = 0.7
    sol = solve_rde(time_lift(), linear_field(1.0), np.array([a]), 1.0,
                    SolverConfig(base_mesh=4096))
    assert abs(sol.y[-1, 0] - a * np.e) <= 1e-6 * a * np.e


def test_doss_sussmann_scalar_polyline():
    # scalar driver: y(T) = a exp(x_T - x_0) for any geometric rough driver
    rng = np.random.default_rng(60)
    for _ in range(3):
        x, pts = random_polyline(rng, n=5, scale=0.25)
        sol = solve_rde(x, linear_field(1.0), np.array([1.3]), 1.0,
                        SolverConfig(base_mesh=4096))
        want = 1.3 * np.exp(pts[-1, 0] - pts[0, 0])
        assert abs(sol.y[-1, 0] - want) <= 1e-6 * abs(want)


def test_matrix_linear_field_against_expm_oracle():
    A = np.array([[0.0, -1.0], [1.0, -0.3]])
    x, pts = random_polyline(np.random.default_rng(61), n=4, scale=0.4)
    sol = solve_rde(x, linear_field(A), np.array([1.0, 0.5]), 1.0,
                    SolverConfig(base_mesh=4096))
    # whole-trajectory check at every 256th mesh point
    u = sol.x[:, 0]
    for k in range(0, len(sol.times), 256):
        want = expm(A * (u[k] - u[0])) @ np.array([1.0, 0.5])
        assert np.linalg.norm(sol.y[k] - want) <= 1e-6


def test_oracle_equivalence_with_classical_rk4():
    rng = np.random.default_rng(62)
    fields = [linear_field(np.array([[0.2, -1.0], [0.5, 0.0]])),
              counterexample_field(),
              tanh_field(2, 1, seed=9)]
    x, pts = random_polyline(rng, n=6, scale=0.35)
    knots = x.times
    for vf in fields:
        a = np.array([0.8, -0.4])
        sol = solve_rde(x, vf, a, 1.0, SolverConfig(base_mesh=4096))
        check = sol.times[::256]
        ref = rk4_polyline(vf, a, knots, pts, check, h_target=2e-4)
        err = np.max(np.linalg.norm(sol.y[::256] - ref, axis=1))
        assert err <= 1e-6, (vf.name, err)


def test_mesh_over_the_step_cap_rejected():
    with pytest.raises(ValueError, match="base_mesh"):
        solve_rde(time_lift(), linear_field(1.0), np.array([1.0]), 1.0,
                  SolverConfig(base_mesh=rde_solver._MAX_STEPS + 1))


@pytest.mark.parametrize("mesh", [0, 4096.0, True])
def test_config_rejects_a_mesh_that_is_not_a_step_count(mesh):
    # when the config is built, before any solve; a bool is an Integral
    # but not a step count
    with pytest.raises(ValueError, match="base_mesh must be an integer"):
        SolverConfig(base_mesh=mesh)


def test_config_is_frozen():
    cfg = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.p = 3.5
    assert cfg.p == 2.0


def test_mesh_refinement_improves_solution():
    x, _ = random_polyline(np.random.default_rng(63), n=5, scale=0.4)
    vf = counterexample_field()
    a = np.array([1.0, 0.0])
    ref = solve_rde(x, vf, a, 1.0, SolverConfig(base_mesh=2 ** 11))
    errs = []
    for mesh in (2 ** 7, 2 ** 8, 2 ** 9):
        sol = solve_rde(x, vf, a, 1.0, SolverConfig(base_mesh=mesh))
        stride = 2 ** 11 // mesh
        errs.append(np.max(np.linalg.norm(sol.y - ref.y[::stride], axis=1)))
    assert errs[0] / errs[1] >= 1.5
    assert errs[1] / errs[2] >= 1.5


def _blowup_routes():
    # (name, driver, young) for the plain route, the corrected route with
    # f's own derived field (fused into the level-2 input) and the
    # corrected route with an h2 the solver cannot fuse; young = (h2,
    # beta) as the stepping loop takes it
    so = f_dot_grad_f(counterexample_field())
    x = pure_area_path(1.5)
    geo, drift = decompose(x)
    return [("plain", x, None), ("fused", geo, (so, drift)),
            ("unfused", geo, (SecondOrderField(2, 1, so.jet), drift))]


def test_crossing_state_is_one_loop_step():
    # the blow-up bisection runs the solve loop itself: the loop over the
    # one float row from the last state before the crossing to the
    # crossing time, with no ball to leave, lands on the reported
    # crossing state bit for bit, and that row is the numpy query's
    vf = counterexample_field()
    a = np.array([1.0, 0.0])
    cfg = SolverConfig(base_mesh=512, r_max=1e6)
    for name, x, young in _blowup_routes():
        sol = (solve_rde(x, vf, a, 1.5, cfg) if young is None else
               solve_rde_corrected(x, young[1], vf, young[0], a, 1.5, cfg))
        assert sol.blowup is not None, name
        increments, row_of, loop = rde_solver._davie_step(x, vf, young)
        _, x2, rows = increments(sol.times[-2:])
        row = row_of(*sol.times[-2:].tolist())
        assert row == rows.ravel().tolist(), name
        out = []
        y, n2 = loop(sol.y[-2].tolist(), row, math.inf, out)
        # the one step's record: f at the state it stepped from, then y+
        fs, ys = out[:vf.d * vf.m], out[vf.d * vf.m:]
        assert ys == y and np.array_equal(y, sol.y[-1]), name
        assert math.sqrt(n2) == sol.blowup.last_value_norm, name
        assert np.array_equal(x2, sol.x2_inc[-1:]), name
        fe = np.array(fs).reshape(1, vf.d, vf.m)
        assert np.array_equal(np.einsum("kdm,kmn->kdn", fe, x2),
                              sol.cross_inc[-1:]), name


def test_no_solve_queries_the_driver_through_at(monkeypatch):
    # the chunks, the crossing's float rows and the re-query after it
    # all come from the segment query
    def at(self, t):
        raise AssertionError("a solve called at")

    monkeypatch.setattr(RoughPath, "at", at)
    monkeypatch.setattr(AreaDrift, "at", at)
    vf = counterexample_field()
    cfg = SolverConfig(base_mesh=512, r_max=1e6)
    for name, x, young in _blowup_routes():
        sol = (solve_rde(x, vf, np.array([1.0, 0.0]), 1.5, cfg)
               if young is None else
               solve_rde_corrected(x, young[1], vf, young[0],
                                   np.array([1.0, 0.0]), 1.5, cfg))
        assert sol.blowup is not None, name


def test_a_fine_solve_holds_little_beyond_its_solution():
    # the driver is queried a chunk of mesh rows at a time, so the fine
    # explosion solve (2**18 fused steps) peaks at its solution's arrays
    # and a rest that does not grow with the mesh, where one whole-mesh
    # query held about 10 MB more
    f = counterexample_field()
    so = f_dot_grad_f(f)
    geo, drift = decompose(pure_area_path(0.9))
    cfg = SolverConfig(base_mesh=2 ** 18)
    tracemalloc.start()
    try:
        sol = solve_rde_corrected(geo, drift, f, so, np.array([1.0, 0.0]),
                                  0.9, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = sum(v.nbytes for v in (sol.times, sol.x, sol.x2_inc, sol.y,
                                 sol.cross_inc))
    assert sol.blowup is None and own > 14e6
    assert peak - own <= 3e6, (peak, own)


def test_an_early_crossing_holds_only_its_solution():
    # a 2**20-step fused solve that crosses r_max = 1.5 at step 388,362
    # returns arrays of its own, not views that keep the whole mesh's
    # buffers alive (51 MiB where its arrays are 21 MiB)
    f = counterexample_field()
    so = f_dot_grad_f(f)
    geo, drift = decompose(pure_area_path(0.9))
    cfg = SolverConfig(base_mesh=2 ** 20, r_max=1.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = solve_rde_corrected(geo, drift, f, so, np.array([1.0, 0.0]),
                                  0.9, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    own = sum(v.nbytes for v in (sol.times, sol.x, sol.x2_inc, sol.y,
                                 sol.cross_inc))
    assert sol.blowup is not None and len(sol.times) == 388_363
    assert held - own <= 1e6, (held, own)


def test_a_projection_that_lengthens_the_state_crosses_after_the_start():
    # the sphere projection takes a = (0.1, 1) to (1, 1), out of the
    # ball of radius 1.2, on the first step and on any part of it: the
    # ball test and the bisection both see the projected state, so the
    # crossing lands after t = 0 with the projected state stored.  With
    # the ball tested before the projection, the bisection of a later
    # step collapsed onto its start and the solve raised ValueError on
    # the repeated time
    f = linear_field(np.diag([0.0, 1.0]))
    x = time_lift()
    a = np.array([0.1, 1.0])
    proj = sphere_state_projection(1)
    sol = solve_rde(x, f, a, 1.0, SolverConfig(base_mesh=64, r_max=1.2,
                                               state_projection=proj))
    assert isinstance(sol.blowup, BlowupRecord)
    assert 0.0 < sol.blowup.crossing_time <= 1.0 / 64
    assert sol.times.tolist() == [0.0, sol.blowup.crossing_time]
    assert sol.y[-1].tolist() == proj(sol.y[-1].tolist())
    assert sol.blowup.last_value_norm == float(np.linalg.norm(sol.y[-1]))
    y, _, crossing = davie_solve_floats(x, f, a, np.linspace(0.0, 1.0, 65),
                                        r_max=1.2, projection=proj)
    assert crossing == sol.blowup.crossing_time
    assert np.array_equal(y, sol.y)


@pytest.mark.parametrize("route", ["plain", "fused", "unfused",
                                   "projected"])
def test_each_solve_compiles_one_step_map(monkeypatch, route):
    # the loop is the one function a solve generates: the crossing
    # bisection runs it too, so a solve that crosses compiles once (the
    # projected route takes the identity, which keeps the plain route's
    # explosion)
    compiled = []
    real = rde_solver._compiled

    def counting(*args, **kwargs):
        compiled.append(args[3])
        return real(*args, **kwargs)

    vf = counterexample_field()
    a = np.array([1.0, 0.0])
    routes = {name: (x, young) for name, x, young in _blowup_routes()}
    x, young = routes.get(route, routes["plain"])
    proj = (lambda w: w) if route == "projected" else None
    monkeypatch.setattr(rde_solver, "_compiled", counting)
    for T, r_max in ((0.5, math.inf), (1.5, 50.0)):
        cfg = SolverConfig(base_mesh=256, r_max=r_max, state_projection=proj)
        sol = (solve_rde(x, vf, a, T, cfg) if young is None else
               solve_rde_corrected(x, young[1], vf, young[0], a, T, cfg))
        assert (sol.blowup is None) == (r_max == math.inf), route
        assert len(compiled) == 1, compiled
        compiled.clear()


def test_solution_to_partial_carries_the_interval_arrays():
    x, _ = random_polyline(np.random.default_rng(64), n=5)
    sol = solve_rde(x, counterexample_field(), np.array([1.0, 0.0]), 1.0,
                    SolverConfig(base_mesh=256))
    prp = solution_to_partial(sol, x)
    assert prp is sol and prp.p == 2.0
    assert prp.x2_inc.shape == (256, 1, 1)
    assert prp.cross_inc.shape == (256, 2, 1)
    assert np.array_equal(prp.x, x.at(sol.times)[0])
    # per interval the cross increment pairs f(y_k) with the driver's x2
    vf = counterexample_field()
    for k in (0, 100, 255):
        assert np.array_equal(sol.cross_inc[k],
                              vf.eval(sol.y[k]) @ sol.x2_inc[k])
    assert np.array_equal(sol.x2_inc, mesh_increments(x, sol.times)[1])


def test_solution_to_partial_keeps_the_solve_p():
    # the triple of a solve at p = 2.5 is at p = 2.5: no default p
    # relabels it
    x, _ = random_polyline(np.random.default_rng(64), n=5)
    sol = solve_rde(x, counterexample_field(), np.array([1.0, 0.0]), 1.0,
                    SolverConfig(base_mesh=64, p=2.5))
    assert solution_to_partial(sol, x).p == sol.p == 2.5


def test_solution_to_partial_rejects_another_driver():
    x, _ = random_polyline(np.random.default_rng(65), n=5)
    sol = solve_rde(x, counterexample_field(), np.array([1.0, 0.0]), 1.0,
                    SolverConfig(base_mesh=16))
    plane, _ = random_polyline(np.random.default_rng(65), n=5, m=2)
    for other in (plane, time_lift(0.5)):
        with pytest.raises(ValueError, match="driver"):
            solution_to_partial(sol, other)


def test_solution_cross_additivity_over_random_drivers():
    # a property over every route (the plain loop, and the corrected
    # loop with f's own derived field fused into the level-2 input or with
    # a separate h2), m in {1, 2}, random polylines
    # (with a linear area drift on the corrected routes), linear fields
    # and an r_max low enough (|a| = 1.118) to end some of the solves
    # early: each solution is its partial rough path
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    routes = ("plain", "fused", "unfused")
    truncated, drawn = [], set()

    @hyp.settings(max_examples=25, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 2),
               segments=st.integers(2, 8), scale=st.floats(0.2, 0.8),
               r_max=st.sampled_from([1.2, 1e6]),
               mesh=st.sampled_from([64, 256]),
               route=st.sampled_from(routes))
    def additive(seed, m, segments, scale, r_max, mesh, route):
        rng = np.random.default_rng(seed)
        x, _ = random_polyline(rng, n=segments, m=m, scale=scale)
        f = linear_field(rng.normal(0.0, 1.5, size=(2, m, 2)))
        a = np.array([1.0, -0.5])
        cfg = SolverConfig(base_mesh=mesh, r_max=r_max)
        if route == "plain":
            sol = solve_rde(x, f, a, 1.0, cfg)
        else:
            S = rng.normal(0.0, 0.5, size=(m, m))
            drift = AreaDrift(x.times,
                              x.times[:, None, None] * (S + S.T)[None])
            so = f_dot_grad_f(f)
            h2 = so if route == "fused" else SecondOrderField(2, m, so.jet)
            sol = solve_rde_corrected(x, drift, f, h2, a, 1.0, cfg)
        truncated.append(sol.blowup is not None)
        drawn.add(route)
        assert isinstance(sol, PartialRoughPath)
        assert solution_to_partial(sol, x) is sol
        assert sol.additivity_defect() <= 1e-12

    additive()
    assert any(truncated) and not all(truncated)
    assert drawn == set(routes)


def test_nan_field_raises_with_location():
    def ev(y):
        return np.array([[np.nan]]) if y[0] > 1.5 else np.array([[y[0]]])

    def gr(y):
        return np.array([[[1.0]]])

    bad = field_of_arrays(1, 1, ev, gr)
    with pytest.raises(FieldEvaluationError) as err:
        solve_rde(time_lift(), bad, np.array([1.0]), 1.0,
                  SolverConfig(base_mesh=256))
    assert err.value.t > 0.0
    assert err.value.y[0] > 1.4


def test_infinite_r_max_stops_at_the_last_finite_state():
    # r_max = inf bounds no state, but the corrected pure-area solve
    # overflows past t*: the first step whose |y|^2 is not a finite float
    # raises, with the state it stepped from, and no RuntimeWarning on
    # the way
    vf = counterexample_field()
    geo, drift = decompose(pure_area_path(1.5))
    a = np.array([1.0, 0.0])
    cfg = SolverConfig(r_max=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldEvaluationError) as err:
            solve_rde_corrected(geo, drift, vf, f_dot_grad_f(vf), a, 1.5,
                                cfg)
    assert np.isfinite(err.value.y).all()
    mesh = np.linspace(0.0, 1.5, cfg.base_mesh + 1)
    k = int(np.flatnonzero(mesh == err.value.t)[0])
    before = solve_rde_corrected(geo, drift, vf, f_dot_grad_f(vf), a,
                                 mesh[k], SolverConfig(base_mesh=k,
                                                       r_max=math.inf))
    assert np.array_equal(before.y[-1], err.value.y)


@pytest.mark.parametrize("a, message", [
    ([np.nan, 0.0], "must be finite"), ([np.inf, 0.0], "must be finite"),
    ([-np.inf, 0.0], "must be finite"), ([1.0, 0.0, 0.0], "must have shape")])
def test_bad_start_rejected_on_both_routes(a, message):
    # rejected at the boundary, before any step could warn or raise
    # FieldEvaluationError
    vf = counterexample_field()
    geo, drift = decompose(pure_area_path(0.5))
    cfg = SolverConfig(base_mesh=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            solve_rde(geo, vf, np.array(a), 0.5, cfg)
        with pytest.raises(ValueError, match=message):
            solve_rde_corrected(geo, drift, vf, f_dot_grad_f(vf),
                                np.array(a), 0.5, cfg)


@pytest.mark.parametrize("make", [
    lambda: SolverConfig(r_max=np.nan),
    lambda: SolverConfig(r_max=0.0),
    lambda: SolverConfig(r_max=-np.inf),
    lambda: solve_rde(time_lift(), linear_field(1.0), np.array([1.0]),
                      np.nan),
    lambda: solve_rde(time_lift(), linear_field(1.0), np.array([1.0]), 0.0),
    lambda: solve_rde(time_lift(), linear_field(1.0), np.array([1.0]), -1.0),
], ids=["r_max nan", "r_max 0", "r_max -inf", "T nan", "T 0", "T -1"])
def test_non_finite_solver_inputs_rejected(make):
    # a NaN r_max would report a crossing at the first step; a horizon
    # outside (0, x.T] is rejected before stepping (a NaN one used to
    # step on a NaN mesh, and T = 0 on a mesh of equal times)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r_max must be positive|"
                                             "horizon .* must lie in"):
            make()


def test_horizon_beyond_driver_rejected():
    with pytest.raises(ValueError, match="driver's range"):
        solve_rde(time_lift(1.0), linear_field(1.0), np.array([1.0]), 2.0,
                  SolverConfig(base_mesh=16))


# ---------------------------------------------------------------------------
# corrected route and the explosion example


def test_corrected_route_zero_drift_matches_plain():
    rng = np.random.default_rng(65)
    x, _ = random_polyline(rng, n=5)
    geo, drift = decompose(x)
    vf = counterexample_field()
    a = np.array([1.0, 0.0])
    cfg = SolverConfig(base_mesh=512)
    plain = solve_rde(geo, vf, a, 1.0, cfg)
    corr = solve_rde_corrected(geo, drift, vf, f_dot_grad_f(vf), a, 1.0, cfg)
    assert np.max(np.abs(plain.y - corr.y)) <= 1e-12


def test_route_equivalence_on_synthetic_drift():
    # random polyline plus symmetric drift: stepping the recomposed driver
    # equals the geometric rough step plus the Young drift term
    rng = np.random.default_rng(66)
    x, _ = random_polyline(rng, n=6, scale=0.3)
    geo0, _ = decompose(x)
    n = geo0.n_points
    vals = 0.04 * np.cumsum(rng.normal(size=(n, 1, 1)) * np.eye(1), axis=0)
    vals[0] = 0.0
    from roughpaths.rough_paths import AreaDrift
    drift = AreaDrift(geo0.times, vals)
    full = recompose(geo0, drift)
    A = np.array([[0.1, -0.6], [0.4, 0.05]])
    vf = linear_field(A)
    a = np.array([1.0, -0.5])
    cfg = SolverConfig(base_mesh=4096)
    direct = solve_rde(full, vf, a, 1.0, cfg)
    corrected = solve_rde_corrected(geo0, drift, vf, f_dot_grad_f(vf), a,
                                    1.0, cfg)
    assert np.max(np.abs(direct.y - corrected.y)) <= 1e-6


def corrected_inputs():
    """A 2-dim Stratonovich lift at seed 1, decomposed, and a linear
    field with d = m = 2."""
    geo, drift = decompose(brownian_lift(1, 64, 1.0, 2))
    A = np.random.default_rng(67).normal(0.0, 0.5, size=(2, 2, 2))
    return geo, drift, linear_field(A), np.array([1.0, 0.0])


def test_corrected_route_rejects_an_h2_that_is_not_a_field():
    geo, drift, f, a = corrected_inputs()
    so = f_dot_grad_f(f)
    for h2 in (so.jet, lambda y: so.eval(y)):
        with pytest.raises(TypeError, match="not a SecondOrderField"):
            solve_rde_corrected(geo, drift, f, h2, a, 1.0,
                                SolverConfig(base_mesh=64))


@pytest.mark.parametrize("case", ["drift-m-1", "h2-d-3", "h2-m-1"])
def test_corrected_route_checks_its_shapes_before_stepping(case):
    # unchecked, each would step: a one-dimensional drift broadcasts
    # dbeta into every level-2 entry (a wrong state, silently), an h2
    # with d = 3 is cut to its first d*m*m entries, and one with m = 1
    # raises a bare IndexError mid-loop; the error names both shapes
    geo, drift, f, a = corrected_inputs()
    h2 = f_dot_grad_f(f)
    if case == "drift-m-1":
        drift = AreaDrift(geo.times, 0.1 * geo.times[:, None, None])
        want = r"beta m = 1, x_hat m = 2"
    elif case == "h2-d-3":
        h2 = SecondOrderField(3, 2, lambda y: [0.1] * 12)
        want = r"h2 \(d, m\) = \(3, 2\), h1 \(2, 2\)"
    else:
        h2 = SecondOrderField(2, 1, lambda y: [0.1] * 2)
        want = r"h2 \(d, m\) = \(2, 1\), h1 \(2, 2\)"
    with pytest.raises(ValueError, match=want):
        solve_rde_corrected(geo, drift, f, h2, a, 1.0,
                            SolverConfig(base_mesh=64))


@pytest.mark.parametrize("case", ["f-long", "f-short", "grad-short",
                                  "h2-long"])
def test_jet_lengths_are_checked_before_stepping(case):
    # with d*m = 2, a jet giving 4 values of f used to fail in numpy's
    # broadcast into the field-value rows, and a short one with a bare
    # IndexError; one jet call at the start state names the lengths
    f = counterexample_field()
    geo, drift = decompose(pure_area_path(1.0))
    h2 = f_dot_grad_f(f)
    calls = []

    def jet_of(F, G):
        def jet(y):
            calls.append(y)
            return F, G
        return jet

    if case == "f-long":
        f = VectorField(2, 1, jet_of([0.1] * 4, [0.0] * 4), name="long")
        want = r"'long' \(d=2, m=1\).* 4 values of f and 4 .* 2 and 4"
    elif case == "f-short":
        f = VectorField(2, 1, jet_of([0.1], [0.0] * 4), name="short")
        want = r"'short' \(d=2, m=1\).* 1 values of f and 4 .* 2 and 4"
    elif case == "grad-short":
        f = VectorField(2, 1, jet_of([0.1] * 2, [0.0] * 3))
        want = r"'' \(d=2, m=1\).* 2 values of f and 3 .* 2 and 4"
    else:
        h2 = SecondOrderField(2, 1, lambda y: calls.append(y) or [0.1] * 4)
        want = r"h2 \(d=2, m=1\).* 4 values, expected 2"
    with pytest.raises(ValueError, match=want):
        if case == "h2-long":
            solve_rde_corrected(geo, drift, f, h2, [1.0, 0.0], 1.0,
                                SolverConfig(base_mesh=64))
        else:
            solve_rde(geo, f, [1.0, 0.0], 1.0, SolverConfig(base_mesh=64))
    assert calls == [[1.0, 0.0]]


def test_pure_area_explosion_crossing_times():
    vf = counterexample_field()
    h2 = f_dot_grad_f(vf)
    cfg = SolverConfig(base_mesh=4096)
    for a1, window in [(1.0, (0.95, 1.05)), (2.0, (0.45, 0.55))]:
        T = 1.5 / a1
        geo, drift = decompose(pure_area_path(T))
        sol = solve_rde_corrected(geo, drift, vf, h2, np.array([a1, 0.0]), T,
                                  cfg)
        assert sol.blowup is not None
        assert window[0] <= sol.blowup.crossing_time <= window[1]
        assert sol.blowup.last_value_norm >= cfg.r_max
        assert np.max(np.abs(sol.y[:, 1])) == 0.0


def test_no_crossing_means_no_record():
    sol = solve_rde(time_lift(), linear_field(1.0), np.array([1.0]), 1.0,
                    SolverConfig(base_mesh=128))
    assert sol.blowup is None
    assert blowup_json(sol) is None


def test_second_component_stays_zero_along_explosion():
    geo, drift = decompose(pure_area_path(0.5))
    vf = counterexample_field()
    sol = solve_rde_corrected(geo, drift, vf, f_dot_grad_f(vf),
                              np.array([1.0, 0.0]), 0.5,
                              SolverConfig(base_mesh=2048))
    assert np.max(np.abs(sol.y[:, 1])) <= 1e-10
    # y1 follows 1/(1-t) at first order in the mesh
    exact = 1.0 / (1.0 - sol.times)
    assert np.max(np.abs(sol.y[:, 0] - exact) / exact) <= 2e-3


# ---------------------------------------------------------------------------
# bounded-field machinery


def test_partition_interval_count_bracket():
    rng = np.random.default_rng(67)
    x, _ = random_polyline(rng, n=6, T=1.0, scale=0.5)
    bounds = FieldBounds(f_inf=1.0, grad_inf=1.5)
    cfg = SolverConfig(p=2.0)
    part = adaptive_partition(x, bounds, cfg)
    N = part.n_intervals
    omega = 1.0
    step = part.L * part.pvar ** -cfg.p
    assert (N - 1) * step <= omega * (1 + 1e-9)
    assert omega <= N * step * (1 + 1e-9)
    assert part.times[0] == 0.0 and part.times[-1] == 1.0


def test_partition_count_scales_like_pvar_to_the_p():
    rng = np.random.default_rng(68)
    x, _ = random_polyline(rng, n=8, scale=0.6)
    bounds = FieldBounds(f_inf=1.0, grad_inf=1.0)
    cfg = SolverConfig(p=2.0)
    n1 = adaptive_partition(x, bounds, cfg).n_intervals
    n2 = adaptive_partition(dilate(x, 2.0), bounds, cfg).n_intervals
    assert n2 == pytest.approx(n1 * 2 ** cfg.p, rel=0.15)


def test_partition_constant_driver_single_interval():
    x = lift_piecewise_linear(np.zeros((3, 1)), [0.0, 0.5, 1.0])
    part = adaptive_partition(x, FieldBounds(f_inf=1.0, grad_inf=1.0),
                              SolverConfig())
    assert part.n_intervals == 1
    assert np.array_equal(part.times, [0.0, 1.0])


def test_partition_points_are_multiples_of_the_step():
    # with the control t - s every interval has length target, so the
    # points are k * target, then T
    x = time_lift()
    t0 = time.perf_counter()
    part = adaptive_partition(x, FieldBounds(f_inf=100.0, grad_inf=100.0))
    assert part.n_intervals == 40_000
    assert np.array_equal(part.times[:-1],
                          np.arange(40_000) * part.step_omega)
    assert part.times[-1] == 1.0
    # 4e8 intervals: over the cap, known before any is built
    with pytest.raises(RuntimeError, match="cap"):
        adaptive_partition(x, FieldBounds(f_inf=1e4, grad_inf=1e4))
    assert time.perf_counter() - t0 < 1.0


def test_partition_rejects_unbounded_fields():
    x = time_lift()
    with pytest.raises(ValueError, match="bounds"):
        adaptive_partition(x, FieldBounds(), SolverConfig())


@pytest.mark.parametrize("T", [3.0, -1.0, 0.0, math.nan, math.inf])
def test_partition_and_bound_reject_horizons_outside_the_driver(T):
    x = time_lift()
    bounds = FieldBounds(f_inf=1.0, grad_inf=1.0)
    with pytest.raises(ValueError, match="horizon"):
        adaptive_partition(x, bounds, T=T)
    with pytest.raises(ValueError, match="horizon"):
        apriori_sup_bound(bounds, x, T)
    # the driver's own horizon is the default
    assert np.array_equal(adaptive_partition(x, bounds, T=x.T).times,
                          adaptive_partition(x, bounds).times)
    assert apriori_sup_bound(bounds, x, x.T) == apriori_sup_bound(bounds, x)


def test_apriori_bound_holds_on_random_drivers():
    rng = np.random.default_rng(69)
    vf = tanh_field(2, 1, seed=10)
    cfg = SolverConfig(p=2.0, base_mesh=512)
    for _ in range(50):
        x, _ = random_polyline(rng, n=8, scale=rng.uniform(0.05, 0.6))
        bound = apriori_sup_bound(vf.bounds, x, 1.0, cfg)
        sol = solve_rde(x, vf, np.array([0.2, -0.1]), 1.0, cfg)
        dev = np.max(np.linalg.norm(sol.y - sol.y[0], axis=1))
        assert dev <= bound


def test_apriori_bound_zero_field_trivial():
    x, _ = random_polyline(np.random.default_rng(70), n=4)
    zf = zero_field(2, 1)
    bound = apriori_sup_bound(FieldBounds(0.0, 0.0), x, 1.0,
                              SolverConfig())
    assert bound >= 0.0
    sol = solve_rde(x, zf, np.array([1.0, 1.0]), 1.0,
                    SolverConfig(base_mesh=64))
    assert np.max(np.abs(sol.y - sol.y[0])) == 0.0 <= bound


def test_apriori_bound_affine_in_horizon():
    bounds = FieldBounds(f_inf=1.0, grad_inf=1.0)
    x = lift_piecewise_linear(np.array([[0.0], [0.5], [1.0]]),
                              [0.0, 1.5, 3.0])
    cfg = SolverConfig(p=2.0)
    b1 = apriori_sup_bound(bounds, x, 1.0, cfg)
    b2 = apriori_sup_bound(bounds, x, 2.0, cfg)
    b3 = apriori_sup_bound(bounds, x, 3.0, cfg)
    assert b2 - b1 == pytest.approx(b3 - b2, rel=1e-9)


# ---------------------------------------------------------------------------
# growth under driver scaling


def test_growth_check_counterexample_no_explosion():
    rng = np.random.default_rng(71)
    x, _ = random_polyline(rng, n=8, T=5.0, scale=0.12)
    rep = growth_bound_check(counterexample_field(), x, np.array([1.0, 0.0]),
                             5.0, SolverConfig(base_mesh=4096))
    assert not rep.any_explosion
    assert rep.passed
    assert rep.min_slack >= -1e-9


def test_growth_check_exponential_is_exactly_log_linear():
    pts = np.array([[0.0], [0.3], [0.2], [0.5]])
    x = lift_piecewise_linear(pts, np.linspace(0, 5.0, 4))
    rep = growth_bound_check(linear_field(1.0), x, np.array([1.0]), 5.0,
                             SolverConfig(base_mesh=2048),
                             lambdas=(1.0, 2.0, 4.0))
    # sup|y| = exp(lam * max increment); log growth is linear in lam
    logs = [r["log_sup"] for r in rep.rows]
    lams = [r["lam"] for r in rep.rows]
    for (l0, g0), (l1, g1) in zip(zip(lams, logs), zip(lams[1:], logs[1:])):
        expected = np.log(np.exp(l1 * 0.5) + 1) - np.log(np.exp(l0 * 0.5) + 1)
        assert g1 - g0 == pytest.approx(expected, abs=1e-4)


def test_growth_check_zero_driver():
    x = lift_piecewise_linear(np.zeros((2, 1)), [0.0, 5.0])
    rep = growth_bound_check(counterexample_field(), x, np.array([1.0, 0.0]),
                             5.0, SolverConfig(base_mesh=256))
    for row in rep.rows:
        assert row["sup_y"] == pytest.approx(1.0)


def test_growth_rows_pvar_matches_dilated_scans():
    rng = np.random.default_rng(72)
    x, _ = random_polyline(rng, n=40, m=2, T=5.0, scale=0.12)
    rep = growth_bound_check(zero_field(2, 2), x,
                             np.array([1.0, 0.0]), 5.0,
                             SolverConfig(base_mesh=64),
                             lambdas=(1.0, 2.0, 4.0, 8.0, 3.7))
    assert rep.geometricity_defect == geometricity_defect(x)
    for row in rep.rows[:4]:
        assert row["pvar"] == pvar_norm(dilate(x, row["lam"]), 2.0)
    lam = rep.rows[4]["lam"]
    assert rep.rows[4]["pvar"] == pytest.approx(
        pvar_norm(dilate(x, lam), 2.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lambdas", [(), (1.0, 0.0), (-2.0,),
                                     (1.0, float("inf")), (float("nan"),)])
def test_growth_check_rejects_bad_lambdas(lambdas):
    x = lift_piecewise_linear(np.array([[0.0], [0.3]]), [0.0, 1.0])
    with pytest.raises(ValueError, match="lambdas"):
        growth_bound_check(counterexample_field(), x, np.array([1.0, 0.0]),
                           1.0, SolverConfig(base_mesh=16), lambdas=lambdas)


def test_growth_check_takes_a_large_geometric_driver():
    # the defect is roundoff relative to max|level2| = 1.03e8, over the
    # 1e-8 that a driver of unit size is held to
    x = dilate(brownian_lift(3, 4096, 1.0, 1, "stratonovich"), 1e4)
    rep = growth_bound_check(zero_field(2, 1), x, np.array([1.0, 0.0]), 1.0,
                             SolverConfig(base_mesh=16), lambdas=(1.0,))
    assert 1e-8 < rep.geometricity_defect < 1e-8 * np.max(np.abs(x.level2))
    assert rep.passed


def test_growth_check_rejects_nongeometric_driver():
    with pytest.raises(ValueError, match="not geometric"):
        growth_bound_check(counterexample_field(), pure_area_path(5.0),
                           np.array([1.0, 0.0]), 5.0)


# ---------------------------------------------------------------------------
# interchange


def test_solution_to_partial_reproduces_dynamics():
    # integrating f along the solution triple recovers the solution: the
    # beta-correction pathway exercised end to end on the pure-area driver
    x = pure_area_path(0.5, n_points=2)
    vf = counterexample_field()
    sol = solve_rde(x, vf, np.array([1.0, 0.0]), 0.5,
                    SolverConfig(base_mesh=512))
    prp = solution_to_partial(sol, x)
    assert prp.additivity_defect() <= 1e-12
    integral = rough_integral_along(prp, vf)
    assert np.max(np.abs(integral.y - (sol.y - sol.y[0]))) <= 1e-12


def test_solution_csv_and_blowup_json(tmp_path):
    geo, drift = decompose(pure_area_path(1.5))
    vf = counterexample_field()
    sol = solve_rde_corrected(geo, drift, vf, f_dot_grad_f(vf),
                              np.array([1.0, 0.0]), 1.5,
                              SolverConfig(base_mesh=1024))
    dest = tmp_path / "sol.csv"
    write_solution_csv(sol, dest)
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "t,y1,y2"
    assert len(lines) == len(sol.times) + 1
    payload = blowup_json(sol)
    assert payload is not None and '"threshold": 1000000.0' in payload
