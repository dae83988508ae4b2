"""The Davie step on Python floats, and the numpy forms it leans on.

The solver steps on Python floats with left-to-right sums, one field
jet per step (and one of h2's on the unfused route); its output is
compared with `==` against the nested-list float oracle in oracles.py on
every route, and with the @-product step (whose BLAS kernels may fuse
multiply-adds) within a tolerance set from float64 eps.
counterexample_field's jet runs math on Python floats and the chart maps
take |z|^2 of every row of a stack by np.matmul on the row views; each
is compared with `==` against the form it replaced: nested-list field
values, np.linalg.norm on one point.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from roughpaths.log_sphere_map import (ShiftedMap, choose_shift, grad_phi,
                                       sphere_state_projection,
                                       transformed_field)
from roughpaths.rde_solver import (FieldEvaluationError, SolverConfig,
                                   solve_rde, solve_rde_corrected)
from roughpaths.rough_paths import (AreaDrift, decompose,
                                    lift_piecewise_linear, pure_area_path)
from roughpaths.vector_fields import (SecondOrderField, counterexample_field,
                                      f_dot_grad_f, linear_field, tanh_field)

from oracles import (counterexample_eval_lists, counterexample_grad_lists,
                     davie_solve_floats, davie_solve_matmul, field_of_arrays,
                     grad_phi_norm, sphere_state_projection_norm,
                     state_of_norm)

K = 128


def random_polyline(rng, m, n=6, scale=0.3):
    pts = np.zeros((n + 1, m))
    pts[1:] = np.cumsum(rng.normal(0.0, scale, size=(n, m)), axis=0)
    return lift_piecewise_linear(pts, np.linspace(0.0, 1.0, n + 1))


def random_drift(rng, times, m, scale=0.05):
    g = rng.normal(0.0, scale, size=(len(times), m, m))
    beta = np.cumsum(g + np.swapaxes(g, 1, 2), axis=0)
    beta -= beta[0]
    return AreaDrift(times, beta)


def lists_field():
    return field_of_arrays(2, 1, counterexample_eval_lists,
                           counterexample_grad_lists, name="counterexample")


def field_pairs(rng):
    """(name, library field, oracle field) for d 1-3 and m 1-3."""
    pairs = [("counterexample", counterexample_field(), lists_field())]
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            lin = linear_field(rng.normal(0.0, 0.7, size=(d, m, d)))
            pairs.append((f"linear d={d} m={m}", lin, lin))
            th = tanh_field(d, m, scale=0.8, seed=int(rng.integers(1000)))
            pairs.append((f"tanh d={d} m={m}", th, th))
    return pairs


def assert_same(sol, ref, label):
    y, cross_inc, crossing = ref
    assert np.array_equal(sol.y, y), label
    assert np.array_equal(sol.cross_inc, cross_inc), label
    if crossing is None:
        assert sol.blowup is None, label
    else:
        assert sol.blowup.crossing_time == crossing, label


def route_solves(rng, route, f, f_ref, oracle):
    """(solver, oracle) outputs on one route from a random polyline and
    start: the oracle runs on f_ref.  On the unfused route the solver
    takes f's derived field as a separate h2 (no source), and the oracle
    f_ref, whose derived field it contracts in its own arithmetic."""
    mesh = np.linspace(0.0, 1.0, K + 1)
    x = random_polyline(rng, f.m)
    a = rng.normal(0.0, 1.0, size=f.d)
    cfg = SolverConfig(base_mesh=K)
    if route == "plain":
        return solve_rde(x, f, a, 1.0, cfg), oracle(x, f_ref, a, mesh)
    beta = random_drift(rng, x.times, f.m)
    so = f_dot_grad_f(f)
    so_ref = f_dot_grad_f(f_ref)
    if route == "unfused":
        so, so_ref = SecondOrderField(f.d, f.m, so.jet), f_ref
    return (solve_rde_corrected(x, beta, f, so, a, 1.0, cfg),
            oracle(x, f_ref, a, mesh, (so_ref, beta)))


@pytest.mark.parametrize("route", ["plain", "fused", "unfused"])
def test_solver_equals_the_float_oracle(route):
    rng = np.random.default_rng(801)
    for name, f, f_ref in field_pairs(rng):
        sol, ref = route_solves(rng, route, f, f_ref, davie_solve_floats)
        assert_same(sol, ref, f"{route} {name}")


# set from float64 eps before measuring: the @ products reorder a few
# roundings per step, which K = 128 steps amplify only mildly (the worst
# gap measured was 1.5 eps max(1, |y|))
MATMUL_TOL = 8.0 * np.finfo(float).eps


@pytest.mark.parametrize("route", ["plain", "fused", "unfused"])
def test_solver_matches_the_matmul_step(route):
    rng = np.random.default_rng(801)
    for name, f, f_ref in field_pairs(rng):
        sol, (y, _, crossing) = route_solves(rng, route, f, f_ref,
                                             davie_solve_matmul)
        assert crossing is None and sol.blowup is None
        gap = np.max(np.abs(sol.y - y), axis=1)
        scale = np.maximum(1.0, np.linalg.norm(y, axis=1))
        assert np.all(gap <= MATMUL_TOL * scale), (route, name)


def test_unfused_route_reads_h2_from_its_jet_once_per_step():
    # a separate h2 is called as its jet, on the step's Python floats,
    # once per step; its numpy eval never runs during the solve
    rng = np.random.default_rng(806)
    f = tanh_field(2, 2, scale=0.8, seed=3)
    jet = f_dot_grad_f(f).jet
    calls = []

    def counting_jet(y):
        calls.append(y)
        return jet(y)

    def no_eval(y):
        raise AssertionError("h2.eval ran during the solve")

    h2 = SecondOrderField(2, 2, counting_jet)
    h2.eval = no_eval
    x = random_polyline(rng, 2)
    sol = solve_rde_corrected(x, random_drift(rng, x.times, 2), f, h2,
                              rng.normal(0.0, 1.0, size=2), 1.0,
                              SolverConfig(base_mesh=K))
    assert sol.blowup is None and len(calls) == K
    assert all(type(v) is float for y in calls for v in y)


def test_projected_route_matches_the_norm_chart_maps():
    # the chart field is the library's closed form on both sides (its
    # gap to the einsum form, transformed_field_norm, is bounded in
    # test_log_sphere_map); the loop and the angular renormalisation are
    # compared with the float oracle and np.linalg.norm
    rng = np.random.default_rng(802)
    mesh = np.linspace(0.0, 1.0, K + 1)
    for name, f, f_ref in field_pairs(rng):
        x = random_polyline(rng, f.m)
        a = rng.normal(0.0, 1.0, size=f.d)
        shift = choose_shift(a, 5.0)
        h = transformed_field(f, shift)
        h_ref = transformed_field(f_ref, shift)
        w0 = shift.state_of(a)
        sol = solve_rde(x, h, w0, 1.0, SolverConfig(
            base_mesh=K, state_projection=sphere_state_projection(f.d)))
        ref = davie_solve_floats(
            x, h_ref, w0, mesh,
            projection=sphere_state_projection_norm(f.d))
        assert_same(sol, ref, f"projected {name}")


def normalize_in_place(d):
    """The angular renormalisation done on the state itself, which it
    returns."""

    def project(w):
        q = w[:d]
        q /= math.sqrt(q.dot(q))
        return w

    return project


def normalize_into_buffer(d):
    """sphere_state_projection's result copied into one buffer that every
    call returns."""
    buf = np.empty(d + 1)
    project = sphere_state_projection(d)

    def shared(w):
        buf[...] = project(w)
        return buf

    return shared


@pytest.mark.parametrize("name", ["identity", "in place", "shared buffer"])
def test_projection_may_return_its_input_or_a_shared_buffer(name):
    # the loop reads the projection's value back into floats at once;
    # the oracle keeps each projected state apart
    rng = np.random.default_rng(805)
    mesh = np.linspace(0.0, 1.0, K + 1)
    for d, m in ((1, 1), (2, 1), (2, 2), (3, 2)):
        f = linear_field(rng.normal(0.0, 0.7, size=(d, m, d)))
        x = random_polyline(rng, m)
        a = rng.normal(0.0, 1.0, size=d)
        shift = choose_shift(a, 5.0)
        h = transformed_field(f, shift)
        w0 = shift.state_of(a)
        if name == "identity":
            proj, ref_proj = (lambda w: w), None
        else:
            ref_proj = sphere_state_projection(d)
            proj = (normalize_in_place(d) if name == "in place"
                    else normalize_into_buffer(d))
        sol = solve_rde(x, h, w0, 1.0,
                        SolverConfig(base_mesh=K, state_projection=proj))
        ref = davie_solve_floats(x, h, w0, mesh, projection=ref_proj)
        assert_same(sol, ref, f"{name} d={d} m={m}")


@pytest.mark.parametrize("projected", [False, True])
def test_field_error_reports_the_last_finite_state(projected):
    # the failed step has already written its NaN into the next
    # trajectory row; the error carries the state it stepped from
    def ev(y):
        return np.array([[np.nan]]) if y[0] > 1.5 else np.array([[y[0]]])

    def gr(y):
        return np.array([[[1.0]]])

    bad = field_of_arrays(1, 1, ev, gr)
    x = lift_piecewise_linear(np.array([[0.0], [1.0]]), [0.0, 1.0])
    cfg = SolverConfig(base_mesh=K,
                       state_projection=(lambda w: w) if projected else None)
    with pytest.raises(FieldEvaluationError) as err:
        solve_rde(x, bad, np.array([1.0]), 1.0, cfg)
    mesh = np.linspace(0.0, 1.0, K + 1)
    k = int(np.flatnonzero(mesh == err.value.t)[0])
    # the uniform mesh to T = mesh[k] holds the same dyadic points
    before = solve_rde(x, bad, np.array([1.0]), mesh[k],
                       replace(cfg, base_mesh=k))
    assert np.isfinite(err.value.y).all() and err.value.y[0] > 1.5
    assert bits(err.value.y) == bits(before.y[-1])
    assert err.value.y.base is None   # its own copy, not a solver row


def test_crossing_matches_the_matmul_step():
    # on the pure-area driver y2 stays 0, so every product the @ form
    # could fuse is exact: both oracles give the solver's bits
    f = counterexample_field()
    a = np.array([1.0, 0.0])
    x = pure_area_path(1.5)
    geo, drift = decompose(x)
    mesh = np.linspace(0.0, 1.5, 513)
    cfg = SolverConfig(base_mesh=512, r_max=50.0)
    f_ref = lists_field()
    plain = solve_rde(x, f, a, 1.5, cfg)
    fused = solve_rde_corrected(geo, drift, f, f_dot_grad_f(f), a, 1.5, cfg)
    for oracle in (davie_solve_floats, davie_solve_matmul):
        assert_same(plain, oracle(x, f_ref, a, mesh, r_max=50.0), "plain")
        assert_same(fused, oracle(geo, f_ref, a, mesh,
                                  (f_dot_grad_f(f_ref), drift), r_max=50.0),
                    "fused")
    assert plain.blowup is not None and fused.blowup is not None


def bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


def special_states(rng):
    yield from rng.normal(0.0, 3.0, size=(200, 2))
    values = (0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, np.pi)
    for u in values:
        for v in values:
            yield np.array([u, v])


def test_counterexample_field_matches_nested_lists():
    f = counterexample_field()
    for y in special_states(np.random.default_rng(803)):
        assert bits(f.eval(y)) == bits(counterexample_eval_lists(y)), y
        assert bits(f.grad(y)) == bits(counterexample_grad_lists(y)), y


def test_counterexample_jet_matches_eval_grad_and_lists():
    # eval and grad are the jet's values; the oracle runs np.sin on
    # numpy scalars where the jet runs math.sin on Python floats
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    finite = st.floats(allow_nan=False, allow_infinity=False)
    angle = st.one_of(st.floats(-1e6, 1e6),
                      st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                       2.2250738585072014e-308, 1e6, -1e6]))
    f = counterexample_field()

    @hyp.settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(state=st.tuples(finite, angle))
    def agree(state):
        y = np.array(state, dtype=float)
        F, G = f.jet(list(state))
        ev, gr = f.eval(y), f.grad(y)
        assert bits(ev) == bits(np.array(F).reshape(2, 1)), y
        assert bits(gr) == bits(np.array(G).reshape(2, 1, 2)), y
        assert bits(ev) == bits(counterexample_eval_lists(y)), y
        assert bits(gr) == bits(counterexample_grad_lists(y)), y

    agree()


def test_counterexample_field_returns_a_fresh_array_per_call():
    # eval and grad hand out a fresh array on every call, so a caller
    # that keeps or changes one never aliases the next
    f = counterexample_field()
    y = np.array([0.7, -1.2])
    for method, oracle in ((f.eval, counterexample_eval_lists),
                           (f.grad, counterexample_grad_lists)):
        first = method(y)
        first[...] = 7.0
        second = method(y)
        assert not np.shares_memory(first, second)
        assert bits(second) == bits(oracle(y))


def chart_points(rng):
    for d in (1, 2, 3, 4):
        for scale in (1e-30, 1e-3, 1.0, 1e3, 1e30):
            yield from scale * rng.normal(size=(25, d))


def test_chart_maps_match_their_norm_versions():
    for z in chart_points(np.random.default_rng(804)):
        assert bits(grad_phi(z)) == bits(grad_phi_norm(z)), z
        d = len(z)
        b = np.full(d, 0.25) * np.abs(z).max()
        assert bits(ShiftedMap(b).state_of(z)) == bits(state_of_norm(b, z)), z
        w = np.concatenate([z, [0.5]])
        assert (bits(sphere_state_projection(d)(w))
                == bits(sphere_state_projection_norm(d)(w))), z
    w = np.array([0.0, -0.0, 2.0])
    assert (bits(sphere_state_projection(2)(w))
            == bits(sphere_state_projection_norm(2)(w)))
    # an (n, d) stack: each row's bits are those of the row on its own
    rng = np.random.default_rng(805)
    for d in (1, 2, 3, 4):
        for scale in (1e-30, 1e-3, 1.0, 1e3, 1e30):
            zs = scale * rng.normal(size=(40, d))
            shift = ShiftedMap(scale * rng.normal(size=d))
            assert (bits(grad_phi(zs))
                    == bits(np.stack([grad_phi(z) for z in zs])))
            assert (bits(shift.state_of(zs))
                    == bits(np.stack([shift.state_of(z) for z in zs])))
