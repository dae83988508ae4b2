"""The Davie step's numpy calls change no bit of its output.

The solver and f_dot_grad_f multiply with ndarray.dot,
counterexample_field fills fresh np.empty arrays and the chart maps take
norms as math.sqrt(v.dot(v)).  Each is compared with `==` against the
form it replaced, kept in oracles.py: @ products, nested-list field
values, np.linalg.norm.
"""

import numpy as np
import pytest

from roughpaths.log_sphere_map import (choose_shift, grad2_phi, grad_phi,
                                       sphere_state_projection,
                                       transformed_field)
from roughpaths.rde_solver import (SolverConfig, solve_rde,
                                   solve_rde_corrected)
from roughpaths.rough_paths import (AreaDrift, decompose,
                                    lift_piecewise_linear, pure_area_path)
from roughpaths.vector_fields import (SecondOrderField, VectorField,
                                      counterexample_field, f_dot_grad_f,
                                      linear_field, tanh_field)

from oracles import (counterexample_eval_lists, counterexample_grad_lists,
                     davie_solve_matmul, f_dot_grad_f_matmul, grad2_phi_norm,
                     grad_phi_norm, sphere_state_projection_norm,
                     transformed_field_norm)

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
    return VectorField(2, 1, counterexample_eval_lists,
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


@pytest.mark.parametrize("route", ["plain", "fused", "unfused"])
def test_solver_matches_the_matmul_step(route):
    rng = np.random.default_rng(801)
    mesh = np.linspace(0.0, 1.0, K + 1)
    for name, f, f_ref in field_pairs(rng):
        x = random_polyline(rng, f.m)
        a = rng.normal(0.0, 1.0, size=f.d)
        cfg = SolverConfig(base_mesh=K)
        if route == "plain":
            sol = solve_rde(x, f, a, 1.0, cfg)
            ref = davie_solve_matmul(x, f_ref, a, mesh)
        else:
            beta = random_drift(rng, x.times, f.m)
            so = f_dot_grad_f(f)
            so_ref = f_dot_grad_f(f_ref)
            if route == "unfused":
                so = SecondOrderField(f.d, f.m, so.eval)
                so_ref = SecondOrderField(f.d, f.m,
                                          f_dot_grad_f_matmul(f_ref))
            sol = solve_rde_corrected(x, beta, f, so, a, 1.0, cfg)
            ref = davie_solve_matmul(x, f_ref, a, mesh, (so_ref, beta))
        assert_same(sol, ref, f"{route} {name}")


def test_projected_route_matches_the_norm_chart_maps():
    rng = np.random.default_rng(802)
    mesh = np.linspace(0.0, 1.0, K + 1)
    for name, f, f_ref in field_pairs(rng)[::3]:
        x = random_polyline(rng, f.m)
        a = rng.normal(0.0, 1.0, size=f.d)
        shift = choose_shift(a, 5.0)
        h = transformed_field(f, shift)
        ev, gr = transformed_field_norm(f_ref, shift.b)
        h_ref = VectorField(f.d + 1, f.m, ev, gr)
        w0 = shift.state_of(a)
        sol = solve_rde(x, h, w0, 1.0, SolverConfig(
            base_mesh=K, state_projection=sphere_state_projection(f.d)))
        ref = davie_solve_matmul(
            x, h_ref, w0, mesh,
            projection=sphere_state_projection_norm(f.d))
        assert_same(sol, ref, f"projected {name}")


def test_crossing_matches_the_matmul_step():
    f = counterexample_field()
    a = np.array([1.0, 0.0])
    x = pure_area_path(1.5)
    geo, drift = decompose(x)
    mesh = np.linspace(0.0, 1.5, 513)
    cfg = SolverConfig(base_mesh=512, r_max=50.0)
    f_ref = lists_field()
    plain = solve_rde(x, f, a, 1.5, cfg)
    assert_same(plain, davie_solve_matmul(x, f_ref, a, mesh, r_max=50.0),
                "plain")
    fused = solve_rde_corrected(geo, drift, f, f_dot_grad_f(f), a, 1.5, cfg)
    assert_same(fused, davie_solve_matmul(
        geo, f_ref, a, mesh, (f_dot_grad_f(f_ref), drift), r_max=50.0),
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


def test_counterexample_field_returns_a_fresh_array_per_call():
    # the solver stores eval's result per step, so a reused buffer would
    # alias every stored row
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
        assert bits(grad2_phi(z)) == bits(grad2_phi_norm(z)), z
        d = len(z)
        w = np.concatenate([z, [0.5]])
        assert (bits(sphere_state_projection(d)(w))
                == bits(sphere_state_projection_norm(d)(w))), z
    w = np.array([0.0, -0.0, 2.0])
    assert (bits(sphere_state_projection(2)(w))
            == bits(sphere_state_projection_norm(2)(w)))
