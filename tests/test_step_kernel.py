"""The Davie step on Python floats, and the numpy forms it leans on.

The solver steps on Python floats with left-to-right sums, one field
jet per step (and one of h2's on the unfused route); its output is
compared with `==` against the nested-list float oracle in oracles.py on
every route, and with the @-product step (whose BLAS kernels may fuse
multiply-adds) within a tolerance set from float64 eps.
counterexample_field's jet runs math on Python floats and the chart maps
take |z|^2 of every row of a stack by np.matmul on the row views; each
is compared with `==` against the form it replaced: nested-list field
values, np.linalg.norm on one point.  The sphere projection sums |q|^2
on floats: `==` to a float loop, and within 2 eps of np.linalg.norm.
"""

import math
import traceback
from dataclasses import replace

import numpy as np
import pytest

from roughpaths.log_sphere_map import (ShiftedMap, choose_shift, grad_phi,
                                       sphere_state_projection,
                                       transformed_field)
from roughpaths.rde_solver import (_CHUNK, FieldEvaluationError,
                                   SolverConfig, solve_rde,
                                   solve_rde_corrected)
from roughpaths.rough_paths import (AreaDrift, decompose,
                                    lift_piecewise_linear, pure_area_path)
from roughpaths.vector_fields import (SecondOrderField, VectorField,
                                      _jet_of_lines, counterexample_field,
                                      f_dot_grad_f, linear_field, tanh_field,
                                      zero_field)

from oracles import (counterexample_eval_lists, counterexample_grad_lists,
                     davie_solve_floats, davie_solve_matmul, field_of_arrays,
                     grad_phi_norm, mesh_increments, mesh_level1,
                     sphere_state_projection_floats,
                     sphere_state_projection_norm, state_of_norm,
                     transformed_field_loops)

K = 128


def random_polyline(rng, m, n=6, scale=0.3, flat=False):
    """A polyline of n random segments; flat leaves about half of them
    still (zero level-1 increments)."""
    steps = rng.normal(0.0, scale, size=(n, m))
    if flat:
        steps[rng.random(n) < 0.5] = 0.0
    pts = np.zeros((n + 1, m))
    pts[1:] = np.cumsum(steps, axis=0)
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
    # bits, not ==: -0.0 == 0.0, so == cannot see a sign of zero
    y, cross_inc, crossing = ref
    assert bits(sol.y) == bits(np.asarray(y, dtype=float)), label
    assert (bits(sol.cross_inc)
            == bits(np.asarray(cross_inc, dtype=float))), label
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


@pytest.mark.parametrize("route", ["plain", "fused", "unfused"])
def test_solver_equals_the_float_oracle_where_sums_go_over_lines(route):
    # d = 9, m = 8: the grad f . P sum of each row has 72 terms, more
    # than one generated line holds
    rng = np.random.default_rng(808)
    f = linear_field(rng.normal(0.0, 0.1, size=(9, 8, 9)))
    sol, ref = route_solves(rng, route, f, f, davie_solve_floats)
    assert_same(sol, ref, route)


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
    assert sol.blowup is None and len(calls) == K + 1   # a check, K steps
    assert all(type(v) is float for y in calls for v in y)


@pytest.mark.parametrize("route", ["plain", "fused", "unfused"])
def test_each_route_calls_the_field_jet_once_per_step(route):
    # one jet call on the start state checks its lengths, then one per
    # step; f's own derived field is fused into the step's level-2
    # input, so its jet never runs
    rng = np.random.default_rng(807)
    f = tanh_field(2, 2, scale=0.8, seed=4)
    jet, calls, so_calls = f.jet, [], []

    def counting_jet(y):
        calls.append(y)
        return jet(y)

    f.jet = counting_jet
    so = f_dot_grad_f(f)
    so_jet = so.jet

    def counting_so_jet(y):
        so_calls.append(y)
        return so_jet(y)

    so.jet = counting_so_jet
    x = random_polyline(rng, 2)
    a = rng.normal(0.0, 1.0, size=2)
    cfg = SolverConfig(base_mesh=K)
    if route == "plain":
        sol = solve_rde(x, f, a, 1.0, cfg)
    else:
        h2 = so if route == "fused" else SecondOrderField(2, 2,
                                                          counting_so_jet)
        sol = solve_rde_corrected(x, random_drift(rng, x.times, 2), f, h2,
                                  a, 1.0, cfg)
    assert sol.blowup is None
    # the unfused h2 is f's derived field, whose jet calls f's once more
    # per call of its own
    assert len(so_calls) == (K + 1 if route == "unfused" else 0)
    assert len(calls) == K + 1 + len(so_calls)
    assert calls[0] == a.tolist()


def loop_fields(kind, d, m, rng):
    """(field, oracle field) of a kind: builtins whose jet is compiled
    from source lines the generated loop inlines, and bare callables it
    calls once a step (linear_field's jet is a closure)."""
    if kind == "counterexample":
        return counterexample_field(), lists_field()
    if kind == "zero":
        return zero_field(d, m), field_of_arrays(
            d, m, lambda y: np.zeros((d, m)), lambda y: np.zeros((d, m, d)))
    if kind == "bare counterexample":
        jet = counterexample_field().jet
        return VectorField(2, 1, lambda y: jet(y)), lists_field()
    lin = linear_field(rng.normal(0.0, 0.7, size=(d, m, d)))
    return lin, lin


def signed_zero_field(kind):
    """f = -0.0 and grad f = +0.0 at every state (d = 2, m = 1), its jet
    compiled from source lines the loop inlines for a builtin kind, else
    a bare callable."""
    if kind in ("counterexample", "zero"):
        lines = ["F0 = -0.0", "F1 = -0.0", *(f"G{k} = 0.0" for k in range(4))]
        return VectorField(2, 1, _jet_of_lines(2, 1, lines, "signed zero"))
    return VectorField(2, 1, lambda y: ((-0.0, -0.0), (0.0,) * 4))


def halve_tail(w):
    """A state projection that never lengthens the state, so that the
    crossing bisection finds states in the ball near the start of the
    step (which holds as well for a projection that maps a state it
    returned to itself, the case test_rde_solver's sphere projection
    test covers)."""
    return [w[0], *(0.5 * v for v in w[1:])]


def float_norm(v):
    n2 = 0.0
    for w in np.asarray(v, dtype=float).tolist():
        n2 += w * w
    return math.sqrt(n2)


@pytest.mark.parametrize("route", ["plain", "fused", "unfused", "projected"])
@pytest.mark.parametrize("kind", ["counterexample", "zero",
                                  "bare counterexample", "bare linear"])
def test_generated_loop_equals_the_float_oracle(route, kind):
    # for inlined builtins and bare callables alike: the solve at
    # r_max = inf, then one at an r_max its states cross, each == to the
    # oracle, crossing record and FieldEvaluationError state included;
    # the pure-area driver takes the counterexample field past the
    # largest float within the solve, and a start of 1e155 overflows
    # |y|^2 at once; zeros draws a start of +-0.0 entries and, off the
    # pure-area driver, a polyline with flat segments, so that every
    # product of a row can be a signed zero.  A fixed case makes every
    # product of the first step's rows -0.0 on every route: f = -0.0,
    # grad f = +0.0 and a separate h2 = -0.0 from a start of (-0.0, -0.0),
    # with u > 0 and dbeta > 0 (so b > 0 and P = -0.0), where a row
    # summed without its leading 0.0 would stay -0.0
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    K = 64
    seen = set()

    def solve(f, so, x, beta, a, T, r_max):
        cfg = SolverConfig(base_mesh=K, r_max=r_max, state_projection=(
            halve_tail if route == "projected" else None))
        if route in ("plain", "projected"):
            return solve_rde(x, f, a, T, cfg)
        return solve_rde_corrected(x, beta, f, so, a, T, cfg)

    def oracle(f_ref, so_ref, x, beta, a, mesh, r_max):
        young = None if route in ("plain", "projected") else (so_ref, beta)
        return davie_solve_floats(x, f_ref, a, mesh, young, r_max, (
            halve_tail if route == "projected" else None))

    def check(f, f_ref, so, so_ref, x, beta, a, T):
        mesh = np.linspace(0.0, T, K + 1)
        r_max = math.inf
        for _ in range(2):
            try:
                sol = solve(f, so, x, beta, a, T, r_max)
            except FieldEvaluationError as err:
                k = int(np.flatnonzero(mesh == err.t)[0])
                y = a[None] if k == 0 else oracle(
                    f_ref, so_ref, x, beta, a, mesh[:k + 1], r_max)[0]
                assert bits(err.y) == bits(y[-1])
                with pytest.raises(AssertionError):   # its n2 check
                    oracle(f_ref, so_ref, x, beta, a, mesh[:k + 2], r_max)
                seen.add("non-finite" if k else "non-finite at once")
            else:
                ref = oracle(f_ref, so_ref, x, beta, a, mesh, r_max)
                assert_same(sol, ref, a)
                if sol.blowup is not None:
                    assert sol.blowup.threshold == r_max
                    assert (sol.blowup.last_value_norm
                            == float_norm(ref[0][-1]))
                    seen.add("crossing")
                y = ref[0]
            sup = max(float_norm(v) for v in y)
            if not sup > float_norm(a):
                break
            r_max = 0.5 * (float_norm(a) + sup)
        return y

    @hyp.settings(max_examples=24, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3),
               m=st.integers(1, 2), pure_area=st.booleans(),
               scale=st.sampled_from([1.0, 1e155]), zeros=st.booleans())
    def agree(seed, d, m, pure_area, scale, zeros):
        rng = np.random.default_rng(seed)
        f, f_ref = loop_fields(kind, d, m, rng)
        assert hasattr(f.jet, "lines") == (kind in ("counterexample",
                                                    "zero"))
        so, so_ref = f_dot_grad_f(f), f_dot_grad_f(f_ref)
        if route == "unfused":
            so, so_ref = SecondOrderField(f.d, f.m, so.jet), f_ref
        if pure_area and f.m == 1:
            T = 2.0
            x = pure_area_path(T)
            x_hat, beta = decompose(x)
            x = x if route in ("plain", "projected") else x_hat
            a = np.array([rng.uniform(1.0, 2.0), *[0.0] * (f.d - 1)])
        else:
            T = 1.0
            x = random_polyline(rng, f.m, flat=zeros)
            beta = random_drift(rng, x.times, f.m)
            a = rng.normal(0.0, 1.0, size=f.d)
        if zeros:
            a = rng.choice([0.0, -0.0], size=f.d)
        check(f, f_ref, so, so_ref, x, beta, scale * a, T)

    agree()
    f = signed_zero_field(kind)
    x = lift_piecewise_linear(np.array([[0.0], [1.0]]), [0.0, 1.0])
    beta = AreaDrift(x.times, 0.25 * x.times[:, None, None])
    so, so_ref = f_dot_grad_f(f), f_dot_grad_f(f)
    if route == "unfused":
        # the oracle's h2 is f's derived field, +0.0 where the solver's
        # is -0.0: a sum from 0.0 takes either to the same bits
        so, so_ref = SecondOrderField(2, 1, lambda y: [-0.0, -0.0]), f
    y = check(f, f, so, so_ref, x, beta, np.array([-0.0, -0.0]), 1.0)
    assert bits(np.asarray(y[1:])) == bits(np.zeros((K, 2)))
    assert "non-finite at once" in seen
    if kind != "zero":
        assert "crossing" in seen
    if "counterexample" in kind:
        assert "non-finite" in seen


@pytest.mark.parametrize("route", ["plain", "fused", "unfused"])
@pytest.mark.parametrize("builtin", [counterexample_field,
                                     lambda: zero_field(2, 2)])
def test_a_replaced_builtin_jet_is_called_once_per_step(route, builtin):
    # the loop inlines a builtin's source lines only while its jet is
    # the function compiled from them: a jet put in its place runs, one
    # entry check and then once per step, never a stale inlined copy
    rng = np.random.default_rng(809)
    f = builtin()
    jet, calls = f.jet, []

    def counting_jet(y):
        calls.append(y)
        return jet(y)

    f.jet = counting_jet
    x = random_polyline(rng, f.m)
    a = rng.normal(0.0, 1.0, size=f.d)
    cfg = SolverConfig(base_mesh=K)
    if route == "plain":
        sol = solve_rde(x, f, a, 1.0, cfg)
    else:
        so = f_dot_grad_f(f)
        h2 = so if route == "fused" else SecondOrderField(f.d, f.m, so.jet)
        sol = solve_rde_corrected(x, random_drift(rng, x.times, f.m), f, h2,
                                  a, 1.0, cfg)
    assert sol.blowup is None
    # the unfused h2 is f's derived field, whose jet calls f's once more
    # per call of its own
    assert len(calls) == (K + 1) * (2 if route == "unfused" else 1)


@pytest.mark.parametrize("route", ["plain", "fused", "unfused"])
def test_a_traceback_through_generated_code_shows_its_lines(route):
    # the jet passes the entry check at y = 0 and fails once the state
    # passes 0.5, inside the generated solve loop (and, on the unfused
    # route, also inside the generated f . grad f jet when called alone)
    def jet(y):
        if y[0] > 0.5:
            raise ArithmeticError("the jet failed")
        return (1.0,), (0.0,)

    f = VectorField(1, 1, jet)
    x = lift_piecewise_linear(np.array([[0.0], [1.0]]), [0.0, 1.0])
    a = np.array([0.0])
    cfg = SolverConfig(base_mesh=K)
    so = f_dot_grad_f(f)
    with pytest.raises(ArithmeticError) as info:
        if route == "plain":
            solve_rde(x, f, a, 1.0, cfg)
        else:
            beta = AreaDrift(x.times, np.zeros((2, 1, 1)))
            h2 = so if route == "fused" else SecondOrderField(1, 1, so.jet)
            solve_rde_corrected(x, beta, f, h2, a, 1.0, cfg)
    text = "".join(traceback.format_exception(info.value))
    # line 5 builds the list y the called jet takes, line 6 calls it
    assert f'File "<davie loop d=1 m=1 {route}>", line 6, in loop' in text
    assert "    F, G = f_jet(y)\n" in text
    with pytest.raises(ArithmeticError) as info:
        so.jet([1.0])
    text = "".join(traceback.format_exception(info.value))
    assert 'File "<f . grad f d=1 m=1>", line 2, in jet' in text
    assert "    F, G = f_jet(y)\n" in text


@pytest.mark.parametrize("route", ["plain", "fused", "unfused", "projected"])
def test_a_sum_of_negative_zeros_is_positive_zero(route):
    # f = 0 and grad f = -0.0 at a start of -0.0: every product in the
    # step is a signed zero, and a sum from 0.0 makes +0.0 of them, as
    # the oracle's loop does; without the row's leading 0.0 the state
    # would stay -0.0.  f . u is -0.0 on every route, grad f . P on the
    # fused one where b = x2 + dbeta >= 0 and h2 . dbeta on the unfused
    # one where dbeta < 0
    f = VectorField(1, 1, lambda y: ((0.0,), (-0.0,)))
    x = lift_piecewise_linear(np.array([[0.0], [-1.0]]), [0.0, 1.0])
    mesh = np.linspace(0.0, 1.0, K + 1)
    a = np.array([-0.0])
    proj = (lambda w: w) if route == "projected" else None
    cfg = SolverConfig(base_mesh=K, state_projection=proj)
    if route in ("plain", "projected"):
        sol, ref = (solve_rde(x, f, a, 1.0, cfg),
                    davie_solve_floats(x, f, a, mesh, projection=proj))
    else:
        slope = 0.25 if route == "fused" else -0.25
        beta = AreaDrift(x.times, slope * x.times[:, None, None])
        so = f_dot_grad_f(f)
        assert bits(np.array(so.jet([-0.0]))) == bits(np.array([0.0]))
        h2, h2_ref = (so, so) if route == "fused" else (
            SecondOrderField(1, 1, so.jet), f)
        sol = solve_rde_corrected(x, beta, f, h2, a, 1.0, cfg)
        ref = davie_solve_floats(x, f, a, mesh, (h2_ref, beta))
    assert_same(sol, ref, route)
    assert bits(sol.y[1:]) == bits(np.zeros((K, 1)))


def test_projected_route_matches_the_float_oracles():
    # the chart field's loop jet (the generated jet's == reference, see
    # test_log_sphere_map) over the oracle field on one side; the loop
    # and the angular renormalisation are compared with the float
    # oracles, a loop from 0.0 for |q|^2 (its gap to np.linalg.norm is
    # bounded in test_chart_maps_match_their_norm_versions)
    rng = np.random.default_rng(802)
    mesh = np.linspace(0.0, 1.0, K + 1)
    for name, f, f_ref in field_pairs(rng):
        x = random_polyline(rng, f.m)
        a = rng.normal(0.0, 1.0, size=f.d)
        shift = choose_shift(a, 5.0)
        h = transformed_field(f, shift)
        h_ref = VectorField(f.d + 1, f.m,
                            transformed_field_loops(f_ref, shift.b))
        w0 = shift.state_of(a)
        sol = solve_rde(x, h, w0, 1.0, SolverConfig(
            base_mesh=K, state_projection=sphere_state_projection(f.d)))
        ref = davie_solve_floats(
            x, h_ref, w0, mesh,
            projection=sphere_state_projection_floats(f.d))
        assert_same(sol, ref, f"projected {name}")


def normalize_in_place(d):
    """The angular renormalisation done on the list of floats itself,
    which it returns."""

    def project(w):
        n = 0.0
        for v in w[:d]:
            n += v * v
        n = math.sqrt(n)
        for k in range(d):
            w[k] /= n
        return w

    return project


def normalize_into_buffer(d):
    """sphere_state_projection's result copied into one list that every
    call returns."""
    buf = [0.0] * (d + 1)
    project = sphere_state_projection(d)

    def shared(w):
        buf[:] = project(w)
        return buf

    return shared


@pytest.mark.parametrize("name", ["identity", "in place", "shared buffer"])
def test_projection_may_return_its_input_or_a_shared_buffer(name):
    # the loop copies the projection's values out before it calls it
    # again; the oracle keeps each projected state apart
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
            ref_proj = sphere_state_projection_floats(d)
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
    assert type(err.value.t) is float
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


# two chunks and three rows: the solve crosses block and chunk
# boundaries, and its last chunk is shorter than a block
LONG_K = 2 * _CHUNK + 3
ROUTES = ["plain", "fused", "unfused", "projected"]


def long_solve(route, f, x, beta, a, T, r_max=math.inf, steps=LONG_K):
    """The solver on one route over LONG_K steps: a corrected route
    takes f's derived field, fused or (unfused) as a separate h2, and
    the projected route is the plain one with halve_tail."""
    cfg = SolverConfig(base_mesh=steps, r_max=r_max, state_projection=(
        halve_tail if route == "projected" else None))
    if route in ("plain", "projected"):
        return solve_rde(x, f, a, T, cfg)
    so = f_dot_grad_f(f)
    if route == "unfused":
        so = SecondOrderField(f.d, f.m, so.jet)
    return solve_rde_corrected(x, beta, f, so, a, T, cfg)


def long_oracle(route, f_ref, x, beta, a, T, r_max=math.inf, steps=LONG_K):
    """davie_solve_floats on long_solve's route and mesh, its h2 given
    as in route_solves; it queries the driver on the whole mesh, and
    after a crossing on the whole truncated one."""
    young = None if route in ("plain", "projected") else (
        f_ref if route == "unfused" else f_dot_grad_f(f_ref), beta)
    return davie_solve_floats(
        x, f_ref, a, np.linspace(0.0, T, steps + 1), young, r_max,
        halve_tail if route == "projected" else None)


def assert_driver_rows(sol, x, label):
    # the solution's level 1 and level-2 increments are the segment
    # formula's on all of its times, and its level 1 is `at`'s
    assert bits(sol.x) == bits(mesh_level1(x, sol.times)), label
    assert bits(sol.x) == bits(x.at(sol.times)[0]), label
    assert bits(sol.x2_inc) == bits(mesh_increments(x, sol.times)[1]), label


@pytest.mark.parametrize("route", ROUTES)
def test_solver_equals_the_float_oracle_across_chunks(route):
    # the solver queries the driver a chunk at a time and packs its
    # records block by block; every bit is still the oracle's.  With
    # m = 2 each chunk's cross integral sums over m
    rng = np.random.default_rng(811)
    f = tanh_field(3, 2, scale=0.8, seed=5)
    x = random_polyline(rng, 2)
    beta = random_drift(rng, x.times, 2)
    a = rng.normal(0.0, 1.0, size=3)
    sol = long_solve(route, f, x, beta, a, 1.0)
    assert len(sol.times) == LONG_K + 1
    assert_same(sol, long_oracle(route, f, x, beta, a, 1.0), route)
    assert_driver_rows(sol, x, route)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("steps", [16, 24])
def test_a_mesh_coarser_than_the_driver_equals_the_float_oracle(route,
                                                                 steps):
    # 64 driver segments on 16 steps (every row a pair of grid points)
    # or 24 (rows spanning grid points with a partial head and tail);
    # then a crossing bisected inside such a row, through the float row
    rng = np.random.default_rng(812)
    f = tanh_field(3, 2, scale=0.8, seed=5)
    x = random_polyline(rng, 2, n=64)
    beta = random_drift(rng, x.times, 2)
    a = rng.normal(0.0, 1.0, size=3)
    free = long_solve(route, f, x, beta, a, 1.0, steps=steps)
    assert_same(free, long_oracle(route, f, x, beta, a, 1.0, steps=steps),
                route)
    assert_driver_rows(free, x, route)
    norms = [float_norm(y) for y in free.y]
    j = next(k for k in range(steps // 2, steps)
             if norms[k + 1] > max(norms[:k + 1]))
    r_max = 0.5 * (max(norms[:j + 1]) + norms[j + 1])
    sol = long_solve(route, f, x, beta, a, 1.0, r_max, steps)
    assert len(sol.times) == j + 2 and sol.blowup is not None
    assert_same(sol, long_oracle(route, f, x, beta, a, 1.0, r_max, steps),
                route)
    assert_driver_rows(sol, x, route)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("step", [2 * _CHUNK - 1, 2 * _CHUNK + 1])
def test_a_crossing_in_a_later_chunk_equals_the_float_oracle(route, step):
    # on the pure-area driver |y| = y1 grows at every step, so an r_max
    # between |y| at mesh points step and step + 1 makes that step
    # cross: on the last row of the second chunk, whose one-row
    # re-query writes the chunk's boundary row, and inside the third
    f = counterexample_field()
    x = pure_area_path(0.9)
    geo, drift = decompose(x)
    drv = x if route in ("plain", "projected") else geo
    a = np.array([1.0, 0.0])
    free = long_solve(route, f, drv, drift, a, 0.9)
    r_max = 0.5 * (float_norm(free.y[step]) + float_norm(free.y[step + 1]))
    sol = long_solve(route, f, drv, drift, a, 0.9, r_max)
    assert len(sol.times) == step + 2 and sol.blowup is not None
    ref = long_oracle(route, lists_field(), drv, drift, a, 0.9, r_max)
    assert_same(sol, ref, route)
    assert sol.blowup.last_value_norm == float_norm(ref[0][-1])
    assert_driver_rows(sol, drv, route)


@pytest.mark.parametrize("projected", [False, True])
def test_a_field_error_in_a_later_chunk_reports_its_last_state(projected):
    # dy = y dx on the time lift passes 2.5 near t = log 2.5, in the
    # second chunk; the step from there raises with the state it
    # stepped from, the oracle's state at that mesh time
    def ev(y):
        return np.array([[np.nan]]) if y[0] > 2.5 else np.array([[y[0]]])

    bad = field_of_arrays(1, 1, ev, lambda y: np.array([[[1.0]]]))
    x = lift_piecewise_linear(np.array([[0.0], [1.0]]), [0.0, 1.0])
    cfg = SolverConfig(base_mesh=LONG_K,
                       state_projection=(lambda w: w) if projected else None)
    with pytest.raises(FieldEvaluationError) as err:
        solve_rde(x, bad, np.array([1.0]), 1.0, cfg)
    mesh = np.linspace(0.0, 1.0, LONG_K + 1)
    k = int(np.flatnonzero(mesh == err.value.t)[0])
    assert _CHUNK <= k < 2 * _CHUNK
    ref = davie_solve_floats(x, bad, np.array([1.0]), mesh[:k + 1])[0]
    assert bits(err.value.y) == bits(ref[-1])


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
        # the projection sums |q|^2 left to right on floats: the bits
        # of the float oracle, within 2 eps of np.linalg.norm's (at most
        # 1.9 eps over 560,000 such states, d = 1-4)
        w = [*z.tolist(), 0.5]
        got = np.array(sphere_state_projection(d)(w))
        assert bits(got) == bits(np.array(
            sphere_state_projection_floats(d)(w))), z
        want = sphere_state_projection_norm(d)(np.array(w))
        assert (np.abs(got[:d] - want[:d])
                <= 2 * np.finfo(float).eps * np.abs(want[:d])).all(), z
        assert got[d] == 0.5
    for w in ([0.0, -0.0, 2.0], [math.inf, 1.0, 2.0], [math.nan, 1.0, 2.0]):
        # |q| is 0 or not finite: the state comes back as it is
        assert sphere_state_projection(2)(w) is w
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
