"""The stacked Davie loop: B trajectories of one field, one field call
per step, each row equal to its solo solve bit for bit.

growth_bound_check solves all its dilations through
rde_solver._davie_stack.  Its stacked products are np.matmul on the
views that give ndarray.dot's bits, and the built-in fields take a
(B, d) stack of states; both are pinned here with `==` against the
solo route: solve_rde, one driver at a time, the per-lambda loop
growth_bound_check ran before (davie_stack_solo).
"""

import dataclasses
import math

import numpy as np
import pytest

from roughpaths import cli, rde_solver
from roughpaths.log_sphere_map import (choose_shift, sphere_state_projection,
                                       transformed_field)
from roughpaths.rde_solver import (FieldEvaluationError, SolverConfig,
                                   _davie_stack, growth_bound_check,
                                   solve_rde)
from roughpaths.rough_paths import brownian_lift, dilate, lift_piecewise_linear
from roughpaths.vector_fields import (VectorField, counterexample_field,
                                      linear_field, tanh_field, zero_field)


def hypothesis_settings():
    """hypothesis and the settings of the property tests, derandomized so
    that the tier-1 suite is reproducible run to run; skips the calling
    test without hypothesis."""
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.settings(max_examples=25, deadline=None,
                             derandomize=True, database=None)


def builtin_field(name, d, m, rng):
    if name == "counterexample":
        return counterexample_field()
    if name == "linear":
        return linear_field(rng.normal(0.0, 0.7, size=(d, m, d)),
                            rng.normal(0.0, 0.3, size=(d, m)))
    if name == "tanh":
        return tanh_field(d, m, scale=0.8, seed=int(rng.integers(1000)))
    return zero_field(d, m)


def random_polyline(rng, m, n=6, scale=0.5, T=1.0):
    pts = np.zeros((n + 1, m))
    pts[1:] = np.cumsum(rng.normal(0.0, scale, size=(n, m)), axis=0)
    return lift_piecewise_linear(pts, np.linspace(0.0, T, n + 1))


def davie_stack_solo(xs, f, a, T, cfg):
    """_davie_stack as one solve_rde per driver, in turn."""
    return [solve_rde(x, f, a, T, cfg) for x in xs]


def assert_same_solution(sol, ref, label=""):
    """Field by field, arrays by `==` and shape, the rest by `==`."""
    for fld in dataclasses.fields(ref):
        got, want = getattr(sol, fld.name), getattr(ref, fld.name)
        if isinstance(want, np.ndarray):
            assert got.shape == want.shape, (label, fld.name)
            assert np.array_equal(got, want), (label, fld.name)
        else:
            assert got == want, (label, fld.name)


# ---------------------------------------------------------------------------
# the stacked-state contract of the built-in fields


def test_builtin_fields_take_stacked_states():
    hyp, settings = hypothesis_settings()
    st = hyp.strategies

    @settings
    @hyp.given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
               m=st.integers(1, 3), B=st.integers(1, 9),
               name=st.sampled_from(["counterexample", "linear", "tanh",
                                     "zero"]),
               scale=st.sampled_from([1e-3, 1.0, 30.0]))
    def stacked_rows(seed, d, m, B, name, scale):
        rng = np.random.default_rng(seed)
        f = builtin_field(name, d, m, rng)
        assert f.stacked
        Y = scale * rng.normal(size=(B, f.d))
        ev, gr = f.eval(Y), f.grad(Y)
        assert ev.shape == (B, f.d, f.m)
        assert gr.shape == (B, f.d, f.m, f.d)
        for k in range(B):
            assert np.array_equal(ev[k], f.eval(Y[k])), (name, k)
            assert np.array_equal(gr[k], f.grad(Y[k])), (name, k)
        # fresh arrays: the loop keeps eval's result for every step
        assert not np.shares_memory(f.eval(Y), ev)
        assert not np.shares_memory(f.grad(Y), gr)

    stacked_rows()


# ---------------------------------------------------------------------------
# every row is its solo solve


def test_stacked_rows_equal_solo_solves():
    hyp, settings = hypothesis_settings()
    st = hyp.strategies

    @settings
    @hyp.given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
               m=st.integers(1, 3), name=st.sampled_from(["linear", "tanh"]),
               lam=st.sampled_from([0.37, 1.3, 2.9]),
               r_max=st.sampled_from([2.0, 6.0, 1e6]),
               mesh=st.sampled_from([16, 64, 200]))
    def rows_equal_solo(seed, d, m, name, lam, r_max, mesh):
        # dilations of one polyline (dyadic and not) and an independent
        # one; at d = 1, m >= 2 a contiguous copy of b^T would change the
        # bits
        rng = np.random.default_rng(seed)
        f = builtin_field(name, d, m, rng)
        x = random_polyline(rng, m)
        xs = [dilate(x, s) for s in (1.0, lam, 2.0, 4.0 * lam)]
        xs.append(random_polyline(rng, m, n=3))
        a = rng.normal(0.0, 1.0, size=d)
        cfg = SolverConfig(base_mesh=mesh, r_max=r_max)
        sols = _davie_stack(xs, f, a, 1.0, cfg)
        assert len(sols) == len(xs)
        for k, (sol, xk) in enumerate(zip(sols, xs)):
            assert_same_solution(sol, solve_rde(xk, f, a, 1.0, cfg), k)

    rows_equal_solo()


def test_stacked_rows_cross_and_leave_the_stack():
    # the counterexample field on scaled polylines: several rows cross
    # r_max at different steps, and the others keep stepping
    rng = np.random.default_rng(311)
    f = counterexample_field()
    x = random_polyline(rng, 1, n=8, scale=0.4, T=5.0)
    xs = [dilate(x, lam) for lam in (1.0, 8.0, 2.0, 6.0, 0.5, 12.0)]
    cfg = SolverConfig(base_mesh=2048, r_max=8.0)
    a = np.array([1.0, 0.0])
    sols = _davie_stack(xs, f, a, 5.0, cfg)
    crossed = [sol.blowup is not None for sol in sols]
    assert 2 <= sum(crossed) < len(xs)
    assert len({len(sol.times) for sol in sols}) >= 3
    for sol, xk in zip(sols, xs):
        assert_same_solution(sol, solve_rde(xk, f, a, 5.0, cfg))


def nan_above(level):
    """A stacked field that turns NaN where y1 exceeds level (y' = y)."""

    def ev(y):
        return np.where(y[..., :1, None] > level, np.nan, y[..., :, None])

    def gr(y):
        return np.broadcast_to(np.eye(1)[:, None, :],
                               y.shape[:-1] + (1, 1, 1)).copy()

    return VectorField(1, 1, ev, gr, stacked=True)


@pytest.mark.parametrize("lambdas", [(1.0, 8.0, 4.0), (1.0, 4.0, 8.0),
                                     (8.0, 1.0)])
def test_stacked_loop_raises_the_first_rows_failure(lambdas):
    # solved in turn, the first row whose solve fails raises: the stack
    # raises that row's error even where a later row fails first
    f = nan_above(20.0)
    x = lift_piecewise_linear(np.array([[0.0], [1.0]]), [0.0, 1.0])
    xs = [dilate(x, lam) for lam in lambdas]
    cfg = SolverConfig(base_mesh=256, r_max=math.inf)
    a = np.array([1.0])
    errors = []
    for xk in xs:
        try:
            solve_rde(xk, f, a, 1.0, cfg)
        except FieldEvaluationError as exc:
            errors.append(exc)
    assert errors
    with pytest.raises(FieldEvaluationError) as info:
        _davie_stack(xs, f, a, 1.0, cfg)
    assert info.value.t == errors[0].t
    assert np.array_equal(info.value.y, errors[0].y)


# ---------------------------------------------------------------------------
# what the stacked loop hands to solve_rde


def count_solo_solves(monkeypatch):
    """Patch rde_solver.solve_rde to record the driver of every call."""
    calls = []

    def spy(x, *args):
        calls.append(x)
        return solve_rde(x, *args)

    monkeypatch.setattr(rde_solver, "solve_rde", spy)
    return calls


@pytest.mark.parametrize("case", ["one-driver", "unstacked-field",
                                  "transformed-field", "projection"])
def test_stacked_loop_hands_what_it_cannot_batch_to_solve_rde(monkeypatch,
                                                               case):
    f = counterexample_field()
    x = random_polyline(np.random.default_rng(313), 1)
    xs = [x, dilate(x, 2.0)]
    a = np.array([1.0, 0.0])
    cfg = SolverConfig(base_mesh=32)
    if case == "one-driver":
        xs = xs[:1]
    elif case == "unstacked-field":
        # the same maps as the counterexample field, not declared stacked
        f = VectorField(2, 1, f.eval, f.grad)
    elif case == "transformed-field":
        shift = choose_shift(a, 5.0)
        f, a = transformed_field(f, shift), shift.state_of(a)
    else:
        cfg = SolverConfig(base_mesh=32,
                           state_projection=sphere_state_projection(2))
    refs = davie_stack_solo(xs, f, a, 1.0, cfg)
    calls = count_solo_solves(monkeypatch)
    sols = _davie_stack(xs, f, a, 1.0, cfg)
    assert len(calls) == len(sols) == len(xs)
    for sol, ref in zip(sols, refs):
        assert_same_solution(sol, ref)


def test_growth_check_routes_by_its_inputs(monkeypatch):
    # several lambdas of a stacked field without projection stay in the
    # stack; one lambda, a field not declared stacked or a projection
    # take solve_rde per lambda, with the same report
    f = counterexample_field()
    x = random_polyline(np.random.default_rng(318), 1, scale=0.3)
    a = np.array([1.0, 0.0])
    cfg = SolverConfig(base_mesh=128)
    ref = growth_bound_check(f, x, a, 1.0, cfg)
    calls = count_solo_solves(monkeypatch)
    assert growth_bound_check(f, x, a, 1.0, cfg) == ref
    assert len(calls) == 0
    solo = VectorField(2, 1, f.eval, f.grad)
    assert growth_bound_check(solo, x, a, 1.0, cfg) == ref
    assert len(calls) == 4
    one = growth_bound_check(f, x, a, 1.0, cfg, lambdas=(2.0,))
    assert one.rows == ref.rows[1:2]
    assert len(calls) == 5
    proj = SolverConfig(base_mesh=128,
                        state_projection=sphere_state_projection(2))
    rep = growth_bound_check(f, x, a, 1.0, proj, lambdas=(1.0, 4.0))
    assert len(calls) == 7
    assert [r["sup_y"] for r in rep.rows] == [
        solve_rde(dilate(x, lam), f, a, 1.0, proj).sup_norm()
        for lam in (1.0, 4.0)]


def test_stacked_loop_shares_the_entry_checks():
    f = counterexample_field()
    x = random_polyline(np.random.default_rng(316), 1)
    short = lift_piecewise_linear(np.array([[0.0], [0.1]]), [0.0, 0.5])
    cfg = SolverConfig(base_mesh=32)
    for xs, a, match in (([x], [1.0, np.nan], "finite"),
                         ([x], [1.0], "shape"),
                         ([x, short], [1.0, 0.0], "horizon"),
                         ([x, random_polyline(np.random.default_rng(1), 2)],
                          [1.0, 0.0], "driver dimension")):
        with pytest.raises(ValueError, match=match):
            _davie_stack(xs, f, a, 1.0, cfg)
        with pytest.raises(ValueError, match=match):
            for xk in xs:
                solve_rde(xk, f, a, 1.0, cfg)


# ---------------------------------------------------------------------------
# growth_bound_check on the stack, defect (e) included


GROWTH_4096 = {
    "field": {"name": "counterexample"},
    "driver": {"kind": "brownian-stratonovich", "steps": 4096, "m": 1,
               "T": 1.0},
    "a": [1.0, 0.0], "T": 1.0, "mesh": 4096,
    "lambdas": [1.0, 2.0, 4.0, 8.0],
}


@pytest.mark.parametrize("seed", [8, 15])
def test_lambda_8_crossing_inside_the_stack_equals_its_solo_solve(seed):
    # defect (e): at mesh 4096 the fixed step goes unstable on these
    # drivers and the lambda = 8 row crosses r_max; the stack reproduces
    # the solo solves exactly, crossing included
    x = brownian_lift(seed, 4096, 1.0, 1)
    f = counterexample_field()
    a = np.array([1.0, 0.0])
    cfg = SolverConfig(base_mesh=4096)
    xs = [dilate(x, lam) for lam in GROWTH_4096["lambdas"]]
    sols = _davie_stack(xs, f, a, 1.0, cfg)
    refs = davie_stack_solo(xs, f, a, 1.0, cfg)
    assert [sol.blowup is not None for sol in sols] == [False] * 3 + [True]
    for sol, ref in zip(sols, refs):
        assert_same_solution(sol, ref)
    for sol in sols[:3]:
        assert sol.times[-1] == 1.0
        assert len(sol.times) == 4097
    crossed, ref = sols[3], refs[3]
    assert crossed.blowup == ref.blowup
    assert crossed.times[-1] == ref.blowup.crossing_time < 1.0
    rep = growth_bound_check(f, x, a, 1.0, cfg)
    assert rep.any_explosion and not rep.passed
    assert [r["explosion"] for r in rep.rows] == [False] * 3 + [True]
    assert [r["sup_y"] for r in rep.rows] == [s.sup_norm() for s in refs]


@pytest.mark.parametrize("seed", [8, 15])
def test_only_the_crossed_row_goes_to_solve_rde(monkeypatch, seed):
    # the lambda = 8 row crosses r_max inside the stack and is solved
    # again by solve_rde; the other rows finish in the stack
    x = brownian_lift(seed, 4096, 1.0, 1)
    xs = [dilate(x, lam) for lam in GROWTH_4096["lambdas"]]
    calls = count_solo_solves(monkeypatch)
    sols = _davie_stack(xs, counterexample_field(), np.array([1.0, 0.0]),
                        1.0, SolverConfig(base_mesh=4096))
    assert len(calls) == 1 and calls[0] is xs[3]
    assert sols[3].blowup is not None


@pytest.mark.parametrize("seed", [8, 15])
def test_growth_demo_with_a_crossing_matches_the_solo_route(
        tmp_path, monkeypatch, seed):
    cfg_path = tmp_path / "growth.json"
    cfg_path.write_text(cli.json.dumps(GROWTH_4096))

    def run(out):
        return cli.main(["growth-demo", "--config", str(cfg_path),
                         "--seed", str(seed), "--out", str(tmp_path / out)])

    assert run("stacked") == 1
    monkeypatch.setattr(rde_solver, "_davie_stack", davie_stack_solo)
    assert run("solo") == 1
    for name in ("growth_table.csv", "growth.svg", "report.txt"):
        assert ((tmp_path / "stacked" / name).read_bytes()
                == (tmp_path / "solo" / name).read_bytes()), name


def test_growth_rows_carry_the_fit_abscissa():
    x = random_polyline(np.random.default_rng(317), 1, T=5.0, scale=0.12)
    cfg = SolverConfig(base_mesh=256)
    rep = growth_bound_check(counterexample_field(), x,
                             np.array([1.0, 0.0]), 5.0, cfg,
                             lambdas=(1.0, 3.0))
    for row in rep.rows:
        assert row["s"] == row["pvar"] ** cfg.p * 5.0
