"""growth_bound_check's rows: one per lambda, each the solve_rde of its
dilated driver, in the order of the lambdas.

The rows are compared with `==` against solve_rde on each dilation (the
solo route) and, where a row crosses r_max, against the float oracle;
the checks made before stepping, the errors of failing rows and their
order are pinned on the growth check itself.  The file name and three
test names still say "stack": they date from a loop that stepped all the
dilations at once, which growth_bound_check no longer has.
"""

import math

import numpy as np
import pytest

from roughpaths import cli, rde_solver
from roughpaths.log_sphere_map import (choose_shift, sphere_state_projection,
                                       transformed_field)
from roughpaths.rde_solver import (FieldEvaluationError, SolverConfig,
                                   growth_bound_check, solve_rde)
from roughpaths.rough_paths import brownian_lift, dilate, lift_piecewise_linear
from roughpaths.vector_fields import (counterexample_field, linear_field,
                                      tanh_field)

from oracles import davie_solve_floats, field_of_arrays


def hypothesis_settings():
    """hypothesis and the settings of the property tests, derandomized so
    that the tier-1 suite is reproducible run to run; skips the calling
    test without hypothesis."""
    hyp = pytest.importorskip("hypothesis")
    return hyp, hyp.settings(max_examples=25, deadline=None,
                             derandomize=True, database=None)


def builtin_field(name, d, m, rng):
    if name == "linear":
        return linear_field(rng.normal(0.0, 0.7, size=(d, m, d)),
                            rng.normal(0.0, 0.3, size=(d, m)))
    return tanh_field(d, m, scale=0.8, seed=int(rng.integers(1000)))


def random_polyline(rng, m, n=6, scale=0.5, T=1.0):
    pts = np.zeros((n + 1, m))
    pts[1:] = np.cumsum(rng.normal(0.0, scale, size=(n, m)), axis=0)
    return lift_piecewise_linear(pts, np.linspace(0.0, T, n + 1))


def solo_rows(f, x, a, T, cfg, lambdas):
    """(sup|y|, crossed) of solve_rde on each dilation, in turn."""
    sols = [solve_rde(dilate(x, lam), f, a, T, cfg) for lam in lambdas]
    return [(sol.sup_norm(), sol.blowup is not None) for sol in sols]


def report_rows(rep):
    return [(row["sup_y"], row["explosion"]) for row in rep.rows]


def count_solo_solves(monkeypatch):
    """Patch rde_solver.solve_rde to record the driver of every call."""
    calls = []

    def spy(x, *args):
        calls.append(x)
        return solve_rde(x, *args)

    monkeypatch.setattr(rde_solver, "solve_rde", spy)
    return calls


# ---------------------------------------------------------------------------
# every row is its solo solve


def test_growth_rows_equal_solo_solves():
    hyp, settings = hypothesis_settings()
    st = hyp.strategies

    @settings
    @hyp.given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
               m=st.integers(1, 3), name=st.sampled_from(["linear", "tanh"]),
               lam=st.sampled_from([0.37, 1.3, 2.9]),
               r_max=st.sampled_from([2.0, 6.0, 1e6]),
               mesh=st.sampled_from([16, 64, 200]))
    def rows_equal_solo(seed, d, m, name, lam, r_max, mesh):
        # dilations of one polyline, dyadic and not
        rng = np.random.default_rng(seed)
        f = builtin_field(name, d, m, rng)
        x = random_polyline(rng, m)
        a = rng.normal(0.0, 1.0, size=d)
        cfg = SolverConfig(base_mesh=mesh, r_max=r_max)
        lambdas = (1.0, lam, 2.0, 4.0 * lam)
        rep = growth_bound_check(f, x, a, 1.0, cfg, lambdas=lambdas)
        assert report_rows(rep) == solo_rows(f, x, a, 1.0, cfg, lambdas)

    rows_equal_solo()


def test_growth_rows_cross_at_their_own_steps():
    # the counterexample field on a scaled polyline: several rows cross
    # r_max at different steps, and the others step on to T
    rng = np.random.default_rng(311)
    f = counterexample_field()
    x = random_polyline(rng, 1, n=8, scale=0.4, T=5.0)
    lambdas = (1.0, 8.0, 2.0, 6.0, 0.5, 12.0)
    cfg = SolverConfig(base_mesh=2048, r_max=8.0)
    a = np.array([1.0, 0.0])
    sols = [solve_rde(dilate(x, lam), f, a, 5.0, cfg) for lam in lambdas]
    crossed = [sol.blowup is not None for sol in sols]
    assert 2 <= sum(crossed) < len(lambdas)
    assert len({len(sol.times) for sol in sols}) >= 3
    rep = growth_bound_check(f, x, a, 5.0, cfg, lambdas=lambdas)
    assert report_rows(rep) == [(sol.sup_norm(), c)
                                for sol, c in zip(sols, crossed)]


def nan_above(level):
    """A field that turns NaN where y1 exceeds level (y' = y)."""

    def ev(y):
        return np.array([[np.nan if y[0] > level else y[0]]])

    def gr(y):
        return np.array([[[1.0]]])

    return field_of_arrays(1, 1, ev, gr)


@pytest.mark.parametrize("lambdas", [(1.0, 8.0, 4.0), (1.0, 4.0, 8.0),
                                     (8.0, 1.0)])
def test_stacked_loop_raises_the_first_rows_failure(lambdas):
    # solved in turn, the first row whose solve fails raises, with the
    # state it stepped from, even where a later row fails at an earlier t
    f = nan_above(20.0)
    x = lift_piecewise_linear(np.array([[0.0], [1.0]]), [0.0, 1.0])
    cfg = SolverConfig(base_mesh=256, r_max=math.inf)
    a = np.array([1.0])
    errors = []
    for lam in lambdas:
        try:
            solve_rde(dilate(x, lam), f, a, 1.0, cfg)
        except FieldEvaluationError as exc:
            errors.append(exc)
    assert errors
    with pytest.raises(FieldEvaluationError) as info:
        growth_bound_check(f, x, a, 1.0, cfg, lambdas=lambdas)
    assert info.value.t == errors[0].t
    assert np.array_equal(info.value.y, errors[0].y)
    assert np.isfinite(info.value.y).all()


# ---------------------------------------------------------------------------
# what the growth check hands to solve_rde


@pytest.mark.parametrize("case", ["one-driver", "array-field",
                                  "transformed-field", "projection"])
def test_stacked_loop_hands_what_it_cannot_batch_to_solve_rde(monkeypatch,
                                                               case):
    # one lambda, a field given as eval and grad on arrays, a chart
    # field and a state projection: growth_bound_check makes one
    # solve_rde call per lambda, in order
    f = counterexample_field()
    x = random_polyline(np.random.default_rng(313), 1, scale=0.3)
    lambdas = (1.0, 2.0)
    a = np.array([1.0, 0.0])
    cfg = SolverConfig(base_mesh=32)
    if case == "one-driver":
        lambdas = lambdas[:1]
    elif case == "array-field":
        f = field_of_arrays(2, 1, f.eval, f.grad)
    elif case == "transformed-field":
        shift = choose_shift(a, 5.0)
        f, a = transformed_field(f, shift), shift.state_of(a)
    else:
        cfg = SolverConfig(base_mesh=32,
                           state_projection=sphere_state_projection(2))
    refs = solo_rows(f, x, a, 1.0, cfg, lambdas)
    calls = count_solo_solves(monkeypatch)
    rep = growth_bound_check(f, x, a, 1.0, cfg, lambdas=lambdas)
    assert len(calls) == len(lambdas)
    for xk, lam in zip(calls, lambdas):
        assert np.array_equal(xk.level2, dilate(x, lam).level2)
    assert report_rows(rep) == refs


def test_growth_check_routes_by_its_inputs(monkeypatch):
    # every lambda takes one solve_rde call, whatever the field, the
    # number of lambdas or the projection, and the report is the same
    # for a field given as eval and grad on arrays
    f = counterexample_field()
    x = random_polyline(np.random.default_rng(318), 1, scale=0.3)
    a = np.array([1.0, 0.0])
    cfg = SolverConfig(base_mesh=128)
    ref = growth_bound_check(f, x, a, 1.0, cfg)
    calls = count_solo_solves(monkeypatch)
    assert growth_bound_check(f, x, a, 1.0, cfg) == ref
    assert len(calls) == 4
    solo = field_of_arrays(2, 1, f.eval, f.grad)
    assert growth_bound_check(solo, x, a, 1.0, cfg) == ref
    assert len(calls) == 8
    one = growth_bound_check(f, x, a, 1.0, cfg, lambdas=(2.0,))
    assert one.rows == ref.rows[1:2]
    assert len(calls) == 9
    proj = SolverConfig(base_mesh=128,
                        state_projection=sphere_state_projection(2))
    rep = growth_bound_check(f, x, a, 1.0, proj, lambdas=(1.0, 4.0))
    assert len(calls) == 11
    assert [r["sup_y"] for r in rep.rows] == [
        solve_rde(dilate(x, lam), f, a, 1.0, proj).sup_norm()
        for lam in (1.0, 4.0)]


def test_growth_check_shares_the_entry_checks():
    f = counterexample_field()
    x = random_polyline(np.random.default_rng(316), 1)
    cfg = SolverConfig(base_mesh=32)
    for xk, a, T, match in (
            (x, [1.0, np.nan], 1.0, "finite"),
            (x, [1.0], 1.0, "shape"),
            (x, [1.0, 0.0], 2.0, "horizon"),
            (random_polyline(np.random.default_rng(1), 2), [1.0, 0.0], 1.0,
             "driver dimension")):
        with pytest.raises(ValueError, match=match):
            growth_bound_check(f, xk, a, T, cfg)
        with pytest.raises(ValueError, match=match):
            solve_rde(xk, f, a, T, cfg)


# ---------------------------------------------------------------------------
# growth_bound_check at growth-demo's mesh, defect (e) included


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
    # drivers and the lambda = 8 row crosses r_max; its row is the solo
    # solve, whose crossing is the float oracle's
    x = brownian_lift(seed, 4096, 1.0, 1)
    f = counterexample_field()
    a = np.array([1.0, 0.0])
    cfg = SolverConfig(base_mesh=4096)
    lambdas = GROWTH_4096["lambdas"]
    sols = [solve_rde(dilate(x, lam), f, a, 1.0, cfg) for lam in lambdas]
    assert [sol.blowup is not None for sol in sols] == [False] * 3 + [True]
    for sol in sols[:3]:
        assert sol.times[-1] == 1.0
        assert len(sol.times) == 4097
    crossed = sols[3]
    y, cross_inc, crossing = davie_solve_floats(
        dilate(x, 8.0), f, a, np.linspace(0.0, 1.0, 4097))
    assert crossed.blowup.crossing_time == crossing < 1.0
    assert crossed.times[-1] == crossing
    assert np.array_equal(crossed.y, y)
    assert np.array_equal(crossed.cross_inc, cross_inc)
    rep = growth_bound_check(f, x, a, 1.0, cfg)
    assert rep.any_explosion
    assert report_rows(rep) == [(s.sup_norm(), s.blowup is not None)
                                for s in sols]


@pytest.mark.parametrize("seed", [8, 15])
def test_growth_demo_with_a_crossing_matches_the_solo_route(tmp_path, seed):
    cfg_path = tmp_path / "growth.json"
    cfg_path.write_text(cli.json.dumps(GROWTH_4096))
    out = tmp_path / "out"
    assert cli.main(["growth-demo", "--config", str(cfg_path),
                     "--seed", str(seed), "--out", str(out)]) == 1
    table = (out / "growth_table.csv").read_text().splitlines()
    assert table[0] == "lambda,pvar,s,sup_y,log_sup_y,explosion"
    got = [(float(line.split(",")[3]), line.split(",")[5] == "1")
           for line in table[1:]]
    x = brownian_lift(seed, 4096, 1.0, 1)
    assert got == solo_rows(counterexample_field(), x, np.array([1.0, 0.0]),
                            1.0, SolverConfig(base_mesh=4096),
                            GROWTH_4096["lambdas"])


def test_growth_rows_carry_the_fit_abscissa():
    x = random_polyline(np.random.default_rng(317), 1, T=5.0, scale=0.12)
    cfg = SolverConfig(base_mesh=256)
    rep = growth_bound_check(counterexample_field(), x,
                             np.array([1.0, 0.0]), 5.0, cfg,
                             lambdas=(1.0, 3.0))
    for row in rep.rows:
        assert row["s"] == row["pvar"] ** cfg.p * 5.0
