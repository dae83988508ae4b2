import math
from types import SimpleNamespace

import numpy as np
import pytest

from roughpaths import cli
from roughpaths.log_sphere_map import choose_shift, grad_phi
from roughpaths.partial_rough_paths import (_ADDITIVITY_SAMPLES,
                                            PartialRoughPath, SmoothMap,
                                            pushforward, pvar_distance)
from roughpaths.rde_solver import SolverConfig, solution_to_partial, solve_rde
from roughpaths.rough_paths import _grid_triples
from roughpaths.vector_fields import make_field

from oracles import (partial_from_smooth, pushforward_rows, riemann_cross,
                     rough_integral_along)


def smooth_prp(n=64, p=2.0):
    """x = t, y = t^2 on [0,1] with refined-sum iterated integrals."""
    return partial_from_smooth(lambda t: t, lambda t: t * t,
                               np.linspace(0.0, 1.0, n + 1), p=p, refine=16)


def random_prp(rng, n=12, d=2, m=2, p=2.0):
    times = np.linspace(0.0, 1.0, n + 1)
    x = np.vstack([np.zeros(m), np.cumsum(rng.normal(size=(n, m)), axis=0)])
    y = np.vstack([np.zeros(d), np.cumsum(rng.normal(size=(n, d)), axis=0)])
    x2 = rng.normal(size=(n, m, m))
    cross = rng.normal(size=(n, d, m))
    return PartialRoughPath(times, x, x2, y, cross, p)


def test_additivity_holds_by_construction():
    rng = np.random.default_rng(40)
    prp = random_prp(rng)
    assert prp.additivity_defect() <= 1e-12
    assert smooth_prp().additivity_defect() <= 1e-12


def test_smooth_construction_matches_riemann_oracle():
    prp = smooth_prp(n=256)
    oracle = riemann_cross(lambda t: t * t, lambda t: t, 0.0, 1.0, n=100_000)
    assert prp.cross_between(0, 256)[0, 0] == pytest.approx(oracle[0, 0],
                                                            abs=1e-5)
    # analytic: int_0^1 (r^2 - 0) dr = 1/3
    assert prp.cross_between(0, 256)[0, 0] == pytest.approx(1.0 / 3.0,
                                                            abs=1e-5)


def test_cross_between_broadcasts_its_grid_indices():
    prp = random_prp(np.random.default_rng(48), d=3, m=2)
    i, j = np.arange(5)[:, None], np.arange(4, 13)
    grid = prp.cross_between(i, j)
    assert grid.shape == (5, 9, 3, 2)
    assert np.array_equal(grid[2, 5], prp.cross_between(2, 9))
    assert np.array_equal(prp.cross_between(4, 4), np.zeros((3, 2)))


@pytest.mark.parametrize("i, j", [
    (-1, 2), (5, 2), (2, 5), (np.array([0, -1]), 2),
    (1, np.array([[2], [7]])), (np.arange(6), 0)])
def test_cross_between_rejects_indices_off_the_grid(i, j):
    # a negative index would wrap around to the end of the grid
    prp = random_prp(np.random.default_rng(49), n=4)
    with pytest.raises(IndexError, match=r"\[0, 5\)"):
        prp.cross_between(i, j)
    assert np.array_equal(prp.cross_between(np.arange(5), 0)[4],
                          prp.cross_between(4, 0))


def test_additivity_defect_builds_the_prefix_sums_once(monkeypatch):
    # its value is the defect of cross_between over the same triples
    prp = random_prp(np.random.default_rng(50), n=40)
    i, j, k = _grid_triples(prp.n_points, 25, _ADDITIVITY_SAMPLES)
    rhs = (prp.cross_between(i, j) + prp.cross_between(j, k)
           + (prp.y[j] - prp.y[i])[:, :, None]
           * (prp.x[k] - prp.x[j])[:, None, :])
    want = float(np.max(np.abs(prp.cross_between(i, k) - rhs)))
    calls = []
    build = PartialRoughPath._cross_pairs

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(PartialRoughPath, "_cross_pairs", counted)
    assert prp.additivity_defect() == want
    assert len(calls) == 1


def test_cross_error_bound_holds_over_random_triples():
    # each pair's prefix-sum cross against the compensated sum of its
    # terms cross_inc[k] + (y_k - y_i) (x) dx_k, one math.fsum per matrix
    # entry, with x and y far from the origin, where the sums cancel
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=50, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
               d=st.integers(1, 3), m=st.integers(1, 2),
               x_offset=st.floats(1e-3, 1e6), y_offset=st.floats(1e-3, 1e6))
    def within_bound(seed, n, d, m, x_offset, y_offset):
        rng = np.random.default_rng(seed)
        prp = random_prp(rng, n=n - 1, d=d, m=m)
        prp = PartialRoughPath(
            prp.times, prp.x + x_offset * rng.choice([-1.0, 1.0], size=m),
            prp.x2_inc, prp.y + y_offset * rng.choice([-1.0, 1.0], size=d),
            prp.cross_inc, prp.p)
        error = prp._cross_pairs()[1]
        dx = np.diff(prp.x, axis=0)
        pairs = np.sort(rng.integers(0, n, size=(20, 2)), axis=1)
        got = prp.cross_between(pairs[:, 0], pairs[:, 1])
        for (i, j), c in zip(pairs, got):
            terms = (prp.cross_inc[i:j]
                     + (prp.y[i:j] - prp.y[i])[:, :, None] * dx[i:j, None, :])
            ref = np.array([[math.fsum(terms[:, a, b]) for b in range(m)]
                            for a in range(d)])
            assert np.linalg.norm(c - ref) <= error

    within_bound()


# ---------------------------------------------------------------------------
# distance


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(41)
    prp = random_prp(rng)
    assert pvar_distance(prp, prp) == 0.0


def test_distance_ignores_constant_shift_of_y():
    rng = np.random.default_rng(42)
    a = random_prp(rng)
    b = PartialRoughPath(a.times, a.x, a.x2_inc, a.y + 3.7, a.cross_inc,
                         a.p)
    assert pvar_distance(a, b) <= 1e-13  # increments only, up to roundoff


def test_distance_hand_check_on_three_point_grid():
    times = np.array([0.0, 1.0, 2.0])
    x = np.array([[0.0], [1.0], [3.0]])
    y = np.array([[0.0], [2.0], [2.0]])
    x2 = np.array([[[0.5]], [[2.0]]])
    cross = np.array([[[1.0]], [[0.5]]])
    a = PartialRoughPath(times, x, x2, y, cross)
    lam = 1.5
    b = PartialRoughPath(times, lam * x, x2, y, lam * cross)
    # x increments differ by (lam-1)|x_{s,t}|, cross entries by (lam-1)C(s,t)
    expected = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            w = times[j] - times[i]
            expected = max(expected,
                           (lam - 1) * abs(x[j, 0] - x[i, 0]) / w ** 0.5)
    for (i, j) in [(0, 1), (1, 2), (0, 2)]:
        w = times[j] - times[i]
        expected = max(expected, (lam - 1)
                       * abs(a.cross_between(i, j)[0, 0]) / w ** 1.0)
    assert pvar_distance(a, b) == pytest.approx(expected)


@pytest.mark.parametrize("times", [[0.0, 0.5, 0.5, 1.0],
                                   [0.0, 0.7, 0.4, 1.0]])
def test_triple_rejects_times_not_strictly_increasing(times):
    # repeated and decreasing times: a pair with t - s <= 0 has no scale
    with pytest.raises(ValueError, match="strictly increasing"):
        PartialRoughPath(np.array(times), np.zeros((4, 1)),
                         np.zeros((3, 1, 1)), np.zeros((4, 1)),
                         np.zeros((3, 1, 1)))


def test_triple_rejects_a_column_of_times():
    # an (N+1, 1) time array is rejected when the triple is built, not
    # later inside pvar_distance
    with pytest.raises(ValueError, match="times must be a 1-d array"):
        PartialRoughPath(np.array([[0.0], [0.5], [1.0]]), np.zeros((3, 1)),
                         np.zeros((2, 1, 1)), np.zeros((3, 1)),
                         np.zeros((2, 1, 1)))


@pytest.mark.parametrize("name, k", [("x", "m"), ("y", "d")])
def test_triple_names_the_state_shape_it_expects(name, k):
    # a 1-d x or y is rejected with the shape it should have had
    arrays = {"x": np.zeros((3, 1)), "y": np.zeros((3, 1)), name: np.zeros(3)}
    with pytest.raises(ValueError, match=rf"{name} must have shape "
                                         rf"\(N\+1, {k}\), got \(3,\)"):
        PartialRoughPath(np.linspace(0.0, 1.0, 3), arrays["x"],
                         np.zeros((2, 1, 1)), arrays["y"],
                         np.zeros((2, 1, 1)))


def test_distance_rejects_grid_mismatch():
    rng = np.random.default_rng(43)
    a = random_prp(rng, n=8)
    b = random_prp(rng, n=10)
    with pytest.raises(ValueError, match="grid"):
        pvar_distance(a, b)


@pytest.mark.parametrize("d, m", [(3, 2), (2, 3), (1, 1)])
def test_distance_rejects_dimension_mismatch(d, m):
    # one grid, other shapes: the message names both triples' (d, m)
    rng = np.random.default_rng(44)
    a = random_prp(rng, n=8, d=2, m=2)
    b = random_prp(rng, n=8, d=d, m=m)
    for first, second in ((a, b), (b, a)):
        with pytest.raises(ValueError) as raised:
            pvar_distance(first, second)
        assert str(raised.value) == (
            f"dimensions do not match: (d, m) = ({first.d}, {first.m}) "
            f"and ({second.d}, {second.m})")


def test_distance_rejects_p_mismatch():
    # the distance scales by (t - s)^(1/p): one p, or the order of the
    # triples would pick it; the message names both
    rng = np.random.default_rng(45)
    a = random_prp(rng, n=8, p=2.0)
    b = random_prp(rng, n=8, p=2.9)
    for first, second in ((a, b), (b, a)):
        with pytest.raises(ValueError) as raised:
            pvar_distance(first, second)
        assert str(raised.value) == (
            f"p does not match: {first.p} and {second.p}")


def test_distance_rejects_times_that_differ_within_allclose():
    # times off by a relative 5e-6, inside np.allclose's rtol of 1e-5:
    # the same values on another grid are not at distance 0
    a = random_prp(np.random.default_rng(43), n=8)
    b = PartialRoughPath(a.times * (1 + 5e-6), a.x, a.x2_inc, a.y,
                         a.cross_inc, a.p)
    with pytest.raises(ValueError, match="time arrays differ"):
        pvar_distance(a, b)


# ---------------------------------------------------------------------------
# pushforward


def _affine_map(A, c):
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    return SmoothMap(A.shape[1], A.shape[0], lambda y: y @ A.T + c,
                     lambda y: np.broadcast_to(A, (len(y),) + A.shape))


def test_pushforward_identity_keeps_cross():
    rng = np.random.default_rng(44)
    prp = random_prp(rng, d=2)
    out = pushforward(prp, _affine_map(np.eye(2), np.zeros(2)))
    assert np.max(np.abs(out.cross_inc - prp.cross_inc)) <= 1e-13
    assert np.max(np.abs(out.y - prp.y)) == 0.0


def test_pushforward_affine_is_exact():
    rng = np.random.default_rng(45)
    prp = random_prp(rng, d=2)
    A = rng.normal(size=(3, 2))
    out = pushforward(prp, _affine_map(A, rng.normal(size=3)))
    for (i, j) in [(0, 5), (3, 9), (0, prp.n_points - 1)]:
        assert np.allclose(out.cross_between(i, j),
                           A @ prp.cross_between(i, j), atol=1e-13)


def test_pushforward_functorial_on_affine_maps():
    rng = np.random.default_rng(46)
    prp = random_prp(rng, d=2)
    A = rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2))
    two_steps = pushforward(pushforward(prp, _affine_map(A, np.zeros(2))),
                            _affine_map(B, np.zeros(2)))
    one_step = pushforward(prp, _affine_map(B @ A, np.zeros(2)))
    assert np.max(np.abs(two_steps.cross_inc - one_step.cross_inc)) <= 1e-12
    assert np.max(np.abs(two_steps.y - one_step.y)) <= 1e-12


def test_pushforward_smooth_square_map_against_oracle():
    # x = t, y = t^2, phi(y) = y^2: the new cross over [0,1] is
    # int_0^1 (phi(y_r) - phi(y_0)) dx_r = int_0^1 r^4 dr = 1/5
    phi = SmoothMap(1, 1, lambda y: y ** 2, lambda y: 2.0 * y[:, :, None])
    oracle = riemann_cross(lambda t: t ** 4, lambda t: t, 0.0, 1.0,
                           n=400_000)[0, 0]
    assert oracle == pytest.approx(0.2, abs=1e-5)
    errs = []
    for n in (2 ** 10, 2 ** 12):
        out = pushforward(smooth_prp(n=n), phi)
        errs.append(abs(out.cross_between(0, n)[0, 0] - 0.2))
    assert errs[-1] <= 1e-7
    assert errs[0] / errs[1] >= 3.0  # second-order in the grid


def test_pushforward_dimension_check():
    rng = np.random.default_rng(47)
    prp = random_prp(rng, d=2)
    with pytest.raises(ValueError, match="phi expects"):
        pushforward(prp, _affine_map(np.eye(3), np.zeros(3)))


@pytest.mark.parametrize("bad_eval, bad_grad, want", [
    (lambda y: y[0], None, r"phi.eval shape \(2,\), expected \(21, 2\)"),
    (lambda y: y[:, :, None], None, r"expected \(21, 2\)"),
    (None, lambda y: np.eye(2), r"phi.grad shape \(2, 2\), "
                                r"expected \(20, 2, 2\)"),
    (None, lambda y: np.ones((len(y) + 1, 2, 2)), r"expected \(20, 2, 2\)"),
], ids=["eval-one-row", "eval-rank-3", "grad-one-point", "grad-one-too-many"])
def test_pushforward_rejects_maps_of_the_wrong_shape(bad_eval, bad_grad,
                                                       want):
    # a map written for one point, or one returning the wrong stack,
    # fails by name instead of broadcasting or reshaping silently
    prp = random_prp(np.random.default_rng(47), n=20, d=2)
    good = _affine_map(np.eye(2), np.zeros(2))
    phi = SmoothMap(2, 2, bad_eval or good.eval, bad_grad or good.grad)
    with pytest.raises(ValueError, match=want):
        pushforward(prp, phi)


def test_pushforward_of_the_chart_matches_the_per_point_reference():
    # the changevar benchmark workload's chart map and driver (a 64-segment
    # random polyline at seed 1, solved on mesh 2048): one eval and one
    # grad call over the 2049-point grid give the bits of one call per
    # grid point
    x = cli.driver_from_config({"kind": "random-polyline", "n": 64,
                                "scale": 0.2, "m": 1, "T": 1.0}, 1)
    f = make_field("counterexample")
    a = np.array([1.0, 0.0])
    sol = solve_rde(x, f, a, 1.0, SolverConfig(base_mesh=2048))
    py = solution_to_partial(sol, x)
    shift = choose_shift(a, 1.5 * float(np.max(np.linalg.norm(sol.y,
                                                              axis=1))))
    psi = SmoothMap(f.d, f.d + 1, shift.state_of,
                    lambda y: grad_phi(shift.b + y))
    out, ref = pushforward(py, psi), pushforward_rows(py, psi)
    assert out.y.shape == (py.n_points, f.d + 1)
    assert out.y.tobytes() == ref.y.tobytes()
    assert out.cross_inc.tobytes() == ref.cross_inc.tobytes()


# ---------------------------------------------------------------------------
# rough integration along the triple


def integrand(ev, gr, gamma=1.0):
    """An integrand g : R^d -> L(R^m, R^n) as rough_integral_along takes
    it: eval, grad and the Holder exponent of grad.  These map R^d into
    R^n with n != d in general, so they are not vector fields."""
    return SimpleNamespace(eval=ev, grad=gr, gamma=gamma)


def test_rough_integral_constant_integrand():
    rng = np.random.default_rng(48)
    prp = random_prp(rng, d=2, m=2)
    G = rng.normal(size=(3, 2))
    g = integrand(lambda y: G, lambda y: np.zeros((3, 2, 2)))
    out = rough_integral_along(prp, g)
    assert np.allclose(out.y[-1], G @ (prp.x[-1] - prp.x[0]), atol=1e-12)


def test_rough_integral_x_dx():
    # g(y) = y with y = x = t: int_0^1 x dx = 1/2
    prp = partial_from_smooth(lambda t: t, lambda t: t,
                              np.linspace(0.0, 1.0, 257), refine=16)
    g = integrand(lambda y: y[:, None], lambda y: np.ones((1, 1, 1)))
    out = rough_integral_along(prp, g)
    assert out.y[-1, 0] == pytest.approx(0.5, abs=1e-6)


def test_rough_integral_identity_embedding_recovers_driver():
    rng = np.random.default_rng(49)
    prp = random_prp(rng, d=2, m=2)
    g = integrand(lambda y: np.eye(2), lambda y: np.zeros((2, 2, 2)))
    out = rough_integral_along(prp, g)
    assert np.allclose(out.y, prp.x - prp.x[0], atol=1e-12)
    assert np.allclose(out.cross_inc, prp.x2_inc, atol=1e-12)


def test_rough_integral_regularity_guard():
    rng = np.random.default_rng(50)
    prp = random_prp(rng, d=1, m=1, p=2.3)
    rough_g = integrand(lambda y: y[:, None], lambda y: np.ones((1, 1, 1)),
                        gamma=0.05)
    with pytest.raises(ValueError, match="gamma"):
        rough_integral_along(prp, rough_g)


# ---------------------------------------------------------------------------
# stability and validation


def test_pushforward_is_lipschitz_in_the_input_triple():
    rng = np.random.default_rng(54)
    base = random_prp(rng, n=10, d=2, m=1)
    phi = SmoothMap(2, 2, lambda y: np.column_stack([np.sin(y[:, 0]),
                                                     y[:, 1] ** 2 / 4]),
                    lambda y: np.stack([np.diag([np.cos(u), v / 2])
                                        for u, v in y]))
    out0 = pushforward(base, phi)
    ratios = []
    for delta in (1e-2, 1e-3, 1e-4):
        pert = PartialRoughPath(
            base.times, base.x + delta * rng.normal(size=base.x.shape) * 0,
            base.x2_inc, base.y + delta, base.cross_inc
            + delta * rng.normal(size=base.cross_inc.shape),
            base.p)
        d_in = pvar_distance(base, pert)
        d_out = pvar_distance(out0, pushforward(pert, phi))
        if d_in > 0:
            ratios.append(d_out / d_in)
    K = max(ratios)
    assert np.isfinite(K)
    # ratios stay of one scale: no blow-up as the perturbation shrinks
    assert max(ratios) <= 10 * min(ratios) + 1e-9


def test_constructor_validation():
    with pytest.raises(ValueError, match="interval"):
        PartialRoughPath(np.array([0.0, 1.0]), np.zeros((2, 1)),
                         np.zeros((2, 1, 1)), np.zeros((2, 1)),
                         np.zeros((1, 1, 1)))
    y = np.array([[0.0], [np.nan]])
    with pytest.raises(ValueError, match="y must be finite"):
        PartialRoughPath(np.array([0.0, 1.0]), np.zeros((2, 1)),
                         np.zeros((1, 1, 1)), y, np.zeros((1, 1, 1)))
    with pytest.raises(ValueError, match="cross_inc must be finite"):
        PartialRoughPath(np.array([0.0, 1.0]), np.zeros((2, 1)),
                         np.zeros((1, 1, 1)), np.zeros((2, 1)),
                         np.full((1, 1, 1), np.inf))
