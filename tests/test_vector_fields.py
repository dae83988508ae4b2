import math
import struct
from itertools import product

import numpy as np
import pytest

from roughpaths.log_sphere_map import ShiftedMap, h1_h2, transformed_field
from roughpaths.vector_fields import (_compiled, _sum_lines,
                                      counterexample_field, f_dot_grad_f,
                                      linear_field, make_field, tanh_field,
                                      zero_field)

from oracles import f_dot_grad_f_matmul, field_of_arrays, finite_diff_grad


def test_builtin_gradients_match_finite_differences():
    rng = np.random.default_rng(30)
    fields = [linear_field(rng.normal(size=(3, 3))),
              counterexample_field(),
              tanh_field(2, 2, scale=1.3, seed=1)]
    for vf in fields:
        pts = rng.uniform(-10, 10, size=(1000, vf.d))
        worst = 0.0
        for y in pts:
            fd = finite_diff_grad(vf.eval, y, 1e-5)
            ga = vf.grad(y)
            scale = max(1.0, float(np.max(np.abs(ga))))
            worst = max(worst, float(np.max(np.abs(fd - ga))) / scale)
        assert worst <= 1e-6, vf.name


def test_linear_field_gradient_is_exact():
    A = np.array([[1.0, 2.0], [-0.5, 0.25]])
    vf = linear_field(A, c=[0.5, -1.0])
    y = np.array([0.3, -0.7])
    fd = finite_diff_grad(vf.eval, y, 1e-6)
    assert np.max(np.abs(fd - vf.grad(y))) <= 1e-9


def test_counterexample_gradient_at_unit_point():
    vf = counterexample_field()
    g = vf.grad(np.array([1.0, 0.0]))
    # row 1: (sin 0, 1*cos 0) = (0, 1); row 2: (1, 0)
    assert np.allclose(g[0, 0], [0.0, 1.0], atol=1e-14)
    assert np.allclose(g[1, 0], [1.0, 0.0], atol=1e-14)
    fd = finite_diff_grad(vf.eval, np.array([1.0, 0.0]), 1e-5)
    assert np.max(np.abs(fd - g)) <= 1e-8


def test_finite_difference_is_second_order():
    vf = tanh_field(2, 1, seed=4)
    y = np.array([0.4, -0.9])
    exact = vf.grad(y)
    e1 = np.max(np.abs(finite_diff_grad(vf.eval, y, 2e-3) - exact))
    e2 = np.max(np.abs(finite_diff_grad(vf.eval, y, 1e-3) - exact))
    assert 3.0 <= e1 / e2 <= 5.0


def test_finite_diff_rejects_nonpositive_step():
    vf = zero_field(1, 1)
    with pytest.raises(ValueError, match="positive"):
        finite_diff_grad(vf.eval, np.zeros(1), 0.0)


def bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


def jet_field(kind, d, m, rng):
    """A field of the kind and its second-order field: a builtin, the
    chart fields (h1, h2) of a linear field on R^(d-1) (d >= 2), or a
    field given as eval and grad on arrays, each with its derived field
    unless it is a chart field."""
    if kind == "transformed":
        k = max(d - 1, 1)
        return h1_h2(linear_field(rng.normal(size=(k, m, k))),
                     ShiftedMap(rng.normal(size=k)))
    if kind == "counterexample":
        f = counterexample_field()
    elif kind == "linear":
        f = linear_field(rng.normal(size=(d, m, d)), rng.normal(size=(d, m)))
    elif kind == "tanh":
        f = tanh_field(d, m, scale=1.3, seed=int(rng.integers(1000)))
    elif kind == "zero":
        f = zero_field(d, m)
    else:
        th = tanh_field(d, m, seed=int(rng.integers(1000)))
        f = field_of_arrays(
            d, m, lambda y: np.sin(th.eval(y)),
            lambda y: np.cos(th.eval(y))[..., None] * th.grad(y))
    return f, f_dot_grad_f(f)


# set from float64 eps before measuring: each entry of f . grad f is a
# sum of d <= 3 products, so the left-to-right sum and the @ product are
# each within about d eps/2 times sum_c |grad f_ajc f_ci| of the exact
# sum (the standard bound on a d-term dot product), so within d eps of
# each other; one eps more covers the rounding of the bound itself
DERIVED_TOL = 4 * np.finfo(float).eps


def test_jet_equals_eval_and_grad():
    # the solver's one call per step gives eval's and grad's bits, for a
    # native jet (counterexample, chart field) and one of array values
    # alike; a second-order field's jet gives its eval's bits, and the
    # derived field's float sums stay within DERIVED_TOL of the @ form
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=120, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
               m=st.integers(1, 3),
               kind=st.sampled_from(["counterexample", "linear", "tanh",
                                     "zero", "transformed", "user"]),
               scale=st.sampled_from([1e-3, 1.0, 30.0, 1e6]))
    def agree(seed, d, m, kind, scale):
        rng = np.random.default_rng(seed)
        f, so = jet_field(kind, d, m, rng)
        y = scale * rng.normal(size=f.d)
        if kind == "transformed":
            y[-1] = rng.uniform(-5.0, 5.0)   # rho, inside the chart's range
        F, G = f.jet(y.tolist())
        assert len(F) == f.d * f.m and len(G) == f.d * f.m * f.d
        assert bits(np.array(F, dtype=float).reshape(f.d, f.m)) == bits(
            f.eval(y)), kind
        assert bits(np.array(G, dtype=float).reshape(f.d, f.m, f.d)) == bits(
            f.grad(y)), kind
        H = so.jet(y.tolist())
        assert len(H) == so.d * so.m * so.m
        assert bits(np.array(H, dtype=float).reshape(
            so.d, so.m, so.m)) == bits(so.eval(y)), kind
        if so.source is f:
            ev, gr = f.eval(y), f.grad(y)
            bound = np.einsum("ajc,ci->aij", np.abs(gr), np.abs(ev))
            gap = np.abs(so.eval(y) - f_dot_grad_f_matmul(f)(y))
            assert np.all(gap <= DERIVED_TOL * bound), kind

    agree()


# ---------------------------------------------------------------------------
# the derived second-order field


def test_derived_field_scalar_identity():
    vf = linear_field(1.0)
    fdf = f_dot_grad_f(vf)
    for y in (0.0, 1.0, -2.5):
        assert fdf.eval(np.array([y]))[0, 0, 0] == pytest.approx(y)


def test_derived_field_counterexample_closed_form():
    vf = counterexample_field()
    fdf = f_dot_grad_f(vf)
    rng = np.random.default_rng(31)
    for _ in range(50):
        xi = rng.normal(size=2) * 3
        got = fdf.eval(xi)[:, 0, 0]
        want = np.array([np.sin(xi[1]) ** 2 * xi[0]
                         + xi[0] ** 2 * np.cos(xi[1]),
                         np.sin(xi[1]) * xi[0]])
        assert np.allclose(got, want, atol=1e-13)


def test_derived_field_zero():
    fdf = f_dot_grad_f(zero_field(3, 2))
    assert np.max(np.abs(fdf.eval(np.ones(3)))) == 0.0


def test_derived_field_rank_one_contraction_routes_agree():
    vf = tanh_field(3, 2, seed=5)
    fdf = f_dot_grad_f(vf)
    rng = np.random.default_rng(32)
    for _ in range(20):
        v = rng.normal(size=3)
        u, w = rng.normal(size=2), rng.normal(size=2)
        via_matrix = np.einsum("aij,ij->a", fdf.eval(v), np.outer(u, w))
        direct = np.einsum("ajc,c,j->a", vf.grad(v), vf.eval(v) @ u, w)
        assert np.allclose(via_matrix, direct, atol=1e-12)


def test_derived_field_linear_is_a_squared():
    A = np.array([[0.3, -1.0], [0.8, 0.2]])
    fdf = f_dot_grad_f(linear_field(A))
    rng = np.random.default_rng(33)
    for _ in range(10):
        y = rng.normal(size=2)
        assert np.allclose(fdf.eval(y)[:, 0, 0], A @ A @ y, atol=1e-13)


def test_generated_sums_round_as_a_loop_from_zero():
    # a sum of thousands of terms would overflow the compiler's recursion
    # as one expression; over lines it compiles, and every length, the
    # empty sum and a sum of negative zeros included, gives the bits of
    # s = 0.0; s += t in the same order
    rng = np.random.default_rng(31)
    for n in (0, 1, 2, 63, 64, 65, 200, 5000):
        v = (rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n))
        v = v.tolist() if n != 2 else [-0.0, -0.0]
        total = _compiled("total", "v", _sum_lines(
            "s", [f"v[{k}]" for k in range(n)]) + ["return s"], "<sum>")
        s = 0.0
        for t in v:
            s += t
        assert math.copysign(1.0, total(v)) == math.copysign(1.0, s)
        assert total(v) == s, n


def test_a_sum_from_zero_takes_any_zero_added_to_it_as_plus_zero():
    # the rule the Davie loop's rows and |y|^2 rest on.  A = 0.0 + a is
    # never -0.0, so A + B has the bits of A + (0.0 + B), B differing
    # from 0.0 + B at most in the sign of a zero; and a square is never
    # -0.0, so a sum of squares needs no leading 0.0
    def bits(v):
        return struct.pack("<d", v)

    values = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, math.inf, -math.inf,
              math.nan)
    for a, b, c in product(values, repeat=3):
        A = 0.0 + a
        for B in (b, b + c, b * c):
            assert bits(A + B) == bits(A + (0.0 + B)), (a, b, c)
        assert (bits(a * a + b * b + c * c)
                == bits(0.0 + a * a + b * b + c * c)), (a, b, c)


def test_field_registry():
    assert make_field("counterexample").name == "counterexample"
    assert make_field("linear", A=2.0).eval(np.array([3.0]))[0, 0] == 6.0
    assert make_field("zero", d=2, m=2).d == 2
    with pytest.raises(ValueError, match="unknown field"):
        make_field("spline")
