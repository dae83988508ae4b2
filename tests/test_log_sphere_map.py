import math

import numpy as np
import pytest

from roughpaths.log_sphere_map import (_RHO_OVERFLOW, ShiftedMap,
                                       choose_shift, grad_phi, h1_h2,
                                       sphere_state_projection,
                                       transformed_field)
from roughpaths.rde_solver import SolverConfig, solve_rde
from roughpaths.rough_paths import lift_piecewise_linear
from roughpaths.vector_fields import (counterexample_field, f_dot_grad_f,
                                      linear_field, tanh_field, zero_field)

from oracles import (finite_diff_grad, grad2_phi_norm, grad_phi_norm,
                     h2_loops, transformed_field_loops,
                     transformed_field_norm, z_of)


def phi_vec(z):
    r = np.linalg.norm(z)
    return np.concatenate([z / r, [math.log(r)]])


def chart(z):
    """The unshifted chart (z/|z|, log|z|): state_of with b = 0."""
    z = np.asarray(z, dtype=float)
    return ShiftedMap(np.zeros(z.shape[-1])).state_of(z)


def unit(v):
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# the chart and its derivatives


def test_chart_hand_values():
    w = chart([math.e, 0.0])
    assert np.allclose(w[:2], [1.0, 0.0])
    assert w[2] == pytest.approx(1.0)
    w = chart([3.0, 4.0])
    assert np.allclose(w[:2], [0.6, 0.8])
    assert w[2] == pytest.approx(math.log(5.0))


def test_chart_roundtrips():
    rng = np.random.default_rng(80)
    for _ in range(50):
        z = rng.normal(size=3) * 10 ** rng.uniform(-2, 2)
        if np.linalg.norm(z) < 1e-6:
            continue
        w = chart(z)
        back = z_of(w[:3], w[3])
        assert np.max(np.abs(back - z)) <= 1e-13 * max(1, np.linalg.norm(z))
        theta, rho = unit(rng.normal(size=3)), rng.uniform(-3, 3)
        again = chart(z_of(theta, rho))
        assert np.max(np.abs(again[:3] - theta)) <= 1e-13
        assert abs(again[3] - rho) <= 1e-13


def test_chart_domain_and_overflow_guards():
    with pytest.raises(ValueError, match="chart needs"):
        chart(np.zeros(2))
    with pytest.raises(OverflowError):
        z_of(np.array([1.0, 0.0]), 800.0)


@pytest.mark.parametrize("z", [[0.0, 0.0], [math.inf, 0.0], [1e200, 1e200],
                               [math.nan, 1.0], [1e-170, 0.0]],
                         ids=["origin", "inf", "square-overflows", "nan",
                              "square-underflows"])
def test_chart_and_jacobian_reject_rows_off_the_domain(z):
    # |z|^2 is 0 or not finite in one row of a stack: both maps raise
    # instead of returning NaN with a RuntimeWarning
    zs = np.array([[1.0, 2.0], z, [3.0, -1.0]])
    for fn in (chart, grad_phi):
        with pytest.raises(ValueError, match="the log-sphere chart needs"):
            fn(np.array(z))
        with pytest.raises(ValueError, match="the log-sphere chart needs"):
            fn(zs)


def test_jacobian_rejects_a_radius_whose_cube_underflows():
    # |z|^2 = 1e-240 is a normal float but |z|^3 = 1e-360 is 0.0, which
    # would make z_i z_j / |z|^3 infinite
    assert np.isfinite(chart([1e-120, 0.0])).all()
    with pytest.raises(ValueError, match="Jacobian is not finite"):
        grad_phi(np.array([[1.0, 0.0], [1e-120, 0.0]]))


def test_jacobian_names_the_radius_whose_cube_overflows():
    # |z|^3 overflows above |z| = 5.6e102 (where the chart itself still
    # maps); just below, the Jacobian keeps the bits of its norm form
    assert np.isfinite(chart([1e103, 0.0])).all()
    for z in ([1e103, 0.0], [[1.0, 0.0], [0.0, -6e102]]):
        with pytest.raises(OverflowError, match=r"\|z\| = [16]e\+10[23]"):
            grad_phi(np.array(z))
    z = np.array([5.6e102, 1e101])
    assert np.array_equal(grad_phi(z), grad_phi_norm(z))


def test_inverse_map_local_holder_bound():
    # |z(th,rho) - z(th',rho')| <= exp(max rho)(|th-th'| + |rho-rho'|)
    rng = np.random.default_rng(81)
    for _ in range(200):
        th1, rho1 = unit(rng.normal(size=2)), rng.uniform(-1, 2)
        th2, rho2 = unit(rng.normal(size=2)), rng.uniform(-1, 2)
        lhs = np.linalg.norm(z_of(th1, rho1) - z_of(th2, rho2))
        rhs = math.exp(max(rho1, rho2)) * (
            np.linalg.norm(th1 - th2) + abs(rho1 - rho2))
        assert lhs <= rhs + 1e-12


def test_grad_phi_one_dimensional():
    # for z > 0: theta == 1 so its derivative vanishes; d rho/dz = 1/z
    g = grad_phi(np.array([2.5]))
    assert g[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert g[1, 0] == pytest.approx(1.0 / 2.5)


def test_grad_phi_hand_values_at_unit_point():
    g = grad_phi(np.array([1.0, 0.0]))
    assert g[0, 0] == pytest.approx(0.0, abs=1e-15)   # 1 - 1
    assert g[1, 1] == pytest.approx(1.0)
    assert np.allclose(g[2], [1.0, 0.0])


def test_grad_phi_matches_finite_differences():
    rng = np.random.default_rng(82)
    for _ in range(30):
        z = rng.normal(size=3) * 4
        if np.linalg.norm(z) < 0.3:
            continue
        fd = np.zeros((4, 3))
        for c in range(3):
            e = np.zeros(3)
            e[c] = 1e-6
            fd[:, c] = (phi_vec(z + e) - phi_vec(z - e)) / 2e-6
        rel = np.max(np.abs(grad_phi(z) - fd)) / max(1.0, np.max(np.abs(fd)))
        assert rel <= 1e-7


def test_grad2_phi_matches_finite_differences():
    # the second derivatives transformed_field_norm's oracle uses
    rng = np.random.default_rng(83)
    for _ in range(20):
        z = rng.normal(size=2) * 3
        if np.linalg.norm(z) < 0.5:
            continue
        h = 1e-5
        fd = np.zeros((3, 2, 2))
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fd[:, :, c] = (grad_phi(z + e) - grad_phi(z - e)) / (2 * h)
        assert np.max(np.abs(grad2_phi_norm(z) - fd)) <= 1e-5


def test_grad_phi_decay_like_inverse_radius():
    rng = np.random.default_rng(84)
    consts = []
    for r in np.geomspace(1.0, 1e3, 16):
        th = rng.normal(size=3)
        th /= np.linalg.norm(th)
        z = r * th
        consts.append(np.linalg.norm(grad_phi(z)) * r)
    consts = np.asarray(consts)
    assert consts.max() / consts.min() <= 1.5  # fitted C stable across radii


def test_grad_phi_inverts_the_chart_jacobian():
    # grad_phi(z) composed with dz/d(theta,rho) is the identity on the
    # tangent-plus-radial splitting: blockdiag(I - theta theta^T, 1)
    rng = np.random.default_rng(85)
    for _ in range(20):
        theta, rho = unit(rng.normal(size=3)), rng.uniform(-1, 2)
        z = z_of(theta, rho)
        d = 3
        jz = np.empty((d, d + 1))
        jz[:, :d] = math.exp(rho) * (np.eye(d) - np.outer(theta, theta))
        jz[:, d] = z
        prod = grad_phi(z) @ jz
        want = np.zeros((d + 1, d + 1))
        want[:d, :d] = np.eye(d) - np.outer(theta, theta)
        want[d, d] = 1.0
        assert np.max(np.abs(prod - want)) <= 1e-10


# ---------------------------------------------------------------------------
# transformed fields


def test_linear_field_transforms_to_unit_rho_drift():
    h = transformed_field(linear_field(np.eye(2)), ShiftedMap(np.zeros(2)))
    rng = np.random.default_rng(86)
    for _ in range(20):
        th = rng.normal(size=2)
        th /= np.linalg.norm(th)
        w = np.concatenate([th, [rng.uniform(-2, 4)]])
        assert np.allclose(h.eval(w), [[0.0], [0.0], [1.0]], atol=1e-12)


def test_zero_field_transforms_to_zero():
    h = transformed_field(zero_field(2, 1), ShiftedMap(np.zeros(2)))
    assert np.max(np.abs(h.eval(np.array([1.0, 0.0, 2.0])))) == 0.0
    h1, h2 = h1_h2(zero_field(2, 1), ShiftedMap(np.zeros(2)))
    assert np.max(np.abs(h1.eval(np.array([0.0, 1.0, 1.0])))) == 0.0
    assert np.max(np.abs(h2.eval(np.array([0.0, 1.0, 1.0])))) == 0.0


def test_transformed_gradient_matches_finite_differences():
    shift = ShiftedMap(np.array([4.0, 0.0]))
    h = transformed_field(counterexample_field(), shift)
    rng = np.random.default_rng(87)
    for _ in range(15):
        th = rng.normal(size=2)
        th /= np.linalg.norm(th)
        w = np.concatenate([th, [rng.uniform(0.3, 2.0)]])
        err = np.max(np.abs(h.grad(w) - finite_diff_grad(h.eval, w, 1e-6)))
        assert err <= 2e-6


def test_linear_growth_field_becomes_bounded():
    # |f(z)| <= K|z| makes |h| <= C(A e^-rho + K): the sampled sup must
    # not grow with rho
    shift = ShiftedMap(np.array([3.0, 0.0]))
    h = transformed_field(counterexample_field(), shift)
    rng = np.random.default_rng(88)

    def sup_on_band(lo, hi, n=800):
        worst = 0.0
        for _ in range(n):
            th = rng.normal(size=2)
            th /= np.linalg.norm(th)
            w = np.concatenate([th, [rng.uniform(lo, hi)]])
            worst = max(worst, float(np.linalg.norm(h.eval(w))))
        return worst

    low, high = sup_on_band(0.0, 10.0), sup_on_band(10.0, 20.0)
    assert np.isfinite(high)
    assert high <= 1.2 * low


def max_grad_on_circle(h, d, rho, rng, n=200):
    """max |grad h| in Frobenius norm over n random theta at this rho."""
    theta = rng.normal(size=(n, d))
    theta /= np.linalg.norm(theta, axis=1)[:, None]
    return max(float(np.linalg.norm(h.grad(np.append(t, rho))))
               for t in theta)


def test_chart_field_of_a_bounded_gradient_has_a_bounded_gradient():
    # f(y) = A y has a bounded gradient, which result 1 does not ask for
    # (its class is linear growth, with no gradient bound), and so does
    # its chart field: h = N (A theta - A b e^-rho), so
    # |grad h| <= C |A| (1 + |b| e^-rho) for every rho >= 0.  Measured
    # before this test on 400 draws like these (d = 1-3, m = 1-2, |A| up
    # to 2 per entry, |b| up to 4 per entry, 200 theta per rho): C <= 1.65.
    # For one |A| = 0.67 it read 4.8, 1.3, 0.84, 0.82, 0.82 and 0.82 at
    # rho = 0, 2, 5, 10, 20 and 40
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    C = 2.0

    @hyp.settings(max_examples=30, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3),
               m=st.integers(1, 2), rho=st.floats(0.0, 40.0))
    def bounded(seed, d, m, rho):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(d, m, d)) * rng.uniform(0.1, 2.0)
        b = rng.normal(size=d) * rng.uniform(0.0, 4.0)
        h = transformed_field(linear_field(A), ShiftedMap(b))
        bound = C * np.linalg.norm(A) * (1.0 + np.linalg.norm(b)
                                         * math.exp(-rho))
        assert max_grad_on_circle(h, d, rho, rng) <= bound

    bounded()


def test_counterexample_chart_field_gradient_grows_like_the_radius():
    # in result 1's class (linear growth, no gradient bound) but without a
    # bounded gradient: grad f grows like |z| (d f_1 / d xi_2 =
    # xi_1 cos xi_2), and max|grad h| grows about tenfold per decade of
    # |z| = e^rho, while max|h| stays between 1.2 and 1.5.  Pinned as
    # measured with b = (2, 0)
    h = transformed_field(counterexample_field(),
                          ShiftedMap(np.array([2.0, 0.0])))
    radii = np.array([10.0, 1e2, 1e3, 1e4])
    got = np.array([max_grad_on_circle(h, 2, math.log(r),
                                       np.random.default_rng(7))
                    for r in radii])
    assert got == pytest.approx([12.66, 100.5, 978.5, 9881], rel=1e-3)
    slope = np.polyfit(np.log10(radii), np.log10(got), 1)[0]
    assert 0.9 <= slope <= 1.1


def test_scalar_linear_h2_is_constant():
    h1, h2 = h1_h2(linear_field(1.0), ShiftedMap(np.zeros(1)))
    for w in ([1.0, 0.0], [1.0, 3.0], [-1.0, 1.5]):
        v2 = h2.eval(np.asarray(w))
        assert np.allclose(v2, [[[0.0]], [[1.0]]], atol=1e-13)


def test_counterexample_h2_inflates_exponentially():
    # the derived field is quadratic, so the transformed second-order
    # field grows like exp(rho): boundedness genuinely fails
    shift = ShiftedMap(np.array([3.0, 0.0]))
    _, h2 = h1_h2(counterexample_field(), shift)
    rng = np.random.default_rng(89)
    rhos = np.arange(1.0, 10.5, 1.0)
    sups = []
    for rho in rhos:
        worst = 0.0
        for _ in range(400):
            th = rng.normal(size=2)
            th /= np.linalg.norm(th)
            worst = max(worst, float(np.linalg.norm(
                h2.eval(np.concatenate([th, [rho]])))))
        sups.append(worst)
    slope = np.polyfit(rhos, np.log(sups), 1)[0]
    assert 0.8 <= slope <= 1.2


def random_field(rng, kind, d, m):
    """A field of the kind on R^d (counterexample: d = 2, m = 1)."""
    if kind == "counterexample":
        return counterexample_field()
    if kind == "linear":
        return linear_field(rng.normal(0.0, 0.7, size=(d, m, d)))
    return tanh_field(d, m, seed=int(rng.integers(1000)))


KINDS = ["linear", "counterexample", "tanh"]


def test_closed_form_matches_the_einsum_pull_back():
    # transformed_field_norm is the grad_phi / grad2_phi / einsum form
    # the closed form replaced.  |b| >= 1 keeps that form well
    # conditioned: at d = 1 and |b| = 0.007 its angular entries
    # 1/r - z^2/r^3, which the closed form gets exactly 0, leave a gap of
    # 6e-13, while both forms' error against a 60-digit reference there is
    # 4e-14 (closed) and 6e-13 (einsum)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS),
               d=st.integers(1, 4), m=st.integers(1, 3),
               rho=st.floats(-2.0, 3.0))
    def agree(seed, kind, d, m, rho):
        rng = np.random.default_rng(seed)
        f = random_field(rng, kind, d, m)
        b = rng.normal(size=f.d)
        b *= rng.uniform(1.0, 5.0) / np.linalg.norm(b)
        w = np.append(rng.normal(size=f.d) * rng.uniform(0.5, 2.0), rho)
        h, h2 = h1_h2(f, ShiftedMap(b))
        ev, gr = transformed_field_norm(f, b)
        z = math.exp(rho) * w[:-1] / np.linalg.norm(w[:-1])
        ev2 = np.einsum("ka,aij->kij", grad_phi_norm(z),
                        f_dot_grad_f(f).eval(z - b))
        for got, want in ((h.eval(w), ev(w)), (h.grad(w), gr(w)),
                          (h2.eval(w), ev2)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    agree()


def outcome(jet, w):
    """A jet's values as float64 bytes (so -0.0 shows), or the type and
    message of what it raised."""
    try:
        out = jet(w)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)
    if isinstance(out, tuple):
        return tuple(np.array(v, dtype=float).tobytes() for v in out)
    return np.array(out, dtype=float).tobytes()


def signed_zeros(rng, v):
    """v with about a third of its entries replaced by 0.0 or -0.0."""
    v = np.array(v, dtype=float)
    hit = rng.random(v.shape) < 1 / 3
    v[hit] = np.where(rng.random(v.shape) < 0.5, 0.0, -0.0)[hit]
    return v


def test_generated_jets_match_the_loop_jets():
    # the chart jets are straight-line code whose sums keep the loops'
    # order and start values: h, grad h and h2 are the loops' bits, and
    # where the loops raise the generated jets raise the same.  Signed
    # zeros in the states, the shift and the linear field's matrix reach
    # the sums whose sign of zero depends on their start value
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS),
               d=st.integers(1, 4), m=st.integers(1, 3),
               q_scale=st.floats(-3.0, 3.0), rho=st.floats(-700.0, 700.0))
    def agree(seed, kind, d, m, q_scale, rho):
        rng = np.random.default_rng(seed)
        f = (linear_field(signed_zeros(rng, rng.normal(size=(d, m, d))))
             if kind == "linear" else random_field(rng, kind, d, m))
        b = signed_zeros(rng, rng.normal(size=f.d) * rng.uniform(0.0, 5.0))
        h, h2 = h1_h2(f, ShiftedMap(b))
        loops, loops2 = transformed_field_loops(f, b), h2_loops(f, b)
        q = rng.normal(size=f.d)
        for w in (q * 10.0 ** q_scale, q, signed_zeros(rng, q)):
            w = [*w.tolist(), rho]
            assert outcome(h.jet, w) == outcome(loops, w), w
            assert outcome(h2.jet, w) == outcome(loops2, w), w

    agree()


@pytest.mark.parametrize("b", [[0.0, 0.0], [-0.0, 0.0], [1.0, -0.0],
                               [-2.0, 0.0]])
def test_generated_jets_keep_the_loops_signed_zeros(b):
    # exact zeros in the state and the shift make zero sums whose sign
    # depends on each sum's start value (grad h at b = 0, q = (1, -0.0)
    # tells a column sum started at h/|q| from one started at 0.0 + h/|q|)
    f = counterexample_field()
    h, h2 = h1_h2(f, ShiftedMap(np.array(b)))
    loops, loops2 = transformed_field_loops(f, b), h2_loops(f, b)
    values = (0.0, -0.0, 1.0, -0.5)
    for w in ([q0, q1, rho] for q0 in values for q1 in values
              for rho in (0.0, 1.0)):
        assert outcome(h.jet, w) == outcome(loops, w), w
        assert outcome(h2.jet, w) == outcome(loops2, w), w


@pytest.mark.parametrize("b1, w, jets, error, message", [
    (4.0, [0.0, 0.0, 1.0], "h h2", ValueError,
     "angular component of the state vanished"),
    (4.0, [0.0, -0.0, 800.0], "h h2", ValueError,
     "angular component of the state vanished"),
    (4.0, [0.6, 0.8, math.nextafter(_RHO_OVERFLOW, math.inf)], "h h2",
     OverflowError, "|rho| = 708 exceeds 708.0"),
    (4.0, [0.6, 0.8, -708.5], "h h2", OverflowError,
     "|rho| = 708.5 exceeds 708.0"),
    (100.0, [0.6, 0.8, -_RHO_OVERFLOW], "h", OverflowError,
     "h is not finite at rho = -708"),
    # h is finite, but grad f ~ e^rho over |q| = 1e-100 is not
    (4.0, [1e-100, 0.0, 700.0], "h", OverflowError,
     "grad h is not finite at rho = 700"),
    (4.0, [0.6, 0.8, 356.0], "h2", OverflowError,
     "the derived field or h2 is not finite at rho = 356"),
], ids=["q = 0", "q = -0", "rho past 708", "rho below -708",
        "F/r overflows", "grad h overflows", "h2 overflows"])
def test_generated_jets_raise_as_the_loop_jets(b1, w, jets, error, message):
    f, b = counterexample_field(), [b1, 0.0]
    h, h2 = h1_h2(f, ShiftedMap(np.array(b)))
    cases = {"h": (h.jet, transformed_field_loops(f, b)),
             "h2": (h2.jet, h2_loops(f, b))}
    for name in jets.split():
        jet, loops = cases[name]
        assert outcome(jet, w) == outcome(loops, w) == (error, message), name


def chart_fields(b1=4.0):
    """eval and grad of the chart field of the counterexample shifted by
    (b1, 0), and h2's eval (which overflows from rho = 356 at b1 = 4: its
    derived field is quadratic in y)."""
    h, h2 = h1_h2(counterexample_field(), ShiftedMap(np.array([b1, 0.0])))
    return h.eval, h.grad, h2.eval


@pytest.mark.parametrize("w, error", [
    # where the einsum form overflowed r^3 (300), returned inf or nan
    # (356 to -372) or saw z.z underflow to 0 (-380)
    *[([0.6, 0.8, rho], None)
      for rho in (300.0, 356.0, 400.0, 700.0, -300.0, -372.0, -380.0)],
    ([0.6, 0.8, _RHO_OVERFLOW], None),
    ([0.6, 0.8, -_RHO_OVERFLOW], None),
    ([0.6, 0.8, math.nextafter(_RHO_OVERFLOW, math.inf)], OverflowError),
    ([0.6, 0.8, -math.nextafter(_RHO_OVERFLOW, math.inf)], OverflowError),
    ([0.6, 0.8, 1e300], OverflowError),
    ([0.0, 0.0, 1.0], ValueError),
    ([0.0, -0.0, 800.0], ValueError),
    ([1e-200, 0.0, 1.0], ValueError),    # |q|^2 underflows to 0
    ([5e-324, 0.0, 1.0], ValueError),
    # shifted by (100, 0): F/r overflows at the low end of the rho bound,
    # where eval and grad returned inf and nan without a warning
    (([0.6, 0.8, -_RHO_OVERFLOW], 100.0), OverflowError),
])
def test_eval_and_grad_share_one_domain_check(w, error):
    # inside the rho bound both return finite values; h2 is checked only
    # where it must raise.  A case is a state, or a state and b1
    w, b1 = w if isinstance(w, tuple) else (w, 4.0)
    w = np.array(w)
    fields = chart_fields(b1)
    for method in fields[:2] if error is None else fields:
        if error is None:
            assert np.isfinite(method(w)).all(), method
        else:
            with pytest.raises(error):
                method(w)


@pytest.mark.parametrize("rho", [356.0, 400.0, _RHO_OVERFLOW, -_RHO_OVERFLOW])
def test_h2_raises_where_it_overflows(rho):
    # f . grad f overflows at y = e^rho theta - b from rho = 356 (inf and
    # nan from its float sums, silently), and at rho = -708 the
    # pull-back's division by e^rho does (inf, silently)
    h2 = chart_fields()[2]
    with pytest.raises(OverflowError, match=f"rho = {rho:g}"):
        h2(np.array([0.6, 0.8, rho]))


def test_h2_below_the_overflow_matches_the_einsum_pull_back():
    b = np.array([4.0, 0.0])
    f = counterexample_field()
    h2 = chart_fields()[2]
    z = math.exp(100.0) * np.array([0.6, 0.8])
    want = np.einsum("ka,aij->kij", grad_phi_norm(z),
                     f_dot_grad_f(f).eval(z - b))
    got = h2(np.array([0.6, 0.8, 100.0]))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_change_of_variable_matches_the_direct_solve():
    # ROADMAP item 8, geometric route: the projected chart solve, mapped
    # back by y = e^rho theta - b, against the direct solve.  Both are
    # second-order Taylor steps on a polyline, so their gap is at most
    # C max(1, sup|y|) S mesh^-2, with S = sum |dx_k|^3 / dt_k^2 the
    # driver's integral of |x'|^3.  Measured before this test, on 600
    # examples drawn like these (300 with 2-8 segments of scale 0.2-0.8,
    # 300 with 8 segments of scale 0.8) at mesh 256: C <= 0.69, with
    # gap * mesh^2 the same at meshes 128-1024 to 4%.
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    C = 2.0

    @hyp.settings(max_examples=25, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS),
               d=st.integers(1, 3), m=st.integers(1, 2),
               segments=st.integers(2, 8), scale=st.floats(0.2, 0.8),
               mesh=st.sampled_from([256, 1024]))
    def chart_matches(seed, kind, d, m, segments, scale, mesh):
        rng = np.random.default_rng(seed)
        f = random_field(rng, kind, d, m)
        pts = np.zeros((segments + 1, f.m))
        pts[1:] = np.cumsum(rng.normal(0.0, scale, size=(segments, f.m)),
                            axis=0)
        times = np.linspace(0.0, 1.0, segments + 1)
        x = lift_piecewise_linear(pts, times)
        a = rng.normal(0.0, 1.0, size=f.d)
        sol_y = solve_rde(x, f, a, 1.0, SolverConfig(base_mesh=mesh))
        sup = float(np.max(np.linalg.norm(sol_y.y, axis=1)))
        shift = choose_shift(a, 1.5 * sup)
        sol_z = solve_rde(
            x, transformed_field(f, shift), shift.state_of(a), 1.0,
            SolverConfig(base_mesh=mesh,
                         state_projection=sphere_state_projection(f.d)))
        q, rho = sol_z.y[:, :-1], sol_z.y[:, -1]
        back = (np.exp(rho)[:, None] * q
                / np.linalg.norm(q, axis=1)[:, None] - shift.b)
        S = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1) ** 3
                         / np.diff(times) ** 2))
        gap = float(np.max(np.abs(back - sol_y.y)))
        assert gap <= C * max(1.0, float(np.max(np.abs(sol_y.y)))) * S / mesh**2

    chart_matches()


# ---------------------------------------------------------------------------
# shifts


def test_choose_shift_construction():
    s = choose_shift(np.zeros(2), 0.0)
    assert np.linalg.norm(s.b) == pytest.approx(1.0)
    s = choose_shift(np.array([3.0, 4.0]), 2.0)
    assert np.linalg.norm(s.b) == pytest.approx(2.0 + 5.0 + 1.0)
    # the guarantee: |b + y| >= 1 whenever |y| <= radius + |a|
    rng = np.random.default_rng(90)
    for _ in range(200):
        y = rng.normal(size=2)
        y *= rng.uniform(0, 7.0) / np.linalg.norm(y)
        assert np.linalg.norm(s.b + y) >= 1.0 - 1e-12
    with pytest.raises(ValueError, match="nonnegative"):
        choose_shift(np.zeros(2), -1.0)


@pytest.mark.parametrize("make", [
    lambda: transformed_field(counterexample_field(), ShiftedMap([3.0])),
    lambda: h1_h2(counterexample_field(), ShiftedMap([3.0])),
    lambda: transformed_field(linear_field(np.eye(2)), ShiftedMap([3.0])),
    lambda: choose_shift(np.zeros(2), math.nan),
    lambda: choose_shift(np.zeros(2), math.inf),
    lambda: choose_shift(np.array([math.nan, 0.0]), 1.0),
    lambda: choose_shift(np.array([0.0, math.inf]), 1.0),
    lambda: ShiftedMap(np.array([math.nan, 1.0])),
    lambda: ShiftedMap(np.ones((2, 2))),
], ids=["transformed_field d", "h1_h2 d", "linear d", "radius nan",
        "radius inf", "a nan", "a inf", "b nan", "b matrix"])
def test_shift_must_be_finite_and_fit_the_field(make):
    with pytest.raises(ValueError):
        make()


def test_shifted_map_state_roundtrip():
    s = ShiftedMap(np.array([5.0, -1.0]))
    rng = np.random.default_rng(91)
    for _ in range(20):
        y = rng.normal(size=2)
        w = s.state_of(y)
        back = z_of(w[:-1], w[-1]) - s.b
        assert np.max(np.abs(back - y)) <= 1e-12


def test_sphere_projection_normalizes_angular_part():
    proj = sphere_state_projection(2)
    assert proj([3.0, 4.0, 7.0]) == [0.6, 0.8, 7.0]
    w = proj(np.array([3.0, 4.0, 7.0]))
    assert np.linalg.norm(w[:2]) == pytest.approx(1.0)
    assert w[2] == 7.0
