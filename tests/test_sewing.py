import math

import numpy as np
import pytest

from roughpaths.rough_paths import lift_piecewise_linear
from roughpaths.sewing import (AlmostRoughPath, SewingConvergenceError,
                               YoungConditionError, sew, young_integral)
from roughpaths.tensor_algebra import GroupElement2

from oracles import riemann_stieltjes


def abelian_arp(theta, v, F=np.sin):
    """F(t) - F(s) plus a defect term of exact order (t-s)^theta."""
    v = np.asarray(v, dtype=float)

    def fn(s, t):
        return F(t) - F(s) + (t - s) ** theta * v

    return AlmostRoughPath(fn, theta=theta)


def group_arp(theta, rng, m=2):
    base = lift_piecewise_linear(
        np.vstack([np.zeros(m), np.cumsum(rng.normal(size=(16, m)), axis=0)]),
        np.linspace(0.0, 1.0, 17))
    w = rng.normal(size=m)
    W = rng.normal(size=(m, m))

    def fn(s, t):
        g = base.increment_between(s, t)
        d = (t - s) ** theta
        return GroupElement2(g.level1 + d * w, g.level2 + d * W)

    return AlmostRoughPath(fn, theta=theta)


# ---------------------------------------------------------------------------
# the sewing operator


def test_sew_is_identity_on_multiplicative_input():
    x = lift_piecewise_linear(np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 1.2]]),
                              [0.0, 0.7, 1.5])
    arp = AlmostRoughPath(x.increment_between, theta=2.0)
    res = sew(arp, 0.0, 1.5, tol=1e-13, full_output=True)
    assert res.converged and res.levels_used == 1
    base = x.increment_between(0.0, 1.5)
    assert np.allclose(res.value.level1, base.level1, atol=1e-13)
    assert np.allclose(res.value.level2, base.level2, atol=1e-13)
    assert res.correction <= 1e-13


def test_sew_young_left_point_integral():
    # z(s,t) = y_s (beta_t - beta_s) with y_t = t, beta_t = t: sews to 1/2.
    # each dyadic level doubles the evaluation count, so tol is sized for
    # the test budget; the gap at stopping bounds the remaining error
    arp = AlmostRoughPath(lambda s, t: np.array([s * (t - s)]), theta=2.0)
    tol = 1e-5
    val = sew(arp, 0.0, 1.0, tol=tol, max_level=22)
    assert abs(val[0] - 0.5) <= 2 * tol


def test_dyadic_gap_ratio_abelian():
    arp = abelian_arp(1.5, [0.7, -0.4])
    res = sew(arp, 0.0, 1.0, tol=0.0, max_level=10, full_output=True)
    gaps = res.gaps
    target = 2.0 ** (1.0 - 1.5) + 0.1
    for g0, g1 in zip(gaps[2:-1], gaps[3:]):
        assert g1 / g0 <= target


def test_dyadic_gap_ratio_group_valued():
    # early levels carry transients from the base path's knots; the ratio
    # settles to 2^(1-theta) once cells divide the knot spacing
    rng = np.random.default_rng(21)
    arp = group_arp(1.5, rng)
    res = sew(arp, 0.0, 1.0, tol=0.0, max_level=12, full_output=True)
    target = 2.0 ** (1.0 - 1.5) + 0.1
    for g0, g1 in zip(res.gaps[5:-1], res.gaps[6:]):
        assert g1 / g0 <= target


def test_sew_additive_over_subintervals():
    arp = abelian_arp(2.0, [0.9])
    tol = 2e-5
    whole = sew(arp, 0.0, 1.0, tol=tol)
    for u in (0.25, 0.5, 0.8):
        left = sew(arp, 0.0, u, tol=tol)
        right = sew(arp, u, 1.0, tol=tol)
        assert np.max(np.abs(whole - left - right)) <= 2 * tol


def test_sew_rejects_theta_at_most_one():
    arp = abelian_arp(1.0, [1.0])
    with pytest.raises(ValueError, match="theta"):
        sew(arp, 0.0, 1.0)


@pytest.mark.parametrize("s, t, tol, match", [
    (0.0, math.nan, 1e-10, "finite"),
    (0.0, math.inf, 1e-10, "finite"),
    (-math.inf, 1.0, 1e-10, "finite"),
    (math.nan, 1.0, 1e-10, "finite"),
    (0.0, 1.0, math.nan, "tol"),
    (0.0, 1.0, -1e-12, "tol"),
])
def test_sew_rejects_inputs_that_never_converge(s, t, tol, match):
    # each would refine to max_level, 2^23 calls of fn at the defaults
    def fn(a, b):
        raise AssertionError("fn called")

    for full_output in (False, True):
        with pytest.raises(ValueError, match=match):
            sew(AlmostRoughPath(fn, theta=2.0), s, t, tol=tol,
                full_output=full_output)


def test_sew_nonconvergence_reports_gaps():
    arp = abelian_arp(1.05, [5.0])
    with pytest.raises(SewingConvergenceError) as err:
        sew(arp, 0.0, 1.0, tol=1e-14, max_level=6)
    assert len(err.value.gaps) == 6
    res = sew(arp, 0.0, 1.0, tol=1e-14, max_level=6, full_output=True)
    assert not res.converged


def test_measured_correction_constant_is_finite():
    arp = abelian_arp(2.0, [2.0])
    res = sew(arp, 0.0, 0.7, tol=1e-4, full_output=True)
    assert np.isfinite(res.correction_bound)
    # the sewn limit removes the defect term: correction ~ (t-s)^theta * |v|
    assert res.correction == pytest.approx(0.7 ** 2 * 2.0, rel=1e-3)


# ---------------------------------------------------------------------------
# Young integration on grids


def test_young_constant_integrand():
    rng = np.random.default_rng(22)
    d = np.cumsum(rng.normal(size=33))
    d[0] = 0.3
    g = np.full(33, 2.5)
    out = young_integral(g, d, p_int=2.0, q_drv=1.0)
    assert out[-1] == pytest.approx(2.5 * (d[-1] - d[0]), rel=1e-14)
    # telescoping: unit integrand reproduces the driver increments exactly
    ones = np.ones(33)
    out1 = young_integral(ones, d, p_int=2.0, q_drv=1.0)
    assert np.allclose(out1, d - d[0], atol=1e-13)


def test_young_t_dt():
    n = 2 ** 12
    t = np.linspace(0.0, 1.0, n + 1)
    out = young_integral(t, t, p_int=1.0, q_drv=1.0)
    assert abs(out[-1] - 0.5) <= 1e-10


def test_young_additive_over_grid():
    rng = np.random.default_rng(23)
    t = np.linspace(0.0, 1.0, 65)
    g = np.sin(3 * t)
    d = np.cumsum(np.concatenate([[0], rng.normal(size=64)])) * 0.1
    out = young_integral(g, d, p_int=2.0, q_drv=1.3)
    k = 40
    tail = young_integral(g[k:], d[k:], p_int=2.0, q_drv=1.3)
    assert np.allclose(out[k:] - out[k], tail, atol=1e-13)


def test_young_derived_field_against_fine_riemann_oracle():
    # integrand (f . grad f)(y_t) along the loop y = (cos t, sin t),
    # driver beta_t = t; the oracle is a left-point sum of the closed
    # form on a 10x finer grid
    from roughpaths.vector_fields import counterexample_field, f_dot_grad_f

    fdf = f_dot_grad_f(counterexample_field())

    def closed_form(t):
        y1, y2 = np.cos(t), np.sin(t)
        return np.stack([np.sin(y2) ** 2 * y1 + y1 ** 2 * np.cos(y2),
                         np.sin(y2) * y1], axis=-1)

    n = 2 ** 14
    t = np.linspace(0.0, 1.0, n + 1)
    vals = np.array([fdf.eval(np.array([np.cos(ti), np.sin(ti)]))[:, 0, 0]
                     for ti in t])[:, :, None]
    out = young_integral(vals, t, p_int=2.0, q_drv=1.0)
    t_fine = np.linspace(0.0, 1.0, 40 * n + 1)
    g_fine = closed_form(t_fine)
    for comp in range(2):
        oracle = riemann_stieltjes(g_fine[:, comp], t_fine)
        assert abs(out[-1, comp] - oracle) <= 1e-6


def test_young_condition_enforced():
    with pytest.raises(YoungConditionError):
        young_integral(np.zeros(5), np.zeros(5), p_int=2.0, q_drv=2.5)


def test_young_shape_mismatch():
    with pytest.raises(ValueError, match="grid"):
        young_integral(np.zeros(4), np.zeros(5), p_int=1.0, q_drv=1.0)


def test_dyadic_sew_converges_to_trapezoid_cell_value():
    # the closed form used by young_integral is the sewn limit of the
    # left-point almost increments on the linear interpolant
    g0, g1 = 0.3, 1.1
    d0, d1 = -0.2, 0.7

    def interp(v0, v1, s):
        return v0 + (v1 - v0) * s

    arp = AlmostRoughPath(
        lambda s, t: np.array([interp(g0, g1, s)
                               * (interp(d0, d1, t) - interp(d0, d1, s))]),
        theta=2.0)
    val = sew(arp, 0.0, 1.0, tol=1e-5, max_level=22)
    assert val[0] == pytest.approx(0.5 * (g0 + g1) * (d1 - d0), abs=1e-4)
