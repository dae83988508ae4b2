import re
import warnings

import numpy as np
import pytest

from roughpaths import rough_paths
from roughpaths.rough_paths import (AreaDrift, RoughPath, _grid_increments,
                                    beta_path, brownian_lift, chen_defect,
                                    decompose, dilate, geometricity_defect,
                                    lift_piecewise_linear, pure_area_path,
                                    pvar_norm, read_polyline_csv,
                                    read_roughpath_csv, recompose,
                                    write_roughpath_csv)
from roughpaths.tensor_algebra import GroupElement2, increment, inv

from oracles import (chen_defect_triples, geometricity_defect_rows,
                     mesh_increments, pvar_norm_pairs, shoelace_area)


def random_rough_path(rng, n, m):
    """Random point values are a valid rough path by construction."""
    t = np.sort(rng.uniform(0.1, 1.0, size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(t)])
    u = np.vstack([np.zeros(m), rng.normal(size=(n - 1, m))])
    b = np.vstack([np.zeros((1, m, m)), rng.normal(size=(n - 1, m, m))])
    return RoughPath(times, u, b)


# ---------------------------------------------------------------------------
# lifting


def test_linear_path_lift_increment():
    # x_t = t v: the level-2 increment is the analytic int_0^1 s v(x)v ds
    v = np.array([0.8, -1.3])
    x = lift_piecewise_linear(np.outer([0.0, 1.0], v), [0.0, 1.0])
    inc = x.increment(0, 1)
    assert np.allclose(inc.level1, v)
    assert np.allclose(inc.level2, 0.5 * np.outer(v, v), atol=1e-15)


def test_constant_path_lift():
    x = lift_piecewise_linear(np.ones((4, 2)), [0.0, 1.0, 2.0, 3.0])
    for i in range(4):
        for j in range(i, 4):
            inc = x.increment(i, j)
            assert np.max(np.abs(inc.level1)) == 0.0
            assert np.max(np.abs(inc.level2)) == 0.0


def test_two_segment_level2_composition():
    # dyadic-rational coordinates make the chained sum exact in floats
    v = np.array([1.0, 0.5])
    w = np.array([0.25, -1.5])
    pts = np.vstack([np.zeros(2), v, v + w])
    x = lift_piecewise_linear(pts, [0.0, 1.0, 2.0])
    expected = 0.5 * np.outer(v, v) + 0.5 * np.outer(w, w) + np.outer(v, w)
    assert np.array_equal(x.increment(0, 2).level2, expected)


@pytest.mark.parametrize("i, j", [(-1, 2), (2, -1), (0, 5), (7, 2)])
def test_increment_rejects_indices_off_the_grid(i, j):
    x = lift_piecewise_linear(np.arange(10.0).reshape(5, 2),
                              np.linspace(0.0, 1.0, 5))
    with pytest.raises(IndexError, match=r"\[0, 5\)"):
        x.increment(i, j)


def test_lift_rejects_bad_times():
    with pytest.raises(ValueError, match="increasing"):
        lift_piecewise_linear(np.zeros((3, 1)), [0.0, 1.0, 1.0])


def test_rough_path_rejects_non_finite_values():
    t = np.array([0.0, 0.5, 1.0])
    u = np.zeros((3, 2))
    b = np.zeros((3, 2, 2))
    u[1, 1] = np.nan
    with pytest.raises(ValueError, match="level1 must be finite"):
        RoughPath(t, u, b)
    with pytest.raises(ValueError, match="finite"):
        lift_piecewise_linear([[0.0, 1.0], [0.5, np.nan], [1.0, 0.0]], t)
    b[2, 0, 1] = np.inf
    with pytest.raises(ValueError, match="level2 must be finite"):
        RoughPath(t, np.zeros((3, 2)), b)
    with pytest.raises(ValueError, match="times must be finite"):
        RoughPath(np.array([0.0, np.nan, 1.0]), np.zeros((3, 2)),
                  np.zeros((3, 2, 2)))


def test_at_rejects_one_point_path():
    x = RoughPath(np.array([0.0]), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="one-point"):
        x.at(0.0)
    with pytest.raises(ValueError, match="one-point"):
        x.increment_between(0.0, 0.0)


def test_polyline_interpolation_is_exact():
    # evaluating between knots equals lifting the refined polyline
    rng = np.random.default_rng(10)
    pts = np.vstack([np.zeros(2), np.cumsum(rng.normal(size=(4, 2)), axis=0)])
    knots = np.array([0.0, 0.3, 1.1, 1.6, 2.0])
    x = lift_piecewise_linear(pts, knots)
    fine_t = np.linspace(0.0, 2.0, 41)
    fine_pts = np.vstack([np.interp(fine_t, knots, pts[:, j]) for j in range(2)]).T
    fine = lift_piecewise_linear(fine_pts, fine_t)
    for (s, t) in [(0.15, 0.8), (0.3, 1.35), (0.95, 2.0), (0.0, 1.45)]:
        a = x.increment_between(s, t)
        b = fine.increment_between(s, t)
        assert np.allclose(a.level1, b.level1, atol=1e-12)
        assert np.allclose(a.level2, b.level2, atol=1e-12)


# ---------------------------------------------------------------------------
# Chen defect


def test_chen_defect_of_stored_paths_is_roundoff():
    rng = np.random.default_rng(11)
    rp = random_rough_path(rng, 12, 3)
    assert chen_defect(rp) <= 1e-13
    pa = pure_area_path(2.0, n_points=9)
    assert chen_defect(pa) <= 1e-13


def _chen_paths(rng, n):
    """Paths of n points for m = 1..3: polylines, random point values
    and the pure-area path."""
    for m in (1, 2, 3):
        pts = np.cumsum(rng.normal(size=(n, m)), axis=0)
        yield lift_piecewise_linear(pts, np.cumsum(rng.uniform(0.1, 1.0, n)))
        yield random_rough_path(rng, n, m)
    yield pure_area_path(2.0, m=2, area=np.array([[1.0, 0.5], [-0.5, 2.0]]),
                         n_points=n)


def test_chen_defect_equals_triple_oracle_exhaustive():
    rng = np.random.default_rng(20)
    for rp in _chen_paths(rng, 12):
        assert chen_defect(rp) == chen_defect_triples(rp.increment_between,
                                                      rp.times)


def test_chen_defect_equals_triple_oracle_sampled(monkeypatch):
    # the sampled route (over 120 points) with a shorter draw, so that
    # the one-triple-at-a-time oracle stays affordable
    monkeypatch.setattr(rough_paths, "_CHEN_SAMPLES", 250)
    rng = np.random.default_rng(21)
    for rp in _chen_paths(rng, 150):
        assert chen_defect(rp) == chen_defect_triples(
            rp.increment_between, rp.times, samples=250)


def test_chen_defect_ignores_chunk_boundaries(monkeypatch):
    # 4060 triples: the default chunks leave a partial last one
    rng = np.random.default_rng(22)
    rp = random_rough_path(rng, 30, 2)
    n_triples = 30 * 29 * 28 // 6
    assert n_triples > rough_paths._CHEN_CHUNK
    assert n_triples % rough_paths._CHEN_CHUNK != 0
    got = chen_defect(rp)
    for chunk in (9, 1000, n_triples):
        monkeypatch.setattr(rough_paths, "_CHEN_CHUNK", chunk)
        assert chen_defect(rp) == got


def test_chen_defect_rejects_nan_increments():
    # finite point values whose level-2 differences overflow (numpy
    # warns), so that inf - inf makes the increments NaN
    big = 1.5e308
    rp = RoughPath(np.arange(6.0), np.zeros((6, 1)),
                   np.array([0.0, big, -big, big, -big, big])[:, None, None])
    with (pytest.warns(RuntimeWarning),
          pytest.raises(ValueError, match="NaN")):
        chen_defect(rp)


def test_increments_are_rows_of_grid_increments():
    # increment(i, j), i and j in either order, is one row of the one
    # increment formula on the stored values, and increment_between on
    # two grid times is that row for i <= j: the stored increment, bit
    # for bit.  Between grid times it is the row of the segment formula,
    # as the float oracle writes it out; for s > t it is the group
    # inverse of the row over [t, s], which is x_s^-1 (x) x_t
    rng = np.random.default_rng(24)
    for _ in range(20):
        rp = brownian_lift(int(rng.integers(1000)), 16, 2.0, 3)
        for i, j in rng.integers(0, rp.n_points, size=(50, 2)).tolist() + [
                (0, rp.n_points - 1), (rp.n_points - 1, 0)]:
            g = rp.increment(i, j)
            du, db = _grid_increments(rp.level1, rp.level2, [i], [j])
            assert bits(g.level1) == bits(du[0])
            assert bits(g.level2) == bits(db[0])
            u, b = rp.level1, rp.level2
            assert bits(g.level2) == bits(b[j] - b[i]
                                          - np.outer(u[i], u[j] - u[i]))
            h = rp.increment_between(rp.times[i], rp.times[j])
            if i > j:
                g = inv(rp.increment(j, i))
            assert bits(h.level1) == bits(g.level1)
            assert bits(h.level2) == bits(g.level2)
        for s, t in rng.uniform(0.0, rp.T, size=(50, 2)).tolist() + [
                (0.0, rp.T), (rp.times[4], rp.T), (rp.times[3], 0.7),
                (rp.T, 0.0), (0.7, rp.times[3])]:
            h = rp.increment_between(s, t)
            du, db = mesh_increments(rp, sorted([s, t]))
            g = GroupElement2(du[0], db[0])
            if s > t:
                g = inv(g)
            assert bits(h.level1) == bits(g.level1)
            assert bits(h.level2) == bits(g.level2)
            e = increment(GroupElement2(*rp.at(s)), GroupElement2(*rp.at(t)))
            assert np.allclose(h.level1, e.level1, rtol=0.0, atol=1e-12)
            assert np.allclose(h.level2, e.level2, rtol=0.0, atol=1e-12)


def bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


def test_chen_defect_needs_three_points():
    x = lift_piecewise_linear(np.zeros((2, 1)), [0.0, 1.0])
    with pytest.raises(ValueError, match="3 grid points"):
        chen_defect(x)


# ---------------------------------------------------------------------------
# p-variation


def test_pvar_constant_path_is_zero():
    x = lift_piecewise_linear(np.zeros((5, 2)), np.linspace(0, 1, 5))
    assert pvar_norm(x, 2.0) == 0.0


def test_pvar_linear_unit_speed():
    # |x_{s,t}| = t-s, so the level-1 ratio (t-s)^(1/2) peaks at the full span
    x = lift_piecewise_linear(np.linspace(0, 1, 9)[:, None],
                              np.linspace(0, 1, 9))
    assert pvar_norm(x, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_pvar_homogeneous_under_dilation():
    rng = np.random.default_rng(13)
    pts = np.vstack([np.zeros(2), np.cumsum(rng.normal(size=(6, 2)), axis=0)])
    x = lift_piecewise_linear(pts, np.linspace(0, 1, 7))
    base = pvar_norm(x, 2.3)
    for lam in (0.5, 2.0, 7.0):
        assert pvar_norm(dilate(x, lam), 2.3) == pytest.approx(lam * base,
                                                               rel=1e-12)


@pytest.mark.parametrize("lam, level1_top", [
    (1e200, 1.0), (-1e200, 1.0), (float("inf"), 1.0), (float("nan"), 1.0),
    (1e154, 1.0),    # lambda^2 = 1e308 is finite, 2e308 is not
    (1e10, 1e300),   # lambda^2 is finite, one level-1 value is not
])
def test_dilate_rejects_a_lambda_whose_values_overflow(lam, level1_top):
    # checked before any multiplication: no RuntimeWarning on the way
    def path(top):
        return RoughPath(np.array([0.0, 1.0, 2.0]),
                         np.array([[0.0], [top], [0.5]]),
                         np.array([[[0.0]], [[2.0]], [[-1.0]]]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"lambda = {lam!r}")):
            dilate(path(level1_top), lam)
        x = path(1.0)
        y = dilate(x, 1e153)   # the largest entries' products stay finite
    assert np.array_equal(y.level1, 1e153 * x.level1)
    assert np.array_equal(y.level2, (1e153 * 1e153) * x.level2)


def test_pvar_monotone_under_subgrid():
    rng = np.random.default_rng(14)
    rp = random_rough_path(rng, 30, 2)
    full = pvar_norm(rp, 2.0)
    idx = np.concatenate([[0], np.sort(rng.choice(np.arange(1, 30), 10,
                                                  replace=False))])
    u = rp.level1[idx] - rp.level1[idx[0]]
    sub = RoughPath(rp.times[idx], u, rp.level2[idx])
    assert pvar_norm(sub, 2.0) <= full + 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [2.0, 2.3])
@pytest.mark.parametrize("shifted", [False])   # keeps the ids
def test_pvar_equals_all_pairs_reference(m, p, shifted):
    # random paths on non-uniform grids whose size is not a multiple of
    # the scan's block, against a pair-by-pair scan: equal, not close
    rng = np.random.default_rng(100 * m + int(10 * p))
    for n in (2, 3, 17, 40):
        rp = random_rough_path(rng, n, m)
        ref = pvar_norm_pairs(rp.times, rp.level1, rp.level2, p)
        assert np.isfinite(ref)
        assert pvar_norm(rp, p) == ref


def test_pvar_counts_every_start_point():
    # one unit jump on interval k: the norm is set by the pair (k, k+1),
    # wherever k falls relative to the scan's blocks
    n = 40
    times = np.concatenate([[0.0], np.cumsum(np.linspace(1.0, 0.5, n - 1))])
    for k in range(n - 1):
        pts = (np.arange(n) > k).astype(float)[:, None]
        rp = lift_piecewise_linear(pts, times)
        ref = pvar_norm_pairs(rp.times, rp.level1, rp.level2, 2.0)
        assert ref == pytest.approx(1.0 / np.sqrt(times[k + 1] - times[k]))
        assert pvar_norm(rp, 2.0) == ref


def test_pvar_rejects_bad_exponent():
    x = pure_area_path(1.0)
    with pytest.raises(ValueError, match="p must"):
        pvar_norm(x, 3.5)


# ---------------------------------------------------------------------------
# geometricity and decomposition


def test_polyline_lifts_are_geometric():
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = rng.integers(2, 9)
        pts = np.vstack([np.zeros(2),
                         np.cumsum(rng.normal(size=(n, 2)), axis=0)])
        x = lift_piecewise_linear(pts, np.linspace(0, 1, n + 1))
        assert geometricity_defect(x) <= 1e-12
        assert chen_defect(x) <= 1e-12


def test_pure_area_defect_is_the_horizon():
    T = 1.7
    x = pure_area_path(T, n_points=12)
    assert geometricity_defect(x) == pytest.approx(T, abs=1e-12)


def test_geometricity_defect_equals_row_oracle():
    # one sum per matrix entry: exact for m <= 2, within 2 ulp for m = 3
    rng = np.random.default_rng(25)
    for m in (1, 2, 3):
        for rp in (brownian_lift(int(rng.integers(1000)), 600, 1.0, m, "ito"),
                   random_rough_path(rng, 300, m)):
            got = geometricity_defect(rp)
            ref = geometricity_defect_rows(rp.level1, rp.level2)
            if m <= 2:
                assert got == ref
            else:
                assert abs(got - ref) <= 2 * np.spacing(ref)


@pytest.mark.parametrize("top, u", [(1e200, 0.0), (8.9e307, 4.5e153)])
def test_geometricity_defect_rejects_a_defect_that_overflows(top, u):
    # beta runs from top to -top - u^2 / 2, so the squared difference
    # (top = 1e200) or the difference itself (about 1.9e308) overflows:
    # this used to warn and return inf, which growth_bound_check reported
    # as a non-geometric driver
    b = np.array([0.0, top, -top])[:, None, None]
    rp = RoughPath(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [0.0], [u]]),
                   b)
    with pytest.raises(ValueError, match="overflowed"):
        geometricity_defect(rp)


def test_beta_path_overflows_without_a_warning():
    # warnings are errors in this suite: sym(b) overflows quietly and the
    # non-finite beta is rejected by its callers
    b = np.array([0.0, 1.5e308])[:, None, None]
    rp = RoughPath(np.array([0.0, 1.0]), np.zeros((2, 1)), b)
    assert np.isinf(beta_path(rp)[1, 0, 0])
    with pytest.raises(ValueError, match="level2 must be finite"):
        decompose(rp)
    with pytest.raises(ValueError, match="beta must be finite"):
        geometricity_defect(rp)


def test_decompose_geometric_input_has_zero_drift():
    rng = np.random.default_rng(16)
    pts = np.vstack([np.zeros(2), np.cumsum(rng.normal(size=(5, 2)), axis=0)])
    x = lift_piecewise_linear(pts, np.linspace(0, 1, 6))
    _, drift = decompose(x)
    assert np.max(np.abs(drift.beta)) <= 1e-13


def test_decompose_pure_area():
    x = pure_area_path(1.0, n_points=11)
    geo, drift = decompose(x)
    assert np.allclose(drift.beta[:, 0, 0], x.times, atol=1e-14)
    assert np.max(np.abs(geo.level1)) == 0.0
    assert np.max(np.abs(geo.level2)) <= 1e-14


def test_decompose_recompose_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rp = random_rough_path(rng, 15, 3)
        geo, drift = decompose(rp)
        assert geometricity_defect(geo) <= 1e-12
        back = recompose(geo, drift)
        assert np.max(np.abs(back.level1 - rp.level1)) <= 1e-13
        assert np.max(np.abs(back.level2 - rp.level2)) <= 1e-13


def test_recompose_rejects_times_that_differ_within_allclose():
    # a drift on times off by a relative 5e-6, inside np.allclose's rtol
    # of 1e-5, is on another grid: no silent move onto the geometric one
    geo, drift = decompose(random_rough_path(np.random.default_rng(17), 15, 3))
    with pytest.raises(ValueError, match="time arrays differ"):
        recompose(geo, AreaDrift(drift.times * (1 + 5e-6), drift.beta))


def test_beta_path_equals_pairwise_excess():
    rng = np.random.default_rng(18)
    rp = random_rough_path(rng, 10, 2)
    beta = beta_path(rp)
    for i, j in [(0, 4), (2, 7), (5, 9)]:
        g = rp.increment(i, j)
        excess = (0.5 * (g.level2 + g.level2.T)
                  - 0.5 * np.outer(g.level1, g.level1))
        assert np.allclose(excess, beta[j] - beta[i], atol=1e-12)


def test_area_drift_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        AreaDrift(np.array([0.0, 1.0]),
                  np.array([np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]]]))


def test_area_drift_rejects_non_finite_values():
    beta = np.zeros((3, 1, 1))
    beta[2] = np.nan
    with pytest.raises(ValueError, match="beta must be finite"):
        AreaDrift(np.array([0.0, 0.5, 1.0]), beta)


@pytest.mark.parametrize("times", [[0.0, 0.5, 0.5, 1.0],
                                   [0.0, 0.7, 0.4, 1.0]])
def test_area_drift_rejects_times_not_strictly_increasing(times):
    with pytest.raises(ValueError, match="strictly increasing"):
        AreaDrift(np.array(times), np.zeros((4, 1, 1)))


def test_area_drift_rejects_a_column_of_times():
    # an (N+1, 1) time array is rejected when the drift is built, not
    # later inside a query
    with pytest.raises(ValueError, match="times must be a 1-d array"):
        AreaDrift(np.array([[0.0], [0.5], [1.0]]), np.zeros((3, 1, 1)))


@pytest.mark.parametrize("level1", [np.zeros(3), np.zeros((3, 1, 1))],
                         ids=["1-d", "3-d"])
def test_rough_path_names_the_level1_shape_it_expects(level1):
    with pytest.raises(ValueError, match=r"level1 must have shape "
                                         r"\(N\+1, m\), got"):
        RoughPath(np.linspace(0.0, 1.0, 3), level1, np.zeros((3, 1, 1)))


def test_area_drift_at_rejects_one_point_drift():
    drift = AreaDrift(np.array([0.0]), np.zeros((1, 1, 1)))
    with pytest.raises(ValueError, match="one-point"):
        drift.at(0.0)


def test_area_drift_at_rejects_times_outside_its_range():
    drift = AreaDrift(np.array([0.0, 0.5, 1.0]),
                      np.array([0.0, 0.5, 2.0])[:, None, None] * np.eye(1))
    with pytest.raises(ValueError, match="outside"):
        drift.at(2.0)
    with pytest.raises(ValueError, match="outside"):
        drift.at(np.array([0.25, -0.1]))
    assert drift.at(0.75)[0, 0] == 1.25
    assert drift.at(1.0)[0, 0] == 2.0


# ---------------------------------------------------------------------------
# Levy area against the polygon oracle


def test_antisymmetric_part_matches_shoelace():
    rng = np.random.default_rng(19)
    for _ in range(10):
        pts = np.vstack([np.zeros(2),
                         np.cumsum(rng.normal(size=(7, 2)), axis=0)])
        x = lift_piecewise_linear(pts, np.linspace(0, 1, 8))
        area = 0.5 * (x.level2[-1] - x.level2[-1].T)
        assert area[0, 1] == pytest.approx(shoelace_area(pts), abs=1e-12)


# ---------------------------------------------------------------------------
# Brownian lifts


def test_brownian_single_step_conventions():
    ito = brownian_lift(7, 1, 1.0, 2, "ito")
    strat = brownian_lift(7, 1, 1.0, 2, "stratonovich")
    dW = ito.level1[1]
    assert np.array_equal(strat.level1[1], dW)
    assert np.max(np.abs(ito.level2[1])) == 0.0
    assert np.array_equal(strat.level2[1], 0.5 * np.outer(dW, dW))


def test_stratonovich_lift_is_grid_geometric():
    x = brownian_lift(42, 4000, 1.0, 2, "stratonovich")
    assert geometricity_defect(x) <= 1e-12


def test_ito_lift_drift_toward_minus_half_identity():
    T = 1.0
    x = brownian_lift(42, 20_000, T, 2, "ito")
    assert geometricity_defect(x) > 0.1
    _, drift = decompose(x)
    err = np.linalg.norm(drift.beta[-1] + 0.5 * T * np.eye(2), "fro")
    assert err <= 0.05 * T


def test_lifts_whose_level2_overflows_raise_without_a_warning():
    # the overflow (and inf - inf in the running sum) is left to
    # RoughPath's finiteness check instead of warning first
    with pytest.raises(ValueError, match="level2 must be finite"):
        lift_piecewise_linear([[0.0], [1e200], [-1e200], [0.0]],
                              [0.0, 0.25, 0.5, 1.0])
    with pytest.raises(ValueError, match="level2 must be finite"):
        brownian_lift(3, 1, 1e308, 2, "stratonovich")


def test_brownian_lift_validation():
    with pytest.raises(ValueError, match="steps"):
        brownian_lift(0, 0, 1.0, 1)
    with pytest.raises(ValueError, match="convention"):
        brownian_lift(0, 5, 1.0, 1, convention="heun")


# ---------------------------------------------------------------------------
# CSV interchange


def test_polyline_csv_roundtrip(tmp_path):
    path = tmp_path / "poly.csv"
    path.write_text("t,x1,x2\n1.0,3,4\n0.0,1,2\n2.0,5,6\n")
    t, pts = read_polyline_csv(path)
    assert np.array_equal(t, [0.0, 1.0, 2.0])  # sorted by t
    assert np.array_equal(pts, [[1, 2], [3, 4], [5, 6]])


def test_roughpath_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(20)
    rp = random_rough_path(rng, 9, 2)
    dest = tmp_path / "rp.csv"
    write_roughpath_csv(rp, dest)
    back = read_roughpath_csv(dest)
    assert np.array_equal(back.times, rp.times)
    assert np.array_equal(back.level1, rp.level1)
    assert np.array_equal(back.level2, rp.level2)
    assert dest.read_text().splitlines()[:2] == [
        "t,x1,x2,x2_11,x2_12,x2_21,x2_22", "0,0,0,0,0,0,0"]


def test_roughpath_csv_rejects_the_interval_format(tmp_path):
    # the per-interval `s,t,...` rows an older writer produced
    path = tmp_path / "old.csv"
    path.write_text("s,t,x1,x2_11\n0,0.5,0.3,0.045\n0.5,1,-0.2,0.02\n")
    with pytest.raises(ValueError, match="header"):
        read_roughpath_csv(path)
    path.write_text("t,x1,x2_11\n0,0,0,0\n1,0.3,0.045,0\n")
    with pytest.raises(ValueError, match="columns"):
        read_roughpath_csv(path)


def test_roughpath_csv_lines_end_in_lf_and_crlf_reads_back(tmp_path):
    rp = random_rough_path(np.random.default_rng(21), 7, 2)
    dest = tmp_path / "rp.csv"
    write_roughpath_csv(rp, dest)
    raw = dest.read_bytes()
    assert b"\r" not in raw and raw.count(b"\n") == rp.n_points + 1
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(raw.replace(b"\n", b"\r\n"))
    lf_back, crlf_back = read_roughpath_csv(dest), read_roughpath_csv(crlf)
    assert np.array_equal(lf_back.times, rp.times)
    assert np.array_equal(crlf_back.times, rp.times)
    assert np.array_equal(crlf_back.level1, lf_back.level1)
    assert np.array_equal(crlf_back.level2, lf_back.level2)


def test_polyline_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,x1\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_polyline_csv(path)
