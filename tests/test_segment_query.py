"""The driver's segment query (segments._Segments).

One formula in per-segment log coordinates gives every driver increment
the solver and increment_between take.  It has two evaluations, numpy
rows (the solver's mesh chunks) and Python floats (the crossing's
bisection, increment_between), and they are equal float for float; both
are the formula as tests/oracles.py writes it out on nested lists.  A
row inside one segment is the geodesic exp(c log g_k) of the segment's
stored increment g_k to a few eps of its size, which a difference of
absolute values is not.  At grid times `at` returns the stored values.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from roughpaths.rough_paths import (AreaDrift, RoughPath,  # noqa: E402
                                    _grid_increments, brownian_lift,
                                    lift_piecewise_linear)

from roughpaths.tensor_algebra import inv, mul  # noqa: E402

from oracles import drift_increments, mesh_increments  # noqa: E402

# derandomized so that the tier-1 suite is reproducible run to run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 3)

EPS = float(np.finfo(float).eps)

# A bound on |level 2 - exact| / (eps (|u_k|^2 + |L_k|)) for a row inside
# one segment: rounding c, the table entries L_k and Q_k, two products
# and a sum.  Over 1200 sub-intervals of 4097-point Brownian lifts (m =
# 1 and 2, ten per lift, drawn as inside_pairs draws them) the largest
# was 0.39; the difference of absolute values reached 1.1e6.
INSIDE_EPS_MULTIPLE = 1.0


def bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def random_path(rng, m, n):
    """An n-point path in R^m: random point values, a polyline lift or
    a left-point Brownian lift, on random strictly increasing times."""
    kind = rng.integers(3)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
    if kind == 0:
        u = np.vstack([np.zeros(m), rng.normal(size=(n - 1, m))])
        b = np.vstack([np.zeros((1, m, m)), rng.normal(size=(n - 1, m, m))])
        return RoughPath(times, u, b)
    if kind == 1:
        return lift_piecewise_linear(
            np.cumsum(rng.normal(size=(n, m)), axis=0), times)
    x = brownian_lift(int(rng.integers(1000)), n - 1, 1.0, m, "ito")
    return RoughPath(times, x.level1, x.level2)


def query_times(rng, times):
    """Sorted distinct times in [times[0], times[-1]]: both ends, some
    grid times, points inside random segments and a pair inside one, so
    that the rows between them include grid pairs, rows inside one
    segment and rows spanning several, with and without a head or tail."""
    n = len(times)
    k = rng.integers(0, n - 1, size=4)
    inside = times[k] + rng.uniform(0.0, 1.0, size=4) * (times[k + 1]
                                                         - times[k])
    j = int(rng.integers(0, n - 1))
    pair = times[j] + np.sort(rng.uniform(0.0, 1.0, size=2)) * (
        times[j + 1] - times[j])
    grid = times[rng.choice(n, size=min(n, 3), replace=False)]
    return np.unique(np.concatenate([times[[0, -1]], grid, inside, pair]))


def numpy_rows(q, ts):
    d1, d2 = q.rows(*q.locate(ts))
    return [d1[r].tolist() + ([] if d2 is None else d2[r].ravel().tolist())
            for r in range(len(d1))]


def assert_two_evaluations_agree(q, ts, rng):
    # consecutive rows of one query, then pairs that skip query times
    for (s, t), row in zip(zip(ts[:-1], ts[1:]), numpy_rows(q, ts)):
        assert bits(q.row(s, t)) == bits(row)
    for a, b in np.sort(rng.integers(0, len(ts), size=(8, 2)), axis=1):
        s, t = ts[a], ts[b]
        assert bits(q.row(s, t)) == bits(numpy_rows(q, [s, t])[0])


@PROPERTY
@given(seed=seeds, m=dims, n=st.integers(2, 40))
def test_the_float_row_equals_the_numpy_row(seed, m, n):
    rng = np.random.default_rng(seed)
    x = random_path(rng, m, n)
    ts = query_times(rng, x.times).tolist()
    assert_two_evaluations_agree(x._segments, ts, rng)
    # and both are the formula on nested floats
    d1, d2 = x._segments.rows(*x._segments.locate(ts))
    o1, o2 = mesh_increments(x, ts)
    assert bits(d1) == bits(o1) and bits(d2) == bits(o2)


@PROPERTY
@given(seed=seeds, m=dims, n=st.integers(2, 40))
def test_the_drift_rows_agree_and_are_differences(seed, m, n):
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
    g = rng.normal(size=(n, m, m))
    beta = np.cumsum(g + np.swapaxes(g, 1, 2), axis=0)
    drift = AreaDrift(times, beta - beta[0])
    ts = query_times(rng, times).tolist()
    assert_two_evaluations_agree(drift._segments, ts, rng)
    d1 = drift._segments.rows(*drift._segments.locate(ts))[0]
    assert bits(d1.reshape(-1, m, m)) == bits(drift_increments(drift, ts))


def test_every_kind_of_row_is_covered():
    # the query times of one draw give grid pairs, rows inside one
    # segment and spanning rows with and without a head and a tail
    rng = np.random.default_rng(3)
    x = random_path(rng, 2, 30)
    q = x._segments
    kinds = set()
    for _ in range(20):
        tq, k, node = q.locate(query_times(rng, x.times))
        for r in range(len(tq) - 1):
            ns, nt = bool(node[r]), bool(node[r + 1])
            inner = k[r + 1] - nt > k[r]
            kinds.add(("pair" if ns and nt else "span" if inner
                       else "inside", ns, nt))
    assert kinds >= {("pair", True, True), ("inside", False, False),
                     ("inside", True, False), ("inside", False, True),
                     ("span", False, False), ("span", True, False),
                     ("span", False, True)}


def exact_geodesic(x, k, s, t):
    """exp(c log g_k) in fractions, g_k = x.increment(k, k + 1) (the
    stored floats of segment k), c = (t - s) / (t_k+1 - t_k) exactly."""
    g = x.increment(k, k + 1)
    u = [Fraction(v) for v in g.level1.tolist()]
    b = [[Fraction(v) for v in r] for r in g.level2.tolist()]
    t0, t1 = (Fraction(v) for v in x.times[k:k + 2].tolist())
    c = (Fraction(t) - Fraction(s)) / (t1 - t0)
    m = len(u)
    return ([c * v for v in u],
            [[c * b[i][j] + (c * c - c) * u[i] * u[j] / 2 for j in range(m)]
             for i in range(m)])


def inside_errors(x, pairs, increment):
    """Per (k, s, t), the level-2 error of increment(s, t) against the
    exact geodesic, over eps (|u_k|^2 + |L_k|)."""
    out = []
    for k, s, t in pairs:
        e1, e2 = exact_geodesic(x, k, s, t)
        u2 = increment(s, t)
        g = x.increment(k, k + 1)
        L = g.level2 - 0.5 * np.outer(g.level1, g.level1)
        scale = EPS * (float(g.level1 @ g.level1) + float(np.linalg.norm(L)))
        err = max(abs(Fraction(float(v)) - e)
                  for row, erow in zip(u2.tolist(), e2)
                  for v, e in zip(row, erow))
        out.append(float(err) / scale)
    return out


def inside_pairs(rng, x, n):
    """n sub-intervals (k, s, t) of random segments, a tenth of them
    starting on the segment's grid point."""
    out = []
    for _ in range(n):
        k = int(rng.integers(0, x.n_points - 1))
        t0, t1 = x.times[k:k + 2].tolist()
        s, t = sorted(t0 + rng.uniform(0.0, 1.0, size=2) * (t1 - t0))
        out.append((k, t0 if rng.random() < 0.1 else s, t))
    return out


@PROPERTY
@given(seed=seeds, m=st.integers(1, 2))
def test_an_inside_row_is_the_exact_geodesic_to_a_few_eps(seed, m):
    rng = np.random.default_rng(seed)
    x = brownian_lift(int(rng.integers(1000)), 4096, 1.0, m)
    errors = inside_errors(x, inside_pairs(rng, x, 10),
                           lambda s, t: x.increment_between(s, t).level2)
    assert max(errors) <= INSIDE_EPS_MULTIPLE, errors


def test_a_difference_of_absolute_values_fails_the_inside_bound():
    # b_t - b_s - u_s (x) (u_t - u_s) from absolute values cancels
    # O(|b|) numbers to an O(t - s) result: on a 4097-point m = 2
    # Brownian lift it misses the bound the segment row keeps
    rng = np.random.default_rng(14)
    x = brownian_lift(7, 4096, 1.0, 2)
    pairs = inside_pairs(rng, x, 200)

    def absolute(s, t):
        return _grid_increments(*x.at(np.array([s, t])))[1][0]

    assert max(inside_errors(x, pairs, absolute)) > 100 * INSIDE_EPS_MULTIPLE
    assert max(inside_errors(
        x, pairs, lambda s, t: x.increment_between(s, t).level2)) <= (
            INSIDE_EPS_MULTIPLE)


@PROPERTY
@given(seed=seeds, m=dims, n=st.integers(2, 300))
def test_at_is_the_stored_values_on_every_grid_time(seed, m, n):
    rng = np.random.default_rng(seed)
    x = random_path(rng, m, n)
    u, b = x.at(x.times)
    assert np.array_equal(u, x.level1) and np.array_equal(b, x.level2)
    u, b = x.at(x.T)
    assert np.array_equal(u, x.level1[-1]) and np.array_equal(b, x.level2[-1])


def test_random_walk_lifts_end_on_their_stored_value():
    # `at` at the last grid time used to interpolate the last interval at
    # alpha = 1, off the stored value on some of these lifts
    for seed in range(200):
        steps = np.random.default_rng(seed).normal(size=(4096, 2))
        pts = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
        x = lift_piecewise_linear(pts, np.linspace(0.0, 1.0, 4097))
        u, b = x.at(x.T)
        assert np.array_equal(u, x.level1[-1]), seed
        assert np.array_equal(b, x.level2[-1]), seed


def test_a_query_past_the_end_by_the_horizon_slack_is_the_end():
    # the horizon check accepts T up to x.T + 1e-12: such a time is
    # clamped to x.T, and a row ending there ends on the stored value
    x = brownian_lift(2, 16, 1.0, 2)
    s = float(x.times[-2]) + 0.01
    assert x.increment_between(s, 1.0 + 1e-12).level2.tolist() == (
        x.increment_between(s, 1.0).level2.tolist())
    u, b = x.at(1.0 + 1e-12)
    assert np.array_equal(b, x.level2[-1])
    with pytest.raises(ValueError, match="outside"):
        x.at(1.0 + 1e-11)


def test_increment_between_reversed_is_the_inverse():
    # for s > t, increment_between(s, t) is the group inverse of the row
    # over [t, s], so the two multiply to the identity; the float row
    # itself takes s <= t only
    x = brownian_lift(2, 16, 1.0, 2)
    for s, t in [(0.5, 0.25), (0.53, 0.51), (1.0, 0.0), (0.5, 0.01)]:
        back, fwd = x.increment_between(s, t), x.increment_between(t, s)
        e = inv(fwd)
        assert bits(back.level1) == bits(e.level1)
        assert bits(back.level2) == bits(e.level2)
        one = mul(fwd, back)
        assert np.allclose(one.level1, 0.0, rtol=0.0, atol=1e-15)
        assert np.allclose(one.level2, 0.0, rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="s <= t"):
        x._segments.row(0.5, 0.25)


def test_a_path_keeps_read_only_views_of_its_arrays():
    # the segment tables are built from the values on first use, so the
    # path's arrays cannot be edited in place; the caller's stay writable
    times, u, b = np.linspace(0.0, 1.0, 5), np.zeros((5, 2)), np.zeros((5, 2, 2))
    x = RoughPath(times, u, b)
    drift = AreaDrift(times, b)
    for a in (x.times, x.level1, x.level2, drift.times, drift.beta):
        with pytest.raises(ValueError, match="read-only"):
            a[-1] = 1.0
    assert u.flags.writeable and b.flags.writeable and times.flags.writeable
