"""The grid-pair scan behind the three sup-over-pairs measures.

pvar_norm, geometricity_defect and pvar_distance share one tiled scan
(rough_paths._pair_sup) that skips the tiles bounded below the running
maximum.  These tests pin each measure to a scan of one start point at a
time, and on large grids (where tiles are skipped) to the blocked row
scan the tiled one replaced (tests/oracles.py); they check the skip rule
with fake callbacks and that the tile side does not matter.  The
geometricity defect scans only the points that its diameter pruning
keeps: it equals the blocked scan on clouds of every kind, and it stays
fast on 100,001-point clouds, an i.i.d. one and one of a single repeated
point.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from roughpaths import partial_rough_paths, rough_paths
from roughpaths.partial_rough_paths import PartialRoughPath, pvar_distance
from roughpaths.rde_solver import SolverConfig, solution_to_partial, solve_rde
from roughpaths.rough_paths import (RoughPath, beta_path, brownian_lift,
                                    geometricity_defect,
                                    lift_piecewise_linear, pvar_norm)
from roughpaths.vector_fields import counterexample_field

from oracles import (cross_norm, cross_pairs, difference,
                     geometricity_defect_blocked, increment_norm, level2_norm,
                     pvar_distance_blocked, pvar_distance_rows,
                     pvar_norm_blocked)


def random_grid(rng, n):
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])


def random_triple(rng, n, d, m, times=None, p=None):
    """A random triple; its grid and p are drawn where not given."""
    times = random_grid(rng, n) if times is None else times
    return PartialRoughPath(times, rng.normal(size=(n, m)),
                            rng.normal(size=(n - 1, m, m)),
                            rng.normal(size=(n, d)),
                            rng.normal(size=(n - 1, d, m)),
                            float(rng.choice([2.0, 2.3])) if p is None else p)


def random_partner(rng, a):
    """A random triple on a's grid at a's p, so pvar_distance takes both."""
    return random_triple(rng, a.n_points, a.d, a.m, a.times, a.p)


def on_driver_of(a, b):
    """b's y and cross increments on a's driver: a triple that shares
    its driver with a."""
    return PartialRoughPath(a.times, a.x, a.x2_inc, b.y, b.cross_inc, a.p)


@pytest.mark.parametrize("d, m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
                                  (3, 2), (3, 3), (9, 1), (2, 4)])
def test_cross_measures_equal_row_oracles(d, m):
    # random triples on non-uniform grids: equal, not close, also where
    # d m >= 8 entries of a pair's cross norm are summed
    rng = np.random.default_rng(80 + 10 * d + m)
    for n in (2, 3, 17, 40):
        a = random_triple(rng, n, d, m)
        b = random_partner(rng, a)
        assert pvar_distance(a, b) == pvar_distance_rows(a, b)
        c = on_driver_of(a, b)
        assert pvar_distance(a, c) == pvar_distance_rows(a, c)


def _measures(n, seed):
    rng = np.random.default_rng(seed)
    x = brownian_lift(seed, n - 1, 1.0, 2, "ito")
    a = random_triple(rng, n, 2, 2, times=x.times)
    b = random_partner(rng, a)
    return [pvar_norm(x, 2.3), geometricity_defect(x), pvar_distance(a, b),
            pvar_distance(a, on_driver_of(a, b))]


@pytest.mark.parametrize("n", [3, 17, 33])
def test_block_size_does_not_matter(monkeypatch, n):
    ref = _measures(n, n)
    # tile sides from single pairs up to one tile over the whole grid
    for side in (1, 2, 5, 64, n):
        monkeypatch.setattr(rough_paths, "_TILE", side)
        assert _measures(n, n) == ref


def test_tile_side_keeps_the_scan_linear():
    for n in (2, 3, 65, 4097, 16385, 16386, 32769, 65537, 65538, 100_001,
              10**6 + 1):
        side = rough_paths._tile_side(n)
        first, s_star, t_star = rough_paths._tile_corners(n)
        rows = len(first)
        assert rows == -(-(n - 1) // side)
        assert np.array_equal(s_star[:-1] + 1, first[1:])
        assert side == 64 if n <= 16385 else side > 64
        # rows of tiles: at most 256 up to 65,537 points, about sqrt(n)
        # beyond; the side: 64, or at most ceil(sqrt(n - 1))
        assert rows <= max(rough_paths._TILE_ROWS, math.isqrt(n - 1) + 1)
        assert side == 64 or (side - 1) ** 2 < n - 1
        assert side == (max(64, -(-(n - 1) // 256)) if n <= 65537
                        else math.isqrt(n - 2) + 1)


@pytest.mark.parametrize("n, tile, rows", [(600, 8, 7), (1500, 8, 7),
                                           (40, 2, 7)])
def test_grown_tiles_equal_the_64_side_scan(monkeypatch, n, tile, rows):
    # with few rows of tiles allowed the side grows past _TILE: to the
    # side of 7 rows (6 points at n = 40) or ceil(sqrt(n - 1)) (25 and 39
    # points at n = 600 and 1500); a maximum is exact in any order
    ref = _measures(n, n)
    monkeypatch.setattr(rough_paths, "_TILE", tile)
    monkeypatch.setattr(rough_paths, "_TILE_ROWS", rows)
    side = rough_paths._tile_side(n)
    assert side == min(-(-(n - 1) // rows), math.isqrt(n - 2) + 1) > tile
    assert _measures(n, n) == ref


def test_pair_scan_memory_is_capped(monkeypatch):
    # 32,769 points: tiles of side 128 in 256 rows; with side 64 the
    # per-tile bookkeeping alone peaked near 20 MB
    x = brownian_lift(9, 32768, 1.0, 1)
    tracemalloc.start()
    try:
        value = pvar_norm(x, 2.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6
    monkeypatch.setattr(rough_paths, "_TILE_ROWS", 10**9)
    assert rough_paths._tile_side(32769) == 64
    assert value == pvar_norm(x, 2.3)


def test_pvar_distance_memory_is_capped():
    # 32,769 points, d = m = 2, unrelated drivers: every tile computes x,
    # y and cross planes.  Tiles of (rows, cols, d, m) arrays peaked at
    # 11.1 MB, the per-entry planes at 10.7 MB: they read x and y through
    # column views and the cross prefix sums from columns that replace
    # their row layout, so no copy of the triples is made
    rng = np.random.default_rng(9)
    a = random_triple(rng, 32769, 2, 2)
    b = random_partner(rng, a)
    tracemalloc.start()
    try:
        pvar_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_one_point_grid_has_no_pairs():
    t = np.zeros(1)
    x = RoughPath(t, np.zeros((1, 2)), np.zeros((1, 2, 2)))
    a = PartialRoughPath(t, x.level1, np.zeros((0, 2, 2)), np.ones((1, 3)),
                         np.zeros((0, 3, 2)))
    assert pvar_norm(x, 2.0) == geometricity_defect(x) == 0.0
    assert pvar_distance(a, a) == 0.0


# ---------------------------------------------------------------------------
# the skip rule, with fake callbacks


def _fake_scan(monkeypatch, seed, n, side, powers):
    """Run _pair_sup on tiles whose norms are one constant per tile and
    norm, with valid bounds 1-3 times too high (at power 0, a third of
    them exactly at the maxima).  Returns the tiles' tops, scaled bounds
    and whether each is evaluated unconditionally (a tile corner with
    t* <= s* and a positive power), the tiles evaluated (in order) and
    the result."""
    monkeypatch.setattr(rough_paths, "_TILE", side)
    rng = np.random.default_rng(seed)
    times = random_grid(rng, n)
    first, s_star, t_star = rough_paths._tile_corners(n)
    rows = len(first)
    values = rng.uniform(0.1, 1.0, size=(len(powers), rows, rows))
    bounds = values * rng.uniform(1.0, 3.0, size=values.shape)
    if max(powers) == 0.0:
        # a third of the tiles bounded exactly at the maxima: ties skip
        tied = rng.uniform(size=(rows, rows)) < 1 / 3
        top = values.max(axis=(1, 2))[:, None]
        bounds[:, tied] = top
    tops, scaled, fixed = {}, {}, {}
    for a in range(rows):
        for c in range(a, rows):
            i = np.arange(first[a], s_star[a] + 1)[:, None]
            j = np.arange(t_star[c], min(t_star[c] + side, n))[None, :]
            w = (times[j] - times[i])[j > i]
            corner = times[t_star[c]] - times[s_star[a]]
            fixed[a, c] = corner <= 0.0 and max(powers) > 0.0
            tops[a, c] = [float(np.max(v[a, c] / w ** pw))
                          for v, pw in zip(values, powers)]
            with np.errstate(divide="ignore", invalid="ignore"):
                scaled[a, c] = [b[a, c] / corner ** pw
                                for b, pw in zip(bounds, powers)]
    calls = []

    def tile_norms(i, j):
        (rows, _), cols = i, j
        a, c = rows.start // side, (cols.start - 1) // side
        calls.append((a, c))
        return [np.full((rows.stop - rows.start, cols.stop - cols.start),
                        v[a, c]) for v in values]

    result = rough_paths._pair_sup(times, powers, tile_norms, list(bounds))
    return tops, scaled, fixed, calls, result


def _must_evaluate(tops, scaled, fixed, calls, result):
    # the unboundable tiles and the tiles above the final maxima
    final = [max(tp[k] for tp in tops.values()) for k in range(len(result))]
    assert result == final
    assert len(set(calls)) == len(calls)
    for tile in tops:
        if fixed[tile] or any(x > y for x, y in zip(scaled[tile], final)):
            assert tile in calls, tile


# "holder": the norms over (t - s)^power; "none": every power 0, the
# norms unscaled, as geometricity_defect scans them
CONTROLS = {"none": lambda powers: (0.0,) * len(powers),
            "holder": lambda powers: powers}


@pytest.mark.parametrize("side", [1, 3, 4])
@pytest.mark.parametrize("powers", [(0.5,), (0.5, 1.0)])
@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_scan_skips_exactly_the_bounded_tiles(monkeypatch, side, powers,
                                              control):
    powers = CONTROLS[control](powers)
    for seed in range(4):
        tops, scaled, fixed, calls, result = _fake_scan(
            monkeypatch, seed, 29, side, powers)
        _must_evaluate(tops, scaled, fixed, calls, result)
        # replay: no tile is evaluated while every bound of it is at or
        # below the running maximum of its norm, and the bounded ones
        # come in decreasing order of their largest normalised bound
        best = [0.0] * len(powers)
        largest = [max(sc[k] for tile, sc in scaled.items()
                       if not fixed[tile]) for k in range(len(powers))]
        keys = []
        for tile in calls:
            if not fixed[tile]:
                assert any(x > y for x, y in zip(scaled[tile], best)), tile
                keys.append(max(x / y for x, y in zip(scaled[tile], largest)))
            best = [max(x, y) for x, y in zip(best, tops[tile])]
        assert keys == sorted(keys, reverse=True)
        # only the diagonal tiles of several start points go first, and
        # only for a positive power: at power 0 they are bounded too
        unbounded = {tile for tile in tops if fixed[tile]}
        assert bool(unbounded) == (control == "holder" and side > 1)
        assert all(a == c for a, c in unbounded)
        assert len(calls) < len(tops)


# ---------------------------------------------------------------------------
# large grids, where tiles are skipped: equal to the blocked row scan


@pytest.fixture
def tiles(monkeypatch):
    """Counts the tiles the scans hold and the tiles they evaluate."""
    counts = {"tiles": 0, "evaluated": 0}
    scan = rough_paths._pair_sup

    def counting(times, powers, tile_norms, bounds):
        rows = len(rough_paths._tile_corners(len(times))[0])
        counts["tiles"] += rows * (rows + 1) // 2

        def norms(*args):
            counts["evaluated"] += 1
            return tile_norms(*args)

        return scan(times, powers, norms, bounds)

    monkeypatch.setattr(rough_paths, "_pair_sup", counting)
    monkeypatch.setattr(partial_rough_paths, "_pair_sup", counting)
    return counts


def skipped(counts):
    return 0 < counts["evaluated"] < counts["tiles"]


@pytest.mark.parametrize("m,n", [(1, 4097), (2, 2049), (3, 1025)])
@pytest.mark.parametrize("p", [2.0, 2.3])
def test_pvar_norm_equals_blocked_scan_on_large_grids(tiles, m, n, p):
    for convention in ("ito", "stratonovich"):
        x = brownian_lift(m + n, n - 1, 1.0, m, convention)
        assert pvar_norm(x, p) == pvar_norm_blocked(x, p)
    assert skipped(tiles)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_geometricity_and_area_equal_blocked_scan_on_large_grids(tiles, m):
    # only the geometricity scan is left: the area measure this test also
    # checked is gone, and the name is kept so the test keeps its id
    n = 2049 if m == 1 else 1025
    x = brownian_lift(m, n - 1, 1.0, m, "ito")
    assert geometricity_defect(x) == geometricity_defect_blocked(x)
    # a polyline lift is geometric: its beta path is roundoff
    rng = np.random.default_rng(m)
    walk = lift_piecewise_linear(np.cumsum(rng.normal(size=(n, m)), axis=0),
                                 np.linspace(0.0, 1.0, n))
    assert geometricity_defect(walk) == geometricity_defect_blocked(walk)
    # two clusters within 1e-12 of their extremes: the pruning keeps most
    # points, and the tiles inside one cluster are skipped
    x = CLOUDS["clustered"](rng, n, m)
    assert geometricity_defect(x) == geometricity_defect_blocked(x)
    assert skipped(tiles)


def _beta_cloud(times, level2):
    """A path with level 1 at zero, so its beta path is the symmetric
    level2, starting at the origin."""
    level2 = np.asarray(level2, dtype=float)
    level2[0] = 0.0
    return RoughPath(times, np.zeros(level2.shape[:2]), level2)


def _iid(rng, n, m):
    u, b = rng.normal(size=(n, m)), rng.normal(size=(n, m, m))
    u[0], b[0] = 0.0, 0.0
    return RoughPath(np.linspace(0.0, 1.0, n), u, b)


def _tied(rng, n, m):
    # entries 0, 1 or 2: many duplicate points and tied longest pairs
    b = rng.integers(0, 2, size=(n, m, m))
    return _beta_cloud(np.arange(n) / 1024.0, b + np.swapaxes(b, 1, 2))


def _clustered(rng, n, m):
    # the first half near -I, the second near +I, spread 1e-12
    side = np.where(np.arange(n) < n // 2, -1.0, 1.0)
    scale = side + 1e-12 * rng.normal(size=n)
    return _beta_cloud(np.linspace(0.0, 1.0, n),
                       scale[:, None, None] * np.eye(m))


def _offset_walk(rng, n, m):
    # a geometric lift far from the origin: beta is roundoff at 1e12
    return lift_piecewise_linear(
        1e6 + np.cumsum(rng.normal(size=(n, m)), axis=0),
        np.linspace(0.0, 1.0, n))


CLOUDS = {
    "iid": _iid,
    "ito": lambda rng, n, m: brownian_lift(int(rng.integers(2**31)), n - 1,
                                           1.0, m, "ito"),
    "stratonovich": lambda rng, n, m: brownian_lift(
        int(rng.integers(2**31)), n - 1, 1.0, m, "stratonovich"),
    "offset": _offset_walk,
    "tied": _tied,
    "clustered": _clustered,
}


@pytest.mark.parametrize("kind", sorted(CLOUDS))
def test_geometricity_equals_blocked_scan_on_every_cloud(kind):
    # the pruned scan against every pair, bit for bit
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=12, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 2000),
               m=st.integers(1, 3))
    def equal(seed, n, m):
        x = CLOUDS[kind](np.random.default_rng(seed), n, m)
        assert geometricity_defect(x) == geometricity_defect_blocked(x)

    equal()


def test_geometricity_of_100k_point_clouds_is_fast():
    # every pair over all 100,001 points would take about 50 s; the
    # pruning keeps a few dozen points of an i.i.d. cloud
    x = _iid(np.random.default_rng(100), 100_001, 2)
    start = time.perf_counter()
    value = geometricity_defect(x)
    assert time.perf_counter() - start < 5.0
    beta = beta_path(x).reshape(x.n_points, -1)
    ranges = beta.max(axis=0) - beta.min(axis=0)
    assert np.max(ranges) <= value * (1 + 1e-12)
    assert value <= np.linalg.norm(ranges) * (1 + 1e-12)
    # a lift of integer points has beta exactly 0: every point survives
    # the pruning, and only dropping the duplicates leaves no pair
    ramp = lift_piecewise_linear(np.arange(100_001.0),
                                 np.linspace(0.0, 1.0, 100_001))
    start = time.perf_counter()
    assert geometricity_defect(ramp) == 0.0
    assert time.perf_counter() - start < 5.0


def test_non_finite_beta_raises():
    # u (x) u overflows at level 1 = 1e200; the full scan returned inf
    x = RoughPath(np.array([0.0, 1.0]), np.array([[0.0], [1e200]]),
                  np.zeros((2, 1, 1)))
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="beta must be finite"):
        geometricity_defect(x)


def _solution_triple(seed, n):
    x = brownian_lift(seed, n - 1, 1.0, 1)
    sol = solve_rde(x, counterexample_field(), np.array([1.0, 0.0]), 1.0,
                    SolverConfig(base_mesh=n - 1))
    return solution_to_partial(sol, x)


def test_pvar_distance_equals_blocked_scan_on_large_grids(tiles):
    # a shared driver and a smooth perturbation of y and of the cross
    # integral, half a period (the largest difference) at lag 0.3
    a = _solution_triple(5, 2049)
    t = a.times
    wave = 1e-3 * np.sin(np.pi * t / 0.3)
    b = PartialRoughPath(t, a.x, a.x2_inc, a.y + wave[:, None],
                         a.cross_inc + 1e-3 * np.diff(wave)[:, None, None],
                         a.p)
    assert pvar_distance(a, b) == pvar_distance_blocked(a, b)
    assert pvar_distance(b, a) == pvar_distance_blocked(b, a)
    # unrelated triples on a shared grid
    rng = np.random.default_rng(6)
    c = random_triple(rng, 700, 2, 1)
    d = random_partner(rng, c)
    assert pvar_distance(c, d) == pvar_distance_blocked(c, d)
    assert skipped(tiles)
    # a shared driver with d m = 9 entries of the cross integral, and
    # tiles skipped in this scan too
    c = random_triple(rng, 1025, 3, 3)
    d = on_driver_of(c, random_partner(rng, c))
    before = dict(tiles)
    assert pvar_distance(c, d) == pvar_distance_blocked(c, d)
    assert skipped({k: tiles[k] - before[k] for k in tiles})


def test_tied_maxima_equal_blocked_scan(tiles):
    # a zigzag of unit steps on a dyadic grid: every up-stroke of the
    # same length ties for the largest increment over its t - s
    n = 1537
    pts = np.where(np.arange(n) // 5 % 2 == 0, np.arange(n) % 5,
                   5 - np.arange(n) % 5)[:, None] * np.ones((1, 2))
    x = lift_piecewise_linear(pts, np.arange(n) / 1024.0)
    assert pvar_norm(x, 2.0) == pvar_norm_blocked(x, 2.0)
    assert geometricity_defect(x) == geometricity_defect_blocked(x)
    assert skipped(tiles)


# ---------------------------------------------------------------------------
# the tile bounds


@pytest.fixture
def every_tile(monkeypatch):
    """Before each scan, evaluate every tile and check that its bounds
    dominate its computed norms; count the checked tiles."""
    checked = []
    scan = rough_paths._pair_sup

    def checking(times, powers, tile_norms, bounds):
        n = len(times)
        first, s_star, t_star = rough_paths._tile_corners(n)
        for a in range(len(first)):
            for c in range(a, len(first)):
                i0, i1, j0 = first[a], s_star[a] + 1, t_star[c]
                j1 = min(j0 + rough_paths._tile_side(n), n)
                live = np.arange(j0, j1)[None, :] > np.arange(i0, i1)[:, None]
                norms = tile_norms((slice(i0, i1), None), slice(j0, j1))
                for v, bound in zip(norms, bounds):
                    assert np.max(v[live], initial=0.0) <= bound[a, c]
                checked.append((a, c))
        return scan(times, powers, tile_norms, bounds)

    monkeypatch.setattr(rough_paths, "_TILE", 8)
    monkeypatch.setattr(rough_paths, "_pair_sup", checking)
    monkeypatch.setattr(partial_rough_paths, "_pair_sup", checking)
    return checked


def _smooth_triple(n, offset):
    # x and y smooth, the cross integral by the trapezoidal rule, y far
    # from the origin: the running sums cancel (x) y_k against y_s
    t = np.linspace(0.0, 1.0, n)
    x = np.column_stack([np.sin(3 * t), t * t])
    y = offset + np.column_stack([np.cos(2 * t), t, np.exp(t)])
    mid = 0.5 * (y[:-1] + y[1:]) - y[:-1]
    cross = mid[:, :, None] * np.diff(x, axis=0)[:, None, :]
    return PartialRoughPath(t, x, np.zeros((n - 1, 2, 2)), y, cross)


@pytest.mark.parametrize("n", [9, 100, 203])
def test_tile_bounds_dominate_every_norm(every_tile, n):
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 1.0, n)
    smooth = lift_piecewise_linear(np.column_stack([t, 2 * t * t, -t]), t)
    for x in (smooth, brownian_lift(n, n - 1, 1.0, 2, "ito"),
              brownian_lift(n, n - 1, 1.0, 1),
              lift_piecewise_linear(1e6 + np.cumsum(rng.normal(size=(n, 2)),
                                                    axis=0), t)):
        pvar_norm(x, 2.0)
        geometricity_defect(x)
    for offset in (0.0, 1e6):
        a = _smooth_triple(n, offset)
        wave = np.sin(7 * t)[:, None] * np.ones((1, 3))
        b = PartialRoughPath(t, a.x, a.x2_inc, a.y + 1e-3 * wave,
                             a.cross_inc * 1.01, a.p)
        moved = PartialRoughPath(t, a.x + 0.1 * wave[:, :2], a.x2_inc, b.y,
                                 a.cross_inc, a.p)
        for pair in ((a, b), (b, a), (a, moved), (moved, b)):
            pvar_distance(*pair)
    c = random_triple(rng, n, 2, 3)
    d = random_partner(rng, c)
    pvar_distance(c, d)
    assert len(every_tile) > 0


# ---------------------------------------------------------------------------
# the tile-bound anchors: each measure's pair_norms, run on index arrays,
# against the array-form formulas, bit for bit.  The CLI, the demos and
# the benchmark never reach an unshared driver or a width of 8 or more
# entries, so these are the tests that do


def _anchors(monkeypatch, measure, *args):
    """The anchors of the first _tile_spreads call the measure makes,
    whose q is its pair_norms."""
    spreads = rough_paths._tile_spreads
    calls = []

    def spy(n, q):
        calls.append(spreads(n, q))
        return calls[-1]

    monkeypatch.setattr(rough_paths, "_tile_spreads", spy)
    monkeypatch.setattr(partial_rough_paths, "_tile_spreads", spy)
    measure(*args)
    return calls[0]


def _same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for x, y in zip(g, w):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _scaled(rng, shape):
    # entries over a few decades, a few of them zero
    v = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    v[rng.uniform(size=shape) < 0.05] = 0.0
    return v


@pytest.mark.parametrize("m", range(1, 13))
def test_pvar_norm_anchors_equal_the_array_formulas(m):
    # up to m m = 144 entries of level 2, each pair's squares summed
    # left to right
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=8, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
               side=st.integers(1, 8))
    def equal(seed, n, side):
        rng = np.random.default_rng(seed)
        u, b = _scaled(rng, (n, m)), _scaled(rng, (n, m, m))
        u[0], b[0] = 0.0, 0.0
        x = RoughPath(random_grid(rng, n), u, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rough_paths, "_TILE", side)
            got = _anchors(mp, pvar_norm, x, 2.3)
            want = rough_paths._tile_spreads(
                n, lambda i, j: (increment_norm(u)(i, j),
                                 level2_norm(x)(i, j)))
        _same_bits(got, want)

    equal()


@pytest.mark.parametrize("shared", [True, False])
def test_pvar_distance_anchors_equal_the_array_formulas(shared):
    # up to 9 entries of y and 36 of the cross integral, each pair's
    # squares summed left to right
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
               d=st.integers(1, 9), m=st.integers(1, 4),
               side=st.integers(1, 8))
    def equal(seed, n, d, m, side):
        rng = np.random.default_rng(seed)
        a = random_triple(rng, n, d, m)
        b = random_partner(rng, a)
        if shared:
            b = on_driver_of(a, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rough_paths, "_TILE", side)
            got = _anchors(mp, pvar_distance, a, b)
            forms = [difference(a.y, b.y), cross_norm(a, b)]
            if not shared:
                forms.insert(0, difference(a.x, b.x))
            want = rough_paths._tile_spreads(
                n, lambda i, j: tuple(q(i, j) for q in forms))
        _same_bits(got, want)

    equal()


def test_cross_between_equals_the_array_formula():
    rng = np.random.default_rng(33)
    for d, m in [(1, 1), (2, 3), (3, 3), (9, 1)]:
        prp = random_triple(rng, 30, d, m)
        want = cross_pairs(prp)
        i = rng.integers(0, 30, size=(7, 1))
        j = rng.integers(0, 30, size=(1, 5))
        for args in ((i, j), (i[:3, 0], j[0, :3]), (4, j), (i, 9), (3, 17)):
            got = prp.cross_between(*args)
            assert got.shape == want(*args).shape
            assert np.array_equal(got, want(*args))
