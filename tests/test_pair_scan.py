"""The grid-pair scan behind the three sup-over-pairs measures.

pvar_norm, geometricity_defect and pvar_distance share one tiled scan
(rough_paths._pair_sup) that skips the tiles bounded below the running
maximum.  These tests pin each measure to a scan of one start point at a
time, and on large grids (where tiles are skipped) to the blocked row
scan the tiled one replaced (tests/oracles.py); they check the skip rule
with fake callbacks, that the tile side does not matter, and cover the
geometricity envelope beyond the exact scan's limit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from roughpaths import partial_rough_paths, rough_paths
from roughpaths.partial_rough_paths import PartialRoughPath, pvar_distance
from roughpaths.rde_solver import SolverConfig, solution_to_partial, solve_rde
from roughpaths.rough_paths import (RoughPath, brownian_lift,
                                    geometricity_defect,
                                    lift_piecewise_linear, pvar_norm)
from roughpaths.vector_fields import counterexample_field

from oracles import (geometricity_defect_blocked, geometricity_defect_rows,
                     pvar_distance_blocked, pvar_distance_rows,
                     pvar_norm_blocked)


def random_grid(rng, n):
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])


def random_triple(rng, n, d, m, times=None):
    times = random_grid(rng, n) if times is None else times
    return PartialRoughPath(times, rng.normal(size=(n, m)),
                            rng.normal(size=(n - 1, m, m)),
                            rng.normal(size=(n, d)),
                            rng.normal(size=(n - 1, d, m)),
                            float(rng.choice([2.0, 2.3])))


def on_driver_of(a, b):
    """b's y and cross increments on a's driver: a triple that shares
    its driver with a."""
    return PartialRoughPath(a.times, a.x, a.x2_inc, b.y, b.cross_inc, a.p)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cross_measures_equal_row_oracles(d, m):
    # random triples on non-uniform grids: equal, not close
    rng = np.random.default_rng(80 + 10 * d + m)
    for n in (2, 3, 17, 40):
        a = random_triple(rng, n, d, m)
        b = random_triple(rng, n, d, m, times=a.times)
        assert pvar_distance(a, b) == pvar_distance_rows(a, b)
        c = on_driver_of(a, b)
        assert pvar_distance(a, c) == pvar_distance_rows(a, c)


def _measures(n, seed):
    rng = np.random.default_rng(seed)
    x = brownian_lift(seed, n - 1, 1.0, 2, "ito")
    a = random_triple(rng, n, 2, 2, times=x.times)
    b = random_triple(rng, n, 2, 2, times=x.times)
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


@pytest.mark.parametrize("m", [1, 2])
def test_geometricity_envelope_brackets_exact_scan(monkeypatch, m):
    # beyond _EXACT_SCAN_LIMIT points the defect is the entrywise-range
    # envelope: the exact value for m = 1, at most m times it otherwise
    for seed in range(4):
        x = brownian_lift(seed, 60, 1.0, m, "ito")
        exact = geometricity_defect(x)
        assert exact == geometricity_defect_rows(x.level1, x.level2)
        monkeypatch.setattr(rough_paths, "_EXACT_SCAN_LIMIT", 10)
        envelope = geometricity_defect(x)
        monkeypatch.undo()
        if m == 1:
            assert envelope == exact
        else:
            assert exact <= envelope <= m * exact


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

    def tile_norms(i0, i1, j0, j1):
        a, c = i0 // side, (j0 - 1) // side
        calls.append((a, c))
        return [np.full((i1 - i0, j1 - j0), v[a, c]) for v in values]

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
    assert skipped(tiles)


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
    d = random_triple(rng, 700, 2, 1, times=c.times)
    assert pvar_distance(c, d) == pvar_distance_blocked(c, d)
    assert skipped(tiles)


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
                norms = tile_norms(i0, i1, j0, j1)
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
    d = random_triple(rng, n, 2, 3, times=c.times)
    pvar_distance(c, d)
    assert len(every_tile) > 0
