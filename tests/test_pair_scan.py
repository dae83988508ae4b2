"""The grid-pair scan behind the five sup-over-pairs measures.

pvar_norm, geometricity_defect, area_pvar_bound,
PartialRoughPath.cross_bound and pvar_distance share one tiled scan
(rough_paths._pair_sup) that skips the tiles bounded below the running
maximum.  These tests pin each measure to a scan of one start point at a
time, and on large grids (where tiles are skipped) to the blocked row
scan the tiled one replaced (tests/oracles.py); they check the skip rule
with fake callbacks, that the tile side does not matter, and cover the
geometricity envelope beyond the exact scan's limit.
"""

import numpy as np
import pytest

from roughpaths import partial_rough_paths, rough_paths
from roughpaths.partial_rough_paths import PartialRoughPath, pvar_distance
from roughpaths.rde_solver import SolverConfig, solution_to_partial, solve_rde
from roughpaths.rough_paths import (AreaDrift, Control, HolderControl,
                                    RoughPath, area_pvar_bound,
                                    brownian_lift, geometricity_defect,
                                    lift_piecewise_linear, pvar_norm)
from roughpaths.vector_fields import counterexample_field

from oracles import (area_pvar_bound_blocked, area_pvar_bound_rows,
                     cross_bound_blocked, cross_bound_rows,
                     geometricity_defect_blocked, geometricity_defect_rows,
                     pvar_distance_blocked, pvar_distance_rows,
                     pvar_norm_blocked)


def random_grid(rng, n):
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n - 1))])


def random_drift(rng, n, m):
    beta = rng.normal(size=(n, m, m))
    return AreaDrift(random_grid(rng, n), beta + np.swapaxes(beta, 1, 2))


def random_triple(rng, n, d, m, times=None):
    times = random_grid(rng, n) if times is None else times
    return PartialRoughPath(times, rng.normal(size=(n, m)),
                            rng.normal(size=(n - 1, m, m)),
                            rng.normal(size=(n, d)),
                            rng.normal(size=(n - 1, d, m)),
                            float(rng.choice([2.0, 2.3])))


@pytest.mark.parametrize("m", [1, 2])
def test_area_pvar_bound_equals_row_oracle(m):
    rng = np.random.default_rng(70 + m)
    for n in (2, 3, 17, 40):
        drift = random_drift(rng, n, m)
        for p in (2.0, 2.3):
            assert (area_pvar_bound(drift, HolderControl(), p)
                    == area_pvar_bound_rows(drift, HolderControl(), p))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cross_measures_equal_row_oracles(d, m):
    # random triples on non-uniform grids: equal, not close
    rng = np.random.default_rng(80 + 10 * d + m)
    for n in (2, 3, 17, 40):
        a = random_triple(rng, n, d, m)
        b = random_triple(rng, n, d, m, times=a.times)
        assert a.cross_bound() == cross_bound_rows(a)
        assert pvar_distance(a, b) == pvar_distance_rows(a, b)


def _five_measures(n, seed):
    rng = np.random.default_rng(seed)
    x = brownian_lift(seed, n - 1, 1.0, 2, "ito")
    a = random_triple(rng, n, 2, 2, times=x.times)
    b = random_triple(rng, n, 2, 2, times=x.times)
    return [pvar_norm(x, 2.3), geometricity_defect(x),
            area_pvar_bound(rough_paths.decompose(x)[1], x.control, 2.3),
            a.cross_bound(), pvar_distance(a, b)]


@pytest.mark.parametrize("n", [3, 17, 33])
def test_block_size_does_not_matter(monkeypatch, n):
    ref = _five_measures(n, n)
    # tile sides from single pairs up to one tile over the whole grid
    for side in (1, 2, 5, 64, n):
        monkeypatch.setattr(rough_paths, "_TILE", side)
        assert _five_measures(n, n) == ref


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


def test_nan_control_raises():
    x = brownian_lift(3, 40, 1.0, 1)
    nan_control = Control(lambda s, t: np.where(np.asarray(t) > 0.5, np.nan,
                                                np.asarray(t) - np.asarray(s)))
    with pytest.raises(ValueError, match="NaN"):
        pvar_norm(RoughPath(x.times, x.level1, x.level2, nan_control), 2.0)
    with pytest.raises(ValueError, match="NaN"):
        area_pvar_bound(rough_paths.decompose(x)[1], nan_control, 2.0)


def test_one_point_grid_has_no_pairs():
    t = np.zeros(1)
    x = RoughPath(t, np.zeros((1, 2)), np.zeros((1, 2, 2)))
    a = PartialRoughPath(t, x.level1, np.zeros((0, 2, 2)), np.ones((1, 3)),
                         np.zeros((0, 3, 2)))
    assert pvar_norm(x, 2.0) == geometricity_defect(x) == 0.0
    assert area_pvar_bound(AreaDrift(t, x.level2), x.control, 2.0) == 0.0
    assert a.cross_bound() == pvar_distance(a, a) == 0.0


def test_area_pvar_bound_rejects_bad_exponent():
    drift = random_drift(np.random.default_rng(5), 5, 1)
    for p in (0.0, 1.0, 3.5, float("nan")):
        with pytest.raises(ValueError, match=r"p must lie in \[2, 3\)"):
            area_pvar_bound(drift, HolderControl(), p)


# ---------------------------------------------------------------------------
# the skip rule, with fake callbacks


def _clamped_control():
    # zero on every pair that ends by t = 6: corners of whole tiles, off
    # the diagonal too, cannot bound anything
    return Control(lambda s, t: (np.maximum(np.asarray(t), 6.0)
                                 - np.maximum(np.asarray(s), 6.0)))


CONTROLS = {"none": None, "holder": HolderControl(),
            "clamped": _clamped_control()}


def _fake_scan(monkeypatch, seed, n, side, powers, control, walk):
    """Run _pair_sup on tiles whose norms are one constant per tile and
    norm (0 where the control vanishes), with valid bounds 1-3 times too
    high (without a control, a third of them exactly at the maxima).
    Returns the tiles' tops, scaled bounds and corner controls,
    the tiles evaluated (in order) and the result."""
    monkeypatch.setattr(rough_paths, "_TILE", side)
    rng = np.random.default_rng(seed)
    times = random_grid(rng, n)
    first, s_star, t_star = rough_paths._tile_corners(n)
    rows = len(first)
    values = rng.uniform(0.1, 1.0, size=(len(powers), rows, rows))
    bounds = values * rng.uniform(1.0, 3.0, size=values.shape)
    if control is None:
        # a third of the tiles bounded exactly at the maxima: ties skip
        tied = rng.uniform(size=(rows, rows)) < 1 / 3
        top = values.max(axis=(1, 2))[:, None]
        bounds[:, tied] = top
    tops, scaled, corner, pair_w = {}, {}, {}, {}
    for a in range(rows):
        for c in range(a, rows):
            i = np.arange(first[a], s_star[a] + 1)[:, None]
            j = np.arange(t_star[c], min(t_star[c] + side, n))[None, :]
            live = j > i
            if control is None:
                pair_w[a, c] = np.ones(np.count_nonzero(live))
                corner[a, c] = 1.0
            else:
                s = times[i]
                pair_w[a, c] = control(s, np.maximum(s, times[j]))[live]
                s = times[s_star[a]]
                corner[a, c] = float(control(s, max(s, times[t_star[c]])))
            if np.min(pair_w[a, c]) <= 0.0:
                values[:, a, c] = bounds[:, a, c] = 0.0
    for (a, c), w in pair_w.items():
        tops[a, c] = [float(np.max(v[a, c] / w[w > 0] ** pw, initial=0.0))
                      for v, pw in zip(values, powers)]
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled[a, c] = [b[a, c] / corner[a, c] ** pw
                            for b, pw in zip(bounds, powers)]
    calls = []

    def tile_norms(i0, i1, j0, j1):
        a, c = i0 // side, (j0 - 1) // side
        calls.append((a, c))
        return [np.full((i1 - i0, j1 - j0), v[a, c]) for v in values]

    result = rough_paths._pair_sup(times, control, powers, tile_norms,
                                   list(bounds), walk)
    return tops, scaled, corner, calls, result


def _must_evaluate(tops, scaled, corner, calls, result):
    # the unboundable tiles and the tiles above the final maxima
    final = [max(tp[k] for tp in tops.values()) for k in range(len(result))]
    assert result == final
    assert len(set(calls)) == len(calls)
    for tile in tops:
        if corner[tile] <= 0 or any(x > y for x, y in zip(scaled[tile],
                                                          final)):
            assert tile in calls, tile


@pytest.mark.parametrize("side", [1, 3, 4])
@pytest.mark.parametrize("powers", [(0.5,), (0.5, 1.0)])
@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_scan_skips_exactly_the_bounded_tiles(monkeypatch, side, powers,
                                              control):
    for seed in range(4):
        tops, scaled, corner, calls, result = _fake_scan(
            monkeypatch, seed, 29, side, powers, CONTROLS[control],
            walk=False)
        _must_evaluate(tops, scaled, corner, calls, result)
        # replay: no tile is evaluated while every bound of it is at or
        # below the running maximum of its norm, and the bounded ones
        # come in decreasing order of their largest normalised bound
        best = [0.0] * len(powers)
        largest = [max(sc[k] for tile, sc in scaled.items()
                       if corner[tile] > 0) for k in range(len(powers))]
        keys = []
        for tile in calls:
            if corner[tile] > 0:
                assert any(x > y for x, y in zip(scaled[tile], best)), tile
                keys.append(max(x / y for x, y in zip(scaled[tile], largest)))
            best = [max(x, y) for x, y in zip(best, tops[tile])]
        assert keys == sorted(keys, reverse=True)
        diagonal_only = control == "holder" and side > 1
        unbounded = {tile for tile in tops if corner[tile] <= 0}
        assert bool(unbounded) == (control == "clamped" or diagonal_only)
        if control == "clamped":
            assert any(a < c for a, c in unbounded)
        assert len(calls) < len(tops)


@pytest.mark.parametrize("side", [1, 4])
@pytest.mark.parametrize("control", ["holder", "clamped"])
def test_walk_evaluates_each_row_left_to_right(monkeypatch, side, control):
    for seed in range(4):
        tops, scaled, corner, calls, result = _fake_scan(
            monkeypatch, seed, 29, side, (0.5, 1.0), CONTROLS[control],
            walk=True)
        _must_evaluate(tops, scaled, corner, calls, result)
        for a in {a for a, _ in calls}:
            cols = [c for r, c in calls if r == a]
            assert cols == list(range(a, a + len(cols)))


# ---------------------------------------------------------------------------
# large grids, where tiles are skipped: equal to the blocked row scan


@pytest.fixture
def tiles(monkeypatch):
    """Counts the tiles the scans hold and the tiles they evaluate."""
    counts = {"tiles": 0, "evaluated": 0}
    scan = rough_paths._pair_sup

    def counting(times, control, powers, tile_norms, bounds, walk=False):
        rows = len(rough_paths._tile_corners(len(times))[0])
        counts["tiles"] += rows * (rows + 1) // 2

        def norms(*args):
            counts["evaluated"] += 1
            return tile_norms(*args)

        return scan(times, control, powers, norms, bounds, walk)

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
    n = 2049 if m == 1 else 1025
    x = brownian_lift(m, n - 1, 1.0, m, "ito")
    assert geometricity_defect(x) == geometricity_defect_blocked(x)
    drift = rough_paths.decompose(x)[1]
    assert (area_pvar_bound(drift, x.control, 2.3)
            == area_pvar_bound_blocked(drift, x.control, 2.3))
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


def test_cross_bound_equals_blocked_scan_on_large_grids(tiles):
    prp = _solution_triple(3, 1025)
    assert prp.cross_bound() == cross_bound_blocked(prp)
    rng = np.random.default_rng(4)
    noise = random_triple(rng, 700, 2, 2)
    assert noise.cross_bound() == cross_bound_blocked(noise)
    assert skipped(tiles)


def test_pvar_distance_equals_blocked_scan_on_large_grids(tiles):
    # a shared driver and a smooth perturbation of y and of the cross
    # integral, half a period (the largest difference) at lag 0.3
    a = _solution_triple(5, 2049)
    t = a.times
    wave = 1e-3 * np.sin(np.pi * t / 0.3)
    b = PartialRoughPath(t, a.x, a.x2_inc, a.y + wave[:, None],
                         a.cross_inc + 1e-3 * np.diff(wave)[:, None, None],
                         a.p, a.control)
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
    # same length ties for the largest increment over its control
    n = 1537
    pts = np.where(np.arange(n) // 5 % 2 == 0, np.arange(n) % 5,
                   5 - np.arange(n) % 5)[:, None] * np.ones((1, 2))
    x = lift_piecewise_linear(pts, np.arange(n) / 1024.0)
    assert pvar_norm(x, 2.0) == pvar_norm_blocked(x, 2.0)
    assert geometricity_defect(x) == geometricity_defect_blocked(x)
    assert skipped(tiles)


def _large_measures(x, control):
    """The five measures on one large driver, its triple and a
    perturbed copy, under control, against their blocked scans."""
    x = RoughPath(x.times, x.level1, x.level2, control)
    drift = rough_paths.decompose(x)[1]
    n = x.n_points
    a = PartialRoughPath(x.times, x.level1, np.zeros((n - 1, 1, 1)),
                         x.level1, np.diff(x.level2, axis=0),
                         control=control)
    b = PartialRoughPath(x.times, x.level1, a.x2_inc, 2 * x.level1,
                         a.cross_inc, control=control)
    return [(pvar_norm(x, 2.0), pvar_norm_blocked(x, 2.0)),
            (area_pvar_bound(drift, control, 2.0),
             area_pvar_bound_blocked(drift, control, 2.0)),
            (a.cross_bound(), cross_bound_blocked(a)),
            (pvar_distance(a, b), pvar_distance_blocked(a, b))]


def test_zero_control_over_several_tiles(tiles):
    x = brownian_lift(7, 1024, 1.0, 1, "ito")
    # zero on every pair up to lag 0.1 (about 100 grid steps): inf
    shifted = Control(lambda s, t: np.maximum(
        0.0, (np.asarray(t) - np.asarray(s)) - 0.1))
    for got, ref in _large_measures(x, shifted):
        assert got == ref == np.inf
    # zero on [0, 0.3], where the driver stays at the origin: finite
    t = x.times
    still = np.where(t[:, None] <= 0.3, 0.0, x.level1 - x.level1[t <= 0.3][-1])
    y = lift_piecewise_linear(still, t)
    clamp = Control(lambda s, t: (np.maximum(np.asarray(t), 0.3)
                                  - np.maximum(np.asarray(s), 0.3)))
    for got, ref in _large_measures(y, clamp):
        assert got == ref and np.isfinite(got)
    # zero on [0, 0.5]; y moves on [0, 0.2] and x on [0.3, 0.4] only, so
    # the cross integral is nonzero on zero-control pairs, but only on
    # pairs more than a tile apart
    n = t.size
    ramp = np.clip((t - np.array([[0.0], [0.3]])) / [[0.2], [0.1]], 0, 1).T
    late = PartialRoughPath(t, ramp[:, 1:], np.zeros((n - 1, 1, 1)),
                            ramp[:, :1], np.zeros((n - 1, 1, 1)),
                            control=Control(lambda s, t: (
                                np.maximum(np.asarray(t), 0.5)
                                - np.maximum(np.asarray(s), 0.5))))
    assert late.cross_bound() == cross_bound_blocked(late) == np.inf
    assert skipped(tiles)


def test_nan_control_over_several_tiles_raises():
    x = brownian_lift(8, 1024, 1.0, 1, "ito")
    # zero up to lag 0.1 as well, where the increments would make the
    # measures inf: the NaN at the tile corners is seen first
    nan_control = Control(lambda s, t: np.where(
        np.asarray(t) > 0.5, np.nan,
        np.maximum(0.0, np.asarray(t) - np.asarray(s) - 0.1)))
    y = RoughPath(x.times, x.level1, x.level2, nan_control)
    n = x.n_points
    a = PartialRoughPath(x.times, x.level1, np.zeros((n - 1, 1, 1)),
                         x.level1, np.diff(x.level2, axis=0),
                         control=nan_control)
    for measure in (lambda: pvar_norm(y, 2.0),
                    lambda: area_pvar_bound(rough_paths.decompose(x)[1],
                                            nan_control, 2.0),
                    a.cross_bound, lambda: pvar_distance(a, a)):
        with pytest.raises(ValueError, match="NaN"):
            measure()


# ---------------------------------------------------------------------------
# the tile bounds


@pytest.fixture
def every_tile(monkeypatch):
    """Before each scan, evaluate every tile and check that its bounds
    dominate its computed norms; count the checked tiles."""
    checked = []
    scan = rough_paths._pair_sup

    def checking(times, control, powers, tile_norms, bounds, walk=False):
        n = len(times)
        first, s_star, t_star = rough_paths._tile_corners(n)
        for a in range(len(first)):
            for c in range(a, len(first)):
                i0, i1, j0 = first[a], s_star[a] + 1, t_star[c]
                j1 = min(j0 + rough_paths._TILE, n)
                live = np.arange(j0, j1)[None, :] > np.arange(i0, i1)[:, None]
                norms = tile_norms(i0, i1, j0, j1)
                for v, bound in zip(norms, bounds):
                    assert np.max(v[live], initial=0.0) <= bound[a, c]
                checked.append((a, c))
        return scan(times, control, powers, tile_norms, bounds, walk)

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
        area_pvar_bound(rough_paths.decompose(x)[1], x.control, 2.3)
    for offset in (0.0, 1e6):
        a = _smooth_triple(n, offset)
        wave = np.sin(7 * t)[:, None] * np.ones((1, 3))
        b = PartialRoughPath(t, a.x, a.x2_inc, a.y + 1e-3 * wave,
                             a.cross_inc * 1.01, a.p)
        moved = PartialRoughPath(t, a.x + 0.1 * wave[:, :2], a.x2_inc, b.y,
                                 a.cross_inc, a.p)
        a.cross_bound()
        for pair in ((a, b), (b, a), (a, moved), (moved, b)):
            pvar_distance(*pair)
    c = random_triple(rng, n, 2, 3)
    d = random_triple(rng, n, 2, 3, times=c.times)
    c.cross_bound()
    pvar_distance(c, d)
    assert len(every_tile) > 0
