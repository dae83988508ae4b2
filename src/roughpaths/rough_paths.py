"""Level-2 rough paths on a time grid.

A rough path is stored as absolute group values x_t = (1, u_t, b_t) at
grid times, with x_0 the identity.  Increments between grid points are
x_s^-1 (x) x_t, which makes the multiplicative (Chen) relation hold by
construction; the closed forms are

    u(s,t) = u_t - u_s
    b(s,t) = b_t - b_s - u_s (x) (u_t - u_s).

Between grid points the path follows the group geodesic of each
segment's increment (the path that traverses the chord at constant
speed).  For polyline lifts this is exact at every time, so a solver may
evaluate driver increments on any mesh.  Every query between grid
points (`at`, `increment_between`, the solver's mesh rows) goes through
one formula in the segments' log coordinates, segments._Segments, which
each RoughPath and AreaDrift builds on first use and keeps.

The module also measures paths (p-variation norm against t - s, Chen
defect, geometricity defect; the sup-over-grid-pairs measures,
here and in partial_rough_paths, share one tiled scan), splits a
non-geometric path into a geometric part plus a symmetric area-drift
path, and generates the stock drivers used by the experiments (polyline
lifts, left-point and trapezoidal Brownian lifts, pure-area paths).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .segments import _grid_increments, _Segments
from .tensor_algebra import GroupElement2, _half_square, _mul, inv

__all__ = [
    "RoughPath",
    "AreaDrift",
    "lift_piecewise_linear",
    "chen_defect",
    "pvar_norm",
    "geometricity_defect",
    "beta_path",
    "decompose",
    "recompose",
    "brownian_lift",
    "pure_area_path",
    "dilate",
    "read_polyline_csv",
    "write_roughpath_csv",
    "read_roughpath_csv",
]

# The Chen audit visits every grid triple (O(N^3)) up to this many grid
# points and a fixed seeded sample of _CHEN_SAMPLES draws beyond it.
_CHEN_EXHAUSTIVE_LIMIT = 120
_CHEN_SAMPLES = 20000

# Triples per array pass of the Chen audit, which indexes the stored grid
# values: enough to amortise the numpy overhead of each pass,
# few enough that the passes' temporaries stay small (one pass over all
# sampled triples costs more peak memory than the path it audits).
_CHEN_CHUNK = 2048

# Side of a _pair_sup tile in grid points: a tile pairs up to _TILE start
# points with up to _TILE end points, so its widest per-pair array holds
# _TILE**2 floats per float of width (32 KiB each), and the scan keeps a
# few bounds per tile, for about (n / _TILE)**2 / 2 tiles.  Past
# _TILE * _TILE_ROWS + 1 = 16,385 points the side grows (_tile_side):
# first so that there are _TILE_ROWS rows of tiles, and past 65,537 points
# as ceil(sqrt(n - 1)).  So a tile's per-pair arrays hold at most
# max(n - 1, _TILE**2) floats per float of width, and there are at most
# about max(n, _TILE_ROWS**2) / 2 tiles: past 65,537 points the scan's
# memory grows linearly with the grid.
_TILE = 64
_TILE_ROWS = 256

# Rounding margin of the tile bounds (see _inflate).
_BOUND_REL = 1e-9
_EPS = float(np.finfo(float).eps)


def _require_finite(**arrays) -> None:
    """Raise ValueError naming the first array with a NaN or inf entry."""
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a: what a path stores, so that its values
    and the segment tables built from them (_Segments) stay in step.
    The view does not copy, so the caller's array is not frozen."""
    v = a.view()
    v.flags.writeable = False
    return v


def _grid_times(times) -> np.ndarray:
    """Every grid container's times as a float array: 1-d with at least
    one point, finite and strictly increasing, else ValueError."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) < 1:
        raise ValueError("times must be a 1-d array")
    _require_finite(times=t)
    # compared in place: a diff would be a float temporary as long as t
    if np.any(t[1:] <= t[:-1]):
        raise ValueError("times must be strictly increasing")
    return t


@dataclass(frozen=True)
class RoughPath:
    """Sampled level-2 rough path: finite group values per grid time.

    The arrays are kept as read-only views of those passed in, not
    copies: the segment query built on first use (_segments) reads
    them, so the values must not change after construction.
    """

    times: np.ndarray            # (N+1,) strictly increasing; a solve
                                 # needs times[0] = 0
    level1: np.ndarray           # (N+1, m), level1[0] = 0
    level2: np.ndarray           # (N+1, m, m), level2[0] = 0

    def __post_init__(self):
        t = _grid_times(self.times)
        u = np.asarray(self.level1, dtype=float)
        b = np.asarray(self.level2, dtype=float)
        if u.ndim != 2:
            raise ValueError(f"level1 must have shape (N+1, m), got "
                             f"{u.shape}")
        _require_finite(level1=u, level2=b)
        n, m = u.shape
        if n != len(t) or b.shape != (n, m, m):
            raise ValueError("level1/level2 shapes do not match times")
        if np.any(u[0] != 0.0) or np.any(b[0] != 0.0):
            raise ValueError("value at the initial time must be the identity")
        object.__setattr__(self, "times", _read_only(t))
        object.__setattr__(self, "level1", _read_only(u))
        object.__setattr__(self, "level2", _read_only(b))

    @property
    def m(self) -> int:
        return self.level1.shape[1]

    @property
    def n_points(self) -> int:
        return len(self.times)

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def increment(self, i: int, j: int) -> GroupElement2:
        """Increment between grid indices i <= j in [0, n_points): one row
        of _grid_increments on the stored values."""
        n = self.n_points
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"grid indices must lie in [0, {n})")
        du, db = _grid_increments(self.level1, self.level2, [i], [j])
        return GroupElement2(du[0], db[0])

    @functools.cached_property
    def _segments(self) -> _Segments:
        """The segment query (_Segments), built on first use and kept."""
        return _Segments(self.times, self.level1, self.level2)

    def at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Absolute value at arbitrary times: the stored values at every
        grid time; between grid times, the value at the enclosing
        segment's start (x) the segment query's row from it.

        Accepts a scalar or an array of times inside [times[0],
        times[-1]] (a time at most 1e-12 outside is clamped to it);
        returns (level1, level2) with a leading axis matching t's shape.
        """
        q = self._segments
        u, b = q.values(*q.locate(t))
        if np.ndim(t) == 0:
            return u[0], b[0]
        return u, b

    def increment_between(self, s: float, t: float) -> GroupElement2:
        """Increment x_s^-1 (x) x_t for two times in the path's time
        range: for s <= t one row of the segment query (_Segments.row),
        the stored increment when s and t are grid times; for s > t the
        group inverse of the row over [t, s]."""
        s, t = float(s), float(t)
        r = self._segments.row(min(s, t), max(s, t))
        m = self.m
        g = GroupElement2(np.array(r[:m]), np.array(r[m:]).reshape(m, m))
        return inv(g) if s > t else g


@dataclass(frozen=True)
class AreaDrift:
    """Symmetric area-drift path beta(t), beta(0) = 0 (finite, per time);
    its arrays are read-only views, as RoughPath's."""

    times: np.ndarray            # (N+1,) strictly increasing
    beta: np.ndarray             # (N+1, m, m), each symmetric

    def __post_init__(self):
        t = _grid_times(self.times)
        b = np.asarray(self.beta, dtype=float)
        if b.ndim != 3 or b.shape[0] != len(t) or b.shape[1] != b.shape[2]:
            raise ValueError("beta must be (len(times), m, m)")
        _require_finite(beta=b)
        asym = np.max(np.abs(b - np.swapaxes(b, 1, 2)), initial=0.0)
        if asym > 1e-12:
            raise ValueError(f"beta matrices not symmetric (max asymmetry {asym:.2e})")
        object.__setattr__(self, "times", _read_only(t))
        object.__setattr__(self, "beta", _read_only(b))

    @property
    def m(self) -> int:
        return self.beta.shape[1]

    @functools.cached_property
    def _segments(self) -> _Segments:
        """beta as a level-1 path of width m*m (_Segments), built on first
        use and kept: its increments are differences."""
        return _Segments(self.times, self.beta.reshape(len(self.times), -1))

    def at(self, t) -> np.ndarray:
        """beta at times inside [times[0], times[-1]]: the stored values
        at grid times, linear in between."""
        q = self._segments
        v = q.values(*q.locate(t), level2=False)[0]
        v = v.reshape(len(v), self.m, self.m)
        return v[0] if np.ndim(t) == 0 else v


# ---------------------------------------------------------------------------
# construction


def lift_piecewise_linear(points, times) -> RoughPath:
    """Canonical level-2 lift of a polyline.

    Over a linear segment with increment delta the level-2 increment is
    0.5 * delta (x) delta; segments are chained by the group product.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(points) == 1:
        pts = pts.T
    t = _grid_times(times)
    if pts.shape[0] != len(t):
        raise ValueError("points and times must have equal length")
    # a level 2 that overflows is left to RoughPath's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        u = pts - pts[0]
        delta = np.diff(pts, axis=0)
        b = _chain(u, delta, _half_square(delta))
    return RoughPath(t, u, b)


def _chain(u: np.ndarray, delta: np.ndarray, b_inc: np.ndarray) -> np.ndarray:
    """Level-2 point values of a lift with level-1 point values u, level-1
    interval increments delta and level-2 interval increments b_inc:
    intervals chained by the group product, as the running sum of
    b_inc + u_k (x) delta_k from 0."""
    n, m = u.shape
    b = np.zeros((n, m, m))
    np.cumsum(b_inc + np.einsum("ki,kj->kij", u[:-1], delta), axis=0,
              out=b[1:])
    return b


def pure_area_path(T: float, m: int = 1, area: np.ndarray | None = None,
                   n_points: int = 2) -> RoughPath:
    """Path fixed at the origin whose level-2 part grows linearly in t.

    With the default area matrix [[1]] this is the non-geometric driver
    (1, 0, t) whose decomposition gives beta(t) = t.
    """
    _require_finite(T=T)     # before linspace, which warns on inf
    a = np.eye(m) if area is None else np.asarray(area, dtype=float)
    t = np.linspace(0.0, T, max(2, n_points))
    u = np.zeros((len(t), m))
    with np.errstate(over="ignore", invalid="ignore"):   # RoughPath checks
        b = t[:, None, None] * a[None, :, :]
    return RoughPath(t, u, b)


def brownian_lift(seed: int, steps: int, T: float, m: int,
                  convention: str = "stratonovich") -> RoughPath:
    """Level-2 lift of a sampled Brownian path.

    Per sampling interval the level-2 increment is 0 (left-point rule,
    ``"ito"``) or 0.5 * dW (x) dW (trapezoidal rule, ``"stratonovich"``).
    The trapezoidal lift is grid-geometric; the left-point lift carries
    an area drift converging to -0.5 * t * I.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if convention not in ("ito", "stratonovich"):
        raise ValueError(f"unknown convention {convention!r}")
    rng = np.random.default_rng(seed)
    h = T / steps
    dW = rng.normal(0.0, math.sqrt(h), size=(steps, m))
    t = np.linspace(0.0, T, steps + 1)
    # values that overflow are left to RoughPath's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.zeros((steps + 1, m))
        np.cumsum(dW, axis=0, out=u[1:])
        if convention == "stratonovich":
            b_inc = _half_square(dW)
        else:
            b_inc = np.zeros((steps, m, m))
        b = _chain(u, dW, b_inc)
    return RoughPath(t, u, b)


def dilate(rp: RoughPath, lam: float) -> RoughPath:
    """Dilation by lam: level1 scales by lam, level2 by lam^2.  ValueError
    if lam^2 or a dilated value is not finite, checked on the largest
    entries (rounding is monotone) before numpy could warn."""
    lam = float(lam)
    lam2 = lam * lam
    top1 = float(np.max(np.abs(rp.level1), initial=0.0)) * abs(lam)
    top2 = float(np.max(np.abs(rp.level2), initial=0.0)) * lam2
    if not (math.isfinite(lam2) and math.isfinite(top1)
            and math.isfinite(top2)):
        raise ValueError(f"dilation by lambda = {lam!r}: lambda^2 or the "
                         f"dilated values are not finite")
    return RoughPath(rp.times, lam * rp.level1, lam2 * rp.level2)


# ---------------------------------------------------------------------------
# measurement


def _grid_triples(n: int, exhaustive_limit: int,
                  samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid index triples i < j < k for the triple audits.

    Every triple, in lexicographic order, up to exhaustive_limit points;
    beyond it the strictly increasing rows of `samples` sorted draws from
    default_rng(0).
    """
    if n <= exhaustive_limit:
        r = np.arange(n)
        return np.nonzero((r[:, None, None] < r[None, :, None])
                          & (r[None, :, None] < r[None, None, :]))
    rng = np.random.default_rng(0)
    idx = np.sort(rng.integers(0, n, size=(samples, 3)), axis=1)
    idx = idx[(idx[:, 0] < idx[:, 1]) & (idx[:, 1] < idx[:, 2])]
    return idx[:, 0], idx[:, 1], idx[:, 2]


def chen_defect(rp: RoughPath) -> float:
    """Max multiplicativity defect of a rough path's increments.

    For grid triples s < u < t compares x_s^-1 (x) x_t against
    (x_s^-1 (x) x_u) (x) (x_u^-1 (x) x_t), entrywise across both levels:
    pure float roundoff, since the increments come from point values.
    Every triple is visited up to _CHEN_EXHAUSTIVE_LIMIT grid points;
    beyond it, the triples of _CHEN_SAMPLES seeded draws (default_rng(0),
    sorted, kept when strictly increasing).

    The increments are rows of _grid_increments on the stored values,
    the bits rp.increment and rp.increment_between give on grid times.
    The triples are evaluated _CHEN_CHUNK at a time; each triple gets the
    same floating-point operations whatever the chunk size, so the
    result does not depend on it.  NaN increments raise ValueError.
    """
    n = rp.n_points
    if n < 3:
        raise ValueError("need at least 3 grid points")
    u, b = rp.level1, rp.level2
    i, j, k = _grid_triples(n, _CHEN_EXHAUSTIVE_LIMIT, _CHEN_SAMPLES)
    worst = 0.0
    for c0 in range(0, len(i), _CHEN_CHUNK):
        p, q, r = (a[c0:c0 + _CHEN_CHUNK] for a in (i, j, k))
        w1, w2 = _grid_increments(u, b, p, r)
        c1, c2 = _mul(_grid_increments(u, b, p, q),
                      _grid_increments(u, b, q, r))
        d1 = np.max(np.abs(w1 - c1), initial=0.0)
        d2 = np.max(np.abs(w2 - c2), initial=0.0)
        if np.isnan(d1) or np.isnan(d2):
            raise ValueError("the increments are NaN")
        worst = max(worst, float(d1), float(d2))
    return worst


def _tile_side(n: int) -> int:
    """Side of the _pair_sup tiles of an n-point grid: _TILE, or where
    that gives over _TILE_ROWS rows of tiles the smaller of the side that
    gives _TILE_ROWS rows and ceil(sqrt(n - 1))."""
    k = max(n - 1, 1)
    return max(_TILE, min(-(-k // _TILE_ROWS), math.isqrt(k - 1) + 1))


def _tile_corners(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The _pair_sup tiles of an n-point grid, as grid indices.

    Row a of tiles holds the start points first[a]..s_star[a], column c
    the end points t_star[c]..t_star[c] + side - 1 (clipped to the grid),
    with t_star = first + 1 and side = _tile_side(n); s_star and t_star
    are the inner corners.
    """
    side = _tile_side(n)
    first = np.arange(0, n - 1, side)
    return first, np.minimum(first + side, n - 1) - 1, first + 1


def _tile_spreads(n: int, q) -> list[tuple[np.ndarray, np.ndarray,
                                             np.ndarray]]:
    """The anchor terms of the tile bounds for two-parameter quantities.

    q(i, j) returns a tuple of norms |X(t_i, t_j)| for broadcast arrays
    of grid indices.  pvar_norm and pvar_distance pass their pair_norms,
    the function their tiles run, so an anchor has the bits of that
    pair's norm in a tile.  Returns, per entry of the tuple, for rows I
    and columns J of tiles with inner corners s*, t*: (max over s in I
    of q(s, s*) (a column), q(s*, t*) (rows by columns), max over t in J
    of q(t*, t) (a row)).
    """
    first, s_star, t_star = _tile_corners(n)
    s = np.arange(n - 1)
    tile = s // _tile_side(n)
    return [(np.maximum.reduceat(rows, first)[:, None], corner,
             np.maximum.reduceat(cols, first)[None, :])
            for rows, corner, cols in zip(
                q(s, s_star[tile]), q(s_star[:, None], t_star[None, :]),
                q(t_star[tile], s + 1))]


def _increment_norms(*vs: np.ndarray):
    """q(i, j) = (|v_j - v_i| for v in vs), Euclidean over the last axis."""
    return lambda i, j: tuple(np.linalg.norm(v[j] - v[i], axis=-1)
                              for v in vs)


def _squares(planes) -> np.ndarray:
    """The squares of the equal-shape arrays drawn from the iterable
    planes, summed left to right: s = v0*v0; s += v1*v1; ..."""
    planes = iter(planes)
    v = next(planes)
    total = v * v
    for v in planes:
        total += v * v
    return total


def _plane_norm(planes) -> np.ndarray:
    """Euclidean norm across the equal-shape arrays drawn from planes,
    their squares summed left to right (_squares)."""
    return np.sqrt(_squares(planes))


def _inflate(bound: np.ndarray, absolute: float = 0.0) -> np.ndarray:
    """A tile bound made to dominate the norms as computed, not only the
    exact ones.

    Bound and norms are evaluated in floating point from the same data.
    A difference of two stored values is correctly rounded, and the
    square roots, products and quotients built on it each add a relative
    error of at most eps.  A sum of k squares, taken left to right, adds
    at most (k - 1) eps (Higham 1993): 2.3e-10 for k < 10^6.  With a few
    dozen other roundings and the powers of t - s (rounding is monotone,
    so a tile corner's t - s is at most every pair's as computed; a
    power adds an ulp or so) that stays below _BOUND_REL = 1e-9.
    Cancellation (a level-2 correction, the difference of two triples, a
    running sum) instead costs an absolute error of eps times the data's
    magnitude, which each measure passes as `absolute`; the smallest
    normal float covers underflow.
    """
    return bound * (1.0 + _BOUND_REL) + (absolute + np.finfo(float).tiny)


def _tile_tops(t, powers, norms, i0, i1, j0, j1, diagonal):
    """Largest norm / (t - s)^power on one evaluated tile, per norm.
    Raises ValueError on NaN."""
    w = t[None, j0:j1] - t[i0:i1, None]
    if diagonal:
        # end point j0 + col not after start point i0 + row (j0 = i0 + 1)
        r = np.arange(i1 - i0)
        dead = r[None, :] < r[:, None]
        for v in norms:
            v[dead] = 0.0
        w[dead] = 1.0
    tops = [float(np.max(v / w ** pw, initial=0.0))
            for v, pw in zip(norms, powers)]
    if any(map(math.isnan, tops)):
        raise ValueError("NaN in a grid-pair measure")
    return tops


def _pair_sup(times, powers, pair_norms, bounds) -> list[float]:
    """Largest norm / (t - s)^power over grid pairs s < t, per norm.

    The scan behind every sup-over-pairs measure.  The pairs are cut into
    tiles of side start points (a row of tiles) by side end points (a
    column), side = _tile_side(n); _tile_corners gives the layout.
    pair_norms(i, j) returns one fresh array per entry of powers, the
    norms from grid points i to grid points j for broadcast selectors;
    a tile calls it with i = (slice(i0, i1), None) and j = slice(j0, j1),
    the (i1 - i0, j1 - j0) pairs from start points i0..i1-1 to end
    points j0..j1-1.  It computes each pair the same way in any tile, so
    no visit order changes the result.
    bounds holds, per norm, a (rows, columns) array bounding every norm
    of each tile as computed (see _inflate).  The times must increase
    strictly, so t - s > 0 on every pair.

    Visit order and skip rule: a tile's bounds are divided by the power
    of t* - s*, from its inner corner (its last start point s*, first
    end point t*).  On a diagonal tile of more than one start point
    t* <= s*, which bounds no norm of positive power: those tiles are
    evaluated first, unless every power is 0.  The rest follow in
    decreasing order of their scaled bounds (each norm's normalised by
    its largest), and a tile is skipped when each of these is at most
    the running maximum of its norm, since t - s >= t* - s* on the tile.

    A NaN maximum on an evaluated tile raises ValueError; a NaN inside a
    skipped tile goes unseen.  No pair gives 0.0.
    """
    t = np.asarray(times, dtype=float)
    n = len(t)
    first, s_star, t_star = _tile_corners(n)
    side = _tile_side(n)
    # a column of tiles left of its row's diagonal holds no pair s < t
    r = np.arange(len(first))
    a, c = np.nonzero(r[:, None] <= r[None, :])
    corner = t[t_star[c]] - t[s_star[a]]
    fixed = (corner <= 0.0) & (max(powers) > 0.0)
    key = np.zeros(len(a))
    scaled = np.empty((len(a), len(powers)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for col, (bound, pw) in enumerate(zip(bounds, powers)):
            v = scaled[:, col] = bound[a, c] / corner ** pw
            finite = np.isfinite(v) & ~fixed
            top = np.max(v[finite], initial=0.0)
            key = np.maximum(key, np.where(finite, v / top if top > 0 else 0.0,
                                           np.inf))
    best = np.zeros(len(powers))

    def evaluate(k):
        row, col = int(a[k]), int(c[k])
        i0, i1 = int(first[row]), int(s_star[row]) + 1
        j0 = int(t_star[col])
        j1 = min(j0 + side, n)
        norms = pair_norms((slice(i0, i1), None), slice(j0, j1))
        np.maximum(best, _tile_tops(t, powers, norms, i0, i1, j0, j1,
                                    col == row), out=best)

    for k in np.flatnonzero(fixed):
        evaluate(k)
    queue = np.flatnonzero(~fixed)
    while True:
        # drop the tiles evaluated (key -1) or now bounded (a NaN bound
        # never is); the next is the first of the largest keys
        queue = queue[(key[queue] >= 0.0)
                      & ~np.all(scaled[queue] <= best, axis=1)]
        if not queue.size:
            return best.tolist()
        k = queue[np.argmax(key[queue])]
        key[k] = -1.0
        evaluate(k)


def pvar_norm(rp: RoughPath, p: float) -> float:
    """Grid p-variation norm.

    Smallest C with |u(s,t)| <= C (t - s)^(1/p) and
    ||b(s,t)||_F <= C^2 (t - s)^(2/p) over all grid pairs s < t.
    """
    if not (2.0 <= p < 3.0):
        raise ValueError("p must lie in [2, 3)")
    u, b = rp.level1, rp.level2
    n, m = rp.n_points, rp.m
    # the norms are computed on columns, one (n,) view per entry of u and
    # of b, so numpy's inner loops run along a row of a tile: entry
    # k = (a, c) of b(s,t) is a plane (b_k(t) - b_k(s)) - u_a(s) du_c,
    # and _plane_norm sums the squared planes left to right
    uc, bc = u.T, b.reshape(n, -1).T

    def pair_norms(i, j):
        du = [col[j] - col[i] for col in uc]
        db = ((col[j] - col[i]) - uc[k // m][i] * du[k % m]
              for k, col in enumerate(bc))
        return _plane_norm(du), _plane_norm(db)

    (r1, a1, c1), (r2, a2, c2) = _tile_spreads(n, pair_norms)
    # Chen: X(s,t) = X(s,s*) (x) X(s*,t*) (x) X(t*,t), exact for the
    # stored increments; its level 2 adds the three b terms and the
    # three cross products of the level-1 terms.  Each computed b entry
    # carries an absolute error of at most 8 eps (max|b| + max|u|^2):
    # 32 m eps (...) in Frobenius norm over the pair's b and the three
    # anchors, doubled.
    level2_error = 64 * rp.m * _EPS * (np.max(np.abs(b), initial=0.0)
                                       + np.max(np.abs(u), initial=0.0) ** 2)
    bounds = (_inflate(r1 + a1 + c1),
              _inflate(r2 + a2 + c2 + r1 * a1 + r1 * c1 + a1 * c1,
                       level2_error))
    c1, c2sq = _pair_sup(rp.times, (1.0 / p, 2.0 / p), pair_norms, bounds)
    return max(c1, math.sqrt(c2sq))


def beta_path(rp: RoughPath) -> np.ndarray:
    """Area-drift values beta(t) = sym(b_t) - 0.5 u_t (x) u_t per grid time.

    The two-parameter geometricity excess sym(b(s,t)) - 0.5 u(s,t)(x)u(s,t)
    telescopes exactly to beta(t) - beta(s).  Values that overflow come
    out as inf or NaN, without a warning, for the caller to reject.
    """
    u, b = rp.level1, rp.level2
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (b + np.swapaxes(b, 1, 2)) - _half_square(u)


def geometricity_defect(rp: RoughPath) -> float:
    """Sup over grid pairs of ||sym(b(s,t)) - 0.5 u(s,t) (x) u(s,t)||_F.

    Zero iff the path is grid-geometric.  Exact at every grid size: the
    Frobenius diameter of the beta path, from the scan (_pair_sup at
    power 0, so unscaled) that sums squared differences one matrix entry
    at a time, left to right as every per-pair norm does (_squares), and
    takes one sqrt of the largest sum.

    The scan visits only the points that can end a longest pair
    (Malandain & Boissonnat's diameter pruning).  With r_i the distance
    of beta_i from its bounding box's centre, |beta_i - beta_j| <=
    r_i + max r.  Three farthest-point passes find a pair whose squared
    sum, computed as the scan computes it, is L^2, so a pair at least as
    long joins points with r_i + max r >= L.  That test, inflated as
    _inflate inflates a tile bound (plus the square root of the smallest
    normal float, for squares that underflow), keeps both points of
    every such pair as computed, so the result is the full scan's, bit
    for bit.  Exact duplicates are dropped too (their pairs repeat the
    first copy's squares): a constant stretch costs one point.  A
    non-finite beta, or a largest squared sum that overflows, raises
    ValueError.
    """
    flat = beta_path(rp).reshape(rp.n_points, -1)
    _require_finite(beta=flat)
    cols = np.ascontiguousarray(flat.T)

    def squares(i, j):
        return (_squares(col[j] - col[i] for col in cols),)

    # an overflow gives inf (no NaN: beta is finite), which only widens
    # the pruning test and the tile bounds, or is the largest sum
    with np.errstate(over="ignore"):
        r = np.linalg.norm(
            flat - 0.5 * (flat.max(axis=0) + flat.min(axis=0)), axis=1)
        far, longest = int(np.argmax(r)), 0.0
        for _ in range(3):
            sq = squares(far, slice(None))[0]
            far = int(np.argmax(sq))
            longest = max(longest, float(sq[far]))
        if math.isfinite(longest):
            reach = _inflate(r + r.max(), math.sqrt(np.finfo(float).tiny))
            keep = np.flatnonzero(reach >= math.sqrt(longest))
            keep = np.sort(
                keep[np.unique(flat[keep], axis=0, return_index=True)[1]])
            cols = np.ascontiguousarray(cols[:, keep])   # squares scans these
            # the triangle inequality through each tile's inner corners
            (rows, corner, ends), = _tile_spreads(
                len(keep), _increment_norms(flat[keep]))
            bound = _inflate((rows + corner + ends) ** 2)
            longest = _pair_sup(rp.times[keep], (0.0,), squares, (bound,))[0]
    if not math.isfinite(longest):
        raise ValueError("the geometricity defect overflowed: a squared "
                         "beta difference is not a finite float")
    return math.sqrt(longest)


def decompose(rp: RoughPath) -> tuple[RoughPath, AreaDrift]:
    """Split into a geometric rough path and a symmetric area drift.

    beta(t) - beta(s) equals the geometricity excess of (s, t); the
    geometric part keeps level1 and subtracts beta from level2, so
    recompose(decompose(rp)) reproduces rp up to float roundoff.
    """
    beta = beta_path(rp)
    geo = RoughPath(rp.times, rp.level1, rp.level2 - beta)
    return geo, AreaDrift(rp.times, beta)


def recompose(geometric: RoughPath, drift: AreaDrift) -> RoughPath:
    """Inverse of decompose: add the drift back onto level2."""
    if not np.array_equal(geometric.times, drift.times):
        raise ValueError("geometric part and drift: time arrays differ")
    return RoughPath(geometric.times, geometric.level1,
                     geometric.level2 + drift.beta)


# ---------------------------------------------------------------------------
# CSV interchange

_FMT = "%.17g"


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """The one CSV reader: a header starting with `t`, then >= 1 row of
    floats (LF, CRLF or CR line ends; blank lines skipped).

    The rows go to numpy's loadtxt, which parses numbers as Python's
    float() does, minus underscores: cells may be quoted and padded with
    spaces or tabs; an empty cell, a ragged row, a whitespace-only line,
    a `#` or `_` in a cell raise ValueError.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if not header or header[0].strip() != "t":
            raise ValueError(f"{path}: expected header starting with 't'")
        # loadtxt warns when there are no rows: look for one first
        start = fh.tell()
        if not any(line.rstrip("\r\n") for line in iter(fh.readline, "")):
            raise ValueError(f"{path}: no data rows")
        fh.seek(start)
        return header, np.loadtxt(fh, delimiter=",", comments=None,
                                  quotechar='"', ndmin=2)


def read_polyline_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read `t,x1,...,xm` rows (sorted by t); returns (times, points)."""
    header, data = _read_csv(path)
    order = np.argsort(data[:, 0], kind="stable")
    data = data[order]
    return data[:, 0], data[:, 1:]


@contextlib.contextmanager
def _rewrite(path, newline=None):
    """The one writer of files: open(path, "w") but without truncating
    an existing file to zero first.

    The text goes over the old bytes in place, and on the way out (an
    error included) a regular file is truncated at the final position,
    so it ends with exactly the bytes written.  Like open(path, "w"), it
    follows symlinks, keeps an existing file's mode and hard links,
    creates a new one with mode 0o666 minus the umask, and accepts
    /dev/null and FIFOs.  On ext4 a truncation to zero makes close()
    flush the new data to disk (auto_da_alloc), which made every
    overwrite cost tens of ms.  A crash part-way through can leave the
    old tail where it used to leave a short file.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline=newline) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _write_csv(path, header, rows) -> None:
    """The one CSV writer: LF rows, floats (and their subclasses) as
    %.17g, anything else str(); through _rewrite, so the file ends with
    the bytes of a fresh write.

    Each row is written with one `%`, by a row format built once per
    tuple of value types, and streamed: a float64 array's rows go
    through tolist() one at a time.  On a 4097 x 7 write, the whole
    array as lists of floats would add about 1.5 MB of peak memory, and
    the whole file as one string about 0.7 MB.
    """
    floats = isinstance(rows, np.ndarray) and rows.dtype == np.float64
    formats = {}
    with _rewrite(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row.tolist() if floats else row)
            types = tuple(map(type, row))
            line = formats.get(types)
            if line is None:
                line = formats[types] = ",".join(
                    _FMT if issubclass(c, float) else "%s"
                    for c in types) + "\n"
            fh.write(line % row)


def write_roughpath_csv(rp: RoughPath, path) -> None:
    """Write the stored point values, one row per grid time (the first
    is the identity): `t,x1..xm,x2_11..x2_mm`, level 2 row-major."""
    m = rp.m
    header = (["t"] + [f"x{i+1}" for i in range(m)]
              + [f"x2_{i+1}{j+1}" for i in range(m) for j in range(m)])
    _write_csv(path, header, np.column_stack(
        [rp.times, rp.level1, rp.level2.reshape(rp.n_points, m * m)]))


def read_roughpath_csv(path) -> RoughPath:
    """Read the point values write_roughpath_csv wrote (exactly)."""
    header, data = _read_csv(path)
    m = sum(1 for h in header if h.startswith("x") and "_" not in h)
    if data.shape[1] != 1 + m + m * m:
        raise ValueError(f"{path}: expected columns t, {m} of level 1 and "
                         f"{m * m} of level 2")
    return RoughPath(data[:, 0], data[:, 1:1 + m],
                     data[:, 1 + m:].reshape(-1, m, m))
