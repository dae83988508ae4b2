"""Partial rough paths: driver, output, and their cross-iterated integral.

The triple (x, y, int dy (x) dx) carries exactly the data needed to
integrate functions of y against the rough driver x.  The cross
integral satisfies the additivity identity

    cross(s,t) = cross(s,r) + cross(r,t) + (y_r - y_s) (x) (x_t - x_r)

so, like the driver's level 2, it is stored for consecutive grid
intervals only, which keeps storage linear, and extended to every pair
of grid points by one formula from prefix sums (see
PartialRoughPath._cross_pairs, which also bounds its roundoff).

Operations: the p-variation distance between triples (the shared pair
scan, every tile's cross norms a pure function of the tile, computed a
matrix entry at a time on column arrays and summed in the order of
np.linalg.norm, so bit for bit the per-pair norms) and the
pushforward of the output through a smooth map (which sews the
almost-multiplicative cross increments grad phi(y_s) cross(s,t)), one
call of the map and one of its gradient over the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rough_paths import (_EPS, _grid_triples, _increment_norm, _inflate,
                          _pair_sup, _plane_norm, _require_finite,
                          _tile_spreads)

__all__ = [
    "SmoothMap",
    "PartialRoughPath",
    "pvar_distance",
    "pushforward",
]

# PartialRoughPath.additivity_defect visits every grid triple up to 25
# points and this many seeded draws (default_rng(0)) beyond.
_ADDITIVITY_SAMPLES = 400


@dataclass
class SmoothMap:
    """Map phi : R^d -> R^w with its gradient, both over stacks of
    points: eval takes an (n, d) array to (n, w), grad takes it to
    (n, w, d)."""

    dim_in: int
    dim_out: int
    eval: object
    grad: object


@dataclass(frozen=True)
class PartialRoughPath:
    """Grid triple (x, y, cross) with per-interval data; all values finite."""

    times: np.ndarray        # (N+1,) strictly increasing
    x: np.ndarray            # (N+1, m) driver level 1, absolute
    x2_inc: np.ndarray       # (N, m, m) driver level 2 per interval
    y: np.ndarray            # (N+1, d)
    cross_inc: np.ndarray    # (N, d, m) cross integral per interval
    p: float = 2.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        x2 = np.asarray(self.x2_inc, dtype=float)
        cr = np.asarray(self.cross_inc, dtype=float)
        n = len(t) - 1
        m, d = x.shape[1], y.shape[1]
        if x.shape[0] != n + 1 or y.shape[0] != n + 1:
            raise ValueError("x and y must have one row per grid time")
        if x2.shape != (n, m, m) or cr.shape != (n, d, m):
            raise ValueError("x2_inc/cross_inc must have one row per interval")
        if not (2.0 <= self.p < 3.0):
            raise ValueError("p must lie in [2, 3)")
        _require_finite(times=t, x=x, y=y, x2_inc=x2, cross_inc=cr)
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        for name, arr in (("times", t), ("x", x), ("y", y),
                          ("x2_inc", x2), ("cross_inc", cr)):
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.x.shape[1]

    @property
    def d(self) -> int:
        return self.y.shape[1]

    @property
    def n_points(self) -> int:
        return len(self.times)

    def _cross_pairs(self):
        """cross(t_i, t_j) for broadcast arrays of grid indices, shape
        broadcast(i, j) + (d, m); the error bound E of every computed
        value: |computed - exact| <= E in Frobenius norm; and the same
        values on a tile of the pair scan, as planes.

        The one extension of cross_inc to pairs.  With P_j the sum of
        cross_inc[k] + y_k (x) dx_k over k < j,
        cross(t_i, t_j) = P_j - P_i - y_i (x) (x_j - x_i): 0 at j = i,
        and for j < i the value that keeps the additivity identity.  A
        running sum of at most n terms is off by gamma_(n+4) times the
        sum of their norms (the standard bound), which `total` below
        dominates; a few more roundings of the same size are covered by
        using n + 8.

        The prefix sums are stored a column per matrix entry.
        planes(i0, i1, j0, j1) yields, for start points i0..i1-1 and end
        points j0..j1-1, one (rows, cols) plane per entry (a, c) in
        row-major order, (P_ac(t) - P_ac(s)) - y_a(s) (x_c(t) - x_c(s)):
        the operations of cross, so each value has cross's bits.
        """
        n, d, m = self.n_points, self.d, self.m
        dx = np.diff(self.x, axis=0)
        columns = np.zeros((d * m, n))
        prefix = columns.T.reshape(n, d, m)     # a view of the columns
        np.cumsum(self.cross_inc + self.y[:-1, :, None] * dx[:, None, :],
                  axis=0, out=prefix[1:])
        y, x = self.y, self.x

        def cross(i, j):
            return (prefix[j] - prefix[i]
                    - y[i][..., :, None] * (x[j] - x[i])[..., None, :])

        def planes(i0, i1, j0, j1):
            def inc(col):
                return col[j0:j1] - col[i0:i1, None]

            dxc = [inc(col) for col in x.T]
            for k, col in enumerate(columns):
                yield inc(col) - y[i0:i1, k // m, None] * dxc[k % m]

        total = (np.sum(np.linalg.norm(
            self.cross_inc.reshape(n - 1, d * m), axis=1))
                 + 2.0 * np.max(np.linalg.norm(y, axis=1))
                 * np.sum(np.linalg.norm(dx, axis=1)))
        return cross, (n + 8) * _EPS * total, planes

    def cross_between(self, i, j) -> np.ndarray:
        """cross(t_i, t_j), shape broadcast(i, j) + (d, m), for grid
        indices i and j in [0, n_points): ints, or integer arrays that
        broadcast.  See _cross_pairs for the formula and its error."""
        n = self.n_points
        for v in (i, j):
            if np.min(v, initial=0) < 0 or np.max(v, initial=0) >= n:
                raise IndexError(f"grid indices must lie in [0, {n})")
        return self._cross_pairs()[0](i, j)

    def additivity_defect(self) -> float:
        """Max additivity violation of cross over sampled grid triples."""
        i, j, k = _grid_triples(self.n_points, 25, _ADDITIVITY_SAMPLES)
        ij, jk, ik = self.cross_between(np.stack([i, j, i]),
                                        np.stack([j, k, k]))
        rhs = (ij + jk + (self.y[j] - self.y[i])[:, :, None]
               * (self.x[k] - self.x[j])[:, None, :])
        return float(np.max(np.abs(ik - rhs), initial=0.0))


def pvar_distance(a: PartialRoughPath, b: PartialRoughPath) -> float:
    """Scaled sup distance between two triples on one grid (equal time
    arrays, else ValueError; equal (d, m), else ValueError naming both).

    Max over grid pairs s < t of the x- and y-increment differences
    divided by (t - s)^(1/p) and the cross difference divided by
    (t - s)^(2/p), with a's p.  When a and b share their driver (equal x
    arrays), its difference is 0 on every pair and is not scanned.

    Each tile of the pair scan computes on columns, one (n,) array per
    vector or matrix entry: the columns of x and y (views) and of the
    cross prefix sums (stored a contiguous column per entry, see
    _cross_pairs).  An entry of a tile is then a (rows, cols) plane of
    the differences at every pair, built by the per-pair operations of
    cross_between and the increments, and each pair's norm sums the
    squared planes in the order np.linalg.norm sums a vector's entries
    (rough_paths._plane_norm): every per-pair value has the bits of
    np.linalg.norm on that pair's vector, and numpy's inner loops run
    along a row of the tile, not along the d m entries of one pair.
    """
    if not np.array_equal(a.times, b.times):
        raise ValueError("grids do not match: the time arrays differ")
    if a.m != b.m or a.d != b.d:
        raise ValueError(f"dimensions do not match: (d, m) = ({a.d}, {a.m})"
                         f" and ({b.d}, {b.m})")
    n = a.n_points
    shared = np.array_equal(a.x, b.x)
    cross_a, error_a, planes_a = a._cross_pairs()
    cross_b, error_b, planes_b = b._cross_pairs()

    def cross_norm(i, j):
        dc = cross_a(i, j) - cross_b(i, j)
        return np.linalg.norm(dc.reshape(dc.shape[:-2] + (-1,)), axis=-1)

    def norms(i0, i1, j0, j1):
        def inc(col):
            return col[j0:j1] - col[i0:i1, None]

        def increments(ca, cb):
            return _plane_norm((inc(u) - inc(v) for u, v in zip(ca, cb)),
                               len(ca))

        ey = increments(a.y.T, b.y.T)
        dc = _plane_norm((u - v for u, v in zip(planes_a(i0, i1, j0, j1),
                                                planes_b(i0, i1, j0, j1))),
                         a.d * a.m)
        if shared:
            return ey, dc
        return increments(a.x.T, b.x.T), ey, dc

    def difference(va, vb):
        return lambda i, j: np.linalg.norm((va[j] - va[i]) - (vb[j] - vb[i]),
                                           axis=-1)

    def magnitude(va, vb):
        # each computed difference of increments, and each of the three
        # anchor terms of its triangle bound, is within 4 eps
        # (max|va| + max|vb|) per entry
        return 16 * va.shape[1] * _EPS * (np.max(np.abs(va))
                                          + np.max(np.abs(vb)))

    rd, ad, cd = _tile_spreads(n, cross_norm)
    ry, ay, cy = _tile_spreads(n, difference(a.y, b.y))
    _, ax, cx = _tile_spreads(n, _increment_norm(a.x))
    # the additivity identity of each triple at s* and t*, subtracted:
    # with e = a - b on increments,
    # dc(s,t) = dc(s,s*) + dc(s*,t*) + dc(t*,t)
    #   + e_y(s,s*) (x) x_a(s*,t) + y_b(s,s*) (x) e_x(s*,t)
    #   + e_y(s*,t*) (x) x_a(t*,t) + y_b(s*,t*) (x) e_x(t*,t),
    # where the e_x terms vanish for a shared driver
    cross = rd + ad + cd + ry * (ax + cx) + ay * cx
    powers, bounds = [], []
    if not shared:
        rx, axx, cxx = _tile_spreads(n, difference(a.x, b.x))
        rb, ab, _ = _tile_spreads(n, _increment_norm(b.y))
        cross = cross + rb * (axx + cxx) + ab * cxx
        powers.append(1.0 / a.p)
        bounds.append(_inflate(rx + axx + cxx, magnitude(a.x, b.x)))
    powers += [1.0 / a.p, 2.0 / a.p]
    bounds += [_inflate(ry + ay + cy, magnitude(a.y, b.y)),
               _inflate(cross, 4 * (error_a + error_b))]
    return max(_pair_sup(a.times, powers, norms, bounds))


def pushforward(prp: PartialRoughPath, phi: SmoothMap) -> PartialRoughPath:
    """Cross-iterated integral of phi(y) against x.

    Per interval the new cross increment is grad phi(y_i) cross_inc[i];
    chaining these with the additivity identity for (phi(y), x) is the
    grid-level sewing of the almost-multiplicative map from the
    construction, and reduces to the genuine iterated integral when the
    data is smooth.  One eval call maps the whole output and one grad
    call takes every interval's left point.
    """
    if phi.dim_in != prp.d:
        raise ValueError(f"phi expects R^{phi.dim_in}, triple has d={prp.d}")
    n = prp.n_points - 1
    new_y = np.asarray(phi.eval(prp.y), dtype=float)
    grads = np.asarray(phi.grad(prp.y[:-1]), dtype=float)
    for what, got, want in (("eval", new_y, (n + 1, phi.dim_out)),
                            ("grad", grads, (n, phi.dim_out, prp.d))):
        if got.shape != want:
            raise ValueError(f"phi.{what} shape {got.shape}, expected {want}")
    new_cross = np.einsum("kwd,kda->kwa", grads, prp.cross_inc)
    return PartialRoughPath(prp.times, prp.x, prp.x2_inc, new_y, new_cross,
                            prp.p)
