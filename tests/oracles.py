"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own integration /
stepping code paths: a classical RK4 integrator on the absolutely
continuous parametrization of a polyline, shoelace polygon areas,
left-point Riemann sums for cross and Young integrals, the CSV reader
and writer that parsed and formatted one value per Python call, and the
chart jets and sphere projection as loops on Python floats.
"""

import bisect
import csv
import math
import sys

import numpy as np

from roughpaths.log_sphere_map import _RHO_OVERFLOW
from roughpaths.partial_rough_paths import PartialRoughPath
from roughpaths.vector_fields import VectorField


def rk4_polyline(field, a, knot_times, knot_points, out_times, h_target=1e-4):
    """Integrate dy = f(y) x'(t) dt for piecewise-linear x with RK4.

    Steps never cross polyline knots (where x' jumps); within a segment
    the slope is constant so the ODE is smooth and RK4 is 4th order.
    Returns the solution at out_times.
    """
    knot_times = np.asarray(knot_times, dtype=float)
    knot_points = np.atleast_2d(np.asarray(knot_points, dtype=float))
    if knot_points.shape[0] != len(knot_times):
        knot_points = knot_points.T
    slopes = np.diff(knot_points, axis=0) / np.diff(knot_times)[:, None]
    out_times = np.asarray(out_times, dtype=float)
    y = np.asarray(a, dtype=float).copy()
    outputs = np.empty((len(out_times), len(y)))
    t = out_times[0]
    outputs[0] = y
    for k in range(1, len(out_times)):
        t_next = out_times[k]
        while t < t_next - 1e-15:
            seg = min(np.searchsorted(knot_times, t, side="right") - 1,
                      len(slopes) - 1)
            seg_end = min(knot_times[seg + 1], t_next)
            n_sub = max(1, int(np.ceil((seg_end - t) / h_target)))
            h = (seg_end - t) / n_sub
            s = slopes[seg]

            def rhs(yv):
                return field.eval(yv) @ s

            for _ in range(n_sub):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t = seg_end
        outputs[k] = y
    return outputs


def shoelace_area(points) -> float:
    """Signed area of the polygon (points relative to start, chord-closed)."""
    pts = np.asarray(points, dtype=float)
    rel = pts - pts[0]
    acc = 0.0
    for i in range(len(rel) - 1):
        acc += rel[i, 0] * rel[i + 1, 1] - rel[i + 1, 0] * rel[i, 1]
    return 0.5 * acc


def riemann_cross(y_of_t, x_of_t, s, t, n=200_000):
    """Left-point sum for int_s^t (y_r - y_s) (x) dx_r (vectorized grids)."""
    taus = np.linspace(s, t, n + 1)
    ys = np.atleast_2d(np.asarray([y_of_t(v) for v in taus], dtype=float))
    xs = np.atleast_2d(np.asarray([x_of_t(v) for v in taus], dtype=float))
    if ys.shape[0] == 1:
        ys = ys.T
    if xs.shape[0] == 1:
        xs = xs.T
    dx = np.diff(xs, axis=0)
    return np.einsum("ka,kb->ab", ys[:-1] - ys[0], dx)


def riemann_stieltjes(g_vals, d_vals):
    """Left-point sum of a grid integrand against a grid driver."""
    g = np.asarray(g_vals, dtype=float)
    d = np.asarray(d_vals, dtype=float)
    return float(np.sum(g[:-1] * np.diff(d)))


def norm_left_to_right(v):
    """Euclidean norm over the last axis, its squares summed left to
    right in one running sum (np.add.accumulate is sequential, where
    np.linalg.norm sums 8 or more entries pairwise)."""
    v = np.asarray(v)
    return np.sqrt(np.add.accumulate(v * v, axis=-1)[..., -1])


def pvar_norm_pairs(times, level1, level2, p):
    """Grid p-variation norm by visiting every pair s < t on its own.

    Each pair gets the same per-element operations as the library's scan
    (difference, outer-product correction, Euclidean norms summed left
    to right, t - s to the power 1/p and 2/p), so the two agree exactly,
    not just closely.
    """
    n = len(times)
    c1 = 0.0
    c2sq = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            du = level1[j] - level1[i]
            db = level2[j] - level2[i] - np.outer(level1[i], du)
            n1 = norm_left_to_right(du)
            n2 = norm_left_to_right(db.ravel())
            # a 0-d array: numpy's scalar power may round differently
            w = np.asarray(times[j] - times[i])
            c1 = max(c1, float(n1 / w ** (1.0 / p)))
            c2sq = max(c2sq, float(n2 / w ** (2.0 / p)))
    return max(c1, float(np.sqrt(c2sq)))


def chen_defect_triples(inc_fn, times, exhaustive_limit=120, samples=20000):
    """Chen defect by visiting grid triples s < u < t one at a time.

    inc_fn takes two scalar times and returns a GroupElement2.  The
    triples are every one up to exhaustive_limit points, otherwise the
    strictly increasing rows of `samples` sorted draws from
    default_rng(0), as in the library; each triple gets the same
    per-element operations, so the two agree exactly.
    """
    t = np.asarray(times, dtype=float)
    n = len(t)
    if n <= exhaustive_limit:
        triples = [(i, j, k) for i in range(n) for j in range(i + 1, n)
                   for k in range(j + 1, n)]
    else:
        rng = np.random.default_rng(0)
        idx = np.sort(rng.integers(0, n, size=(samples, 3)), axis=1)
        triples = [tuple(row) for row in idx if row[0] < row[1] < row[2]]
    worst = 0.0
    for i, j, k in triples:
        whole = inc_fn(t[i], t[k])
        left = inc_fn(t[i], t[j])
        right = inc_fn(t[j], t[k])
        prod1 = left.level1 + right.level1
        prod2 = left.level2 + right.level2 + np.outer(left.level1, right.level1)
        d1 = np.max(np.abs(whole.level1 - prod1), initial=0.0)
        d2 = np.max(np.abs(whole.level2 - prod2), initial=0.0)
        worst = max(worst, d1, d2)
    return float(worst)


def geometricity_defect_rows(level1, level2):
    """Geometricity defect as the Frobenius diameter of the beta path,
    one start point at a time with a Euclidean norm per pair, its
    squares summed left to right."""
    u = np.asarray(level1, dtype=float)
    b = np.asarray(level2, dtype=float)
    beta = 0.5 * (b + np.swapaxes(b, 1, 2)) - 0.5 * np.einsum("ki,kj->kij", u, u)
    flat = beta.reshape(len(beta), -1)
    worst = 0.0
    for i in range(len(flat) - 1):
        d = norm_left_to_right(flat[i + 1:] - flat[i])
        worst = max(worst, float(np.max(d)))
    return worst


def _cross_prefix(prp):
    """P_j, the sum of cross_inc[k] + y_k (x) dx_k over k < j, per grid
    point: cross(t_i, t_j) = P_j - P_i - y_i (x) (x_j - x_i)."""
    terms = prp.cross_inc + np.einsum("ka,kb->kab", prp.y[:-1],
                                      np.diff(prp.x, axis=0))
    return np.concatenate([np.zeros((1, prp.d, prp.m)),
                           np.cumsum(terms, axis=0)])


def _cross_row(prp, i):
    """cross(t_i, t_j) for every j > i, from the prefix sums."""
    P = _cross_prefix(prp)
    return P[i + 1:] - P[i] - np.einsum("a,kb->kab", prp.y[i],
                                        prp.x[i + 1:] - prp.x[i])


def pvar_distance_rows(a, b):
    """pvar_distance one start point at a time, at the triples' p."""
    t = a.times
    p = a.p
    worst = 0.0
    for i in range(a.n_points - 1):
        w = t[i + 1:] - t[i]
        dx = norm_left_to_right((a.x[i + 1:] - a.x[i])
                                - (b.x[i + 1:] - b.x[i]))
        dy = norm_left_to_right((a.y[i + 1:] - a.y[i])
                                - (b.y[i + 1:] - b.y[i]))
        ca = _cross_row(a, i)
        cb = _cross_row(b, i)
        dc = norm_left_to_right((ca - cb).reshape(len(ca), -1))
        worst = max(worst,
                    float(np.max(dx / w ** (1.0 / p), initial=0.0)),
                    float(np.max(dy / w ** (1.0 / p), initial=0.0)),
                    float(np.max(dc / w ** (2.0 / p), initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# the array forms of the per-pair formulas, which the tile bounds once
# evaluated beside the tiles' column forms: q(i, j) for broadcast arrays
# of grid indices, each pair's vector or matrix built whole, then its
# norm over its entries, the squares summed left to right


def increment_norm(v):
    """q(i, j) = |v_j - v_i|."""
    return lambda i, j: norm_left_to_right(v[j] - v[i])


def level2_norm(rp):
    """q(i, j) = ||b(t_i, t_j)||_F of a rough path's level 2."""
    u, b = rp.level1, rp.level2

    def level2(i, j):
        du = u[j] - u[i]
        db = b[j] - b[i] - u[i][..., :, None] * du[..., None, :]
        return norm_left_to_right(db.reshape(db.shape[:-2] + (-1,)))

    return level2


def difference(va, vb):
    """q(i, j) = |(va_j - va_i) - (vb_j - vb_i)|."""
    return lambda i, j: norm_left_to_right((va[j] - va[i])
                                           - (vb[j] - vb[i]))


def cross_pairs(prp):
    """cross(t_i, t_j), shape broadcast(i, j) + (d, m), from the prefix
    sums: P_j - P_i - y_i (x) (x_j - x_i)."""
    P, y, x = _cross_prefix(prp), prp.y, prp.x
    return lambda i, j: (P[j] - P[i]
                         - y[i][..., :, None] * (x[j] - x[i])[..., None, :])


def cross_norm(a, b):
    """q(i, j) = ||cross_a(t_i, t_j) - cross_b(t_i, t_j)||_F."""
    ca, cb = cross_pairs(a), cross_pairs(b)

    def norm(i, j):
        dc = ca(i, j) - cb(i, j)
        return norm_left_to_right(dc.reshape(dc.shape[:-2] + (-1,)))

    return norm


# ---------------------------------------------------------------------------
# the blocked row scan that the tiled pair scan replaced, kept as the fast
# reference for the three sup-over-pairs measures on large grids (the
# pair-by-pair pvar_norm_pairs is too slow there): every pair of every
# start point, in blocks of rows, with the same per-pair arithmetic


_ROW_BLOCK = 16384


def pair_sup_blocked(times, powers, block_norms, width=1):
    """Largest norm / (t - s)^power over grid pairs s < t, per norm.

    block_norms(i0, i1) returns one (rows, cols) array per power: start
    points i0..i1-1 against end points i0+1..n-1.  A NaN maximum raises
    ValueError.
    """
    t = np.asarray(times, dtype=float)
    n = len(t)
    best = [0.0] * len(powers)
    i0 = 0
    while i0 < n - 1:
        i1 = min(n - 1, i0 + max(1, _ROW_BLOCK // (width * (n - 1 - i0))))
        rows = i1 - i0
        dead = np.arange(rows)[None, :] < np.arange(rows)[:, None]
        norms = block_norms(i0, i1)
        w = t[None, i0 + 1:] - t[i0:i1, None]
        for v in norms:
            v[:, :rows][dead] = 0.0
        w[:, :rows][dead] = 1.0
        tops = [float(np.max(v / w ** pw, initial=0.0))
                for v, pw in zip(norms, powers)]
        if any(map(math.isnan, tops)):
            raise ValueError("NaN in a grid-pair measure")
        best = [max(a, b) for a, b in zip(best, tops)]
        i0 = i1
    return best


def pvar_norm_blocked(rp, p):
    u, b = rp.level1, rp.level2

    def norms(i0, i1):
        du = u[None, i0 + 1:] - u[i0:i1, None]
        db = (b[None, i0 + 1:] - b[i0:i1, None]
              - u[i0:i1, None, :, None] * du[:, :, None, :])
        return (norm_left_to_right(du),
                norm_left_to_right(db.reshape(db.shape[:2] + (-1,))))

    c1, c2sq = pair_sup_blocked(rp.times, (1.0 / p, 2.0 / p), norms,
                                rp.m * rp.m)
    return max(c1, math.sqrt(c2sq))


def geometricity_defect_blocked(rp):
    """The exact geometricity scan: squared differences summed one matrix
    entry at a time, one sqrt of the largest sum."""
    u, b = rp.level1, rp.level2
    beta = 0.5 * (b + np.swapaxes(b, 1, 2)) - 0.5 * np.einsum("ki,kj->kij", u, u)
    n = len(beta)
    cols = np.ascontiguousarray(beta.reshape(n, -1).T)

    def squares(i0, i1):
        sq = np.zeros((i1 - i0, n - 1 - i0))
        for col in cols:
            d = col[None, i0 + 1:] - col[i0:i1, None]
            sq += d * d
        return (sq,)

    return math.sqrt(pair_sup_blocked(rp.times, (0.0,), squares)[0])


def _cross_block(prp, i0, i1):
    """cross(t_i, t_j) for i = i0..i1-1, j = i0+1..n-1, from the prefix
    sums (pairs with j <= i are not read)."""
    P = _cross_prefix(prp)
    dx = prp.x[None, i0 + 1:] - prp.x[i0:i1, None]
    c = (P[None, i0 + 1:] - P[i0:i1, None]
         - np.einsum("ia,ijb->ijab", prp.y[i0:i1], dx))
    return c.reshape(c.shape[:2] + (-1,))


def pvar_distance_blocked(a, b):
    def norms(i0, i1):
        def inc(v):
            return v[None, i0 + 1:] - v[i0:i1, None]

        ex = norm_left_to_right(inc(a.x) - inc(b.x))
        ey = norm_left_to_right(inc(a.y) - inc(b.y))
        dc = _cross_block(a, i0, i1)
        dc -= _cross_block(b, i0, i1)
        return ex, ey, norm_left_to_right(dc)

    p = a.p
    return max(pair_sup_blocked(a.times, (1.0 / p, 1.0 / p, 2.0 / p), norms,
                                a.d * a.m))


# ---------------------------------------------------------------------------
# fields given as eval and grad on arrays; the Davie step on nested lists
# of floats, which the solver's float step must equal bit for bit; the
# step with @ products, a reference within a few float64 eps (BLAS may
# fuse its multiply-adds); and the chart maps with np.linalg.norm, the
# forms log_sphere_map replaced by math.sqrt(v.dot(v)), kept to pin that
# those rewrites change no bit


def field_of_arrays(d, m, ev, gr, **fields):
    """The VectorField of a field given as eval and grad on 1-d float
    arrays: its jet is their values, flat."""

    def jet(y):
        v = np.array(y, dtype=float)
        return ev(v).ravel().tolist(), gr(v).ravel().tolist()

    return VectorField(d, m, jet, **fields)


def counterexample_eval_lists(y):
    return np.array([[np.sin(y[1]) * y[0]], [y[0]]])


def counterexample_grad_lists(y):
    return np.array([[[np.sin(y[1]), y[0] * np.cos(y[1])]], [[1.0, 0.0]]])


def f_dot_grad_f_matmul(vf):
    """The derived field's eval with an @ product (BLAS)."""
    d, m = vf.d, vf.m

    def ev(y):
        t = vf.grad(y).reshape(d * m, d) @ vf.eval(y)
        return t.reshape(d, m, m).swapaxes(1, 2)

    return ev


def f_dot_grad_f_lists(vf, y):
    """The derived field at the 1-d array y as nested lists of floats:
    H[a][i][j] = sum_c G[a][j][c] F[c][i], summed left to right from 0.0
    over vf's eval and grad values."""
    d, m = vf.d, vf.m
    F, G = vf.eval(y).tolist(), vf.grad(y).tolist()
    H = [[[0.0] * m for _ in range(m)] for _ in range(d)]
    for a in range(d):
        for i in range(m):
            for j in range(m):
                s = 0.0
                for c in range(d):
                    s += G[a][j][c] * F[c][i]
                H[a][i][j] = s
    return H


def _segment_query(times, level1, level2):
    """The increments of a path over consecutive query times, on nested
    lists of Python floats: the segment formula written out.

    times are the grid times, level1[k] the level-1 vector at grid time
    k and level2[k] the level-2 matrix, or level2 None for a path whose
    increments are differences (an area drift, its matrices flattened
    row-major into level1).  A query time is clamped to [times[0],
    times[-1]] and located at the last grid point k at or before it.
    Over [s, t] the increment is the stored one when s and t are both
    grid points; exp(c log g_k) = (c u_k, c L_k + (c c) Q_k), c = (t - s)
    / (t_k+1 - t_k), when no grid point lies strictly between them, with
    (u_k, b_k) segment k's stored increment, Q_k = 0.5 (u_k (x) u_k) and
    L_k = b_k - Q_k; otherwise the Chen product (head (x) stored) (x)
    tail through the first grid point at or after s and the last at or
    before t, a head or tail of zero length being 0.0.  Returns
    increments(ts) -> (level-1 rows, level-2 rows or None) and
    values(ts) -> the level-1 values at ts.
    """
    w = len(level1[0])
    m = 0 if level2 is None else len(level2[0])

    def locate(t):
        t = min(max(t, times[0]), times[-1])
        k = bisect.bisect_right(times, t) - 1
        return t, k, times[k] == t

    def stored(p, q):
        d1 = [level1[q][i] - level1[p][i] for i in range(w)]
        d2 = [[(level2[q][i][j] - level2[p][i][j]) - level1[p][i] * d1[j]
               for j in range(m)] for i in range(m)]
        return d1, d2

    def geodesic(c, k):
        u, b = stored(k, k + 1)
        cc = c * c
        q = [[0.5 * (u[i] * u[j]) for j in range(m)] for i in range(m)]
        return ([c * v for v in u],
                [[c * (b[i][j] - q[i][j]) + cc * q[i][j] for j in range(m)]
                 for i in range(m)])

    def chen(a, b):
        return ([a[0][i] + b[0][i] for i in range(w)],
                [[(a[1][i][j] + b[1][i][j]) + a[0][i] * b[0][j]
                  for j in range(m)] for i in range(m)])

    def dt(k):
        return times[k + 1] - times[k]

    def increment(s, t):
        s, ks, ns = locate(s)
        t, kt, nt = locate(t)
        if ns and nt:
            return stored(ks, kt)
        last_inside = kt - 1 if nt else kt
        if last_inside <= ks:
            return geodesic((t - s) / dt(ks), ks)
        i, j = (ks if ns else ks + 1), kt
        zero = ([0.0] * w, [[0.0] * m for _ in range(m)])
        head = zero if ns else geodesic((times[i] - s) / dt(ks), ks)
        tail = zero if nt else geodesic((t - times[j]) / dt(j), j)
        return chen(chen(head, stored(i, j)), tail)

    def increments(ts):
        ts = list(ts)
        rows = [increment(s, t) for s, t in zip(ts, ts[1:])]
        d1 = np.array([r[0] for r in rows]).reshape(len(rows), w)
        if level2 is None:
            return d1, None
        return d1, np.array([r[1] for r in rows]).reshape(len(rows), m, m)

    def values(ts):
        out = []
        for t in ts:
            t, k, node = locate(t)
            if node:
                out.append(list(level1[k]))
            else:
                alpha = (t - times[k]) / dt(k)
                out.append([level1[k][i] + alpha * (level1[k + 1][i]
                                                    - level1[k][i])
                            for i in range(w)])
        return np.array(out).reshape(len(out), w)

    return increments, values


def mesh_increments(x, ts):
    """The rough path x's increments (level 1, level 2) over consecutive
    times of ts, by the segment formula on Python floats."""
    return _segment_query(x.times.tolist(), x.level1.tolist(),
                          x.level2.tolist())[0](np.asarray(ts).tolist())


def mesh_level1(x, ts):
    """The rough path x's level 1 at the times ts: the stored value at a
    grid time, else the enclosing segment's start plus alpha times its
    level-1 increment, alpha = (t - t_k) / (t_k+1 - t_k)."""
    return _segment_query(x.times.tolist(), x.level1.tolist(),
                          x.level2.tolist())[1](np.asarray(ts).tolist())


def drift_increments(beta, ts):
    """The AreaDrift beta's increments over consecutive times of ts, as
    (K, m, m): the segment formula for a path whose increments are
    differences."""
    n, m = len(beta.times), beta.m
    d1 = _segment_query(beta.times.tolist(),
                        beta.beta.reshape(n, m * m).tolist(),
                        None)[0](np.asarray(ts).tolist())[0]
    return d1.reshape(len(d1), m, m)


def davie_solve_matmul(x, f, a, mesh, young=None, r_max=1e6, projection=None):
    """The Davie loop on a mesh, stepping with @ products.

    young = (h2, beta) adds the drift term; projection takes and gives a
    state as floats, as SolverConfig.state_projection does, and the
    step ends with it, so that the ball test sees the projected state.
    h2 is a first-order field g that stands for the derived field
    g . grad g, which the step forms with an @ product
    (f_dot_grad_f_matmul).  A step leaving the r_max ball is bisected 60
    times with the same step map.  Returns (y, cross_inc, crossing_time
    or None).
    """
    d, m = f.d, f.m
    h2, beta = young if young is not None else (None, None)

    def increments(ts):
        u, x2 = mesh_increments(x, ts)
        if beta is None:
            return u, x2, None
        return u, x2, drift_increments(beta, ts).reshape(len(u), m * m)

    def step(y, u, b, db):
        fe = f.eval(y)
        w = b.T @ fe.T
        dy = fe @ u + f.grad(y).reshape(d, m * d) @ w.reshape(m * d)
        if db is not None:
            dy = dy + f_dot_grad_f_matmul(h2)(y).reshape(d, m * m) @ db
        if projection is not None:
            return np.array(projection((y + dy).tolist()), dtype=float), fe
        return y + dy, fe

    mesh = np.asarray(mesh, dtype=float)
    K = len(mesh) - 1
    u_all, b_all, db_all = increments(mesh)
    y = np.asarray(a, dtype=float).copy()
    traj = [y]
    fes = []
    crossing = None
    for i in range(K):
        y_new, fe = step(y, u_all[i], b_all[i],
                         None if db_all is None else db_all[i])
        fes.append(fe)
        if not (float(y_new @ y_new) <= r_max * r_max):
            t0 = mesh[i]

            def state_at(tau):
                u, b, db = increments(np.array([t0, tau]))
                return step(y, u[0], b[0], None if db is None else db[0])[0]

            lo, hi = t0, mesh[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.linalg.norm(state_at(mid)) >= r_max:
                    hi = mid
                else:
                    lo = mid
            traj.append(state_at(hi))
            crossing = hi
            mesh = np.concatenate([mesh[:i + 1], [hi]])
            break
        y = y_new
        traj.append(y)
    x2_inc = mesh_increments(x, mesh[:len(traj)])[1]
    cross_inc = np.einsum("kdm,kmn->kdn", np.array(fes), x2_inc)
    return np.array(traj), cross_inc, crossing


def davie_solve_floats(x, f, a, mesh, young=None, r_max=1e6,
                       projection=None):
    """The Davie loop on a mesh, stepping on nested lists of Python floats.

    The step's sums run left to right from 0.0 over the nested eval,
    grad and h2 values: P[j][c] = sum_i b[i][j] F[c][i], then y_a +
    ((sum_i F[a][i] u[i] + sum_j sum_c G[a][j][c] P[j][c]) + sum_i sum_j
    H[a][i][j] dbeta[i][j]), where h2, given as a first-order field g,
    is g's derived field contracted on nested lists
    (f_dot_grad_f_lists).  Otherwise as davie_solve_matmul, with the
    ball test |y|^2 <= min(r_max^2, largest float) and the bisection on
    sqrt(|y|^2) >= r_max, |y|^2 taken after the projection.  Returns (y,
    cross_inc, crossing_time or None).
    """
    d, m = f.d, f.m
    h2, beta = young if young is not None else (None, None)

    def increments(ts):
        u, x2 = mesh_increments(x, ts)
        if beta is None:
            return u.tolist(), x2.tolist(), None
        return u.tolist(), x2.tolist(), drift_increments(beta, ts).tolist()

    def step(y, u, b, db):
        yv = np.array(y)
        F, G = f.eval(yv).tolist(), f.grad(yv).tolist()
        P = [[0.0] * d for _ in range(m)]
        for j in range(m):
            for c in range(d):
                s = 0.0
                for i in range(m):
                    s += b[i][j] * F[c][i]
                P[j][c] = s
        H = None if db is None else f_dot_grad_f_lists(h2, yv)
        out = []
        for k in range(d):
            s = 0.0
            for i in range(m):
                s += F[k][i] * u[i]
            t = 0.0
            for j in range(m):
                for c in range(d):
                    t += G[k][j][c] * P[j][c]
            s += t
            if H is not None:
                t = 0.0
                for i in range(m):
                    for j in range(m):
                        t += H[k][i][j] * db[i][j]
                s += t
            out.append(y[k] + s)
        if projection is not None:
            out = list(projection(out))
        n2 = 0.0
        for v in out:
            n2 += v * v
        return out, F, n2

    mesh = np.asarray(mesh, dtype=float)
    K = len(mesh) - 1
    u_all, b_all, db_all = increments(mesh)
    r2 = min(r_max * r_max, sys.float_info.max)
    y = np.asarray(a, dtype=float).tolist()
    traj = [y]
    fes = []
    crossing = None
    for i in range(K):
        y_new, F, n2 = step(y, u_all[i], b_all[i],
                            None if db_all is None else db_all[i])
        fes.append(F)
        if not n2 <= r2:
            assert math.isfinite(n2)
            t0 = mesh[i]

            def state_at(tau):
                u, b, db = increments(np.array([t0, tau]))
                y_tau, _, n2 = step(y, u[0], b[0],
                                    None if db is None else db[0])
                return y_tau, math.sqrt(n2)

            lo, hi = t0, mesh[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if state_at(mid)[1] >= r_max:
                    hi = mid
                else:
                    lo = mid
            traj.append(state_at(hi)[0])
            crossing = hi
            mesh = np.concatenate([mesh[:i + 1], [hi]])
            break
        y = y_new
        traj.append(y)
    x2_inc = mesh_increments(x, mesh[:len(traj)])[1]
    cross_inc = np.einsum("kdm,kmn->kdn", np.array(fes), x2_inc)
    return np.array(traj), cross_inc, crossing


def grad_phi_norm(z):
    z = np.asarray(z, dtype=float)
    r = float(np.linalg.norm(z))
    d = len(z)
    out = np.empty((d + 1, d))
    out[:d] = np.eye(d) / r - np.outer(z, z) / r ** 3
    out[d] = z / r ** 2
    return out


def grad2_phi_norm(z):
    z = np.asarray(z, dtype=float)
    r = float(np.linalg.norm(z))
    d = len(z)
    eye = np.eye(d)
    out = np.empty((d + 1, d, d))
    out[:d] = (-(eye[:, :, None] * z[None, None, :]
                 + eye[:, None, :] * z[None, :, None]
                 + eye[None, :, :] * z[:, None, None]) / r ** 3
               + 3.0 * z[:, None, None] * z[None, :, None]
               * z[None, None, :] / r ** 5)
    out[d] = eye / r ** 2 - 2.0 * np.outer(z, z) / r ** 4
    return out


def state_of_norm(b, y):
    """The shifted chart's state (theta, rho) of one point by
    np.linalg.norm: theta = z/|z| normalised once more, rho = log|z|."""
    z = np.asarray(b, dtype=float) + np.asarray(y, dtype=float)
    r = float(np.linalg.norm(z))
    theta = z / r
    return np.concatenate([theta / np.linalg.norm(theta), [math.log(r)]])


def sphere_state_projection_norm(d):
    def project(w):
        w = np.asarray(w, dtype=float)
        n = np.linalg.norm(w[:d])
        if n == 0 or not np.isfinite(n):
            return w
        out = w.copy()
        out[:d] /= n
        return out

    return project


def _chart_state_loops(w, b):
    """theta = q/|q|, |q|, r = e^rho and y = r theta - b of a state
    w = (q, rho) given as Python floats, |q|^2 summed by a loop from 0.0;
    raises as the chart jets do."""
    *q, rho = w
    nq = 0.0
    for v in q:
        nq += v * v
    nq = math.sqrt(nq)
    if nq == 0.0:
        raise ValueError("angular component of the state vanished")
    if abs(rho) > _RHO_OVERFLOW:
        raise OverflowError(f"|rho| = {abs(rho):.6g} exceeds {_RHO_OVERFLOW}")
    r = math.exp(rho)
    theta, y = [], []
    for v, c in zip(q, b):
        theta.append(v / nq)
        y.append(r * theta[-1] - c)
    return theta, nq, r, y


def _pull_back_loops(theta, F, r, c):
    """N F / r as a flat list, for the rows F of a (d, k) matrix and
    N = [I - theta theta^T ; theta^T] = r grad phi(r theta): the rows
    (F - theta c^T)/r, then c^T/r, with c = theta^T F plus the given c."""
    K = range(len(c))
    for t, row in zip(theta, F):
        for j in K:
            c[j] += t * row[j]
    out = []
    for t, row in zip(theta, F):
        for j in K:
            out.append((row[j] - t * c[j]) / r)
    for cj in c:
        out.append(cj / r)
    return out


def _finite_loops(values, what, w):
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"{what} is not finite at rho = {w[-1]:.6g}")
    return values


def transformed_field_loops(f, b):
    """The jet of the log-sphere pull-back of f shifted by b, as loops on
    Python floats over f's jet: (h, grad h) as flat lists, raising
    ValueError at q = 0 and OverflowError for |rho| > 708 or a value that
    is not finite, with the library's messages."""
    d, m = f.d, f.m
    b = np.asarray(b, dtype=float).tolist()
    D, M = range(d), range(m)

    def jet(w):
        theta, nq, r, y = _chart_state_loops(w, b)
        F, G = f.jet(y)
        F = [F[k * m:k * m + m] for k in D]
        h = _finite_loops(_pull_back_loops(theta, F, r, [0.0] * m), "h", w)
        V, offset = [], [0.0] * (m * (d + 1))
        for k in D:
            row = []
            for j in M:
                g = G[(k * m + j) * d:(k * m + j + 1) * d]
                hd, s = h[d * m + j], 0.0
                for e in D:
                    s += g[e] * theta[e]
                for c in D:
                    row.append((g[c] - theta[c] * (s - theta[k] * hd)
                                - (c == k) * hd) / nq)
                row.append(s - F[k][j] / r)
                offset[j * (d + 1) + k] = h[k * m + j] / nq
            V.append(row)
        return h, _finite_loops(_pull_back_loops(theta, V, 1.0, offset),
                                "grad h", w)

    return jet


def h2_loops(f, b):
    """The jet of h1_h2's h2 for f shifted by b, as loops on Python
    floats: the derived field on nested lists (f_dot_grad_f_lists),
    pulled back as a (d, m*m) matrix, raising as transformed_field_loops
    does and OverflowError where the derived field or h2 is not finite."""
    d, m = f.d, f.m
    b = np.asarray(b, dtype=float).tolist()

    def jet(w):
        theta, _, r, y = _chart_state_loops(w, b)
        H = f_dot_grad_f_lists(f, np.array(y))
        rows = [[v for row in H[k] for v in row] for k in range(d)]
        return _finite_loops(_pull_back_loops(theta, rows, r, [0.0] * m * m),
                             "the derived field or h2", w)

    return jet


def sphere_state_projection_floats(d):
    """The angular renormalisation on a list of floats: |q|^2 of the
    first d entries summed by a loop from 0.0, then (q/|q|, rho); a
    state whose |q| is 0 or not finite is returned as it is."""

    def project(w):
        n = 0.0
        for v in w[:d]:
            n += v * v
        n = math.sqrt(n)
        if n == 0 or not math.isfinite(n):
            return w
        return [v / n for v in w[:d]] + list(w[d:])

    return project


def transformed_field_norm(f, b):
    """(eval, grad) of the log-sphere pull-back of f shifted by b, built
    on the np.linalg.norm chart maps."""
    d = f.d

    def split(w):
        q = np.asarray(w[:d], dtype=float)
        nq = float(np.linalg.norm(q))
        return q / nq, float(w[d])

    def ev(w):
        theta, rho = split(w)
        z = math.exp(rho) * theta
        return grad_phi_norm(z) @ f.eval(z - b)

    def gr(w):
        theta, rho = split(w)
        z = math.exp(rho) * theta
        fe = f.eval(z - b)
        g = f.grad(z - b)
        dH_dz = (np.einsum("kae,aj->kje", grad2_phi_norm(z), fe)
                 + np.einsum("ka,aje->kje", grad_phi_norm(z), g))
        nq = float(np.linalg.norm(np.asarray(w[:d], dtype=float)))
        jz = np.empty((d, d + 1))
        jz[:, :d] = math.exp(rho) * (np.eye(d) - np.outer(theta, theta)) / nq
        jz[:, d] = z
        return np.einsum("kje,ec->kjc", dH_dz, jz)

    return ev, gr


# ---------------------------------------------------------------------------
# finite differences, triples of smooth paths, rough integration along a
# triple and the inverse chart: references for the analytic gradients,
# the cross integral, pushforwards and the chart maps


def finite_diff_grad(vf_eval, y, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient (d, m, d); validation oracle for grad."""
    if h <= 0:
        raise ValueError("h must be positive")
    y = np.asarray(y, dtype=float)
    d = len(y)
    f0 = np.asarray(vf_eval(y), dtype=float)
    out = np.zeros(f0.shape + (d,))
    for c in range(d):
        e = np.zeros(d)
        e[c] = h
        out[..., c] = (np.asarray(vf_eval(y + e)) - np.asarray(vf_eval(y - e))) / (2 * h)
    return out


def partial_from_smooth(x_of_t, y_of_t, times, p: float = 2.0,
                        refine: int = 16) -> PartialRoughPath:
    """Build a triple from smooth paths by refined trapezoidal sums.

    Each interval's x2 and cross increments are Stieltjes sums on a
    `refine`-times finer sub-grid (O(h^3) accurate per cell), so the
    result approximates the genuine iterated integrals of the smooth
    data.
    """
    t = np.asarray(times, dtype=float)
    n = len(t) - 1
    x_nodes = np.atleast_2d(np.asarray([x_of_t(ti) for ti in t], dtype=float))
    if x_nodes.shape[0] == 1 and n + 1 > 1:
        x_nodes = x_nodes.T
    y_nodes = np.atleast_2d(np.asarray([y_of_t(ti) for ti in t], dtype=float))
    if y_nodes.shape[0] == 1 and n + 1 > 1:
        y_nodes = y_nodes.T
    m, d = x_nodes.shape[1], y_nodes.shape[1]
    x2_inc = np.zeros((n, m, m))
    cross_inc = np.zeros((n, d, m))
    for i in range(n):
        sub = np.linspace(t[i], t[i + 1], refine + 1)
        xs = np.atleast_2d(np.asarray([x_of_t(ti) for ti in sub], dtype=float))
        ys = np.atleast_2d(np.asarray([y_of_t(ti) for ti in sub], dtype=float))
        if xs.shape[0] == 1:
            xs = xs.T
        if ys.shape[0] == 1:
            ys = ys.T
        dx = np.diff(xs, axis=0)
        xs_rel = xs - xs[0]
        ys_rel = ys - ys[0]
        mid_x = 0.5 * (xs_rel[:-1] + xs_rel[1:])
        mid_y = 0.5 * (ys_rel[:-1] + ys_rel[1:])
        x2_inc[i] = np.einsum("ka,kb->ab", mid_x, dx)
        cross_inc[i] = np.einsum("ka,kb->ab", mid_y, dx)
    return PartialRoughPath(t, x_nodes, x2_inc, y_nodes, cross_inc, p)


def rough_integral_along(prp: PartialRoughPath, g) -> PartialRoughPath:
    """Rough integral I_t = int_0^t g(y_s) dx_s with its cross against x.

    g maps R^d to L(R^m, R^n): eval returns (n, m), grad (n, m, d), and
    gamma is the Holder exponent of grad (2 + gamma > p).  Per
    interval the integral increment is g(y_i) dx_i + grad g(y_i) cross_i
    (full contraction of the gradient's driver-and-state slots with the
    cross integral); the integral's own cross increment pairs g(y_i)
    with the driver's level 2.  Returns the triple (x, I, cross_I).
    """
    if 2.0 + getattr(g, "gamma", 1.0) <= prp.p:
        raise ValueError("need 2 + gamma > p for the integrand's gradient")
    n = prp.n_points - 1
    g0 = np.asarray(g.eval(prp.y[0]), dtype=float)
    n_out = g0.shape[0]
    path = np.zeros((n + 1, n_out))
    cross_i = np.zeros((n, n_out, prp.m))
    for i in range(n):
        ge = np.asarray(g.eval(prp.y[i]), dtype=float)
        gr = np.asarray(g.grad(prp.y[i]), dtype=float)
        dx = prp.x[i + 1] - prp.x[i]
        inc = ge @ dx + np.einsum("nmd,dm->n", gr, prp.cross_inc[i])
        path[i + 1] = path[i] + inc
        cross_i[i] = ge @ prp.x2_inc[i]
    return PartialRoughPath(prp.times, prp.x, prp.x2_inc, path, cross_i,
                            prp.p)


def z_of(theta, rho: float) -> np.ndarray:
    """Inverse chart exp(rho) * theta, guarding the exponential."""
    if abs(rho) > _RHO_OVERFLOW:
        raise OverflowError(f"|rho| = {abs(rho):.3g} exceeds exp range")
    return math.exp(rho) * np.asarray(theta, dtype=float)


def pushforward_rows(prp: PartialRoughPath, phi) -> PartialRoughPath:
    """pushforward with one eval and one grad call per grid point, each
    on a one-row stack: the per-point loop the array form replaced."""
    n = prp.n_points - 1
    new_y = np.array([phi.eval(prp.y[i:i + 1])[0] for i in range(n + 1)])
    grads = np.array([phi.grad(prp.y[i:i + 1])[0] for i in range(n)])
    new_cross = np.einsum("kwd,kda->kwa", grads, prp.cross_inc)
    return PartialRoughPath(prp.times, prp.x, prp.x2_inc, new_y, new_cross,
                            prp.p)


def read_csv_floats(path):
    """The CSV reader rough_paths used before numpy's loadtxt: csv.reader
    and float() per cell, empty rows skipped; (header, rows)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[0].strip() != "t":
            raise ValueError(f"{path}: expected header starting with 't'")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float)


def write_csv_values(path, header, rows):
    """The CSV writer rough_paths used before one `%` per row: LF rows,
    each float (or float subclass) as %.17g and any other value str()."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")
