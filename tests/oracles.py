"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own integration /
stepping code paths: a classical RK4 integrator on the absolutely
continuous parametrization of a polyline, shoelace polygon areas,
left-point Riemann sums for cross and Young integrals.
"""

import numpy as np


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


def pvar_norm_pairs(times, level1, level2, control, p):
    """Grid p-variation norm by visiting every pair s < t on its own.

    Each pair gets the same per-element operations as the library's scan
    (difference, outer-product correction, Euclidean norms, control to
    the power 1/p and 2/p), so the two agree exactly, not just closely.
    """
    n = len(times)
    c1 = 0.0
    c2sq = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            du = level1[j] - level1[i]
            db = level2[j] - level2[i] - np.outer(level1[i], du)
            n1 = np.linalg.norm(du, axis=0)
            n2 = np.linalg.norm(db.ravel(), axis=0)
            w = np.asarray(control(times[i], times[j]), dtype=float)
            if w <= 0.0:
                if n1 > 0 or n2 > 0:
                    return np.inf
                continue
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
    one start point at a time with numpy's Euclidean norm per pair."""
    u = np.asarray(level1, dtype=float)
    b = np.asarray(level2, dtype=float)
    beta = 0.5 * (b + np.swapaxes(b, 1, 2)) - 0.5 * np.einsum("ki,kj->kij", u, u)
    flat = beta.reshape(len(beta), -1)
    worst = 0.0
    for i in range(len(flat) - 1):
        d = np.linalg.norm(flat[i + 1:] - flat[i], axis=1)
        worst = max(worst, float(np.max(d)))
    return worst


def area_pvar_bound_rows(drift, control, p):
    """area_pvar_bound one start point at a time (pairs with zero control
    are skipped, whatever their increment)."""
    t = drift.times
    flat = drift.beta.reshape(len(t), -1)
    best = 0.0
    for i in range(len(t) - 1):
        d = np.linalg.norm(flat[i + 1:] - flat[i], axis=1)
        w = np.asarray(control(t[i], t[i + 1:]), dtype=float)
        w = np.where(w <= 0, np.inf, w)
        best = max(best, float(np.max(d / w ** (2.0 / p), initial=0.0)))
    return best


def _cross_row(prp, i):
    """cross(t_i, t_j) for every j > i, by a cumsum from t_i."""
    return np.cumsum(prp.cross_inc[i:] + np.einsum(
        "ka,kb->kab", prp.y[i:-1] - prp.y[i], np.diff(prp.x[i:], axis=0)),
        axis=0)


def cross_bound_rows(prp):
    """PartialRoughPath.cross_bound one start point at a time."""
    best = 0.0
    for i in range(prp.n_points - 1):
        acc = _cross_row(prp, i)
        norms = np.linalg.norm(acc.reshape(len(acc), -1), axis=1)
        w = np.asarray(prp.control(prp.times[i], prp.times[i + 1:]),
                       dtype=float)
        w = np.where(w <= 0, np.inf, w)
        best = max(best, float(np.max(norms / w ** (2.0 / prp.p),
                                      initial=0.0)))
    return best


def pvar_distance_rows(a, b):
    """pvar_distance one start point at a time, with a's control and p."""
    t = a.times
    p = a.p
    worst = 0.0
    for i in range(a.n_points - 1):
        w = np.asarray(a.control(t[i], t[i + 1:]), dtype=float)
        w = np.where(w <= 0, np.inf, w)
        dx = np.linalg.norm((a.x[i + 1:] - a.x[i]) - (b.x[i + 1:] - b.x[i]),
                            axis=1)
        dy = np.linalg.norm((a.y[i + 1:] - a.y[i]) - (b.y[i + 1:] - b.y[i]),
                            axis=1)
        ca = _cross_row(a, i)
        cb = _cross_row(b, i)
        dc = np.linalg.norm((ca - cb).reshape(len(ca), -1), axis=1)
        worst = max(worst,
                    float(np.max(dx / w ** (1.0 / p), initial=0.0)),
                    float(np.max(dy / w ** (1.0 / p), initial=0.0)),
                    float(np.max(dc / w ** (2.0 / p), initial=0.0)))
    return worst
