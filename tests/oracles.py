"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the library's own integration /
stepping code paths: a classical RK4 integrator on the absolutely
continuous parametrization of a polyline, shoelace polygon areas,
left-point Riemann sums for cross and Young integrals.
"""

import math

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


# ---------------------------------------------------------------------------
# the blocked row scan that the tiled pair scan replaced, kept as the fast
# reference for the five sup-over-pairs measures on large grids (the
# pair-by-pair pvar_norm_pairs is too slow there): every pair of every
# start point, in blocks of rows, with the same per-pair arithmetic


_ROW_BLOCK = 16384


def pair_sup_blocked(times, control, powers, block_norms, width=1):
    """Largest norm / w(s, t)^power over grid pairs s < t, per norm.

    block_norms(i0, i1) returns one (rows, cols) array per power: start
    points i0..i1-1 against end points i0+1..n-1.  A pair with w <= 0
    counts only with a nonzero norm, which makes every result inf; a NaN
    maximum raises ValueError.
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
        if control is None:
            for v in norms:
                v[:, :rows][dead] = 0.0
            tops = [float(np.max(v, initial=0.0)) for v in norms]
        else:
            s = t[i0:i1, None]
            w = np.asarray(control(s, np.maximum(s, t[None, i0 + 1:])),
                           dtype=float)
            zero = w <= 0.0
            live_zero = zero.copy()
            live_zero[:, :rows] &= ~dead
            if any(np.any(v[live_zero] > 0.0) for v in norms):
                return [math.inf] * len(powers)
            w = np.where(zero, np.inf, w)
            tops = [float(np.max(v / w ** pw, initial=0.0))
                    for v, pw in zip(norms, powers)]
        if any(map(math.isnan, tops)):
            raise ValueError("NaN in a grid-pair measure (control or data)")
        best = [max(a, b) for a, b in zip(best, tops)]
        i0 = i1
    return best


def pvar_norm_blocked(rp, p):
    u, b = rp.level1, rp.level2

    def norms(i0, i1):
        du = u[None, i0 + 1:] - u[i0:i1, None]
        db = (b[None, i0 + 1:] - b[i0:i1, None]
              - u[i0:i1, None, :, None] * du[:, :, None, :])
        return (np.linalg.norm(du, axis=2),
                np.linalg.norm(db.reshape(db.shape[:2] + (-1,)), axis=2))

    c1, c2sq = pair_sup_blocked(rp.times, rp.control, (1.0 / p, 2.0 / p),
                                norms, rp.m * rp.m)
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

    return math.sqrt(pair_sup_blocked(rp.times, None, (0.0,), squares)[0])


def area_pvar_bound_blocked(drift, control, p):
    flat = drift.beta.reshape(len(drift.times), -1)

    def norms(i0, i1):
        return (np.linalg.norm(flat[None, i0 + 1:] - flat[i0:i1, None],
                               axis=2),)

    return pair_sup_blocked(drift.times, control, (2.0 / p,), norms,
                            flat.shape[1])[0]


def _cross_block(prp, i0, i1):
    """cross(t_i, t_j) for i = i0..i1-1, j = i0+1..n-1, one cumsum."""
    dy = prp.y[None, i0:-1] - prp.y[i0:i1, None]
    terms = dy[..., None] * np.diff(prp.x[i0:], axis=0)[:, None, :]
    terms += prp.cross_inc[i0:]
    terms[np.tril_indices(i1 - i0, -1)] = 0.0
    np.cumsum(terms, axis=1, out=terms)
    return terms.reshape(terms.shape[:2] + (-1,))


def cross_bound_blocked(prp):
    def norms(i0, i1):
        return (np.linalg.norm(_cross_block(prp, i0, i1), axis=2),)

    return pair_sup_blocked(prp.times, prp.control, (2.0 / prp.p,), norms,
                            prp.d * prp.m)[0]


def pvar_distance_blocked(a, b):
    def norms(i0, i1):
        def inc(v):
            return v[None, i0 + 1:] - v[i0:i1, None]

        ex = np.linalg.norm(inc(a.x) - inc(b.x), axis=2)
        ey = np.linalg.norm(inc(a.y) - inc(b.y), axis=2)
        dc = _cross_block(a, i0, i1)
        dc -= _cross_block(b, i0, i1)
        return ex, ey, np.linalg.norm(dc, axis=2)

    p = a.p
    return max(pair_sup_blocked(a.times, a.control,
                                (1.0 / p, 1.0 / p, 2.0 / p), norms,
                                a.d * a.m))


# ---------------------------------------------------------------------------
# the Davie step with @ products, and the chart maps with np.linalg.norm:
# the forms the solver and log_sphere_map replaced by ndarray.dot and
# math.sqrt(v.dot(v)), kept to pin that those rewrites change no bit


def counterexample_eval_lists(y):
    return np.array([[np.sin(y[1]) * y[0]], [y[0]]])


def counterexample_grad_lists(y):
    return np.array([[[np.sin(y[1]), y[0] * np.cos(y[1])]], [[1.0, 0.0]]])


def f_dot_grad_f_matmul(vf):
    """The derived field's eval with an @ product."""
    d, m = vf.d, vf.m

    def ev(y):
        t = vf.grad(y).reshape(d * m, d) @ vf.eval(y)
        return t.reshape(d, m, m).swapaxes(1, 2)

    return ev


def davie_solve_matmul(x, f, a, mesh, young=None, r_max=1e6, projection=None):
    """The Davie loop on a mesh, stepping with @ products.

    young = (h2, beta) adds the drift term; an h2 whose `source` is f is
    fused into the level-2 input.  A step leaving the r_max ball is
    bisected 60 times with the same step map.  Returns (y, cross_inc,
    crossing_time or None).
    """
    d, m = f.d, f.m
    h2, beta = young if young is not None else (None, None)
    if getattr(h2, "source", None) is f:
        h2 = None

    def increments(ts):
        u, x2 = x.increments_on_mesh(ts)
        if beta is None:
            return u, x2, None
        dbeta = beta.increments_on_mesh(ts)
        if h2 is None:
            return u, x2 + dbeta, None
        return u, x2, dbeta.reshape(len(u), m * m)

    def step(y, u, b, db):
        fe = f.eval(y)
        w = b.T @ fe.T
        dy = fe @ u + f.grad(y).reshape(d, m * d) @ w.reshape(m * d)
        if db is not None:
            dy = dy + h2.eval(y).reshape(d, m * m) @ db
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
        y = y_new if projection is None else projection(y_new)
        traj.append(y)
    x2_inc = x.increments_on_mesh(mesh[:len(traj)])[1]
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
