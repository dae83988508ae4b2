"""The driver query: one formula for a path's increment over any [s, t]
in its time range, in the log coordinates of its grid segments.

With (u_k, b_k) the stored increment over segment k (a row of
_grid_increments), Q_k = 0.5 u_k (x) u_k and L_k = b_k - Q_k, the
increment over a sub-interval of segment k with c = (t - s) /
(t_k+1 - t_k) is the geodesic exp(c log g_k) = (c u_k, c L_k + c^2 Q_k):
a short sub-interval's level 2 is computed at its own size, not as the
difference of two absolute values, which cancels O(|b|) numbers.  An
interval that spans grid points is the Chen product of its partial
head, the stored increment between the grid points and its partial
tail; one between two grid points is the stored increment.  The formula
has two evaluations with equal floats, on numpy rows and, for a row
inside one segment, on Python floats (_Segments).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .vector_fields import _compiled


def _grid_increments(u: np.ndarray, b: np.ndarray, p=slice(None, -1),
                     q=slice(1, None)) -> tuple[np.ndarray, np.ndarray]:
    """Increments from grid point p to grid point q (index arrays, or by
    default each point to the next) of the point values (u, b):
    u_q - u_p and b_q - b_p - u_p (x) (u_q - u_p), row by row.  The one
    increment formula on stored values: RoughPath.increment, the segment
    increments and grid-pair rows of the segment query (_Segments), and
    chen_defect's triples are its rows."""
    du = u[q] - u[p]
    return du, b[q] - b[p] - np.einsum("ki,kj->kij", u[p], du)


@functools.lru_cache(maxsize=None)
def _float_geodesic(w: int, m: int):
    """The inside-segment row on Python floats, as straight-line code:
    geodesic(c, g), g a segment's floats (_Segments._segment: the w of
    u_k, then with m > 0 the m*m of L_k and of Q_k, row-major), returns
    the list c u_k, then c L_k + (c c) Q_k, each float the one that
    _Segments._geodesic computes."""
    u = [f"u{i}" for i in range(w)]
    L = [f"L{i}" for i in range(m * m)]
    Q = [f"Q{i}" for i in range(m * m)]
    terms = ([f"c * {v}" for v in u]
             + [f"c * {a} + cc * {q}" for a, q in zip(L, Q)])
    return _compiled("geodesic", "c, g", [
        f"{', '.join(u + L + Q)}, = g", "cc = c * c",
        f"return [{', '.join(terms)}]"], f"<segment geodesic w={w} m={m}>")


class _Segments:
    """A path's per-segment log coordinates and the one formula for its
    increment over any [s, t] in its time range, with two evaluations
    whose floats are equal: rows, on numpy arrays, one row per pair of
    consecutive query times, and row, one [s, t] on Python floats.

    The path is its grid times, level 1 (a vector of width w per time)
    and, for a rough path, level 2 (m x m per time); an AreaDrift is a
    level-1 path of width m*m, whose increments are differences.  Per
    segment k the tables hold dt_k, u_k and, with a level 2, L_k =
    b_k - Q_k, where (u_k, b_k) is the segment's row of
    _grid_increments and Q_k = 0.5 u_k (x) u_k, which is recomputed
    where it is used (_half_square).  The increment over [s, t] is
    - between two grid points: the stored increment (_stored);
    - inside segment k, no grid point strictly between s and t (and not
      both ends on one): exp(c log g_k) = (c u_k, c L_k + (c c) Q_k),
      c = (t - s) / dt_k;
    - otherwise, with grid points i <= j the first at or after s and the
      last at or before t: the Chen product (head (x) middle) (x) tail
      of the head [s, t_i] and the tail [t_j, t] inside their segments
      (exactly 0.0 where s or t is a grid point) and the stored
      increment from i to j, where (a1, a2) (x) (b1, b2) = (a1 + b1,
      (a2 + b2) + a1 (x) b1).
    Outer products are single products, so each float is the same IEEE
    operations in both evaluations.  row evaluates a row inside one
    segment on Python floats, reading that segment's floats out of the
    tables only when it needs them and keeping those of the segment it
    used last, which it tries before it locates one: a crossing's
    bisection queries one segment again and again.  Any other row it
    takes from rows.
    """

    def __init__(self, times, level1, level2=None):
        self.times, self.level1, self.level2 = times, level1, level2
        self.n = len(times) - 1
        self.w = level1.shape[1]
        self.m = 0 if level2 is None else level2.shape[1]
        self.dt = np.diff(times)
        if level2 is None:
            self.u, self.L = np.diff(level1, axis=0), None
        else:
            self.u, b = _grid_increments(level1, level2)
            self.L = b - _half_square(self.u)
        self._geo = None
        # (t_k, t_k+1, dt_k, floats) of the segment row used last
        self._last = (math.inf, -math.inf, 1.0, ())

    def locate(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Query times as a 1-d array clamped to [times[0], times[-1]],
        the last grid point k at or before each, and whether it is on k.

        ValueError on a one-point grid or more than 1e-12 outside the
        grid's range (the horizon check's slack).
        """
        times = self.times
        if self.n < 1:
            raise ValueError("a one-point path has no interval to "
                             "interpolate on")
        tq = np.atleast_1d(np.asarray(t, dtype=float))
        if tq.min() < times[0] - 1e-12 or tq.max() > times[-1] + 1e-12:
            raise ValueError("query time outside the path's time range")
        tq = np.clip(tq, times[0], times[-1])
        k = np.searchsorted(times, tq, side="right") - 1
        return tq, k, times.take(k) == tq

    def values(self, tq, k, node, level2=True):
        """Point values at located times: the stored values on grid
        points, elsewhere the value at the segment's start (x) the row
        from it, alpha = (t - t_k) / dt_k.  Level 2 is None without one
        or when not asked for."""
        seg = np.minimum(k, self.n - 1)
        alpha = (tq - self.times.take(seg)) / self.dt.take(seg)
        r1, r2 = self._geodesic(alpha, seg, level2)
        on = np.flatnonzero(node)
        v1 = self.level1.take(seg, axis=0)
        v1 += r1
        v1[on] = self.level1.take(k[on], axis=0)
        if r2 is None:
            return v1, None
        v2 = self.level2.take(seg, axis=0)
        v2 += r2
        v2 += np.einsum("ki,kj->kij", self.level1.take(seg, axis=0), r1)
        v2[on] = self.level2.take(k[on], axis=0)
        return v1, v2

    def rows(self, tq, k, node):
        """The increments over consecutive located times, (d1, d2) with
        a row per interval (d2 None without a level 2)."""
        s, t = tq[:-1], tq[1:]
        ks, kt, ns, nt = k[:-1], k[1:], node[:-1], node[1:]
        pair = ns & nt
        inside = (kt - nt <= ks) & ~pair
        if inside.all():
            return self._geodesic((t - s) / self.dt.take(ks), ks)
        d1 = np.empty((len(s), self.w))
        d2 = None if self.L is None else np.empty((len(s), self.m, self.m))
        for i, part in (
                (np.flatnonzero(inside), lambda i: self._geodesic(
                    (t[i] - s[i]) / self.dt[ks[i]], ks[i])),
                (np.flatnonzero(pair), lambda i: self._stored(ks[i], kt[i])),
                (np.flatnonzero(~(inside | pair)), lambda i: self._spanning(
                    s[i], t[i], ks[i], kt[i], ns[i], nt[i]))):
            if i.size:
                r1, r2 = part(i)
                d1[i] = r1
                if d2 is not None:
                    d2[i] = r2
        return d1, d2

    def _geodesic(self, c, k, level2=True):
        # c u, then c L + (c c) Q, in place where products commute
        u = self.u.take(k, axis=0)
        d1 = u * c[:, None]
        if self.L is None or not level2:
            return d1, None
        c = c[:, None, None]
        d2 = self.L.take(k, axis=0)
        d2 *= c
        q = _half_square(u)
        q *= c * c
        d2 += q
        return d1, d2

    def _stored(self, p, q):
        if self.L is None:
            return self.level1[q] - self.level1[p], None
        return _grid_increments(self.level1, self.level2, p, q)

    def _spanning(self, s, t, ks, kt, ns, nt):
        i, j = ks + ~ns, kt
        head = self._geodesic((self.times[i] - s) / self.dt[ks], ks)
        tk = np.minimum(j, self.n - 1)
        tail = self._geodesic((t - self.times[j]) / self.dt[tk], tk)
        for piece, empty in ((head, ns), (tail, nt)):
            for a in piece:
                if a is not None:
                    a[empty] = 0.0
        return _chen_rows(_chen_rows(head, self._stored(i, j)), tail)

    def row(self, s: float, t: float) -> list:
        """The increment over [s, t], s <= t, as Python floats: d1, then
        d2 row-major."""
        lo, hi, dt, g = self._last
        if lo <= s <= t <= hi and (lo < s < hi or lo < t < hi):
            return self._geo((t - s) / dt, g)
        return self._row(s, t)

    def _row(self, s, t):
        located = self.locate([s, t])
        (s, t), (ks, kt), (ns, nt) = (a.tolist() for a in located)
        if not s <= t:
            raise ValueError(f"an increment needs s <= t, got s = {s!r}, "
                             f"t = {t!r}")
        if kt - nt <= ks and not (ns and nt):
            self._geo = _float_geodesic(self.w, self.m)
            lo, hi, dt, g = self._last = self._segment(ks)
            return self._geo((t - s) / dt, g)
        d1, d2 = self.rows(*located)
        return d1[0].tolist() + ([] if d2 is None else d2[0].ravel().tolist())

    def _segment(self, k: int) -> tuple:
        # Q_k's floats as _half_square forms them
        u = self.u[k].tolist()
        g = u if self.L is None else (u + self.L[k].ravel().tolist()
                                      + [0.5 * (a * b) for a in u for b in u])
        return (*self.times[k:k + 2].tolist(), self.dt[k].item(), tuple(g))


def _half_square(u):
    """Q_k = 0.5 u_k (x) u_k, row by row: one product u_i u_j, halved."""
    q = np.einsum("ki,kj->kij", u, u)
    q *= 0.5
    return q


def _chen_rows(a, b):
    """The Chen product of rows a = (a1, a2) and b, row by row: (a1 + b1,
    (a2 + b2) + a1 (x) b1); a2 and b2 None for a level-1 path."""
    d1 = a[0] + b[0]
    if a[1] is None:
        return d1, None
    return d1, (a[1] + b[1]) + np.einsum("ki,kj->kij", a[0], b[0])
