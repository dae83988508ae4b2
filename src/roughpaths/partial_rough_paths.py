"""Partial rough paths: driver, output, and their cross-iterated integral.

The triple (x, y, int dy (x) dx) carries exactly the data needed to
integrate functions of y against the rough driver x.  The cross
integral satisfies the additivity identity

    cross(s,t) = cross(s,r) + cross(r,t) + (y_r - y_s) (x) (x_t - x_r)

so, like the driver's level 2, it is stored for consecutive grid
intervals only and extended to arbitrary pairs on demand, which keeps
storage linear and the identity exact by construction.

Operations: the p-variation distance between triples, the pushforward
of the output through a smooth map (which sews the almost-multiplicative
cross increments grad phi(y_s) cross(s,t)), rough integration of g(y)
against x, and the cross-integral correction that re-targets a triple
at the geometric part of a decomposed driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rough_paths import (AreaDrift, Control, HolderControl, _grid_triples,
                          _pair_sup, _require_finite, _write_csv)
from .sewing import YoungConditionError
from .vector_fields import VectorField

__all__ = [
    "SmoothMap",
    "PartialRoughPath",
    "partial_from_smooth",
    "pvar_distance",
    "pushforward",
    "rough_integral_along",
    "cross_against_decomposition",
    "write_partial_csv",
]


@dataclass
class SmoothMap:
    """Map phi : R^d -> R^w with gradient; grad(y) returns (w, d)."""

    dim_in: int
    dim_out: int
    eval: object
    grad: object

    def __call__(self, y):
        return self.eval(np.asarray(y, dtype=float))


@dataclass(frozen=True)
class PartialRoughPath:
    """Grid triple (x, y, cross) with per-interval data; all values finite."""

    times: np.ndarray        # (N+1,)
    x: np.ndarray            # (N+1, m) driver level 1, absolute
    x2_inc: np.ndarray       # (N, m, m) driver level 2 per interval
    y: np.ndarray            # (N+1, d)
    cross_inc: np.ndarray    # (N, d, m) cross integral per interval
    p: float = 2.0
    control: Control = field(default_factory=HolderControl)

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

    def _cross_rows(self, i0: int, i1: int, j1: int) -> np.ndarray:
        """cross(t_i, t_j) for i = i0..i1-1, j = i0+1..j1: (rows, cols, d*m).

        The one extension of cross_inc to pairs: row i sums the terms
        cross_inc[k] + (y_k - y_i) (x) dx_k, k = i..j-1, in order after
        zeros for k < i, so it does not depend on the block; j <= i is 0.
        """
        dy = self.y[None, i0:j1] - self.y[i0:i1, None]
        terms = dy[..., None] * np.diff(self.x[i0:j1 + 1], axis=0)[:, None, :]
        del dy
        terms += self.cross_inc[i0:j1]
        terms[np.tril_indices(i1 - i0, -1)] = 0.0
        np.cumsum(terms, axis=1, out=terms)
        return terms.reshape(terms.shape[:2] + (-1,))

    def cross_between(self, i: int, j: int) -> np.ndarray:
        """cross(t_i, t_j) by accumulating the additivity identity."""
        if j <= i:
            return np.zeros((self.d, self.m))
        return self._cross_rows(i, i + 1, j)[0, -1].reshape(self.d, self.m)

    def additivity_defect(self, samples: int = 400, seed: int = 0) -> float:
        """Max additivity violation of cross over sampled grid triples."""
        worst = 0.0
        for i, j, k in zip(*_grid_triples(self.n_points, 25, samples, seed)):
            lhs = self.cross_between(i, k)
            rhs = (self.cross_between(i, j) + self.cross_between(j, k)
                   + np.outer(self.y[j] - self.y[i], self.x[k] - self.x[j]))
            worst = max(worst, float(np.max(np.abs(lhs - rhs), initial=0.0)))
        return worst

    def cross_bound(self) -> float:
        """Smallest L with ||cross(s,t)|| <= L w(s,t)^(2/p) over grid pairs.

        inf when some pair has zero control but a nonzero cross integral.
        """
        def norms(i0, i1):
            return (np.linalg.norm(self._cross_rows(i0, i1, self.n_points - 1),
                                   axis=2),)

        return _pair_sup(self.times, self.control, (2.0 / self.p,), norms,
                         self.d * self.m)[0]


def partial_from_smooth(x_of_t, y_of_t, times, p: float = 2.0,
                        refine: int = 16,
                        control: Control | None = None) -> PartialRoughPath:
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
    return PartialRoughPath(t, x_nodes, x2_inc, y_nodes, cross_inc, p,
                            control or HolderControl())


def pvar_distance(a: PartialRoughPath, b: PartialRoughPath) -> float:
    """Scaled sup distance between two triples on a shared grid.

    Max over grid pairs of the x- and y-increment differences scaled by
    w^(1/p) and the cross difference scaled by w^(2/p), with a's control
    and p; inf when some pair has zero control but a nonzero difference.
    """
    if a.n_points != b.n_points or not np.allclose(a.times, b.times):
        raise ValueError("grids do not match")
    if a.m != b.m or a.d != b.d:
        raise ValueError("dimensions do not match")
    n = a.n_points

    def norms(i0, i1):
        def inc(v):
            return v[None, i0 + 1:] - v[i0:i1, None]

        ex = np.linalg.norm(inc(a.x) - inc(b.x), axis=2)
        ey = np.linalg.norm(inc(a.y) - inc(b.y), axis=2)
        dc = a._cross_rows(i0, i1, n - 1)
        dc -= b._cross_rows(i0, i1, n - 1)
        return ex, ey, np.linalg.norm(dc, axis=2)

    p = a.p
    return max(_pair_sup(a.times, a.control, (1.0 / p, 1.0 / p, 2.0 / p),
                         norms, a.d * a.m))


def pushforward(prp: PartialRoughPath, phi: SmoothMap,
                diagnostics: bool = False):
    """Cross-iterated integral of phi(y) against x.

    Per interval the new cross increment is grad phi(y_i) cross_inc[i];
    chaining these with the additivity identity for (phi(y), x) is the
    grid-level sewing of the almost-multiplicative map from the
    construction, and reduces to the genuine iterated integral when the
    data is smooth.  With diagnostics=True also returns a report with
    the measured defect exponent of that almost map (defect against
    control, fitted on grid triples).
    """
    if phi.dim_in != prp.d:
        raise ValueError(f"phi expects R^{phi.dim_in}, triple has d={prp.d}")
    n = prp.n_points - 1
    new_y = np.asarray([phi.eval(prp.y[i]) for i in range(n + 1)], dtype=float)
    if new_y.ndim == 1:
        new_y = new_y[:, None]
    grads = np.asarray([phi.grad(prp.y[i]) for i in range(n)], dtype=float)
    new_cross = np.einsum("kwd,kda->kwa", grads.reshape(n, phi.dim_out, prp.d),
                          prp.cross_inc)
    out = PartialRoughPath(prp.times, prp.x, prp.x2_inc, new_y, new_cross,
                           prp.p, prp.control)
    if not diagnostics:
        return out
    report = _pushforward_defect_report(prp, phi, new_y, out)
    return out, report


def _pushforward_defect_report(prp, phi, new_y, out, max_triples: int = 300,
                               seed: int = 0):
    """Fit defect ~ w^theta for the pushforward's almost map on grid triples."""
    logs_w, logs_d = [], []
    worst = 0.0
    for i, j, k in zip(*_grid_triples(prp.n_points, 20, max_triples, seed)):
        gi = np.asarray(phi.grad(prp.y[i]), dtype=float)
        gj = np.asarray(phi.grad(prp.y[j]), dtype=float)
        z_ik = gi @ prp.cross_between(i, k)
        z_ij = gi @ prp.cross_between(i, j)
        z_jk = gj @ prp.cross_between(j, k)
        chain = np.outer(new_y[j] - new_y[i], prp.x[k] - prp.x[j])
        defect = float(np.max(np.abs(z_ik - z_ij - z_jk - chain), initial=0.0))
        w = float(prp.control(prp.times[i], prp.times[k]))
        worst = max(worst, defect)
        if defect > 1e-300 and w > 0:
            logs_w.append(np.log(w))
            logs_d.append(np.log(defect))
    theta = float(np.polyfit(logs_w, logs_d, 1)[0]) if len(logs_w) > 4 else float("nan")
    return {"defect_exponent": theta, "max_defect": worst,
            "triples_used": len(logs_w)}


def rough_integral_along(prp: PartialRoughPath, g) -> PartialRoughPath:
    """Rough integral I_t = int_0^t g(y_s) dx_s with its cross against x.

    g maps R^d to L(R^m, R^n): eval returns (n, m), grad (n, m, d).  Per
    interval the integral increment is g(y_i) dx_i + grad g(y_i) cross_i
    (full contraction of the gradient's driver-and-state slots with the
    cross integral); the integral's own cross increment pairs g(y_i)
    with the driver's level 2.  Returns the triple (x, I, cross_I).
    """
    if isinstance(g, VectorField) and 2.0 + g.gamma <= prp.p:
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
                            prp.p, prp.control)


def cross_against_decomposition(prp: PartialRoughPath, beta: AreaDrift,
                                loading: np.ndarray | None = None
                                ) -> PartialRoughPath:
    """Re-target the cross integral at the geometric part of the driver.

    Adds the Young integral of a driver-loading path L against the area
    drift: per interval the cross increment gains the trapezoidal pairing
    0.5 (L_i + L_{i+1}) dbeta_i, where L is (N+1, d, m).  For m = 1 the
    loading defaults to the grid rate of y (dy/dt per interval), which
    reproduces the classical Stieltjes value for smooth data; pass the
    loading explicitly (e.g. f(y_t) for a solution of dy = f(y) dx) to
    match a specific dynamics.
    """
    if 3.0 / prp.p <= 1.0:
        raise YoungConditionError("Young pairing of y against beta needs p < 3")
    if beta.m != prp.m or len(beta.times) != prp.n_points or not np.allclose(
            beta.times, prp.times):
        raise ValueError("beta must live on the triple's grid")
    n = prp.n_points - 1
    dbeta = np.diff(beta.beta, axis=0)
    if loading is None:
        if prp.m != 1:
            raise ValueError("default rate loading only applies when m = 1; "
                             "pass loading explicitly")
        rate = np.diff(prp.y, axis=0) / np.diff(prp.times)[:, None]
        corr = rate[:, :, None] * dbeta[:, None, 0, 0][:, :, None]
        corr = corr.reshape(n, prp.d, 1)
    else:
        L = np.asarray(loading, dtype=float)
        if L.shape != (n + 1, prp.d, prp.m):
            raise ValueError(f"loading must have shape {(n + 1, prp.d, prp.m)}")
        mid = 0.5 * (L[:-1] + L[1:])
        corr = np.einsum("kai,kij->kaj", mid, dbeta)
    return PartialRoughPath(prp.times, prp.x, prp.x2_inc, prp.y,
                            prp.cross_inc + corr, prp.p, prp.control)


def write_partial_csv(prp: PartialRoughPath, path) -> None:
    """Per-interval rows `s,t,dy...,dx...,cross(row-major)...`."""
    header = (["s", "t"]
              + [f"y{i+1}" for i in range(prp.d)]
              + [f"x{i+1}" for i in range(prp.m)]
              + [f"c_{i+1}{j+1}" for i in range(prp.d) for j in range(prp.m)])
    n = prp.n_points - 1
    _write_csv(path, header, np.column_stack(
        [prp.times[:-1], prp.times[1:], np.diff(prp.y, axis=0),
         np.diff(prp.x, axis=0), prp.cross_inc.reshape(n, prp.d * prp.m)]))
