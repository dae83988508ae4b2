"""The sewing operator: correcting almost-multiplicative two-parameter maps.

An almost rough path is a map z(s, t) whose multiplicativity defect
z(s,t) - z(s,u) (x) z(u,t) is bounded by C * (t - s)^theta with theta > 1.
Its sewn value over [s, t] is the limit of ordered products of z over
dyadic refinements; successive refinement levels differ geometrically
with ratio 2^(1-theta), which both proves convergence and gives a
testable signature of the exponent.

Two value types are supported: GroupElement2 (tensor product) and plain
ndarrays (abelian case, product = addition).  The abelian case underlies
the Young integral; on grid data interpolated piecewise-linearly the
sewn limit of the left-point increments g(s) * (d(t) - d(s)) has the
closed form 0.5 * (g_i + g_{i+1}) * (d_{i+1} - d_i) per cell, which is
what ``young_integral`` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_algebra import GroupElement2

__all__ = [
    "AlmostRoughPath",
    "SewResult",
    "SewingConvergenceError",
    "YoungConditionError",
    "sew",
    "young_integral",
]


class SewingConvergenceError(RuntimeError):
    """Dyadic refinement did not settle within max_level."""

    def __init__(self, message, gaps):
        super().__init__(message)
        self.gaps = list(gaps)


class YoungConditionError(ValueError):
    """Variation exponents do not satisfy 1/p + 1/q > 1."""


@dataclass
class AlmostRoughPath:
    """Two-parameter map with a known multiplicativity defect order.

    fn(s, t) must return a GroupElement2 or an ndarray (abelian case).
    theta is the defect exponent (> 1 for the sewn limit to exist).
    """

    fn: object
    theta: float

    def __call__(self, s: float, t: float):
        return self.fn(s, t)


def _dyadic_product(arp: AlmostRoughPath, s: float, t: float, level: int):
    """Ordered product of arp over the 2^level dyadic subintervals of [s, t]."""
    k = 1 << level
    taus = s + (t - s) * np.arange(k + 1) / k
    vals = [arp.fn(taus[i], taus[i + 1]) for i in range(k)]
    first = vals[0]
    if isinstance(first, GroupElement2):
        u = np.array([v.level1 for v in vals])
        b = np.array([v.level2 for v in vals])
        before = np.cumsum(u, axis=0) - u
        total_b = b.sum(axis=0) + np.einsum("ki,kj->kij", before, u).sum(axis=0)
        return GroupElement2(u.sum(axis=0), total_b)
    return np.sum(np.asarray(vals, dtype=float), axis=0)


def _gap(a, b) -> float:
    if isinstance(a, GroupElement2):
        return max(
            float(np.max(np.abs(a.level1 - b.level1), initial=0.0)),
            float(np.max(np.abs(a.level2 - b.level2), initial=0.0)),
        )
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


@dataclass
class SewResult:
    """Sewn value plus convergence diagnostics."""

    value: object
    levels_used: int
    gaps: list
    converged: bool
    correction: float          # |value - z(s,t)|, the sewing correction size
    correction_bound: float    # correction / (t - s)^theta (measured C')


def sew(arp: AlmostRoughPath, s: float, t: float, tol: float = 1e-10,
        max_level: int = 22, full_output: bool = False):
    """Sewn value of an almost rough path over [s, t].

    Refines dyadically until two successive levels agree entrywise within
    tol, then returns the finer product (or a SewResult when
    full_output=True, in which case non-convergence is reported in the
    result instead of raised).  s and t must be finite and tol a number
    >= 0 (0 asks for two equal levels): otherwise no level would stop
    the refinement, and ValueError is raised before fn is called.
    """
    if arp.theta <= 1.0:
        raise ValueError("defect exponent theta must exceed 1")
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ValueError("interval endpoints must be finite")
    if not tol >= 0.0:
        raise ValueError("tol must be non-negative")
    if t < s:
        raise ValueError("need s <= t")
    if t == s:
        raise ValueError("degenerate interval")
    prev = _dyadic_product(arp, s, t, 0)
    gaps = []
    value = prev
    converged = False
    levels = 0
    for level in range(1, max_level + 1):
        cur = _dyadic_product(arp, s, t, level)
        g = _gap(cur, prev)
        gaps.append(g)
        value, levels = cur, level
        if g <= tol:
            converged = True
            break
        prev = cur
    base = arp.fn(s, t)
    corr = _gap(value, base)
    result = SewResult(value, levels, gaps, converged, corr,
                       corr / (t - s) ** arp.theta)
    if full_output:
        return result
    if not converged:
        raise SewingConvergenceError(
            f"no convergence within {max_level} dyadic levels; "
            f"last gaps {gaps[-2:]} vs tol {tol}", gaps)
    return value


def young_integral(integrand, driver, p_int: float,
                   q_drv: float) -> np.ndarray:
    """Cumulative Young integral of a grid integrand against a grid driver.

    integrand: (N+1, n, k) linear maps (or (N+1,) scalars, (N+1, k)
    row-covectors); driver: (N+1, k) (or (N+1,) scalars).  Requires
    1/p_int + 1/q_drv > 1.  Values are the sewn limit of the left-point
    increments on the piecewise-linear interpolant, i.e. the trapezoidal
    pairing 0.5 * (G_i + G_{i+1}) (d_{i+1} - d_i) accumulated per cell;
    the result is additive over adjacent intervals by construction.
    """
    if 1.0 / p_int + 1.0 / q_drv <= 1.0:
        raise YoungConditionError(
            f"1/{p_int} + 1/{q_drv} <= 1: Young pairing undefined")
    g = np.asarray(integrand, dtype=float)
    d = np.asarray(driver, dtype=float)
    if d.ndim == 1:
        d = d[:, None]
    squeeze_out = False
    if g.ndim == 1:
        g = g[:, None, None]
        squeeze_out = True
    elif g.ndim == 2:
        g = g[:, None, :]
        squeeze_out = True
    if g.shape[0] != d.shape[0]:
        raise ValueError("integrand and driver must share a grid")
    if g.shape[2] != d.shape[1]:
        raise ValueError(
            f"integrand maps R^{g.shape[2]} but driver lives in R^{d.shape[1]}")
    dd = np.diff(d, axis=0)
    mid = 0.5 * (g[:-1] + g[1:])
    inc = np.einsum("xnk,xk->xn", mid, dd)
    out = np.zeros((g.shape[0], g.shape[1]))
    np.cumsum(inc, axis=0, out=out[1:])
    if squeeze_out:
        return out[:, 0]
    return out
