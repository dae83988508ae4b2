"""The log-sphere change of variable and the fields it induces.

The map (theta, rho) = (z/|z|, log|z|) sends R^d minus the origin onto
the cylinder S^(d-1) x R.  Pulled back through it, a linear-growth field
on R^d (the hypothesis of the global-existence result for geometric
drivers) becomes a field h on the cylinder that stays bounded: the
Jacobian decays like 1/|z| exactly fast enough to absorb linear growth.
Its gradient need not stay bounded.  For counterexample_field, whose
gradient grows like |z|, max|grad h| grows like e^rho: with b = (2, 0)
and 200 random theta per radius, max|h| stays between 1.2 and 1.5 while
max|grad h| is 11, 102, 997 and 9830 at |b + y| = 10, 1e2, 1e3 and 1e4.
The chart is the engine behind the global-existence bound, and this module
provides the map, its Jacobian, the transformed first- and second-order
fields, and the shift that keeps trajectories away from the origin.  A
solver maps the state; a solution is its partial rough path, which
partial_rough_paths.pushforward maps through the same chart.  The map
(ShiftedMap.state_of) and its Jacobian (grad_phi) are closed forms over
(..., d) arrays, so a whole trajectory goes through each in one call;
a (d,) point is the one-row case.

Off the cylinder the transformed field is extended by normalizing the
angular component, h(q, rho) := h(q/|q|, rho), which is smooth for
q != 0 and restricts to the same field on the cylinder; a solver should
renormalize the angular part of its state each step (see
``sphere_state_projection``).

Each transformed field is its jet on Python floats (VectorField.jet,
SecondOrderField.jet), as numpy's per-call overhead is the cost on the
one state per solver step: no grad_phi tensor, one call of the field's
own jet, explicit loops (sum() is compensated from Python 3.12 on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vector_fields import SecondOrderField, VectorField, f_dot_grad_f

__all__ = [
    "ShiftedMap",
    "grad_phi",
    "transformed_field",
    "h1_h2",
    "choose_shift",
    "sphere_state_projection",
]

# the transformed fields divide by r = e^rho: e^rho and e^-rho are finite
# normal floats for |rho| <= log(2^1022) = 708.4
_RHO_OVERFLOW = 708.0


def _radii(z) -> np.ndarray:
    """|z| per row of an (n, d) stack, |z|^2 by np.matmul on the row
    views: the BLAS dot of ndarray.dot on one row, so no row's bits depend
    on its stack.  ValueError where |z|^2 is 0 or not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.matmul(z[:, None, :], z[:, :, None])[:, 0, 0]
    bad = ~(np.isfinite(sq) & (sq > 0.0))
    if bad.any():
        raise ValueError("the log-sphere chart needs 0 < |z|^2 < inf for "
                         f"z = b + y, not at z = {z[np.argmax(bad)]}")
    return np.sqrt(sq)


def grad_phi(z) -> np.ndarray:
    """Jacobian of (z/|z|, log|z|), shape (..., d+1, d) for z of shape
    (..., d).

    Rows 1..d: d theta_i / d z_j = delta_ij / |z| - z_i z_j / |z|^3;
    last row: d rho / d z_j = z_j / |z|^2.  Every entry decays like
    1/|z|.  ValueError where |z|^2 is 0 or not finite or |z|^3
    underflows; OverflowError where |z|^3 overflows (|z| > 5.6e102).
    """
    z = np.asarray(z, dtype=float)
    d = z.shape[-1]
    zs = z.reshape(-1, d)
    r = _radii(zs)
    # r^2 and r^3 by libm's pow on Python floats, not numpy's power
    rs = r.tolist()
    r2 = np.array([v ** 2 for v in rs])[:, None]
    try:
        r3 = np.array([v ** 3 for v in rs])[:, None, None]
    except OverflowError:
        raise OverflowError(
            f"|z|^3 overflows at |z| = {max(rs):.6g}") from None
    out = np.empty((len(zs), d + 1, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[:, :d] = (np.eye(d) / r[:, None, None]
                      - zs[:, :, None] * zs[:, None, :] / r3)
    out[:, d] = zs / r2
    if not np.isfinite(out).all():
        raise ValueError("the chart's Jacobian is not finite")
    return out.reshape(z.shape[:-1] + (d + 1, d))


@dataclass(frozen=True)
class ShiftedMap:
    """Shifted chart psi(y) = (z/|z|, log|z|) with z = b + y, used where
    |b + y| >= r_min."""

    b: np.ndarray
    r_min = 1.0  # what choose_shift guarantees; not a field

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or not np.isfinite(b).all():
            raise ValueError("the shift b must be a finite vector")
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return len(self.b)

    def state_of(self, y) -> np.ndarray:
        """psi(y) as the solver state (theta, rho), shape (..., d+1) for y
        of shape (..., d): theta is z/|z| normalised once more, rho is
        math.log|z| (np.log differs in the last bit on some inputs).
        ValueError where |b + y|^2 is 0 or not finite."""
        z = self.b + np.asarray(y, dtype=float)
        zs = z.reshape(-1, self.d)
        r = _radii(zs)
        out = np.empty((len(zs), self.d + 1))
        theta = zs / r[:, None]
        out[:, :-1] = theta / _radii(theta)[:, None]
        out[:, -1] = [math.log(v) for v in r.tolist()]
        return out.reshape(z.shape[:-1] + (self.d + 1,))


def choose_shift(a, predicted_radius: float) -> ShiftedMap:
    """Shift guaranteeing |b + y| >= 1 for trajectories within the radius.

    b = (predicted_radius + |a| + 1) e_1, so any y with
    |y| <= predicted_radius + |a| keeps |b + y| >= 1.
    """
    a = np.asarray(a, dtype=float)
    if not 0 <= predicted_radius < math.inf:
        raise ValueError("predicted_radius must be nonnegative and finite")
    b = np.zeros(len(a))
    b[0] = predicted_radius + float(np.linalg.norm(a)) + 1.0
    return ShiftedMap(b)


def sphere_state_projection(d: int):
    """Per-step renormalizer of the angular part of a (d+1)-state."""

    def project(w):
        w = np.asarray(w, dtype=float)
        q = w[:d]
        n = math.sqrt(q.dot(q))
        if n == 0 or not math.isfinite(n):
            return w
        out = w.copy()
        out[:d] /= n
        return out

    return project


def _chart_state(w, b):
    """theta = q/|q|, |q|, r = e^rho and y = r theta - b of a state
    w = (q, rho) given as Python floats."""
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


def _pull_back(theta, F, r, c):
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


def _finite(values, what, w):
    """values (floats), or OverflowError naming rho if one is not finite."""
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"{what} is not finite at rho = {w[-1]:.6g}")
    return values


def transformed_field(f: VectorField, shift: ShiftedMap) -> VectorField:
    """Pull a field on R^d back to the cylinder chart.

    h(q, rho) = grad phi(z) f(z - b) = N F / r with z = r theta,
    theta = q/|q|, r = e^rho, F = f(z - b) and N as in _pull_back; its
    gradient is the chain rule through z(q, rho).  Both raise ValueError
    at q = 0, and OverflowError for |rho| > 708 or where their value is
    not finite (F/r overflows near rho = -708 when |F| > 5.9).
    """
    d, m = f.d, f.m
    if shift.d != d:
        raise ValueError(f"shift of dimension {shift.d} for a field on R^{d}")
    b = shift.b.tolist()
    D, M = range(d), range(m)

    def _jet(w):
        theta, nq, r, y = _chart_state(w, b)
        F, G = f.jet(y)
        F = [F[k * m:k * m + m] for k in D]
        h = _finite(_pull_back(theta, F, r, [0.0] * m), "h", w)
        # h = N F/r, so dh = N d(F/r) + dN F/r.  V holds d(F/r), with
        # g = grad f_kj(y): g (I - theta theta^T)/|q| along q, g theta -
        # F/r along rho; and the part of dN F/r in N's range.  The rest,
        # [-theta ; 1] h_c/|q| along q_c, is an offset to theta^T V
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
        return h, _finite(_pull_back(theta, V, 1.0, offset), "grad h", w)

    return VectorField(d + 1, m, _jet, gamma=f.gamma,
                       name=f"logsphere({f.name})")


def h1_h2(f: VectorField, shift: ShiftedMap):
    """Transformed first- and second-order fields for the corrected route.

    h1 drives the rough part against the geometric driver; h2(theta,rho)
    = grad phi(z) (f . grad f)(z - b) multiplies the area drift.  Its
    jet pulls the derived field's jet back on floats, as a (d, m*m)
    matrix, as h1's does f's.  h2 is bounded only when f . grad f has at
    most linear growth; for quadratically growing derived fields it
    inflates like exp(rho), the failure mode of the explosion example.
    h2 raises as h1 does, and OverflowError where the derived field or h2
    itself is not finite (for the counterexample field shifted by
    (4, 0), from rho = 356 and at rho = -708).
    """
    h1 = transformed_field(f, shift)
    fdf = f_dot_grad_f(f)
    d, mm = f.d, f.m * f.m
    b = shift.b.tolist()

    def _jet2(w):
        theta, _, r, y = _chart_state(w, b)
        # a non-finite derived field makes h2 non-finite, which raises
        H = fdf.jet(y)
        h2 = _pull_back(theta, [H[k * mm:k * mm + mm] for k in range(d)], r,
                        [0.0] * mm)
        return _finite(h2, "the derived field or h2", w)

    return h1, SecondOrderField(d + 1, f.m, _jet2)
