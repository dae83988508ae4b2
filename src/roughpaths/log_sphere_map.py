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
own jet, straight-line code generated per field and shift whose sums
vector_fields._sum_lines writes left to right (sum() is compensated
from Python 3.12 on), as the sphere projection's is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vector_fields import (SecondOrderField, VectorField, _compiled,
                            _fdf_lines, _sum_lines)

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
    """Per-step renormalizer of the angular part q, the first d entries,
    of a state (q, rho), for SolverConfig.state_projection: on the
    solver's floats, q/|q| with |q|^2 summed left to right from 0.0 (the
    bits of the Davie loop's |y|^2), and the entries after q as they
    are; a state whose |q| is 0 or not finite is returned itself.
    Straight-line code generated for d."""
    body = [*_sum_lines("n", [f"w[{k}] * w[{k}]" for k in range(d)]),
            "n = sqrt(n)",
            "if n == 0.0 or not isfinite(n):",
            "    return w",
            "return [" + "".join(f"w[{k}] / n, " for k in range(d))
            + f"*w[{d}:]]"]
    return _compiled("project", "w", body, f"<sphere projection d={d}>",
                     sqrt=math.sqrt, isfinite=math.isfinite)


def _pull_back_lines(d: int, F, c, r: str | None, name: str):
    """N F / r, N = [I - theta theta^T ; theta^T] = r grad phi(r theta),
    for F given as d rows of k expressions: lines that set name_j =
    c[j] + sum_a t_a F[a][j] left to right, and the expressions of the
    rows (F[a][j] - t_a name_j) / r, then name_j / r (not divided when
    r is None)."""
    lines, out = [], []
    for j, start in enumerate(c):
        lines += _sum_lines(f"{name}{j}",
                            [f"t{a} * {F[a][j]}" for a in range(d)], start)
    for a in range(d):
        out += [f"{v} - t{a} * {name}{j}" for j, v in enumerate(F[a])]
    out += [f"{name}{j}" for j in range(len(c))]
    return lines, out if r is None else [f"({v}) / {r}" for v in out]


def _chart_jet(kind: str, f: VectorField, shift: ShiftedMap, body):
    """The jet of a chart field of f, compiled with f's jet bound: lines
    that unpack w = (q, rho) and set nq = |q|, r = e^rho, t_k = q_k / nq
    and y_k = r t_k - b_k (ValueError at q = 0, OverflowError for
    |rho| > 708), then F, G = f's jet at y, then body."""
    if shift.d != f.d:
        raise ValueError(f"shift of dimension {shift.d} for a field on "
                         f"R^{f.d}")
    b, D = shift.b.tolist(), range(f.d)
    head = [", ".join([*(f"q{k}" for k in D), "rho"]) + " = w",
            *_sum_lines("nq", [f"q{k} * q{k}" for k in D]),
            "nq = sqrt(nq)",
            "if nq == 0.0:",
            '    raise ValueError("angular component of the state vanished")',
            "if abs(rho) > RHO_MAX:",
            '    raise OverflowError(f"|rho| = {abs(rho):.6g} exceeds '
            '{RHO_MAX}")',
            "r = exp(rho)",
            *(f"t{k} = q{k} / nq" for k in D),
            *(f"y{k} = r * t{k} - ({c!r})" for k, c in enumerate(b)),
            "F, G = f_jet([" + ", ".join(f"y{k}" for k in D) + "])"]
    return _compiled("jet", "w", head + body,
                     f"<{kind} d={f.d} m={f.m} b={b}>", f_jet=f.jet,
                     sqrt=math.sqrt, exp=math.exp, isfinite=math.isfinite,
                     RHO_MAX=_RHO_OVERFLOW)


def transformed_field(f: VectorField, shift: ShiftedMap) -> VectorField:
    """Pull a field on R^d back to the cylinder chart.

    h(q, rho) = grad phi(z) f(z - b) = N F / r with z = r theta,
    theta = q/|q|, r = e^rho, F = f(z - b) and N as in _pull_back_lines;
    its gradient is the chain rule through z(q, rho).  Both raise
    ValueError at q = 0, and OverflowError for |rho| > 708 or where their
    value is not finite (F/r overflows near rho = -708 when |F| > 5.9).
    The jet is straight-line code generated for f's d and m and the
    shift, with f's jet bound, and returns (h, grad h) as lists.
    """
    d, m = f.d, f.m
    D, M, W = range(d), range(m), d + 1
    body, h = _pull_back_lines(d, [[f"F[{k * m + j}]" for j in M] for k in D],
                               ["0.0"] * m, "r", "c")
    body += [f"h{i} = {v}" for i, v in enumerate(h)]
    # h = N F/r, so dh = N d(F/r) + dN F/r.  V holds d(F/r), with
    # g = grad f_kj(y): g (I - theta theta^T)/|q| along q, g theta - F/r
    # along rho; and the part of dN F/r in N's range.  The rest,
    # [-theta ; 1] h_c/|q| along q_c, starts the sums of theta^T V.  Off
    # the diagonal the h term is 0.0 * h, not left out: it turns a -0.0
    # into +0.0 when h < 0
    for k in D:
        for j in M:
            g = k * m * d + j * d
            hd = f"h{d * m + j}"
            body += _sum_lines(f"s{k}_{j}", [f"G[{g + e}] * t{e}" for e in D])
            body.append(f"p{k}_{j} = s{k}_{j} - t{k} * {hd}")
            body += [f"v{k}_{j * W + c} = (G[{g + c}] - t{c} * p{k}_{j} - "
                     f"{'' if c == k else '0.0 * '}{hd}) / nq" for c in D]
            body.append(f"v{k}_{j * W + d} = s{k}_{j} - F[{k * m + j}] / r")
    offset = [f"h{c * m + j} / nq" if c < d else "0.0"
              for j in M for c in range(W)]
    lines, gh = _pull_back_lines(d, [[f"v{k}_{i}" for i in range(m * W)]
                                     for k in D], offset, None, "e")
    # every h_i enters grad h additively (h_c / |q| starts a sum of
    # theta^T V, and h_d is subtracted in V), so grad h is finite only
    # where h is: one check, and a second to name which is not
    body += [*lines,
             "h = [" + ", ".join(f"h{i}" for i in range(len(h))) + "]",
             "gh = [" + ", ".join(gh) + "]",
             "if not all(map(isfinite, gh)):",
             '    what = "grad h" if all(map(isfinite, h)) else "h"',
             '    raise OverflowError(f"{what} is not finite at rho = '
             '{rho:.6g}")',
             "return h, gh"]
    return VectorField(W, m, _chart_jet("chart field", f, shift, body),
                       name=f"logsphere({f.name})")


def h1_h2(f: VectorField, shift: ShiftedMap):
    """Transformed first- and second-order fields for the corrected route.

    h1 drives the rough part against the geometric driver; h2(theta,rho)
    = grad phi(z) (f . grad f)(z - b) multiplies the area drift.  Its
    jet forms the derived field from f's jet (as f_dot_grad_f's does) and
    pulls it back, as a (d, m*m) matrix, as h1's does f: straight-line
    code generated once per field and shift.  h2 is bounded only when
    f . grad f has at most linear growth; for quadratically growing
    derived fields it inflates like exp(rho), the failure mode of the
    explosion example.  h2 raises as h1 does, and OverflowError where the
    derived field or h2 itself is not finite (for the counterexample
    field shifted by (4, 0), from rho = 356 and at rho = -708).
    """
    h1 = transformed_field(f, shift)
    d, mm = f.d, f.m * f.m
    body, H = _fdf_lines(d, f.m)
    lines, h2 = _pull_back_lines(d, [H[k * mm:k * mm + mm] for k in range(d)],
                                 ["0.0"] * mm, "r", "c")
    # a non-finite derived field makes h2 non-finite, which raises
    body += [*lines, "h2 = [" + ", ".join(h2) + "]",
             "if not all(map(isfinite, h2)):",
             '    raise OverflowError(f"the derived field or h2 is not '
             'finite at rho = {rho:.6g}")',
             "return h2"]
    return h1, SecondOrderField(d + 1, f.m,
                                _chart_jet("chart h2", f, shift, body))
