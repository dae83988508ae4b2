"""Vector fields f : R^d -> L(R^m, R^d) with one controlled derivative.

A field is its jet: one callable that gives f and its analytic gradient
at one state, on Python floats (eval and grad are the jet's values as
arrays), and a Holder exponent gamma for the gradient's modulus.
Result 1 (global existence under a geometric driver) assumes what the
paper's abstract states: the field has linear growth,
|f(v)| <= c0 + c1 |v|, with no bound on the gradient.  The field both
results share, counterexample_field, f(xi) = (sin(xi2) xi1, xi1), grows
linearly while its gradient does not: d f1 / d xi2 = xi1 cos xi2.  The
derived second-order field, a jet too, contracts f into grad f and
multiplies the level-2 (area) part of a driver in the second-order
solver step:

    (f . grad f)(v)[u (x) w] = grad f(v) [ (f(v) u) (x) w ].

Gradients are always analytic; finite differences are kept as a
validation oracle only and never substituted into a solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VectorField",
    "SecondOrderField",
    "FieldBounds",
    "f_dot_grad_f",
    "linear_field",
    "counterexample_field",
    "tanh_field",
    "zero_field",
    "make_field",
]


@dataclass
class FieldBounds:
    """Declared norms sup|f| and sup|grad f|; NaN where undeclared."""

    f_inf: float = float("nan")
    grad_inf: float = float("nan")


@dataclass
class VectorField:
    """A field is its jet, the solver's one field call per step.

    jet(y) takes the d entries of a state as Python floats and returns
    (f, grad f) as flat row-major float sequences of lengths d*m and
    d*m*d, grad[a, i, c] = d f[a, i] / d y[c]; at these sizes the
    per-call overhead is the cost, so it may use math on floats.  eval(y)
    and grad(y) are its values at a 1-d state as fresh (d, m) and
    (d, m, d) arrays.  gamma in (0, 1] is the Holder exponent of the
    gradient; bounds are optional declarations used by the a-priori
    bound machinery (the field itself may be unbounded).
    """

    d: int
    m: int
    jet: object
    gamma: float = 1.0
    bounds: FieldBounds = field(default_factory=FieldBounds)
    name: str = ""

    def eval(self, y) -> np.ndarray:
        F = self.jet(np.asarray(y, dtype=float).tolist())[0]
        return np.array(F, dtype=float).reshape(self.d, self.m)

    def grad(self, y) -> np.ndarray:
        G = self.jet(np.asarray(y, dtype=float).tolist())[1]
        return np.array(G, dtype=float).reshape(self.d, self.m, self.d)


@dataclass
class SecondOrderField:
    """Map y -> (d, m, m), pairing with level-2 matrices by full
    contraction, given by its jet: d floats to the d*m*m entries, flat
    row-major (eval(y) gives them as a fresh array).  source records the
    first-order field a derived f . grad f came from, letting the solver
    reuse one field evaluation per step.
    """

    d: int
    m: int
    jet: object
    source: "VectorField | None" = None

    def eval(self, y) -> np.ndarray:
        H = self.jet(np.asarray(y, dtype=float).tolist())
        return np.array(H, dtype=float).reshape(self.d, self.m, self.m)

    def __call__(self, y) -> np.ndarray:
        return self.eval(y)


def f_dot_grad_f(vf: VectorField) -> SecondOrderField:
    """The derived field contracting f into grad f.

    M[a, i, j] = sum_c grad[a, j, c] f[c, i], summed left to right from
    0.0 over f's jet; contracting M against a rank-one u (x) w
    reproduces grad f (f u, w) directly.
    """
    d, m = vf.d, vf.m
    # the (grad f, f) flat index pairs of each entry M[a, i, j], in order
    terms = [[(a * m * d + j * d + c, c * m + i) for c in range(d)]
             for a in range(d) for i in range(m) for j in range(m)]

    def _jet(y):
        F, G = vf.jet(y)
        out = []
        for pairs in terms:
            s = 0.0
            for p, q in pairs:
                s += G[p] * F[q]
            out.append(s)
        return out

    return SecondOrderField(d, m, _jet, source=vf)


# ---------------------------------------------------------------------------
# builtins


def linear_field(A=1.0, c=None, m: int | None = None) -> VectorField:
    """f(y) = A y + c reshaped to (d, m); exact first-order expansion.

    For m == 1, A is the usual d x d matrix acting on the state and the
    single driver column is A y + c.  For m > 1 supply A of shape
    (d, m, d) mapping the state into each driver column.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim == 2:
        d = A.shape[0]
        m = 1 if m is None else m
        if m != 1:
            raise ValueError("2-d A implies a scalar driver (m = 1)")
        A3 = A[:, None, :]
    elif A.ndim == 3:
        d, m = A.shape[0], A.shape[1]
        A3 = A
    else:
        raise ValueError("A must be scalar, (d,d) or (d,m,d)")
    cv = np.zeros((d, m)) if c is None else np.asarray(c, dtype=float).reshape(d, m)

    G = tuple(A3.ravel().tolist())

    def _jet(y):
        return (np.einsum("aic,...c->...ai", A3, np.array(y))
                + cv).ravel().tolist(), G

    return VectorField(d, m, _jet, gamma=1.0, name="linear")


def counterexample_field() -> VectorField:
    """f(xi) = (sin(xi_2) xi_1, xi_1): linear growth, d = 2, m = 1.

    Its derived field (sin^2(xi_2) xi_1 + xi_1^2 cos(xi_2), sin(xi_2) xi_1)
    is quadratic, which is what drives the finite-time explosion under a
    pure-area driver.
    """

    def _jet(y):
        y0, y1 = y
        s = math.sin(y1)
        return (s * y0, y0), (s, y0 * math.cos(y1), 1.0, 0.0)

    return VectorField(2, 1, _jet, gamma=1.0, name="counterexample")


def tanh_field(d: int = 2, m: int = 1, scale: float = 1.0,
               seed: int = 7) -> VectorField:
    """Bounded smooth test field: entries scale * tanh(W y + b)."""
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, m, d))
    b = rng.normal(0.0, 0.5, size=(d, m))

    def _jet(y):
        t = np.tanh(np.einsum("aic,...c->...ai", W, np.array(y)) + b)
        return ((scale * t).ravel().tolist(),
                (scale * (1.0 - t ** 2)[..., None] * W).ravel().tolist())

    f_inf = scale * np.sqrt(d * m)
    g_inf = scale * float(np.linalg.norm(W.reshape(-1)))
    return VectorField(
        d, m, _jet, gamma=1.0, bounds=FieldBounds(f_inf=f_inf, grad_inf=g_inf),
        name="tanh")


def zero_field(d: int = 1, m: int = 1) -> VectorField:
    zeros = (0.0,) * (d * m), (0.0,) * (d * m * d)

    def _jet(y):
        return zeros

    return VectorField(d, m, _jet, gamma=1.0, bounds=FieldBounds(0.0, 0.0),
                       name="zero")


_FIELDS = {"linear": linear_field, "counterexample": counterexample_field,
           "tanh": tanh_field, "zero": zero_field}


def make_field(name: str, **params) -> VectorField:
    """Field registry for configuration files: the builtin `name` called
    with params, so a parameter it does not take raises TypeError."""
    if name not in _FIELDS:
        raise ValueError(f"unknown field {name!r}")
    return _FIELDS[name](**params)
