"""Vector fields f : R^d -> L(R^m, R^d) with one controlled derivative.

A field carries an analytic gradient and a Holder exponent gamma for the
gradient's modulus.  Result 1 (global existence under a geometric
driver) assumes what the paper's abstract states: the field has linear
growth, |f(v)| <= c0 + c1 |v|, with no bound on the gradient.  The field
both results share, counterexample_field, f(xi) = (sin(xi2) xi1, xi1),
grows linearly while its gradient does not: d f1 / d xi2 = xi1 cos xi2.
The derived second-order field contracts f into grad f and multiplies
the level-2 (area) part of a driver in the second-order solver step:

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
    """Evaluable field with gradient.

    eval(y) returns a (d, m) matrix, grad(y) a (d, m, d) array with
    grad[a, i, c] = d f[a, i] / d y[c].  gamma in (0, 1] is the Holder
    exponent of the gradient; bounds are optional declarations used by
    the a-priori bound machinery (the field itself may be unbounded).

    The solver calls eval and grad once each per step on a 1-d float
    state and keeps eval's result, so both must return a fresh float
    array on every call, never a reused buffer.  At these sizes the
    numpy call overhead is the cost: filling np.empty is cheaper than
    building the array from nested lists, and a single-state branch that
    reads the state once with y.tolist() and computes with math on
    Python floats is cheaper than numpy calls on numpy scalars.

    Stacked states (optional): a field with stacked=True also takes a
    (B, d) stack of states, returning (B, d, m) from eval and
    (B, d, m, d) from grad, whose row k equals the value at state k bit
    for bit, so its single-state branch must give the stacked branch's
    bits.  The built-in fields meet this contract.  growth_bound_check's
    stacked loop batches its dilations for such a field, and solve_rde
    solves every row the stack cannot finish or cannot batch: a row that
    crosses r_max or turns non-finite, and every dilation of any other
    field.
    """

    d: int
    m: int
    eval: object
    grad: object
    gamma: float = 1.0
    bounds: FieldBounds = field(default_factory=FieldBounds)
    name: str = ""
    stacked: bool = False

    def __call__(self, y) -> np.ndarray:
        return self.eval(np.asarray(y, dtype=float))


@dataclass
class SecondOrderField:
    """Map y -> (d, m, m): pairs with level-2 matrices by full contraction.

    source records the first-order field a derived f . grad f came from,
    letting the solver reuse one field evaluation per step.
    """

    d: int
    m: int
    eval: object
    source: "VectorField | None" = None

    def __call__(self, y) -> np.ndarray:
        return self.eval(np.asarray(y, dtype=float))


def f_dot_grad_f(vf: VectorField) -> SecondOrderField:
    """The derived field contracting f into grad f.

    M[a, i, j] = sum_c grad[a, j, c] f[c, i]; contracting M against a
    rank-one u (x) w reproduces grad f (f u, w) directly.
    """
    d, m = vf.d, vf.m

    def _eval(y):
        fe = vf.eval(y)
        gr = vf.grad(y)
        # M[a,i,j] = sum_c gr[a,j,c] fe[c,i], via one flat matmul
        t = gr.reshape(d * m, d).dot(fe)
        return t.reshape(d, m, m).swapaxes(1, 2)

    return SecondOrderField(d, m, _eval, source=vf)


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

    def _eval(y):
        return np.einsum("aic,...c->...ai", A3, y) + cv

    def _grad(y):
        if y.ndim == 1:
            return A3.copy()
        return np.broadcast_to(A3, y.shape[:-1] + A3.shape).copy()

    return VectorField(d, m, _eval, _grad, gamma=1.0, name="linear",
                       stacked=True)


def counterexample_field() -> VectorField:
    """f(xi) = (sin(xi_2) xi_1, xi_1): linear growth, d = 2, m = 1.

    Its derived field (sin^2(xi_2) xi_1 + xi_1^2 cos(xi_2), sin(xi_2) xi_1)
    is quadratic, which is what drives the finite-time explosion under a
    pure-area driver.
    """

    # a single state reads its entries once as Python floats and fills
    # with math.sin/cos: the broadcast form below, or np.sin on numpy
    # scalars, costs it more per call for the same bits
    def _eval(y):
        if y.ndim == 1:
            y0, y1 = y.tolist()
            out = np.empty((2, 1))
            out[0, 0] = math.sin(y1) * y0
            out[1, 0] = y0
            return out
        out = np.empty(y.shape[:-1] + (2, 1))
        out[..., 0, 0] = np.sin(y[..., 1]) * y[..., 0]
        out[..., 1, 0] = y[..., 0]
        return out

    def _grad(y):
        if y.ndim == 1:
            y0, y1 = y.tolist()
            out = np.empty((2, 1, 2))
            out[0, 0, 0] = math.sin(y1)
            out[0, 0, 1] = y0 * math.cos(y1)
            out[1, 0, 0] = 1.0
            out[1, 0, 1] = 0.0
            return out
        out = np.empty(y.shape[:-1] + (2, 1, 2))
        out[..., 0, 0, 0] = np.sin(y[..., 1])
        out[..., 0, 0, 1] = y[..., 0] * np.cos(y[..., 1])
        out[..., 1, 0, 0] = 1.0
        out[..., 1, 0, 1] = 0.0
        return out

    return VectorField(2, 1, _eval, _grad, gamma=1.0, name="counterexample",
                       stacked=True)


def tanh_field(d: int = 2, m: int = 1, scale: float = 1.0,
               seed: int = 7) -> VectorField:
    """Bounded smooth test field: entries scale * tanh(W y + b)."""
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, m, d))
    b = rng.normal(0.0, 0.5, size=(d, m))

    def _eval(y):
        return scale * np.tanh(np.einsum("aic,...c->...ai", W, y) + b)

    def _grad(y):
        z = np.einsum("aic,...c->...ai", W, y) + b
        sech2 = 1.0 - np.tanh(z) ** 2
        return scale * sech2[..., None] * W

    f_inf = scale * np.sqrt(d * m)
    g_inf = scale * float(np.linalg.norm(W.reshape(-1)))
    return VectorField(d, m, _eval, _grad, gamma=1.0,
                       bounds=FieldBounds(f_inf=f_inf, grad_inf=g_inf),
                       name="tanh", stacked=True)


def zero_field(d: int = 1, m: int = 1) -> VectorField:
    def _eval(y):
        return np.zeros(y.shape[:-1] + (d, m))

    def _grad(y):
        return np.zeros(y.shape[:-1] + (d, m, d))

    return VectorField(d, m, _eval, _grad, gamma=1.0,
                       bounds=FieldBounds(0.0, 0.0), name="zero",
                       stacked=True)


_FIELDS = {"linear": linear_field, "counterexample": counterexample_field,
           "tanh": tanh_field, "zero": zero_field}


def make_field(name: str, **params) -> VectorField:
    """Field registry for configuration files: the builtin `name` called
    with params, so a parameter it does not take raises TypeError."""
    if name not in _FIELDS:
        raise ValueError(f"unknown field {name!r}")
    return _FIELDS[name](**params)
