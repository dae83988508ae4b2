"""Vector fields f : R^d -> L(R^m, R^d) with one controlled derivative.

A field carries an analytic gradient and a Holder exponent gamma for the
gradient's modulus; the class of admissible fields is "differentiable
with bounded, gamma-Holder gradient", which allows linear growth of the
field itself.  The derived second-order field contracts f into grad f
and multiplies the level-2 (area) part of a driver in the second-order
solver step:

    (f . grad f)(v)[u (x) w] = grad f(v) [ (f(v) u) (x) w ].

Gradients are always analytic; finite differences are kept as a
validation oracle only and never substituted into a solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "VectorField",
    "SecondOrderField",
    "FieldBounds",
    "f_dot_grad_f",
    "finite_diff_grad",
    "check_lip_remainder",
    "estimate_field_bounds",
    "linear_field",
    "counterexample_field",
    "tanh_field",
    "zero_field",
    "make_field",
]


@dataclass
class FieldBounds:
    """Declared (or sampled) norms on a box: sup|f|, sup|grad f|, H_gamma."""

    f_inf: float = float("nan")
    grad_inf: float = float("nan")
    holder: float = float("nan")


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
    building the array from nested lists.
    """

    d: int
    m: int
    eval: object
    grad: object
    gamma: float = 1.0
    bounds: FieldBounds = field(default_factory=FieldBounds)
    name: str = ""

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

    def contract(self, y, level2: np.ndarray) -> np.ndarray:
        """Apply to one level-2 matrix: out[a] = sum_ij M[a,i,j] level2[i,j]."""
        return np.einsum("aij,ij->a", self.eval(np.asarray(y, dtype=float)),
                         level2)


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


def check_lip_remainder(vf: VectorField, box, samples: int = 2000,
                        seed: int = 0, declared_h: float | None = None) -> dict:
    """Sample the first-order Taylor remainder against |u - u'|^(1+gamma).

    box is a (low, high) pair of d-vectors (or scalars).  Reports the
    largest observed ratio |f(u) - f(u') - grad f(u')(u - u')| /
    |u - u'|^(1+gamma); passes iff it does not exceed the declared
    Holder constant by more than 5%.  With no constant declared, the
    constant is itself estimated from the sample and the check passes.
    """
    rng = np.random.default_rng(seed)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), (vf.d,)) for b in box)
    us = rng.uniform(lo, hi, size=(samples, vf.d))
    vs = rng.uniform(lo, hi, size=(samples, vf.d))
    worst = 0.0
    worst_pair = None
    for u, v in zip(us, vs):
        du = u - v
        r = np.linalg.norm(du)
        if r < 1e-12:
            continue
        rem = vf.eval(u) - vf.eval(v) - np.einsum("aic,c->ai", vf.grad(v), du)
        ratio = float(np.linalg.norm(rem) / r ** (1.0 + vf.gamma))
        if ratio > worst:
            worst, worst_pair = ratio, (u.copy(), v.copy())
    h_ref = declared_h if declared_h is not None else (
        vf.bounds.holder if np.isfinite(vf.bounds.holder) else worst)
    passed = worst <= 1.05 * h_ref + 1e-12
    return {
        "max_ratio": worst,
        "declared": h_ref,
        "passed": passed,
        "violating_pair": None if passed else worst_pair,
    }


def estimate_field_bounds(vf: VectorField, box, samples: int = 10_000,
                          seed: int = 0) -> FieldBounds:
    """Dense-sampling estimate of sup|f|, sup|grad f|, H_gamma on a box.

    Norms are operator-ish: Frobenius on values, which upper-bounds the
    operator norm and keeps the estimate cheap.
    """
    rng = np.random.default_rng(seed)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), (vf.d,)) for b in box)
    pts = rng.uniform(lo, hi, size=(samples, vf.d))
    f_inf = 0.0
    g_inf = 0.0
    for y in pts:
        f_inf = max(f_inf, float(np.linalg.norm(vf.eval(y))))
        g_inf = max(g_inf, float(np.linalg.norm(vf.grad(y))))
    hold = check_lip_remainder(vf, box, samples=min(samples, 2000), seed=seed + 1)
    return FieldBounds(f_inf=f_inf, grad_inf=g_inf, holder=hold["max_ratio"])


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
        return np.einsum("aic,c->ai", A3, y) + cv

    def _grad(y):
        return A3.copy()

    return VectorField(d, m, _eval, _grad, gamma=1.0,
                       bounds=FieldBounds(holder=0.0), name="linear")


def counterexample_field() -> VectorField:
    """f(xi) = (sin(xi_2) xi_1, xi_1): linear growth, d = 2, m = 1.

    Its derived field (sin^2(xi_2) xi_1 + xi_1^2 cos(xi_2), sin(xi_2) xi_1)
    is quadratic, which is what drives the finite-time explosion under a
    pure-area driver.
    """

    def _eval(y):
        out = np.empty((2, 1))
        out[0, 0] = np.sin(y[1]) * y[0]
        out[1, 0] = y[0]
        return out

    def _grad(y):
        out = np.empty((2, 1, 2))
        out[0, 0, 0] = np.sin(y[1])
        out[0, 0, 1] = y[0] * np.cos(y[1])
        out[1, 0, 0] = 1.0
        out[1, 0, 1] = 0.0
        return out

    return VectorField(2, 1, _eval, _grad, gamma=1.0, name="counterexample")


def tanh_field(d: int = 2, m: int = 1, scale: float = 1.0,
               seed: int = 7) -> VectorField:
    """Bounded smooth test field: entries scale * tanh(W y + b)."""
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, m, d))
    b = rng.normal(0.0, 0.5, size=(d, m))

    def _eval(y):
        return scale * np.tanh(np.einsum("aic,c->ai", W, y) + b)

    def _grad(y):
        z = np.einsum("aic,c->ai", W, y) + b
        sech2 = 1.0 - np.tanh(z) ** 2
        return scale * sech2[:, :, None] * W

    f_inf = scale * np.sqrt(d * m)
    g_inf = scale * float(np.linalg.norm(W.reshape(-1)))
    return VectorField(d, m, _eval, _grad, gamma=1.0,
                       bounds=FieldBounds(f_inf=f_inf, grad_inf=g_inf),
                       name="tanh")


def zero_field(d: int = 1, m: int = 1) -> VectorField:
    def _eval(y):
        return np.zeros((d, m))

    def _grad(y):
        return np.zeros((d, m, d))

    return VectorField(d, m, _eval, _grad, gamma=1.0,
                       bounds=FieldBounds(0.0, 0.0, 0.0), name="zero")


_FIELDS = {"linear": linear_field, "counterexample": counterexample_field,
           "tanh": tanh_field, "zero": zero_field}


def make_field(name: str, **params) -> VectorField:
    """Field registry for configuration files: the builtin `name` called
    with params, so a parameter it does not take raises TypeError."""
    if name not in _FIELDS:
        raise ValueError(f"unknown field {name!r}")
    return _FIELDS[name](**params)
