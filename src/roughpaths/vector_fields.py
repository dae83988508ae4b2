"""Vector fields f : R^d -> L(R^m, R^d) with one controlled derivative.

A field is its jet: one callable that gives f and its analytic gradient
at one state, on Python floats (eval and grad are the jet's values as
arrays).  Result 1 (global existence under a geometric driver) assumes
what the paper's abstract states: the field has linear growth,
|f(v)| <= c0 + c1 |v|, with no bound on the gradient.  The field both
results share, counterexample_field, f(xi) = (sin(xi2) xi1, xi1), grows
linearly while its gradient does not: d f1 / d xi2 = xi1 cos xi2.  The
derived second-order field, a jet too, contracts f into grad f and
multiplies the level-2 (area) part of a driver in the second-order
solver step:

    (f . grad f)(v)[u (x) w] = grad f(v) [ (f(v) u) (x) w ].

Gradients are always analytic; finite differences are kept as a
validation oracle only and never substituted into a solver.

The builtins whose jet is fixed float code, counterexample_field and
zero_field, write it once, as source lines that set F0.., G0.. from
y0..y{d-1}; their jet is compiled from those lines when the field is
made, and the Davie solve loop runs the same lines in place of the call
while the field's jet is that function.  linear_field and tanh_field
close over numpy arrays and stay callables.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass, field
from itertools import product

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
    (d, m, d) arrays.  There is no Holder exponent: a gradient is taken as
    locally Lipschitz (gamma = 1), so 2 + gamma > p holds for every p < 3
    a SolverConfig accepts.  bounds are optional declarations used by the
    a-priori bound machinery (the field itself may be unbounded).
    """

    d: int
    m: int
    jet: object
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
    row-major (eval(y) gives them as a fresh array).
    """

    d: int
    m: int
    jet: object

    def eval(self, y) -> np.ndarray:
        H = self.jet(np.asarray(y, dtype=float).tolist())
        return np.array(H, dtype=float).reshape(self.d, self.m, self.m)


# ---------------------------------------------------------------------------
# generated float code: the one place that fixes the order of a sum

# terms one generated line sums at most: CPython's compiler recurses once
# per `+` of an expression, and a sum of a few thousand terms overflows it
_TERMS_PER_LINE = 64


def _sum_lines(name: str, terms, start: str = "0.0") -> list[str]:
    """Source lines that set name to the float sum of the expressions in
    terms, taken left to right from the expression start (0.0).

    Python's + is left-associative, so `s = 0.0 + t0 + t1` makes the
    roundings of `s = 0.0; s += t0; s += t1`, in that order; a longer sum
    goes on over lines `s = s + ...`, _TERMS_PER_LINE terms a line.  The
    leading 0.0 stays: 0.0 + -0.0 is +0.0, so terms that are all -0.0
    sum to +0.0, as a loop from 0.0 gives, where -0.0 + -0.0 is -0.0.
    """
    terms = list(terms)
    lines, head = [], start
    for k in range(0, max(len(terms), 1), _TERMS_PER_LINE):
        lines.append(f"{name} = " + " + ".join(
            [head, *terms[k:k + _TERMS_PER_LINE]]))
        head = name
    return lines


def _compiled(name: str, args: str, body: list[str], filename: str, **env):
    """The function `def name(args):` with the source lines body, compiled
    under filename with env as its globals.  The source goes into
    linecache under filename, so that tracebacks show its lines; the
    callers' filenames name everything the source depends on."""
    lines = [f"def {name}({args}):\n", *(f"    {s}\n" for s in body)]
    src = "".join(lines)
    linecache.cache[filename] = (len(src), None, lines, filename)
    exec(compile(src, filename, "exec"), env)
    return env[name]


def _jet_of_lines(d: int, m: int, lines: list[str], name: str, **env):
    """The jet compiled from source lines that set F0..F{d*m-1} and
    G0..G{d*m*d-1}, f and grad f flat row-major, from the state's entries
    y0..y{d-1}, with env as its globals.  The jet keeps its lines and env
    (jet.lines, jet.env), so that a solve loop can run them in place of
    the call; any other local they set is named after neither F, G, y
    nor a name of the Davie step's own lines."""
    def names(v, n):
        return ", ".join(f"{v}{k}" for k in range(n)) + ","

    jet = _compiled("jet", "y", [f"{names('y', d)} = y", *lines,
                                 f"return ({names('F', d * m)}), "
                                 f"({names('G', d * m * d)})"],
                    f"<{name} jet d={d} m={m}>", **env)
    jet.lines, jet.env = lines, env
    return jet


def f_dot_grad_f(vf: VectorField) -> SecondOrderField:
    """The derived field contracting f into grad f.

    M[a, i, j] = sum_c grad[a, j, c] f[c, i], summed left to right from
    0.0 over f's jet; contracting M against a rank-one u (x) w
    reproduces grad f (f u, w) directly.  The jet is straight-line code
    generated for f's d and m (_sum_lines), with f's jet bound.
    """
    d, m = vf.d, vf.m
    body, M = _fdf_lines(d, m)
    jet = _compiled("jet", "y", ["F, G = f_jet(y)", *body,
                                 "return [" + ", ".join(M) + "]"],
                    f"<f . grad f d={d} m={m}>", f_jet=vf.jet)
    return SecondOrderField(d, m, jet)


def _fdf_lines(d: int, m: int) -> tuple[list[str], list[str]]:
    """Source lines that set the entries M[a, i, j] of f . grad f from the
    jet values F, G of a (d, m) field, and their names, flat row-major."""
    body, names = [], []
    for a, i, j in product(range(d), range(m), range(m)):
        names.append(f"M{a}_{i}_{j}")
        body += _sum_lines(names[-1], [f"G[{a * m * d + j * d + c}] * "
                                       f"F[{c * m + i}]" for c in range(d)])
    return body, names


# ---------------------------------------------------------------------------
# builtins


def linear_field(A=1.0, c=None) -> VectorField:
    """f(y) = A y + c reshaped to (d, m); exact first-order expansion.

    A scalar or a d x d A acts on the state and gives the single driver
    column (m = 1) A y + c; an A of shape (d, m, d) maps the state into
    each of m driver columns, so m is always read off A.  An A whose
    last axis is not d, or a c of other than d*m values, raises
    ValueError when the field is built.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim == 2:
        A3 = A[:, None, :]
    elif A.ndim == 3:
        A3 = A
    else:
        raise ValueError("A must be scalar, (d,d) or (d,m,d)")
    d, m = A3.shape[:2]
    if A.shape[-1] != d:
        raise ValueError(f"A has shape {A.shape}, expected "
                         f"{A.shape[:-1] + (d,)}: its last axis is the state")
    cv = np.zeros((d, m)) if c is None else np.asarray(c, dtype=float)
    if cv.size != d * m:
        raise ValueError(f"c has shape {cv.shape}, expected d*m = {d * m} "
                         f"values for A of shape {A.shape}")
    cv = cv.reshape(d, m)

    G = tuple(A3.ravel().tolist())

    def _jet(y):
        return (np.einsum("aic,...c->...ai", A3, np.array(y))
                + cv).ravel().tolist(), G

    return VectorField(d, m, _jet, name="linear")


def counterexample_field() -> VectorField:
    """f(xi) = (sin(xi_2) xi_1, xi_1): linear growth, d = 2, m = 1.

    Its derived field (sin^2(xi_2) xi_1 + xi_1^2 cos(xi_2), sin(xi_2) xi_1)
    is quadratic, which is what drives the finite-time explosion under a
    pure-area driver.
    """
    lines = ["sin_y1 = sin(y1)", "F0 = sin_y1 * y0", "F1 = y0",
             "G0 = sin_y1", "G1 = y0 * cos(y1)", "G2 = 1.0", "G3 = 0.0"]
    return VectorField(2, 1, _jet_of_lines(2, 1, lines, "counterexample",
                                           sin=math.sin, cos=math.cos),
                       name="counterexample")


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
        d, m, _jet, bounds=FieldBounds(f_inf=f_inf, grad_inf=g_inf),
        name="tanh")


def zero_field(d: int = 1, m: int = 1) -> VectorField:
    if d < 1 or m < 1:
        raise ValueError(f"zero_field needs d, m >= 1, got d={d}, m={m}")
    lines = [f"{v}{k} = 0.0" for v, n in (("F", d * m), ("G", d * m * d))
             for k in range(n)]
    return VectorField(d, m, _jet_of_lines(d, m, lines, "zero"),
                       bounds=FieldBounds(0.0, 0.0), name="zero")


_FIELDS = {"linear": linear_field, "counterexample": counterexample_field,
           "tanh": tanh_field, "zero": zero_field}


def make_field(name: str, **params) -> VectorField:
    """Field registry for configuration files: the builtin `name` called
    with params, so a parameter it does not take raises TypeError."""
    if name not in _FIELDS:
        raise ValueError(f"unknown field {name!r}")
    return _FIELDS[name](**params)
