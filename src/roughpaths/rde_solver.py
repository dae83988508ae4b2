"""Second-order (Davie) stepping for rough differential equations.

For dy = f(y) dx driven by a level-2 rough path the step over
[t_i, t_i+1] is

    y+ = y + f(y) x1(t_i, t_i+1) + (f . grad f)(y) x2(t_i, t_i+1)

which is exactly the first-order-plus-area expansion whose sewn limit
defines the solution; on smooth drivers it reduces to a second-order
Taylor scheme.  Each solve generates and compiles one function, the
loop, as straight-line Python for its d, m and route: it steps a block
of mesh rows on Python floats with the state in locals, fed by the
field's jet once per step (a field is its jet: VectorField.jet), or by
the jet's source lines in place of the call (the counterexample and
zero fields'), so no interpreted loop runs per step, no numpy call
costs its overhead per step and no bit depends on a BLAS kernel.  Every
sum runs left to right, with the bits, signs of zero included, of a loop
`s = 0.0; s += t` (_davie_step: only each state row's first inner sum
needs the 0.0).  The bisection that locates where |y| first crosses
r_max (the operational stand-in for blow-up) runs the same loop, and
the ball test is taken after any state projection, on the state the
loop stores.

The driver is read through its segment query (segments._Segments):
per driver segment k the increment (u_k, b_k) in log coordinates, L_k =
b_k - 0.5 u_k (x) u_k, so that a mesh row inside segment k, with c =
(t - s) / dt_k, is (c u_k, c L_k + c^2 0.5 u_k (x) u_k, c dbeta_k), a
row between grid points is the stored increment, and one that spans
them the Chen product of a partial head, the stored increment and a
partial tail.  The loop reads each row's level 2 row-major, as the
query returns it, so neither a chunk nor a single row is permuted.  The
formula has two evaluations with equal floats: on numpy arrays for a
chunk of mesh rows, which also gives the solution's level 1 at the
mesh times and its level-2 increments, and, for one row inside a
driver segment, on Python floats (any other single row is one numpy
row), which the crossing bisection steps over; no solve calls
RoughPath.at.

The solve streams its mesh: it queries the driver _CHUNK rows at a
time, reads each block's inputs from the chunk's rows and packs each
block's records, one (f(y), y+) per step, into a chunk-sized buffer,
each with one struct call, so that apart from the solution's own arrays
nothing it holds grows with the mesh; after a crossing it queries the
driver once more on the one row [t_i, crossing time], and returns
copies of the rows it filled.  In the traced benchmark runs (seed 17,
2-vCPU Intel Xeon, Python 3.11.7) a step on the plain route, driver
query included, took 0.64 us on `explosion`, 0.77 us on `growth` and
1.28 us on `changevar`; generating and compiling the loop costs
0.21 ms per solve at d = 2 (0.24 ms corrected) and 0.51 ms at
d = m = 3 (0.66 ms corrected), medians of 50.

A solution is its partial rough path (x, y, int dy (x) dx): the cross
integral against the driver is stored per interval, f(y_i) paired with
the driver's level 2.  The module also carries the partition rule and
a-priori sup bound for bounded fields.

The corrected route integrates against a decomposed driver: the rough
step uses the geometric part while a Young term h2(y) dbeta adds the
area-drift contribution, read from h2's jet (SecondOrderField.jet) on
the same floats.  With (h1, h2) = (f, f . grad f) and
(x_hat, beta) = decompose(x) the two routes agree up to rounding.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import asdict, dataclass
from numbers import Integral

import numpy as np

from .partial_rough_paths import PartialRoughPath
from .rough_paths import (_EPS, AreaDrift, RoughPath, _write_csv, dilate,
                          geometricity_defect, pvar_norm)
from .vector_fields import (FieldBounds, SecondOrderField, VectorField,
                            _compiled, _sum_lines)

__all__ = [
    "SolverConfig",
    "BlowupRecord",
    "RDESolution",
    "FieldEvaluationError",
    "solve_rde",
    "solve_rde_corrected",
    "adaptive_partition",
    "PartitionResult",
    "apriori_sup_bound",
    "growth_bound_check",
    "GrowthReport",
    "solution_to_partial",
    "write_solution_csv",
    "blowup_json",
]

# growth_bound_check rejects a driver whose geometricity defect exceeds
# this times max(1, max|level2|): the defect is roundoff relative to the
# driver's level 2, as the bound of `rde lift` is.
_GEOMETRICITY_TOL = 1e-8

# The most steps a solve mesh, and intervals a partition, may have.
_MAX_STEPS = 4_000_000

# K and mu of the bounded-field partition rule and the a-priori sup bound:
# calibration constants (the underlying estimates only assert their
# existence), chosen so the partition rule produces a handful of intervals
# on unit-size problems.
_STEP_RULE_K = 1.0
_MU = 1.0

# A start the state projection moves by more than this times
# eps max(1, |y0|) in any entry is off the projection's image.  The
# sphere projection moves a chart start (ShiftedMap.state_of) by at
# most 1.0 eps max(1, |y0|): 80,000 random starts, d = 1-4.
_PROJECTION_SLACK = 4.0


class FieldEvaluationError(RuntimeError):
    """A step from y at time t gave a state that is not finite, or whose
    squared norm overflows."""

    def __init__(self, t, y):
        self.t = float(t)      # a Python float, not a mesh's np.float64
        self.y = np.array(y)   # an array of its own
        super().__init__(f"the step from t={self.t!r}, "
                         f"y={self.y.tolist()!r} gave a state whose "
                         f"squared norm is not a finite float")


@dataclass(frozen=True)
class SolverConfig:
    """Stepping and detection parameters, frozen and checked in full when
    built: base_mesh, the solve's number of uniform steps, an integer in
    [1, _MAX_STEPS]; r_max > 0; p in [2, 3).  state_projection, if set,
    maps each state a step gives, a list of d Python floats, to the d
    floats the loop tests against r_max, stores and steps from next (its
    input or a reused buffer will do: the loop copies the values out).
    The crossing bisection relies on it mapping a state it returned to
    itself, up to rounding, as sphere_state_projection does, and a solve
    rejects a start that it moves."""

    base_mesh: int = 4096
    r_max: float = 1e6
    p: float = 2.0
    state_projection: object | None = None

    def __post_init__(self):
        # a bool is an Integral, but not a step count
        if not (isinstance(self.base_mesh, Integral)
                and not isinstance(self.base_mesh, bool)
                and 1 <= self.base_mesh <= _MAX_STEPS):
            raise ValueError(f"base_mesh must be an integer in [1, "
                             f"{_MAX_STEPS}], got {self.base_mesh!r}")
        if not (self.r_max > 0):
            raise ValueError("r_max must be positive")
        if not (2.0 <= self.p < 3.0):
            raise ValueError("p must lie in [2, 3)")


@dataclass
class BlowupRecord:
    """Threshold-crossing report standing in for a blow-up time.

    The crossing time is where |y| first exceeded the threshold; the true
    explosion time is a limit and can only be later under continued
    monotone growth, which is what the note records.
    """

    threshold: float
    crossing_time: float
    last_value_norm: float
    note: str = ("threshold crossing time; an actual explosion time can only "
                 "exceed it if |y| keeps growing")


@dataclass(frozen=True)
class RDESolution(PartialRoughPath):
    """A solution on its mesh: the partial rough path (x, y, cross) of the
    driver's level 1 and 2 at the solution's times, the states, and
    cross_inc[k] = f(y_k) x2_inc[k], with p the solve's.

    The triple's own checks hold (finite values, strictly increasing
    times, matching shapes), and its cross integral extends to any pair
    of mesh times.  blowup records a threshold crossing, which ends the
    solution at the crossing time (len(times) - 1 steps taken).  The
    solver computes no diagnostic: measures of the driver, such as
    pvar_norm or geometricity_defect, are for the caller to ask for.
    """

    blowup: BlowupRecord | None = None

    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.y, axis=1)))


def _davie_step(x: RoughPath, f: VectorField, young: tuple | None,
                proj=None):
    """The Davie solve loop on Python floats, and the per-interval inputs
    it takes, from the driver's segment query (segments._Segments).

    increments(mesh) returns the driver's level 1 at the mesh times, its
    level-2 increments and one row of step inputs per interval,
    r = (u, b[, dbeta]) flattened, b row-major as the segment query
    returns it: the driver's level-1 increment, its level-2 increment
    b = x2 and, given young = (h2, beta), beta's increment.
    row_of(s, t) is the one row r over [s, t] as a list of Python
    floats, the floats of increments' row over it.
    loop(y, rows, n2_max, out) steps the state y (d floats) over rows,
    the inputs of consecutive intervals as one flat sequence of floats,
    with one call of f's jet and, on the corrected route, one of h2's
    per step:

        y+_a = y_a + ((sum_i f_ai u_i + sum_jc grad f_ajc P_jc)
                      + sum_ij h2_aij dbeta_ij),
        P_jc = sum_i b_ij f_ci,

    then y+ = proj(y+) if proj is given, and n2 = |y+|^2.  It extends out
    by one record per step with n2 <= n2_max, the floats (f(y), y+), and
    by f(y) alone at the first step that fails the test, where it stops;
    it returns the last state accepted (a list) and the last n2.

    The loop is straight-line code for f's d and m and the route (plain
    or corrected), compiled once per solve: each state row is one
    expression, y_a + ((0.0 + f . u) + (grad f . P) [+ (h2 . dbeta)]),
    its sums left to right (vector_fields._sum_lines), no BLAS kernel.
    Only f . u starts from 0.0, yet every bit is that of sums all from
    0.0 (`s = 0.0; s += t0; ...`): a sum from 0.0 is never -0.0, so
    adding to it a sum that differs from its 0.0-started form at most in
    the sign of a zero gives the same float; P reaches y+ only through
    such a sum; and n2 sums squares, never -0.0.  The state lives in
    locals y0.. (a list y where a called jet takes it), f in F0.. and
    grad f in G0..: set by f.jet's source lines while f.jet is the
    function compiled from them (jet.lines, as the counterexample and
    zero fields'), else by one call of f's jet, unpacked.
    """
    d, m = f.d, f.m
    h2 = None if young is None else young[0]
    xq = x._segments
    bq = None if young is None else young[1]._segments
    mm, md = m * m, m * d

    def increments(mesh):
        located = xq.locate(mesh)
        level1 = xq.values(*located, level2=False)[0]
        u, x2 = xq.rows(*located)
        cols = [u, x2.reshape(len(u), mm)]
        if bq is not None:
            # decompose gives both parts one times array
            cols.append(bq.rows(*(located if bq.times is xq.times
                                  else bq.locate(mesh)))[0])
        return level1, x2, np.concatenate(cols, axis=1)

    def row_of(s, t):
        r = xq.row(s, t)
        return r if bq is None else r + bq.row(s, t)

    def names(v, n):
        return ", ".join(f"{v}{k}" for k in range(n))

    Y, V = names("y", d), names("v", d)
    F, G = names("F", md), names("G", md * d)
    R = [f"r{k}" for k in range(m + mm + (0 if h2 is None else mm))]
    lines = getattr(f.jet, "lines", None)
    # a called jet takes the state as a list
    body = [f"y = [{Y}]"] if lines is None or h2 is not None else []
    body += (list(lines) if lines is not None else
             ["F, G = f_jet(y)", f"{F}, = F", f"{G}, = G"])

    def summed(name, terms):
        # terms summed left to right, as an expression: the last of the
        # lines _sum_lines writes, the lines before it (a sum too long
        # for one line) set into body
        *before, last = _sum_lines(name, terms[1:], terms[0])
        body.extend(before)
        return "(" + last.partition(" = ")[2] + ")"

    # P_jc pairs b (R[m:m + mm], row-major) with f; row a pairs f with u
    # (R[:m]), grad f with P and h2 with dbeta (R[m + mm:])
    for j in range(m):
        for c in range(d):
            body.append(f"P{j}_{c} = " + summed("p", [
                f"{R[m + i * m + j]} * F{c * m + i}" for i in range(m)]))
    if h2 is not None:
        body.append("H = h2_jet(y)")
    for a in range(d):
        row = [summed("s", ["0.0", *(f"F{a * m + i} * {R[i]}"
                                     for i in range(m))]),
               summed("t", [f"G{a * md + j * d + c} * P{j}_{c}"
                            for j in range(m) for c in range(d)])]
        if h2 is not None:
            row.append(summed("h", [f"H[{a * mm + k}] * {R[m + mm + k]}"
                                    for k in range(mm)]))
        body.append(f"v{a} = y{a} + ({' + '.join(row)})")
    if proj is not None:
        body.append(f"{V}, = proj([{V}])")
    body.append("n2 = " + summed("n2", [f"v{a} * v{a}" for a in range(d)]))
    route = "plain" if h2 is None else "corrected"
    env = dict(getattr(f.jet, "env", {}), f_jet=f.jet, proj=proj,
               h2_jet=None if h2 is None else h2.jet)
    loop = _compiled("loop", "y, rows, n2_max, out", [
        f"{Y}, = y", "it = iter(rows)",
        f"for {', '.join(R)}, in zip({', '.join(['it'] * len(R))}):",
        *(f"    {s}" for s in [*body, "if not n2 <= n2_max:",
                               f"    out += ({F},)",
                               f"    return [{Y}], n2",
                               f"out += ({F}, {V},)",
                               *(f"y{a} = v{a}" for a in range(d))]),
        f"return [{Y}], n2"], f"<davie loop d={d} m={m} {route}>", **env)
    return increments, row_of, loop


def _entry_checks(x: RoughPath, f: VectorField, a, T: float,
                  cfg: SolverConfig,
                  young: tuple | None) -> tuple[np.ndarray, np.ndarray]:
    """The checks made before stepping; returns the start state (a fresh
    copy) and the mesh.  f's jet, and h2's given young = (h2, beta), are
    called once at the start state, so that one giving a wrong number of
    values raises ValueError here rather than stepping on it; the
    driver's grid, and beta's, must cover [0, T]; a state projection
    must leave the start where it is, up to rounding."""
    d, m = f.d, f.m
    y = np.asarray(a, dtype=float).copy()
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    if y.shape != (d,):
        raise ValueError(f"initial state must have shape ({d},)")
    T = _horizon(x, T)
    if x.times[0] > 1e-12:
        raise ValueError(f"the driver's grid [{x.times[0]}, {x.times[-1]}] "
                         f"does not cover the horizon [0, {T}]")
    if cfg.state_projection is not None:
        start = y.tolist()
        image = [float(v) for v in cfg.state_projection(list(start))]
        slack = _PROJECTION_SLACK * _EPS * max(1.0, math.hypot(*start))
        if not all(abs(u - v) <= slack for u, v in zip(image, start)):
            raise ValueError(f"the state projection moves the start "
                             f"{start} to {image}: the start is off its "
                             f"image")
    if x.m != m:
        raise ValueError(f"driver dimension {x.m} does not match field "
                         f"m={m}")
    F, G = f.jet(y.tolist())
    if (len(F), len(G)) != (d * m, d * m * d):
        raise ValueError(f"field {f.name!r} (d={d}, m={m}): its jet gave "
                         f"{len(F)} values of f and {len(G)} of grad f, "
                         f"expected {d * m} and {d * m * d}")
    if young is not None:
        h2, beta = young
        bt = beta.times
        if not (bt[0] <= 1e-12 and T <= bt[-1] + 1e-12):
            raise ValueError(f"beta's grid [{bt[0]}, {bt[-1]}] does not "
                             f"cover the horizon [0, {T}]")
        n = len(h2.jet(y.tolist()))
        if n != d * m * m:
            raise ValueError(f"h2 (d={d}, m={m}): its jet gave {n} values, "
                             f"expected {d * m * m}")
    return y, np.linspace(0.0, T, cfg.base_mesh + 1)


def _crossing(row_of, loop, y, t0: float, t1: float,
              r_max: float) -> tuple[BlowupRecord, list]:
    """Bisect [t0, t1], a step from y whose stored state leaves the ball
    of radius r_max, for the crossing time, each trial the solve loop
    over the one float row [t0, tau] with no ball to leave; returns the
    record and the state at the crossing."""

    def state_at(tau):
        y_tau, n2 = loop(y, row_of(t0, tau), math.inf, [])
        return y_tau, math.sqrt(n2)

    lo, hi = t0, t1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if state_at(mid)[1] >= r_max:
            hi = mid
        else:
            lo = mid
    y_cross, norm = state_at(hi)
    return BlowupRecord(r_max, hi, norm), y_cross


# steps the generated loop takes per call: their inputs are read, and
# their records written, as one block of Python floats.  The per-block
# calls cost nothing measurable at this size (on explosion-demo's fine
# solve, blocks of 64 to 512 took the same time within the run-to-run
# noise and blocks of 4096 were slower), and the block's float objects
# add no measurable peak memory
_BLOCK = 256

# mesh rows the driver is queried for at a time: the query's temporaries,
# the chunk's step inputs and its record buffer scale with it, not with
# the mesh
_CHUNK = 32 * _BLOCK


def _davie_loop(x: RoughPath, f: VectorField, a, T: float,
                cfg: SolverConfig, young: tuple | None) -> RDESolution:
    """The stepping loop of one trajectory; young = (h2, beta) adds the
    drift term.

    The driver is queried _CHUNK mesh rows at a time, its level 1 and
    level-2 increments written into the solution's arrays.  The
    generated loop steps a block of a chunk's rows at a time, its inputs
    read from the chunk's rows and its records (f(y), y+) packed into
    the chunk's record buffer, each with one struct call (native 'd' is
    float64, so no value changes); at the end of a chunk the states go
    into the trajectory and the cross integral of its f values into
    cross_inc.  A step whose stored state leaves the ball of radius r_max
    is bisected for the crossing time (_crossing), the driver is queried
    once more on the one row [t_i, crossing time] (the query works row
    by row, so every other row keeps its bits), and the solution gets
    copies of the rows filled, not views of the whole mesh's buffers;
    a step whose squared norm is not a finite float raises
    FieldEvaluationError with the state it stepped from, whatever r_max
    is.
    """
    d, m = f.d, f.m
    md, rec_w = d * m, d * m + d
    y0, mesh = _entry_checks(x, f, a, T, cfg, young)
    K = len(mesh) - 1
    increments, row_of, loop = _davie_step(x, f, young, cfg.state_projection)
    level1 = np.empty((K + 1, m))
    x2_inc = np.empty((K, m, m))
    traj = np.empty((K + 1, d))
    traj[0] = y0
    cross_inc = np.empty((K, d, m))
    rec = np.empty((min(K, _CHUNK), rec_w))
    # clamped, so that an infinite r_max still stops a non-finite state
    r2 = min(cfg.r_max * cfg.r_max, sys.float_info.max)
    y = y0.tolist()
    blow = None
    for c0 in range(0, K, _CHUNK):
        c1 = min(c0 + _CHUNK, K)
        level1[c0:c1 + 1], x2_inc[c0:c1], rows = increments(mesh[c0:c1 + 1])
        width = rows.shape[1]
        for lo in range(0, c1 - c0, _BLOCK):
            n = min(_BLOCK, c1 - c0 - lo)
            out = []
            y, n2 = loop(y, struct.unpack_from(f"{n * width}d", rows,
                                               8 * lo * width), r2, out)
            if not (n2 <= r2):
                i = c0 + lo + len(out) // rec_w
                if not math.isfinite(n2):
                    raise FieldEvaluationError(mesh[i], y)
                blow, y_cross = _crossing(row_of, loop, y, float(mesh[i]),
                                          float(mesh[i + 1]), cfg.r_max)
                out += y_cross
                c1 = i + 1
                mesh = np.append(mesh[:c1], blow.crossing_time)
                l1, x2 = increments(mesh[i:])[:2]
                level1[c1], x2_inc[i] = l1[1], x2[0]
            struct.pack_into(f"{len(out)}d", rec, 8 * lo * rec_w, *out)
            if blow is not None:
                break
        k = c1 - c0
        traj[c0 + 1:c1 + 1] = rec[:k, md:]
        np.einsum("kdm,kmn->kdn",
                  np.ascontiguousarray(rec[:k, :md]).reshape(k, d, m),
                  x2_inc[c0:c1], out=cross_inc[c0:c1])
        if blow is not None:
            break
    arrays = [level1[:c1 + 1], x2_inc[:c1], traj[:c1 + 1], cross_inc[:c1]]
    if c1 < K:
        # views would keep the whole mesh's buffers alive
        arrays = [v.copy() for v in arrays]
    return RDESolution(mesh, *arrays, cfg.p, blow)


def solve_rde(x: RoughPath, f: VectorField, a, T: float,
              cfg: SolverConfig | None = None) -> RDESolution:
    """Solve dy = f(y) dx up to time T, T in (0, x.T], on a uniform mesh.

    Threshold crossings are returned in the solution's blowup record,
    not raised; a state that is not finite, or whose squared norm
    overflows, raises FieldEvaluationError whatever r_max is.
    """
    return _davie_loop(x, f, a, T, cfg or SolverConfig(), None)


def solve_rde_corrected(x_hat: RoughPath, beta: AreaDrift, h1: VectorField,
                        h2, a, T: float,
                        cfg: SolverConfig | None = None) -> RDESolution:
    """Solve dz = h1(z) dx_hat + h2(z) dbeta (rough step plus Young term).

    h2 is a SecondOrderField (else TypeError) with h1's d and m, and beta
    has x_hat's m and a grid that covers [0, T] (else ValueError, before
    the first step); with (x_hat, beta) = decompose(x) and (h1, h2) =
    (f, f . grad f) the result matches solve_rde on the recomposed driver
    up to rounding.
    """
    if not isinstance(h2, SecondOrderField):
        raise TypeError(f"h2 is a {type(h2).__name__}, not a SecondOrderField")
    if beta.m != x_hat.m or (h2.d, h2.m) != (h1.d, h1.m):
        raise ValueError(f"h2 (d, m) = ({h2.d}, {h2.m}), h1 ({h1.d}, {h1.m});"
                         f" beta m = {beta.m}, x_hat m = {x_hat.m}")
    return _davie_loop(x_hat, h1, a, T, cfg or SolverConfig(), (h2, beta))


# ---------------------------------------------------------------------------
# bounded-field machinery


@dataclass
class PartitionResult:
    times: np.ndarray
    L: float
    step_omega: float
    pvar: float

    @property
    def n_intervals(self) -> int:
        return len(self.times) - 1


def _horizon(x: RoughPath, T: float | None) -> float:
    """The horizon T (x.T when None), which must lie in (0, x.T]."""
    T = x.T if T is None else float(T)
    if not 0.0 < T <= x.T + 1e-12:
        raise ValueError(f"horizon {T} must lie in (0, {x.T}], the driver's "
                         f"range")
    return T


def _bounded_rule(caller: str, x: RoughPath, bounds: FieldBounds,
                  T: float | None, p: float):
    """The bounded-field rule's inputs (T, ||x||, L) at p, with
    L = (K mu / (|h|_inf + mu |grad h|_inf))^p, inf for a vanishing
    field.  Rejects undeclared bounds, naming caller, then a horizon
    outside (0, x.T]."""
    if not (math.isfinite(bounds.f_inf) and math.isfinite(bounds.grad_inf)):
        raise ValueError(f"{caller} needs declared finite bounds")
    T = _horizon(x, T)
    norm = pvar_norm(x, p)
    denom = bounds.f_inf + _MU * bounds.grad_inf
    L = math.inf if denom == 0.0 else (_STEP_RULE_K * _MU / denom) ** p
    return T, norm, L


def adaptive_partition(x: RoughPath, bounds: FieldBounds,
                       cfg: SolverConfig | None = None,
                       T: float | None = None) -> PartitionResult:
    """Partition of [0, T] into intervals of control mass L ||x||^-p.

    With the control omega(s, t) = t - s every interval has length
    target = (K mu / (|h|_inf + mu |grad h|_inf))^p ||x||^-p, the mass
    at which the frozen-coefficient step stays within mu for a bounded
    field: the points are k * target below T, then T.  Only meaningful
    for bounded fields; rejects undeclared bounds and a horizon outside
    (0, x.T], and raises RuntimeError before building a partition of
    over _MAX_STEPS intervals.
    """
    p = (cfg or SolverConfig()).p
    T, norm, L = _bounded_rule("adaptive_partition", x, bounds, T, p)
    if norm == 0.0 or L == math.inf:
        # a frozen driver or a vanishing field never moves the state
        return PartitionResult(np.array([0.0, T]), math.inf, math.inf, norm)
    target = L * norm ** (-p)
    if not T <= _MAX_STEPS * target:
        raise RuntimeError(f"partition exceeds the cap of {_MAX_STEPS} "
                           f"intervals")
    ts = np.arange(math.ceil(T / target)) * target
    return PartitionResult(np.append(ts[ts < T], T), L, target, norm)


def apriori_sup_bound(bounds: FieldBounds, x: RoughPath,
                      T: float | None = None,
                      cfg: SolverConfig | None = None) -> float:
    """A-priori sup_{t<=T} |z_t - z_0| bound for bounded fields.

    Each partition interval moves the state by at most mu and there are
    about 1 + T ||x||^p / L of them (the control omega(0, T) = T), giving
    (mu + mu/L)(1 + ||x||^p T).  Rejects a horizon outside (0, x.T].
    The calibrated K and mu make it too loose to gate on: on growth-demo's
    driver it gave log sup|y| <= 24 to 303 where solves gave 0.10 to 0.64.
    """
    p = (cfg or SolverConfig()).p
    T, norm, L = _bounded_rule("apriori_sup_bound", x, bounds, T, p)
    # mu / L is 0.0 for a vanishing field (L = inf)
    return (_MU + _MU / L) * (1.0 + norm ** p * T)


@dataclass
class GrowthReport:
    rows: list                  # per lambda: dict(lam, pvar, s, sup_y,
                                #   log_sup, explosion)
    c1: float
    c2: float
    min_slack: float
    any_explosion: bool
    passed: bool
    geometricity_defect: float  # of the undilated driver


def growth_bound_check(f: VectorField, x: RoughPath, a, T: float,
                       cfg: SolverConfig | None = None,
                       lambdas=(1.0, 2.0, 4.0, 8.0)) -> GrowthReport:
    """Scale a geometric driver and check log growth stays affine.

    Solves the equation with solve_rde for every dilated driver, in the
    order of lambdas, so the first lambda whose solve raises is the one
    whose error propagates.  Then it fits log(sup|y| + 1) <= c1 + c2 * s,
    s = ||x_lam||^p * T, with the intercept lifted to cover every run
    (reported slack >= 0).  Any explosion under a geometric driver is a
    falsification event and fails the report.  A driver whose
    geometricity defect exceeds _GEOMETRICITY_TOL * max(1, max|level2|)
    raises ValueError.

    The driver is scanned once: each row's pvar is lam * ||x||.  The
    p-variation norm is homogeneous under dilation, since u(s,t) scales
    by lam and b(s,t) by lam^2, so both parts of the norm scale by lam.
    For dyadic lam (powers of two) this equals pvar_norm(dilate(x, lam))
    bit for bit; otherwise up to rounding.  lambdas must be a non-empty
    sequence of finite positive numbers (lam = 0 against an infinite
    norm would give NaN).
    """
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambdas must not be empty")
    for lam in lambdas:
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"lambdas must be finite and positive, got {lam!r}")
    cfg = cfg or SolverConfig()
    gd = geometricity_defect(x)
    scale = max(1.0, float(np.max(np.abs(x.level2), initial=0.0)))
    if gd > _GEOMETRICITY_TOL * scale:
        raise ValueError(f"driver is not geometric (defect {gd:.2e})")
    base = pvar_norm(x, cfg.p)
    sols = [solve_rde(dilate(x, lam), f, a, T, cfg) for lam in lambdas]
    rows = []
    for lam, sol in zip(lambdas, sols):
        sup_y = sol.sup_norm()
        rows.append({
            "lam": lam,
            "pvar": lam * base,
            "s": (lam * base) ** cfg.p * float(T),
            "sup_y": sup_y,
            "log_sup": math.log(sup_y + 1.0),
            "explosion": sol.blowup is not None,
        })
    any_explosion = any(r["explosion"] for r in rows)
    s = np.array([r["s"] for r in rows])
    g = np.array([r["log_sup"] for r in rows])
    if len(set(np.round(s, 12))) >= 2:
        c2 = float(np.polyfit(s, g, 1)[0])
    else:
        c2 = 0.0
    c1 = float(np.max(g - c2 * s))
    slack = c1 + c2 * s - g
    passed = (not any_explosion) and bool(np.all(slack >= -1e-9))
    return GrowthReport(rows, c1, c2, float(np.min(slack)), any_explosion,
                        passed, gd)


# ---------------------------------------------------------------------------
# interchange


def solution_to_partial(sol: RDESolution, x: RoughPath) -> PartialRoughPath:
    """The partial rough path (x, y, cross) of a solution, at the solve's p.

    A solution is its triple, so sol itself is returned.  x is the driver
    the solution was computed on: one of another dimension, or that ends
    before the solution, raises ValueError.
    """
    if x.m != sol.m or sol.times[-1] > x.T + 1e-12:
        raise ValueError("x is not the driver of this solution")
    return sol


def write_solution_csv(sol: RDESolution, path) -> None:
    """Write the solution's grid values: `t,y1..yd`."""
    _write_csv(path, ["t"] + [f"y{i+1}" for i in range(sol.d)],
               np.column_stack([sol.times, sol.y]))


def blowup_json(sol: RDESolution) -> str | None:
    if sol.blowup is None:
        return None
    return json.dumps(asdict(sol.blowup), indent=2, sort_keys=True)
