"""Second-order (Davie) stepping for rough differential equations.

For dy = f(y) dx driven by a level-2 rough path the step over
[t_i, t_i+1] is

    y+ = y + f(y) x1(t_i, t_i+1) + (f . grad f)(y) x2(t_i, t_i+1)

which is exactly the first-order-plus-area expansion whose sewn limit
defines the solution; on smooth drivers it reduces to a second-order
Taylor scheme.  One step map serves the mesh loop and the bisection
that locates where |y| first crosses r_max (the operational stand-in for
blow-up).  A solution is its partial rough path (x, y, int dy (x) dx):
the cross integral against the driver is stored per interval, f(y_i)
paired with the driver's level 2.  The module also carries the
partition rule and a-priori sup bound for bounded fields.

A corrected variant integrates against a decomposed driver: the rough
step uses the geometric part while a Young term h2(y) dbeta adds the
area-drift contribution.  With (h1, h2) = (f, f . grad f) and
(x_hat, beta) = decompose(x) the two routes agree step for step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .partial_rough_paths import PartialRoughPath
from .rough_paths import (AreaDrift, RoughPath, _write_csv, dilate,
                          geometricity_defect, pvar_norm)
from .vector_fields import FieldBounds, SecondOrderField, VectorField

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


class FieldEvaluationError(RuntimeError):
    """A field produced NaN/Inf during stepping."""

    def __init__(self, t, y):
        super().__init__(f"field evaluation produced a non-finite value at "
                         f"t={t!r}, y={np.asarray(y).tolist()!r}")
        self.t = t
        self.y = np.array(y)   # a copy: y may be a row of a solver buffer


@dataclass
class SolverConfig:
    """Stepping and detection parameters."""

    base_mesh: int = 4096
    r_max: float = 1e6
    p: float = 2.0
    state_projection: object | None = None

    def __post_init__(self):
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


def _solve_mesh(T: float, cfg: SolverConfig) -> np.ndarray:
    if cfg.base_mesh < 1 or cfg.base_mesh > _MAX_STEPS:
        raise ValueError("base_mesh out of range")
    return np.linspace(0.0, T, cfg.base_mesh + 1)


def _davie_step(x: RoughPath, f: VectorField, young: tuple | None):
    """The Davie step map and the per-interval inputs it takes on a mesh.

    step(y, u, b, db, out) = (y + f(y) u + (f . grad f)(y) b + h2(y) db,
    f(y)), the new state written into out when out is given, with
    (u, x2, b, db) one row of increments(mesh): the driver's two levels,
    b = x2, or x2 + dbeta when h2 is f's own derived field, and
    db = dbeta, or None when there is no separate Young term.  The b
    term is contracted without assembling the derived field: with
    P[j,c] = sum_i b[i,j] f[c,i] it is grad f(y) flattened against P.
    """
    d, m = f.d, f.m
    h2, beta = young if young is not None else (None, None)
    if getattr(h2, "source", None) is f:
        h2 = None   # fused into b

    def increments(mesh):
        u, x2 = x.increments_on_mesh(mesh)
        if beta is None:
            return u, x2, x2, None
        dbeta = beta.increments_on_mesh(mesh)
        if h2 is None:
            return u, x2, x2 + dbeta, None
        return u, x2, x2, dbeta.reshape(len(u), m * m)

    def step(y, u, b, db, out=None):
        # .dot: the same products and bits as @ at half its call overhead
        fe = f.eval(y)
        w = b.T.dot(fe.T)
        dy = fe.dot(u) + f.grad(y).reshape(d, m * d).dot(w.reshape(m * d))
        if db is not None:
            dy += h2.eval(y).reshape(d, m * m).dot(db)
        # the loop passes its trajectory row as out: the sum lands where
        # it is kept, with no array allocated for it and no copy after
        return np.add(y, dy, out=out), fe

    return increments, step


def _entry_checks(xs, f: VectorField, a, T: float,
                  cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """The checks both loops make before stepping, against every driver
    in xs; returns the start state (a fresh copy) and the mesh."""
    d, m = f.d, f.m
    if 2.0 + f.gamma <= cfg.p:
        raise ValueError("need 2 + gamma > p")
    y = np.asarray(a, dtype=float).copy()
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    if y.shape != (d,):
        raise ValueError(f"initial state must have shape ({d},)")
    for x in xs:
        T = _horizon(x, T)
        if x.m != m:
            raise ValueError(f"driver dimension {x.m} does not match field "
                             f"m={m}")
    return y, _solve_mesh(T, cfg)


def _crossing(increments, step, y, t0: float, t1: float,
              r_max: float) -> tuple[BlowupRecord, np.ndarray]:
    """Bisect [t0, t1], a step from y that leaves the ball of radius
    r_max, for the crossing time, with the same step map run from t0 to
    tau; returns the record and the state at the crossing."""

    def state_at(tau):
        u, _, b, db = increments(np.array([t0, tau]))
        return step(y, u[0], b[0], None if db is None else db[0])[0]

    lo, hi = t0, t1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(state_at(mid)) >= r_max:
            hi = mid
        else:
            lo = mid
    y_cross = state_at(hi)
    return BlowupRecord(r_max, hi, float(np.linalg.norm(y_cross))), y_cross


def _solution(x: RoughPath, times, traj, fes, x2_all, cfg: SolverConfig,
              blow) -> RDESolution:
    """The solution over times (the mesh up to the last step taken, or
    to the crossing time) from the states and field values stepped."""
    x2_inc = x2_all if blow is None else x.increments_on_mesh(times)[1]
    cross_inc = np.einsum("kdm,kmn->kdn", fes, x2_inc)
    return RDESolution(times, x.at(times)[0], x2_inc, traj, cross_inc, cfg.p,
                       blow)


def _davie_loop(x: RoughPath, f: VectorField, a, T: float,
                cfg: SolverConfig, young: tuple | None) -> RDESolution:
    """The stepping loop of one trajectory; young = (h2, beta) adds the
    drift term.

    A step whose state leaves the ball of radius r_max is bisected for
    the crossing time (_crossing).
    """
    d, m = f.d, f.m
    y, mesh = _entry_checks([x], f, a, T, cfg)
    K = len(mesh) - 1
    increments, step = _davie_step(x, f, young)
    u_all, x2_all, b_all, db_all = increments(mesh)
    traj = np.empty((K + 1, d))
    traj[0] = y
    fes = np.empty((K, d, m))
    proj = cfg.state_projection
    r2 = cfg.r_max * cfg.r_max
    blow = None
    last = K
    for i in range(K):
        # y holds traj[i]; the step writes the new state into traj[i + 1]
        y_new, fes[i] = step(y, u_all[i], b_all[i],
                             None if db_all is None else db_all[i],
                             traj[i + 1])
        ny2 = float(y_new.dot(y_new))
        if not (ny2 <= r2):
            if not math.isfinite(ny2):
                raise FieldEvaluationError(mesh[i], y)
            blow, traj[i + 1] = _crossing(increments, step, y, mesh[i],
                                          mesh[i + 1], cfg.r_max)
            last = i + 1
            mesh = np.concatenate([mesh[:i + 1], [blow.crossing_time]])
            break
        if proj is not None:
            y_new[...] = proj(y_new)
        y = y_new
    return _solution(x, mesh[:last + 1], traj[:last + 1], fes[:last], x2_all,
                     cfg, blow)


def _davie_stack(xs, f: VectorField, a, T: float, cfg: SolverConfig) -> list:
    """[solve_rde(x, f, a, T, cfg) for x in xs], bit for bit: the stack
    batches, and solve_rde solves every row the stack cannot finish or
    cannot batch.

    Two drivers or more, a stacked field (VectorField.stacked) and no
    state projection step from a on one uniform mesh as one (B, d) stack
    of states, one field call per step for all rows, in np.matmul on the
    views that give ndarray.dot's bits.  A row whose state leaves the
    ball of radius r_max or is not finite leaves the stack; after the
    loop solve_rde solves it again, in the order of xs, so it bisects the
    crossing or raises the row's FieldEvaluationError as solving the rows
    in turn would.  Other inputs go to solve_rde row by row.
    """
    if len(xs) < 2 or not f.stacked or cfg.state_projection is not None:
        return [solve_rde(x, f, a, T, cfg) for x in xs]
    d, m = f.d, f.m
    y, mesh = _entry_checks(xs, f, a, T, cfg)
    K = len(mesh) - 1
    incs = [x.increments_on_mesh(mesh) for x in xs]
    U = np.stack([u for u, _ in incs], axis=1)            # (K, B, m)
    X2 = np.stack([x2 for _, x2 in incs], axis=1)         # (K, B, m, m)
    B = len(xs)
    traj = np.empty((B, K + 1, d))
    traj[:, 0] = y
    fes = np.empty((B, K, d, m))
    r2 = cfg.r_max * cfg.r_max
    idx = np.arange(B)         # the row of each stack entry
    rows = slice(None)         # idx, as basic indexing while the stack is full
    Y = np.repeat(y[None], B, axis=0)
    n = B                      # rows in the stack
    for i in range(K):
        # the solo step's products, stacked: y + f u + grad f . (b^T f^T)
        fe = f.eval(Y)
        w = np.matmul(X2[i].swapaxes(-1, -2), fe.swapaxes(-1, -2))
        dy = (np.matmul(fe, U[i][..., None])
              + np.matmul(f.grad(Y).reshape(n, d, m * d),
                          w.reshape(n, m * d, 1)))
        Y_new = Y + dy.reshape(n, d)
        fes[rows, i] = fe
        ny2 = np.matmul(Y_new[:, None, :], Y_new[:, :, None])
        if not (ny2.max() <= r2):
            # rows out of the ball, or not finite, leave the stack
            keep = np.flatnonzero(ny2.reshape(n) <= r2)
            idx, Y_new, U, X2 = idx[keep], Y_new[keep], U[:, keep], X2[:, keep]
            rows, n = idx, len(idx)
            if n == 0:
                break
        Y = Y_new
        traj[rows, i + 1] = Y
    kept = set(idx.tolist())
    return [_solution(x, mesh.copy(), traj[k], fes[k], incs[k][1], cfg, None)
            if k in kept else solve_rde(x, f, a, T, cfg)
            for k, x in enumerate(xs)]


def solve_rde(x: RoughPath, f: VectorField, a, T: float,
              cfg: SolverConfig | None = None) -> RDESolution:
    """Solve dy = f(y) dx up to time T, T in (0, x.T], on a uniform mesh.

    Threshold crossings are returned in the solution's blowup record,
    not raised; non-finite field output raises FieldEvaluationError.
    """
    return _davie_loop(x, f, a, T, cfg or SolverConfig(), None)


def solve_rde_corrected(x_hat: RoughPath, beta: AreaDrift, h1: VectorField,
                        h2, a, T: float,
                        cfg: SolverConfig | None = None) -> RDESolution:
    """Solve dz = h1(z) dx_hat + h2(z) dbeta (rough step plus Young term).

    h2 maps states to (d, m, m) arrays (a SecondOrderField or compatible);
    with (x_hat, beta) = decompose(x) and (h1, h2) = (f, f . grad f) the
    result matches solve_rde on the recomposed driver.
    """
    if not isinstance(h2, SecondOrderField):
        h2 = SecondOrderField(h1.d, h1.m, h2)
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
    cfg = cfg or SolverConfig()
    if not (math.isfinite(bounds.f_inf) and math.isfinite(bounds.grad_inf)):
        raise ValueError("adaptive_partition needs declared finite bounds")
    T = _horizon(x, T)
    norm = pvar_norm(x, cfg.p)
    denom = bounds.f_inf + _MU * bounds.grad_inf
    if norm == 0.0 or denom == 0.0:
        # a frozen driver or a vanishing field never moves the state
        return PartitionResult(np.array([0.0, T]), math.inf, math.inf, norm)
    L = (_STEP_RULE_K * _MU / denom) ** cfg.p
    target = L * norm ** (-cfg.p)
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
    cfg = cfg or SolverConfig()
    if not (math.isfinite(bounds.f_inf) and math.isfinite(bounds.grad_inf)):
        raise ValueError("apriori_sup_bound needs declared finite bounds")
    T = _horizon(x, T)
    norm = pvar_norm(x, cfg.p)
    denom = bounds.f_inf + _MU * bounds.grad_inf
    if denom == 0.0:
        return _MU * (1.0 + norm ** cfg.p * T)
    L = (_STEP_RULE_K * _MU / denom) ** cfg.p
    C = _MU + _MU / L
    return C * (1.0 + norm ** cfg.p * T)


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

    Solves the equation for every dilated driver through the stacked
    loop, each row equal to solve_rde on its driver bit for bit: the stack
    batches, and solve_rde solves every row the stack cannot finish (a
    crossing of r_max, a non-finite state) or cannot batch (one lambda,
    a field not declared stacked, a state projection).  Then it fits
    log(sup|y| + 1) <= c1 + c2 * s, s = ||x_lam||^p * T, with the
    intercept lifted to cover every run (reported slack >= 0).  Any
    explosion under a geometric driver is a falsification event and
    fails the report.  A driver whose geometricity defect exceeds
    _GEOMETRICITY_TOL * max(1, max|level2|) raises ValueError.

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
    xs = [dilate(x, lam) for lam in lambdas]
    sols = _davie_stack(xs, f, a, T, cfg)
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
    return json.dumps({
        "threshold": sol.blowup.threshold,
        "crossing_time": sol.blowup.crossing_time,
        "last_value_norm": sol.blowup.last_value_norm,
        "note": sol.blowup.note,
    }, indent=2, sort_keys=True)
