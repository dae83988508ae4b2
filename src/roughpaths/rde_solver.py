"""Second-order (Davie) stepping for rough differential equations.

For dy = f(y) dx driven by a level-2 rough path the step over
[t_i, t_i+1] is

    y+ = y + f(y) x1(t_i, t_i+1) + (f . grad f)(y) x2(t_i, t_i+1)

which is exactly the first-order-plus-area expansion whose sewn limit
defines the solution; on smooth drivers it reduces to a second-order
Taylor scheme.  One step map serves the mesh loop and the bisection
that locates where |y| first crosses r_max (the operational stand-in for
blow-up).  The solution's cross integral against the driver is stored
per interval, f(y_i) paired with the driver's level 2, and the module
carries the partition rule and a-priori sup bound for bounded fields.

A corrected variant integrates against a decomposed driver: the rough
step uses the geometric part while a Young term h2(y) dbeta adds the
area-drift contribution.  With (h1, h2) = (f, f . grad f) and
(x_hat, beta) = decompose(x) the two routes agree step for step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .rough_paths import (AreaDrift, RoughPath, _write_csv,
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

class FieldEvaluationError(RuntimeError):
    """A field produced NaN/Inf during stepping."""

    def __init__(self, t, y):
        super().__init__(f"field evaluation produced a non-finite value at "
                         f"t={t!r}, y={np.asarray(y).tolist()!r}")
        self.t = t
        self.y = np.asarray(y)


@dataclass
class SolverConfig:
    """Stepping and detection parameters.

    step_rule_K and mu enter the bounded-field partition rule and the
    a-priori sup bound; they are calibration constants (the underlying
    estimates only assert their existence), chosen so the partition rule
    produces a handful of intervals on unit-size problems.
    """

    step_rule_K: float = 1.0
    mu: float = 1.0
    base_mesh: int = 4096
    r_max: float = 1e6
    max_steps: int = 4_000_000
    p: float = 2.0
    state_projection: object | None = None

    def __post_init__(self):
        if self.r_max <= 0:
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


@dataclass
class RDESolution:
    """Solution on its mesh, with the cross integral against the driver.

    x2_inc[k] is the driver's level 2 over [t_k, t_k+1] and cross_inc[k]
    = f(y_k) x2_inc[k] the cross integral there, the per-interval form
    PartialRoughPath stores (solution_to_partial extends both to any
    pair of mesh times).  diagnostics holds "step_count", the steps taken
    (fewer than the mesh has when a threshold crossing ends the solve).
    The solver computes no other diagnostic: measures of the driver, such
    as pvar_norm or geometricity_defect, are for the caller to ask for.
    """

    times: np.ndarray          # (K+1,)
    y: np.ndarray              # (K+1, d)
    x1: np.ndarray             # (K+1, m) driver level 1 at solution times
    x2_inc: np.ndarray         # (K, m, m) driver level 2 per interval
    cross_inc: np.ndarray      # (K, d, m) cross integral per interval
    blowup: BlowupRecord | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.y.shape[1]

    @property
    def m(self) -> int:
        return self.x1.shape[1]

    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.y, axis=1)))


def _solve_mesh(T: float, cfg: SolverConfig, times) -> np.ndarray:
    if times is not None:
        mesh = np.asarray(times, dtype=float)
        if mesh[0] != 0.0 or np.any(np.diff(mesh) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        return mesh
    if cfg.base_mesh < 1 or cfg.base_mesh > cfg.max_steps:
        raise ValueError("base_mesh out of range")
    return np.linspace(0.0, T, cfg.base_mesh + 1)


def _davie_step(x: RoughPath, f: VectorField, young: tuple | None):
    """The Davie step map and the per-interval inputs it takes on a mesh.

    step(y, u, b, db) = (y + f(y) u + (f . grad f)(y) b + h2(y) db, f(y))
    with (u, x2, b, db) one row of increments(mesh): the driver's two
    levels, b = x2, or x2 + dbeta when h2 is f's own derived field, and
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

    def step(y, u, b, db):
        # .dot: the same products and bits as @ at half its call overhead
        fe = f.eval(y)
        w = b.T.dot(fe.T)
        dy = fe.dot(u) + f.grad(y).reshape(d, m * d).dot(w.reshape(m * d))
        if db is not None:
            dy = dy + h2.eval(y).reshape(d, m * m).dot(db)
        return y + dy, fe

    return increments, step


def _davie_loop(x: RoughPath, f: VectorField, a, T: float,
                cfg: SolverConfig, times, young: tuple | None) -> RDESolution:
    """Shared entry checks and stepping loop; young = (h2, beta) adds
    the drift term.

    A step whose state leaves the ball of radius r_max is bisected for
    the crossing time with the same step map, run from t_i to tau.
    """
    d, m = f.d, f.m
    if 2.0 + f.gamma <= cfg.p:
        raise ValueError("need 2 + gamma > p")
    y = np.asarray(a, dtype=float).copy()
    if not np.all(np.isfinite(y)):
        raise ValueError("initial state must be finite")
    if y.shape != (d,):
        raise ValueError(f"initial state must have shape ({d},)")
    mesh = _solve_mesh(T, cfg, times)
    K = len(mesh) - 1
    if K > cfg.max_steps:
        raise ValueError(f"mesh has {K} steps, over max_steps={cfg.max_steps}")
    if mesh[-1] > x.T + 1e-12:
        raise ValueError(f"horizon {mesh[-1]} exceeds the driver's range "
                         f"[0, {x.T}]")
    if x.m != m:
        raise ValueError(f"driver dimension {x.m} does not match field m={m}")
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
        y_new, fes[i] = step(y, u_all[i], b_all[i],
                             None if db_all is None else db_all[i])
        ny2 = float(y_new.dot(y_new))
        if not (ny2 <= r2):
            if not math.isfinite(ny2):
                raise FieldEvaluationError(mesh[i], y)
            t0 = mesh[i]

            def state_at(tau):
                u, _, b, db = increments(np.array([t0, tau]))
                return step(y, u[0], b[0], None if db is None else db[0])[0]

            lo, hi = t0, mesh[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.linalg.norm(state_at(mid)) >= cfg.r_max:
                    hi = mid
                else:
                    lo = mid
            y_cross = state_at(hi)
            blow = BlowupRecord(cfg.r_max, hi, float(np.linalg.norm(y_cross)))
            traj[i + 1] = y_cross
            last = i + 1
            mesh = np.concatenate([mesh[:i + 1], [hi]])
            break
        y = y_new if proj is None else np.asarray(proj(y_new), dtype=float)
        traj[i + 1] = y
    times_out = mesh[:last + 1]
    x2_inc = x2_all if blow is None else x.increments_on_mesh(times_out)[1]
    cross_inc = np.einsum("kdm,kmn->kdn", fes[:last], x2_inc)
    return RDESolution(times_out, traj[:last + 1], x.at(times_out)[0],
                       x2_inc, cross_inc, blow, {"step_count": last})


def solve_rde(x: RoughPath, f: VectorField, a, T: float,
              cfg: SolverConfig | None = None, times=None) -> RDESolution:
    """Solve dy = f(y) dx up to time T on a uniform or supplied mesh.

    Threshold crossings are returned in the solution's blowup record,
    not raised; non-finite field output raises FieldEvaluationError.
    """
    return _davie_loop(x, f, a, T, cfg or SolverConfig(), times, None)


def solve_rde_corrected(x_hat: RoughPath, beta: AreaDrift, h1: VectorField,
                        h2, a, T: float, cfg: SolverConfig | None = None,
                        times=None) -> RDESolution:
    """Solve dz = h1(z) dx_hat + h2(z) dbeta (rough step plus Young term).

    h2 maps states to (d, m, m) arrays (a SecondOrderField or compatible);
    with (x_hat, beta) = decompose(x) and (h1, h2) = (f, f . grad f) the
    result matches solve_rde on the recomposed driver.
    """
    if not isinstance(h2, SecondOrderField):
        h2 = SecondOrderField(h1.d, h1.m, h2)
    return _davie_loop(x_hat, h1, a, T, cfg or SolverConfig(), times,
                       (h2, beta))


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


def adaptive_partition(x: RoughPath, bounds: FieldBounds,
                       cfg: SolverConfig | None = None,
                       T: float | None = None) -> PartitionResult:
    """Greedy partition with per-interval control mass L ||x||^-p.

    Each interval carries control mass omega(s_n, s_n+1) =
    (K mu / (|h|_inf + mu |grad h|_inf))^p ||x||^-p, the mass at which
    the frozen-coefficient step stays within mu for a bounded field.
    Only meaningful for bounded fields; rejects undeclared bounds.
    """
    cfg = cfg or SolverConfig()
    if not (math.isfinite(bounds.f_inf) and math.isfinite(bounds.grad_inf)):
        raise ValueError("adaptive_partition needs declared finite bounds")
    T = x.T if T is None else T
    norm = pvar_norm(x, cfg.p)
    denom = bounds.f_inf + cfg.mu * bounds.grad_inf
    if norm == 0.0 or denom == 0.0:
        # a frozen driver or a vanishing field never moves the state
        return PartitionResult(np.array([0.0, T]), math.inf, math.inf, norm)
    L = (cfg.step_rule_K * cfg.mu / denom) ** cfg.p
    target = L * norm ** (-cfg.p)
    ts = [0.0]
    while ts[-1] < T:
        s = ts[-1]
        if float(x.control(s, T)) <= target:
            ts.append(T)
            break
        # invert omega(s, .) = target by bisection (continuous controls)
        lo, hi = s, T
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if float(x.control(s, mid)) < target:
                lo = mid
            else:
                hi = mid
        nxt = hi
        if nxt <= s:
            raise RuntimeError("partition stalled; control may be degenerate")
        ts.append(min(nxt, T))
        if len(ts) > cfg.max_steps:
            raise RuntimeError("partition exceeds max_steps")
    return PartitionResult(np.asarray(ts), L, target, norm)


def apriori_sup_bound(bounds: FieldBounds, x: RoughPath,
                      T: float | None = None,
                      cfg: SolverConfig | None = None) -> float:
    """A-priori sup_{t<=T} |z_t - z_0| bound for bounded fields.

    Each partition interval moves the state by at most mu and there are
    about 1 + omega(0,T) ||x||^p / L of them, giving
    (mu + mu/L)(1 + ||x||^p omega(0,T)).
    """
    cfg = cfg or SolverConfig()
    if not (math.isfinite(bounds.f_inf) and math.isfinite(bounds.grad_inf)):
        raise ValueError("apriori_sup_bound needs declared finite bounds")
    T = x.T if T is None else T
    norm = pvar_norm(x, cfg.p)
    omega = float(x.control(0.0, T))
    denom = bounds.f_inf + cfg.mu * bounds.grad_inf
    if denom == 0.0:
        return cfg.mu * (1.0 + norm ** cfg.p * omega)
    L = (cfg.step_rule_K * cfg.mu / denom) ** cfg.p
    C = cfg.mu + cfg.mu / L
    return C * (1.0 + norm ** cfg.p * omega)


@dataclass
class GrowthReport:
    rows: list                  # per lambda: dict(lam, pvar, sup_y, log_sup)
    c1: float
    c2: float
    min_slack: float
    any_explosion: bool
    passed: bool
    geometricity_defect: float  # of the undilated driver


def growth_bound_check(f: VectorField, x: RoughPath, a, T: float,
                       cfg: SolverConfig | None = None,
                       lambdas=(1.0, 2.0, 4.0, 8.0),
                       geometricity_tol: float = 1e-8) -> GrowthReport:
    """Scale a geometric driver and check log growth stays affine.

    Solves the equation for each dilated driver, then fits
    log(sup|y| + 1) <= c1 + c2 * ||x_lam||^p * omega(0,T) with the
    intercept lifted to cover every run (reported slack >= 0).  Any
    explosion under a geometric driver is a falsification event and
    fails the report.

    The driver is scanned once: each row's pvar is lam * ||x||.  The
    p-variation norm is homogeneous under dilation, since u(s,t) scales
    by lam and b(s,t) by lam^2, so both parts of the norm scale by lam.
    For dyadic lam (powers of two) this equals pvar_norm(dilate(x, lam))
    bit for bit; otherwise up to rounding.  lambdas must be a non-empty
    sequence of finite positive numbers (lam = 0 against an infinite
    norm would give NaN).
    """
    from .rough_paths import dilate  # local import to avoid cycle noise

    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambdas must not be empty")
    for lam in lambdas:
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"lambdas must be finite and positive, got {lam!r}")
    cfg = cfg or SolverConfig()
    gd = geometricity_defect(x)
    if gd > geometricity_tol:
        raise ValueError(f"driver is not geometric (defect {gd:.2e})")
    omega = float(x.control(0.0, T))
    base = pvar_norm(x, cfg.p)
    rows = []
    any_explosion = False
    for lam in lambdas:
        sol = solve_rde(dilate(x, lam), f, a, T, cfg)
        sup_y = sol.sup_norm()
        rows.append({
            "lam": lam,
            "pvar": lam * base,
            "sup_y": sup_y,
            "log_sup": math.log(sup_y + 1.0),
            "explosion": sol.blowup is not None,
        })
        any_explosion = any_explosion or sol.blowup is not None
    s = np.array([r["pvar"] ** cfg.p * omega for r in rows])
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


def solution_to_partial(sol: RDESolution, x: RoughPath, p: float = 2.0):
    """Partial rough path (x, y, cross) carried by a solution.

    The solution's per-interval arrays pass through unchanged; x, the
    driver the solution was computed on, supplies the control.
    """
    from .partial_rough_paths import PartialRoughPath

    return PartialRoughPath(sol.times, sol.x1, sol.x2_inc, sol.y,
                            sol.cross_inc, p, x.control)


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
