"""Second-order (Davie) stepping for rough differential equations.

For dy = f(y) dx driven by a level-2 rough path the step over
[t_i, t_i+1] is

    y+ = y + f(y) x1(t_i, t_i+1) + (f . grad f)(y) x2(t_i, t_i+1)

which is exactly the first-order-plus-area expansion whose sewn limit
defines the solution; on smooth drivers it reduces to a second-order
Taylor scheme.  The solver also accumulates the solution's cross
integral against the driver (per interval f(y_i) paired with the
driver's level 2, chained by the additivity identity), detects
threshold crossings as an operational stand-in for blow-up, and carries
the partition rule and a-priori sup bound valid for bounded fields.

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

from .rough_paths import AreaDrift, RoughPath, geometricity_defect, pvar_norm
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
    tol_sew: float = 1e-10
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

    diagnostics holds "step_count", the number of steps taken (fewer
    than the mesh has when a threshold crossing ends the solve).  The
    solver computes no other diagnostic: measures of the driver, such as
    pvar_norm or geometricity_defect, are for the caller to ask for.
    """

    times: np.ndarray          # (K+1,)
    y: np.ndarray              # (K+1, d)
    x1: np.ndarray             # (K+1, m) driver level 1 at solution times
    cross: np.ndarray          # (K+1, d, m) cross integral from time 0
    blowup: BlowupRecord | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.y.shape[1]

    @property
    def m(self) -> int:
        return self.x1.shape[1]

    def cross_between(self, i: int, j: int) -> np.ndarray:
        """Cross integral over (t_i, t_j) from the additivity identity."""
        return (self.cross[j] - self.cross[i]
                - np.outer(self.y[i] - self.y[0], self.x1[j] - self.x1[i]))

    def cross_additivity_defect(self, samples: int = 300, seed: int = 0) -> float:
        n = len(self.times)
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.integers(0, n, size=(samples, 3)), axis=1)
        worst = 0.0
        for i, j, k in idx:
            if not (i < j < k):
                continue
            lhs = self.cross_between(i, k)
            rhs = (self.cross_between(i, j) + self.cross_between(j, k)
                   + np.outer(self.y[j] - self.y[i], self.x1[k] - self.x1[j]))
            worst = max(worst, float(np.max(np.abs(lhs - rhs), initial=0.0)))
        return worst

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


def _partial_increment(x: RoughPath, s: float, t: float):
    g = x.increment_between(s, t)
    return g.level1, g.level2


def _so_matrix(f: VectorField, fe, gr, d: int, m: int) -> np.ndarray:
    """Derived field (f . grad f)(y) flattened to (d, m*m) from fe, gr."""
    t = gr.reshape(d * m, d) @ fe
    return t.reshape(d, m, m).swapaxes(1, 2).reshape(d, m * m)


def _davie_loop(x: RoughPath, f: VectorField, a, T: float,
                cfg: SolverConfig, times, young: tuple | None) -> RDESolution:
    """Shared stepping loop; young = (h2, beta) adds the drift term.

    The second-order term (f . grad f)(y) x2 is contracted without
    assembling the derived field: with P[j,c] = sum_i x2[i,j] f[c,i] it
    equals grad f(y) flattened against P.  When the Young term's h2 is
    the derived field of f itself, its contraction with dbeta merges
    into the same product by adding dbeta onto x2.
    """
    mesh = _solve_mesh(T, cfg, times)
    K = len(mesh) - 1
    if K > cfg.max_steps:
        raise ValueError(f"mesh has {K} steps, over max_steps={cfg.max_steps}")
    if mesh[-1] > x.T + 1e-12:
        raise ValueError(f"horizon {mesh[-1]} exceeds the driver's range "
                         f"[0, {x.T}]")
    d, m = f.d, f.m
    if x.m != m:
        raise ValueError(f"driver dimension {x.m} does not match field m={m}")
    x1i, x2i = x.increments_on_mesh(mesh)
    fused = False
    if young is not None:
        h2, beta = young
        dbeta = beta.increments_on_mesh(mesh)
        fused = getattr(h2, "source", None) is f
        if fused:
            x2_step = x2i + dbeta
        else:
            x2_step = x2i
            dbeta_flat = dbeta.reshape(K, m * m)
    else:
        x2_step = x2i
    y = np.asarray(a, dtype=float).copy()
    if y.shape != (d,):
        raise ValueError(f"initial state must have shape ({d},)")
    traj = np.empty((K + 1, d))
    traj[0] = y
    fes = np.empty((K, d, m))
    proj = cfg.state_projection
    r2 = cfg.r_max * cfg.r_max
    blow = None
    last = K
    for i in range(K):
        fe = f.eval(y)
        gr = f.grad(y)
        fes[i] = fe
        w = x2_step[i].T @ fe.T
        dy = fe @ x1i[i] + gr.reshape(d, m * d) @ w.reshape(m * d)
        if young is not None and not fused:
            dy = dy + h2.eval(y).reshape(d, m * m) @ dbeta_flat[i]
        y_new = y + dy
        ny2 = float(y_new @ y_new)
        if not (ny2 <= r2):
            if not math.isfinite(ny2):
                raise FieldEvaluationError(mesh[i], y)
            # bisect the frozen-coefficient step map for the crossing time
            t0, t1 = mesh[i], mesh[i + 1]
            so = _so_matrix(f, fe, gr, d, m)
            h2e = (h2.eval(y).reshape(d, m * m) if young is not None else None)

            def state_at(tau, _t0=t0, _y=y, _fe=fe, _so=so, _h2e=h2e):
                u, b = _partial_increment(x, _t0, tau)
                yv = _y + _fe @ u + _so @ b.ravel()
                if _h2e is not None:
                    db = beta.at(tau) - beta.at(_t0)
                    yv = yv + _h2e @ db.ravel()
                return yv

            lo, hi = t0, t1
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.linalg.norm(state_at(mid)) >= cfg.r_max:
                    hi = mid
                else:
                    lo = mid
            t_cross = hi
            y_cross = state_at(hi)
            blow = BlowupRecord(cfg.r_max, t_cross,
                                float(np.linalg.norm(y_cross)))
            traj[i + 1] = y_cross
            last = i + 1
            mesh = np.concatenate([mesh[:i + 1], [t_cross]])
            break
        y = y_new if proj is None else np.asarray(proj(y_new), dtype=float)
        traj[i + 1] = y
    times_out = mesh[:last + 1]
    traj = traj[:last + 1]
    fes = fes[:last]
    # cross integral from the stored first-order coefficients, chained by
    # the additivity identity (vectorized after the state recursion)
    u_abs, _ = x.at(times_out)
    du = np.diff(u_abs, axis=0)
    if blow is not None:
        # recompute level-2 increments on the truncated mesh
        _, b_abs = x.at(times_out)
        x2_used = (np.diff(b_abs, axis=0)
                   - np.einsum("ki,kj->kij", u_abs[:-1], du))
    else:
        x2_used = x2i
    cross_inc = np.einsum("kdm,kmn->kdn", fes, x2_used)
    chain = np.einsum("kd,km->kdm", traj[:-1] - traj[0], du)
    cross = np.zeros((last + 1, d, m))
    np.cumsum(cross_inc + chain, axis=0, out=cross[1:])
    return RDESolution(times_out, traj, u_abs, cross, blow,
                       {"step_count": last})


def solve_rde(x: RoughPath, f: VectorField, a, T: float,
              cfg: SolverConfig | None = None, times=None) -> RDESolution:
    """Solve dy = f(y) dx up to time T on a uniform or supplied mesh.

    Threshold crossings are returned in the solution's blowup record,
    not raised; non-finite field output raises FieldEvaluationError.
    """
    cfg = cfg or SolverConfig()
    if 2.0 + f.gamma <= cfg.p:
        raise ValueError("need 2 + gamma > p")
    if not np.all(np.isfinite(np.asarray(a, dtype=float))):
        raise ValueError("initial state must be finite")
    return _davie_loop(x, f, a, T, cfg, times, None)


def solve_rde_corrected(x_hat: RoughPath, beta: AreaDrift, h1: VectorField,
                        h2, a, T: float, cfg: SolverConfig | None = None,
                        times=None) -> RDESolution:
    """Solve dz = h1(z) dx_hat + h2(z) dbeta (rough step plus Young term).

    h2 maps states to (d, m, m) arrays (a SecondOrderField or compatible);
    with (x_hat, beta) = decompose(x) and (h1, h2) = (f, f . grad f) the
    result matches solve_rde on the recomposed driver.
    """
    cfg = cfg or SolverConfig()
    if 2.0 + h1.gamma <= cfg.p:
        raise ValueError("need 2 + gamma > p")
    if not isinstance(h2, SecondOrderField):
        h2 = SecondOrderField(h1.d, h1.m, h2)
    return _davie_loop(x_hat, h1, a, T, cfg, times, (h2, beta))


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
    """Partial rough path (x, y, cross) carried by a solution."""
    from .partial_rough_paths import PartialRoughPath

    mesh = sol.times
    x2_inc = x.increments_on_mesh(mesh)[1]
    du = np.diff(sol.x1, axis=0)
    cross_inc = (np.diff(sol.cross, axis=0)
                 - np.einsum("kd,km->kdm", sol.y[:-1] - sol.y[0], du))
    return PartialRoughPath(mesh, sol.x1, x2_inc, sol.y, cross_inc, p,
                            x.control)


def write_solution_csv(sol: RDESolution, path) -> None:
    fmt = "%.17g"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + [f"y{i+1}" for i in range(sol.d)]) + "\n")
        for k in range(len(sol.times)):
            row = [fmt % sol.times[k]] + [fmt % v for v in sol.y[k]]
            fh.write(",".join(row) + "\n")


def blowup_json(sol: RDESolution) -> str | None:
    if sol.blowup is None:
        return None
    return json.dumps({
        "threshold": sol.blowup.threshold,
        "crossing_time": sol.blowup.crossing_time,
        "last_value_norm": sol.blowup.last_value_norm,
        "note": sol.blowup.note,
    }, indent=2, sort_keys=True)
