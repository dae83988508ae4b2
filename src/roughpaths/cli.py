"""`rde`: run the library's experiments from JSON configs.

Every command reads a JSON config (all keys optional unless noted),
writes CSV/SVG/JSON artifacts and report.txt into the output directory,
and prints the report.  Each check is one report row,
`  {label:<23}: {value}  ({bound}) -> {verdict}`.  The exit code is 0
exactly when every check passed, so runs can gate CI; 1 when one failed
(even where the config can only fail it, as with explosion-demo's
horizon_factor < 1: it ran, and a check failed); 2 when the config or
its input is bad.  Outputs are deterministic given (config, seed).

Commands
--------
explosion-demo   pure-area driver + linear-growth field: finite-time
                 blow-up, trajectory against the exact hyperbola
growth-demo      scaled geometric drivers: no explosion, growth envelope
changevar-check  solve in original vs log-sphere coordinates, compare
decompose        split a driver into geometric part + area drift
convergence      mesh-refinement table against exact solutions
lift             polyline CSV -> rough path CSV
solve            generic solve: solution CSV (+ blow-up JSON)

Config schema (`rde --help` lists each key's default and check)
  field:  {"name": "linear"|"counterexample"|"tanh"|"zero", ...params}
  driver: {"kind": "zigzag"|"random-polyline"|"polyline"|
           "brownian-ito"|"brownian-stratonovich"|"pure-area"|"csv", ...}
  solver: {"r_max": blow-up threshold on |y|}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .log_sphere_map import (ShiftedMap, _radii, choose_shift,
                             sphere_state_projection, transformed_field)
from .rough_paths import (RoughPath, _level2_scale, _rewrite, _write_csv,
                          brownian_lift, chen_defect, decompose,
                          geometricity_defect, lift_piecewise_linear,
                          pure_area_path, read_polyline_csv,
                          read_roughpath_csv, write_roughpath_csv)
from .rde_solver import (FieldEvaluationError, SolverConfig, blowup_json,
                         growth_bound_check, solve_rde, write_solution_csv)
from .svg import line_plot
from .vector_fields import make_field

__all__ = ["main"]

_SOLVE = {"solver": {"r_max": 1e6}}   # every solve's keys
DEFAULTS = {
    "explosion-demo": {**_SOLVE, "a1": 1.0, "fine_mesh": 262144,
                       "coarse_mesh": 4096, "horizon_factor": 1.5,
                       "traj_tol": 1e-4, "time_tol": 0.05},
    "growth-demo": {
        "seed": 42, "p": 2.0, **_SOLVE, "mesh": 4096,
        "field": {"name": "counterexample"},
        "driver": {"kind": "zigzag", "n": 10, "amplitude": 0.15, "m": 1,
                   "T": 5.0},
        "a": [1.0, 0.0], "T": 5.0, "lambdas": [1.0, 2.0, 4.0, 8.0]},
    "changevar-check": {
        "seed": 42, **_SOLVE, "mesh": 1024,
        "field": {"name": "counterexample"},
        "driver": {"kind": "zigzag", "n": 8, "amplitude": 0.2, "m": 1,
                   "T": 1.0},
        "a": [1.0, 0.0], "T": 1.0, "tol": 1e-4, "shift": "auto"},
    "decompose": {
        "seed": 42,
        "driver": {"kind": "brownian-ito", "steps": 100000, "m": 2, "T": 1.0},
        "max_csv_rows": 4096},
    "convergence": {**_SOLVE, "problem": "exp",
                    "meshes": [64, 128, 256, 512, 1024, 2048, 4096],
                    "T": 1.0},
    "lift": {"input": None, "output": "roughpath.csv"},
    "solve": {
        "seed": 42, **_SOLVE, "mesh": 4096,
        "field": {"name": "linear", "A": 1.0},
        "driver": {"kind": "zigzag", "n": 6, "amplitude": 0.3, "m": 1,
                   "T": 1.0},
        "a": [1.0], "T": 1.0, "output": "solution.csv"},
}


def _is_int(v, lo=1) -> bool:
    return type(v) is int and v >= lo      # not a bool


def _is_num(v) -> bool:     # not a bool; a float holds it
    return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max


def _is_finite(v) -> bool:
    return _is_num(v) and math.isfinite(v)


def _is_mesh(v) -> bool:
    return _is_int(v) and v & (v - 1) == 0


def _is_path(v) -> bool:
    return type(v) is str and v != ""


# One check per key name (see _merged).  The library checks the ranges
# of p, r_max, the horizon and the lambdas.
_RULES = [
    ("mesh fine_mesh coarse_mesh", "an integer power of two", _is_mesh),
    ("meshes", "two or more meshes; each mesh must be an integer power of "
     "two", lambda v: type(v) is list and len(v) > 1
     and all(map(_is_mesh, v))),
    ("n m d steps max_csv_rows", "an integer >= 1", _is_int),
    ("seed", "an integer >= 0", lambda v: _is_int(v, 0)),
    ("p T amplitude scale horizon_factor", "a finite number", _is_finite),
    ("a1", "a positive finite number", lambda v: _is_finite(v) and v > 0),
    ("r_max", "a number", _is_num),
    ("tol traj_tol time_tol", "a number >= 0",
     lambda v: _is_num(v) and v >= 0),
    ("a lambdas", "a list of numbers",
     lambda v: type(v) is list and all(map(_is_num, v))),
    ("input", "a non-empty string (lift's 'input' CSV)", _is_path),
    ("output path", "a non-empty string", _is_path),
    ("shift", '"auto" or a finite number',
     lambda v: v == "auto" or _is_finite(v)),
    ("field driver solver", "a JSON object", lambda v: type(v) is dict),
]
CHECKS = {name: (what, ok) for names, what, ok in _RULES
          for name in names.split()}
# read as floats
_FLOATS = ("p T amplitude scale horizon_factor a1 r_max tol traj_tol "
           "time_tol").split()


class ConfigError(ValueError):
    pass


def _checked(path: str, name: str, value):
    """value as read (a number key's as a float), or a ConfigError."""
    if name in CHECKS:
        what, ok = CHECKS[name]
        if not ok(value):
            raise ConfigError(f"{path} must be {what}, got {value!r}")
    return float(value) if name in _FLOATS else value


def _merged(command: str, user: dict) -> dict:
    """DEFAULTS[command] overlaid with the user's config (no other keys);
    each value is checked before any work, at the top level and in
    `solver`, `field` and `driver`.  A field of another `name` or a
    driver of another `kind` replaces the default object.
    """
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    defaults = DEFAULTS[command]
    solver = user.get("solver") if type(user.get("solver")) is dict else {}
    unknown = sorted(set(user) - set(defaults)) + sorted(
        f"solver.{k}" for k in set(solver) - set(defaults.get("solver", ())))
    if unknown:
        raise ConfigError(f"{', '.join(unknown)}: unknown config "
                          f"key{'s' * (len(unknown) > 1)} for {command}")
    cfg = {}
    for k, base in defaults.items():
        v = user.get(k, base)
        if type(v) is dict and type(base) is dict and all(
                v.get(tag, base.get(tag)) == base.get(tag)
                for tag in ("name", "kind")):
            v = {**base, **v}
        v = _checked(k, k, v)
        cfg[k] = ({pk: _checked(f"{k}.{pk}", pk, pv) for pk, pv in v.items()}
                  if type(v) is dict else v)
    return cfg


def _solver_config(cfg: dict, mesh: int, **extra) -> SolverConfig:
    return SolverConfig(base_mesh=mesh, r_max=cfg["solver"]["r_max"],
                        **extra)


def field_from_config(spec: dict):
    return make_field(**spec)


def _zigzag(T=1.0, m=1, n=8, amplitude=0.2) -> RoughPath:
    pattern = np.array([1.0, -0.6, 0.8, -0.4, 0.9, -0.7])
    step = np.arange(n)[:, None] + 2 * np.arange(m)
    inc = amplitude * pattern[step % len(pattern)]
    with np.errstate(over="ignore"):
        # a sum that overflows is rejected by RoughPath (not finite)
        pts = np.vstack([np.zeros(m), np.cumsum(inc, axis=0)])
    return lift_piecewise_linear(pts, np.linspace(0.0, T, n + 1))


def _random_polyline(seed, T=1.0, m=1, n=8, scale=0.2) -> RoughPath:
    rng = np.random.default_rng(seed)
    pts = np.zeros((n + 1, m))
    pts[1:] = np.cumsum(rng.normal(0.0, scale, size=(n, m)), axis=0)
    return lift_piecewise_linear(pts, np.linspace(0.0, T, n + 1))


def _brownian(convention, seed, T=1.0, m=1, steps=1024) -> RoughPath:
    return brownian_lift(seed, steps, T, m, convention)


def _pure_area(T=1.0, m=1, area=None) -> RoughPath:
    return pure_area_path(T, m, area)


_DRIVERS = {
    "zigzag": _zigzag,
    "random-polyline": _random_polyline,
    "polyline": lift_piecewise_linear,
    "brownian-ito": partial(_brownian, "ito"),
    "brownian-stratonovich": partial(_brownian, "stratonovich"),
    "pure-area": _pure_area,
    "csv": read_roughpath_csv,
}
# kinds whose `seed` parameter defaults to the run's seed
_SEEDED = ("random-polyline", "brownian-ito", "brownian-stratonovich")


def driver_from_config(spec: dict, seed: int) -> RoughPath:
    """Call the builder of spec's `kind` with the other keys as keyword
    arguments, so a parameter it does not take raises TypeError."""
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind not in list(_DRIVERS):
        raise ConfigError(f"driver.kind must be one of {', '.join(_DRIVERS)}"
                          f", got {kind!r}")
    if kind in _SEEDED:
        params.setdefault("seed", seed)
    return _DRIVERS[kind](**params)


@dataclass(frozen=True)
class Check:
    """A gated report row; the run passes exactly when every Check does."""

    label: str
    value: str
    bound: str          # "" when the row has no bound to show
    passed: bool


def _report(rows, out_dir) -> bool:
    """Print the rows, write them to report.txt; True iff every Check passed."""
    text = "\n".join(row if isinstance(row, str) else
                     f"  {row.label:<23}: {row.value}"
                     + (f"  ({row.bound})" if row.bound else "")
                     + (" -> PASS" if row.passed else " -> FAIL")
                     for row in rows)
    print(text)
    with _rewrite(os.path.join(out_dir, "report.txt")) as fh:
        fh.write(text + "\n")
    return all(row.passed for row in rows if isinstance(row, Check))


# ---------------------------------------------------------------------------
# commands: each returns its report rows (plain lines and Checks)


def _write_blowup(path, sol) -> None:
    """Write sol's blow-up record to path as JSON, or, when the solve
    crossed no threshold, remove the file an earlier run left there."""
    bj = blowup_json(sol)
    if bj is None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        return
    with _rewrite(path) as fh:
        fh.write(bj + "\n")


def cmd_explosion_demo(cfg: dict, out: str, seed: int) -> list:
    a1, traj_tol, time_tol = cfg["a1"], cfg["traj_tol"], cfg["time_tol"]
    t_star = 1.0 / a1
    field = make_field("counterexample")
    horizon = t_star * cfg["horizon_factor"]
    a = np.array([a1, 0.0])

    coarse = _solver_config(cfg, cfg["coarse_mesh"])
    sol_b = solve_rde(pure_area_path(horizon), field, a, horizon, coarse)

    t_fine = 0.9 * t_star
    fine = _solver_config(cfg, cfg["fine_mesh"])
    sol_f = solve_rde(pure_area_path(t_fine), field, a, t_fine, fine)
    exact = a1 / (1.0 - a1 * sol_f.times)
    rel = float(np.max(np.abs(sol_f.y[:, 0] - exact) / exact))
    y2_sup = float(np.max(np.abs(sol_f.y[:, 1])))

    # about 1024 rows of the fine solve's K steps, the last one always
    K = len(sol_f.times) - 1
    rows = np.r_[0:K:max(1, K // 1024), K]
    t, y, ex = sol_f.times[rows], sol_f.y[rows], exact[rows]
    _write_csv(os.path.join(out, "explosion_trajectory.csv"),
               ["t", "y1", "y2", "exact"], np.column_stack([t, y, ex]))
    _write_blowup(os.path.join(out, "explosion_blowup.json"), sol_b)
    line_plot(os.path.join(out, "explosion.svg"),
              [("numeric", t, y[:, 0]), ("exact", t, ex)],
              title=f"blow-up toward t* = {t_star:g}", xlabel="t",
              ylabel="y1 (log)", logy=True)
    crossing = sol_b.blowup.crossing_time if sol_b.blowup else None
    return [
        f"explosion-demo  a1={a1:g}  threshold={coarse.r_max:g}",
        Check("crossing time estimate",
              "none" if crossing is None else f"{crossing:.6f}",
              f"target {t_star:g} +/- {time_tol:g}",
              crossing is not None and abs(crossing - t_star) <= time_tol),
        Check("sup |y2|", f"{y2_sup:.3e}", "<= 1e-10", y2_sup <= 1e-10),
        Check("rel traj error t<=0.9t*", f"{rel:.3e}",
              f"<= {traj_tol:g}", rel <= traj_tol),
    ]


def cmd_growth_demo(cfg: dict, out: str, seed: int) -> list:
    field = field_from_config(cfg["field"])
    x = driver_from_config(cfg["driver"], seed)
    rep = growth_bound_check(field, x, np.asarray(cfg["a"], dtype=float),
                             cfg["T"],
                             _solver_config(cfg, cfg["mesh"], p=cfg["p"]),
                             lambdas=cfg["lambdas"])
    rows = [(r["lam"], r["pvar"], r["s"], r["sup_y"], r["log_sup"],
             int(r["explosion"])) for r in rep.rows]
    _write_csv(os.path.join(out, "growth_table.csv"),
               ["lambda", "pvar", "s", "sup_y", "log_sup_y", "explosion"],
               rows)
    s = [r[2] for r in rows]
    line_plot(os.path.join(out, "growth.svg"),
              [("log(sup|y|+1)", s, [r[4] for r in rows]),
               ("envelope", s, [rep.c1 + rep.c2 * si for si in s])],
              title="growth under driver scaling",
              xlabel="||x||^p * omega(0,T)", ylabel="log(sup|y|+1)")
    return [
        f"growth-demo  field={cfg['field']['name']}  "
        f"geometricity defect={rep.geometricity_defect:.2e}",
        Check("explosions", "NONE" if not rep.any_explosion else
              "DETECTED (falsifies the geometric growth bound)", "",
              not rep.any_explosion),
        f"  envelope fit  c1={rep.c1:.4f}  c2={rep.c2:.4f}",
    ]


def cmd_changevar_check(cfg: dict, out: str, seed: int) -> list:
    field = field_from_config(cfg["field"])
    x = driver_from_config(cfg["driver"], seed)
    a = np.asarray(cfg["a"], dtype=float)
    T, tol, mesh = cfg["T"], cfg["tol"], cfg["mesh"]
    sol_y = solve_rde(x, field, a, T, _solver_config(cfg, mesh))
    if cfg["shift"] == "auto":
        radius = float(np.max(np.linalg.norm(sol_y.y, axis=1)))
        shift = choose_shift(a, 1.5 * radius)
    else:
        shift = ShiftedMap(np.full(field.d, cfg["shift"], dtype=float))
    min_rad = float(np.min(_radii(shift.b + sol_y.y)))
    h = transformed_field(field, shift)
    sol_z = solve_rde(x, h, shift.state_of(a), T, _solver_config(
        cfg, mesh, state_projection=sphere_state_projection(field.d)))
    mapped = shift.state_of(sol_y.y)
    diff = float(np.max(np.abs(mapped - sol_z.y)))
    min_rho = float(np.min(sol_z.y[:, -1]))
    rho_note = "" if min_rho >= 0.0 else (
        "  (dipped below the cylinder base; consider a larger shift)")
    _write_csv(os.path.join(out, "changevar.csv"),
               ["t"] + [f"mapped{i+1}" for i in range(field.d + 1)]
               + [f"direct{i+1}" for i in range(field.d + 1)],
               np.column_stack([sol_y.times, mapped, sol_z.y]))
    return [
        f"changevar-check  field={cfg['field']['name']}  mesh={mesh}",
        Check("min |b+y|", f"{min_rad:.4f}", f">= {shift.r_min:g}",
              min_rad >= shift.r_min),
        f"  min rho along z-route  : {min_rho:.4f}{rho_note}",
        Check("sup |psi(y_t) - z_t|", f"{diff:.3e}", f"<= {tol:g}",
              diff <= tol),
    ]


def cmd_decompose(cfg: dict, out: str, seed: int) -> list:
    x = driver_from_config(cfg["driver"], seed)
    kind = cfg["driver"]["kind"]
    geo, drift = decompose(x)
    gd_x = geometricity_defect(x)
    gd_geo = geometricity_defect(geo)
    n, m, T = x.n_points, x.m, x.T
    stride = -(-n // cfg["max_csv_rows"])     # at most max_csv_rows rows
    _write_csv(os.path.join(out, "beta.csv"),
               ["t"] + [f"beta_{i+1}{j+1}" for i in range(m) for j in range(m)],
               np.column_stack([drift.times,
                                drift.beta.reshape(n, -1)])[::stride])
    line_plot(os.path.join(out, "beta.svg"),
              [(f"beta_{i+1}{j+1}", drift.times[::stride],
                drift.beta[::stride, i, j])
               for i in range(m) for j in range(m)],
              title="area drift", xlabel="t", ylabel="beta")
    bound = 1e-12 * _level2_scale(geo)      # as `rde lift` bounds it
    report = [f"decompose  driver={kind}",
              f"  {'geometricity defect':<23}: {gd_x:.4e}",
              Check("geometric part defect", f"{gd_geo:.3e}",
                    f"<= {bound:.2e}", gd_geo <= bound)]
    if kind == "brownian-ito":
        err = float(np.linalg.norm(
            drift.beta[-1] + 0.5 * T * np.eye(m), "fro"))
        report.append(Check("||beta(T) + T/2 I||", f"{err:.4e}",
                            f"<= {0.05 * T:g}", err <= 0.05 * T))
    elif kind == "pure-area":
        # beta(t) = t sym(A), A the config's area (I by default)
        A = cfg["driver"].get("area")
        A = np.eye(m) if A is None else np.asarray(A, dtype=float)
        err = float(np.max(np.abs(
            drift.beta - drift.times[:, None, None] * (0.5 * (A + A.T)))))
        bound = 1e-12 * _level2_scale(x)
        report.append(Check("|beta - t sym(A)| sup", f"{err:.2e}",
                            f"<= {bound:.2e}", err <= bound))
    return report


def _convergence_problem(name: str, T: float):
    if name == "exp":
        field = make_field("linear", A=1.0)
        a = np.array([1.0])

        def exact(t):
            return np.exp(t)[:, None] * a

    elif name == "matrix":
        A = np.array([[0.0, -1.2], [1.2, -0.1]])
        field = make_field("linear", A=A.tolist())
        a = np.array([1.0, 0.5])
        # Cayley-Hamilton for a 2x2 A with complex eigenvalues mu +/- i w:
        # expm(tA) = e^{mu t}[(cos wt - mu sin wt / w) I + (sin wt / w) A]
        mu = 0.5 * (A[0, 0] + A[1, 1])
        w = math.sqrt(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0] - mu * mu)

        def exact(t):
            s = np.sin(w * t) / w
            return np.exp(mu * t)[:, None] * (
                (np.cos(w * t) - mu * s)[:, None] * a + s[:, None] * A.dot(a))

    elif name == "zero":
        field = make_field("zero", d=2, m=1)
        a = np.array([0.7, -0.3])

        def exact(t):
            return np.tile(a, (len(t), 1))

    else:
        raise ConfigError(f"unknown convergence problem {name!r}")
    x = lift_piecewise_linear(np.array([[0.0], [T]]), [0.0, T])
    return field, a, x, exact


def cmd_convergence(cfg: dict, out: str, seed: int) -> list:
    name, T, meshes = cfg["problem"], cfg["T"], cfg["meshes"]
    field, a, x, exact = _convergence_problem(name, T)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(exact(np.array([T])))):
            raise ConfigError(f"T must keep the exact solution finite, "
                              f"got {T!r}")
    errs = []
    for mesh in meshes:
        sol = solve_rde(x, field, a, T, _solver_config(cfg, mesh))
        errs.append(float(np.max(np.linalg.norm(
            sol.y - exact(sol.times), axis=1))))
    orders = [float("nan")]
    for k in range(1, len(errs)):
        orders.append(math.log2(errs[k - 1] / errs[k])
                      if errs[k] > 0 and errs[k - 1] > 0 else float("inf"))
    _write_csv(os.path.join(out, "convergence.csv"),
               ["mesh", "sup_error", "order"],
               list(zip(meshes, errs, orders)))
    report = [f"convergence  problem={name}",
              "  mesh -> error: " + ", ".join(
                  f"{m}:{e:.2e}" for m, e in zip(meshes, errs))]
    if name == "zero":
        return report + [Check("exact at all meshes", f"{max(errs):.2e}",
                               "== 0", max(errs) == 0.0)]
    finite = [o for o in orders[1:] if math.isfinite(o)]
    med = sorted(finite)[len(finite) // 2] if finite else float("nan")
    thresh = 1.5 if name == "exp" else 1.0
    drops = sum(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    return report + [
        Check("monotone errors", f"{drops} of {len(errs) - 1} steps drop", "",
              drops == len(errs) - 1),
        Check("median order", f"{med:.2f}", f">= {thresh:g}", med >= thresh)]


def cmd_lift(cfg: dict, out: str, seed: int) -> list:
    times, pts = read_polyline_csv(cfg["input"])
    rp = lift_piecewise_linear(pts, times)
    dest = os.path.join(out, cfg["output"])
    write_roughpath_csv(rp, dest)
    cd = chen_defect(rp)
    gd = geometricity_defect(rp)
    bound = 1e-12 * _level2_scale(rp)   # both defects: level-2 roundoff
    return [f"lift  {cfg['input']} -> {dest}",
            f"  points={rp.n_points}  m={rp.m}",
            Check("chen defect", f"{cd:.2e}", f"<= {bound:.2e}", cd <= bound),
            Check("geometricity defect", f"{gd:.2e}", f"<= {bound:.2e}",
                  gd <= bound)]


def cmd_solve(cfg: dict, out: str, seed: int) -> list:
    field = field_from_config(cfg["field"])
    x = driver_from_config(cfg["driver"], seed)
    sol = solve_rde(x, field, np.asarray(cfg["a"], dtype=float),
                    cfg["T"], _solver_config(cfg, cfg["mesh"]))
    write_solution_csv(sol, os.path.join(out, cfg["output"]))
    lines = [f"solve  field={cfg['field']['name']}  "
             f"driver={cfg['driver']['kind']}",
             f"  steps={len(sol.times) - 1}  "
             f"sup|y|={sol.sup_norm():.6g}"]
    _write_blowup(os.path.join(out, "blowup.json"), sol)
    if sol.blowup is not None:
        lines.append(f"  blow-up threshold crossed at "
                     f"t={sol.blowup.crossing_time:.6g}")
    return lines


COMMANDS = {
    "explosion-demo": cmd_explosion_demo,
    "growth-demo": cmd_growth_demo,
    "changevar-check": cmd_changevar_check,
    "decompose": cmd_decompose,
    "convergence": cmd_convergence,
    "lift": cmd_lift,
    "solve": cmd_solve,
}


def _defaults_table() -> str:
    rows = ["defaults (override via --config JSON) and each name's check "
            "wherever it appears (none shown: checked where read):"]
    what = {n: f": {w}" for n, (w, _) in CHECKS.items()}
    for command, defaults in DEFAULTS.items():
        rows.append(f"  [{command}]")
        rows += [f"    {k} = {json.dumps(v)}{what.get(k, '')}"
                 for k, v in defaults.items()]
    rows.append("  [solver, field and driver parameters]")
    rows += [f"    {n}{w}" for n, w in what.items()
             if not any(n in d for d in DEFAULTS.values())]
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rde",
        description="\n\n".join(__doc__.split("\n\n")[:2]),
        epilog=_defaults_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="rde_out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        user = {}
        if args.config:
            with open(args.config) as fh:
                user = json.load(fh)
        cfg = _merged(args.command, user)
        seed = (cfg.get("seed") if args.seed is None
                else _checked("--seed", "seed", args.seed))
        os.makedirs(args.out, exist_ok=True)
        rows = COMMANDS[args.command](cfg, args.out, seed)
    except (ValueError, OSError, KeyError, TypeError, OverflowError,
            FieldEvaluationError) as exc:
        # a bad config or input (an unreadable path, a solve that
        # overflows), not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if _report(rows, args.out) else 1


if __name__ == "__main__":
    sys.exit(main())
