"""`rde`: run the library's experiments from JSON configs.

Every command reads a JSON config (all keys optional unless noted),
writes CSV/SVG/JSON artifacts into the output directory, prints a
report, and exits 0 exactly when its pass/fail checks hold, so runs can
gate CI: 1 when a check fails, 2 when the config is bad (an unknown key,
or a value the library rejects with ValueError).  Outputs are
deterministic given (config, seed).

Commands
--------
explosion-demo   pure-area driver + linear-growth field: finite-time
                 blow-up, trajectory against the exact hyperbola
growth-demo      scaled geometric drivers: log-growth envelope check
changevar-check  solve in original vs log-sphere coordinates, compare
decompose        split a driver into geometric part + area drift
convergence      mesh-refinement table against exact solutions
lift             polyline CSV -> rough path CSV
solve            generic solve: solution CSV (+ blow-up JSON)

Config schema (shared keys)
---------------------------
  field:  {"name": "linear"|"counterexample"|"tanh"|"zero", ...params}
  driver: {"kind": "zigzag"|"random-polyline"|"polyline"|
           "brownian-ito"|"brownian-stratonovich"|"pure-area"|"csv", ...}
  a: initial state (list); T: horizon; p: variation exponent;
  mesh: solver steps (power of two); seed: RNG seed;
  solver: {"r_max": ..., "K": ..., "mu": ...}
Command-specific keys are listed in the defaults table below.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from scipy.linalg import expm

from .log_sphere_map import ShiftedMap, choose_shift, sphere_state_projection, \
    transformed_field
from .rough_paths import (RoughPath, _write_csv, brownian_lift, decompose,
                          geometricity_defect, lift_piecewise_linear,
                          pure_area_path, read_polyline_csv,
                          read_roughpath_csv, write_roughpath_csv)
from .rde_solver import (SolverConfig, blowup_json, growth_bound_check,
                         solve_rde, solve_rde_corrected, write_solution_csv)
from .svg import line_plot
from .vector_fields import f_dot_grad_f, make_field
from . import chen_defect

__all__ = ["main"]

DEFAULTS = {
    "common": {
        "seed": 42,
        "p": 2.0,
        "mesh": 4096,
        "solver": {"r_max": 1e6, "K": 1.0, "mu": 1.0},
    },
    "explosion-demo": {
        "a1": 1.0,
        "fine_mesh": 262144,
        "coarse_mesh": 4096,
        "horizon_factor": 1.5,
        "traj_tol": 1e-4,
        "time_tol": 0.05,
    },
    "growth-demo": {
        "field": {"name": "counterexample"},
        "driver": {"kind": "zigzag", "n": 10, "amplitude": 0.15, "m": 1,
                   "T": 5.0},
        "a": [1.0, 0.0],
        "T": 5.0,
        "lambdas": [1.0, 2.0, 4.0, 8.0],
    },
    "changevar-check": {
        "field": {"name": "counterexample"},
        "driver": {"kind": "zigzag", "n": 8, "amplitude": 0.2, "m": 1,
                   "T": 1.0},
        "a": [1.0, 0.0],
        "T": 1.0,
        "mesh": 1024,
        "tol": 1e-4,
        "shift": "auto",
    },
    "decompose": {
        "driver": {"kind": "brownian-ito", "steps": 100000, "m": 2, "T": 1.0},
        "max_csv_rows": 4096,
    },
    "convergence": {
        "problem": "exp",
        "meshes": [64, 128, 256, 512, 1024, 2048, 4096],
        "T": 1.0,
    },
    "lift": {"input": None, "output": "roughpath.csv"},
    "solve": {
        "field": {"name": "linear", "A": 1.0},
        "driver": {"kind": "zigzag", "n": 6, "amplitude": 0.3, "m": 1,
                   "T": 1.0},
        "a": [1.0],
        "T": 1.0,
        "output": "solution.csv",
    },
}


class ConfigError(ValueError):
    pass


def _merged(command: str, user: dict) -> dict:
    """Defaults overlaid with the user's config; unknown keys are errors.

    A field of another `name` or a driver of another `kind` replaces the
    default object instead of updating it: its parameters are its own.
    """
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(user) - set(DEFAULTS["common"])
                     - set(DEFAULTS[command]))
    unknown += [f"solver.{k}" for k in sorted(
        set(user.get("solver", {})) - set(DEFAULTS["common"]["solver"]))]
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: "
                          + ", ".join(unknown))
    cfg = {}
    for src in (DEFAULTS["common"], DEFAULTS[command]):
        for k, v in src.items():
            cfg[k] = dict(v) if isinstance(v, dict) else v
    for k, v in user.items():
        base = cfg.get(k)
        if isinstance(v, dict) and isinstance(base, dict) and all(
                v.get(tag, base.get(tag)) == base.get(tag)
                for tag in ("name", "kind")):
            base.update(v)
        else:
            cfg[k] = v
    return cfg


def _check_mesh(n) -> int:
    n = int(n)
    if n < 1 or (n & (n - 1)) != 0:
        raise ConfigError(f"mesh must be a power of two, got {n}")
    return n


def _solver_config(cfg: dict, mesh: int | None = None, **extra) -> SolverConfig:
    s = cfg.get("solver", {})
    return SolverConfig(
        step_rule_K=float(s.get("K", 1.0)),
        mu=float(s.get("mu", 1.0)),
        base_mesh=mesh if mesh is not None else _check_mesh(cfg["mesh"]),
        r_max=float(s.get("r_max", 1e6)),
        p=float(cfg["p"]),
        **extra,
    )


def _zigzag_points(T: float, n: int, amplitude: float, m: int) -> tuple:
    pattern = (1.0, -0.6, 0.8, -0.4, 0.9, -0.7)
    inc = np.empty((n, m))
    for j in range(m):
        for k in range(n):
            inc[k, j] = amplitude * pattern[(k + 2 * j) % len(pattern)]
    pts = np.zeros((n + 1, m))
    np.cumsum(inc, axis=0, out=pts[1:])
    return np.linspace(0.0, T, n + 1), pts


def field_from_config(spec: dict):
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("field config needs a 'name'")
    return make_field(**spec)


def driver_from_config(spec: dict, seed: int) -> RoughPath:
    kind = spec.get("kind")
    if kind is None:
        raise ConfigError("driver config needs a 'kind'")
    T = float(spec.get("T", 1.0))
    m = int(spec.get("m", 1))
    if kind == "zigzag":
        t, pts = _zigzag_points(T, int(spec.get("n", 8)),
                                float(spec.get("amplitude", 0.2)), m)
        return lift_piecewise_linear(pts, t)
    if kind == "random-polyline":
        rng = np.random.default_rng(int(spec.get("seed", seed)))
        n = int(spec.get("n", 8))
        pts = np.zeros((n + 1, m))
        pts[1:] = np.cumsum(
            rng.normal(0.0, float(spec.get("scale", 0.2)), size=(n, m)), axis=0)
        return lift_piecewise_linear(pts, np.linspace(0.0, T, n + 1))
    if kind == "polyline":
        return lift_piecewise_linear(np.asarray(spec["points"], dtype=float),
                                     np.asarray(spec["times"], dtype=float))
    if kind in ("brownian-ito", "brownian-stratonovich"):
        return brownian_lift(int(spec.get("seed", seed)),
                             int(spec.get("steps", 1024)), T, m,
                             "ito" if kind.endswith("ito") else "stratonovich")
    if kind == "pure-area":
        area = spec.get("area")
        return pure_area_path(T, m, None if area is None
                              else np.asarray(area, dtype=float))
    if kind == "csv":
        return read_roughpath_csv(spec["path"])
    raise ConfigError(f"unknown driver kind {kind!r}")


def _report(lines, out_dir):
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_explosion_demo(cfg: dict, out: str, seed: int) -> bool:
    a1 = float(cfg["a1"])
    if a1 <= 0:
        raise ConfigError("a1 must be positive")
    t_star = 1.0 / a1
    field = make_field("counterexample")
    h2 = f_dot_grad_f(field)
    horizon = t_star * float(cfg["horizon_factor"])
    geo, drift = decompose(pure_area_path(horizon))
    a = np.array([a1, 0.0])

    coarse = _solver_config(cfg, mesh=_check_mesh(cfg["coarse_mesh"]))
    sol_b = solve_rde_corrected(geo, drift, field, h2, a, horizon, coarse)

    t_fine = 0.9 * t_star
    geo_f, drift_f = decompose(pure_area_path(t_fine))
    fine = _solver_config(cfg, mesh=_check_mesh(cfg["fine_mesh"]))
    sol_f = solve_rde_corrected(geo_f, drift_f, field, h2, a, t_fine, fine)
    exact = a1 / (1.0 - a1 * sol_f.times)
    rel = np.max(np.abs(sol_f.y[:, 0] - exact) / exact)
    y2_sup = float(np.max(np.abs(sol_f.y[:, 1])))

    ok_time = (sol_b.blowup is not None
               and abs(sol_b.blowup.crossing_time - t_star) <= cfg["time_tol"])
    ok_traj = rel <= float(cfg["traj_tol"])
    ok_y2 = y2_sup <= 1e-10

    _write_csv(os.path.join(out, "explosion_trajectory.csv"),
               ["t", "y1", "y2", "exact"],
               [(float(t), float(v1), float(v2), float(e)) for t, v1, v2, e
                in zip(sol_f.times[::256], sol_f.y[::256, 0],
                       sol_f.y[::256, 1], exact[::256])])
    bj = blowup_json(sol_b)
    if bj is not None:
        with open(os.path.join(out, "explosion_blowup.json"), "w") as fh:
            fh.write(bj + "\n")
    line_plot(os.path.join(out, "explosion.svg"),
              [("numeric", sol_f.times[::256], sol_f.y[::256, 0]),
               ("exact", sol_f.times[::256], exact[::256])],
              title=f"blow-up toward t* = {t_star:g}", xlabel="t",
              ylabel="y1 (log)", logy=True)
    _report([
        f"explosion-demo  a1={a1:g}  threshold={coarse.r_max:g}",
        f"  crossing time estimate : "
        + (f"{sol_b.blowup.crossing_time:.6f}" if sol_b.blowup else "none")
        + f"  (target {t_star:g} +/- {cfg['time_tol']:g}) -> "
        + ("PASS" if ok_time else "FAIL"),
        f"  sup |y2|               : {y2_sup:.3e}  (<= 1e-10) -> "
        + ("PASS" if ok_y2 else "FAIL"),
        f"  rel traj error t<=0.9t*: {rel:.3e}  (<= {cfg['traj_tol']:g}) -> "
        + ("PASS" if ok_traj else "FAIL"),
    ], out)
    return ok_time and ok_traj and ok_y2


def cmd_growth_demo(cfg: dict, out: str, seed: int) -> bool:
    field = field_from_config(cfg["field"])
    x = driver_from_config(cfg["driver"], seed)
    scfg = _solver_config(cfg)
    rep = growth_bound_check(field, x, np.asarray(cfg["a"], dtype=float),
                             float(cfg["T"]), scfg,
                             lambdas=tuple(cfg["lambdas"]))
    omega = float(cfg["T"])
    rows = [(r["lam"], r["pvar"], r["pvar"] ** scfg.p * omega, r["sup_y"],
             r["log_sup"], int(r["explosion"])) for r in rep.rows]
    _write_csv(os.path.join(out, "growth_table.csv"),
               ["lambda", "pvar", "s", "sup_y", "log_sup_y", "explosion"],
               rows)
    s = [r[2] for r in rows]
    line_plot(os.path.join(out, "growth.svg"),
              [("log(sup|y|+1)", s, [r[4] for r in rows]),
               ("envelope", s, [rep.c1 + rep.c2 * si for si in s])],
              title="growth under driver scaling",
              xlabel="||x||^p * omega(0,T)", ylabel="log(sup|y|+1)")
    _report([
        f"growth-demo  field={cfg['field'].get('name')}  "
        f"geometricity defect={rep.geometricity_defect:.2e}",
        f"  explosions             : "
        + ("NONE -> PASS" if not rep.any_explosion
           else "DETECTED -> FAIL (falsifies the geometric growth bound)"),
        f"  envelope  c1={rep.c1:.4f}  c2={rep.c2:.4f}  "
        f"min slack={rep.min_slack:.2e} -> "
        + ("PASS" if rep.min_slack >= -1e-9 else "FAIL"),
    ], out)
    return rep.passed


def cmd_changevar_check(cfg: dict, out: str, seed: int) -> bool:
    field = field_from_config(cfg["field"])
    x = driver_from_config(cfg["driver"], seed)
    a = np.asarray(cfg["a"], dtype=float)
    T = float(cfg["T"])
    mesh = _check_mesh(cfg["mesh"])
    sol_y = solve_rde(x, field, a, T, _solver_config(cfg, mesh=mesh))
    shift_spec = cfg["shift"]
    if shift_spec == "auto":
        radius = float(np.max(np.linalg.norm(sol_y.y, axis=1)))
        shift = choose_shift(a, 1.5 * radius)
    else:
        b = np.zeros(field.d)
        b[:] = np.asarray(shift_spec, dtype=float)
        shift = ShiftedMap(b)
    min_rad = float(min(np.linalg.norm(shift.b + yv) for yv in sol_y.y))
    h = transformed_field(field, shift)
    z0 = shift.state_of(a)
    sol_z = solve_rde(x, h, z0, T,
                      _solver_config(cfg, mesh=mesh,
                                     state_projection=sphere_state_projection(
                                         field.d)))
    mapped = np.array([shift.state_of(yv) for yv in sol_y.y])
    diff = float(np.max(np.abs(mapped - sol_z.y)))
    ok_diff = diff <= float(cfg["tol"])
    ok_rad = min_rad >= shift.r_min - 1e-9
    min_rho = float(np.min(sol_z.y[:, -1]))
    rho_note = ("" if min_rho >= 0.0
                else "  (dipped below the cylinder base; consider a larger "
                     "shift)")
    _write_csv(os.path.join(out, "changevar.csv"),
               ["t"] + [f"mapped{i+1}" for i in range(field.d + 1)]
               + [f"direct{i+1}" for i in range(field.d + 1)],
               [(float(t),) + tuple(map(float, mv)) + tuple(map(float, zv))
                for t, mv, zv in zip(sol_y.times, mapped, sol_z.y)])
    _report([
        f"changevar-check  field={cfg['field'].get('name')}  mesh={mesh}",
        f"  min |b+y|              : {min_rad:.4f}  (>= {shift.r_min:g}) -> "
        + ("PASS" if ok_rad else "FAIL"),
        f"  min rho along z-route  : {min_rho:.4f}{rho_note}",
        f"  sup |psi(y_t) - z_t|   : {diff:.3e}  (<= {cfg['tol']:g}) -> "
        + ("PASS" if ok_diff else "FAIL"),
    ], out)
    return ok_diff and ok_rad


def cmd_decompose(cfg: dict, out: str, seed: int) -> bool:
    spec = cfg["driver"]
    x = driver_from_config(spec, seed)
    geo, drift = decompose(x)
    gd_x = geometricity_defect(x)
    gd_geo = geometricity_defect(geo)
    n = x.n_points
    stride = max(1, n // int(cfg["max_csv_rows"]))
    rows = [(float(t),) + tuple(map(float, b.ravel()))
            for t, b in zip(drift.times[::stride], drift.beta[::stride])]
    m = x.m
    _write_csv(os.path.join(out, "beta.csv"),
               ["t"] + [f"beta_{i+1}{j+1}" for i in range(m) for j in range(m)],
               rows)
    line_plot(os.path.join(out, "beta.svg"),
              [(f"beta_{i+1}{j+1}", drift.times[::stride],
                drift.beta[::stride, i, j])
               for i in range(m) for j in range(m)],
              title="area drift", xlabel="t", ylabel="beta")
    lines = [f"decompose  driver={spec.get('kind')}",
             f"  geometricity defect    : {gd_x:.4e}",
             f"  geometric part defect  : {gd_geo:.3e}"]
    ok = gd_geo <= 1e-10
    kind = spec.get("kind", "")
    T = float(spec.get("T", 1.0))
    if kind == "brownian-ito":
        err = float(np.linalg.norm(
            drift.beta[-1] + 0.5 * T * np.eye(m), "fro"))
        ok_ito = err <= 0.05 * T
        ok = ok and ok_ito
        lines.append(f"  ||beta(T) + T/2 I||    : {err:.4e}  "
                     f"(<= {0.05 * T:g}) -> " + ("PASS" if ok_ito else "FAIL"))
    elif kind == "brownian-stratonovich":
        ok_s = gd_x <= 0.02
        ok = ok and ok_s
        lines.append(f"  defect <= 0.02         : -> "
                     + ("PASS" if ok_s else "FAIL"))
    elif kind == "pure-area":
        err = float(np.max(np.abs(drift.beta[:, 0, 0] - drift.times)))
        ok_pa = err <= 1e-12
        ok = ok and ok_pa
        lines.append(f"  |beta(t) - t| sup      : {err:.2e} -> "
                     + ("PASS" if ok_pa else "FAIL"))
    _report(lines, out)
    return ok


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

        def exact(t):
            return np.array([expm(ti * A) @ a for ti in t])

    elif name == "zero":
        field = make_field("zero", d=2, m=1)
        a = np.array([0.7, -0.3])

        def exact(t):
            return np.tile(a, (len(t), 1))

    else:
        raise ConfigError(f"unknown convergence problem {name!r}")
    x = lift_piecewise_linear(np.array([[0.0], [T]]), [0.0, T])
    return field, a, x, exact


def cmd_convergence(cfg: dict, out: str, seed: int) -> bool:
    name = cfg["problem"]
    T = float(cfg["T"])
    field, a, x, exact = _convergence_problem(name, T)
    meshes = [_check_mesh(v) for v in cfg["meshes"]]
    errs = []
    for mesh in meshes:
        sol = solve_rde(x, field, a, T, _solver_config(cfg, mesh=mesh))
        errs.append(float(np.max(np.linalg.norm(
            sol.y - exact(sol.times), axis=1))))
    orders = [float("nan")]
    for k in range(1, len(errs)):
        orders.append(math.log2(errs[k - 1] / errs[k])
                      if errs[k] > 0 and errs[k - 1] > 0 else float("inf"))
    _write_csv(os.path.join(out, "convergence.csv"),
               ["mesh", "sup_error", "order"],
               list(zip(meshes, errs, orders)))
    if name == "zero":
        ok = max(errs) == 0.0
        verdict = f"  exact at all meshes    : -> {'PASS' if ok else 'FAIL'}"
    else:
        finite = [o for o in orders[1:] if math.isfinite(o)]
        med = sorted(finite)[len(finite) // 2] if finite else float("nan")
        thresh = 1.5 if name == "exp" else 1.0
        mono = all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        ok = mono and med >= thresh
        verdict = (f"  monotone errors        : -> {'PASS' if mono else 'FAIL'}\n"
                   f"  median order {med:.2f}      : (>= {thresh:g}) -> "
                   + ("PASS" if med >= thresh else "FAIL"))
    _report([f"convergence  problem={name}",
             "  mesh -> error: " + ", ".join(
                 f"{m}:{e:.2e}" for m, e in zip(meshes, errs)),
             verdict], out)
    return ok


def cmd_lift(cfg: dict, out: str, seed: int) -> bool:
    if not cfg.get("input"):
        raise ConfigError("lift needs 'input': a polyline CSV path")
    times, pts = read_polyline_csv(cfg["input"])
    rp = lift_piecewise_linear(pts, times)
    dest = os.path.join(out, cfg["output"])
    write_roughpath_csv(rp, dest)
    cd = chen_defect(rp)
    gd = geometricity_defect(rp)
    # both defects are roundoff in the level-2 values, so the bound
    # follows their scale; paths with |level2| <= 1 get an absolute 1e-12
    bound = 1e-12 * max(1.0, float(np.max(np.abs(rp.level2), initial=0.0)))
    ok = cd <= bound and gd <= bound
    _report([f"lift  {cfg['input']} -> {dest}",
             f"  points={rp.n_points}  m={rp.m}",
             f"  chen defect            : {cd:.2e} -> "
             + ("PASS" if cd <= bound else "FAIL"),
             f"  geometricity defect    : {gd:.2e} -> "
             + ("PASS" if gd <= bound else "FAIL")], out)
    return ok


def cmd_solve(cfg: dict, out: str, seed: int) -> bool:
    field = field_from_config(cfg["field"])
    x = driver_from_config(cfg["driver"], seed)
    sol = solve_rde(x, field, np.asarray(cfg["a"], dtype=float),
                    float(cfg["T"]), _solver_config(cfg))
    dest = os.path.join(out, cfg["output"])
    write_solution_csv(sol, dest)
    lines = [f"solve  field={cfg['field'].get('name')}  "
             f"driver={cfg['driver'].get('kind')}",
             f"  steps={sol.diagnostics['step_count']}  "
             f"sup|y|={sol.sup_norm():.6g}"]
    bj = blowup_json(sol)
    if bj is not None:
        with open(os.path.join(out, "blowup.json"), "w") as fh:
            fh.write(bj + "\n")
        lines.append(f"  blow-up threshold crossed at "
                     f"t={sol.blowup.crossing_time:.6g}")
    _report(lines, out)
    return True


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
    rows = ["defaults (override via --config JSON):"]
    for section, vals in DEFAULTS.items():
        rows.append(f"  [{section}]")
        for k, v in vals.items():
            rows.append(f"    {k} = {json.dumps(v)}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rde",
        description=__doc__.split("\n\n")[0],
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
        seed = args.seed if args.seed is not None else int(cfg["seed"])
        os.makedirs(args.out, exist_ok=True)
        ok = COMMANDS[args.command](cfg, args.out, seed)
    except (ValueError, FileNotFoundError, KeyError, TypeError) as exc:
        # a ValueError (ConfigError among them) means the config asked for
        # something the library rejects: a bad config, not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
