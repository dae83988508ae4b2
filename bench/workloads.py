"""The four benchmark workloads: seeded inputs, one run, and its checks.

Each workload is built from the workload seed (inputs are generated, and
written to disk where the program reads files, before any timing), runs
once per `run()` call and checks that run's outputs in `verify()`
against references the benchmark computes itself.  The library is
always reached through module attributes (`rp.solve_rde`, `cli.main`)
resolved at call time, so the tracer's wrappers see every call.

Sizes are grouped in `Sizes`; `FULL` is the benchmark, `TINY` is the
self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

import roughpaths as rp
import roughpaths.cli as rp_cli


@dataclass(frozen=True)
class Sizes:
    fine_mesh: int = 262144        # explosion: CLI default fine mesh
    coarse_mesh: int = 4096        # explosion: CLI default coarse mesh
    traj_tol: float = 1e-4         # explosion: CLI default, passed explicitly
    time_tol: float = 0.05         # explosion: CLI default, passed explicitly
    growth_steps: int = 4096       # growth: Brownian driver steps
    growth_mesh: int = 8192        # growth: solver mesh (4096 is unstable)
    cv_segments: int = 64          # changevar: random-polyline segments
    cv_mesh: int = 2048
    cv_tol: float = 1e-4
    lift_steps: int = 4096         # lift: m = 2 random-walk steps


FULL = Sizes()
TINY = Sizes(fine_mesh=4096, coarse_mesh=1024, traj_tol=1e-2,
             growth_steps=1024, growth_mesh=1024, cv_segments=8, cv_mesh=128,
             cv_tol=1e-2, lift_steps=16)


@dataclass
class Verdict:
    ok: bool
    err_ratio: float | None = None   # error / its tolerance, where defined
    detail: str = ""


def _read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


class _CliWorkload:
    """An `rde` command run in-process; its report text is swallowed."""

    command = ""

    def __init__(self, workdir: str, config: dict, seed: int):
        self.out = os.path.join(workdir, "out")
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        self.seed = seed

    def run(self) -> int:
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return rp_cli.main([self.command, "--config", self.config_path,
                                "--out", self.out, "--seed", str(self.seed)])

    def artifact_bytes(self) -> int:
        return _dir_bytes(self.out) if os.path.isdir(self.out) else 0


class Explosion(_CliWorkload):
    """`rde explosion-demo`: blow-up of y' = y^2 at t* = 1/a1."""

    name = "explosion"
    command = "explosion-demo"

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.a1 = float(np.random.default_rng(seed).uniform(0.5, 2.0))
        self.sizes = sizes
        super().__init__(workdir, {
            "a1": self.a1, "fine_mesh": sizes.fine_mesh,
            "coarse_mesh": sizes.coarse_mesh, "traj_tol": sizes.traj_tol,
            "time_tol": sizes.time_tol}, seed)

    def verify(self, rc: int) -> Verdict:
        if rc != 0:
            return Verdict(False, detail=f"rde exit code {rc}")
        data = _read_csv(os.path.join(self.out, "explosion_trajectory.csv"))
        t, y1, y2 = data[:, 0], data[:, 1], data[:, 2]
        exact = self.a1 / (1.0 - self.a1 * t)
        rel = float(np.max(np.abs(y1 - exact) / exact))
        with open(os.path.join(self.out, "explosion_blowup.json")) as fh:
            crossing = float(json.load(fh)["crossing_time"])
        s = self.sizes
        checks = {
            "horizon 0.9 t*": abs(t[-1] - 0.9 / self.a1) <= 1e-12,
            "hyperbola": rel <= s.traj_tol,
            "crossing time": abs(crossing - 1.0 / self.a1) <= s.time_tol,
            "sup|y2|": float(np.max(np.abs(y2))) <= 1e-10,
        }
        bad = [k for k, v in checks.items() if not v]
        return Verdict(not bad, rel / s.traj_tol,
                       f"rel={rel:.4e} crossing={crossing:.6f} failed={bad}")


class Growth(_CliWorkload):
    """`rde growth-demo` on a seeded Stratonovich Brownian driver."""

    name = "growth"
    command = "growth-demo"

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        # At mesh 4096 the lambda = 8 solve blows up spuriously for about
        # 2% of drivers (NOTES.md, defect (e)); 8192 steps are stable.
        super().__init__(workdir, {
            "field": {"name": "counterexample"},
            "driver": {"kind": "brownian-stratonovich",
                       "steps": sizes.growth_steps, "m": 1, "T": 1.0},
            "a": [1.0, 0.0], "T": 1.0, "mesh": sizes.growth_mesh,
            "lambdas": [1.0, 2.0, 4.0, 8.0]}, seed)

    def verify(self, rc: int) -> Verdict:
        if rc != 0:
            return Verdict(False, detail=f"rde exit code {rc}")
        d = _read_csv(os.path.join(self.out, "growth_table.csv"))
        lam, pvar, s, sup_y, log_sup, explosion = d.T
        # dilation scales the p-variation norm linearly
        scaling = float(np.max(np.abs(pvar / lam - pvar[0] / lam[0]))
                        / pvar[0])
        c2 = float(np.polyfit(s, log_sup, 1)[0])
        slack = float(np.min(np.max(log_sup - c2 * s) + c2 * s - log_sup))
        checks = {
            "four lambdas": len(lam) == 4,
            "no explosion": not np.any(explosion),
            "envelope slack": slack >= -1e-9,
            "pvar dilation": scaling <= 1e-9,
            "log sup": bool(np.allclose(log_sup, np.log(sup_y + 1.0),
                                        rtol=1e-12, atol=0.0)),
            "sup|y| >= |a|": bool(np.all(sup_y >= 1.0)),
        }
        bad = [k for k, v in checks.items() if not v]
        return Verdict(not bad, None, f"slack={slack:.2e} failed={bad}")


@dataclass
class _ChangevarOutput:
    shift: object
    y: np.ndarray
    pushed: object
    direct: object
    distance: float


class Changevar:
    """Log-sphere change of variable at the level of partial rough paths."""

    name = "changevar"

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.x = rp_cli.driver_from_config(
            {"kind": "random-polyline", "n": sizes.cv_segments,
             "scale": 0.2, "m": 1, "T": 1.0}, seed)
        self.sizes = sizes

    def run(self) -> _ChangevarOutput:
        x, mesh = self.x, self.sizes.cv_mesh
        f = rp.make_field("counterexample")
        a = np.array([1.0, 0.0])
        sol_y = rp.solve_rde(x, f, a, 1.0, rp.SolverConfig(base_mesh=mesh))
        radius = float(np.max(np.linalg.norm(sol_y.y, axis=1)))
        shift = rp.choose_shift(a, 1.5 * radius)
        h = rp.transformed_field(f, shift)
        sol_z = rp.solve_rde(
            x, h, shift.state_of(a), 1.0,
            rp.SolverConfig(base_mesh=mesh,
                            state_projection=rp.sphere_state_projection(f.d)))
        py = rp.solution_to_partial(sol_y, x)
        pz = rp.solution_to_partial(sol_z, x)
        psi = rp.SmoothMap(f.d, f.d + 1, shift.state_of,
                           lambda y: rp.grad_phi(shift.b + y))
        pushed = rp.pushforward(py, psi)
        return _ChangevarOutput(shift, sol_y.y, pushed, pz,
                                rp.pvar_distance(pushed, pz))

    def verify(self, out: _ChangevarOutput) -> Verdict:
        z = out.shift.b + out.y
        r = np.linalg.norm(z, axis=1)
        psi_ref = np.column_stack([z / r[:, None], np.log(r)])
        chart_err = float(np.max(np.abs(out.pushed.y - psi_ref)))
        gap = float(np.max(np.abs(out.pushed.y - out.direct.y)))
        tol = self.sizes.cv_tol
        checks = {
            "psi(y) reference": chart_err <= 1e-12,
            "pointwise gap": gap <= tol,
            "min|b+y| >= r_min": float(np.min(r)) >= out.shift.r_min,
            "finite pvar_distance": math.isfinite(out.distance),
        }
        bad = [k for k, v in checks.items() if not v]
        return Verdict(not bad, gap / tol,
                       f"gap={gap:.3e} pvar_distance={out.distance:.4g} "
                       f"failed={bad}")


@dataclass
class _LiftOutput:
    lifted: object
    read_back: object
    chen: float
    geo: float


class Lift:
    """The work of `rde lift` plus a read-back, as library calls."""

    name = "lift"

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        n = sizes.lift_steps
        steps = np.random.default_rng(seed).normal(0.0, 1.0, size=(n, 2))
        self.points = np.zeros((n + 1, 2))
        np.cumsum(steps, axis=0, out=self.points[1:])
        self.times = np.linspace(0.0, 1.0, n + 1)
        # the lift by its definition, as the reference
        u = self.points - self.points[0]
        delta = np.diff(self.points, axis=0)
        self.level1 = u
        self.level2 = np.zeros((n + 1, 2, 2))
        np.cumsum(np.einsum("ki,kj->kij", u[:-1], delta)
                  + 0.5 * np.einsum("ki,kj->kij", delta, delta),
                  axis=0, out=self.level2[1:])
        self.polyline = os.path.join(workdir, "walk.csv")
        self.roughpath = os.path.join(workdir, "roughpath.csv")
        with open(self.polyline, "w") as fh:
            fh.write("t,x1,x2\n")
            for t, (p1, p2) in zip(self.times, self.points):
                fh.write("%.17g,%.17g,%.17g\n" % (t, p1, p2))

    def run(self) -> _LiftOutput:
        times, pts = rp.read_polyline_csv(self.polyline)
        lifted = rp.lift_piecewise_linear(pts, times)
        rp.write_roughpath_csv(lifted, self.roughpath)
        back = rp.read_roughpath_csv(self.roughpath)
        return _LiftOutput(lifted, back, rp.chen_defect(back),
                           rp.geometricity_defect(back))

    def verify(self, out: _LiftOutput) -> Verdict:
        # The command's own 1e-12 bounds are absolute; roundoff grows with
        # |level2|, so the defects are checked against the path's scale.
        scale = float(np.max(np.abs(self.level2)))
        back, lifted = out.read_back, out.lifted
        roundtrip = max(float(np.max(np.abs(back.level1 - lifted.level1))),
                        float(np.max(np.abs(back.level2 - lifted.level2))))
        reference = max(float(np.max(np.abs(back.level1 - self.level1))),
                        float(np.max(np.abs(back.level2 - self.level2))))
        bound = 1e-12 * scale
        checks = {
            "times": bool(np.array_equal(back.times, self.times)),
            "read-back equals lift": roundtrip <= bound,
            "reference lift": reference <= bound,
            "chen defect": out.chen <= bound,
            "geometricity defect": out.geo <= bound,
        }
        bad = [k for k, v in checks.items() if not v]
        return Verdict(not bad, None,
                       f"roundtrip={roundtrip:.1e} "
                       f"chen/scale={out.chen / scale:.1e} "
                       f"geo/scale={out.geo / scale:.1e} failed={bad}")


WORKLOADS = {w.name: w for w in (Explosion, Growth, Changevar, Lift)}
