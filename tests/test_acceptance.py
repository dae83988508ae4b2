"""Acceptance suite: one test per shipped guarantee, at fixed tolerances.

Run with output visible:

    pytest -s tests/test_acceptance.py

Each test prints a single [criterion N] PASS line (failures raise) and
asserts its runtime budget.
"""

import math
import time

import numpy as np
from scipy.linalg import expm

import roughpaths as rp

from oracles import riemann_stieltjes


def _finish(n: int, label: str, t0: float, limit: float):
    elapsed = time.perf_counter() - t0
    print(f"[criterion {n}] PASS {label} ({elapsed:.2f} s; budget {limit:g} s)")
    assert elapsed < limit, f"criterion {n} exceeded its {limit}s budget"


def test_criterion_1_algebra_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        a = rp.GroupElement2(rng.normal(size=m), rng.normal(size=(m, m)))
        b = rp.GroupElement2(rng.normal(size=m), rng.normal(size=(m, m)))
        c = rp.GroupElement2(rng.normal(size=m), rng.normal(size=(m, m)))
        assoc_l = rp.mul(rp.mul(a, b), c)
        assoc_r = rp.mul(a, rp.mul(b, c))
        assert np.max(np.abs(assoc_l.level1 - assoc_r.level1)) <= 1e-13
        assert np.max(np.abs(assoc_l.level2 - assoc_r.level2)) <= 1e-13
        ai = rp.inv(a)
        assert np.array_equal(ai.level1, -a.level1)
        assert np.max(np.abs(ai.level2 - (np.outer(a.level1, a.level1)
                                          - a.level2))) == 0.0
        unit = rp.mul(a, ai)
        assert np.max(np.abs(unit.level1)) <= 1e-13
        assert np.max(np.abs(unit.level2)) <= 1e-13
        whole = rp.increment(a, c)
        glued = rp.mul(rp.increment(a, b), rp.increment(b, c))
        assert np.max(np.abs(whole.level1 - glued.level1)) <= 1e-13
        assert np.max(np.abs(whole.level2 - glued.level2)) <= 1e-13
    _finish(1, "algebra: group axioms, inverse formula, Chen relation",
            t0, 1.0)


def test_criterion_2_geometric_lift():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        pts = np.vstack([np.zeros(m),
                         np.cumsum(rng.normal(size=(n, m)), axis=0)])
        x = rp.lift_piecewise_linear(pts, np.linspace(0.0, 1.0, n + 1))
        assert rp.chen_defect(x) <= 1e-12
        assert rp.geometricity_defect(x) <= 1e-12
    v = np.array([1.0, 0.5])
    w = np.array([0.25, -1.5])
    two = rp.lift_piecewise_linear(np.vstack([np.zeros(2), v, v + w]),
                                   [0.0, 1.0, 2.0])
    expected = 0.5 * np.outer(v, v) + 0.5 * np.outer(w, w) + np.outer(v, w)
    assert np.array_equal(two.increment(0, 2).level2, expected)
    _finish(2, "polyline lifts: multiplicative, geometric, exact two-segment "
               "level 2", t0, 1.0)


def test_criterion_3_sewing_convergence():
    t0 = time.perf_counter()
    theta = 1.5
    rng = np.random.default_rng(102)
    v = rng.normal(size=3)
    arp = rp.AlmostRoughPath(
        lambda s, t: np.sin(3 * t) - np.sin(3 * s) + (t - s) ** theta * v,
        theta=theta)
    res = rp.sew(arp, 0.0, 1.0, tol=0.0, max_level=10, full_output=True)
    target = 2.0 ** (1.0 - theta) + 0.1
    for g0, g1 in zip(res.gaps[1:-1], res.gaps[2:]):
        assert g1 / g0 <= target
    n = 2 ** 12
    grid = np.linspace(0.0, 1.0, n + 1)
    young = rp.young_integral(grid, grid, p_int=1.0, q_drv=1.0)
    assert abs(young[-1] - 0.5) <= 1e-10
    _finish(3, f"sewing: dyadic ratio <= {target:.2f}, Young t dt = 1/2",
            t0, 5.0)


def test_criterion_4_solver_oracle_equivalence():
    t0 = time.perf_counter()
    cfg = rp.SolverConfig(base_mesh=4096)
    # exponential against a e^t
    a = 1.3
    tl = rp.lift_piecewise_linear(np.array([[0.0], [1.0]]), [0.0, 1.0])
    sol = rp.solve_rde(tl, rp.linear_field(1.0), np.array([a]), 1.0, cfg)
    assert abs(sol.y[-1, 0] - a * math.e) <= 1e-6 * a * math.e
    # matrix field against the matrix exponential
    A = np.array([[0.0, -1.0], [1.0, -0.3]])
    a2 = np.array([1.0, 0.5])
    sol2 = rp.solve_rde(tl, rp.linear_field(A), a2, 1.0, cfg)
    for k in range(0, 4097, 512):
        want = expm(A * sol2.x[k, 0]) @ a2
        assert np.linalg.norm(sol2.y[k] - want) <= 1e-6
    # scalar geometric driver against a exp(x_T - x_0)
    rng = np.random.default_rng(103)
    pts = np.concatenate([[0.0], np.cumsum(rng.normal(size=6) * 0.25)])
    x = rp.lift_piecewise_linear(pts[:, None], np.linspace(0.0, 1.0, 7))
    sol3 = rp.solve_rde(x, rp.linear_field(1.0), np.array([a]), 1.0, cfg)
    want = a * math.exp(pts[-1] - pts[0])
    assert abs(sol3.y[-1, 0] - want) <= 1e-6 * abs(want)
    _finish(4, "solver: exp, matrix-exponential, and flow-map oracles at "
               "mesh 2^-12", t0, 10.0)


def test_criterion_5_explosion_reproduction():
    t0 = time.perf_counter()
    field = rp.counterexample_field()
    h2 = rp.f_dot_grad_f(field)
    # trajectory accuracy up to t = 0.9 (first-order scheme: fine mesh)
    geo, drift = rp.decompose(rp.pure_area_path(0.9))
    fine = rp.SolverConfig(base_mesh=2 ** 18)
    sol = rp.solve_rde_corrected(geo, drift, field, h2, np.array([1.0, 0.0]),
                                 0.9, fine)
    assert np.max(np.abs(sol.y[:, 1])) <= 1e-10
    exact = 1.0 / (1.0 - sol.times)
    assert np.max(np.abs(sol.y[:, 0] - exact) / exact) <= 1e-4
    # blow-up estimates for a1 = 1 and a1 = 2
    coarse = rp.SolverConfig(base_mesh=4096, r_max=1e6)
    for a1, lo, hi in [(1.0, 0.95, 1.05), (2.0, 0.45, 0.55)]:
        T = 1.5 / a1
        g, d = rp.decompose(rp.pure_area_path(T))
        s = rp.solve_rde_corrected(g, d, field, h2, np.array([a1, 0.0]), T,
                                   coarse)
        assert s.blowup is not None
        assert lo <= s.blowup.crossing_time <= hi
    _finish(5, "explosion: hyperbola trajectory, zero second component, "
               "crossing times", t0, 10.0)


def test_criterion_6_global_existence_envelope():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    pts = np.concatenate([[0.0], np.cumsum(rng.normal(size=8) * 0.12)])
    x = rp.lift_piecewise_linear(pts[:, None], np.linspace(0.0, 5.0, 9))
    rep = rp.growth_bound_check(rp.counterexample_field(), x,
                                np.array([1.0, 0.0]), 5.0,
                                rp.SolverConfig(base_mesh=4096),
                                lambdas=(1.0, 2.0, 4.0, 8.0))
    assert not rep.any_explosion
    assert rep.min_slack >= 0.0 - 1e-9
    assert rep.passed
    _finish(6, "global existence: no explosion across scalings, affine "
               "log envelope", t0, 30.0)


def test_criterion_7_change_of_variable():
    t0 = time.perf_counter()
    mesh = 1024
    tol = 1e-4
    # 1D linear field: transformed field is the constant (0, 1)
    f1 = rp.linear_field(1.0)
    pts = np.array([0.0, 0.25, 0.05, 0.3, 0.15, 0.4])
    x1 = rp.lift_piecewise_linear(pts[:, None], np.linspace(0.0, 1.0, 6))
    a1 = np.array([2.0])
    cfg = rp.SolverConfig(base_mesh=mesh)
    sol_y = rp.solve_rde(x1, f1, a1, 1.0, cfg)
    shift = rp.ShiftedMap(np.zeros(1))
    h = rp.transformed_field(f1, shift)
    assert np.allclose(h.eval(shift.state_of(a1)), [[0.0], [1.0]], atol=1e-13)
    sol_z = rp.solve_rde(x1, h, shift.state_of(a1), 1.0,
                         rp.SolverConfig(base_mesh=mesh,
                                         state_projection=rp.sphere_state_projection(1)))
    mapped = np.array([shift.state_of(yv) for yv in sol_y.y])
    assert np.max(np.abs(mapped - sol_z.y)) <= tol
    # 2D counterexample field with a geometric scalar driver
    rng = np.random.default_rng(105)
    f2 = rp.counterexample_field()
    pts2 = np.concatenate([[0.0], np.cumsum(rng.normal(size=6) * 0.25)])
    x2 = rp.lift_piecewise_linear(pts2[:, None], np.linspace(0.0, 1.0, 7))
    a2 = np.array([1.0, 0.0])
    sol_y2 = rp.solve_rde(x2, f2, a2, 1.0, cfg)
    radius = float(np.max(np.linalg.norm(sol_y2.y, axis=1)))
    shift2 = rp.choose_shift(a2, 1.5 * radius)
    h2 = rp.transformed_field(f2, shift2)
    sol_z2 = rp.solve_rde(x2, h2, shift2.state_of(a2), 1.0,
                          rp.SolverConfig(base_mesh=mesh,
                                          state_projection=rp.sphere_state_projection(2)))
    mapped2 = np.array([shift2.state_of(yv) for yv in sol_y2.y])
    assert np.max(np.abs(mapped2 - sol_z2.y)) <= tol
    _finish(7, "change of variable: dual routes agree at mesh 2^-10",
            t0, 20.0)


def test_criterion_8_decomposition_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    # exact recomposition on random valid rough paths
    for _ in range(10):
        n, m = 20, 3
        times = np.linspace(0.0, 1.0, n)
        u = np.vstack([np.zeros(m), rng.normal(size=(n - 1, m))])
        b = np.vstack([np.zeros((1, m, m)), rng.normal(size=(n - 1, m, m))])
        path = rp.RoughPath(times, u, b)
        geo, drift = rp.decompose(path)
        back = rp.recompose(geo, drift)
        assert np.max(np.abs(back.level2 - path.level2)) <= 1e-13
        assert rp.geometricity_defect(geo) <= 1e-12
    # pure-area drift is exactly t
    pa = rp.pure_area_path(1.0, n_points=17)
    _, drift = rp.decompose(pa)
    assert np.array_equal(drift.beta[:, 0, 0], pa.times)
    # left-point Brownian lift at 1e5 steps, fixed seed
    T = 1.0
    ito = rp.brownian_lift(42, 100_000, T, 2, "ito")
    _, bdrift = rp.decompose(ito)
    err = np.linalg.norm(bdrift.beta[-1] + 0.5 * T * np.eye(2), "fro")
    assert err <= 0.05 * T
    # route equivalence at mesh 2^-12
    pts = np.concatenate([[0.0], np.cumsum(rng.normal(size=6) * 0.3)])
    x = rp.lift_piecewise_linear(pts[:, None], np.linspace(0.0, 1.0, 7))
    geo0, _ = rp.decompose(x)
    vals = 0.05 * np.cumsum(np.abs(rng.normal(size=(7, 1, 1))), axis=0)
    vals[0] = 0.0
    drift = rp.AreaDrift(geo0.times, vals)
    full = rp.recompose(geo0, drift)
    f = rp.counterexample_field()
    cfg = rp.SolverConfig(base_mesh=4096)
    a = np.array([1.0, 0.0])
    direct = rp.solve_rde(full, f, a, 1.0, cfg)
    corrected = rp.solve_rde_corrected(geo0, drift, f, rp.f_dot_grad_f(f), a,
                                       1.0, cfg)
    assert np.max(np.abs(direct.y - corrected.y)) <= 1e-6
    _finish(8, "decomposition: exact recomposition, pure-area drift, "
               "Brownian drift, route equivalence", t0, 60.0)


def test_criterion_9_bound_machinery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    cfg = rp.SolverConfig(p=2.0, base_mesh=512)
    field = rp.tanh_field(2, 1, seed=10)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(4, 10))
        pts = np.zeros((n + 1, 1))
        pts[1:] = np.cumsum(rng.normal(0.0, rng.uniform(0.05, 0.5),
                                       size=(n, 1)), axis=0)
        x = rp.lift_piecewise_linear(pts, np.linspace(0.0, 1.0, n + 1))
        part = rp.adaptive_partition(x, field.bounds, cfg)
        if np.isfinite(part.L):
            step = part.L * part.pvar ** -cfg.p
            N = part.n_intervals
            assert (N - 1) * step <= 1.0 * (1 + 1e-9)
            assert 1.0 <= N * step * (1 + 1e-9)
        bound = rp.apriori_sup_bound(field.bounds, x, 1.0, cfg)
        sol = rp.solve_rde(x, field, np.array([0.2, -0.1]), 1.0, cfg)
        dev = float(np.max(np.linalg.norm(sol.y - sol.y[0], axis=1)))
        assert dev <= bound
        checked += 1
    assert checked == 50
    _finish(9, "bounds: partition bracket and a-priori sup bound on 50 "
               "drivers", t0, 30.0)
