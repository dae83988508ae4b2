import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from roughpaths import cli
from roughpaths.cli import Check, _merged, main
from roughpaths.rough_paths import decompose, geometricity_defect


def run(tmp_path, command, config=None, seed=None, name="out"):
    argv = [command, "--out", str(tmp_path / name)]
    if config is not None:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


def test_convergence_command(tmp_path, capsys):
    assert run(tmp_path, "convergence") == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    table = (tmp_path / "out" / "convergence.csv").read_text()
    assert table.startswith("mesh,sup_error,order")


def test_convergence_zero_problem(tmp_path):
    assert run(tmp_path, "convergence",
               {"problem": "zero", "meshes": [64, 128]}) == 0


def test_convergence_matrix_problem(tmp_path):
    assert run(tmp_path, "convergence",
               {"problem": "matrix", "meshes": [128, 256, 512, 1024]}) == 0


def test_matrix_problem_closed_form_matches_expm():
    # expm is the oracle here only: the library computes exp(tA) a in
    # closed form.  A is read off the problem's field, y -> A y, and the
    # grid is the finest default mesh, which holds the others
    T = cli.DEFAULTS["convergence"]["T"]
    field, a, _, exact = cli._convergence_problem("matrix", T)
    A = np.column_stack([field.eval(e)[:, 0] for e in np.eye(2)])
    t = np.linspace(0.0, T, max(cli.DEFAULTS["convergence"]["meshes"]) + 1)
    oracle = np.array([expm(ti * A) @ a for ti in t])
    assert np.max(np.abs(exact(t) - oracle)) <= 1e-15


def test_library_and_cli_import_without_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, roughpaths, roughpaths.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_growth_demo_command(tmp_path):
    assert run(tmp_path, "growth-demo", {"mesh": 1024}) == 0
    table = (tmp_path / "out" / "growth_table.csv").read_text().splitlines()
    assert table[0] == "lambda,pvar,s,sup_y,log_sup_y,explosion"
    assert len(table) == 5
    assert (tmp_path / "out" / "growth.svg").exists()


def test_changevar_command_default(tmp_path):
    assert run(tmp_path, "changevar-check") == 0


def test_changevar_command_1d_exact(tmp_path, capsys):
    cfg = {
        "field": {"name": "linear", "A": 1.0},
        "driver": {"kind": "zigzag", "n": 6, "amplitude": 0.15, "m": 1,
                   "T": 1.0},
        "a": [2.0],
        "T": 1.0,
        "mesh": 4096,
        "shift": 0.0,
        "tol": 1e-8,
    }
    assert run(tmp_path, "changevar-check", cfg) == 0
    assert "PASS" in capsys.readouterr().out


def test_decompose_command_small_ito(tmp_path, capsys):
    cfg = {"driver": {"kind": "brownian-ito", "steps": 20000, "m": 2,
                      "T": 1.0}}
    assert run(tmp_path, "decompose", cfg, seed=42) == 0
    assert (tmp_path / "out" / "beta.csv").exists()
    assert "beta(T) + T/2 I" in capsys.readouterr().out


def test_decompose_command_pure_area(tmp_path):
    cfg = {"driver": {"kind": "pure-area", "T": 2.0, "m": 1}}
    assert run(tmp_path, "decompose", cfg) == 0


def test_explosion_demo_command_small(tmp_path, capsys):
    # reduced fine mesh for test runtime; tolerance scaled accordingly
    cfg = {"fine_mesh": 16384, "traj_tol": 2e-3, "coarse_mesh": 4096}
    assert run(tmp_path, "explosion-demo", cfg) == 0
    blow = json.loads((tmp_path / "out" / "explosion_blowup.json").read_text())
    assert blow["threshold"] == 1e6
    assert 0.95 <= blow["crossing_time"] <= 1.05
    assert (tmp_path / "out" / "explosion.svg").exists()


def test_explosion_trajectory_keeps_the_end_on_small_meshes(tmp_path):
    # rows 0, s, 2s, ... with s = max(1, K // 1024) and always row K: at
    # fine_mesh 128 every row, and the last at 0.9 t*
    cfg = {"fine_mesh": 128, "coarse_mesh": 1024, "traj_tol": 1.0}
    assert run(tmp_path, "explosion-demo", cfg) == 0
    rows = (tmp_path / "out" / "explosion_trajectory.csv").read_text()
    t = [float(r.split(",")[0]) for r in rows.splitlines()[1:]]
    assert t == list(np.linspace(0.0, 0.9, 129))
    cfg["fine_mesh"] = 4096       # s = 4: rows 0, 4, ..., 4096
    assert run(tmp_path, "explosion-demo", cfg, name="coarse") == 0
    rows = (tmp_path / "coarse" / "explosion_trajectory.csv").read_text()
    assert len(rows.splitlines()) == 1 + 1025


def test_linear_field_config_with_m_exits_two(tmp_path, capsys):
    # m is read off A; a config that also gives it is a bad config
    cfg = {"field": {"name": "linear", "A": np.ones((2, 3, 2)).tolist(),
                     "m": 5}}
    assert run(tmp_path, "solve", cfg) == 2
    assert "unexpected keyword argument 'm'" in capsys.readouterr().err


def test_lift_and_solve_commands(tmp_path):
    src = tmp_path / "poly.csv"
    src.write_text("t,x1\n0,0\n0.5,0.3\n1,0.1\n")
    assert run(tmp_path, "lift", {"input": str(src)}) == 0
    out = (tmp_path / "out" / "roughpath.csv").read_text().splitlines()
    assert out[0] == "t,x1,x2_11"
    assert out[1] == "0,0,0"
    assert len(out) == 4
    assert run(tmp_path, "solve", {}, name="solved") == 0
    sol = (tmp_path / "solved" / "solution.csv").read_text().splitlines()
    assert sol[0] == "t,y1"


def test_lifted_csv_drives_solve_and_the_interval_format_exits_two(
        tmp_path, capsys):
    src = tmp_path / "poly.csv"
    src.write_text("t,x1\n0,0\n0.5,0.3\n1,0.1\n")
    assert run(tmp_path, "lift", {"input": str(src)}) == 0
    lifted = tmp_path / "out" / "roughpath.csv"
    assert run(tmp_path, "solve", {"driver": {"kind": "csv",
                                              "path": str(lifted)}},
               name="solved") == 0
    old = tmp_path / "old.csv"
    old.write_text("s,t,x1,x2_11\n0,0.5,0.3,0.045\n0.5,1,-0.2,0.02\n")
    assert run(tmp_path, "solve", {"driver": {"kind": "csv",
                                              "path": str(old)}},
               name="old") == 2
    assert "header" in capsys.readouterr().err


def test_lift_bound_scales_with_level2(tmp_path):
    # 2048 unit steps reach |level2| ~ 2e3; the geometricity defect
    # (3.6e-12) is roundoff at that scale, over an absolute 1e-12
    rng = np.random.default_rng(0)
    pts = np.vstack([np.zeros(2), np.cumsum(rng.normal(size=(2048, 2)),
                                            axis=0)])
    times = np.linspace(0.0, 1.0, 2049)
    src = tmp_path / "walk.csv"
    np.savetxt(src, np.column_stack([times, pts]), fmt="%.17g",
               delimiter=",", header="t,x1,x2", comments="")
    assert run(tmp_path, "lift", {"input": str(src)}) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "FAIL" not in report


def test_lift_rejects_non_finite_polyline(tmp_path, capsys):
    src = tmp_path / "poly.csv"
    src.write_text("t,x1,x2\n0,0,0\n0.5,nan,1\n0.75,0.2,0.1\n1,0.1,0.3\n")
    assert run(tmp_path, "lift", {"input": str(src)}) == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


def test_config_of_another_kind_replaces_the_default():
    # a field of another name or a driver of another kind keeps none of
    # the default's parameters; the same kind still updates them
    assert _merged("solve", {"field": {"name": "tanh"}})["field"] == {
        "name": "tanh"}
    ito = {"kind": "brownian-ito", "steps": 64}
    assert _merged("growth-demo", {"driver": ito})["driver"] == ito
    assert _merged("solve", {"field": {"A": 2.0}})["field"] == {
        "name": "linear", "A": 2.0}
    assert _merged("growth-demo", {"driver": {"kind": "zigzag", "n": 4}})[
        "driver"] == {"kind": "zigzag", "n": 4, "amplitude": 0.15, "m": 1,
                      "T": 5.0}
    assert _merged("solve", {"solver": {"r_max": 2.0}})["solver"] == {
        "r_max": 2.0}


def test_solve_reports_blowup(tmp_path):
    cfg = {
        "field": {"name": "linear", "A": 8.0},
        "driver": {"kind": "zigzag", "n": 2, "amplitude": 2.0, "m": 1,
                   "T": 4.0},
        "a": [1.0],
        "T": 4.0,
        "mesh": 2048,
        "solver": {"r_max": 10.0},
    }
    assert run(tmp_path, "solve", cfg) == 0
    assert (tmp_path / "out" / "blowup.json").exists()


def _files(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


@pytest.mark.parametrize("command, first, second, blowup", [
    ("solve", {"solver": {"r_max": 1.5}}, {}, "blowup.json"),
    ("explosion-demo", {"fine_mesh": 4096},
     {"fine_mesh": 4096, "horizon_factor": 0.5}, "explosion_blowup.json")])
def test_rerun_without_a_crossing_leaves_no_stale_blowup(
        tmp_path, command, first, second, blowup):
    # a run that crosses r_max, then one that does not, into one --out:
    # the files and bytes of a fresh run of the second, each time
    run(tmp_path, command, second, name="fresh")
    fresh = _files(tmp_path / "fresh")
    assert blowup not in fresh
    run(tmp_path, command, first, name="out")
    assert (tmp_path / "out" / blowup).exists()
    for _ in range(2):
        run(tmp_path, command, second, name="out")
        assert _files(tmp_path / "out") == fresh


@pytest.mark.parametrize("n, cap", [(101, 1), (101, 2), (101, 10),
                                    (101, 34), (101, 100), (101, 101),
                                    (101, 500), (2, 1), (25, 24)])
def test_decompose_writes_at_most_max_csv_rows(tmp_path, n, cap):
    # the stride used to be n // cap: 4167 rows for 100,001 points and a
    # cap of 4096
    driver = {"kind": "brownian-ito", "steps": n - 1, "m": 1, "T": 1.0}
    run(tmp_path, "decompose", {"driver": driver, "max_csv_rows": cap})
    lines = (tmp_path / "out" / "beta.csv").read_text().splitlines()
    rows = len(lines) - 1
    assert min(n, cap) / 2 <= rows <= min(n, cap)
    assert lines[1].startswith("0,")


def test_outputs_are_deterministic(tmp_path):
    assert run(tmp_path, "growth-demo", {"mesh": 512}, name="a") == 0
    assert run(tmp_path, "growth-demo", {"mesh": 512}, name="b") == 0
    for fname in ("growth_table.csv", "growth.svg", "report.txt"):
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes())


def test_bad_config_exits_two(tmp_path, capsys):
    assert run(tmp_path, "convergence", {"meshes": [100]}) == 2
    assert "power of two" in capsys.readouterr().err
    assert run(tmp_path, "lift", {}) == 2


@pytest.mark.parametrize("rows", [0, -1, 2.5, True])
def test_decompose_rejects_max_csv_rows_below_one(tmp_path, capsys, rows):
    # 0 used to divide by zero, and -1 wrote every row and passed
    driver = {"kind": "brownian-ito", "steps": 64, "m": 2, "T": 1.0}
    assert run(tmp_path, "decompose",
               {"driver": driver, "max_csv_rows": rows}) == 2
    err = capsys.readouterr().err
    assert "max_csv_rows" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "beta.csv").exists()


@pytest.mark.parametrize("value", [5, 0, ["poly.csv"], ""])
def test_lift_rejects_an_input_that_is_not_a_path(tmp_path, capsys, value):
    # an int used to reach open() as a file descriptor
    assert run(tmp_path, "lift", {"input": value}) == 2
    err = capsys.readouterr().err
    assert "'input'" in err and "Traceback" not in err


@pytest.mark.parametrize("meshes", [[], [64]])
def test_convergence_rejects_fewer_than_two_meshes(tmp_path, capsys, meshes):
    # [] used to print `median order : nan` and exit 1
    assert run(tmp_path, "convergence", {"meshes": meshes}) == 2
    err = capsys.readouterr().err
    assert "meshes" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "convergence.csv").exists()


@pytest.mark.parametrize("command, config", [
    ("convergence", {"meshes": [64, 128.5]}),   # not truncated to 128
    ("convergence", {"meshes": [64, 128.0]}),
    ("growth-demo", {"mesh": True}),            # not run at mesh 1
    ("solve", {"mesh": "64"}),
    ("explosion-demo", {"fine_mesh": 4096.5}),
    ("explosion-demo", {"coarse_mesh": False}),
])
def test_non_integer_mesh_exits_two(tmp_path, capsys, command, config):
    assert run(tmp_path, command, config) == 2
    assert "mesh must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"field": {"name": "linear", "A": [[1.0, 2.0, 3.0]]}},   # A not (d, d)
    {"a": [1, 2]},                  # state shape does not match the field
    {"T": 2.0},                     # horizon past the driver's range
    {"field": {"name": "tanh"}},    # d = 2 field against a 1-d state
    {"field": {"name": "zero", "d": 0}},   # its jet has no lines to run
    {"solver": {"r_max": float("nan")}},   # written as NaN, which JSON reads
    {"T": float("nan")},            # rejected before the first step
    {"T": 0.0},
])
def test_library_value_errors_exit_two(tmp_path, capsys, config):
    assert run(tmp_path, "solve", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_p_outside_its_range_exits_two(tmp_path, capsys):
    # growth-demo is the one command that reads p; SolverConfig checks
    # its range
    assert run(tmp_path, "growth-demo", {"p": 3.5}) == 2
    assert capsys.readouterr().err == "error: p must lie in [2, 3)\n"


@pytest.mark.parametrize("command, config, key", [
    ("solve", {"mesh_size": 7}, "mesh_size"),
    ("solve", {"solver": {"rmax": 10.0}}, "solver.rmax"),
    ("growth-demo", {"a1": 2.0}, "a1"),        # explosion-demo's key
    ("convergence", {"problem": "exp", "mesh": 64, "bogus": 1}, "bogus"),
    ("solve", {"solver": {"K": 2.0}}, "solver.K"),
    # p changes no output of these commands: only growth-demo reads it
    ("explosion-demo", {"p": 2.0}, "p"),
    ("changevar-check", {"p": 2.0}, "p"),
    ("convergence", {"p": 2.0}, "p"),
    ("solve", {"p": 2.0}, "p"),
])
def test_unknown_config_keys_exit_two(tmp_path, capsys, command, config, key):
    assert run(tmp_path, command, config) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, key", [
    ("growth-demo", {"p": "2"}, "p"),
    ("growth-demo", {"p": True}, "p"),
    ("solve", {"T": "1"}, "T"),
    ("solve", {"solver": {"r_max": "5"}}, "solver.r_max"),
    ("growth-demo", {"T": False}, "T"),
    ("convergence", {"T": "1"}, "T"),
    ("changevar-check", {"T": [1.0]}, "T"),
    ("changevar-check", {"tol": -1}, "tol"),
    ("changevar-check", {"tol": "1e-4"}, "tol"),
    ("explosion-demo", {"a1": "1"}, "a1"),
    ("explosion-demo", {"horizon_factor": True}, "horizon_factor"),
    ("explosion-demo", {"traj_tol": -1}, "traj_tol"),
    ("explosion-demo", {"time_tol": -1}, "time_tol"),
    ("explosion-demo", {"time_tol": "0.05"}, "time_tol"),
])
def test_number_keys_reject_non_numbers_and_negative_tolerances(
        tmp_path, capsys, command, config, key):
    # a string or bool was cast by float() and ran (exit 0), and a
    # negative tolerance reported a (<= -1) -> FAIL row (exit 1); both
    # are rejected before anything is solved or written
    assert run(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and "Traceback" not in err
    assert not (tmp_path / "out" / "report.txt").exists()


def test_growth_demo_rejects_an_overflowing_lambda_under_w_error(tmp_path):
    # lambda^2 = inf used to multiply into inf * 0 = NaN, which warns
    # first: a traceback (exit 1) under -W error, exit 2 without it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lambdas": [1.0, 1e200], "mesh": 64}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "roughpaths.cli", "growth-demo",
         "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 2, done.stderr
    assert "lambda = 1e+200" in done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr


def test_malformed_config_exits_two(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{\"mesh\": ")
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2
    cfg_path.write_text("[1, 2]")
    assert main(["solve", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")]) == 2


def test_growth_demo_bad_lambdas_exit_two(tmp_path, capsys):
    assert run(tmp_path, "growth-demo", {"lambdas": [1.0, 0.0]}) == 2
    assert "lambdas" in capsys.readouterr().err
    assert run(tmp_path, "growth-demo", {"lambdas": []}, name="empty") == 2


def test_failing_check_exits_one(tmp_path):
    # an impossible tolerance makes the changevar check fail loudly
    assert run(tmp_path, "changevar-check", {"tol": 1e-18, "mesh": 256}) == 1


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    assert "defaults" in text
    assert "explosion-demo" in text


# one passing and one failing config per gated command
GATED = [
    ("explosion-demo", {"fine_mesh": 4096, "coarse_mesh": 1024,
                        "traj_tol": 1e-2}, 0),
    ("explosion-demo", {"fine_mesh": 4096, "coarse_mesh": 1024,
                        "traj_tol": 1e-12}, 1),
    ("changevar-check", {"mesh": 256}, 0),
    ("changevar-check", {"mesh": 256, "tol": 1e-18}, 1),
    ("decompose", {"driver": {"kind": "pure-area", "T": 2.0, "m": 1}}, 0),
    ("decompose", {"driver": {"kind": "brownian-ito", "steps": 2, "m": 1,
                              "T": 1.0}}, 1),
    ("convergence", {"meshes": [64, 128, 256]}, 0),
    ("convergence", {"meshes": [64, 64]}, 1),
    ("lift", {}, 0),
    ("lift", {}, 1),
]


@pytest.mark.parametrize("command, config, expected", GATED)
def test_exit_code_is_one_exactly_when_a_check_row_fails(
        tmp_path, monkeypatch, command, config, expected):
    if command == "lift":
        src = tmp_path / "poly.csv"
        src.write_text("t,x1,x2\n0,0,0\n0.5,0.3,-0.2\n1,0.1,0.4\n")
        config = {"input": str(src)}
        if expected:
            # a lifted polyline is multiplicative up to roundoff, so the
            # failing run reports a corrupted Chen defect instead
            monkeypatch.setattr(cli, "chen_defect", lambda rp: 1.0)
    reported = []
    real_report = cli._report
    monkeypatch.setattr(cli, "_report", lambda rows, out: reported.append(
        rows) or real_report(rows, out))
    rc = run(tmp_path, command, config, seed=0)
    report = (tmp_path / "out" / "report.txt").read_text()
    assert rc == expected
    assert (rc == 1) == ("-> FAIL" in report)
    verdicts = [row for row in report.splitlines()
                if row.endswith(("-> PASS", "-> FAIL"))]
    assert len(verdicts) == sum(isinstance(r, Check) for r in reported[0])
    assert all(isinstance(r, (str, Check)) for r in reported[0])


@pytest.mark.parametrize("spec, key", [
    ({"field": {"name": "counterexample", "bogus": 1}}, "bogus"),
    ({"field": {"name": "linear", "A": 1.0, "scale": 2.0}}, "scale"),
    ({"driver": {"kind": "zigzag", "n": 4, "steps": 64}}, "steps"),
    ({"driver": {"kind": "brownian-ito", "steps": 64, "amplitude": 1.0}},
     "amplitude"),
])
def test_unknown_field_and_driver_parameters_exit_two(tmp_path, capsys,
                                                     spec, key):
    assert run(tmp_path, "solve", spec) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_decompose_reports_the_exact_defect_at_its_defaults(tmp_path):
    # the default 100,001-point driver: both rows carry the exact
    # geometricity defect (the diameter of the beta path)
    assert run(tmp_path, "decompose", seed=3) == 0
    x = cli.driver_from_config(cli.DEFAULTS["decompose"]["driver"], 3)
    geo, _ = decompose(x)
    rows = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert rows[1] == (f"  {'geometricity defect':<23}: "
                       f"{geometricity_defect(x):.4e}")
    assert rows[2] == (f"  {'geometric part defect':<23}: "
                       f"{geometricity_defect(geo):.3e}  (<= 1e-10) -> PASS")


ZIGZAG = {"kind": "zigzag", "n": 6, "amplitude": 0.3, "m": 1, "T": 1.0}


@pytest.mark.parametrize("command, config, key", [
    # keys a command does not read, which used to be accepted and ignored
    ("lift", {"mesh": 7, "p": 99, "solver": {"r_max": -1}}, "mesh"),
    ("explosion-demo", {"mesh": 3}, "mesh"),
    ("decompose", {"p": 99, "mesh": 5, "solver": {"r_max": "x"}}, "mesh"),
    # values that used to be cast (n 4.7 ran with n = 4) or ignored
    ("solve", {"driver": dict(ZIGZAG, n=4.7)}, "driver.n"),
    ("solve", {"driver": dict(ZIGZAG, n=True)}, "driver.n"),
    ("solve", {"driver": dict(ZIGZAG, m=1.9)}, "driver.m"),
    ("solve", {"driver": dict(ZIGZAG, amplitude="0.3")}, "driver.amplitude"),
    ("solve", {"driver": dict(ZIGZAG, T="1")}, "driver.T"),
    ("solve", {"seed": "42"}, "seed"),
    ("solve", {"seed": 4.7}, "seed"),
    ("solve", {"seed": True}, "seed"),
    ("decompose", {"driver": {"kind": "brownian-ito", "steps": 64.9, "m": 2,
                              "T": 1.0}}, "driver.steps"),
    ("decompose", {"driver": {"kind": "pure-area", "m": 1.5, "T": 1.0}},
     "driver.m"),
    ("solve", {"a": [True]}, "a"),
    ("growth-demo", {"lambdas": [True, 2]}, "lambdas"),
    ("changevar-check", {"shift": True}, "shift"),
    ("changevar-check", {"shift": "10"}, "shift"),
    ("solve", {"output": ""}, "output"),    # was IsADirectoryError, exit 1
])
def test_the_table_rejects_what_was_ignored_or_coerced(tmp_path, capsys,
                                                       command, config, key):
    assert run(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and "Traceback" not in err
    assert not (tmp_path / "out" / "report.txt").exists()


def test_a_negative_seed_option_exits_two(tmp_path, capsys):
    assert run(tmp_path, "solve", {"mesh": 64}, seed=-1) == 2
    assert capsys.readouterr().err.startswith("error: --seed ")


SMALL_EXPLOSION = {"fine_mesh": 4096, "coarse_mesh": 1024}


@pytest.mark.parametrize("command, config, message", [
    # a solve whose state overflows raised FieldEvaluationError (exit 1)
    ("growth-demo", {"lambdas": [1.0, 1e150], "mesh": 64}, "squared norm"),
    ("solve", {"a": [1e200]}, "squared norm"),
    ("explosion-demo", dict(SMALL_EXPLOSION, a1=1e200), "squared norm"),
    ("explosion-demo", dict(SMALL_EXPLOSION, a1=1e-300), "squared norm"),
    # a level 2 or a defect that overflows warned first (exit 1 under -W
    # error); RoughPath or geometricity_defect now reject it
    ("solve", {"driver": dict(ZIGZAG, amplitude=1e200)}, "finite"),
    ("solve", {"driver": {"kind": "random-polyline", "n": 8, "scale": 1e200,
                          "m": 1, "T": 1.0}}, "finite"),
    ("decompose", {"driver": {"kind": "pure-area", "T": 1e308, "m": 1}},
     "finite"),
    ("decompose", {"driver": {"kind": "brownian-ito", "T": 1e300,
                              "steps": 64, "m": 2}}, "overflowed"),
    ("explosion-demo", dict(SMALL_EXPLOSION, horizon_factor=1e308), "finite"),
    # t* = 1 / a1 is inf: pure_area_path rejects it before linspace warns
    ("explosion-demo", dict(SMALL_EXPLOSION, a1=5e-324), "T must be finite"),
    # an int no float holds, where the library reads it (OverflowError)
    ("solve", {"field": {"name": "linear", "A": 10 ** 400}}, "too large"),
    ("growth-demo", {"driver": {"kind": "zigzag", "n": 10, "amplitude": 1e100,
                                "m": 1, "T": 5.0}, "mesh": 64}, "overflowed"),
    # the zigzag's running sum overflowed (a RuntimeWarning)
    ("growth-demo", {"driver": {"kind": "zigzag", "n": 10, "amplitude": 1e308,
                                "m": 1, "T": 5.0}, "mesh": 64},
     "level1 must be finite"),
    ("solve", {"driver": dict(ZIGZAG, n=10, amplitude=-1e308)},
     "level1 must be finite"),
    # exp(T) overflowed: inf errors, a nan median order and exit 1
    ("convergence", {"T": 2.0 ** 62, "meshes": [64, 128]},
     "T must keep the exact solution finite"),
])
def test_overflows_exit_two_without_a_warning(tmp_path, capsys, command,
                                              config, message):
    # warnings are errors in this suite, as under python -W error
    assert run(tmp_path, command, config) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out" / "report.txt").exists()


def test_a_field_evaluation_error_prints_its_time_as_a_float(tmp_path,
                                                            capsys):
    # the mesh time was an np.float64, printed as t=np.float64(0.0)
    assert run(tmp_path, "growth-demo",
               {"lambdas": [1.0, 1e150], "mesh": 64}) == 2
    assert capsys.readouterr().err == (
        "error: the step from t=0.0, y=[1.0, 0.0] gave a state whose "
        "squared norm is not a finite float\n")


def test_growth_demo_no_longer_calls_an_overflowed_defect_non_geometric(
        tmp_path, capsys):
    # the defect used to come out inf, reported as "driver is not
    # geometric (defect inf)"
    run(tmp_path, "growth-demo", {"driver": {
        "kind": "zigzag", "n": 10, "amplitude": 1e100, "m": 1, "T": 5.0},
        "mesh": 64})
    assert "not geometric" not in capsys.readouterr().err


def test_a_directory_as_lift_input_exits_two(tmp_path, capsys):
    # open() on a directory raised IsADirectoryError (exit 1)
    assert run(tmp_path, "lift", {"input": str(tmp_path)}) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert not (tmp_path / "out" / "report.txt").exists()


# a second, smaller run into the same --out directory: every file it
# writes ends with the bytes a fresh directory gets (files are rewritten
# in place, not truncated first)
RERUNS = {
    "explosion-demo": (dict(SMALL_EXPLOSION, fine_mesh=8192), SMALL_EXPLOSION),
    "growth-demo": ({"mesh": 64}, {"mesh": 64, "lambdas": [1.0, 2.0]}),
    "changevar-check": ({"mesh": 128}, {"mesh": 64}),
    "decompose": ({"driver": {"kind": "brownian-ito", "steps": 128, "m": 2,
                              "T": 1.0}},
                  {"driver": {"kind": "brownian-ito", "steps": 64, "m": 2,
                              "T": 1.0}}),
    "convergence": ({"meshes": [64, 128, 256]}, {"meshes": [64, 128]}),
    "lift": ({"input": "poly.csv"}, {"input": "poly.csv"}),
    "solve": ({"mesh": 256}, {"mesh": 64}),
}


@pytest.mark.parametrize("command", sorted(RERUNS))
def test_a_rerun_into_one_directory_writes_the_bytes_of_a_fresh_run(
        tmp_path, monkeypatch, command):
    assert set(RERUNS) == set(cli.COMMANDS)
    first, second = RERUNS[command]
    polylines = ["t,x1,x2\n0,0,0\n0.25,1,2\n0.5,0.3,-0.2\n1,0.1,0.4\n",
                 "t,x1,x2\n0,0,0\n0.5,0.3,-0.2\n1,0.1,0.4\n"]
    codes = []
    # relative paths, so that the reports of both directories agree
    for where, runs in (("rerun", [(first, polylines[0]),
                                   (second, polylines[1])]),
                        ("fresh", [(second, polylines[1])])):
        (tmp_path / where).mkdir()
        monkeypatch.chdir(tmp_path / where)
        for config, polyline in runs:
            Path("poly.csv").write_text(polyline)
            Path("cfg.json").write_text(json.dumps(config))
            codes.append(main([command, "--config", "cfg.json",
                               "--out", "out"]))
    assert codes[1] == codes[2] and codes[2] in (0, 1)
    fresh = sorted(p.name for p in (tmp_path / "fresh" / "out").iterdir())
    assert "report.txt" in fresh
    for name in fresh:
        assert ((tmp_path / "rerun" / "out" / name).read_bytes()
                == (tmp_path / "fresh" / "out" / name).read_bytes()), name
