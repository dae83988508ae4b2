"""The `rde` config table: every key is checked once, before any work.

A hostile value for any key of any command ends in exit 0, 1 or 2 with
no escaping exception (warnings are errors in this suite), and where the
table rejects it in exit 2 with `error: <key>` and no report.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest

from roughpaths import cli
from roughpaths.cli import CHECKS, DEFAULTS, _merged, main

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NAN, INF = float("nan"), float("inf")
# the last three are finite numbers whose arithmetic overflows: a zigzag
# amplitude of +/-1e308 (its running sum) and convergence's T = 2**62
# (exp(T)); 2**62 as a float, which no size key accepts
POOL = ["1", True, None, [], {}, NAN, INF, -INF, 0, -1, 0.5, 1e308, -1e308,
        2.0 ** 62]

# what the table accepts of POOL, as indices, by key name; a name left
# out is checked where the library reads it
_NONE, _NUMBERS = set(), {8, 9, 10, 11, 12, 13}
ACCEPTED = {
    **dict.fromkeys(["mesh", "fine_mesh", "coarse_mesh", "meshes", "n", "m",
                     "d", "steps", "max_csv_rows"], _NONE),
    "seed": {8},
    **dict.fromkeys(["p", "T", "amplitude", "scale", "horizon_factor",
                     "shift"], _NUMBERS),
    "a1": {10, 11, 13},
    "r_max": {5, 6, 7} | _NUMBERS,
    **dict.fromkeys(["tol", "traj_tol", "time_tol"], {6, 8, 10, 11, 13}),
    **dict.fromkeys(["a", "lambdas"], {3}),
    **dict.fromkeys(["input", "output", "path"], {0}),
    **dict.fromkeys(["field", "driver", "solver"], {4}),
}
# names the table leaves to the code that reads them
LIBRARY_CHECKED = {"name", "kind", "problem", "A"}

POLYLINE = "t,x1,x2\n0,0,0\n0.5,0.3,-0.2\n1,0.1,0.4\n"

# small base configs: no mutation of a size key is accepted (ACCEPTED),
# so none starts a large solve
BASE = {
    "explosion-demo": {"fine_mesh": 4096, "coarse_mesh": 1024},
    "growth-demo": {"mesh": 64},
    "changevar-check": {"mesh": 64},
    "decompose": {"driver": {"kind": "brownian-ito", "steps": 64, "m": 2,
                             "T": 1.0}},
    "convergence": {"meshes": [64, 128]},
    "lift": {"input": "<polyline>"},
    "solve": {"mesh": 64},
}


def _keys(command):
    """(path, name) of every key of the command: top level, then each
    parameter of `solver` and of the default field and driver."""
    keys = []
    for k, v in DEFAULTS[command].items():
        keys.append((k, k))
        if isinstance(v, dict):
            keys += [(f"{k}.{p}", p)
                     for p in {**v, **BASE[command].get(k, {})}]
    return keys


CASES = [(command, path, name) for command in DEFAULTS
         for path, name in _keys(command)]


def _mutated(command, path, value, polyline):
    cfg = json.loads(json.dumps(BASE[command]))
    if command == "lift":
        cfg["input"] = polyline
    key, _, param = path.partition(".")
    if param:
        cfg[key] = {**DEFAULTS[command][key], **cfg.get(key, {}),
                    param: value}
    else:
        cfg[key] = value
    return cfg


def _run(command, cfg, tmp):
    """main on cfg in tmp: (exit code, stderr, whether report.txt exists)."""
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(tmp, "out")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main([command, "--config", path, "--out", out])
    return rc, err.getvalue(), os.path.exists(os.path.join(out, "report.txt"))


def _check_case(command, path, name, index):
    with tempfile.TemporaryDirectory() as tmp:
        polyline = os.path.join(tmp, "poly.csv")
        Path(polyline).write_text(POLYLINE)
        cfg = _mutated(command, path, POOL[index], polyline)
        rc, err, report = _run(command, cfg, tmp)
    assert rc in (0, 1, 2), (command, path, POOL[index], err)
    if name in ACCEPTED and index not in ACCEPTED[name]:
        assert rc == 2 and err.startswith(f"error: {path} "), (
            command, path, POOL[index], err)
        assert not report


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), index=st.integers(0, len(POOL) - 1))
def test_hostile_values_exit_0_1_or_2_and_rejections_name_the_key(case,
                                                                  index):
    _check_case(*case, index)


def test_every_rejected_value_exits_two_naming_its_key():
    # the rejections are cheap (no work starts), so all of them run
    for command, path, name in CASES:
        for index in range(len(POOL)):
            if name in ACCEPTED and index not in ACCEPTED[name]:
                _check_case(command, path, name, index)


def test_every_key_takes_the_values_whose_arithmetic_overflows():
    # cheap at the base configs, so every key of every command runs
    for command, path, name in CASES:
        for index in range(len(POOL) - 3, len(POOL)):
            _check_case(command, path, name, index)


def test_every_default_key_has_a_check_or_is_left_to_the_library():
    names = {name for command in DEFAULTS for _, name in _keys(command)}
    assert names <= set(CHECKS) | LIBRARY_CHECKED, (
        names - set(CHECKS) - LIBRARY_CHECKED)
    assert not set(CHECKS) & LIBRARY_CHECKED
    # the table agrees with the oracle above on every pool value
    for name, accepted in ACCEPTED.items():
        ok = CHECKS[name][1]
        assert {i for i, v in enumerate(POOL) if ok(v)} == accepted, name


def test_each_command_reads_every_key_of_its_defaults(tmp_path,
                                                     monkeypatch):
    # each command's DEFAULTS lists exactly the keys it reads: 46
    # settable values (11 fewer than when every command took seed, p,
    # mesh and solver.r_max)
    class Reads(dict):
        def __init__(self, values):
            super().__init__(values)
            self.read = set()

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.read.add(key)
            return super().get(key, default)

    seen = {}

    def recording(command, user):
        cfg = Reads(_merged(command, user))
        if "solver" in cfg:
            cfg["solver"] = Reads(cfg["solver"])
        seen[command] = cfg
        return cfg

    monkeypatch.setattr(cli, "_merged", recording)
    polyline = tmp_path / "poly.csv"
    polyline.write_text(POLYLINE)
    for command, base in BASE.items():
        cfg = {**base, "input": str(polyline)} if command == "lift" else base
        (tmp_path / command).mkdir()
        assert _run(command, cfg, str(tmp_path / command))[0] in (0, 1)
        assert seen[command].read >= set(DEFAULTS[command]), command
        if "solver" in seen[command]:
            assert seen[command]["solver"].read == {"r_max"}
    assert sum(len(d) - ("solver" in d) + len(d.get("solver", ()))
               for d in DEFAULTS.values()) == 46


def test_readme_config_example_passes_the_table():
    readme = (Path(cli.__file__).parents[2] / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    _merged("growth-demo", json.loads(example))     # raises if it fails


def test_help_lists_each_key_with_its_check(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    for command, defaults in DEFAULTS.items():
        section = text.split(f"  [{command}]\n")[1].split("  [")[0]
        for key, value in defaults.items():
            line = f"    {key} = {json.dumps(value)}"
            line += f": {CHECKS[key][0]}" if key in CHECKS else ""
            assert line + "\n" in section, (command, key)
    for name in ("d", "scale", "path", "r_max"):
        assert f"    {name}: {CHECKS[name][0]}\n" in text


def test_number_keys_are_read_as_floats(tmp_path):
    cfg = _merged("solve", {"p": 2, "T": 1, "solver": {"r_max": 10},
                            "driver": {"kind": "zigzag", "T": 1,
                                       "amplitude": 1}})
    for v in (cfg["p"], cfg["T"], cfg["solver"]["r_max"], cfg["driver"]["T"],
              cfg["driver"]["amplitude"]):
        assert type(v) is float
    assert type(cfg["driver"]["n"]) is int
    assert _merged("growth-demo", {"lambdas": [1, 2]})["lambdas"] == [1, 2]
    # so an int threshold is written as the float it was read as
    cfg = {"field": {"name": "linear", "A": 8.0}, "mesh": 2048,
           "driver": {"kind": "zigzag", "n": 2, "amplitude": 2.0, "m": 1,
                      "T": 4.0}, "T": 4.0, "solver": {"r_max": 10}}
    assert _run("solve", cfg, str(tmp_path))[0] == 0
    blowup = json.loads((tmp_path / "out" / "blowup.json").read_text())
    assert repr(blowup["threshold"]) == "10.0"


def test_a_value_a_float_cannot_hold_is_rejected_by_name():
    # float() of a 400-digit JSON int raises OverflowError
    with pytest.raises(cli.ConfigError, match=r"^T must be a finite number"):
        _merged("solve", {"T": 10 ** 400})
    with pytest.raises(cli.ConfigError, match=r"^solver.r_max must be"):
        _merged("solve", {"solver": {"r_max": -10 ** 400}})
    assert math.isinf(_merged("solve", {"solver": {"r_max": INF}})[
        "solver"]["r_max"])
