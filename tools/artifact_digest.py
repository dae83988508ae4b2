"""Print a digest of everything the `rde` commands and the demos write.

In a fresh temporary directory this runs
- every `rde` command at its defaults, except `lift`, which needs an
  input and runs on a seeded 51-point m = 2 polyline that this tool
  writes;
- `rde explosion-demo` at a1 = 1.4376431999070005
  (`explosion-bench`), the a1 the `explosion` benchmark workload
  (`bench/workloads.py`) draws at seed 7, so the digest covers a blow-up
  time other than the default's t* = 1;
- `rde growth-demo` at the config of the `growth` benchmark workload,
  seed 201;
- `rde growth-demo` at that config with `mesh` 4096, seed 8, whose
  lambda = 8 row crosses r_max (the run exits 1), so the digest covers
  a growth_bound_check row that ends at a crossing;
- `rde growth-demo` with a 10-segment m = 3 zigzag driver and the
  d = 2, m = 3 tanh field (`growth-m3`), so the digest covers an m = 3
  Davie loop and pairs of 9 level-2 entries in the p-variation scan;
- `rde decompose` on a 2000-step m = 2 `brownian-ito` driver at T = 1e6
  (`decompose-large`), whose geometric part's defect, 3.5e-10, is
  roundoff at its level 2's scale of 1e6, and on an m = 2 pure-area
  driver with the skew area [[0, 1], [-1, 0]] (`decompose-area`), whose
  drift is t sym(A) = 0, so the digest covers the bounds of both rows;
- `rde lift` on a one-segment polyline (`lift-segment`), a grid with no
  triple for the Chen audit;
- `rde changevar-check` with the user shift `{"shift": 10.0}`, the
  branch that builds ShiftedMap from the config rather than from
  choose_shift;
- `rde solve` with `r_max` 1.5 (`solve-cross`), which crosses it, so
  the digest covers the solve's blow-up JSON;
- a default `rde solve` into `solve-cross`'s directory (`solve-rerun`,
  hashing what is there afterwards), which crosses nothing: the
  directory then holds what a fresh default run writes, the earlier
  blow-up JSON removed;
- `rde solve` with `mesh` 32768 and `r_max` 1.5 (`solve-cross-late`),
  which crosses at step 25,193, in the fourth chunk of mesh rows the
  solver queries the driver for (`rde_solver._CHUNK`), so the digest
  covers a crossing past the first chunk;
- `rde solve` with a d = 2, m = 2 linear field on an m = 2 pure-area
  driver whose area matrix is not symmetric, at `r_max` 2.0
  (`solve-cross-m2`), which crosses it at t = 0.421217: on polyline
  lifts every row inside a segment has a symmetric level 2, so this is
  the run whose crossing moves if the Davie loop reads the driver's
  level 2 transposed;
- `rde solve` on a 63-segment `random-polyline` driver at `mesh` 16
  (`solve-coarse`): each mesh row spans driver grid points, and all but
  the first and last start and end between them, so the digest covers
  the rows that the segment query (`segments._Segments`) forms as
  Chen products of a partial head, stored increment and partial tail;
- the eight demos, with the temporary directory as the working
  directory, so their `demos/out` files land there.

Every run is under `python -W error`, so a new warning shows up as a
changed `exit` line.

It prints one `sha256  name` line per file written and per run's
stdout, and one `exit N  name` line per run.  The temporary directory's
path is replaced by `<tmp>` in every file before it is hashed.  So two
checkouts that print the same lines wrote the same bytes, and a change
meant to leave every artifact byte-identical can be checked by running
the tool on both and comparing.  Some bits depend on numpy's BLAS build
(the chart's |z|^2): compare runs on one machine only.

    python3 tools/artifact_digest.py
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = ["changevar-check", "convergence", "decompose", "explosion-demo",
            "growth-demo", "solve"]

# the a1 that the `explosion` workload draws at seed 7:
# numpy.random.default_rng(7).uniform(0.5, 2.0)
EXPLOSION_BENCH_A1 = 1.4376431999070005

# the `growth` workload's config at its full sizes
GROWTH_BENCH = {
    "field": {"name": "counterexample"},
    "driver": {"kind": "brownian-stratonovich", "steps": 4096, "m": 1,
               "T": 1.0},
    "a": [1.0, 0.0], "T": 1.0, "mesh": 8192,
    "lambdas": [1.0, 2.0, 4.0, 8.0]}


# growth-demo at m = 3: every other digest run has m <= 2
GROWTH_M3 = {
    "field": {"name": "tanh", "d": 2, "m": 3},
    "driver": {"kind": "zigzag", "n": 10, "amplitude": 0.15, "m": 3,
               "T": 5.0},
    "a": [1.0, 0.0]}


# solve at m = 2 on a driver with a non-symmetric level 2, crossing r_max
SOLVE_M2 = {
    "field": {"name": "linear",
              "A": [[[0.0, 1.0], [1.0, 0.5]], [[-1.0, 0.3], [0.2, 0.0]]]},
    "driver": {"kind": "pure-area", "T": 1.0, "m": 2,
               "area": [[0.0, 3.0], [-1.0, 0.0]]},
    "a": [1.0, 0.5], "solver": {"r_max": 2.0}}


# decompose where a bound must follow the driver: level 2 of size 1e6,
# and a pure-area driver whose area is not I
DECOMPOSE = {
    "decompose-large": {"kind": "brownian-ito", "steps": 2000, "m": 2,
                        "T": 1e6},
    "decompose-area": {"kind": "pure-area", "m": 2,
                       "area": [[0.0, 1.0], [-1.0, 0.0]]}}


def write_polyline(path) -> None:
    rng = np.random.default_rng(51)
    points = np.cumsum(rng.normal(0.0, 0.2, size=(51, 2)), axis=0)
    with open(path, "w") as fh:
        fh.write("t,x1,x2\n")
        for t, row in zip(np.linspace(0.0, 1.0, 51), points):
            fh.write(",".join("%.17g" % v for v in (t, *row)) + "\n")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        def digest(name, data: bytes) -> None:
            data = data.replace(str(tmp_path).encode(), b"<tmp>")
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")

        def run(name, argv) -> None:
            proc = subprocess.run([sys.executable, *argv], cwd=tmp, env=env,
                                  stdout=subprocess.PIPE)
            lines.append(f"exit {proc.returncode}  {name}")
            digest(f"{name}/stdout", proc.stdout)

        def rde(name, *args, out=None) -> None:
            out = out or name
            run(name, ["-W", "error", "-m", "roughpaths.cli", *args,
                       "--out", out])
            for path in sorted((tmp_path / out).glob("*")):
                digest(f"{name}/{path.name}", path.read_bytes())

        for command in COMMANDS:
            rde(command, command)
        write_polyline(tmp_path / "polyline.csv")
        (tmp_path / "lift.json").write_text(json.dumps(
            {"input": "polyline.csv", "output": "roughpath.csv"}))
        rde("lift", "lift", "--config", "lift.json")
        (tmp_path / "segment.csv").write_text("t,x1\n0,0\n1,1\n")
        (tmp_path / "lift-segment.json").write_text(json.dumps(
            {"input": "segment.csv", "output": "roughpath.csv"}))
        rde("lift-segment", "lift", "--config", "lift-segment.json")
        for name, driver in DECOMPOSE.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"driver": driver}))
            rde(name, "decompose", "--config", f"{name}.json")
        (tmp_path / "explosion-bench.json").write_text(json.dumps(
            {"a1": EXPLOSION_BENCH_A1}))
        rde("explosion-bench", "explosion-demo", "--config",
            "explosion-bench.json")
        (tmp_path / "growth-bench.json").write_text(json.dumps(GROWTH_BENCH))
        rde("growth-bench", "growth-demo", "--config", "growth-bench.json",
            "--seed", "201")
        (tmp_path / "growth-cross.json").write_text(json.dumps(
            dict(GROWTH_BENCH, mesh=4096)))
        rde("growth-cross", "growth-demo", "--config", "growth-cross.json",
            "--seed", "8")
        (tmp_path / "growth-m3.json").write_text(json.dumps(GROWTH_M3))
        rde("growth-m3", "growth-demo", "--config", "growth-m3.json")
        (tmp_path / "changevar-shift.json").write_text(json.dumps(
            {"shift": 10.0}))
        rde("changevar-shift", "changevar-check", "--config",
            "changevar-shift.json")
        (tmp_path / "solve-cross.json").write_text(json.dumps(
            {"solver": {"r_max": 1.5}}))
        rde("solve-cross", "solve", "--config", "solve-cross.json")
        rde("solve-rerun", "solve", out="solve-cross")
        (tmp_path / "solve-cross-late.json").write_text(json.dumps(
            {"mesh": 32768, "solver": {"r_max": 1.5}}))
        rde("solve-cross-late", "solve", "--config", "solve-cross-late.json")
        (tmp_path / "solve-coarse.json").write_text(json.dumps(
            {"mesh": 16, "driver": {"kind": "random-polyline", "n": 63}}))
        rde("solve-coarse", "solve", "--config", "solve-coarse.json")
        (tmp_path / "solve-cross-m2.json").write_text(json.dumps(SOLVE_M2))
        rde("solve-cross-m2", "solve", "--config", "solve-cross-m2.json")
        for demo in sorted((ROOT / "demos").glob("0*.py")):
            run(f"demos/{demo.stem}", ["-W", "error", str(demo)])
        for path in sorted((tmp_path / "demos" / "out").glob("*")):
            digest(f"demos/out/{path.name}", path.read_bytes())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
