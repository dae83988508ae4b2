"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks, for every workload, that
1. both the end-to-end and the traced run print every metric listed in
   BENCHMARK.json, with its unit, on its own line and in the result;
2. a deliberately corrupted output, and a nonzero `rde` exit, fail
   verification;
3. the traced run survives a traced name the library does not have,
   reporting it as zero calls with a note, and writes its spans.
Exits 0 when all hold.
"""

import dataclasses
import json
import os
import shutil
import sys
import tempfile

import run  # pins the BLAS threads before numpy loads

run.import_library()

from tracing import Tracer  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SEED = 3


def _expected_metrics(trace: bool) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(name: str) -> None:
    for trace in (False, True):
        result, lines = run.measure(name, SEED, 1e-3, trace, TINY)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _expected_metrics(trace), (name, trace, got)
        assert result["correct"] and result["attempted"] >= 1, result
        for metric, unit in got.items():
            assert any(f" {metric} " in line and f" {unit} " in line
                       for line in lines), (name, metric)


def _edit_csv_cell(path: str, row: int, col: int, edit) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(edit(float(cells[col])))
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def corrupt(workload, out):
    """The output of one run with one value made wrong."""
    if workload.name == "explosion":
        _edit_csv_cell(os.path.join(workload.out, "explosion_trajectory.csv"),
                       -1, 1, lambda y1: 1.1 * y1)
    elif workload.name == "growth":
        _edit_csv_cell(os.path.join(workload.out, "growth_table.csv"),
                       -1, 5, lambda flag: 1.0)    # an explosion
    elif workload.name == "changevar":
        out.direct = dataclasses.replace(out.direct, y=out.direct.y + 0.1)
    elif workload.name == "lift":
        out.read_back = dataclasses.replace(
            out.read_back, level2=out.read_back.level2 * (1.0 + 1e-9))
    return out


def check_corruption(name: str, workdir: str) -> None:
    workload = WORKLOADS[name](SEED, TINY, workdir)
    out = workload.run()
    assert workload.verify(out).ok, name
    assert not workload.verify(corrupt(workload, out)).ok, name
    if hasattr(workload, "command"):
        assert not workload.verify(1).ok, name


def check_missing_name(workdir: str) -> None:
    tracer = Tracer(extra_functions=[("rde_solver", "_no_such_step",
                                      "rde_solver.no_such_step")])
    workload = WORKLOADS["changevar"](SEED, TINY, workdir)
    spans = os.path.join(workdir, "spans.csv")
    metrics, verdicts, lines = run.traced(workload, 1e-3, tracer, spans)
    assert all(v.ok for v in verdicts)
    assert any("_no_such_step not found" in line for line in lines), lines
    assert metrics["rde_solver.steps"] == 2 * TINY.cv_mesh
    with open(spans) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "index,name,start_s,end_s,parent,iteration"
    assert len(rows) - 1 == len(tracer.start)


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        for name in WORKLOADS:
            check_metrics(name)
            sub = os.path.join(workdir, name)
            os.makedirs(sub)
            check_corruption(name, sub)
            print(f"ok  {name}")
        os.makedirs(os.path.join(workdir, "missing"))
        check_missing_name(os.path.join(workdir, "missing"))
        print("ok  traced run with a missing name")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        run.remove_if_empty(run.WORK)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
