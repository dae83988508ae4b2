"""Benchmark of the roughpaths library: one workload per process.

    python3 bench/run.py --workload explosion --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the library from its
`src/` directory.  The workload is a closed loop: one caller runs one
experiment, verifies its outputs, then starts the next, until
`--seconds` have passed (at least one iteration).

`--trace 0` reports the end-to-end metrics: the median time of one
verified iteration in durations of a concurrently timed probe
computation (`wall_probes`, see speed.py; the raw wall time prints
beside it), the median over fresh processes of importing `roughpaths`
and `roughpaths.cli` (`setup_s`) and this process's peak RSS
(`peak_rss_mb`).  `--trace 1` alternates untraced and
traced iterations and reports the per-layer metrics of `tracing.py`,
the tracing overhead, and the check results.  `--workload all` runs
every workload in its own process and prints all their lines.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
each metric with its unit and sample count, the checks, and the
environment.  BLAS and OpenMP are pinned to one thread before numpy
loads.  See NOTES.md for the workloads, metrics and known defects.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("explosion", "growth", "changevar", "lift")
SETUP_PROCESSES = 7
WORK = os.path.join(ROOT, ".bench_work")
END_TO_END = {"wall_probes": "probes", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRA = {"run.wall_s": "s", "trace.overhead_s": "s",
               "verify.err_ratio": "ratio", "verify.fail_ratio": "ratio"}

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "t = time.perf_counter()\n"
    "import roughpaths, roughpaths.cli\n"
    "print(repr(time.perf_counter() - t))\n")


def import_library():
    """Import roughpaths from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "roughpaths", "__init__.py")):
        sys.exit(f"error: no roughpaths package under {SRC}")
    sys.path.insert(0, SRC)
    import roughpaths

    if not os.path.abspath(roughpaths.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported roughpaths from {roughpaths.__file__}, "
                 f"not from {SRC}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def setup_times(n: int) -> list[float]:
    """Import time of roughpaths + roughpaths.cli in n fresh processes."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER.format(src=SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def one_iteration(workload, tracer=None, probe=None):
    """Run and verify once; returns (wall seconds, Verdict).

    With a tracer the library is wrapped for this iteration only; with a
    SpeedProbe the iteration runs inside it.
    """
    from workloads import Verdict

    if tracer is not None:
        tracer.install()
    try:
        with probe or contextlib.nullcontext():
            t0 = perf_counter()
            try:
                verdict = workload.verify(workload.run())
            except Exception as exc:  # a crash is a failed verification
                traceback.print_exc()
                verdict = Verdict(False, detail=f"raised {exc!r}")
            wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not verdict.ok:
        print(f"FAILED {workload.name}: {verdict.detail}", file=sys.stderr)
    return wall, verdict


def _fmt(values) -> str:
    return (f"median of {len(values)} (min {min(values):.6g}, "
            f"max {max(values):.6g})")


def _until(t_end: float, step) -> None:
    """Call step() until perf_counter() reaches t_end."""
    while perf_counter() < t_end:
        step()


def end_to_end(workload, seconds: float):
    from speed import SpeedProbe

    setup, walls, probes, probe_s, verdicts = [], [], [], [], []

    def step():
        # Setup samples are spread over the run, outside the iterations.
        if len(setup) < SETUP_PROCESSES:
            setup.extend(setup_times(1))
        probe = SpeedProbe()
        wall, verdict = one_iteration(workload, probe=probe)
        walls.append(wall)
        probes.append(probe.probes())
        probe_s.append(probe.median_probe_s())
        verdicts.append(verdict)

    t_end = perf_counter() + seconds
    step()
    # The high-water mark after one iteration: later iterations add a
    # few MB of allocator growth that depends on how many of them fit.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _until(t_end, step)
    setup.extend(setup_times(SETUP_PROCESSES - len(setup)))
    metrics = {"wall_probes": statistics.median(probes),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_mb}
    lines = [
        f"  wall_probes  {metrics['wall_probes']:.6g} probes  verified "
        "iterations in durations of the speed probe, " + _fmt(probes),
        f"  wall_s       {statistics.median(walls):.6g} s    verified "
        "iterations, raw wall time, " + _fmt(walls),
        f"  probe        {1e6 * statistics.median(probe_s):.6g} us   median "
        "probe duration per iteration, " + _fmt([1e6 * p for p in probe_s]),
        f"  setup_s      {metrics['setup_s']:.6g} s    fresh-process imports, "
        + _fmt(setup),
        f"  peak_rss_mb  {rss_mb:.6g} MB   after the first iteration of a "
        f"process running only {workload.name}",
    ]
    return metrics, verdicts, lines


def traced(workload, seconds: float, tracer=None, spans_path=None):
    """Alternate untraced and traced iterations; per-layer metrics."""
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    tracer = tracer or Tracer()
    plain, walls, per_iter, verdicts = [], [], [], []
    t_end = perf_counter() + seconds

    def step():
        wall, verdict = one_iteration(workload)
        plain.append(wall)
        verdicts.append(verdict)
        lo = tracer.begin_iteration(len(walls))
        wall, verdict = one_iteration(workload, tracer)
        walls.append(wall)
        verdicts.append(verdict)
        if hasattr(workload, "artifact_bytes"):
            tracer.count("artifact_bytes", workload.artifact_bytes())
        per_iter.append(layer_metrics(tracer, lo, len(tracer.start)))

    step()
    _until(t_end, step)
    if spans_path:
        tracer.write_spans(spans_path)
    metrics, lines = {}, []
    for name, (unit, _) in LAYER_METRICS.items():
        values = [m[name] for m in per_iter]
        metrics[name] = statistics.median(values)
        if unit in ("count", "bytes"):
            if len(set(values)) > 1:
                tracer.notes.append(f"{name} differs between traced "
                                    f"iterations: {values}")
            lines.append(f"  {name:38s} {metrics[name]:.10g} {unit}  "
                         f"per traced iteration, {len(values)} iterations")
        else:
            lines.append(f"  {name:38s} {metrics[name]:.6g} {unit}  "
                         + _fmt(values))
    metrics["run.wall_s"] = statistics.median(plain)
    overhead = statistics.median(walls) - metrics["run.wall_s"]
    metrics["trace.overhead_s"] = overhead
    lines.append(f"  {'run.wall_s':38s} {metrics['run.wall_s']:.6g} s  "
                 f"untraced iterations, {_fmt(plain)}")
    lines.append(f"  {'trace.overhead_s':38s} {overhead:.6g} s  traced "
                 f"{_fmt(walls)} minus untraced")
    lines += [f"  note: {n}" for n in tracer.notes]
    return metrics, verdicts, lines


def check_lines(verdicts, metrics: dict, trace: bool) -> list[str]:
    ratios = [v.err_ratio for v in verdicts if v.err_ratio is not None]
    failed = sum(not v.ok for v in verdicts)
    err = statistics.median(ratios) if ratios else 0.0
    fail = failed / len(verdicts)
    prefix = "verify." if trace else ""
    if trace:
        metrics["verify.err_ratio"] = err
        metrics["verify.fail_ratio"] = fail
    return [
        f"  {prefix}err_ratio  {err:.6g} ratio  error / tolerance, "
        + (_fmt(ratios) + " (deterministic at a fixed seed)" if ratios
           else "not defined for this workload (reported as 0)"),
        f"  {prefix}fail_ratio  {fail:.6g} ratio  {failed} of "
        f"{len(verdicts)} verifications failed",
        f"  last check: {verdicts[-1].detail}",
    ]


def run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results}))
    return 0


def remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=None,
            spans_path=None):
    """One workload's result object and its report lines."""
    from workloads import FULL, WORKLOADS

    workdir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[name](seed, sizes or FULL, workdir)
        if trace:
            metrics, verdicts, lines = traced(workload, seconds,
                                              spans_path=spans_path)
        else:
            metrics, verdicts, lines = end_to_end(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        remove_if_empty(WORK)
    lines = ([f"{name}  seed={seed}  {'traced' if trace else 'end-to-end'}"]
             + lines + check_lines(verdicts, metrics, trace)
             + ["env " + json.dumps(environment(seed))])
    units = dict(END_TO_END)
    if trace:
        from tracing import LAYER_METRICS

        units = {n: u for n, (u, _) in LAYER_METRICS.items()}
        units.update(TRACE_EXTRA)
    failed = sum(not v.ok for v in verdicts)
    return {"correct": failed == 0, "attempted": len(verdicts),
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u}
                        for n, u in units.items()}}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans to "
                        "this CSV file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_library()
    if args.workload == "all":
        return run_all(args)
    result, lines = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), spans_path=args.spans)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
