"""Spans around the library's public entry points, from outside the library.

`Tracer.install()` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, iteration id) and puts
the original back on exit.  A function is replaced in its defining
module and in every `roughpaths` module that imported it by name (so
`roughpaths.cli.pvar_norm` and `roughpaths.rde_solver.pvar_norm` are
both traced), class attributes are replaced on the class, and the
callables of field and projection instances are reached through the
factories that build them.  A traced name the library no longer has is
skipped with a note and reads as zero calls.

Spans are kept in flat arrays and only analysed (and optionally written
out) after the measured iterations.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

import roughpaths.cli  # noqa: F401  (loads every module the tracer wraps)

# Plain functions: module, attribute, span name.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("svg", "line_plot", "svg.line_plot"),
    ("rde_solver", "growth_bound_check", "rde_solver.growth_bound_check"),
    ("rde_solver", "_sampled_step_defect", "rde_solver.step_defect"),
    ("rde_solver", "solution_to_partial", "rde_solver.solution_to_partial"),
    ("rough_paths", "pvar_norm", "rough_paths.pvar_norm"),
    ("rough_paths", "geometricity_defect", "rough_paths.geometricity_defect"),
    ("rough_paths", "chen_defect", "rough_paths.chen_defect"),
    ("rough_paths", "lift_piecewise_linear", "rough_paths.lift"),
    ("rough_paths", "brownian_lift", "rough_paths.lift"),
    ("rough_paths", "pure_area_path", "rough_paths.lift"),
    ("rough_paths", "decompose", "rough_paths.lift"),
    ("rough_paths", "dilate", "rough_paths.lift"),
    ("rough_paths", "read_polyline_csv", "rough_paths.csv"),
    ("rough_paths", "write_roughpath_csv", "rough_paths.csv"),
    ("rough_paths", "read_roughpath_csv", "rough_paths.csv"),
    ("tensor_algebra", "mul", "tensor_algebra.mul"),
    ("partial_rough_paths", "pushforward", "partial_rough_paths.pushforward"),
    ("partial_rough_paths", "pvar_distance",
     "partial_rough_paths.pvar_distance"),
    ("log_sphere_map", "phi", "log_sphere_map.chart"),
    ("log_sphere_map", "grad_phi", "log_sphere_map.chart"),
    ("log_sphere_map", "grad2_phi", "log_sphere_map.chart"),
    ("sewing", "sew", "sewing.sew"),
    ("sewing", "young_integral", "sewing.young_integral"),
]

# Class attributes: module, class, attribute, span name.
METHODS = [
    ("rough_paths", "RoughPath", "at", "rough_paths.at"),
    ("rough_paths", "RoughPath", "increments_on_mesh",
     "rough_paths.increments_on_mesh"),
    ("rough_paths", "RoughPath", "increment_between",
     "rough_paths.increment_between"),
    ("rough_paths", "AreaDrift", "at", "rough_paths.drift_at"),
    ("log_sphere_map", "ShiftedMap", "state_of", "log_sphere_map.chart"),
]

# Factories whose results carry traced callables: module, attribute,
# {attribute of the result: span name} ("" names the result itself).
FACTORIES = [
    ("vector_fields", "make_field",
     {"eval": "vector_fields.eval", "grad": "vector_fields.grad"}),
    ("cli", "field_from_config",
     {"eval": "vector_fields.eval", "grad": "vector_fields.grad"}),
    ("vector_fields", "f_dot_grad_f", {"eval": "vector_fields.so_eval"}),
    ("log_sphere_map", "transformed_field",
     {"eval": "log_sphere_map.h_eval", "grad": "log_sphere_map.h_grad"}),
    ("log_sphere_map", "sphere_state_projection",
     {"": "log_sphere_map.projection"}),
]

SOLVERS = [("rde_solver", "solve_rde"), ("rde_solver", "solve_rde_corrected")]
ROUTES = ("plain", "projected", "corrected")

_MARK = "_bench_span"


def _solve_route(fn_name, args, kwargs) -> str:
    if fn_name == "solve_rde_corrected":
        return "corrected"
    cfg = kwargs.get("cfg", args[4] if len(args) > 4 else None)
    return "plain" if cfg is None or cfg.state_projection is None \
        else "projected"


class Tracer:
    def __init__(self, extra_functions=()):
        self.functions = list(FUNCTIONS) + list(extra_functions)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.iteration = array("i")
        self._stack: list[int] = []
        self._iter = -1
        self.counts: dict[str, int] = {}
        self.notes: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, after=None):
        """Wrap fn so every call records a span named name."""
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.iteration.append(self._iter)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def begin_iteration(self, i: int) -> int:
        self._iter = i
        self.counts = {}
        return len(self.start)

    # -- installing --------------------------------------------------------

    def _set(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "roughpaths"
                                   or mod_name.startswith("roughpaths.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _lookup(self, mod_name: str, attr: str):
        mod = sys.modules.get(f"roughpaths.{mod_name}")
        value = getattr(mod, attr, None) if mod is not None else None
        if value is None:
            self.notes.append(f"roughpaths.{mod_name}.{attr} not found: "
                              "reported as zero calls")
        return value

    def _wrap_instance(self, obj, attrs: dict):
        for attr, name in attrs.items():
            if attr == "":
                if not hasattr(obj, _MARK):
                    obj = self.span(name, obj)
            elif not hasattr(getattr(obj, attr), _MARK):
                setattr(obj, attr, self.span(name, getattr(obj, attr)))
        return obj

    def install(self) -> None:
        for mod_name, attr, name in self.functions:
            fn = self._lookup(mod_name, attr)
            if fn is not None:
                after = self._csv_bytes if name == "rough_paths.csv" else None
                self._replace_everywhere(fn, self.span(name, fn, after))
        for mod_name, cls_name, attr, name in METHODS:
            cls = self._lookup(mod_name, cls_name)
            if cls is None:
                continue
            if attr in vars(cls):
                self._set(cls, attr, self.span(name, vars(cls)[attr]))
            else:
                self.notes.append(f"roughpaths.{mod_name}.{cls_name}.{attr} "
                                  "not found: reported as zero calls")
        for mod_name, attr in SOLVERS:
            fn = self._lookup(mod_name, attr)
            if fn is not None:
                self._replace_everywhere(fn, self._solver_wrapper(attr, fn))
        for mod_name, attr, attrs in FACTORIES:
            fn = self._lookup(mod_name, attr)
            if fn is not None:
                self._replace_everywhere(fn, self._factory(fn, attrs))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def _factory(self, fn, attrs):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self._wrap_instance(fn(*args, **kwargs), attrs)

        return factory

    def _solver_wrapper(self, fn_name, fn):
        wrapped = {r: self.span(f"rde_solver.solve.{r}", fn,
                                self._after_solve(r)) for r in ROUTES}

        @functools.wraps(fn)
        def solve(*args, **kwargs):
            return wrapped[_solve_route(fn_name, args, kwargs)](*args,
                                                                **kwargs)

        return solve

    def _csv_bytes(self, args, kwargs, result):
        path = next(a for a in (*args, *kwargs.values())
                    if isinstance(a, (str, os.PathLike)))
        self.count("csv_bytes", os.path.getsize(path))

    def _after_solve(self, route):
        def after(args, kwargs, sol):
            self.count(f"steps.{route}", len(sol.times) - 1)
            self.count("blowups", int(sol.blowup is not None))
        return after

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """All spans as CSV: name, start, end, parent index, iteration."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,iteration\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.iteration[i]}\n")


class _Spans:
    """Read-only view of one iteration's spans, for the layer metrics."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self._ids = tracer._ids
        self.nid = np.frombuffer(tracer.name_id[lo:hi], dtype=np.intc)
        par = np.frombuffer(tracer.parent[lo:hi], dtype=np.intc)
        self.has_parent = par >= 0
        self.par = np.where(self.has_parent, par - lo, 0)
        self.dur = (np.frombuffer(tracer.end[lo:hi])
                    - np.frombuffer(tracer.start[lo:hi]))
        self.n = hi - lo

    def mask(self, *names) -> np.ndarray:
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(self.nid, ids)

    def calls(self, *names) -> int:
        return int(np.count_nonzero(self.mask(*names)))

    def total(self, *names) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def _child_time(self, child_mask) -> np.ndarray:
        sel = self.has_parent & child_mask
        return np.bincount(self.par[sel], weights=self.dur[sel],
                           minlength=self.n)

    def self_time(self, *names, children=None) -> float:
        """Span time minus direct children (all, or those named)."""
        child = (np.ones(self.n, bool) if children is None
                 else self.mask(*children))
        m = self.mask(*names)
        return float((self.dur - self._child_time(child))[m].sum())

    def union(self, *names) -> float:
        """Time inside any named span, counting nested ones once."""
        m = self.mask(*names)
        inside = self.has_parent & m[self.par]
        while True:
            grown = inside | (self.has_parent & inside[self.par])
            if np.array_equal(grown, inside):
                break
            inside = grown
        return float(self.dur[m & ~inside].sum())


SOLVE_SPANS = tuple(f"rde_solver.solve.{r}" for r in ROUTES)
FIELD_SPANS = ("vector_fields.eval", "vector_fields.grad")

# Per-layer metrics of one traced iteration: name -> (unit, function of
# (spans, counts)).  Times are span durations in seconds.
LAYER_METRICS = {
    "rde_solver.steps":
        ("count", lambda s, c: sum(c.get(f"steps.{r}", 0) for r in ROUTES)),
    "rde_solver.solve_calls": ("count", lambda s, c: s.calls(*SOLVE_SPANS)),
    "rde_solver.blowups": ("count", lambda s, c: c.get("blowups", 0)),
    **{f"rde_solver.us_per_step.{r}":
       ("us", lambda s, c, r=r: 1e6 * s.total(f"rde_solver.solve.{r}")
        / max(c.get(f"steps.{r}", 0), 1)) for r in ("corrected", "plain",
                                                    "projected")},
    "rde_solver.self_s": ("s", lambda s, c: s.self_time(*SOLVE_SPANS)),
    "rde_solver.step_defect_s":
        ("s", lambda s, c: s.total("rde_solver.step_defect")),
    "rde_solver.growth_check_s":
        ("s", lambda s, c: s.total("rde_solver.growth_bound_check")),
    "rde_solver.to_partial_s":
        ("s", lambda s, c: s.total("rde_solver.solution_to_partial")),
    "vector_fields.eval_calls":
        ("count", lambda s, c: s.calls("vector_fields.eval")),
    "vector_fields.grad_calls":
        ("count", lambda s, c: s.calls("vector_fields.grad")),
    "vector_fields.so_eval_calls":
        ("count", lambda s, c: s.calls("vector_fields.so_eval")),
    "vector_fields.eval_s": ("s", lambda s, c: s.total("vector_fields.eval")),
    "vector_fields.grad_s": ("s", lambda s, c: s.total("vector_fields.grad")),
    "rough_paths.pvar_calls":
        ("count", lambda s, c: s.calls("rough_paths.pvar_norm")),
    "rough_paths.pvar_s": ("s", lambda s, c: s.total("rough_paths.pvar_norm")),
    "rough_paths.geodefect_s":
        ("s", lambda s, c: s.total("rough_paths.geometricity_defect")),
    "rough_paths.chen_s":
        ("s", lambda s, c: s.total("rough_paths.chen_defect")),
    "rough_paths.at_calls": ("count", lambda s, c: s.calls("rough_paths.at")),
    "rough_paths.at_s": ("s", lambda s, c: s.total("rough_paths.at")),
    "rough_paths.mesh_query_s":
        ("s", lambda s, c: s.total("rough_paths.increments_on_mesh")),
    "rough_paths.lift_s": ("s", lambda s, c: s.union("rough_paths.lift")),
    "rough_paths.csv_s": ("s", lambda s, c: s.total("rough_paths.csv")),
    "rough_paths.csv_bytes": ("bytes", lambda s, c: c.get("csv_bytes", 0)),
    "tensor_algebra.mul_calls":
        ("count", lambda s, c: s.calls("tensor_algebra.mul")),
    "tensor_algebra.mul_s": ("s", lambda s, c: s.total("tensor_algebra.mul")),
    "sewing.calls":
        ("count", lambda s, c: s.calls("sewing.sew", "sewing.young_integral")),
    "log_sphere_map.h_eval_calls":
        ("count", lambda s, c: s.calls("log_sphere_map.h_eval")),
    "log_sphere_map.h_grad_calls":
        ("count", lambda s, c: s.calls("log_sphere_map.h_grad")),
    "log_sphere_map.field_self_s":
        ("s", lambda s, c: s.self_time("log_sphere_map.h_eval",
                                       "log_sphere_map.h_grad",
                                       children=FIELD_SPANS)),
    "log_sphere_map.projection_calls":
        ("count", lambda s, c: s.calls("log_sphere_map.projection")),
    "log_sphere_map.projection_s":
        ("s", lambda s, c: s.total("log_sphere_map.projection")),
    "log_sphere_map.chart_s":
        ("s", lambda s, c: s.union("log_sphere_map.chart")),
    "partial_rough_paths.pushforward_s":
        ("s", lambda s, c: s.total("partial_rough_paths.pushforward")),
    "partial_rough_paths.pvar_distance_s":
        ("s", lambda s, c: s.total("partial_rough_paths.pvar_distance")),
    "cli.self_s": ("s", lambda s, c: s.self_time("cli.main")),
    "cli.svg_s": ("s", lambda s, c: s.total("svg.line_plot")),
    "cli.artifact_bytes": ("bytes", lambda s, c: c.get("artifact_bytes", 0)),
}


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Every LAYER_METRICS value over the spans [lo, hi) of one iteration."""
    spans = _Spans(tracer, lo, hi)
    return {name: float(fn(spans, tracer.counts))
            for name, (_, fn) in LAYER_METRICS.items()}
