"""Spans around the public functions of every lglab layer.

The tracer rebinds each public function of the layer modules, in every
module namespace that binds it (``qualitative`` binds the equilibrium
finders, ``equilibria`` binds ``vector_field``, ``sde_sim`` binds
``stochastic_regime``, the package binds most of them), and restores the
originals on ``uninstall``.  Spans live in memory: name, start, end,
parent, job, and the work the call did, computed from its arguments and
result.  Only calls inside a job span are recorded.  A span's self time is
its duration minus that of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = ("model", "equilibria", "qualitative", "ode_sim", "sde_sim", "cli")
JOB = "bench.job"


def _steps(t_max, h):
    return int(round(t_max / h))


def _path_work(a, r):
    n = a["noise"].n_steps if a["t_max"] is None else _steps(a["t_max"], a["noise"].h)
    return {"steps": n, "scheme": a["scheme"]}


def _hitting_work(a, r):
    h = a["h"]
    steps_to_hit = np.rint(r.times / h)  # censored paths count up to the cap
    run = int(steps_to_hit.max())
    return {"path_steps": a["n_paths"] * run,
            "useful_path_steps": int(steps_to_hit.sum())}


# work done by a call, from its bound arguments and its result
WORK = {
    "sde_sim.ensemble": lambda a, r: {
        "path_steps": a["n_paths"] * _steps(a["t_max"], a["h"])},
    "sde_sim.hitting_time": _hitting_work,
    "sde_sim.simulate_path": _path_work,
    "sde_sim.comparison_bundle": lambda a, r: {"steps": len(r.times) - 1},
    "sde_sim.make_noise": lambda a, r: {"steps": a["n_steps"]},
    "sde_sim.stationary_histogram": lambda a, r: {
        "steps": 2 * _steps(a["t_max"], a["h"])},
    "sde_sim.write_path_csv": lambda a, r: {
        "rows": len(a["bundle_or_path"].times)},
    "ode_sim.integrate": lambda a, r: {"steps": len(r.times) - 1,
                                       "scheme": a["scheme"]},
    "ode_sim.integrate_batch": lambda a, r: {
        "system_steps": len(a["init"]) * a["n_steps"]},
    "ode_sim.write_csv": lambda a, r: {"rows": len(a["traj"].times)},
    "equilibria.find_interior_equilibria": lambda a, r: {"found": len(r)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "work", "raised",
                 "overhead")

    def __init__(self, name, parent, job):
        self.name, self.parent, self.job = name, parent, job
        self.start = self.end = 0.0
        self.work = None
        self.raised = None
        self.overhead = 0.0  # wrapper time outside [start, end]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = None
        self._patched = []

    # ------------------------------------------------------------ binding

    def install(self) -> None:
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "lglab" or name.startswith("lglab.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"lglab.{layer}")
            for name, fn in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._patched.append((ns, name, fn))
                        setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._patched):
            setattr(ns, name, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:  # e.g. an output check between jobs
                return fn(*args, **kwargs)
            entered = perf_counter()
            span = Span(name, stack[-1], self._job)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                span.overhead = span.start - entered
            if work:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = work(bound.arguments, result)
            span.overhead += perf_counter() - span.end
            return result

        return wrapper

    @contextlib.contextmanager
    def job_span(self, job):
        """Root span of one job; every layer span below it carries the job."""
        self._job = job
        span = Span(JOB, -1, job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self._job = None

    # ------------------------------------------------------------ metrics

    def self_times(self) -> list[float]:
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bytes_round0: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced phase."""
    spans = tracer.spans
    self_t = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def self_sum(name, where=lambda s: True):
        return sum(self_t[i] for i in by_name.get(name, ()) if where(spans[i]))

    def work_sum(name, key, where=lambda s: True):
        return sum(spans[i].work[key] for i in by_name.get(name, ())
                   if spans[i].work and where(spans[i]))

    def calls(name, where=lambda s: True):
        return sum(1 for i in by_name.get(name, ()) if where(spans[i]))

    def per_unit(name, key, scale, where=lambda s: True):
        return _ratio(self_sum(name, where) * scale, work_sum(name, key, where))

    def scheme(value):
        return lambda s: s.work is not None and s.work["scheme"] == value

    def kind(prefix):
        return lambda s: s.job is not None and s.job.kind.startswith(prefix)

    def round0(s):
        return s.job is not None and s.job.round == 0

    jobs = [spans[i] for i in by_name.get(JOB, ())]
    wall = sum(s.end - s.start for s in jobs)
    ode_jobs = sum(1 for s in jobs if s.job.kind.startswith("ode-"))
    analyze_jobs = calls("cli.analysis_report")
    cli_jobs = calls("cli.main")
    certificates = ("invariant_region", "persistence_report",
                    "global_stability_condition", "no_cycle_conditions",
                    "stochastic_regime")
    hopf_calls = calls("equilibria.hopf_point")
    hopf_ok = calls("equilibria.hopf_point", lambda s: s.raised is None)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer = s.name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += self_t[i]
    unaccounted = sum(self_t[i] for i in by_name.get(JOB, ()))

    ns, us, ms = 1e9, 1e6, 1e3
    m = {
        "sde_sim.ensemble.ns_per_path_step":
            (per_unit("sde_sim.ensemble", "path_steps", ns), "ns"),
        "sde_sim.hitting_time.ns_per_path_step":
            (per_unit("sde_sim.hitting_time", "path_steps", ns), "ns"),
        "sde_sim.hitting_time.useful_ratio":
            (_ratio(work_sum("sde_sim.hitting_time", "useful_path_steps"),
                    work_sum("sde_sim.hitting_time", "path_steps")), "ratio"),
        "sde_sim.simulate_path.ns_per_step.log_euler":
            (per_unit("sde_sim.simulate_path", "steps", ns,
                      scheme("LogEuler")), "ns"),
        "sde_sim.simulate_path.ns_per_step.milstein":
            (per_unit("sde_sim.simulate_path", "steps", ns,
                      scheme("Milstein")), "ns"),
        "sde_sim.comparison_bundle.ns_per_step":
            (per_unit("sde_sim.comparison_bundle", "steps", ns), "ns"),
        "sde_sim.make_noise.ns_per_step":
            (per_unit("sde_sim.make_noise", "steps", ns), "ns"),
        "sde_sim.stationary_histogram.ns_per_step":
            (per_unit("sde_sim.stationary_histogram", "steps", ns), "ns"),
        "sde_sim.write_path_csv.ns_per_row":
            (per_unit("sde_sim.write_path_csv", "rows", ns), "ns"),
        "ode_sim.integrate.ns_per_step.rk4":
            (per_unit("ode_sim.integrate", "steps", ns, scheme("RK4")), "ns"),
        "ode_sim.integrate.ns_per_step.euler":
            (per_unit("ode_sim.integrate", "steps", ns, scheme("Euler")), "ns"),
        "ode_sim.integrate.calls_per_ode_job":
            (_ratio(calls("ode_sim.integrate", kind("ode-")), ode_jobs),
             "count"),
        "ode_sim.detect_limit_cycle.self_ms":
            (_ratio(self_sum("ode_sim.detect_limit_cycle") * ms,
                    calls("ode_sim.detect_limit_cycle")), "ms"),
        "ode_sim.integrate_batch.ns_per_system_step":
            (per_unit("ode_sim.integrate_batch", "system_steps", ns), "ns"),
        "ode_sim.write_csv.ns_per_row":
            (per_unit("ode_sim.write_csv", "rows", ns), "ns"),
        "equilibria.hopf_point.ms_per_call":
            (_ratio(self_sum("equilibria.hopf_point") * ms, hopf_calls), "ms"),
        "equilibria.hopf_point.admissible_ratio":
            (_ratio(hopf_ok, hopf_calls), "ratio"),
        "equilibria.hopf_point.time_share":
            (_ratio(self_sum("equilibria.hopf_point"), wall), "ratio"),
        "qualitative.us_per_report":
            (_ratio(sum(self_sum(f"qualitative.{c}", kind("analyze"))
                        for c in certificates) * us, analyze_jobs), "us"),
        "model.vector_field.us_per_call":
            (_ratio(self_sum("model.vector_field") * us,
                    calls("model.vector_field")), "us"),
        "cli.main.self_ms_per_job":
            (_ratio(layer_self["cli"] * ms, cli_jobs), "ms"),
        "cli.bytes_written": (bytes_round0, "bytes"),
        "trace.unaccounted_ratio": (_ratio(unaccounted, wall), "ratio"),
        "trace.wrapper_overhead_ratio":
            (_ratio(sum(s.overhead for s in spans), wall), "ratio"),
    }
    for name in ("count_interior_equilibria", "find_interior_equilibria",
                 "classify"):
        m[f"equilibria.{name}.us_per_call"] = (
            _ratio(self_sum(f"equilibria.{name}") * us,
                   calls(f"equilibria.{name}")), "us")
    for layer, t in layer_self.items():
        m[f"{layer}.self_share"] = (_ratio(t, wall), "ratio")

    # counts over round 0, which every run completes: they repeat exactly
    m.update({
        "count.path_steps": (
            work_sum("sde_sim.ensemble", "path_steps", round0)
            + work_sum("sde_sim.hitting_time", "path_steps", round0), "count"),
        "count.system_steps": (
            work_sum("ode_sim.integrate_batch", "system_steps", round0),
            "count"),
        "count.scalar_steps": (
            work_sum("ode_sim.integrate", "steps", round0)
            + work_sum("sde_sim.simulate_path", "steps", round0)
            + work_sum("sde_sim.comparison_bundle", "steps", round0), "count"),
        "count.csv_rows": (
            work_sum("ode_sim.write_csv", "rows", round0)
            + work_sum("sde_sim.write_path_csv", "rows", round0), "count"),
        "count.param_sets": (sum(s.job.param_sets for s in jobs
                                 if s.job.round == 0), "count"),
        "count.equilibria_found": (
            work_sum("equilibria.find_interior_equilibria", "found", round0),
            "count"),
        "count.hopf_calls": (calls("equilibria.hopf_point", round0), "count"),
    })
    return m
