"""Running jobs in a closed loop and checking every output.

Every job goes through ``lglab.cli.main`` (or ``ode_sim.integrate_batch``)
by attribute lookup at call time, so a tracer that rebinds module functions
sees the calls.  Checks run between jobs, outside the timed region, and a
job that raised, exited non-zero or failed a check counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter

import jsonschema
import numpy as np

from lglab import cli, equilibria, ode_sim, sde_sim
from lglab.model import ModelParams

SCHEMES = {"log-euler": sde_sim.LOG_EULER, "milstein": sde_sim.MILSTEIN}


@dataclass
class Outcome:
    seconds: float
    error: str | None
    digest: str
    round: int = 0
    artifact: bytes = b""
    stdout: str = ""
    result: tuple | None = None  # integrate_batch return value

    @property
    def nbytes(self) -> int:
        return len(self.artifact) + len(self.stdout)

    def release(self) -> None:
        """Drop the output once checked, so memory does not grow per job."""
        self.artifact, self.stdout, self.result = b"", "", None


@dataclass
class Phase:
    """What one pass over a job sequence produced."""

    jobs: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    problems: dict = field(default_factory=dict)  # job index -> messages

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    def fail(self, i: int, message: str) -> None:
        self.problems.setdefault(i, []).append(message)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def execute(job, out_dir: str, span=contextlib.nullcontext) -> Outcome:
    """Run one job and time it; the clock covers only the call into lglab."""
    if job.batch is not None:
        b = job.batch
        t0 = perf_counter()
        with span(job):
            try:
                res = ode_sim.integrate_batch(b["a"], b["b"], b["k1"], b["k2"],
                                              b["m"], b["init"], b["h"],
                                              b["n_steps"],
                                              tail_start=b["tail_start"])
                error = None
            except Exception:
                res, error = None, traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        if res is None:
            return Outcome(dt, error, "", job.round)
        data = np.concatenate([res[0].ravel(), *res[1]]).tobytes()
        return Outcome(dt, None, _digest(data), job.round, result=res)

    out = os.path.join(out_dir, job.kind)
    if os.path.exists(out):
        os.unlink(out)
    so, se = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with span(job):
        try:
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                rc = cli.main([*job.argv, "--out", out])
            error = None if rc == 0 else f"exit {rc}: {se.getvalue().strip()}"
        except SystemExit as exc:
            error = f"exit {exc.code}: {se.getvalue().strip()}"
        except Exception:
            error = traceback.format_exc(limit=3)
    dt = perf_counter() - t0
    artifact = b""
    if os.path.exists(out):
        with open(out, "rb") as f:
            artifact = f.read()
    return Outcome(dt, error, _digest(artifact, so.getvalue()), job.round,
                   artifact, so.getvalue())


def run_phase(jobs, out_dir: str, seconds: float, min_jobs: int, checker,
              span=contextlib.nullcontext, keep_jobs: bool = False,
              speed=None) -> Phase:
    """Closed loop with one client: each job starts when the last one ends.

    Runs until the summed job time reaches ``seconds`` and at least
    ``min_jobs`` jobs are done, or the jobs run out.  Checks run between
    jobs, off the clock.  Outputs are kept for round 0 only, for the
    contract checks, and jobs too unless ``keep_jobs`` asks for a replay of
    them all; so the benchmark's own memory does not grow with the run.
    A ``speed`` meter, if given, samples the machine's speed between jobs.
    """
    phase = Phase()
    elapsed = 0.0
    if speed is not None:
        speed.tick(0, elapsed)
    for job in jobs:
        i = len(phase.jobs)
        outcome = execute(job, out_dir, span)
        phase.jobs.append(job if keep_jobs or job.round == 0 else None)
        phase.outcomes.append(outcome)
        elapsed += outcome.seconds
        if outcome.error:
            phase.fail(i, f"{job.kind}: {outcome.error}")
        else:
            for msg in checker(job, outcome):
                phase.fail(i, f"{job.kind}: {msg}")
        if job.round > 0:
            outcome.release()
        if speed is not None:
            speed.tick(len(phase.jobs), elapsed)
        if elapsed >= seconds and len(phase.jobs) >= min_jobs:
            break
    return phase


def replay(phase: Phase, indices, out_dir: str, speed=None) -> list[float]:
    """Run jobs of a phase again; a changed artifact fails the job."""
    times, elapsed = [], 0.0
    if speed is not None:
        speed.tick(0, elapsed)
    for i in indices:
        again = execute(phase.jobs[i], out_dir)
        times.append(again.seconds)
        elapsed += again.seconds
        if again.digest != phase.outcomes[i].digest:
            phase.fail(i, f"{phase.jobs[i].kind}: artifact differs on repeat")
        if speed is not None:
            speed.tick(len(times), elapsed)
    return times


# ----------------------------------------------------------------- checks

def _load_schema(name: str):
    text = resources.files("lglab.schemas").joinpath(name).read_text()
    return jsonschema.Draft202012Validator(json.loads(text))


class Checker:
    """Output checks by job kind; each returns a list of problems."""

    def __init__(self):
        self.schemas = {name: _load_schema(f"{name}_v1.json") for name in
                        ("analysis_report", "ensemble", "stationary", "hitting")}

    def __call__(self, job, outcome) -> list[str]:
        family = job.kind.split("-")[0]
        try:
            return getattr(self, f"_check_{family}")(job, outcome)
        except Exception as exc:  # unreadable output fails the job, not the run
            return [f"check raised {exc!r}"]

    def _json(self, outcome, schema):
        doc = json.loads(outcome.artifact)
        errors = [e.message for e in self.schemas[schema].iter_errors(doc)]
        return doc, errors

    def _check_analyze(self, job, outcome):
        doc, problems = self._json(outcome, "analysis_report")
        if problems:
            return problems
        p = ModelParams(**doc["params"])
        c = equilibria.cubic_coefficients(p)
        interior = doc["interior_equilibria"]
        if len(interior) != doc["count"]["n_predicted"]:
            problems.append(f"{len(interior)} equilibria, "
                            f"n_predicted {doc['count']['n_predicted']}")
        for e in interior:
            if not abs(c.value(e["x"] - p.m)) < 1e-10:
                problems.append(f"residual {c.value(e['x'] - p.m):.3g}")
            if e["taxonomy"] is None:
                problems.append("unclassified interior equilibrium")
        if doc["index"]["passed"] is False:
            problems.append("index sum mismatch")
        hopf = doc["hopf"]
        if ("--hopf" in job.argv) != (hopf is not None):
            problems.append("hopf section does not match --hopf")
        for h in hopf or []:
            # NoHopf reports an "error" entry: a valid result, not a failure
            if "error" not in h and not (math.isfinite(h["b0"])
                                         and h["b0"] > 0):
                problems.append(f"bad Hopf entry {h}")
        return problems

    def _check_scan(self, job, outcome):
        lines = outcome.artifact.decode().splitlines()
        problems = []
        if len(lines) != job.spec["steps"] + 1:
            return [f"{len(lines) - 1} rows, expected {job.spec['steps']}"]
        c = equilibria.cubic_coefficients(ModelParams(**job.spec["params"]))
        m = job.spec["params"]["m"]
        for line in lines[1:]:
            cells = line.split(",")
            xs = [float(cells[3 + 5 * i]) for i in range(3) if cells[3 + 5 * i]]
            if len(xs) != int(cells[2]):
                problems.append(f"{len(xs)} equilibria, n_predicted {cells[2]}")
            problems += [f"residual {c.value(x - m):.3g}" for x in xs
                         if not abs(c.value(x - m)) < 1e-10]
        return problems

    def _check_ensemble(self, job, outcome):
        doc, problems = self._json(outcome, "ensemble")
        if problems:
            return problems
        s = job.spec
        n = int(round(s["t_max"] / s["h"]))
        burn = int(round(s["burn_in"] / s["h"]))
        records = sum(1 for k in range(n + 1) if k >= burn and k % 100 == 0)
        hist = doc["histogram"]
        total = int(np.sum(hist["counts"])) + hist["overflow"]
        if doc["n_paths"] != s["paths"]:
            problems.append(f"n_paths {doc['n_paths']}")
        if total != s["paths"] * records:
            problems.append(f"histogram holds {total} states, "
                            f"expected {s['paths'] * records}")
        times = [float(t) for t in s["checkpoints"].split(",")]
        if [c["t"] for c in doc["checkpoints"]] != times:
            problems.append("checkpoint times differ from the request")
        if any(v < 0 for c in doc["checkpoints"] for v in c["var"]):
            problems.append("negative variance")
        return problems

    def _check_stationary(self, job, outcome):
        doc, problems = self._json(outcome, "stationary")
        if problems:
            return problems
        s = job.spec
        n = int(round(s["t_max"] / s["h"]))
        tail = n + 1 - int(round(s["burn_in"] / s["h"]))
        hist = doc["histogram"]
        total = int(np.sum(hist["counts"])) + hist["overflow"]
        if total != tail:
            problems.append(f"histogram holds {total} states, expected {tail}")
        return problems

    def _check_hitting(self, job, outcome):
        doc, problems = self._json(outcome, "hitting")
        if problems:
            return problems
        cap = job.spec["t_cap"]
        if doc["n_paths"] != job.spec["paths"]:
            problems.append(f"n_paths {doc['n_paths']}")
        if not (0.0 <= doc["median"] <= cap and 0.0 <= doc["mean"] <= cap):
            problems.append(f"hitting times outside [0, {cap}]")
        return problems

    def _csv(self, job, outcome, header):
        text = outcome.artifact.decode()
        head, _, body = text.partition("\n")
        if head != header:
            return None, [f"header {head!r}"]
        values = np.array(body.replace("\n", ",").rstrip(",").split(","),
                          dtype=float)
        cols = len(header.split(","))
        n = int(round(job.spec["t_max"] / job.spec["h"]))
        if values.size != cols * (n + 1):
            return None, [f"{values.size // cols} rows, expected {n + 1}"]
        table = values.reshape(n + 1, cols)
        if not np.isfinite(table).all():
            return None, ["non-finite value"]
        if not np.array_equal(table[:, 0], np.arange(n + 1) * job.spec["h"]):
            return None, ["time column is off the grid"]
        return table, []

    def _check_ode(self, job, outcome):
        table, problems = self._csv(job, outcome, "t,x,y")
        if problems:
            return problems
        if (table[:, 1:] < 0).any():
            problems.append("state left the quadrant")
        cycle = json.loads(outcome.stdout)
        if cycle.get("schema") != "lglab/cycle" or "found" not in cycle:
            problems.append("cycle report malformed")
        return problems

    def _check_path(self, job, outcome):
        if job.kind == "path-comparison":
            table, problems = self._csv(
                job, outcome, "t,x,y,x_upper,y_upper,x_lower,y_lower")
            if problems:
                return problems
            _, x, y, xu, yu, xl, yl = table.T
            # the pathwise bracketing orderings, at criterion 08's tolerance
            if not ((xl <= x + 1e-9).all() and (x <= xu + 1e-9).all()
                    and (yl <= y + 1e-9).all() and (y <= yu + 1e-9).all()):
                problems.append("comparison ordering violated")
            return problems
        table, problems = self._csv(job, outcome, "t,x,y")
        if problems:
            return problems
        if (table[:, 1:] <= 0).any():
            problems.append("path lost positivity")
        return problems

    def _check_integrate(self, job, outcome):
        final, (min_x, max_x, min_y, max_y) = outcome.result
        x, y = final.T
        problems = []
        if not (np.isfinite(final).all() and (min_x <= x).all()
                and (x <= max_x).all() and (min_y <= y).all()
                and (y <= max_y).all()):
            problems.append("final state outside its tail bounds")
        return problems


# ------------------------------------------------------- contract checks

def _close(a, b, rel=1e-12) -> bool:
    return bool(np.allclose(a, b, rtol=rel, atol=0.0))


def contract_problems(job, outcome) -> list[str]:
    """Cross-checks between entry points, run once per round-0 job kind."""
    s = job.spec
    if job.kind.startswith("ensemble-"):
        # a 1-path ensemble is simulate_path with seed seed0
        p = ModelParams(**s["params"])
        scheme = SCHEMES[s["scheme"]]
        n = int(round(s["t_max"] / s["h"]))
        stats = sde_sim.ensemble(p, s["init"], scheme, 1, s["seed"], s["t_max"],
                                 [s["t_max"]], h=s["h"])
        path = sde_sim.simulate_path(p, s["init"], scheme,
                                     sde_sim.make_noise(s["seed"], s["h"], n))
        if not _close(stats.mean[0], path.states[-1]):
            return ["1-path ensemble differs from simulate_path"]
    elif job.kind == "integrate-batch":
        # one batch row is scalar RK4
        b = job.batch
        p = ModelParams(**{k: float(b[k][0]) for k in ("a", "b", "k1", "k2", "m")})
        tr = ode_sim.integrate(p, b["init"][0], ode_sim.RK4, h=b["h"],
                               t_max=b["n_steps"] * b["h"])
        final, bounds = outcome.result
        tail = tr.states[b["tail_start"]:]
        scalar = [tail[:, 0].min(), tail[:, 0].max(),
                  tail[:, 1].min(), tail[:, 1].max()]
        if not (_close(final[0], tr.states[-1])
                and _close([v[0] for v in bounds], scalar)):
            return ["integrate_batch row differs from scalar RK4"]
    elif job.kind == "path-milstein":
        # Milstein at sigma = 0 is Euler, bit for bit
        p = ModelParams(**{**s["params"], "sigma1": 0.0, "sigma2": 0.0})
        n = int(round(s["t_max"] / s["h"]))
        sp = sde_sim.simulate_path(p, s["init"], sde_sim.MILSTEIN,
                                   sde_sim.make_noise(s["seed"], s["h"], n))
        tr = ode_sim.integrate(p, s["init"], ode_sim.EULER, h=s["h"],
                               t_max=s["t_max"])
        if not np.array_equal(sp.states, tr.states):
            return ["Milstein at sigma=0 differs from Euler"]
    return []


def check_round0(phase: Phase, out_dir: str) -> list[float]:
    """Repeat every round-0 job and run the contract checks on it."""
    first = [i for i, o in enumerate(phase.outcomes) if o.round == 0]
    times = replay(phase, first, out_dir)
    for i in first:
        if phase.outcomes[i].error is None:
            try:
                problems = contract_problems(phase.jobs[i], phase.outcomes[i])
            except Exception as exc:  # fails the job, not the run
                problems = [f"contract check raised {exc!r}"]
            for msg in problems:
                phase.fail(i, f"{phase.jobs[i].kind}: {msg}")
    return times
