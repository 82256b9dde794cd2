"""lglab benchmark: seeded CLI workloads in a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload mc-wide --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the end-to-end numbers still come from untraced runs.  See
``perfbench/NOTES.md`` for the workloads, the metrics and what each should
move.
"""

from __future__ import annotations

import os

# one thread everywhere; this must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LG_LAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib import metadata  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
MIN_JOBS = 100  # so that at least ten jobs lie beyond the 90th percentile
WORKLOAD_NAMES = ("mc-wide", "paths-narrow", "analysis-sweep")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(lglab_file: str) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "sympy", "jsonschema"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "lglab_file": lglab_file,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
        "LG_LAB_THREADS": os.environ.get("LG_LAB_THREADS"),
    }


def measure_setup(workload: str, out_dir: str) -> dict:
    """Median import and first-call times over fresh interpreters, raw."""
    probes = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, out_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    med = statistics.median
    return {"import_s": med(p["import_s"] for p in probes),
            "first_call_s": med(p["first_call_s"] for p in probes),
            "setup_s": med(p["import_s"] + p["first_call_s"] for p in probes)}


def scaled_setup(setup: dict, meter) -> dict:
    """Set-up times at the reference speed.

    A probe's single second of work is too short for kernel passes around
    it to show its own speed: the share of slow time changes from one
    fraction of a second to the next.  So set-up is scaled by the mean of
    every pass of the run, which follows the drift over minutes.
    """
    f = meter.overall()
    return {k: v * f for k, v in setup.items()}


def _percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def round_rates(phase, times) -> list[float]:
    """Jobs per second of job time in each complete round of the mix."""
    jobs, seconds = {}, {}
    for o, t in zip(phase.outcomes, times):
        jobs[o.round] = jobs.get(o.round, 0) + 1
        seconds[o.round] = seconds.get(o.round, 0.0) + t
    complete = [r for r in jobs if jobs[r] == jobs[0]]
    return [jobs[r] / seconds[r] for r in complete]


def latency_metrics(phase, times) -> dict:
    # throughput is the median over rounds, so that a burst of load from
    # elsewhere on the machine moves it less than a mean would
    lat_ms = [t * 1e3 for t in times]
    return {
        "jobs_per_s": (statistics.median(round_rates(phase, times)), "jobs/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (_percentile(lat_ms, 90), "ms"),
    }


def end_to_end(phase, times, setup) -> dict:
    """The end-to-end metrics from times at the reference speed."""
    return {
        "setup_s": (setup["setup_s"], "s"),
        **latency_metrics(phase, times),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _table(workload, seed, metrics, notes) -> str:
    lines = [f"workload {workload} (seed {seed})"]
    lines += [f"  {name:<46} {value:>14.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    lines += [f"  {note}" for note in notes]
    return "\n".join(lines)


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    import lglab
    if os.path.dirname(os.path.realpath(lglab.__file__)) != \
            os.path.realpath(os.path.join(SRC, "lglab")):
        _fail(f"imported lglab from {lglab.__file__}, not from {SRC}")
    import harness
    import probe
    import speed
    import workloads
    from tracer import Tracer, layer_metrics

    env = environment(lglab.__file__)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        setup = measure_setup(workload, tmp)
        probe.first_calls(workload, tmp)  # lazy costs paid before timing
        checker = harness.Checker()
        jobs = workloads.rounds(workload, seed)
        round_len = workloads.round_size(workload)
        notes = []
        if not trace:
            meter = speed.Speedometer(workload)
            phase = harness.run_phase(jobs, tmp, seconds,
                                      max(MIN_JOBS, round_len), checker,
                                      speed=meter)
            measured = [o.seconds for o in phase.outcomes]
            times = [t * f for t, f in
                     zip(measured, meter.factors(len(measured)))]
            metrics = end_to_end(phase, times, scaled_setup(setup, meter))
            harness.check_round0(phase, tmp)
            p90 = metrics["job_p90_ms"][0] / 1e3
            beyond = sum(t > p90 for t in times)
            notes.append(f"{len(times)} jobs in {phase.seconds:.2f} s of job "
                         f"time, {len(round_rates(phase, times))} complete "
                         f"rounds; {beyond} jobs lie beyond p90")
            raw = latency_metrics(phase, measured)
            notes.append(
                f"as measured, before scaling to the reference speed: "
                f"setup_s {setup['setup_s']:.4g} s, " + ", ".join(
                    f"{k} {v:.4g} {u}" for k, (v, u) in raw.items())
                + f"; mean kernel pass "
                f"{speed.REF_KERNEL_S / meter.overall() * 1e3:.4g} ms over "
                f"{len(meter.passes)} passes (reference "
                f"{speed.REF_KERNEL_S * 1e3:g} ms)")
        else:
            traced_meter = speed.Speedometer(workload)
            untraced_meter = speed.Speedometer(workload)
            tracer = Tracer()
            tracer.install()
            try:
                phase = harness.run_phase(jobs, tmp, seconds / 2, round_len,
                                          checker, span=tracer.job_span,
                                          keep_jobs=True, speed=traced_meter)
            finally:
                tracer.uninstall()
            # the untraced replay of the same jobs shows the tracing overhead
            # and that tracing leaves every artifact byte-identical; clear
            # sympy's cache so repeated parameter sets stay cold
            if "sympy" in sys.modules:
                from sympy.core.cache import clear_cache
                clear_cache()
            n = len(phase.jobs)
            untraced = harness.replay(phase, range(n), tmp,
                                      speed=untraced_meter)
            harness.check_round0(phase, tmp)
            bytes0 = sum(o.nbytes for o in phase.outcomes if o.round == 0)
            # per-job pairs at the reference speed, median: robust to a
            # burst of load on either side
            overhead = statistics.median(
                o.seconds * f / (u * g) for o, f, u, g in zip(
                    phase.outcomes, traced_meter.factors(n), untraced,
                    untraced_meter.factors(n))) - 1.0
            setup = scaled_setup(setup, traced_meter)
            metrics = {"setup.import_s": (setup["import_s"], "s"),
                       "setup.first_call_s": (setup["first_call_s"], "s"),
                       **layer_metrics(tracer, bytes0),
                       "trace.overhead_ratio": (overhead, "ratio")}
            notes.append(f"{len(phase.jobs)} traced jobs in "
                         f"{phase.seconds:.2f} s; untraced replay "
                         f"{sum(untraced):.2f} s")
    attempted = len(phase.jobs)
    failed = len(phase.problems)
    notes.insert(0, f"error_rate {failed / attempted:.6g} ratio "
                    f"({failed} of {attempted} jobs failed)")
    for i, msgs in sorted(phase.problems.items())[:20]:
        notes += [f"FAILED job {i}: {msg}" for msg in msgs]
    return env, metrics, attempted, failed, notes


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    total = {"attempted": 0, "failed": 0, "correct": True}
    metrics = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, capture_output=True,
            text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail(f"workload {workload} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["correct"] &= result["correct"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(_result_line(total["correct"], total["attempted"], total["failed"],
                       metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lglab", "__init__.py")):
        _fail(f"no lglab package under {SRC}; run from the repository root")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    env, metrics, attempted, failed, notes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    print(_table(args.workload, args.seed, metrics, notes))
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
