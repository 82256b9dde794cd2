"""Tests of the benchmark itself: output checks, determinism and the tracer.

Run from the repository root:

    python3 -m pytest perfbench
"""

import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import harness  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from lglab import cli, equilibria, model, qualitative, sde_sim  # noqa: E402
from tracer import JOB, Tracer, layer_metrics  # noqa: E402


@pytest.fixture(scope="module")
def checker():
    return harness.Checker()


def first_round(workload, seed=3):
    size = workloads.round_size(workload)
    return list(itertools.islice(workloads.rounds(workload, seed), size))


ALL = 10 ** 6  # min_jobs that lets run_phase run every job it is given


def error_rate(phase):
    return len(phase.problems) / len(phase.jobs)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_round_passes_every_check(workload, checker, tmp_path):
    phase = harness.run_phase(first_round(workload), str(tmp_path), 0.0,
                              ALL, checker)
    harness.check_round0(phase, str(tmp_path))
    assert phase.problems == {}


def test_parameter_sets_never_repeat():
    jobs = list(itertools.islice(workloads.rounds("analysis-sweep", 1), 600))
    argvs = [job.argv for job in jobs]
    assert len(set(argvs)) == len(argvs)
    assert argvs[:50] == [job.argv for job in itertools.islice(
        workloads.rounds("analysis-sweep", 1), 50)]


def test_nondeterministic_artifact_raises_error_rate(checker, tmp_path,
                                                     monkeypatch):
    calls = itertools.count()
    real = cli.analysis_report

    def drifting(p, want_hopf=False):
        report = real(p, want_hopf)
        report["nonce"] = next(calls)
        return report

    monkeypatch.setattr(cli, "analysis_report", drifting)
    jobs = [j for j in first_round("analysis-sweep")
            if j.kind == "analyze"][:3]
    phase = harness.run_phase(jobs, str(tmp_path), 0.0, ALL, checker)
    assert phase.problems == {}
    harness.check_round0(phase, str(tmp_path))
    assert error_rate(phase) == 1.0
    assert all("differs on repeat" in m[0] for m in phase.problems.values())


def test_wrong_analysis_artifact_raises_error_rate(checker, tmp_path,
                                                   monkeypatch):
    real = cli.analysis_report

    def miscounted(p, want_hopf=False):
        report = real(p, want_hopf)
        report["count"]["n_predicted"] += 1
        return report

    monkeypatch.setattr(cli, "analysis_report", miscounted)
    jobs = [j for j in first_round("analysis-sweep")
            if j.kind == "analyze"][:2]
    phase = harness.run_phase(jobs, str(tmp_path), 0.0, ALL, checker)
    assert error_rate(phase) == 1.0


def test_unreadable_artifact_fails_the_job_not_the_run(checker, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "_dump", lambda payload: "not json\n")
    jobs = [j for j in first_round("analysis-sweep")
            if j.kind == "analyze"][:2]
    phase = harness.run_phase(jobs, str(tmp_path), 0.0, ALL, checker)
    assert error_rate(phase) == 1.0


def test_short_csv_raises_error_rate(checker, tmp_path, monkeypatch):
    real = sde_sim.write_path_csv

    def truncated(path, fileobj):
        real(path, fileobj)
        fileobj.seek(0)
        text = fileobj.read()
        fileobj.seek(0)
        fileobj.truncate()
        fileobj.write(text[:text.rstrip("\n").rfind("\n") + 1])

    monkeypatch.setattr(sde_sim, "write_path_csv", truncated)
    jobs = [j for j in first_round("paths-narrow")
            if j.kind.startswith("path-")]
    phase = harness.run_phase(jobs, str(tmp_path), 0.0, ALL, checker)
    assert error_rate(phase) == 1.0


def test_speed_factor_uses_the_passes_around_each_job():
    meter = speed.Speedometer("mc-wide")
    # passes taken before job 0, after job 0 (two) and after job 1
    meter.passes = [(0, 1e-3), (1, 2e-3), (1, 2e-3), (2, 0.5e-3)]
    ref = speed.REF_KERNEL_S
    assert meter.factors(2) == pytest.approx([ref / (5e-3 / 3),
                                              ref / (4.5e-3 / 3)])


def test_run_phase_takes_a_pass_around_every_job(checker, tmp_path):
    meter = speed.Speedometer("analysis-sweep")
    jobs = [j for j in first_round("analysis-sweep") if j.kind == "analyze"]
    phase = harness.run_phase(jobs[:5], str(tmp_path), 0.0, ALL, checker,
                              speed=meter)
    marks = {mark for mark, _ in meter.passes}
    assert marks == set(range(len(phase.jobs) + 1))
    assert all(0 < f < 100 for f in meter.factors(len(phase.jobs)))


def test_tracer_binds_every_namespace_and_restores():
    names = [(qualitative, "find_interior_equilibria", equilibria),
             (qualitative, "count_interior_equilibria", equilibria),
             (equilibria, "vector_field", model),
             (sde_sim, "stochastic_regime", qualitative)]
    originals = [getattr(ns, name) for ns, name, _ in names]
    tracer = Tracer()
    tracer.install()
    try:
        for (ns, name, home), orig in zip(names, originals):
            assert getattr(ns, name) is getattr(home, name)
            assert getattr(ns, name) is not orig
            assert getattr(ns, name).__wrapped__ is orig
    finally:
        tracer.uninstall()
    assert [getattr(ns, name) for ns, name, _ in names] == originals


def test_traced_artifacts_match_untraced_and_self_times_add_up(checker,
                                                               tmp_path):
    jobs = first_round("paths-narrow") + first_round("analysis-sweep")[:20]
    tracer = Tracer()
    tracer.install()
    try:
        phase = harness.run_phase(jobs, str(tmp_path), 0.0, ALL, checker,
                                  span=tracer.job_span, keep_jobs=True)
    finally:
        tracer.uninstall()
    harness.replay(phase, range(len(phase.jobs)), str(tmp_path))
    assert phase.problems == {}

    roots = [s for s in tracer.spans if s.name == JOB]
    assert len(roots) == len(jobs)
    wall = sum(s.end - s.start for s in roots)
    assert sum(tracer.self_times()) == pytest.approx(wall, rel=1e-9)
    m = layer_metrics(tracer, 0)
    assert m["ode_sim.integrate.calls_per_ode_job"][0] == 2
    assert 0 < m["sde_sim.hitting_time.useful_ratio"][0] <= 1
    assert m["count.equilibria_found"][0] > 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    emitted = {name: unit for name, (_, unit) in m.items()}
    emitted.update({"setup.import_s": "s", "setup.first_call_s": "s",
                    "trace.overhead_ratio": "ratio"})
    assert emitted == listed


def test_fails_without_lglab_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "mc-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
