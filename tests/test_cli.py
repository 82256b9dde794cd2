import json
import math
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lglab
from lglab import ModelParams, cli, equilibria, ode_sim, qualitative
from lglab.cli import (_SDE_MODES, _build_parser, _dump, _grid,
                       analysis_report, main)

THREE = ["--a", "0.5", "--b", "0.1", "--k1", "0.08", "--k2", "0.2",
         "--m", "0.0025"]
HOPF = ["--a", "1.1", "--b", "0.2", "--k1", "0.08", "--k2", "0.01",
        "--m", "0.0025"]
STOCH = ["--a", "0.4", "--b", "0.1", "--k1", "0.08", "--k2", "0.2",
         "--m", "0.0025", "--sigma1", "0.1", "--sigma2", "0.1"]

# argvs whose exit code, stdout and stderr must not depend on whether a
# subcommand's parser reads them alone or as the top-level parser's
# subparser: every subcommand and sde mode, help and version, usage errors
# read by the top level or by a subcommand, and the words the two could
# read apart (a trailing top-level flag, abbreviations, `--flag=value`, an
# empty word, `-`, `--`)
CORPUS = [
    ["analyze", *THREE], ["analyze", *HOPF, "--hopf"],
    ["ode", *THREE, "--h", "0.1", "--t-max", "1", "--scheme", "euler"],
    ["sde", "path", *STOCH, "--seed", "1", "--t-max", "1"],
    ["sde", "ensemble", *STOCH, "--seed", "1", "--t-max", "1",
     "--paths", "2"],
    ["sde", "stationary", *STOCH, "--seed", "1", "--burn-in", "0.5",
     "--t-max", "1"],
    ["sde", "hitting", *STOCH, "--seed", "1", "--paths", "2", "--t-cap", "1",
     "--target", "0.4,0.6,0.6,0.8"],
    ["scan", *HOPF, "--scan", "b", "--from", "0.2", "--to", "0.5",
     "--steps", "3"],
    ["--help"], ["analyze", "--help"], ["ode", "--help"], ["sde", "--help"],
    ["scan", "--help"], ["--version"],
    [], ["bogus"],
    ["analyze", *THREE, "--bogus"], ["analyze", *THREE, "stray"],
    ["ode", *THREE, "--scheme", "midpoint"], ["sde", "path", *STOCH],
    ["ode", *THREE, "--t-max", "1", "--detect"],
    ["sde", *STOCH, "--seed", "1", "--t-max", "1", "--", "path"],
    ["-x", "analyze", *THREE], ["-1", "analyze", *THREE],
    ["--version", "analyze"],
    ["analyze", *THREE, "--version"], ["analyze", *THREE, "-x"],
    ["ode", *THREE, "--h", "0.1", "--t-max", "1", "--version"],
    ["sde", "path", *STOCH, "--seed", "1", "--t-max", "1", "stray"],
    ["analyze", *HOPF, "--hop"], ["analyze", *THREE, "--v"],
    ["analyze", "--a=0.5", *THREE[2:]],
    ["analyze", *THREE, ""], ["", "analyze", *THREE],
    ["analyze", *THREE, "-h"], ["sde", "path", *STOCH, "--seed", "1", "-h"],
    ["analyze", "-"], ["analyze", *THREE, "--", "x"],
]


def seeded(mode):
    """`--seed 1`, and `--t-max 1` for the sde modes that read it."""
    return ["--seed", "1", *(["--t-max", "1"] if mode != "hitting" else [])]


def paths(mode):
    """`--paths 4` for the sde modes that read it."""
    return ["--paths", "4"] if mode in ("ensemble", "hitting") else []


def load_schema(name):
    text = resources.files("lglab.schemas").joinpath(name).read_text()
    return json.loads(text)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def outcome(capsys, argv, run=main):
    """(exit code, stdout, stderr) of `run(argv)`, a SystemExit included."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_error(code, out, message):
    # exit 1, one `error:` line and no artifact on stdout
    assert (code, out.out, out.err) == (1, "", f"error: {message}\n")


class TestAnalyze:
    def test_report_validates(self, capsys):
        code, out = run(capsys, ["analyze", *THREE, "--hopf"])
        assert code == 0
        report = json.loads(out.out)
        jsonschema.validate(report, load_schema("analysis_report_v1.json"))
        assert len(report["interior_equilibria"]) == 3
        assert report["count"]["n_predicted"] == 3
        assert report["index"]["passed"] is True
        assert "cycle" not in report

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, _ = run(capsys, ["analyze", *THREE, "--out", str(dest)])
        assert code == 0
        report = json.loads(dest.read_text())
        assert report["schema"] == "lglab/analysis-report"

    def test_params_file_with_override(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"a": 0.5, "b": 0.9, "k1": 0.08, "k2": 0.2,
                                 "m": 0.0025}))
        code, out = run(capsys, ["analyze", "--params", str(f), "--b", "0.1"])
        assert code == 0
        assert json.loads(out.out)["params"]["b"] == 0.1

    def test_params_file_named_like_json(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "123").write_text(json.dumps(
            {"a": 0.5, "b": 0.1, "k1": 0.08, "k2": 0.2, "m": 0.0025}))
        code, out = run(capsys, ["analyze", "--params", "123"])
        assert code == 0
        assert json.loads(out.out)["params"]["k1"] == 0.08
        code, out = run(capsys, ["analyze", "--params", "nope.json"])
        assert_one_error(code, out,
                         "[Errno 2] No such file or directory: 'nope.json'")

    def test_linear_center_skips_the_index_check(self, capsys):
        # at b = b0 the Hopf equilibrium has s = 0 < det: not hyperbolic,
        # so the report names it instead of summing indices
        p = ModelParams(a=1.1, b=0.2, k1=0.08, k2=0.01, m=0.0025)
        (e,) = equilibria.find_interior_equilibria(p)
        b0 = equilibria.hopf_point(p, e).b0
        code, out = run(capsys, ["analyze", *HOPF, "--b", repr(b0)])
        assert code == 0, out.err
        report = json.loads(out.out)
        jsonschema.validate(report, load_schema("analysis_report_v1.json"))
        (center,) = report["interior_equilibria"]
        assert center["taxonomy"] == "LinearCenter" and center["s"] == 0.0
        assert report["index"] == {
            "total": None, "expected": None, "passed": None,
            "skipped": "non-hyperbolic equilibrium LinearCenter"}

    def test_missing_params_is_exit_1(self, capsys):
        code, out = run(capsys, ["analyze", "--a", "0.5"])
        assert code == 1
        assert "missing" in out.err

    @pytest.mark.parametrize("flag, record, field", [
        ("--params", {"b": 0.1, "k1": 0.08, "k2": 0.2}, "'a'"),
        ("--params", {"a": "x", "b": 0.1, "k1": 0.08, "k2": 0.2}, "'x'"),
        ("--raw", {"rho1": 1, "rho2": 1, "beta": 1, "alpha1": 1, "alpha2": 1,
                   "kappa1": 1, "kappa2": 1, "gamma": 1}, "'gamma'"),
    ])
    def test_bad_params_file_is_exit_1(self, capsys, tmp_path, flag, record,
                                       field):
        # missing, non-numeric and unknown fields: one line naming the record
        f = tmp_path / "p.json"
        f.write_text(json.dumps(record))
        code, out = run(capsys, ["analyze", flag, str(f)])
        assert (code, out.out) == (1, "")
        assert out.err.startswith("error: bad parameter record {")
        assert out.err.count("\n") == 1 and field in out.err

    @pytest.mark.parametrize("params, field", [
        ('{"a": true, "b": 0.1, "k1": 0.08, "k2": 0.2}', "a"),
        ('{"a": 0.5, "b": 0.1, "k1": 0.08, "k2": 0.2, "sigma2": false}',
         "sigma2"),
    ])
    def test_boolean_param_is_exit_1(self, capsys, params, field):
        # 0 < true holds, but the report schema wants numbers
        code, out = run(capsys, ["analyze", "--params", params])
        assert_one_error(code, out, f"{field} must be a number, not a boolean")

    def test_raw_file_with_override(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text(json.dumps({"rho1": 2.0, "rho2": 0.5, "beta": 0.4,
                                 "alpha1": 3.0, "alpha2": 1.5, "kappa1": 0.7,
                                 "kappa2": 0.9, "mu": 1.0}))
        code, out = run(capsys, ["analyze", "--raw", str(f), "--a", "0.7",
                                 "--sigma1", "0.2"])
        assert code == 0
        params = json.loads(out.out)["params"]
        assert (params["a"], params["b"], params["sigma1"]) == (0.7, 0.25, 0.2)

    def test_params_and_raw_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--params", "p.json", "--raw", "r.json"])
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err

    def test_bad_usage_is_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--a", "not-a-number"])
        assert exc.value.code == 1


    @pytest.mark.parametrize("k2", ["1e9", "1e15"])
    def test_large_k2(self, capsys, k2):
        # the equilibrium's rounded coordinates leave a field residual that
        # grows with k2; classify must still accept the point
        code, out = run(capsys, ["analyze", "--a", "0.4", "--b", "0.1",
                                 "--k1", "0.08", "--k2", k2, "--m", "0.5"])
        assert code == 0, out.err
        assert len(json.loads(out.out)["interior_equilibria"]) == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--a", "0.5", "--b", "0.1", "--k1", "1e308",
         "--k2", "0.2"],
        ["analyze", "--a", "1e200", "--b", "0.1", "--k1", "0.08",
         "--k2", "0.2", "--m", "0.1"],
        ["scan", *THREE, "--scan", "k1", "--from", "0.08", "--to", "1e308",
         "--steps", "2"],
    ])
    def test_overflowing_cubic_is_exit_1(self, capsys, argv):
        # finite parameters whose cubic overflows: one line, no traceback
        code, out = run(capsys, argv)
        assert (code, out.out) == (1, "")
        assert out.err.startswith("error: the equilibrium cubic is not finite")
        assert out.err.count("\n") == 1

    def test_one_equilibrium_pass_per_report(self, monkeypatch):
        # the report and every certificate read one record: each finder
        # runs once, and find_interior_equilibria counts once more itself
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("count_interior_equilibria", "find_interior_equilibria",
                     "trivial_equilibria"):
            fn = getattr(equilibria, name)
            for ns in (equilibria, qualitative):
                if getattr(ns, name, None) is fn:
                    monkeypatch.setattr(ns, name, counted(name, fn))
        # m = 0 with one interior equilibrium: every certificate reads it
        p = ModelParams(a=1.1, b=0.2, k1=0.08, k2=0.01)
        report = analysis_report(p, want_hopf=True)
        assert len(report["interior_equilibria"]) == 1
        assert calls["find_interior_equilibria"] == 1
        assert calls["trivial_equilibria"] == 1
        assert calls["count_interior_equilibria"] <= 2


class TestOde:
    def test_fixed_point_csv(self, capsys, tmp_path):
        dest = tmp_path / "traj.csv"
        code, _ = run(capsys, ["ode", *THREE, "--x0", "1", "--y0", "0",
                               "--h", "0.01", "--t-max", "1",
                               "--out", str(dest)])
        assert code == 0
        lines = dest.read_text().strip().split("\n")
        assert lines[0] == "t,x,y"
        assert len(lines) == 102
        assert all(line.endswith(",1,0") for line in lines[1:])

    def test_detect_cycle(self, capsys, tmp_path):
        code, out = run(capsys, [
            "ode", "--a", "1", "--b", "0.05", "--k1", "0.1", "--k2", "0.1",
            "--m", "0.01", "--x0", "0.5", "--y0", "0.3", "--h", "0.01",
            "--t-max", "2000", "--detect-cycle",
            "--out", str(tmp_path / "t.csv")])
        assert code == 0
        rep = json.loads(out.out)
        jsonschema.validate(rep, load_schema("cycle_v1.json"))
        assert rep["found"] is True and rep["stable"] is True
        assert rep["period"] == pytest.approx(62.7, abs=0.5)

    def test_detect_cycle_integrates_rk4_once(self, capsys, tmp_path,
                                              monkeypatch):
        # rk4 detects on the trajectory it writes; euler adds one RK4 run,
        # so both report the same cycle
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["scheme"])
            return integrate(*args, **kwargs)

        integrate = ode_sim.integrate
        monkeypatch.setattr(ode_sim, "integrate", counted)
        argv = ["ode", "--a", "1", "--b", "0.05", "--k1", "0.1", "--k2", "0.1",
                "--m", "0.01", "--x0", "0.5", "--y0", "0.3", "--h", "0.01",
                "--t-max", "1000", "--detect-cycle",
                "--out", str(tmp_path / "t.csv")]
        reports = {}
        for scheme in ("rk4", "euler"):
            calls.clear()
            code, out = run(capsys, [*argv, "--scheme", scheme])
            assert code == 0
            reports[scheme] = out.out
            assert calls == ([ode_sim.RK4] if scheme == "rk4"
                             else [ode_sim.EULER, ode_sim.RK4])
        assert json.loads(reports["rk4"])["found"] is True
        assert reports["euler"] == reports["rk4"]

    def test_detect_cycle_inconclusive(self, capsys, tmp_path):
        # 10 time units hold too few returns to the section for a verdict;
        # the CSV is still written and the report says why
        dest = tmp_path / "t.csv"
        code, out = run(capsys, ["ode", *THREE, "--h", "0.01", "--t-max",
                                 "10", "--detect-cycle", "--out", str(dest)])
        assert code == 0, out.err
        rep = json.loads(out.out)
        jsonschema.validate(rep, load_schema("cycle_v1.json"))
        assert rep["schema"] == "lglab/cycle"
        assert rep["found"] is False
        assert re.fullmatch(r"only [0-4] section crossings after burn-in",
                            rep["inconclusive"])
        assert len(dest.read_text().split("\n")) == 1003

    @pytest.mark.parametrize("burn_in", ["nan", "-5"])
    def test_bad_burn_in_is_exit_1(self, capsys, burn_in):
        code, out = run(capsys, ["ode", *THREE, "--h", "0.01", "--t-max", "10",
                                 "--detect-cycle", "--burn-in", burn_in])
        assert_one_error(code, out, "burn_in must be >= 0")

    def test_detect_cycle_negative_horizon_is_exit_1(self, capsys, tmp_path):
        # the horizon is named, not the burn-in that defaults to half of it
        dest = tmp_path / "t.csv"
        code, out = run(capsys, ["ode", *THREE, "--t-max", "-1",
                                 "--detect-cycle", "--out", str(dest)])
        assert_one_error(code, out, "horizon must be >= 0")
        assert not dest.exists()

    @pytest.mark.parametrize("out", [[], ["--out", "-"]])
    def test_detect_cycle_to_stdout_is_exit_1(self, capsys, out):
        # the CSV and the cycle report would share stdout
        code, res = run(capsys, ["ode", *THREE, "--h", "0.01", "--t-max", "10",
                                 "--detect-cycle", *out])
        assert_one_error(code, res, "--detect-cycle writes its report to "
                         "stdout; give the CSV a file with --out FILE")

    @pytest.mark.parametrize("burn_in", ["-5", "0.5"])
    def test_burn_in_without_detect_cycle_is_exit_1(self, capsys, burn_in):
        code, out = run(capsys, ["ode", *THREE, "--t-max", "1",
                                 "--burn-in", burn_in])
        assert_one_error(code, out,
                         "--burn-in applies to ode --detect-cycle only")


class TestSde:
    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sde", "path", *STOCH])
        assert exc.value.code == 1

    def test_path_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sde", "path", *STOCH, "--seed", "7", "--h", "0.01",
                "--t-max", "10"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_comparison_columns(self, capsys):
        code, out = run(capsys, ["sde", "path", *STOCH, "--seed", "1",
                                 "--h", "0.01", "--t-max", "1",
                                 "--comparison"])
        assert code == 0
        header = out.out.split("\n", 1)[0]
        assert header == "t,x,y,x_upper,y_upper,x_lower,y_lower"

    def test_comparison_start_on_an_axis_runs(self, capsys):
        # the prey stays at 0, and so do both of its brackets
        code, out = run(capsys, ["sde", "path", *STOCH, "--seed", "1",
                                 "--t-max", "1", "--comparison", "--x0", "0"])
        assert code == 0, out.err
        rows = out.out.strip().split("\n")[1:]
        assert len(rows) == 101
        for line in rows:
            _, x, _, xu, _, xl, _ = map(float, line.split(","))
            assert x == xu == xl == 0.0

    def test_comparison_prey_underflow(self, capsys):
        # the prey underflows to exactly 0; the system stays there as in
        # `sde path`, and every bracket keeps its side
        code, out = run(capsys, [
            "sde", "path", "--comparison", "--a", "1.7", "--b", "1.5",
            "--k1", "0.06", "--k2", "1.9", "--sigma1", "0.07",
            "--sigma2", "0.37", "--seed", "0", "--h", "0.01",
            "--t-max", "20", "--x0", "0.55", "--y0", "0.6"])
        assert code == 0, out.err
        rows = [list(map(float, line.split(",")))
                for line in out.out.strip().split("\n")[1:]]
        _, x, y, xu, yu, xl, yl = zip(*rows)
        assert x[-1] == 0.0
        assert all(a <= b <= c for a, b, c in zip(xl, x, xu))
        assert all(a <= b <= c for a, b, c in zip(yl, y, yu))

    def test_ensemble_validates(self, capsys):
        code, out = run(capsys, ["sde", "ensemble", *STOCH, "--seed", "0",
                                 "--paths", "8", "--h", "0.01",
                                 "--t-max", "5", "--checkpoints", "2,5",
                                 "--bins", "10"])
        assert code == 0
        payload = json.loads(out.out)
        jsonschema.validate(payload, load_schema("ensemble_v1.json"))
        assert [c["t"] for c in payload["checkpoints"]] == [2.0, 5.0]

    def test_stationary_validates(self, capsys):
        code, out = run(capsys, ["sde", "stationary", *STOCH, "--seed", "3",
                                 "--burn-in", "2", "--t-max", "20",
                                 "--h", "0.01", "--bins", "10"])
        assert code == 0
        payload = json.loads(out.out)
        jsonschema.validate(payload, load_schema("stationary_v1.json"))
        assert payload["regime"] == "Stationary"

    def test_stationary_burn_in_zero(self, capsys):
        code, out = run(capsys, ["sde", "stationary", *STOCH, "--seed", "3",
                                 "--burn-in", "0", "--t-max", "5",
                                 "--h", "0.01", "--bins", "10"])
        assert code == 0, out.err
        hist = json.loads(out.out)["histogram"]
        # every grid state from t = 0 on is binned
        assert sum(map(sum, hist["counts"])) + hist["overflow"] == 501

    @pytest.mark.parametrize("mode", [["path"], ["path", "--comparison"],
                                      ["stationary"]])
    @pytest.mark.parametrize("h", ["0", "-0.01"])
    def test_bad_h_is_exit_1(self, capsys, mode, h):
        code, out = run(capsys, ["sde", mode[0], *STOCH, *mode[1:],
                                 "--seed", "1", "--h", h, "--t-max", "1"])
        assert code == 1
        assert out.err == "error: need h > 0\n"

    @pytest.mark.parametrize("mode", ["ensemble", "stationary"])
    @pytest.mark.parametrize("flags, message", [
        (["--burn-in", "-5"], "burn_in must be >= 0"),
        (["--bins", "0"], "bins must be >= 1"),
        (["--burn-in", "nan"], "burn_in must be >= 0"),
    ])
    def test_bad_burn_in_or_bins_is_exit_1(self, capsys, mode, flags, message):
        code, out = run(capsys, ["sde", mode, *STOCH, "--seed", "1",
                                 *paths(mode), "--h", "0.01",
                                 "--t-max", "10", *flags])
        assert code == 1
        assert out.err == f"error: {message}\n"

    @pytest.mark.parametrize("mode, flags, message", [
        ("ensemble", ["--t-max", "1.5", "--burn-in", "1.2"],
         "burn_in leaves no state to bin: the histogram takes every 100th "
         "grid step"),
        ("stationary", ["--t-max", "1", "--burn-in", "0.999"],
         "burn_in must be smaller than t_max"),
    ])
    def test_burn_in_leaving_no_state_is_exit_1(self, capsys, mode, flags,
                                                message):
        code, out = run(capsys, ["sde", mode, *STOCH, "--seed", "1",
                                 *paths(mode), "--h", "0.01", *flags])
        assert_one_error(code, out, message)

    @pytest.mark.parametrize("start, message", [
        (["--x0", "-1"], "initial state must lie in the closed quadrant"),
        (["--y0", "nan"], "initial state must lie in the closed quadrant"),
        (["--y0", "inf"], "initial state must be finite"),
        (["--comparison", "--y0", "inf"], "initial state must be finite"),
    ])
    def test_bad_path_start_refused_before_noise(self, capsys, monkeypatch,
                                                 start, message):
        from lglab import sde_sim
        drawn = []
        real = sde_sim.make_noise
        monkeypatch.setattr(sde_sim, "make_noise",
                            lambda *a: drawn.append(a) or real(*a))
        code, out = run(capsys, ["sde", "path", *STOCH, "--seed", "1",
                                 "--t-max", "1", *start])
        assert_one_error(code, out, message)
        assert drawn == []

    def test_negative_horizon_is_exit_1(self, capsys):
        code, out = run(capsys, ["sde", "path", *STOCH, "--seed", "1",
                                 "--h", "0.01", "--t-max", "-1"])
        assert code == 1
        assert out.err == "error: horizon must be >= 0\n"

    @pytest.mark.parametrize("mode", [["path"], ["path", "--comparison"],
                                      ["ensemble"], ["stationary"],
                                      ["hitting", "--target", "0,2,0,2"]])
    def test_infinite_h_is_exit_1(self, capsys, mode):
        code, out = run(capsys, ["sde", mode[0], *STOCH, *mode[1:],
                                 "--seed", "1", *paths(mode[0]), "--h", "inf"])
        assert_one_error(code, out, "h must be finite")

    @pytest.mark.parametrize("flags", [["--scheme", "milstein"],
                                       ["--shared-noise"],
                                       ["--scheme", "milstein", "--shared-noise"]])
    def test_comparison_rejects_ignored_flags(self, capsys, flags):
        code, out = run(capsys, ["sde", "path", *STOCH, "--comparison",
                                 *flags, "--seed", "1", "--t-max", "1"])
        assert_one_error(code, out, "--comparison runs LogEuler on independent "
                         "noise; drop --scheme milstein and --shared-noise")

    @pytest.mark.parametrize("mode", [["ensemble"], ["stationary"],
                                      ["hitting", "--target", "0,2,0,2"]])
    def test_shared_noise_outside_path_is_exit_1(self, capsys, mode):
        code, out = run(capsys, ["sde", mode[0], *STOCH, *mode[1:],
                                 *seeded(mode[0]), *paths(mode[0]),
                                 "--shared-noise"])
        assert_one_error(code, out, "--shared-noise applies to sde path only")

    @pytest.mark.parametrize("flags, own, mode", [
        (flags, own, mode)
        for flags, own in ((["--comparison"], "path"),
                           (["--checkpoints", "0.5"], "ensemble"),
                           (["--target", "0,2,0,2"], "hitting"),
                           # refused before its value is checked, and at
                           # the value its own modes default to
                           (["--bins", "0"], "ensemble and stationary"),
                           (["--bins", "50"], "ensemble and stationary"),
                           (["--burn-in", "-5"], "ensemble and stationary"),
                           (["--burn-in", "0"], "ensemble and stationary"),
                           (["--t-cap", "-1"], "hitting"),
                           (["--t-cap", "500"], "hitting"),
                           (["--paths", "0"], "ensemble and hitting"),
                           (["--paths", "100"], "ensemble and hitting"),
                           (["--t-max", "1"], "path, ensemble and stationary"),
                           (["--t-max", "100"],
                            "path, ensemble and stationary"))
        for mode in ("path", "ensemble", "stationary", "hitting")
        if mode not in re.findall(r"\w+", own)])
    def test_mode_only_flag_outside_its_mode_is_exit_1(self, capsys, flags,
                                                       own, mode):
        target = ["--target", "0,2,0,2"] if mode == "hitting" else []
        code, out = run(capsys, ["sde", mode, *STOCH, *seeded(mode),
                                 *paths(mode), *target, *flags])
        assert_one_error(code, out, f"{flags[0]} applies to sde {own} only")

    @pytest.mark.parametrize("mode, name", [
        ("path", "seed"), ("ensemble", "seed"), ("stationary", "seed"),
        ("hitting", "seed")])
    def test_negative_seed_is_exit_1_in_lglab_words(self, capsys, mode,
                                                    name):
        # numpy's "expected non-negative integer" named no flag
        target = ["--target", "0,2,0,2"] if mode == "hitting" else []
        argv = ["sde", mode, *STOCH, *seeded(mode), *paths(mode), *target]
        argv[argv.index("--seed") + 1] = "-1"
        code, out = run(capsys, argv)
        assert_one_error(code, out, f"{name} must be >= 0")

    def test_omitted_bins_and_t_cap_take_their_defaults(self, capsys):
        code, out = run(capsys, ["sde", "ensemble", *STOCH,
                                 *seeded("ensemble"), *paths("ensemble")])
        assert code == 0
        assert json.loads(out.out)["histogram"]["bins"] == 50
        code, out = run(capsys, ["sde", "hitting", *STOCH, *seeded("hitting"),
                                 *paths("hitting"), "--target", "0,2,0,2"])
        assert code == 0
        assert json.loads(out.out)["t_cap"] == 500.0

    @pytest.mark.parametrize("mode", [["ensemble"],
                                      ["hitting", "--target", "0,2,0,2"]])
    def test_omitted_paths_takes_its_default(self, capsys, mode):
        code, out = run(capsys, ["sde", mode[0], *STOCH, *mode[1:],
                                 *seeded(mode[0])])
        assert code == 0
        assert json.loads(out.out)["n_paths"] == 100

    def test_comparison_allows_explicit_log_euler(self, capsys):
        argv = ["sde", "path", *STOCH, "--comparison", "--seed", "1",
                "--t-max", "1"]
        code, out = run(capsys, [*argv, "--scheme", "log-euler"])
        assert code == 0
        assert out.out == run(capsys, argv)[1].out

    def test_hitting_validates(self, capsys):
        code, out = run(capsys, ["sde", "hitting", *STOCH, "--seed", "0",
                                 "--paths", "4", "--h", "0.01",
                                 "--t-cap", "5",
                                 "--target", "0,2,0,2"])
        assert code == 0
        payload = json.loads(out.out)
        jsonschema.validate(payload, load_schema("hitting_v1.json"))
        assert payload["mean"] == 0.0

    def test_hitting_no_paths_is_exit_1(self, capsys):
        code, out = run(capsys, ["sde", "hitting", *STOCH, "--seed", "0",
                                 "--paths", "0", "--t-cap", "5",
                                 "--target", "0,2,0,2"])
        assert code == 1
        assert "n_paths" in out.err

    def test_hitting_requires_target(self, capsys):
        code, out = run(capsys, ["sde", "hitting", *STOCH, "--seed", "0"])
        assert code == 1
        assert "--target" in out.err

    @pytest.mark.parametrize("target", ["0.4,0.6,0.6", "0.4,0.6,0.6,0.8,1",
                                        "0.4,0.6,a,0.8"])
    def test_hitting_malformed_target(self, capsys, target):
        code, out = run(capsys, ["sde", "hitting", *STOCH, "--seed", "0",
                                 "--paths", "2", "--t-cap", "1",
                                 "--target", target])
        assert code == 1
        assert out.err == "error: --target needs x_lo,x_hi,y_lo,y_hi\n"

    @pytest.mark.parametrize("target, shown", [
        ("0,nan,0,1", "[0.0, nan] x [0.0, 1.0)"),
        ("0.6,0.4,0,1", "[0.6, 0.4] x [0.0, 1.0)"),
    ])
    def test_hitting_empty_target(self, capsys, target, shown):
        code, out = run(capsys, ["sde", "hitting", *STOCH, "--seed", "0",
                                 "--paths", "4", "--t-cap", "2",
                                 "--target", target])
        assert_one_error(code, out, "region needs x_lo <= x_hi and "
                         f"y_lo < y_hi, got {shown}")


class TestModeTable:
    @pytest.mark.parametrize("mode", list(_SDE_MODES))
    def test_mode_flags_parse_to_none_when_omitted(self, mode):
        # a mode-only flag counts as given exactly when it is not None
        args = _build_parser().parse_args(["sde", mode, "--seed", "1"])
        for dest in {dest for row in _SDE_MODES.values() for dest in row}:
            assert getattr(args, dest) is None, dest

    @pytest.mark.parametrize("mode, flags, default", [
        ("ensemble", ["--paths", "4", "--t-max", "1"], ["--burn-in", "0"]),
        ("stationary", ["--t-max", "101", "--h", "0.1"], ["--burn-in", "100"]),
        ("path", ["--h", "0.1"], ["--t-max", "100"]),
        ("ensemble", ["--paths", "4", "--h", "0.1"], ["--t-max", "100"]),
        ("stationary", ["--burn-in", "0", "--h", "0.1"], ["--t-max", "100"]),
    ])
    def test_omitted_flag_writes_its_default(self, capsys, mode, flags,
                                             default):
        argv = ["sde", mode, *STOCH, "--seed", "1", *flags]
        omitted = run(capsys, argv)
        assert omitted[0] == 0, omitted[1].err
        assert run(capsys, [*argv, *default]) == omitted

    def test_help_lists_each_mode_with_its_defaults(self, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # one unwrapped line
        with pytest.raises(SystemExit):
            main(["sde", "--help"])
        assert (
            "path: --t-max 100, --comparison, --shared-noise; "
            "ensemble: --t-max 100, --paths 100, --bins 50, --burn-in 0, "
            "--checkpoints; stationary: --t-max 100, --bins 50, "
            "--burn-in 100; hitting: --paths 100, --t-cap 500, --target."
        ) in capsys.readouterr().out


def test_non_finite_numpy_scalars_dump_as_null():
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    text = _dump({"a": np.float64("nan"), "b": [np.float32("inf")]})
    assert json.loads(text, parse_constant=refuse) == {"a": None, "b": [None]}


def reference_dump(payload):
    """The two-pass encoder `_dump` replaced, whose bytes it keeps: a copy of
    the payload with numpy values as Python values and non-finite floats as
    None, through json.dumps(indent=2)."""
    def jsonable(obj):
        if isinstance(obj, dict):
            return {k: jsonable(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [jsonable(v) for v in obj]
        if hasattr(obj, "tolist"):  # numpy arrays and scalars
            return jsonable(obj.tolist())
        if isinstance(obj, float) and not math.isfinite(obj):
            return None
        return obj

    return json.dumps(jsonable(payload), indent=2) + "\n"


EDGE_TEXT = st.sampled_from(["", "plain", "café σ₁", '"q"',
                             "back\\slash", "\x00\x1f\t\n\r\x7f",
                             "\u2028", "\U0001f600", "\ud800"])
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300,
                               1.7976931348623157e308, 0.1, 1e16, 1e22,
                               math.inf, -math.inf, math.nan])
JSON_TEXT = st.text() | EDGE_TEXT
FLOATS = st.floats() | EDGE_FLOATS
NUMPY_SCALARS = (FLOATS.map(np.float64) | st.floats(width=32).map(np.float32)
                 | st.integers(-2**63, 2**63 - 1).map(np.int64)
                 | st.booleans().map(np.bool_))
NUMPY_ARRAYS = st.sampled_from([np.float64, np.float32, np.int64, np.bool_]) \
    .flatmap(lambda dtype: hnp.arrays(dtype, hnp.array_shapes(
        min_dims=0, max_dims=2, min_side=0, max_side=3)))
LEAVES = (st.none() | st.booleans() | st.integers()
          | st.integers(2**63, 2**200) | st.integers(-2**200, -2**63)
          | FLOATS | JSON_TEXT | NUMPY_SCALARS | NUMPY_ARRAYS)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=24)


class TestDump:
    @settings(max_examples=500, deadline=None)
    @given(st.dictionaries(JSON_TEXT, PAYLOADS, max_size=6))
    @example({"": {}, "l": [], "t": (), "n": [None, True, False],
              "big": [2**63, -2**64 - 1], "f": [0.0, -0.0, 5e-324, math.nan],
              "np": [np.float32(0.1), np.float64(-math.inf), np.int64(-7),
                     np.bool_(True), np.zeros((2, 2)), np.array([], float)],
              "\"\\\x00é": {"nested": [(1, {"a": ()})]}})
    def test_bytes_of_the_two_pass_encoder(self, payload):
        assert _dump(payload) == reference_dump(payload)

    @pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", 1j])
    def test_other_types_refused(self, value):
        with pytest.raises(TypeError):
            reference_dump({"a": [value]})
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _dump({"a": [value]})


class TestParser:
    # every flag's dest and default, each subcommand parsing a fixed argv
    MODEL = dict(a=0.5, b=0.1, k1=0.08, k2=0.2, m=None, sigma1=None,
                 sigma2=None, params=None, raw=None, out="-")
    RUN = dict(t_max=None, x0=0.5, y0=0.5, burn_in=None)

    @pytest.mark.parametrize("argv, expected", [
        (["analyze"], dict(hopf=False)),
        (["ode"], dict(RUN, scheme="rk4", h=1e-3, detect_cycle=False)),
        (["sde", "path", "--seed", "1"],
         dict(RUN, mode="path", scheme="log-euler", h=1e-2, seed=1,
              paths=None, bins=None, checkpoints=None, comparison=None,
              shared_noise=None, target=None, t_cap=None)),
        (["scan", "--scan", "b", "--from", "0.1", "--to", "0.5",
          "--steps", "3"], dict(name="b", lo=0.1, hi=0.5, steps=3)),
    ])
    def test_dests_and_defaults(self, argv, expected):
        args = vars(_build_parser().parse_args(
            [argv[0], "--a", "0.5", "--b", "0.1", "--k1", "0.08",
             "--k2", "0.2", *argv[1:]]))
        assert args.pop("func").__name__ == f"cmd_{argv[0]}"
        assert args == dict(self.MODEL, command=argv[0], **expected)

    @pytest.mark.parametrize("argv", CORPUS)
    def test_parser_with_every_subcommands_flags_reads_the_same(
            self, capsys, argv):
        # main reads a call led by its subcommand with that subcommand's
        # parser alone; the top-level parser, holding every subcommand's
        # flags, prints and returns the same
        def nested(argv):
            return cli._run(_build_parser().parse_args(argv))
        assert outcome(capsys, argv) == outcome(capsys, argv, nested)

    @pytest.mark.parametrize("argv", CORPUS)
    def test_top_level_parser_is_built_only_when_needed(
            self, capsys, monkeypatch, argv):
        # once for a call no subcommand leads and for unrecognized
        # arguments, which only the top level reports; never otherwise
        built = []
        full = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser",
                            lambda: built.append(argv) or full())
        err = outcome(capsys, argv)[2]
        led = bool(argv) and argv[0] in cli._COMMANDS
        assert len(built) == (not led or "unrecognized arguments" in err)

    @pytest.mark.parametrize("argv", [
        ["analyze", *THREE], ["analyze", *HOPF, "--hopf"],
        ["scan", *HOPF, "--scan", "b", "--from", "0.2", "--to", "0.5",
         "--steps", "3"],
        ["analyze", *THREE, "stray"], ["sde", "path", *STOCH],
    ])
    def test_dash_dash_before_the_subcommand_is_dropped(
            self, capsys, tmp_path, argv):
        # `--` only ends the options: `lglab -- analyze ...` is
        # `lglab analyze ...`, exit code, output and artifact alike
        def call(name, argv):
            path = tmp_path / name
            result = outcome(capsys, [*argv, "--out", str(path)])
            return result, path.read_bytes() if path.exists() else None
        plain = call("plain", argv)
        assert call("dashed", ["--", *argv]) == plain

    def test_analyze_adds_only_its_own_flags(self, capsys, monkeypatch):
        called = []
        for name, (help_line, add_flags) in cli._COMMANDS.items():
            def spy(p, name=name, add_flags=add_flags):
                called.append(name)
                add_flags(p)
            monkeypatch.setitem(cli._COMMANDS, name, (help_line, spy))
        assert run(capsys, ["analyze", *THREE])[0] == 0
        assert called == ["analyze"]

    @pytest.mark.parametrize("command", ["analyze", "ode", "sde", "scan"])
    def test_parameter_files_are_listed_as_model_parameters(
            self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        sections = dict(re.findall(r"^(\S[^\n]*):\n((?:  [^\n]*\n)*)",
                                   capsys.readouterr().out, re.M))
        for flag in ("--params FILE", "--raw FILE"):
            assert flag in sections["model parameters"]
            assert flag not in sections["options"]

    def test_console_entry_reads_sys_argv(self, tmp_path):
        # `python -m lglab.cli` calls main() without argv, as the `lglab`
        # script does; its artifact is the in-process one, byte for byte
        argv = ["analyze", *HOPF, "--hopf", "--out"]
        assert main([*argv, str(tmp_path / "in-process")]) == 0
        src = os.path.dirname(os.path.dirname(lglab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run(
            [sys.executable, "-m", "lglab.cli", *argv,
             str(tmp_path / "console")],
            env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert ((tmp_path / "console").read_bytes()
                == (tmp_path / "in-process").read_bytes())


class TestScan:
    def test_trace_sign_flips_at_critical_b(self, capsys):
        # sweep the predator growth rate through its critical value
        code, out = run(capsys, [
            "scan", "--a", "1.1", "--b", "0.1", "--k1", "0.08",
            "--k2", "0.01", "--m", "0.0025",
            "--scan", "b", "--from", "0.2", "--to", "0.5", "--steps", "16"])
        assert code == 0
        lines = out.out.strip().split("\n")
        assert lines[0].startswith("param,value,n,x1,y1,s1,p1,taxonomy1")
        signs = []
        for line in lines[1:]:
            cells = line.split(",")
            signs.append(float(cells[5]) > 0)
        # exactly one sign change across the sweep
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1

    def test_bad_steps(self, capsys):
        code, out = run(capsys, ["scan", *THREE, "--scan", "a",
                                 "--from", "0.1", "--to", "0.2",
                                 "--steps", "1"])
        assert code == 1

    # ends anywhere up to 1e300, or tiny, so that spans can be subnormal
    END = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300))

    @settings(max_examples=500, deadline=None)
    @given(ends=st.one_of(st.tuples(END, END), END.map(lambda v: (v, v))),
           steps=st.integers(2, 200))
    @example(ends=(0.2, 0.5), steps=16)
    @example(ends=(0.5, 0.1), steps=5)
    @example(ends=(0.3, 0.3), steps=7)
    @example(ends=(0.0, 5e-324), steps=200)
    @example(ends=(3e-310, 2.9e-310), steps=3)
    def test_grid_is_linspace_bit_for_bit(self, ends, steps):
        lo, hi = ends
        expected = np.linspace(lo, hi, steps)
        if lo > hi:
            expected = expected[::-1]
        assert (np.array(_grid(lo, hi, steps)).view(np.uint64).tolist()
                == expected.view(np.uint64).tolist())


@pytest.mark.parametrize("argv, message", [
    (["sde", "path", *STOCH, *seeded("path"), "--x0", "nan"],
     "initial state must lie in the closed quadrant"),
    (["sde", "ensemble", *STOCH, *seeded("ensemble"), *paths("ensemble"),
      "--x0", "nan"],
     "initial state must lie in the closed quadrant"),
    (["sde", "path", *STOCH, *seeded("path"), "--sigma1", "nan"],
     "noise intensities must be nonnegative and finite"),
    (["sde", "ensemble", *STOCH, *seeded("ensemble"), *paths("ensemble"),
      "--sigma2", "inf"],
     "noise intensities must be nonnegative and finite"),
    (["sde", "path", *STOCH, "--seed", "1", "--t-max", "inf"],
     "horizon must be finite"),
    (["ode", *THREE, "--t-max", "inf"], "horizon must be finite"),
    (["ode", *THREE, "--h", "nan"], "need h > 0"),
    (["ode", *THREE, "--t-max", "nan"], "horizon must be >= 0"),
    (["ode", *THREE, "--x0", "nan"],
     "initial state must lie in the closed quadrant"),
    (["analyze", "--a", "inf", "--b", "0.1", "--k1", "0.08", "--k2", "0.2"],
     "a must be strictly positive and finite"),
])
def test_non_finite_input_is_exit_1(capsys, argv, message):
    assert_one_error(*run(capsys, argv), message)


NOISE_SQUARES = ("the squared noise intensities are not finite: "
                 "sigma1=1e+200, sigma2=0.1")


# finite flags whose arithmetic overflows: each printed a traceback, or
# wrote an artifact of inf or NaN states
@pytest.mark.parametrize("argv, message", [
    (["analyze", *THREE, "--b", "1e160"],
     "the discriminants of E0, E1 and E2 are not finite: (inf, inf, inf)"),
    (["analyze", *THREE, "--k1", "1e78"],
     "the field's partials are not finite at (1.0, 1.1975): "
     "k1 + x - m = 1e+78, k2 + x - m = 1.1975"),
    (["analyze", *STOCH, "--sigma1", "1e200"], NOISE_SQUARES),
    (["scan", *STOCH, "--sigma1", "1e200", "--scan", "b", "--from", "0.1",
      "--to", "0.2", "--steps", "2"], NOISE_SQUARES),
    (["sde", "stationary", *STOCH, "--sigma1", "1e200",
      *seeded("stationary"), "--burn-in", "0.5"], NOISE_SQUARES),
    (["sde", "path", *STOCH, "--b", "1e5", "--y0", "0.1", "--seed", "1",
      "--t-max", "1"], "non-finite state at step 1"),
    (["sde", "path", *STOCH, "--sigma1", "1e200", "--scheme", "milstein",
      "--seed", "2", "--t-max", "0.05"], "non-finite state at step 1"),
    (["sde", "path", "--comparison", "--a", "0.4", "--b", "77000",
      "--k1", "0.08", "--k2", "1", "--m", "0.9", "--x0", "0.5", "--y0", "0.1",
      "--seed", "1", "--t-max", "0.05"], "non-finite bracket at step 1"),
    (["sde", "stationary", *STOCH, "--b", "1e5", "--y0", "0.1",
      *seeded("stationary"), "--burn-in", "0.5"],
     "non-finite state at step 1"),
    (["sde", "ensemble", *STOCH, "--b", "1e6", "--y0", "0.1", "--seed", "1",
      "--paths", "2", "--t-max", "1"], "non-finite state on path 0"),
    (["sde", "hitting", *STOCH, "--b", "1e5", "--y0", "0.1", "--seed", "1",
      "--paths", "2", "--t-cap", "1", "--target", "5,6,5,6"],
     "non-finite state on path 0"),
])
def test_overflow_is_exit_1(capsys, argv, message):
    assert_one_error(*run(capsys, argv), message)


# the finder loses the one interior equilibrium the count predicts: each
# wrote a report short of it (exit 2, `index sum mismatch`), and the last
# exited 1 with Python's `not enough values to unpack`
@pytest.mark.parametrize("k1, m", [("1e20", "0.0025"), ("1e103", "0.0025"),
                                   ("1.3e154", "0.0025"),
                                   ("5e-324", "0.0025"), ("1e103", "0")])
def test_short_root_set_is_exit_1(capsys, tmp_path, k1, m):
    dest = tmp_path / "report.json"
    argv = ["analyze", "--a", "0.5", "--b", "0.1", "--k2", "0.2",
            "--k1", k1, "--m", m]
    for out in (["--out", str(dest)], []):
        assert_one_error(*run(capsys, [*argv, *out]), "found 0 interior "
                         "equilibria where the count predicts 1")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_failed_write_keeps_the_old_artifact(tmp_path, error):
    out = tmp_path / "report.json"
    out.write_bytes(b"the artifact of an earlier run\n")

    def write(f):
        f.write("half of an artifact")
        raise error("stopped half-way")

    with pytest.raises(error):
        cli._atomic_write(str(out), write)
    assert out.read_bytes() == b"the artifact of an earlier run\n"
    assert [f.name for f in tmp_path.iterdir()] == ["report.json"]


# every name `dir(lglab)` listed when the package imported numpy eagerly
PACKAGE_NAMES = (
    "Analysis", "ComparisonBundle", "CountReport", "CubicCoeffs",
    "CycleReport", "EnsembleStats", "Equilibrium", "HopfData", "Inconclusive",
    "IndexReport", "InvalidParams", "KinkPoint", "LglabError", "LongRunBounds",
    "ModelParams", "NoHopf", "NoisePath", "NonFinite", "NonHyperbolicPresent",
    "NotAnEquilibrium", "NumericalFailure", "PersistenceReport",
    "PositivityViolation", "RawParams", "RegimeCertificate", "Region",
    "SamplePath", "StepTooLarge", "TooShort", "Trajectory", "__version__",
    "analyze", "classify", "comparison_bundle", "count_interior_equilibria",
    "cubic_coefficients", "detect_limit_cycle", "ensemble", "equilibria",
    "errors", "explicit_upper_prey", "find_interior_equilibria",
    "global_stability_condition", "hitting_time", "hopf_point",
    "index_sum_check", "integrate", "invariant_region", "jacobian",
    "load_params", "long_run_bounds", "make_noise", "model",
    "no_cycle_conditions", "nondimensionalize", "ode_sim",
    "persistence_report", "qualitative", "sde_sim", "simulate_path",
    "stationary_histogram", "stochastic_regime", "trivial_equilibria",
    "vector_field")


def test_analysis_runs_without_numpy(tmp_path):
    # a fresh interpreter, so modules imported by other tests do not count;
    # numpy loads on the first simulation call and not before
    out = str(tmp_path / "artifact")
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys
        import lglab
        from lglab import (Equilibrium, InvalidParams, ModelParams, classify,
                           vector_field)
        from lglab.cli import main
        hopf = {HOPF!r}
        listed = dir(lglab)
        for argv in (["analyze", *hopf], ["analyze", *hopf, "--hopf"],
                     ["scan", *hopf, "--scan", "b", "--from", "0.2",
                      "--to", "0.5", "--steps", "4"]):
            assert main([*argv, "--out", {out!r}]) == 0, argv
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(["--help"])
            except SystemExit as exc:
                assert exc.code == 0
        try:
            ModelParams(a=True, b=0.1, k1=0.08, k2=0.2)
            refused = None
        except InvalidParams as exc:
            refused = str(exc)
        # Python ints give Python floats: E2 = (0, k2) at m = 0, a*k2 = k1
        unit = ModelParams(a=1, b=1, k1=1, k2=1)
        field = vector_field(unit, (1, 0))
        e2 = classify(unit, Equilibrium(0, 1))
        analysis = "numpy" in sys.modules
        assert main(["ode", *hopf, "--t-max", "1", "--out", {out!r}]) == 0
        print(json.dumps({{"listed": listed, "refused": refused,
                          "field": [repr(v) for v in field],
                          "e2": e2.taxonomy, "analysis": analysis,
                          "ode": "numpy" in sys.modules,
                          "unresolved": [n for n in listed
                                         if not hasattr(lglab, n)]}}))
    """)
    src = os.path.dirname(os.path.dirname(lglab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["analysis"] is False
    assert seen["refused"] == "a must be a number, not a boolean"
    assert seen["field"] == ["0.0", "0.0"]
    assert seen["e2"] == "SaddleNode"
    assert seen["ode"] is True
    assert set(PACKAGE_NAMES) <= set(seen["listed"])
    assert seen["unresolved"] == []


def test_star_import_binds_every_public_name():
    # a fresh interpreter: the star import must bind the lazily imported
    # simulation names as well as the eager ones, and no helper module
    script = textwrap.dedent("""
        import json
        from lglab import *
        print(json.dumps(sorted(n for n in dir() if not n.startswith("__"))))
    """)
    src = os.path.dirname(os.path.dirname(lglab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    bound = set(json.loads(done.stdout)) - {"json"}
    assert bound == set(PACKAGE_NAMES) - {"__version__"}
    assert "importlib" not in dir(lglab)
