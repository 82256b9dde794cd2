import json
from importlib import resources

import jsonschema
import pytest

from lglab import ode_sim
from lglab.cli import main

THREE = ["--a", "0.5", "--b", "0.1", "--k1", "0.08", "--k2", "0.2",
         "--m", "0.0025"]
STOCH = ["--a", "0.4", "--b", "0.1", "--k1", "0.08", "--k2", "0.2",
         "--m", "0.0025", "--sigma1", "0.1", "--sigma2", "0.1"]
SDE = ["--seed", "1", "--paths", "4", "--t-max", "1"]


def load_schema(name):
    text = resources.files("lglab.schemas").joinpath(name).read_text()
    return json.loads(text)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


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
    ])
    def test_bad_burn_in_or_bins_is_exit_1(self, capsys, mode, flags, message):
        code, out = run(capsys, ["sde", mode, *STOCH, "--seed", "1",
                                 "--paths", "4", "--h", "0.01",
                                 "--t-max", "10", *flags])
        assert code == 1
        assert out.err == f"error: {message}\n"

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
                                 "--seed", "1", "--paths", "4", "--h", "inf"])
        assert_one_error(code, out, "h must be finite")

    @pytest.mark.parametrize("flags", [["--scheme", "milstein"],
                                       ["--shared-noise"],
                                       ["--scheme", "milstein", "--shared-noise"]])
    def test_comparison_rejects_ignored_flags(self, capsys, flags):
        code, out = run(capsys, ["sde", "path", *STOCH, "--comparison",
                                 *flags, "--seed", "1", "--t-max", "1"])
        assert_one_error(code, out, "--comparison runs LogEuler on independent "
                         "noise; drop --scheme milstein and --shared-noise")

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


@pytest.mark.parametrize("argv, message", [
    (["sde", "path", *STOCH, *SDE, "--x0", "nan"],
     "initial state must lie in the closed quadrant"),
    (["sde", "ensemble", *STOCH, *SDE, "--x0", "nan"],
     "initial state must lie in the closed quadrant"),
    (["sde", "path", *STOCH, *SDE, "--sigma1", "nan"],
     "noise intensities must be nonnegative and finite"),
    (["sde", "ensemble", *STOCH, *SDE, "--sigma2", "inf"],
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
