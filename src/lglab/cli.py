"""Command-line front end: analyze | ode | sde | scan.

Every subcommand is a pure function of its flags (plus the explicit seed
for stochastic runs); artifacts are JSON or CSV, written atomically, with
`--out -` streaming to stdout.  Exit codes: 0 success, 1 bad input or a
simulation that cannot proceed, 2 internal consistency failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import (
    Inconclusive,
    InvalidParams,
    LglabError,
    NoHopf,
    NonHyperbolicPresent,
    PositivityViolation,
    StepTooLarge,
)
from .model import _MODEL_FIELDS, ModelParams, _horizon, load_params
from . import equilibria as eq
from . import ode_sim, qualitative, sde_sim

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors (exit 1); exit 2 is reserved for
    # internal consistency failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _atomic_write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lglab-tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dump(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2) + "\n"


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("model parameters")
    for name in _MODEL_FIELDS:
        g.add_argument(f"--{name}", type=float, default=None)
    files = g.add_mutually_exclusive_group()
    files.add_argument("--params", metavar="FILE", help="JSON file with dimensionless parameters")
    files.add_argument("--raw", metavar="FILE", help="JSON file with dimensional parameters")


def _build_params(args) -> ModelParams:
    d = {}
    if args.params:
        d = load_params(args.params).to_dict()
    elif args.raw:
        with open(args.raw) as f:
            d = load_params({"raw": json.load(f)}).to_dict()
    d.update((n, getattr(args, n)) for n in _MODEL_FIELDS
             if getattr(args, n) is not None)
    missing = [n for n in _MODEL_FIELDS[:4] if n not in d]
    if missing:
        raise InvalidParams(f"missing required parameters: {missing} "
                            "(or use --params/--raw)")
    return ModelParams(**d)


def analysis_report(p: ModelParams, want_hopf: bool = False) -> dict:
    """Full equilibrium/certificate report as a JSON-ready dict."""
    trivial = eq.trivial_equilibria(p)
    count_report = eq.count_interior_equilibria(p)
    interior = [eq.classify(p, e) for e in eq.find_interior_equilibria(p)]
    try:
        idx = eq.index_sum_check(p, interior)
        index = {"total": idx.total, "expected": idx.expected,
                 "passed": idx.passed, "skipped": None}
    except NonHyperbolicPresent as exc:
        index = {"total": None, "expected": None, "passed": None,
                 "skipped": str(exc)}

    hopf = None
    if want_hopf:
        hopf = []
        for e in interior:
            try:
                hd = eq.hopf_point(p, e)
                hopf.append({"x": e.x, "y": e.y, "b0": hd.b0,
                             "lambda": hd.lam, "subcritical": hd.subcritical})
            except NoHopf as exc:
                hopf.append({"x": e.x, "y": e.y, "error": str(exc)})

    return {
        "schema": "lglab/analysis-report",
        "schema_version": SCHEMA_VERSION,
        "params": p.to_dict(),
        "trivial_equilibria": [e.to_dict() for e in trivial],
        "interior_equilibria": [e.to_dict() for e in interior],
        "count": {
            "n_predicted": count_report.n_predicted,
            "routh_sign_changes": count_report.routh_sign_changes,
            "tong_delta": count_report.tong_delta,
            "tong_product": count_report.tong_product,
            "branch": count_report.branch,
        },
        "index": index,
        "region": qualitative.invariant_region(p).to_dict(),
        "qualitative": {
            "persistence": qualitative.persistence_report(p).to_dict(),
            "global_stability": qualitative.global_stability_condition(p).to_dict(),
            "no_cycle": [c.to_dict() for c in qualitative.no_cycle_conditions(p)],
            "stochastic_regime": qualitative.stochastic_regime(p).to_dict(),
        },
        "hopf": hopf,
    }


def cmd_analyze(args) -> int:
    p = _build_params(args)
    report = analysis_report(p, want_hopf=args.hopf)
    _atomic_write(args.out, _dump(report))
    if report["index"]["passed"] is False:
        print("index sum mismatch", file=sys.stderr)
        return 2
    return 0


def cmd_ode(args) -> int:
    p = _build_params(args)
    scheme = ode_sim.EULER if args.scheme == "euler" else ode_sim.RK4
    traj = ode_sim.integrate(p, (args.x0, args.y0), scheme=scheme,
                             h=args.h, t_max=args.t_max)
    buf = io.StringIO()
    ode_sim.write_csv(traj, buf)
    _atomic_write(args.out, buf.getvalue())
    if args.detect_cycle:
        burn = args.burn_in if args.burn_in is not None else 0.5 * args.t_max
        if scheme != ode_sim.RK4:
            # detection always runs on the RK4 trajectory
            traj = ode_sim.integrate(p, (args.x0, args.y0), scheme=ode_sim.RK4,
                                     h=args.h, t_max=args.t_max)
        try:
            report = ode_sim.detect_limit_cycle(p, traj, t_burn=burn)
            payload = report.to_dict()
        except Inconclusive as exc:
            payload = {"found": False, "inconclusive": str(exc)}
        payload = {"schema": "lglab/cycle", "schema_version": SCHEMA_VERSION,
                   **payload}
        sys.stdout.write(_dump(payload))
    return 0


def _histogram_json(counts, bins, overflow):
    return {"bins": bins, "range": [0.0, sde_sim.HIST_RANGE],
            "counts": counts, "overflow": overflow}


def cmd_sde(args) -> int:
    p = _build_params(args)
    scheme = sde_sim.MILSTEIN if args.scheme == "milstein" else sde_sim.LOG_EULER

    if args.mode == "path":
        if args.comparison and (scheme != sde_sim.LOG_EULER or args.shared_noise):
            raise InvalidParams("--comparison runs LogEuler on independent "
                                "noise; drop --scheme milstein and --shared-noise")
        noise = sde_sim.make_noise(args.seed, args.h,
                                   _horizon(args.h, args.t_max))
        if args.comparison:
            path = sde_sim.comparison_bundle(p, (args.x0, args.y0), noise)
        else:
            path = sde_sim.simulate_path(p, (args.x0, args.y0), scheme, noise,
                                         shared_noise=args.shared_noise)
        buf = io.StringIO()
        sde_sim.write_path_csv(path, buf)
        _atomic_write(args.out, buf.getvalue())
        return 0

    if args.mode == "ensemble":
        checkpoints = ([float(t) for t in args.checkpoints.split(",")]
                       if args.checkpoints else [args.t_max])
        stats = sde_sim.ensemble(p, (args.x0, args.y0), scheme, args.paths,
                                 args.seed, args.t_max, checkpoints,
                                 h=args.h, burn_in=args.burn_in or 0.0,
                                 bins=args.bins)
        payload = {
            "schema": "lglab/ensemble", "schema_version": SCHEMA_VERSION,
            "n_paths": stats.n_paths,
            "checkpoints": [
                {"t": t, "mean": stats.mean[i], "var": stats.variance[i]}
                for i, t in enumerate(stats.checkpoint_times)
            ],
            "extinction": {"x": stats.extinction_fraction_x,
                           "y": stats.extinction_fraction_y},
            "histogram": _histogram_json(stats.hist_counts, args.bins,
                                         stats.hist_overflow),
        }
        _atomic_write(args.out, _dump(payload))
        return 0

    if args.mode == "stationary":
        rep = sde_sim.stationary_histogram(
            p, scheme, args.seed,
            args.burn_in if args.burn_in is not None else 100.0, args.t_max,
            bins=args.bins, h=args.h, init=(args.x0, args.y0))
        payload = {
            "schema": "lglab/stationary", "schema_version": SCHEMA_VERSION,
            "regime": rep.regime, "regime_warning": rep.regime_warning,
            "diagnostics": {"l1_half_vs_half": rep.l1_half_vs_half,
                            "l1_cross_seed": rep.l1_cross_seed},
            "histogram": _histogram_json(rep.counts, args.bins, rep.overflow),
        }
        _atomic_write(args.out, _dump(payload))
        return 0

    # hitting
    try:
        target = qualitative.Region(*map(float, args.target.split(",")))
    except (TypeError, ValueError):
        raise InvalidParams("--target needs x_lo,x_hi,y_lo,y_hi") from None
    rep = sde_sim.hitting_time(p, scheme, (args.x0, args.y0), target,
                               args.paths, args.seed, args.t_cap, h=args.h)
    payload = {
        "schema": "lglab/hitting", "schema_version": SCHEMA_VERSION,
        "mean": rep.mean, "median": rep.median,
        "fraction_censored": rep.fraction_censored,
        "n_paths": args.paths, "t_cap": args.t_cap,
    }
    _atomic_write(args.out, _dump(payload))
    return 0


def cmd_scan(args) -> int:
    if args.steps < 2:
        raise InvalidParams("--steps must be >= 2")
    base = _build_params(args)
    values = np.linspace(args.lo, args.hi, args.steps)
    if args.lo > args.hi:
        values = values[::-1]

    header = ["param", "value", "n"]
    for i in (1, 2, 3):
        header += [f"x{i}", f"y{i}", f"s{i}", f"p{i}", f"taxonomy{i}"]
    header += ["b0", "lambda", "stochastic_regime"]
    rows = [",".join(header)]

    for v in values:
        d = base.to_dict()
        d[args.name] = float(v)
        p = ModelParams(**d)
        count = eq.count_interior_equilibria(p)
        interior = [eq.classify(p, e) for e in eq.find_interior_equilibria(p)]
        row = [args.name, f"{v:.17g}", str(count.n_predicted)]
        for i in range(3):
            if i < len(interior):
                e = interior[i]
                row += [f"{e.x:.17g}", f"{e.y:.17g}", f"{e.s:.17g}",
                        f"{e.p_det:.17g}", e.taxonomy]
            else:
                row += ["", "", "", "", ""]
        b0 = lam = ""
        for e in interior:
            try:
                hd = eq.hopf_point(p, e)
                b0, lam = f"{hd.b0:.17g}", f"{hd.lam:.17g}"
                break
            except NoHopf:
                continue
        row += [b0, lam, qualitative.stochastic_regime(p).clause]
        rows.append(",".join(row))

    _atomic_write(args.out, "\n".join(rows) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lglab",
        description="Analysis and simulation of a prey-predator system "
                    "with a constant-density prey refuge.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="equilibria, taxonomy and certificates")
    _add_param_flags(pa)
    pa.add_argument("--hopf", action="store_true",
                    help="compute critical b and the Lyapunov coefficient")
    pa.add_argument("--out", default="-")
    pa.set_defaults(func=cmd_analyze)

    po = sub.add_parser("ode", help="deterministic trajectory CSV")
    _add_param_flags(po)
    po.add_argument("--scheme", choices=("euler", "rk4"), default="rk4")
    po.add_argument("--h", type=float, default=1e-3)
    po.add_argument("--t-max", type=float, default=100.0)
    po.add_argument("--x0", type=float, default=0.5)
    po.add_argument("--y0", type=float, default=0.5)
    po.add_argument("--burn-in", type=float, default=None)
    po.add_argument("--detect-cycle", action="store_true")
    po.add_argument("--out", default="-")
    po.set_defaults(func=cmd_ode)

    ps = sub.add_parser("sde", help="stochastic paths and statistics")
    ps.add_argument("mode", choices=("path", "ensemble", "stationary", "hitting"))
    _add_param_flags(ps)
    ps.add_argument("--scheme", choices=("milstein", "log-euler"),
                    default="log-euler")
    ps.add_argument("--h", type=float, default=1e-2)
    ps.add_argument("--t-max", type=float, default=100.0)
    ps.add_argument("--x0", type=float, default=0.5)
    ps.add_argument("--y0", type=float, default=0.5)
    ps.add_argument("--seed", type=int, required=True,
                    help="explicit seed; stochastic runs have no implicit entropy")
    ps.add_argument("--paths", type=int, default=100)
    ps.add_argument("--bins", type=int, default=50)
    ps.add_argument("--burn-in", type=float, default=None)
    ps.add_argument("--checkpoints", default=None,
                    help="comma-separated times (ensemble mode)")
    ps.add_argument("--comparison", action="store_true",
                    help="path mode: include bracketing-process columns")
    ps.add_argument("--shared-noise", action="store_true",
                    help="drive the prey diffusion with the predator increments")
    ps.add_argument("--target", default="",
                    help="hitting mode: rectangle x_lo,x_hi,y_lo,y_hi")
    ps.add_argument("--t-cap", type=float, default=500.0)
    ps.add_argument("--out", default="-")
    ps.set_defaults(func=cmd_sde)

    pc = sub.add_parser("scan", help="one-parameter sweep CSV")
    _add_param_flags(pc)
    pc.add_argument("--scan", dest="name", required=True, choices=_MODEL_FIELDS)
    pc.add_argument("--from", dest="lo", type=float, required=True)
    pc.add_argument("--to", dest="hi", type=float, required=True)
    pc.add_argument("--steps", type=int, required=True)
    pc.add_argument("--out", default="-")
    pc.set_defaults(func=cmd_scan)

    return parser


_HINTS = {StepTooLarge: "; reduce --h",
          PositivityViolation: "; try --scheme log-euler or a smaller --h"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LglabError, ValueError, OSError) as exc:
        print(f"error: {exc}{_HINTS.get(type(exc), '')}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
