"""Command-line front end: analyze | ode | sde | scan.

Every subcommand is a pure function of its flags (plus the explicit seed
for stochastic runs); artifacts are JSON or CSV, written atomically, with
`--out -` streaming to stdout.  Exit codes: 0 success, 1 bad input or a
simulation that cannot proceed, 2 internal consistency failure.

`analyze` and `scan` run on the standard library alone: the simulation
layers, and numpy with them, are imported by the subcommands that
simulate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

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
from .model import (_MODEL_FIELDS, ModelParams, _check_burn_in, _check_counts,
                    _check_state, _horizon, load_params)
from . import equilibria as eq
from . import qualitative

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors (exit 1); exit 2 is reserved for
    # internal consistency failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _atomic_write(path: str, write) -> None:
    """Call write(f) on the destination of an artifact: stdout for `-`,
    else a temporary file beside path, which replaces path once write
    returns, so an artifact is formatted straight into its file.  The file
    is opened "w+", so a writer can read back what it wrote."""
    if path == "-":
        write(sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lglab-tmp-")
    try:
        with os.fdopen(fd, "w+") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_STR = json.encoder.encode_basestring_ascii


def _json(obj, nl: str) -> str:
    """obj as `json.dumps(obj, indent=2)` writes it at the indent that the
    newline-and-indent nl starts, with numpy values taken through tolist()
    and non-finite floats as null.  Keys must be str."""
    if isinstance(obj, str):
        return _STR(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):  # np.float64 too: its tolist() is this float
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return ("{" + inner + ("," + inner).join([
            _STR(k) + ": " + _json(v, inner) for k, v in obj.items()])
            + nl + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join([_json(v, inner) for v in obj])
                + nl + "]")
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return _json(obj.tolist(), nl)
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump(payload: dict) -> str:
    """An artifact's text: exactly the bytes `json.dumps(payload, indent=2)`
    writes, plus a newline, with numpy values taken as the Python values
    their tolist() gives and non-finite floats written as null."""
    return _json(payload, "\n") + "\n"


def _artifact(schema: str, **body) -> dict:
    """A JSON artifact: the `lglab/<schema>` header, then the body."""
    return {"schema": f"lglab/{schema}", "schema_version": SCHEMA_VERSION,
            **body}


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
    an = qualitative.analyze(p)
    try:
        idx = eq.index_sum_check(an.interior, trivial[2])
        index = {"total": idx.total, "expected": idx.expected,
                 "passed": idx.passed, "skipped": None}
    except NonHyperbolicPresent as exc:
        index = {"total": None, "expected": None, "passed": None,
                 "skipped": str(exc)}

    hopf = None
    if want_hopf:
        hopf = []
        for e in an.interior:
            try:
                hd = eq.hopf_point(p, e)
                hopf.append({"x": e.x, "y": e.y, "b0": hd.b0,
                             "lambda": hd.lam, "subcritical": hd.subcritical})
            except NoHopf as exc:
                hopf.append({"x": e.x, "y": e.y, "error": str(exc)})

    return _artifact(
        "analysis-report", params=p.to_dict(),
        trivial_equilibria=[e.to_dict() for e in trivial],
        interior_equilibria=[e.to_dict() for e in an.interior],
        count=an.count.to_dict(), index=index,
        region=qualitative.invariant_region(p).to_dict(),
        qualitative={
            "persistence": qualitative.persistence_report(an).to_dict(),
            "global_stability": qualitative.global_stability_condition(an).to_dict(),
            "no_cycle": [c.to_dict() for c in qualitative.no_cycle_conditions(an)],
            "stochastic_regime": qualitative.stochastic_regime(p).to_dict(),
        },
        hopf=hopf)


def cmd_analyze(args) -> int:
    p = _build_params(args)
    report = analysis_report(p, want_hopf=args.hopf)
    _atomic_write(args.out, lambda f: f.write(_dump(report)))
    if report["index"]["passed"] is False:
        print("index sum mismatch", file=sys.stderr)
        return 2
    return 0


def cmd_ode(args) -> int:
    from . import ode_sim
    p = _build_params(args)
    scheme = ode_sim.EULER if args.scheme == "euler" else ode_sim.RK4
    t_max = args.t_max if args.t_max is not None else 100.0
    if args.detect_cycle:
        _horizon(args.h, t_max)  # first: the default burn-in derives from it
        burn = args.burn_in if args.burn_in is not None else 0.5 * t_max
        _check_burn_in(burn)  # before the CSV is written
        if args.out == "-":
            raise InvalidParams("--detect-cycle writes its report to stdout; "
                                "give the CSV a file with --out FILE")
    elif args.burn_in is not None:
        raise InvalidParams("--burn-in applies to ode --detect-cycle only")
    traj = ode_sim.integrate(p, (args.x0, args.y0), scheme=scheme,
                             h=args.h, t_max=t_max)
    _atomic_write(args.out, lambda f: ode_sim.write_csv(traj, f))
    if args.detect_cycle:
        if scheme != ode_sim.RK4:
            # detection always runs on the RK4 trajectory
            traj = ode_sim.integrate(p, (args.x0, args.y0), scheme=ode_sim.RK4,
                                     h=args.h, t_max=t_max)
        try:
            report = ode_sim.detect_limit_cycle(p, traj, t_burn=burn)
            payload = report.to_dict()
        except Inconclusive as exc:
            payload = {"found": False, "inconclusive": str(exc)}
        sys.stdout.write(_dump(_artifact("cycle", **payload)))
    return 0


def _histogram_json(counts, overflow):
    from . import sde_sim
    return {"bins": len(counts), "range": [0.0, sde_sim.HIST_RANGE],
            "counts": counts, "overflow": overflow}


# The flags each sde mode reads beyond the shared ones, with the default
# an omitted one takes.  The parser leaves them all None, so a flag is
# given when it is not None (`--bins 0` included); a mode refuses any given
# flag that its row lacks.
_SDE_MODES = {
    "path": {"t_max": 100.0, "comparison": False, "shared_noise": False},
    "ensemble": {"t_max": 100.0, "paths": 100, "bins": 50, "burn_in": 0.0,
                 "checkpoints": None},
    "stationary": {"t_max": 100.0, "bins": 50, "burn_in": 100.0},
    "hitting": {"paths": 100, "t_cap": 500.0, "target": ""},
}
# `sde --help` prints the table, with the numeric defaults
_SDE_EPILOG = "Each mode reads only its own flags (defaults): " + "; ".join(
    f"{mode}: " + ", ".join(
        "--" + dest.replace("_", "-")
        + (f" {default:g}" if type(default) in (int, float) else "")
        for dest, default in row.items())
    for mode, row in _SDE_MODES.items()) + "."


def cmd_sde(args) -> int:
    from . import sde_sim
    p = _build_params(args)
    scheme = sde_sim.MILSTEIN if args.scheme == "milstein" else sde_sim.LOG_EULER
    start = (args.x0, args.y0)

    row = _SDE_MODES[args.mode]
    for dest in dict.fromkeys(d for r in _SDE_MODES.values() for d in r):
        if dest not in row and getattr(args, dest) is not None:
            *rest, last = [m for m, r in _SDE_MODES.items() if dest in r]
            own = f"{', '.join(rest)} and {last}" if rest else last
            flag = dest.replace("_", "-")
            raise InvalidParams(f"--{flag} applies to sde {own} only")
    for dest, default in row.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    _check_counts(least=0, seed=args.seed)  # named as the flag, in every mode

    if args.mode == "path":
        if args.comparison and (scheme != sde_sim.LOG_EULER or args.shared_noise):
            raise InvalidParams("--comparison runs LogEuler on independent "
                                "noise; drop --scheme milstein and --shared-noise")
        n = _horizon(args.h, args.t_max)
        _check_state(*start)  # before any noise is drawn
        noise = sde_sim.make_noise(args.seed, args.h, n)
        if args.comparison:
            path = sde_sim.comparison_bundle(p, start, noise)
        else:
            path = sde_sim.simulate_path(p, start, scheme, noise,
                                         shared_noise=args.shared_noise)
        _atomic_write(args.out, lambda f: sde_sim.write_path_csv(path, f))
        return 0
    if args.mode == "ensemble":
        checkpoints = ([float(t) for t in args.checkpoints.split(",")]
                       if args.checkpoints else [args.t_max])
        stats = sde_sim.ensemble(p, start, scheme, args.paths, args.seed,
                                 args.t_max, checkpoints, h=args.h,
                                 burn_in=args.burn_in, bins=args.bins)
        text = _dump(_artifact(
            "ensemble", n_paths=stats.n_paths,
            checkpoints=[{"t": t, "mean": m, "var": v} for t, m, v in zip(
                stats.checkpoint_times, stats.mean, stats.variance)],
            extinction={"x": stats.extinction_fraction_x,
                        "y": stats.extinction_fraction_y},
            histogram=_histogram_json(stats.hist_counts, stats.hist_overflow)))
    elif args.mode == "stationary":
        rep = sde_sim.stationary_histogram(p, scheme, args.seed, args.burn_in,
                                           args.t_max, bins=args.bins,
                                           h=args.h, init=start)
        text = _dump(_artifact(
            "stationary", regime=rep.regime, regime_warning=rep.regime_warning,
            diagnostics={"l1_half_vs_half": rep.l1_half_vs_half,
                         "l1_cross_seed": rep.l1_cross_seed},
            histogram=_histogram_json(rep.counts, rep.overflow)))
    else:  # hitting
        try:
            x_lo, x_hi, y_lo, y_hi = map(float, args.target.split(","))
        except ValueError:
            raise InvalidParams("--target needs x_lo,x_hi,y_lo,y_hi") from None
        target = qualitative.Region(x_lo, x_hi, y_lo, y_hi)
        rep = sde_sim.hitting_time(p, scheme, start, target, args.paths,
                                   args.seed, args.t_cap, h=args.h)
        text = _dump(_artifact(
            "hitting", mean=rep.mean, median=rep.median,
            fraction_censored=rep.fraction_censored, n_paths=args.paths,
            t_cap=args.t_cap))
    _atomic_write(args.out, lambda f: f.write(text))
    return 0


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """np.linspace(lo, hi, steps) bit for bit, reversed when lo > hi.

    Each value is i * step + lo, or i / div * delta + lo when the step
    underflows to zero (a subnormal span), and the last value is hi.
    """
    div = steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        values = [i / div * delta + lo for i in range(div)]
    else:
        values = [i * step + lo for i in range(div)]
    values.append(hi)
    return values[::-1] if lo > hi else values


def cmd_scan(args) -> int:
    if args.steps < 2:
        raise InvalidParams("--steps must be >= 2")
    base = _build_params(args)
    values = _grid(args.lo, args.hi, args.steps)

    header = ["param", "value", "n"]
    for i in (1, 2, 3):
        header += [f"x{i}", f"y{i}", f"s{i}", f"p{i}", f"taxonomy{i}"]
    header += ["b0", "lambda", "stochastic_regime"]
    rows = [",".join(header)]

    for v in values:
        d = base.to_dict()
        d[args.name] = v
        p = ModelParams(**d)
        an = qualitative.analyze(p)
        interior = an.interior
        row = [args.name, f"{v:.17g}", str(an.count.n_predicted)]
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

    _atomic_write(args.out, lambda f: f.write("\n".join(rows) + "\n"))
    return 0


def _model_flags(p: argparse.ArgumentParser) -> None:
    """The flags every subcommand reads: the model, its files and --out."""
    g = p.add_argument_group("model parameters")
    for name in _MODEL_FIELDS:
        g.add_argument(f"--{name}", type=float, default=None)
    files = g.add_mutually_exclusive_group()
    files.add_argument("--params", metavar="FILE", help="JSON file with dimensionless parameters")
    files.add_argument("--raw", metavar="FILE", help="JSON file with dimensional parameters")
    p.add_argument("--out", default="-")


def _run_flags(p: argparse.ArgumentParser) -> None:
    """The flags ode and sde read beyond the model: start and horizon."""
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--x0", type=float, default=0.5)
    p.add_argument("--y0", type=float, default=0.5)
    p.add_argument("--burn-in", type=float, default=None)


def _analyze_flags(p: argparse.ArgumentParser) -> None:
    _model_flags(p)
    p.add_argument("--hopf", action="store_true",
                   help="compute critical b and the Lyapunov coefficient")
    p.set_defaults(func=cmd_analyze)


def _ode_flags(p: argparse.ArgumentParser) -> None:
    _model_flags(p)
    _run_flags(p)
    p.add_argument("--scheme", choices=("euler", "rk4"), default="rk4")
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--detect-cycle", action="store_true")
    p.set_defaults(func=cmd_ode)


def _sde_flags(p: argparse.ArgumentParser) -> None:
    _model_flags(p)
    _run_flags(p)
    p.epilog = _SDE_EPILOG
    p.add_argument("mode", choices=tuple(_SDE_MODES))
    p.add_argument("--scheme", choices=("milstein", "log-euler"),
                   default="log-euler")
    p.add_argument("--h", type=float, default=1e-2)
    p.add_argument("--seed", type=int, required=True,
                   help="explicit seed; stochastic runs have no implicit entropy")
    p.add_argument("--paths", type=int, default=None,
                   help="number of paths")
    p.add_argument("--bins", type=int, default=None,
                   help="histogram bins per axis")
    p.add_argument("--checkpoints", default=None,
                   help="comma-separated times (default: t-max)")
    p.add_argument("--comparison", action="store_true", default=None,
                   help="include bracketing-process columns")
    p.add_argument("--shared-noise", action="store_true", default=None,
                   help="drive the prey diffusion with the predator increments")
    p.add_argument("--target", default=None,
                   help="rectangle x_lo,x_hi,y_lo,y_hi")
    p.add_argument("--t-cap", type=float, default=None,
                   help="censoring time of a path that never enters")
    p.set_defaults(func=cmd_sde)


def _scan_flags(p: argparse.ArgumentParser) -> None:
    _model_flags(p)
    p.add_argument("--scan", dest="name", required=True, choices=_MODEL_FIELDS)
    p.add_argument("--from", dest="lo", type=float, required=True)
    p.add_argument("--to", dest="hi", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_scan)


# Each subcommand's help line and the function that adds its flags
_COMMANDS = {
    "analyze": ("equilibria, taxonomy and certificates", _analyze_flags),
    "ode": ("deterministic trajectory CSV", _ode_flags),
    "sde": ("stochastic paths and statistics", _sde_flags),
    "scan": ("one-parameter sweep CSV", _scan_flags),
}


def _build_parser() -> argparse.ArgumentParser:
    """The top-level `lglab` parser, with every subcommand and its flags.

    `main` reads a call led by its subcommand with that subcommand's parser
    alone and builds this one only for the rest: the top-level help and
    `--version`, a missing or unknown subcommand, and unrecognized
    arguments, which only the top level reports.
    """
    parser = _Parser(
        prog="lglab",
        description="Analysis and simulation of a prey-predator system "
                    "with a constant-density prey refuge.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_line))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parsed flags of `argv`, with the subcommand's `func`.

    A subcommand's parser on its own reads what it reads as the top-level
    parser's subparser (same prog, usage, help and errors), except that it
    leaves unrecognized arguments for the top level to report.
    """
    if len(argv) > 1 and argv[0] == "--" and argv[1] in _COMMANDS:
        argv = argv[1:]  # `--` ends the options, and none came before it
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"lglab {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return _build_parser().parse_args(argv)


_HINTS = {StepTooLarge: "; reduce --h",
          PositivityViolation: "; try --scheme log-euler or a smaller --h"}


def _run(args: argparse.Namespace) -> int:
    """Exit code of the parsed subcommand; an input error prints one line."""
    try:
        return args.func(args)
    except (LglabError, ValueError, OSError) as exc:
        print(f"error: {exc}{_HINTS.get(type(exc), '')}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return _run(_parse(sys.argv[1:] if argv is None else list(argv)))


if __name__ == "__main__":
    sys.exit(main())
