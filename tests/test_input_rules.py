"""Every public callable of lglab, with the inputs it refuses.

REFUSALS maps each callable in lglab.__all__ to its rows (label, call,
error, message): call() must raise exactly the type error, and the text
of the error must equal message, or fully match it where message is a
compiled pattern (numbers computed on the way, and Python's own words).
A callable that refuses nothing has an empty list, so that a new public
name fails test_every_public_callable_has_rows until its rules are listed.
"""

import math
import re

import numpy as np
import pytest

import lglab
from lglab import (
    Equilibrium,
    Inconclusive,
    InvalidParams,
    KinkPoint,
    ModelParams,
    NoHopf,
    NoisePath,
    NonHyperbolicPresent,
    NotAnEquilibrium,
    NumericalFailure,
    PositivityViolation,
    RawParams,
    Region,
    StepTooLarge,
    TooShort,
    analyze,
    classify,
    comparison_bundle,
    count_interior_equilibria,
    detect_limit_cycle,
    ensemble,
    explicit_upper_prey,
    find_interior_equilibria,
    hitting_time,
    hopf_point,
    index_sum_check,
    integrate,
    jacobian,
    load_params,
    long_run_bounds,
    make_noise,
    nondimensionalize,
    simulate_path,
    stationary_histogram,
    stochastic_regime,
    trivial_equilibria,
    vector_field,
)
from lglab.ode_sim import EULER, RK4
from lglab.sde_sim import LOG_EULER, MILSTEIN

P = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025)
STOCH = ModelParams(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025,
                    sigma1=0.1, sigma2=0.1)
RATES = dict(a=0.4, b=0.1, k1=0.08, k2=0.2)
RAW = dict(rho1=1.0, rho2=0.5, beta=1.0, alpha1=1.0, alpha2=1.0,
           kappa1=0.5, kappa2=0.5)
START = (0.55, 0.6)
NOISE = make_noise(0, 0.01, 10)  # 10 steps, to t = 0.1
TRAJ = integrate(P, (0.5, 0.5), RK4, h=0.01, t_max=1.0)  # 101 points
(E,) = find_interior_equilibria(P)  # a stable focus: no Hopf point
E2 = trivial_equilibria(P)[2]
TARGET = Region(0.0, 2.0, 0.0, 2.0)
PAIR = "initial state must be a pair (x, y)"
QUADRANT = "initial state must lie in the closed quadrant"
FINITE = "initial state must be finite"
NO_STATE = ("burn_in leaves no state to bin: the histogram takes every "
            "100th grid step")


# z**4 overflows, z = k1 + x - m, at the one interior equilibrium
BIG_K1 = ModelParams(a=0.5, b=0.1, k1=1e78, k2=0.2, m=0.0025)
BIG_K1_E = Equilibrium(1.0, 1.1975)
PARTIALS = ("the field's partials are not finite at (1.0, 1.1975): "
            "k1 + x - m = 1e+78, k2 + x - m = 1.1975")
RESIDUAL = re.compile(r"field residual \(\S+, \S+\) at \(\S+, \S+\)")
# the count predicts one interior equilibrium, but R(1 - m) rounds to 0
SHORT = ModelParams(a=0.5, b=0.1, k1=1e20, k2=0.2, m=0.0025)
SHORT_ROOTS = "found 0 interior equilibria where the count predicts 1"


def sde_run(which, **kw):
    """One small run of ensemble, stationary_histogram or hitting_time,
    with kw in place of its defaults."""
    if which == "ensemble":
        args = dict(p=STOCH, init=START, scheme=LOG_EULER, n_paths=3,
                    seed0=0, t_max=1.0, checkpoints=[], h=0.01) | kw
        return lambda: ensemble(**args)
    if which == "stationary":
        args = dict(p=STOCH, scheme=LOG_EULER, seed=1, burn_in=0.5,
                    t_max=1.0, bins=10, h=0.01, init=START) | kw
        return lambda: stationary_histogram(**args)
    args = dict(p=STOCH, scheme=LOG_EULER, init=START, target=TARGET,
                n_paths=3, seed0=0, t_cap=1.0, h=0.01) | kw
    return lambda: hitting_time(**args)


def prologue(run, t):
    """The rows every run shares: horizon (t names its argument), scheme
    and start, in that order of checking."""
    return [
        ("h = 0", run(h=0.0), ValueError, "need h > 0"),
        ("h = inf", run(h=math.inf), ValueError, "h must be finite"),
        (f"{t} < 0", run(**{t: -1.0}), ValueError, "horizon must be >= 0"),
        (f"{t} = nan", run(**{t: math.nan}), ValueError,
         "horizon must be >= 0"),
        (f"{t} = inf", run(**{t: math.inf}), ValueError,
         "horizon must be finite"),
        ("scheme", run(scheme="RK45"), ValueError, "unknown scheme 'RK45'"),
        ("x0 < 0", run(init=(-0.5, 0.6)), ValueError, QUADRANT),
        ("y0 nan", run(init=(0.55, math.nan)), ValueError, QUADRANT),
        ("x0 inf", run(init=(math.inf, 0.6)), ValueError, FINITE),
        ("start of three", run(init=(0.55, 0.6, 0.7)), ValueError, PAIR),
        ("start of one", run(init=(0.55,)), ValueError, PAIR),
    ]


def integrate_run(**kw):
    args = dict(p=P, init=(0.5, 0.5), scheme=RK4, h=0.01, t_max=1.0) | kw
    return lambda: integrate(**args)


def on_noise(run, **kw):
    """run(p, init, noise, ...) on NOISE, or on its increments on grid h."""
    args = dict(p=STOCH, init=START, noise=NOISE) | kw
    h = args.pop("h", None)
    if h is not None:
        args["noise"] = NoisePath(0, h, NOISE.xi1, NOISE.xi2)
    return lambda: run(**args)


def path_run(**kw):
    return on_noise(simulate_path, **dict(scheme=LOG_EULER) | kw)


def bundle_run(**kw):
    return on_noise(comparison_bundle, **kw)


REFUSALS = {
    # records and errors: built by the library, they refuse nothing
    "Analysis": [], "ComparisonBundle": [], "CountReport": [],
    "CubicCoeffs": [], "CycleReport": [], "EnsembleStats": [],
    "Equilibrium": [], "HopfData": [], "IndexReport": [],
    "LongRunBounds": [], "PersistenceReport": [], "RegimeCertificate": [],
    "SamplePath": [], "Trajectory": [],
    "Inconclusive": [], "InvalidParams": [], "KinkPoint": [],
    "LglabError": [], "NoHopf": [], "NonFinite": [],
    "NonHyperbolicPresent": [], "NotAnEquilibrium": [],
    "NumericalFailure": [], "PositivityViolation": [], "StepTooLarge": [],
    "TooShort": [],
    # functions of a ModelParams that every record answers
    "cubic_coefficients": [], "invariant_region": [],
    # functions of an Analysis, which only analyze builds
    "persistence_report": [], "global_stability_condition": [],
    "no_cycle_conditions": [],
    "ModelParams": [
        ("a = 0", lambda: ModelParams(**RATES | dict(a=0.0)), InvalidParams,
         "a must be strictly positive and finite"),
        ("k2 inf", lambda: ModelParams(**RATES | dict(k2=math.inf)),
         InvalidParams, "k2 must be strictly positive and finite"),
        ("b nan", lambda: ModelParams(**RATES | dict(b=math.nan)),
         InvalidParams, "b must be strictly positive and finite"),
        ("m = 1", lambda: ModelParams(**RATES, m=1.0), InvalidParams,
         "m must satisfy 0 <= m < 1"),
        ("m < 0", lambda: ModelParams(**RATES, m=-0.1), InvalidParams,
         "m must satisfy 0 <= m < 1"),
        ("sigma1 < 0", lambda: ModelParams(**RATES, sigma1=-0.1),
         InvalidParams, "noise intensities must be nonnegative and finite"),
        ("sigma2 inf", lambda: ModelParams(**RATES, sigma2=math.inf),
         InvalidParams, "noise intensities must be nonnegative and finite"),
        ("a bool", lambda: ModelParams(**RATES | dict(a=True)),
         InvalidParams, "a must be a number, not a boolean"),
        ("m numpy bool", lambda: ModelParams(**RATES, m=np.bool_(False)),
         InvalidParams, "m must be a number, not a boolean"),
    ],
    "RawParams": [
        ("rho1 = 0", lambda: RawParams(**RAW | dict(rho1=0.0)),
         InvalidParams, "rho1 must be strictly positive and finite"),
        ("kappa2 nan", lambda: RawParams(**RAW | dict(kappa2=math.nan)),
         InvalidParams, "kappa2 must be strictly positive and finite"),
        ("mu = rho1/beta", lambda: RawParams(**RAW, mu=1.0), InvalidParams,
         "mu must satisfy 0 <= mu < rho1/beta"),
        ("beta bool", lambda: RawParams(**RAW | dict(beta=True)),
         InvalidParams, "beta must be a number, not a boolean"),
    ],
    "nondimensionalize": [
        ("sigma1 < 0",
         lambda: nondimensionalize(RawParams(**RAW), sigma1=-1.0),
         InvalidParams, "noise intensities must be nonnegative and finite"),
    ],
    "load_params": [
        ("missing field", lambda: load_params(dict(a=0.4, b=0.1, k1=0.08)),
         InvalidParams, re.compile(r"bad parameter record \{.*\}: .*'k2'")),
        ("unknown field", lambda: load_params(RATES | dict(c=1.0)),
         InvalidParams, re.compile(r"bad parameter record \{.*\}: .*'c'")),
        ("a = 0", lambda: load_params(RATES | dict(a=0.0)), InvalidParams,
         "a must be strictly positive and finite"),
        ("raw mu", lambda: load_params({"raw": RAW | dict(mu=2.0)}),
         InvalidParams, "mu must satisfy 0 <= mu < rho1/beta"),
        ("no file", lambda: load_params("no/such/params.json"),
         FileNotFoundError,
         "[Errno 2] No such file or directory: 'no/such/params.json'"),
    ],
    "vector_field": [
        ("x nan", lambda: vector_field(P, (math.nan, 0.5)), ValueError,
         "state must lie in the closed quadrant"),
        ("y < 0", lambda: vector_field(P, (0.5, -3.0)), ValueError,
         "state must lie in the closed quadrant"),
        ("y inf", lambda: vector_field(P, (0.5, math.inf)), ValueError,
         "state must be finite"),
    ],
    "jacobian": [
        ("x nan", lambda: jacobian(P, (math.nan, 0.5)), ValueError,
         "state must lie in the closed quadrant"),
        ("y < 0", lambda: jacobian(P, (0.5, -3.0)), ValueError,
         "state must lie in the closed quadrant"),
        ("y inf", lambda: jacobian(P, (0.5, math.inf)), ValueError,
         "state must be finite"),
        ("on x = m", lambda: jacobian(ModelParams(**RATES, m=0.3), (0.3, 0.5)),
         KinkPoint, "jacobian is undefined on the line x = m = 0.3"),
    ],
    "trivial_equilibria": [
        ("(1 - b)^2 overflows",
         lambda: trivial_equilibria(ModelParams(**RATES | dict(b=1e160))),
         NumericalFailure, "the discriminants of E0, E1 and E2 are not "
         "finite: (inf, inf, inf)"),
        ("E2's s and p overflow",
         lambda: trivial_equilibria(ModelParams(**RATES | dict(k1=5e-324))),
         NumericalFailure, "the discriminants of E0, E1 and E2 are not "
         "finite: (0.81, 1.21, nan)"),
    ],
    "stochastic_regime": [
        ("sigma1^2 overflows",
         lambda: stochastic_regime(ModelParams(**RATES, sigma1=1e200)),
         NumericalFailure, "the squared noise intensities are not finite: "
         "sigma1=1e+200, sigma2=0.0"),
    ],
    "count_interior_equilibria": [
        ("cubic overflows",
         lambda: count_interior_equilibria(ModelParams(a=1e200, b=1, k1=1,
                                                       k2=1)),
         NumericalFailure, "the equilibrium cubic is not finite: "
         "alpha2=1e+200, alpha1=1e+200, alpha0=-0.0, tong_delta=inf"),
    ],
    "find_interior_equilibria": [
        ("cubic overflows",
         lambda: find_interior_equilibria(ModelParams(a=1, b=1, k1=1e308,
                                                      k2=1)),
         NumericalFailure,
         re.compile(r"the equilibrium cubic is not finite: .*")),
        ("partials overflow", lambda: find_interior_equilibria(BIG_K1),
         NumericalFailure, PARTIALS),
        ("short root set", lambda: find_interior_equilibria(SHORT),
         NumericalFailure, SHORT_ROOTS),
    ],
    "analyze": [
        ("cubic overflows",
         lambda: analyze(ModelParams(a=1e200, b=1, k1=1, k2=1)),
         NumericalFailure,
         re.compile(r"the equilibrium cubic is not finite: .*")),
        ("partials overflow", lambda: analyze(BIG_K1), NumericalFailure,
         PARTIALS),
        ("short root set", lambda: analyze(SHORT), NumericalFailure,
         SHORT_ROOTS),
    ],
    "classify": [
        ("off the equilibrium",
         lambda: classify(P, Equilibrium(E.x + 0.01, E.y)),
         NotAnEquilibrium, RESIDUAL),
        ("nan point", lambda: classify(P, Equilibrium(math.nan, math.nan)),
         ValueError, "state must lie in the closed quadrant"),
        ("partials overflow", lambda: classify(BIG_K1, BIG_K1_E),
         NumericalFailure, PARTIALS),
    ],
    "hopf_point": [
        ("off the equilibrium",
         lambda: hopf_point(P, Equilibrium(E.x + 0.01, E.y)),
         NotAnEquilibrium, RESIDUAL),
        ("stable focus", lambda: hopf_point(P, E), NoHopf,
         "b0=-0.108562 outside (0, a*c)= (0, 0.346646)"),
        ("partials overflow", lambda: hopf_point(BIG_K1, BIG_K1_E),
         NumericalFailure, PARTIALS),
    ],
    "index_sum_check": [
        ("unclassified E2", lambda: index_sum_check([], Equilibrium(0, 0.2)),
         NonHyperbolicPresent, "unclassified E2 in index check"),
        ("unclassified interior",
         lambda: index_sum_check([Equilibrium(E.x, E.y)], E2),
         NonHyperbolicPresent, "unclassified equilibrium in index check"),
        ("non-hyperbolic interior",
         lambda: index_sum_check([Equilibrium(
             E.x, E.y, taxonomy="SaddleNode", index=0, hyperbolic=False)],
             E2),
         NonHyperbolicPresent, "non-hyperbolic equilibrium SaddleNode"),
    ],
    "Region": [
        ("x_lo > x_hi", lambda: Region(1.0, 0.0, 0.0, 1.0), ValueError,
         "region needs x_lo <= x_hi and y_lo < y_hi, got [1.0, 0.0] x "
         "[0.0, 1.0)"),
        ("y_lo = y_hi", lambda: Region(0.0, 1.0, 0.5, 0.5), ValueError,
         "region needs x_lo <= x_hi and y_lo < y_hi, got [0.0, 1.0] x "
         "[0.5, 0.5)"),
        ("x_lo nan", lambda: Region(math.nan, 1.0, 0.0, 1.0), ValueError,
         "region needs x_lo <= x_hi and y_lo < y_hi, got [nan, 1.0] x "
         "[0.0, 1.0)"),
    ],
    "integrate": [
        *prologue(integrate_run, "t_max"),
        ("step leaves the quadrant", integrate_run(scheme=EULER, h=100.0,
                                                   t_max=1000.0),
         StepTooLarge, "state left the closed quadrant at step 2"),
    ],
    "long_run_bounds": [
        ("fraction 0", lambda: long_run_bounds(TRAJ, 0.0), ValueError,
         "tail_fraction must lie in (0, 1], got 0.0"),
        ("fraction nan", lambda: long_run_bounds(TRAJ, math.nan), ValueError,
         "tail_fraction must lie in (0, 1], got nan"),
        ("short tail", lambda: long_run_bounds(TRAJ), TooShort,
         "tail has 21 points, need >= 1000"),
    ],
    "detect_limit_cycle": [
        ("burn-in < 0", lambda: detect_limit_cycle(P, TRAJ, t_burn=-1.0),
         ValueError, "burn_in must be >= 0"),
        ("burn-in nan", lambda: detect_limit_cycle(P, TRAJ, t_burn=math.nan),
         ValueError, "burn_in must be >= 0"),
        ("too few crossings", lambda: detect_limit_cycle(P, TRAJ),
         Inconclusive, "only 0 section crossings after burn-in"),
    ],
    "make_noise": [
        ("seed < 0", lambda: make_noise(-1, 0.01, 10), ValueError,
         "seed must be >= 0"),
        ("seed float", lambda: make_noise(1.0, 0.01, 10), TypeError,
         "seed must be an integer, not float"),
        ("n_steps bool", lambda: make_noise(0, 0.01, True), TypeError,
         "n_steps must be an integer, not bool"),
        ("n_steps < 0", lambda: make_noise(0, 0.01, -1), ValueError,
         "horizon must be >= 0"),
        ("h = 0", lambda: make_noise(0, 0.0, 10), ValueError, "need h > 0"),
        ("h nan", lambda: make_noise(0, math.nan, 10), ValueError,
         "need h > 0"),
    ],
    "NoisePath": [
        ("lists", lambda: NoisePath(0, 0.01, [0.1], [0.2]), ValueError,
         "xi1 and xi2 must be 1-D numpy arrays"),
        ("2-D", lambda: NoisePath(0, 0.01, np.zeros((2, 2)), np.zeros(4)),
         ValueError, "xi1 and xi2 must be 1-D numpy arrays"),
        ("lengths", lambda: NoisePath(0, 0.01, np.zeros(3), np.zeros(4)),
         ValueError, "xi1 and xi2 must have the same length"),
        ("nan", lambda: NoisePath(0, 0.01, np.zeros(3),
                                  np.array([0.0, math.nan, 0.0])),
         ValueError, "xi1 and xi2 must be finite"),
    ],
    "simulate_path": [
        *prologue(path_run, "t_max"),
        ("past the noise", path_run(t_max=1.0), ValueError,
         "noise path shorter than requested horizon"),
        ("Milstein crosses zero",
         path_run(p=ModelParams(**RATES, m=0.0025, sigma1=0.1, sigma2=2.3),
                  scheme=MILSTEIN, noise=make_noise(6, 0.2, 100)),
         PositivityViolation, "positivity lost at step 3"),
    ],
    "comparison_bundle": [
        *(row for row in prologue(bundle_run, "t_max")
          if row[0] != "scheme"),  # the bundle runs LogEuler alone
        ("past the noise", bundle_run(t_max=1.0), ValueError,
         "noise path shorter than requested horizon"),
    ],
    "explicit_upper_prey": [
        ("x0 = 0", lambda: explicit_upper_prey(0.1, 0.0, NOISE), ValueError,
         "x0 must be positive and finite"),
        ("x0 inf", lambda: explicit_upper_prey(0.1, math.inf, NOISE),
         ValueError, "x0 must be positive and finite"),
        ("sigma1 < 0", lambda: explicit_upper_prey(-0.1, 0.5, NOISE),
         ValueError, "sigma1 must be nonnegative and finite"),
        ("sigma1^2 overflows", lambda: explicit_upper_prey(1e200, 0.5, NOISE),
         ValueError, "sigma1 ** 2 is not finite: sigma1=1e+200"),
        ("past the noise",
         lambda: explicit_upper_prey(0.1, 0.5, NOISE, t_max=1.0), ValueError,
         "noise path shorter than requested horizon"),
    ],
    "ensemble": [
        ("n_paths = 0", sde_run("ensemble", n_paths=0), ValueError,
         "n_paths must be >= 1"),
        ("n_paths float", sde_run("ensemble", n_paths=1.5), TypeError,
         "n_paths must be an integer, not float"),
        ("bins = 0", sde_run("ensemble", bins=0), ValueError,
         "bins must be >= 1"),
        ("bins numpy float", sde_run("ensemble", bins=np.float64(2)),
         TypeError, "bins must be an integer, not float64"),
        ("seed0 < 0", sde_run("ensemble", seed0=-1), ValueError,
         "seed0 must be >= 0"),
        ("seed0 bool", sde_run("ensemble", seed0=False), TypeError,
         "seed0 must be an integer, not bool"),
        *prologue(lambda **kw: sde_run("ensemble", **kw), "t_max"),
        ("burn-in < 0", sde_run("ensemble", burn_in=-1.0), ValueError,
         "burn_in must be >= 0"),
        ("burn-in > t_max", sde_run("ensemble", burn_in=2.0), ValueError,
         "burn_in must not exceed t_max"),
        # steps 120-150 and 150 alone hold no multiple of 100 to bin
        ("burn-in past the last 100th step",
         sde_run("ensemble", t_max=1.5, burn_in=1.2), ValueError, NO_STATE),
        ("burn-in = t_max off the 100th step",
         sde_run("ensemble", t_max=1.5, burn_in=1.5), ValueError, NO_STATE),
        ("checkpoint > t_max", sde_run("ensemble", checkpoints=[2.0]),
         ValueError, "checkpoints must lie in [0, t_max]"),
        ("checkpoint nan", sde_run("ensemble", checkpoints=[math.nan]),
         ValueError, "checkpoints must lie in [0, t_max]"),
        ("checkpoint off the grid", sde_run("ensemble", checkpoints=[0.005]),
         ValueError, "checkpoint 0.005 is not a grid time of h = 0.01"),
        ("checkpoint twice", sde_run("ensemble", checkpoints=[0.5, 0.5]),
         ValueError, "checkpoints must fall on distinct grid steps"),
    ],
    "stationary_histogram": [
        ("bins = 0", sde_run("stationary", bins=0), ValueError,
         "bins must be >= 1"),
        ("bins float", sde_run("stationary", bins=10.0), TypeError,
         "bins must be an integer, not float"),
        ("seed < 0", sde_run("stationary", seed=-1), ValueError,
         "seed must be >= 0"),
        ("seed2 < 0", sde_run("stationary", seed2=-1), ValueError,
         "seed2 must be >= 0"),
        ("seed2 float", sde_run("stationary", seed2=2.0), TypeError,
         "seed2 must be an integer, not float"),
        *prologue(lambda **kw: sde_run("stationary", **kw), "t_max"),
        ("burn-in < 0", sde_run("stationary", burn_in=-1.0), ValueError,
         "burn_in must be >= 0"),
        ("burn-in = t_max", sde_run("stationary", burn_in=1.0), ValueError,
         "burn_in must be smaller than t_max"),
        # both round to step 100, so the tail would be one state
        ("burn-in rounds to t_max", sde_run("stationary", burn_in=0.999),
         ValueError, "burn_in must be smaller than t_max"),
        ("t_max rounds to the start",
         sde_run("stationary", burn_in=0.0, t_max=0.004), ValueError,
         "burn_in must be smaller than t_max"),
        ("seed2 = seed", sde_run("stationary", seed2=1), ValueError,
         "seed2 must differ from seed"),
    ],
    "hitting_time": [
        ("n_paths = 0", sde_run("hitting", n_paths=0), ValueError,
         "n_paths must be >= 1"),
        ("n_paths numpy float", sde_run("hitting", n_paths=np.float64(3)),
         TypeError, "n_paths must be an integer, not float64"),
        ("seed0 < 0", sde_run("hitting", seed0=-1), ValueError,
         "seed0 must be >= 0"),
        *prologue(lambda **kw: sde_run("hitting", **kw), "t_cap"),
    ],
}

ROWS = [(name, *row) for name, rows in REFUSALS.items() for row in rows]


@pytest.mark.parametrize(
    "name, label, call, error, message", ROWS,
    ids=[f"{name}: {label}" for name, label, *_ in ROWS])
def test_refusal(name, label, call, error, message):
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is error
    if isinstance(message, re.Pattern):
        assert message.fullmatch(str(exc.value))
    else:
        assert str(exc.value) == message


def test_every_public_callable_has_rows():
    public = {name for name in lglab.__all__
              if callable(getattr(lglab, name))}
    assert sorted(public - set(REFUSALS)) == []
    assert sorted(set(REFUSALS) - public) == []
