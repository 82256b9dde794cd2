"""Seeded job mixes for the three benchmark workloads.

A workload is an endless sequence of rounds; each round is a fixed mix of
job kinds whose parameters are drawn fresh from
``np.random.default_rng([seed, round])``.  Draws are continuous, so
no parameter set repeats within a process and sympy's expression cache in
``hopf_point`` cannot hit where a one-shot CLI user would miss.  lglab only
ever sees the generated command lines (or, for ``integrate_batch``, the
generated arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# reference sets from tests/test_acceptance.py; jobs draw neighbourhoods
HOPF_A = dict(a=1.1, b=0.3, k1=0.08, k2=0.01, m=0.0025)
STOCH_FIG = dict(a=0.4, b=0.1, k1=0.08, k2=0.2, m=0.0025)
CYCLE = dict(a=1.0, b=0.05, k1=0.1, k2=0.1, m=0.01)
WEAK_PREDATION = dict(a=0.5, b=0.1, k1=1.0, k2=0.2, m=0.0)

ENSEMBLE = dict(paths=256, t_max=20.0, h=0.01, checkpoints="5,10,20",
                burn_in=10.0, bins=30)
BATCH = dict(draws=50, per=20, h=1e-3, n_steps=1000)
ODE = dict(t_max=200.0, h=0.01)
PATH = dict(t_max=150.0, h=0.01)
COMPARISON = dict(t_max=50.0, h=0.01)
STATIONARY = dict(t_max=100.0, burn_in=20.0, h=0.01, bins=30)
HITTING = dict(t_cap=25.0, h=0.01, target="0.4,0.6,0.6,0.8")
SCAN_STEPS = 16

# analysis-sweep round: the --hopf share is set so that symbolic hopf_point
# and everything else each take at least a quarter of the traced phase.
# Random draws are redrawn when they admit a Hopf point, so each round makes
# exactly one symbolic hopf_point call on a fresh parameter set (the HOPF_A
# neighbourhood); otherwise the rare admissible draw, at several hundred ms,
# would dominate the run-to-run spread.
ANALYZE_PER_ROUND = 100
RANDOM_HOPF_PER_ROUND = 4
SCANS_PER_ROUND = 8


@dataclass(frozen=True)
class Job:
    """One closed-loop request.

    ``argv`` is passed to ``lglab.cli.main`` with ``--out <file>`` appended;
    jobs with ``batch`` set call ``ode_sim.integrate_batch`` directly, since
    it has no subcommand.  ``spec`` holds what the output checks need.
    """

    kind: str
    round: int
    argv: tuple = ()
    batch: dict | None = None
    spec: dict = field(default_factory=dict)
    param_sets: int = 1


def random_params(rng, m_mode="any") -> dict:
    """One draw with log-uniform rates, as ``tests/conftest.py::random_params``."""
    if m_mode == "zero":
        m = 0.0
    elif m_mode == "positive":
        m = float(rng.uniform(0.0005, 0.6))
    else:
        m = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0005, 0.6))
    return dict(a=float(10 ** rng.uniform(-1.5, 0.5)),
                b=float(10 ** rng.uniform(-1.5, 0.5)),
                k1=float(10 ** rng.uniform(-1.5, 0.5)),
                k2=float(10 ** rng.uniform(-1.5, 0.5)),
                m=m)


def admits_hopf(p: dict) -> bool:
    """Whether some interior equilibrium has 0 < b0 < a(x-m)/z.

    The benchmark's own closed form, so that drawing inputs never calls
    lglab: interior equilibria are the roots X = x - m in (0, 1-m) of the
    cubic in ``equilibria.cubic_coefficients``, with y = k2 + X.
    """
    a, k1, k2, m = p["a"], p["k1"], p["k2"], p["m"]
    coeffs = [1.0, a + k1 - 1.0 + 2.0 * m,
              m * m + m * (2.0 * k1 - 1.0) + a * k2 - k1, -k1 * m * (1.0 - m)]
    for X in np.roots(coeffs):
        if abs(X.imag) > 1e-9 or not 0.0 < X.real < 1.0 - m:
            continue
        X = X.real
        z = k1 + X
        b0 = 1.0 - 2.0 * (m + X) - a * (k2 + X) * k1 / z ** 2
        if 0.0 < b0 < a * X / z:
            return True
    return False


def no_hopf_params(rng) -> dict:
    """A random draw that admits no Hopf point (about 4% are redrawn)."""
    while True:
        p = random_params(rng)
        if not admits_hopf(p):
            return p


def near(rng, ref: dict, spread: float = 0.1) -> dict:
    """Log-uniform neighbourhood of a reference parameter set."""
    return {k: float(v * np.exp(rng.uniform(-spread, spread)))
            for k, v in ref.items()}


def flags(p: dict) -> list[str]:
    out = []
    for k, v in p.items():
        out += [f"--{k}", repr(float(v))]
    return out


def _seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


# ---------------------------------------------------------------- mc-wide

def _ensemble_job(rng, r, scheme, regime):
    p = near(rng, STOCH_FIG)
    if regime == "stationary":
        p.update(sigma1=float(rng.uniform(0.05, 0.3)),
                 sigma2=float(rng.uniform(0.05, 0.3)))
    else:  # extinction: sigma1^2 >= 2 and sigma2^2 >= 2b
        p.update(sigma1=float(rng.uniform(1.45, 1.7)),
                 sigma2=float(rng.uniform(0.5, 0.8)))
    e = ENSEMBLE
    init = (float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.3, 0.8)))
    seed = _seed(rng)
    argv = ("sde", "ensemble", *flags(p), "--scheme", scheme,
            "--seed", str(seed), "--paths", str(e["paths"]),
            "--t-max", repr(e["t_max"]), "--h", repr(e["h"]),
            "--checkpoints", e["checkpoints"], "--burn-in", repr(e["burn_in"]),
            "--bins", str(e["bins"]),
            "--x0", repr(init[0]), "--y0", repr(init[1]))
    spec = dict(params=p, scheme=scheme, seed=seed, init=init, **e)
    return Job(f"ensemble-{scheme}-{regime}", r, argv=argv, spec=spec)


def _batch_job(rng, r):
    b = BATCH
    draws = [random_params(rng, m_mode="positive") for _ in range(b["draws"])]
    draws.append(near(rng, WEAK_PREDATION))
    init = rng.uniform(0.01, 1.2, size=(len(draws) * b["per"], 2))
    cols = {k: np.repeat([d[k] for d in draws], b["per"])
            for k in ("a", "b", "k1", "k2", "m")}
    batch = dict(**cols, init=init, h=b["h"], n_steps=b["n_steps"],
                 tail_start=b["n_steps"] // 2)
    return Job("integrate-batch", r, batch=batch, param_sets=len(draws))


def mc_wide(rng, r):
    return [_ensemble_job(rng, r, "log-euler", "stationary"),
            _ensemble_job(rng, r, "milstein", "stationary"),
            _ensemble_job(rng, r, "log-euler", "extinction"),
            _ensemble_job(rng, r, "milstein", "extinction"),
            _batch_job(rng, r),
            _batch_job(rng, r)]


# ----------------------------------------------------------- paths-narrow

def _noisy(rng):
    p = near(rng, STOCH_FIG)
    p.update(sigma1=float(rng.uniform(0.05, 0.3)),
             sigma2=float(rng.uniform(0.05, 0.3)))
    return p


def _init(rng):
    return (float(rng.uniform(0.2, 0.9)), float(rng.uniform(0.2, 0.9)))


def _ode_job(rng, r, scheme):
    p = near(rng, CYCLE)
    init = _init(rng)
    argv = ("ode", *flags(p), "--scheme", scheme, "--h", repr(ODE["h"]),
            "--t-max", repr(ODE["t_max"]), "--x0", repr(init[0]),
            "--y0", repr(init[1]), "--detect-cycle")
    return Job(f"ode-{scheme}", r, argv=argv, spec=dict(params=p, **ODE))


def _path_job(rng, r, scheme):
    p = _noisy(rng)
    init = _init(rng)
    seed = _seed(rng)
    argv = ("sde", "path", *flags(p), "--scheme", scheme, "--seed", str(seed),
            "--h", repr(PATH["h"]), "--t-max", repr(PATH["t_max"]),
            "--x0", repr(init[0]), "--y0", repr(init[1]))
    spec = dict(params=p, scheme=scheme, seed=seed, init=init, **PATH)
    return Job(f"path-{scheme}", r, argv=argv, spec=spec)


def _comparison_job(rng, r):
    p = _noisy(rng)
    init = _init(rng)
    argv = ("sde", "path", *flags(p), "--comparison", "--seed", str(_seed(rng)),
            "--h", repr(COMPARISON["h"]), "--t-max", repr(COMPARISON["t_max"]),
            "--x0", repr(init[0]), "--y0", repr(init[1]))
    return Job("path-comparison", r, argv=argv, spec=dict(COMPARISON))


def _stationary_job(rng, r):
    s = STATIONARY
    argv = ("sde", "stationary", *flags(_noisy(rng)), "--seed", str(_seed(rng)),
            "--h", repr(s["h"]), "--t-max", repr(s["t_max"]),
            "--burn-in", repr(s["burn_in"]), "--bins", str(s["bins"]))
    return Job("stationary", r, argv=argv, spec=dict(s))


def _hitting_job(rng, r, paths):
    s = HITTING
    argv = ("sde", "hitting", *flags(_noisy(rng)), "--seed", str(_seed(rng)),
            "--paths", str(paths), "--h", repr(s["h"]),
            "--t-cap", repr(s["t_cap"]), "--target", s["target"],
            "--x0", repr(float(rng.uniform(0.8, 1.0))),
            "--y0", repr(float(rng.uniform(0.2, 0.4))))
    return Job(f"hitting-{paths}", r, argv=argv, spec=dict(paths=paths, **s))


def paths_narrow(rng, r):
    # seven kinds, so that p50 and p90 fall inside a kind, not between two
    return [_ode_job(rng, r, ("rk4", "euler")[r % 2]),
            _path_job(rng, r, "milstein"), _path_job(rng, r, "log-euler"),
            _comparison_job(rng, r), _stationary_job(rng, r),
            _hitting_job(rng, r, 8), _hitting_job(rng, r, 4)]


# --------------------------------------------------------- analysis-sweep

def _analyze_job(r, kind, p, hopf):
    argv = ("analyze", *flags(p)) + (("--hopf",) if hopf else ())
    return Job(kind, r, argv=argv, spec=dict(params=p))


def _scan_job(rng, r):
    p = no_hopf_params(rng)
    lo, hi = sorted(float(10 ** v) for v in rng.uniform(-1.5, 0.5, size=2))
    argv = ("scan", *flags(p), "--scan", "b", "--from", repr(lo),
            "--to", repr(hi), "--steps", str(SCAN_STEPS))
    return Job("scan", r, argv=argv, spec=dict(params=p, steps=SCAN_STEPS),
               param_sets=SCAN_STEPS)


def analysis_sweep(rng, r):
    jobs = [_analyze_job(r, "analyze", random_params(rng), False)
            for _ in range(ANALYZE_PER_ROUND)]
    jobs += [_analyze_job(r, "analyze-hopf", no_hopf_params(rng), True)
             for _ in range(RANDOM_HOPF_PER_ROUND)]
    jobs.append(_analyze_job(r, "analyze-hopf-near", near(rng, HOPF_A), True))
    jobs += [_scan_job(rng, r) for _ in range(SCANS_PER_ROUND)]
    return [jobs[i] for i in rng.permutation(len(jobs))]


WORKLOADS = {
    "mc-wide": mc_wide,
    "paths-narrow": paths_narrow,
    "analysis-sweep": analysis_sweep,
}


def round_size(workload: str) -> int:
    return len(WORKLOADS[workload](np.random.default_rng(0), 0))


def rounds(workload: str, seed: int):
    """Endless job sequence of a workload, round by round."""
    make = WORKLOADS[workload]
    r = 0
    while True:
        yield from make(np.random.default_rng([seed, r]), r)
        r += 1
