"""Stochastic simulation with multiplicative noise on both species.

Two one-step schemes are provided.  Milstein adds the Ito correction
(1/2)*sigma^2*x*(h*xi^2 - h) to Euler-Maruyama and reduces to the plain
Euler recursion bit-for-bit when the noise is off, but can step through
zero.  LogEuler discretizes the exact-diffusion log coordinates and is
strictly positivity-preserving, so it is the default for long horizons.

The comparison bundle steps the four bracketing processes (stochastic
logistic upper/lower bounds for each species) along the LogEuler
simulate_path with the same increments and one-step map, their drifts in
_field_scalar's operation order so that a tie rounds alike; the bracketing
inequalities then hold exactly at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PositivityViolation
from .model import (ModelParams, _check_h, _check_state, _field_batch,
                    _field_scalar, _horizon)
from .ode_sim import _write_rows
from .qualitative import STATIONARY, Region, stochastic_regime

MILSTEIN = "Milstein"
LOG_EULER = "LogEuler"

EXTINCTION_THRESHOLD = 1e-3
HIST_RANGE = 1.5  # histogram domain [0, 1.5]^2 plus overflow

_CHUNK = 512  # steps of noise drawn at a time by the lockstep kernel


@dataclass(frozen=True)
class NoisePath:
    """Two independent standard-normal increment streams on a uniform grid."""

    seed: int
    h: float
    xi1: np.ndarray
    xi2: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.xi1)


@dataclass(frozen=True)
class SamplePath:
    times: np.ndarray
    states: np.ndarray
    scheme: str
    noise: NoisePath

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 1]


@dataclass(frozen=True)
class ComparisonBundle:
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_upper: np.ndarray
    y_upper: np.ndarray
    x_lower: np.ndarray
    y_lower: np.ndarray


@dataclass(frozen=True)
class EnsembleStats:
    n_paths: int
    checkpoint_times: np.ndarray
    mean: np.ndarray       # (n_checkpoints, 2)
    variance: np.ndarray   # (n_checkpoints, 2)
    extinction_fraction_x: float
    extinction_fraction_y: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray
    hist_overflow: int


@dataclass(frozen=True)
class StationaryReport:
    counts: np.ndarray
    edges: np.ndarray
    overflow: int
    l1_half_vs_half: float
    l1_cross_seed: float
    regime: str
    regime_warning: bool


@dataclass(frozen=True)
class HittingReport:
    times: np.ndarray
    mean: float
    median: float
    fraction_censored: float


def _component_rng(seed: int, component: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(component,))
    return np.random.Generator(np.random.PCG64(ss))


def make_noise(seed: int, h: float, n_steps: int) -> NoisePath:
    """Reproducible increments; the two streams never share draws."""
    _check_h(h)
    if not n_steps >= 0:
        raise ValueError("horizon must be >= 0")
    xi1 = _component_rng(seed, 0).standard_normal(n_steps)
    xi2 = _component_rng(seed, 1).standard_normal(n_steps)
    return NoisePath(seed=seed, h=h, xi1=xi1, xi2=xi2)


def simulate_path(p: ModelParams, init, scheme: str, noise: NoisePath,
                  t_max: float | None = None,
                  shared_noise: bool = False) -> SamplePath:
    """One sample path on the noise grid.

    shared_noise drives the prey diffusion with the predator's increments
    (a published variant of the recursion); the default keeps the two
    Brownian motions independent.  Milstein raises PositivityViolation with
    the step index if a positive component steps to <= 0.
    """
    h = noise.h
    n = _horizon(h, t_max, noise.n_steps)
    x, y = float(init[0]), float(init[1])
    _check_state(x, y)
    a, b, k1, k2, m = p.a, p.b, p.k1, p.k2, p.m
    s1, s2 = p.sigma1, p.sigma2
    sqh = math.sqrt(h)
    xi1 = noise.xi2 if shared_noise else noise.xi1
    xi2 = noise.xi2
    states = np.empty((n + 1, 2))
    states[0] = (x, y)

    if scheme == MILSTEIN:
        c1 = 0.5 * s1 * s1
        c2 = 0.5 * s2 * s2
        for k in range(n):
            v1, v2 = _field_scalar(a, b, k1, k2, m, x, y)
            g1 = xi1[k]
            g2 = xi2[k]
            xn = x + (v1 * h + s1 * x * sqh * g1 + c1 * x * (h * g1 * g1 - h))
            yn = y + (v2 * h + s2 * y * sqh * g2 + c2 * y * (h * g2 * g2 - h))
            if (xn <= 0.0 < x) or (yn <= 0.0 < y):
                raise PositivityViolation(
                    f"positivity lost at step {k + 1}", step_index=k + 1)
            x, y = xn, yn
            states[k + 1] = (x, y)
    elif scheme == LOG_EULER:
        d1 = 0.5 * s1 * s1
        d2 = 0.5 * s2 * s2
        for k in range(n):
            v1, v2 = _field_scalar(a, b, k1, k2, m, x, y)
            if x > 0.0:
                x = x * math.exp((v1 / x - d1) * h + s1 * sqh * xi1[k])
            if y > 0.0:
                y = y * math.exp((v2 / y - d2) * h + s2 * sqh * xi2[k])
            states[k + 1] = (x, y)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    times = np.arange(n + 1) * h
    return SamplePath(times=times, states=states, scheme=scheme, noise=noise)


def explicit_upper_prey(sigma1: float, x0: float, noise: NoisePath,
                        t_max: float | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form stochastic logistic bound for the prey.

    x_up(t) = phi(t) / (1/x0 + int_0^t phi(s) ds) with
    phi(t) = exp((1 - sigma1^2/2) t + sigma1 w1(t)); the integral is
    trapezoidal on the noise grid.
    """
    if not 0 < x0 < math.inf:
        raise ValueError("x0 must be positive and finite")
    if not 0 <= sigma1 < math.inf:
        raise ValueError("sigma1 must be nonnegative and finite")
    h = noise.h
    n = _horizon(h, t_max, noise.n_steps)
    t = np.arange(n + 1) * h
    w = np.concatenate([[0.0], math.sqrt(h) * np.cumsum(noise.xi1[:n])])
    phi = np.exp((1.0 - 0.5 * sigma1 ** 2) * t + sigma1 * w)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * h * (phi[:-1] + phi[1:]))])
    return t, phi / (1.0 / x0 + integral)


def comparison_bundle(p: ModelParams, init, noise: NoisePath,
                      t_max: float | None = None) -> ComparisonBundle:
    """System path plus its four stochastic logistic brackets, one noise.

    x and y are simulate_path with LOG_EULER, and the brackets take the
    same one-step map: the map is increasing in the previous state and in
    the carrying capacity, and the bracket drifts dominate the system
    drifts termwise, so the orderings x_lower <= x <= x_upper and
    y_lower <= y <= y_upper propagate exactly from one grid point to the
    next.  Where x <= m the system's drifts equal x_upper's and y_lower's
    in exact arithmetic, so the brackets are written in _field_scalar's
    operation order to round such a tie alike.

    The start must be strictly positive, unlike simulate_path's: on y = 0
    x_lower ties with x, but 1 - xl - a*yu/k1 rounds unlike x(1-x)/x, and
    from (0.55, 0) x_lower <= x failed by up to 2.2e-16 in 6 of 60 runs.
    """
    x0, y0 = float(init[0]), float(init[1])
    if not (x0 > 0 and y0 > 0):
        raise ValueError("initial state must be strictly positive")
    path = simulate_path(p, (x0, y0), LOG_EULER, noise, t_max)
    n = len(path.times) - 1
    a, b, k1, k2 = p.a, p.b, p.k1, p.k2
    s1, s2 = p.sigma1, p.sigma2
    h = noise.h
    sqh = math.sqrt(h)
    d1 = 0.5 * s1 * s1
    d2 = 0.5 * s2 * s2
    # simulate_path's increments, as Python floats for a fast scalar loop
    incs = zip((s1 * sqh * noise.xi1[:n]).tolist(),
               (s2 * sqh * noise.xi2[:n]).tolist())

    brackets = np.empty((n + 1, 4))  # x_upper, y_upper, x_lower, y_lower
    xu = xl = x0
    yu = yl = y0
    brackets[0] = (xu, yu, xl, yl)
    for k, (e1, e2) in enumerate(incs, 1):
        # x_lower reads the old y_upper, and y_upper the old x_upper
        if xl > 0.0:
            xl = xl * math.exp((1.0 - xl - a * yu / k1 - d1) * h + e1)
        if yu > 0.0:
            yu = yu * math.exp(
                (b * yu * (1.0 - yu / (k2 + xu)) / yu - d2) * h + e2)
        if xu > 0.0:
            xu = xu * math.exp((xu * (1.0 - xu) / xu - d1) * h + e1)
        if yl > 0.0:
            yl = yl * math.exp((b * yl * (1.0 - yl / k2) / yl - d2) * h + e2)
        brackets[k] = (xu, yu, xl, yl)

    return ComparisonBundle(times=path.times, x=path.x, y=path.y,
                            x_upper=brackets[:, 0], y_upper=brackets[:, 1],
                            x_lower=brackets[:, 2], y_lower=brackets[:, 3])


def _lockstep(p: ModelParams, scheme: str, init, n_paths: int, seed0: int,
              h: float, t_end: float):
    """Paths seeded seed0 .. seed0 + n_paths - 1, advanced in lockstep.

    Validates the run up front, then returns an iterator of (step, x, y)
    for step 0 .. round(t_end / h), where x[i], y[i] is the state of path
    i.  Path i draws from the same generators as simulate_path with seed
    seed0 + i.  The state is one (2, n_paths) array, row 0 prey and row 1
    predator, so each operation of an update is one ufunc call for both
    species; x and y are its rows, and every step writes a fresh array, so
    a consumer may keep what it was yielded.  Noise is drawn and scaled
    _CHUNK steps at a time into buffers allocated once, when the consumer
    asks for the first step of a chunk: memory is bounded by the chunk,
    not the horizon, and a consumer that stops early draws no further
    chunk.
    """
    x0, y0 = float(init[0]), float(init[1])
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n = _horizon(h, t_end)
    if scheme not in (MILSTEIN, LOG_EULER):
        raise ValueError(f"unknown scheme {scheme!r}")
    _check_state(x0, y0)

    def states():
        a, b, k1, k2, m = p.a, p.b, p.k1, p.k2, p.m
        sqh = math.sqrt(h)
        scale = (p.sigma1 * sqh, p.sigma2 * sqh)
        d = np.array([[0.5 * p.sigma1 * p.sigma1], [0.5 * p.sigma2 * p.sigma2]])
        gens = [[_component_rng(seed0 + i, c) for i in range(n_paths)]
                for c in (0, 1)]
        chunk = min(_CHUNK, n)
        raw = np.empty((n_paths, chunk))        # one generator per row
        noise = np.empty((chunk, 2, n_paths))   # scaled increments by step
        v = np.empty((2, n_paths))
        work = np.empty((2, n_paths))
        z = np.array([[x0], [y0]]).repeat(n_paths, axis=1)
        yield 0, z[0], z[1]
        for start in range(0, n, _CHUNK):
            span = min(_CHUNK, n - start)
            for c in (0, 1):
                for row, g in zip(raw, gens[c]):
                    g.standard_normal(out=row[:span])
                e = np.multiply(raw[:, :span].T, scale[c], out=noise[:span, c])
                if scheme == MILSTEIN:
                    # a Milstein step is z + v*h + z*(e + (e^2/2 - d*h)):
                    # fold the bracket into the noise once per chunk
                    tmp = raw.reshape(-1)[:e.size].reshape(e.shape)
                    np.multiply(e, e, out=tmp)
                    np.multiply(tmp, 0.5, out=tmp)
                    np.subtract(tmp, d[c, 0] * h, out=tmp)
                    np.add(e, tmp, out=e)
            for j in range(span):
                _field_batch(a, b, k1, k2, m, z[0], z[1], out=v, work=work)
                if scheme == MILSTEIN:
                    zn = np.multiply(z, noise[j])
                    np.add(zn, np.multiply(v, h, out=v), out=zn)
                    np.add(z, zn, out=zn)
                    if zn.min() <= 0.0:
                        bad = ((zn <= 0.0) & (z > 0.0)).any(axis=0)
                        if bad.any():
                            raise PositivityViolation(
                                f"positivity lost on path {int(np.argmax(bad))}")
                else:
                    zero = None if z.all() else z == 0.0
                    # the drift vanishes on an axis, so 0/1 stands in for 0/0
                    np.divide(v, z if zero is None else np.where(zero, 1.0, z),
                              out=v)
                    np.subtract(v, d, out=v)
                    np.multiply(v, h, out=v)
                    np.add(v, noise[j], out=v)
                    zn = np.multiply(np.exp(v, out=v), z)
                    if zero is not None:
                        zn[zero] = 0.0
                z = zn
                yield start + j + 1, z[0], z[1]

    return states()


def _check_burn_in_and_bins(burn_in: float, bins: int) -> None:
    if not burn_in >= 0:
        raise ValueError("burn_in must be >= 0")
    if not bins >= 1:
        raise ValueError("bins must be >= 1")


def _bin2d(x, y, bins: int) -> tuple[np.ndarray, int]:
    """Counts of the points (x, y) on the [0, HIST_RANGE)^2 grid, and how
    many points fall outside it."""
    w = HIST_RANGE / bins
    inside = (x < HIST_RANGE) & (y < HIST_RANGE)
    counts = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(counts, (np.floor(x[inside] / w).astype(int),
                       np.floor(y[inside] / w).astype(int)), 1)
    return counts, int((~inside).sum())


def ensemble(p: ModelParams, init, scheme: str, n_paths: int, seed0: int,
             t_max: float, checkpoints, h: float = 1e-2,
             burn_in: float = 0.0, bins: int = 50,
             hist_thin: int = 100) -> EnsembleStats:
    """Monte Carlo over paths seeded seed0 .. seed0 + n_paths - 1.

    Paths advance in lockstep so moments at each checkpoint are direct
    cross-path reductions; the histogram pools every hist_thin-th
    post-burn-in state of every path.  Noise is drawn per path from the
    same generators a single simulate_path run would use.  Checkpoints
    must lie in [0, t_max] and round to distinct grid steps.
    """
    states = _lockstep(p, scheme, init, n_paths, seed0, h, t_max)
    _check_burn_in_and_bins(burn_in, bins)
    if burn_in > t_max:
        raise ValueError("burn_in must not exceed t_max")
    ck_times = np.asarray(checkpoints, dtype=float)
    if not ((ck_times >= 0.0) & (ck_times <= t_max)).all():
        raise ValueError("checkpoints must lie in [0, t_max]")
    ck_steps = {int(round(t / h)): i for i, t in enumerate(ck_times)}
    if len(ck_steps) < len(ck_times):
        raise ValueError("checkpoints must fall on distinct grid steps")
    burn_step = int(round(burn_in / h))

    mean = np.zeros((len(ck_times), 2))
    var = np.zeros((len(ck_times), 2))
    counts = np.zeros((bins, bins), dtype=np.int64)
    overflow = 0
    for step, x, y in states:
        i = ck_steps.get(step)
        if i is not None:
            mean[i] = x.mean(), y.mean()
            var[i] = x.var(), y.var()
        if step >= burn_step and step % hist_thin == 0:
            c, o = _bin2d(x, y, bins)
            counts += c
            overflow += o
    return EnsembleStats(
        n_paths=n_paths, checkpoint_times=ck_times, mean=mean, variance=var,
        extinction_fraction_x=float((x < EXTINCTION_THRESHOLD).mean()),
        extinction_fraction_y=float((y < EXTINCTION_THRESHOLD).mean()),
        hist_counts=counts, hist_edges=np.linspace(0.0, HIST_RANGE, bins + 1),
        hist_overflow=overflow)


def _l1(c1, c2) -> float:
    p1 = c1 / max(1, c1.sum())
    p2 = c2 / max(1, c2.sum())
    return float(np.abs(p1 - p2).sum())


def stationary_histogram(p: ModelParams, scheme: str, seed: int,
                         burn_in: float, t_max: float, bins: int = 50,
                         h: float = 1e-2, init=(0.55, 0.6),
                         seed2: int | None = None) -> StationaryReport:
    """Empirical long-run distribution from one path, with two diagnostics.

    The first-half vs second-half L1 distance checks that time averages
    have settled; the distance between histograms from two different seeds
    checks that the limit does not depend on the realization.  If the
    parameters are outside the proven stationary regime the computation
    still runs but the report carries a warning flag.
    """
    n = _horizon(h, t_max)
    _check_burn_in_and_bins(burn_in, bins)
    if burn_in >= t_max:
        raise ValueError("burn_in must be smaller than t_max")
    regime = stochastic_regime(p)
    warning = regime.clause != STATIONARY

    def tail_states(s):
        noise = make_noise(s, h, n)
        path = simulate_path(p, init, scheme, noise)
        return path.states[int(round(burn_in / h)):]

    tail = tail_states(seed)
    half = len(tail) // 2
    c_a, o_a = _bin2d(*tail[:half].T, bins)
    c_b, o_b = _bin2d(*tail[half:].T, bins)
    counts, overflow = c_a + c_b, o_a + o_b
    tail2 = tail_states(seed + 1 if seed2 is None else seed2)
    c_other, _ = _bin2d(*tail2.T, bins)

    edges = np.linspace(0.0, HIST_RANGE, bins + 1)
    return StationaryReport(counts=counts, edges=edges, overflow=overflow,
                            l1_half_vs_half=_l1(c_a, c_b),
                            l1_cross_seed=_l1(counts, c_other),
                            regime=regime.clause, regime_warning=warning)


def hitting_time(p: ModelParams, scheme: str, init, target: Region,
                 n_paths: int, seed0: int, t_cap: float,
                 h: float = 1e-2) -> HittingReport:
    """First grid time each path enters the target rectangle.

    Paths that never enter before t_cap contribute t_cap (censored).
    """
    states = _lockstep(p, scheme, init, n_paths, seed0, h, t_cap)
    hit = np.full(n_paths, np.nan)
    for step, x, y in states:
        hit[target.contains(x, y) & np.isnan(hit)] = step * h
        if not np.isnan(hit).any():
            break

    censored = np.isnan(hit)
    times = np.where(censored, t_cap, hit)
    return HittingReport(times=times, mean=float(times.mean()),
                         median=float(np.median(times)),
                         fraction_censored=float(censored.mean()))


def write_path_csv(bundle_or_path, fileobj) -> None:
    """CSV with `t,x,y` and, for bundles, the four comparison columns."""
    if isinstance(bundle_or_path, ComparisonBundle):
        b = bundle_or_path
        _write_rows(fileobj, "t,x,y,x_upper,y_upper,x_lower,y_lower",
                    (b.times, b.x, b.y, b.x_upper, b.y_upper,
                     b.x_lower, b.y_lower))
    else:
        path = bundle_or_path
        _write_rows(fileobj, "t,x,y", (path.times, path.x, path.y))
