"""Stochastic simulation with multiplicative noise on both species.

Two one-step schemes are provided.  Milstein adds the Ito correction
(1/2)*sigma^2*x*(h*xi^2 - h) to Euler-Maruyama and reduces to the plain
Euler recursion bit-for-bit when the noise is off, but can step through
zero; a step whose factor is positive and still lands at or below zero
underflowed, and the component becomes +0.0.  LogEuler discretizes the
exact-diffusion log coordinates and is strictly positivity-preserving, so
it is the default for long horizons.

ensemble is one loop over the steps of all its paths at once: it reduces
each step's state, draws a chunk of noise at each chunk edge, then takes
one lockstep step.

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

from .errors import NonFinite, PositivityViolation
from .model import (ModelParams, _check_burn_in, _check_counts, _check_h,
                    _check_run, _field_scalar, _horizon)
from .ode_sim import (_CHUNK, _ONE, Trajectory, _const, _field_batch,
                      _write_rows)
from .qualitative import STATIONARY, Region, stochastic_regime

MILSTEIN = "Milstein"
LOG_EULER = "LogEuler"
_SCHEMES = (MILSTEIN, LOG_EULER)

EXTINCTION_THRESHOLD = 1e-3
HIST_RANGE = 1.5  # histogram domain [0, 1.5]^2 plus overflow


@dataclass(frozen=True)
class NoisePath:
    """Two independent standard-normal increment streams on a uniform grid.

    xi1 and xi2 must be finite 1-D numpy arrays of one length
    (ValueError), so that every step of a path has one increment for each
    species.  h is checked by the functions that read it.
    """

    seed: int
    h: float
    xi1: np.ndarray
    xi2: np.ndarray

    def __post_init__(self):
        if not all(isinstance(xi, np.ndarray) and xi.ndim == 1
                   for xi in (self.xi1, self.xi2)):
            raise ValueError("xi1 and xi2 must be 1-D numpy arrays")
        if len(self.xi1) != len(self.xi2):
            raise ValueError("xi1 and xi2 must have the same length")
        if not (np.isfinite(self.xi1).all() and np.isfinite(self.xi2).all()):
            raise ValueError("xi1 and xi2 must be finite")

    @property
    def n_steps(self) -> int:
        return len(self.xi1)


SamplePath = Trajectory


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
    hist_overflow: int


@dataclass(frozen=True)
class StationaryReport:
    counts: np.ndarray
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
    _check_counts(least=0, seed=seed)
    _check_counts(n_steps=n_steps)
    _check_h(h)
    if not n_steps >= 0:
        raise ValueError("horizon must be >= 0")
    xi1 = _component_rng(seed, 0).standard_normal(n_steps)
    xi2 = _component_rng(seed, 1).standard_normal(n_steps)
    return NoisePath(seed=seed, h=h, xi1=xi1, xi2=xi2)


def simulate_path(p: ModelParams, init, scheme: str, noise: NoisePath,
                  t_max: float | None = None,
                  shared_noise: bool = False) -> Trajectory:
    """One sample path on the noise grid, a Trajectory with h = noise.h.

    shared_noise drives the prey diffusion with the predator's increments
    (a published variant of the recursion); the default keeps the two
    Brownian motions independent.  Milstein raises PositivityViolation with
    the step index if a positive component steps across zero; one whose
    step factor is positive but underflows to <= 0 lands on +0.0.
    """
    h = noise.h
    x, y, n = _check_run(scheme, _SCHEMES, init, h, t_max, noise.n_steps)
    states = np.empty((n + 1, 2))
    for k, xs, ys in _chunks(p, scheme, x, y, h,
                             _sliced(noise, n, shared_noise)):
        states[k:k + len(xs), 0] = xs
        states[k:k + len(xs), 1] = ys
    times = np.arange(n + 1) * h
    return Trajectory(times=times, states=states, scheme=scheme, h=h)


def _sliced(noise: NoisePath, n: int, shared_noise: bool = False):
    """The first n increments of noise as _chunks takes them, _CHUNK steps
    at a time; under shared_noise xi2 drives both species."""
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        g2s = noise.xi2[lo:hi].tolist()
        yield (g2s if shared_noise else noise.xi1[lo:hi].tolist()), g2s


def _drawn(seed: int, n: int):
    """make_noise(seed, h, n)'s increments as _chunks takes them, drawn
    _CHUNK steps at a time, so only one chunk of them is ever held."""
    gen1, gen2 = _component_rng(seed, 0), _component_rng(seed, 1)
    for lo in range(0, n, _CHUNK):
        span = min(_CHUNK, n - lo)
        yield (gen1.standard_normal(span).tolist(),
               gen2.standard_normal(span).tolist())


def _chunks(p: ModelParams, scheme: str, x: float, y: float, h: float,
            increments):
    """simulate_path's steps from (x, y), one chunk at a time.

    increments yields, per chunk, a pair of lists of standard-normal
    increments for the prey and the predator, as Python floats: numpy
    scalars would make every operation of every step a numpy call.  Yields
    (k, xs, ys), xs and ys arrays of the states at steps k, k + 1, ...:
    first the start alone, then each chunk's new states.  Under Milstein,
    a step that takes a positive component across zero ends the path: the
    states before it are yielded, then PositivityViolation names the step.
    A step whose state overflows ends it the same way with NonFinite,
    found at the end of its chunk, never per step.
    The callers check the scheme, with model._check_run: any scheme other
    than MILSTEIN steps as LOG_EULER here.
    """
    milstein = scheme == MILSTEIN
    a, b, k1, k2, m = p.a, p.b, p.k1, p.k2, p.m
    s1, s2 = p.sigma1, p.sigma2
    sqh = math.sqrt(h)
    c1 = 0.5 * s1 * s1
    c2 = 0.5 * s2 * s2
    yield 0, np.array([x]), np.array([y])
    k = 1
    for g1s, g2s in increments:
        xs, ys = [], []
        lost = None
        try:
            for g1, g2 in zip(g1s, g2s):
                v1, v2 = _field_scalar(a, b, k1, k2, m, x, y)
                if milstein:
                    xn = x + (v1 * h + s1 * x * sqh * g1
                              + c1 * x * (h * g1 * g1 - h))
                    yn = y + (v2 * h + s2 * y * sqh * g2
                              + c2 * y * (h * g2 * g2 - h))
                    if (xn <= 0.0 < x) or (yn <= 0.0 < y):
                        # a component whose step factor, 1 + (v/z)h + s sqh g
                        # + c(hg^2 - h), is positive underflowed rather than
                        # crossed zero: it lands on +0.0
                        fx = (1.0 + v1 / x * h + s1 * sqh * g1
                              + c1 * (h * g1 * g1 - h)
                              if xn <= 0.0 < x else 1.0)
                        fy = (1.0 + v2 / y * h + s2 * sqh * g2
                              + c2 * (h * g2 * g2 - h)
                              if yn <= 0.0 < y else 1.0)
                        if fx <= 0.0 or fy <= 0.0:
                            lost = k + len(xs)
                            break
                        xn, yn = max(0.0, xn), max(0.0, yn)
                    x, y = xn, yn
                else:
                    if x > 0.0:
                        x = x * math.exp((v1 / x - c1) * h + s1 * sqh * g1)
                    if y > 0.0:
                        y = y * math.exp((v2 / y - c2) * h + s2 * sqh * g2)
                xs.append(x)
                ys.append(y)
        except OverflowError:  # math.exp overflowed on this step
            xs.append(math.inf)
            ys.append(math.inf)
        if xs and not (math.isfinite(xs[-1]) and math.isfinite(ys[-1])):
            # a non-finite component stays so (inf steps to NaN, NaN to
            # NaN), so the last state shows it, also before a loss that it
            # caused
            bad = int((np.isfinite(xs) & np.isfinite(ys)).argmin())
            yield k, np.array(xs[:bad]), np.array(ys[:bad])
            raise NonFinite(f"non-finite state at step {k + bad}")
        yield k, np.array(xs), np.array(ys)
        if lost is not None:
            raise PositivityViolation(f"positivity lost at step {lost}",
                                      step_index=lost)
        k += len(xs)


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
    try:
        rate = 1.0 - 0.5 * sigma1 ** 2
    except OverflowError:
        raise ValueError(
            f"sigma1 ** 2 is not finite: sigma1={sigma1}") from None
    h = noise.h
    n = _horizon(h, t_max, noise.n_steps)
    t = np.arange(n + 1) * h
    w = np.concatenate([[0.0], math.sqrt(h) * np.cumsum(noise.xi1[:n])])
    phi = np.exp(rate * t + sigma1 * w)
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
    operation order to round such a tie alike.  While y_upper is 0 (so
    are y and y_lower), 1 - xl - a*yu/k1 rounds unlike the system's
    x(1-x)/x, so x_lower takes x_upper's drift: x, x_upper and x_lower
    then follow one recursion.  The start is simulate_path's to check; a
    bracket that overflows raises NonFinite naming the step.
    """
    path = simulate_path(p, init, LOG_EULER, noise, t_max)
    n = len(path.times) - 1
    x0, y0 = path.states[0].tolist()
    a, b, k1, k2 = p.a, p.b, p.k1, p.k2
    s1, s2 = p.sigma1, p.sigma2
    h = noise.h
    sqh = math.sqrt(h)
    d1 = 0.5 * s1 * s1
    d2 = 0.5 * s2 * s2
    e1s, e2s = s1 * sqh, s2 * sqh  # simulate_path's noise terms per unit

    xu = xl = x0
    yu = yl = y0
    brackets = np.empty((n + 1, 4))  # x_upper, y_upper, x_lower, y_lower
    brackets[0] = xu, yu, xl, yl
    k = 1
    for g1s, g2s in _sliced(noise, n):
        rows = []
        try:
            for g1, g2 in zip(g1s, g2s):
                e1, e2 = e1s * g1, e2s * g2
                # x_lower reads the old y_upper, and y_upper the old x_upper
                if xl > 0.0:
                    v = 1.0 - xl - a * yu / k1 if yu else xl * (1.0 - xl) / xl
                    xl = xl * math.exp((v - d1) * h + e1)
                if yu > 0.0:
                    yu = yu * math.exp(
                        (b * yu * (1.0 - yu / (k2 + xu)) / yu - d2) * h + e2)
                if xu > 0.0:
                    xu = xu * math.exp((xu * (1.0 - xu) / xu - d1) * h + e1)
                if yl > 0.0:
                    yl = yl * math.exp(
                        (b * yl * (1.0 - yl / k2) / yl - d2) * h + e2)
                rows.append((xu, yu, xl, yl))
        except OverflowError:  # math.exp overflowed on this step
            rows.append((math.inf,) * 4)
        if not all(map(math.isfinite, rows[-1])):  # as in _chunks
            bad = int(np.isfinite(rows).all(axis=1).argmin())
            raise NonFinite(f"non-finite bracket at step {k + bad}")
        brackets[k:k + len(rows)] = rows
        k += len(rows)
    return ComparisonBundle(times=path.times, x=path.x, y=path.y,
                            x_upper=brackets[:, 0], y_upper=brackets[:, 1],
                            x_lower=brackets[:, 2], y_lower=brackets[:, 3])


def _bin2d(x, y, bins: int) -> tuple[np.ndarray, int]:
    """Counts of the points (x, y) on the [0, HIST_RANGE)^2 grid, and how
    many points fall outside it.  A coordinate just below HIST_RANGE whose
    quotient rounds up to bins goes in the last bin."""
    w = HIST_RANGE / bins
    inside = (x < HIST_RANGE) & (y < HIST_RANGE)
    counts = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(counts, tuple(np.minimum(np.floor(v[inside] / w).astype(int),
                                       bins - 1) for v in (x, y)), 1)
    return counts, int((~inside).sum())


@np.errstate(over="ignore", invalid="ignore")  # checked at chunk edges
def ensemble(p: ModelParams, init, scheme: str, n_paths: int, seed0: int,
             t_max: float, checkpoints, h: float = 1e-2,
             burn_in: float = 0.0, bins: int = 50) -> EnsembleStats:
    """Monte Carlo over paths seeded seed0 .. seed0 + n_paths - 1.

    Paths advance in lockstep, path i on the generators of simulate_path
    with seed seed0 + i, and each step's state is reduced as it comes:
    moments at each checkpoint are direct cross-path reductions, the
    histogram pools every path's states at the multiples of 100 steps from
    the burn-in on (a burn_in that leaves none is refused), and the
    extinction fractions are read off the last state.  Noise is drawn
    _CHUNK steps at a time into buffers allocated once, so memory is
    bounded by the chunk, not the horizon.  Checkpoints must be distinct
    grid times in [0, t_max]: a checkpoint t is refused unless t/h lies
    within a relative 1e-9 of an integer, so no moments are reported under
    a time they were not taken at.  Milstein raises PositivityViolation
    naming the first path whose positive component steps across zero; a
    component that underflows lands on +0.0, as in simulate_path.  A
    state that overflows raises NonFinite naming the first such path,
    found at the next chunk edge or after the last step.
    """
    _check_counts(least=1, n_paths=n_paths, bins=bins)
    _check_counts(least=0, seed0=seed0)
    x0, y0, n = _check_run(scheme, _SCHEMES, init, h, t_max)
    _check_burn_in(burn_in)
    if burn_in > t_max:
        raise ValueError("burn_in must not exceed t_max")
    burn_step = int(round(burn_in / h))
    if -(-burn_step // 100) * 100 > n:
        raise ValueError("burn_in leaves no state to bin: the histogram "
                         "takes every 100th grid step")
    ck_times = np.asarray(checkpoints, dtype=float)
    if not ((ck_times >= 0.0) & (ck_times <= t_max)).all():
        raise ValueError("checkpoints must lie in [0, t_max]")
    ck_steps = {}
    for i, t in enumerate(ck_times.tolist()):
        if abs(t / h - round(t / h)) > 1e-9 * (t / h):
            raise ValueError(f"checkpoint {t} is not a grid time of h = {h}")
        ck_steps[round(t / h)] = i
    if len(ck_steps) < len(ck_times):
        raise ValueError("checkpoints must fall on distinct grid steps")

    mean = np.zeros((len(ck_times), 2))
    var = np.zeros((len(ck_times), 2))
    counts = np.zeros((bins, bins), dtype=np.int64)
    overflow = 0
    # 0-d operands: a ufunc call with a Python float pays a conversion
    params = [_const(v) for v in (p.a, p.b, p.k1, p.k2, p.m)]
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
    vr, wr = (v[0], v[1]), (work[0], work[1])  # rows indexed once
    h = _const(h)
    z = np.array([[x0], [y0]]).repeat(n_paths, axis=1)  # prey, predator
    for step in range(n + 1):
        j = step % _CHUNK
        if (j == 0 or step == n) and not np.isfinite(z).all():
            # a non-finite state stays so (and a NaN makes zn.min() NaN,
            # so no Milstein loss is raised for it): a chunk edge finds it
            bad = ~np.isfinite(z).all(axis=0)
            raise NonFinite(f"non-finite state on path {int(np.argmax(bad))}")
        i = ck_steps.get(step)
        if i is not None:
            x, y = z
            mean[i] = x.mean(), y.mean()
            var[i] = x.var(), y.var()
        if step >= burn_step and step % 100 == 0:
            binned, out = _bin2d(*z, bins)
            counts += binned
            overflow += out
        if step == n:
            break
        if j == 0:
            span = min(_CHUNK, n - step)
            for c in (0, 1):
                for row, g in zip(raw, gens[c]):
                    g.standard_normal(out=row[:span])
                e = np.multiply(raw[:, :span].T, scale[c],
                                out=noise[:span, c])
                if scheme == MILSTEIN:
                    # a Milstein step is z + v*h + z*(e + (e^2/2 - d*h)):
                    # fold the bracket into the noise once per chunk
                    tmp = raw.reshape(-1)[:e.size].reshape(e.shape)
                    np.multiply(e, e, out=tmp)
                    np.multiply(tmp, 0.5, out=tmp)
                    np.subtract(tmp, d[c, 0] * h, out=tmp)
                    np.add(e, tmp, out=e)
        _field_batch(*params, z[0], z[1], out=vr, work=wr)
        if scheme == MILSTEIN:
            zn = np.multiply(z, noise[j])
            np.add(zn, np.multiply(v, h, out=v), out=zn)
            np.add(z, zn, out=zn)
            if zn.min() <= 0.0:
                lost = (zn <= 0.0) & (z > 0.0)
                # as in _chunks, a positive factor 1 + v*h/z + noise marks
                # an underflow, which lands on +0.0, not a crossing
                crossed = lost.copy()
                crossed[lost] = 1.0 + v[lost] / z[lost] + noise[j][lost] <= 0.0
                bad = crossed.any(axis=0)
                if bad.any():
                    raise PositivityViolation(
                        f"positivity lost on path {int(np.argmax(bad))}")
                zn[lost] = 0.0
        else:
            zero = None if z.all() else z == 0.0
            # the drift vanishes on an axis, so 0/1 stands in for 0/0
            np.divide(v, z if zero is None else np.where(zero, _ONE, z),
                      out=v)
            np.subtract(v, d, out=v)
            np.multiply(v, h, out=v)
            np.add(v, noise[j], out=v)
            zn = np.multiply(np.exp(v, out=v), z)
            if zero is not None:
                zn[zero] = 0.0
        z = zn
    extinct = (z < EXTINCTION_THRESHOLD).mean(axis=1)  # at t_max
    return EnsembleStats(
        n_paths=n_paths, checkpoint_times=ck_times, mean=mean, variance=var,
        extinction_fraction_x=float(extinct[0]),
        extinction_fraction_y=float(extinct[1]),
        hist_counts=counts, hist_overflow=overflow)


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
    still runs but the report carries a warning flag.  seed2 (default
    seed + 1) must differ from seed.  Each path is simulate_path's, drawn,
    stepped and binned _CHUNK steps at a time as hitting_time's are, so
    memory is bounded by the chunk, not the horizon; under Milstein a loss
    of positivity raises simulate_path's PositivityViolation.
    """
    _check_counts(least=1, bins=bins)
    _check_counts(least=0, seed=seed)
    seed2 = seed + 1 if seed2 is None else seed2
    _check_counts(least=0, seed2=seed2)
    x0, y0, n = _check_run(scheme, _SCHEMES, init, h, t_max)
    _check_burn_in(burn_in)
    # in grid steps, so that a tail holds a state past the burn-in; the
    # first test keeps burn_in / h finite
    if not (burn_in < t_max and round(burn_in / h) < n):
        raise ValueError("burn_in must be smaller than t_max")
    if seed2 == seed:
        raise ValueError("seed2 must differ from seed")
    regime = stochastic_regime(p)
    warning = regime.clause != STATIONARY

    first = int(round(burn_in / h))
    split = first + (n + 1 - first) // 2
    # [counts, overflow] of the first half, the second half and the other
    # seed's tail, each over the steps [lo, hi) between two of its edges
    hists = []
    for s, edges in ((seed, (first, split, n + 1)), (seed2, (first, n + 1))):
        parts = [[np.zeros((bins, bins), dtype=np.int64), 0]
                 for _ in edges[1:]]
        for k, xs, ys in _chunks(p, scheme, x0, y0, h, _drawn(s, n)):
            for part, lo, hi in zip(parts, edges, edges[1:]):
                lo, hi = max(lo - k, 0), min(hi - k, len(xs))
                if lo < hi:
                    binned, out = _bin2d(xs[lo:hi], ys[lo:hi], bins)
                    part[0] += binned
                    part[1] += out
        hists += parts
    (c_a, o_a), (c_b, o_b), (c_other, _) = hists
    counts, overflow = c_a + c_b, o_a + o_b

    return StationaryReport(counts=counts, overflow=overflow,
                            l1_half_vs_half=_l1(c_a, c_b),
                            l1_cross_seed=_l1(counts, c_other),
                            regime=regime.clause, regime_warning=warning)


def hitting_time(p: ModelParams, scheme: str, init, target: Region,
                 n_paths: int, seed0: int, t_cap: float,
                 h: float = 1e-2) -> HittingReport:
    """First grid time each path enters the target rectangle.

    The grid times watched are those at or before t_cap: floor(t_cap / h)
    steps, with a relative slack of 1e-12 for the rounding of t_cap / h,
    so no path reports an entry after t_cap.  Paths that never enter by then
    contribute t_cap (censored).  Path i is seeded seed0 + i and runs on
    its own: _chunks steps it with simulate_path's update _CHUNK steps at a
    time, on its own draws, until it enters the target or reaches the
    last step, so its hit time is exactly the first entry of
    simulate_path with seed seed0 + i, whatever the width.
    Under Milstein, a path raises PositivityViolation only if it loses
    positivity before it enters; the error names the path that loses it at
    the earliest step (the lowest index on a tie).  The first path whose
    state overflows before it enters raises NonFinite, naming the path.
    """
    _check_counts(least=1, n_paths=n_paths)
    _check_counts(least=0, seed0=seed0)
    x0, y0, _ = _check_run(scheme, _SCHEMES, init, h, t_cap)
    n = math.floor(t_cap / h * (1 + 1e-12))
    entries = []  # each path's entry step, None if it never enters
    lost = []  # (Milstein step lost, path) of each path lost before entry
    for i in range(n_paths):
        entry = None
        try:
            for k, xs, ys in _chunks(p, scheme, x0, y0, h,
                                     _drawn(seed0 + i, n)):
                inside = target.contains(xs, ys)
                if inside.any():
                    entry = k + int(inside.argmax())
                    break
        except PositivityViolation as exc:
            lost.append((exc.step_index, i))
        except NonFinite:
            raise NonFinite(f"non-finite state on path {i}") from None
        entries.append(entry)
    if lost:  # the earliest loss, the lowest path on a tie
        raise PositivityViolation(f"positivity lost on path {min(lost)[1]}")
    hit = np.array([math.nan if step is None else step * h
                    for step in entries])

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
