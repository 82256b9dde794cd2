"""Deterministic integration: forward Euler, classical RK4, cycle detection.

Both schemes step in one loop in which only the increment differs.  The
Euler increment is a plain recursion, so that step k+1 depends on step k
through exactly one multiply-add per term — this makes the scheme
reproducible bit-for-bit and lets the noise-free stochastic scheme collapse
onto it.  RK4 is the workhorse for analysis.  A vectorized batch integrator
runs many (parameter, initial state) pairs in lockstep for the statistical
checks in the test suite.

This is the first layer that needs numpy, so the array forms of the model
live here: the batch vector field and the Jacobian matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Inconclusive, KinkPoint, NonFinite, StepTooLarge, TooShort
from .model import (ModelParams, _check_burn_in, _check_counts, _check_h,
                    _check_state, _field_scalar, _horizon, _partials)

EULER = "Euler"
RK4 = "RK4"

_UNDERSHOOT = 1e-12
_CSV_BLOCK = 4096  # rows formatted per write
_RETIRE_EVERY = 1024  # integrate_batch steps between checks for frozen systems


def _const(v) -> np.ndarray:
    """v as a 0-d float64 array: as a ufunc operand it gives the bits the
    Python float gives, and a call in a loop skips converting that float
    each time.  (An np.float64 scalar is no faster than the float.)"""
    return np.array(v, dtype=float)


_ZERO, _ONE, _TWO = _const(0.0), _const(1.0), _const(2.0)


def _field_batch(a, b, k1, k2, m, x, y, out, work):
    """Array evaluation of the vector field; every argument broadcasts.

    out = (v1, v2) and work are pairs of arrays of the broadcast shape that
    receive the result and the intermediates, so a caller in a loop
    allocates nothing.  A (2, n) array serves as either pair.  Its rows are
    indexed, not unpacked: unpacking an array builds an iterator and costs
    several times as much as indexing its two rows (0.79 against 0.17 us on
    a 2-vCPU Xeon VM), and the lockstep kernels call this once per SDE step
    and four times per RK4 step.  The operation order is that of
    _field_scalar.
    """
    o1, o2, w1, w2 = out[0], out[1], work[0], work[1]
    u = np.maximum(np.subtract(x, m, out=w1), _ZERO, out=w1)
    v1 = np.multiply(np.multiply(a, y, out=o1), u, out=o1)
    v1 = np.divide(v1, np.add(k1, u, out=w2), out=o1)
    v1 = np.subtract(np.multiply(x, np.subtract(_ONE, x, out=w2), out=w2), v1,
                     out=o1)
    v2 = np.subtract(_ONE, np.divide(y, np.add(k2, u, out=w2), out=w2), out=w2)
    v2 = np.multiply(np.multiply(b, y, out=o2), v2, out=o2)
    return v1, v2


def jacobian(p: ModelParams, state) -> np.ndarray:
    """2x2 Jacobian of the vector field at a state off the refuge line.

    Raises KinkPoint when m > 0 and x == m exactly: the field has a kink
    there and one-sided derivatives must be queried at m +- eps instead.
    Right of the line it reads model._partials; left of it predation is
    off and the field is x(1-x), b*y*(1 - y/k2).  The state must be a
    finite point of the closed quadrant.
    """
    x, y = state
    _check_state(x, y)
    if p.m > 0 and x == p.m:
        raise KinkPoint(f"jacobian is undefined on the line x = m = {p.m}")
    if x < p.m:
        return np.array([[1.0 - 2.0 * x, 0.0],
                         [0.0, p.b - 2.0 * p.b * y / p.k2]])
    d1, d2 = _partials(p, x, y, p.b)
    return np.array([[d1[1, 0], d1[0, 1]], [d2[1, 0], d2[0, 1]]])


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (n+1, 2)
    scheme: str
    h: float

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 1]


@dataclass(frozen=True)
class CycleReport:
    found: bool
    period: float | None = None
    amplitude_x: float | None = None
    amplitude_y: float | None = None
    crossings: tuple = ()
    stable: bool | None = None

    def to_dict(self) -> dict:
        return {"found": self.found, "period": self.period,
                "amplitude_x": self.amplitude_x,
                "amplitude_y": self.amplitude_y,
                "n_crossings": len(self.crossings), "stable": self.stable}


@dataclass(frozen=True)
class LongRunBounds:
    liminf_x: float
    limsup_x: float
    liminf_y: float
    limsup_y: float


def _settle(x: float, y: float, k: int) -> tuple[float, float]:
    """integrate's domain rule for a state (x, y) after step k outside the
    finite closed quadrant: NonFinite if a coordinate is not finite, else
    StepTooLarge for an undershoot beyond round-off, else undershoots
    within round-off become 0.0 (a -0.0 stays)."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NonFinite(f"non-finite state at step {k}")
    if min(x, y) < -_UNDERSHOOT:
        raise StepTooLarge(f"state left the closed quadrant at step {k}",
                           step_index=k)
    return max(x, 0.0), max(y, 0.0)


def _clamp_rows(z: np.ndarray, k: int, rows: np.ndarray) -> None:
    """integrate's rule for a (2, n) batch state after step k, in place: the
    first system integrate would stop on raises NonFinite or StepTooLarge,
    naming it by its index in rows, else undershoots within round-off
    become 0.0 (a -0.0 stays)."""
    finite = np.isfinite(z).all(axis=0)
    bad = ~finite | (z < -_UNDERSHOOT).any(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            raise NonFinite(f"non-finite state at step {k} "
                            f"in system {rows[i]}")
        raise StepTooLarge(f"state left the closed quadrant at step {k} "
                           f"in system {rows[i]}", step_index=k)
    z[z < 0.0] = 0.0


def integrate(p: ModelParams, init, scheme: str = RK4, h: float = 1e-3,
              t_max: float = 100.0) -> Trajectory:
    """Integrate from init over [0, t_max] with fixed step h.

    It takes round(t_max / h) steps, so t_max < h/2 gives init alone.
    States are clamped to the closed quadrant when a step undershoots zero
    by at most 1e-12; a larger undershoot raises StepTooLarge with the step
    index.  Non-finite states raise NonFinite.
    """
    n = _horizon(h, t_max)
    x, y = float(init[0]), float(init[1])
    _check_state(x, y)
    if scheme not in (EULER, RK4):
        raise ValueError(f"unknown scheme {scheme!r}")
    rk4 = scheme == RK4
    a, b, k1, k2, m = p.a, p.b, p.k1, p.k2, p.m
    h2, h6, inf = 0.5 * h, h / 6.0, math.inf
    xs, ys = [x], [y]
    for k in range(1, n + 1):
        v1, v2 = _field_scalar(a, b, k1, k2, m, x, y)
        if rk4:
            a2, b2 = _field_scalar(a, b, k1, k2, m, x + h2 * v1, y + h2 * v2)
            a3, b3 = _field_scalar(a, b, k1, k2, m, x + h2 * a2, y + h2 * b2)
            a4, b4 = _field_scalar(a, b, k1, k2, m, x + h * a3, y + h * b3)
            x = x + h6 * (v1 + 2.0 * (a2 + a3) + a4)
            y = y + h6 * (v2 + 2.0 * (b2 + b3) + b4)
        else:
            x = x + v1 * h
            y = y + v2 * h
        if not (0.0 <= x < inf and 0.0 <= y < inf):
            x, y = _settle(x, y, k)
        xs.append(x)
        ys.append(y)

    states = np.column_stack([xs, ys])
    times = np.arange(n + 1) * h
    return Trajectory(times=times, states=states, scheme=scheme, h=h)


def integrate_batch(a, b, k1, k2, m, init, h: float, n_steps: int,
                    tail_start: int = 0):
    """RK4 for many systems in lockstep; returns final states and tail bounds.

    init is an (n, 2) array of starts with n >= 1, stepped as one (2, n)
    state; each parameter argument is a scalar or holds one value per
    system.  Only running min/max over steps >= tail_start are kept (plus
    the final state), so memory stays flat no matter how long the run is.
    Each step applies integrate's domain rule to every system (see
    _clamp_rows); a +inf that never turns negative or NaN is caught after
    the last step.  Inputs are checked before the first step, with the
    errors integrate and ModelParams raise; a parameter of another shape
    raises ValueError naming it.

    Every _RETIRE_EVERY steps, the systems whose last step returned the
    finite state it started from, bit for bit, are retired: a system's step
    depends only on its own state and parameters, so each later step would
    return that state again.  Their results are stored and the rest step
    on, compacted; results do not change.
    """
    _check_counts(n_steps=n_steps, tail_start=tail_start)
    _check_h(h)
    if not 0 <= tail_start <= n_steps:
        raise ValueError("need 0 <= tail_start <= n_steps")
    for extreme in (np.min, np.max):  # every system passes if these do
        ModelParams(*(float(extreme(v)) for v in (a, b, k1, k2, m)))
    init = np.asarray(init, dtype=float)
    if init.ndim != 2 or init.shape[1] != 2 or len(init) < 1:
        raise ValueError("init must be an (n, 2) array with n >= 1")
    for name, v in zip(("a", "b", "k1", "k2", "m"), (a, b, k1, k2, m)):
        if np.ndim(v) > 1 or np.size(v) not in (1, len(init)):
            raise ValueError(f"{name} must be a scalar or hold one value "
                             f"per system, shape ({len(init)},)")
    z = init.T.copy()  # C order: one row per species
    # every start passes integrate's check if the extremes do: a NaN makes
    # the min NaN, and without one the max is finite if every start is
    _check_state(float(z.min()), float(z.max()))
    # a parameter shared by all systems is 0-d, one per system is compacted
    params = [_const(v).reshape(()) if np.size(v) == 1 else _const(v)
              for v in (a, b, k1, k2, m)]
    h, h2, h6 = _const(h), _const(0.5 * h), _const(h / 6.0)
    final, lo_out, hi_out = (np.empty_like(z) for _ in range(3))
    rows = np.arange(z.shape[1])  # original index of each stepped system
    lo = np.full_like(z, np.inf)
    hi = np.full_like(z, -np.inf)
    if tail_start == 0:
        np.minimum(lo, z, out=lo); np.maximum(hi, z, out=hi)

    def store(sel):
        # the tail bounds take in the final state, which a system retired
        # before tail_start holds over the whole tail
        zs, at = z[:, sel], rows[sel]
        final[:, at] = zs
        lo_out[:, at] = np.minimum(lo[:, sel], zs)
        hi_out[:, at] = np.maximum(hi[:, sel], zs)

    def buffers():
        # RK4's stage buffers f1..f4 and s, then the rows of z, of each of
        # them and of a work array, each indexed once
        bufs = [np.empty_like(z) for _ in range(6)]
        return (*bufs[:5], *((v[0], v[1]) for v in (z, *bufs)))

    f1, f2, f3, f4, s, zr, fr1, fr2, fr3, fr4, sr, wr = buffers()
    for k in range(1, n_steps + 1):
        start = z.copy() if k % _RETIRE_EVERY == 0 else None
        _field_batch(*params, *zr, out=fr1, work=wr)
        np.add(z, np.multiply(h2, f1, out=s), out=s)
        _field_batch(*params, *sr, out=fr2, work=wr)
        np.add(z, np.multiply(h2, f2, out=s), out=s)
        _field_batch(*params, *sr, out=fr3, work=wr)
        np.add(z, np.multiply(h, f3, out=s), out=s)
        _field_batch(*params, *sr, out=fr4, work=wr)
        # z + h6*((f1 + 2*(f2 + f3)) + f4), integrate's order
        np.multiply(_TWO, np.add(f2, f3, out=s), out=s)
        np.add(np.add(f1, s, out=s), f4, out=s)
        np.add(z, np.multiply(h6, s, out=s), out=z)
        if not z.min() >= 0.0:  # also catches NaN
            _clamp_rows(z, k, rows)
        if k >= tail_start:
            np.minimum(lo, z, out=lo); np.maximum(hi, z, out=hi)
        if start is None:
            continue
        frozen = ((z.view(np.int64) == start.view(np.int64)).all(axis=0)
                  & np.isfinite(z).all(axis=0))
        if frozen.any():
            store(frozen)
            keep = ~frozen
            rows = rows[keep]
            z, lo, hi = (np.compress(keep, v, axis=1) for v in (z, lo, hi))
            if not len(rows):
                break
            params = [v[keep] if v.ndim else v for v in params]
            f1, f2, f3, f4, s, zr, fr1, fr2, fr3, fr4, sr, wr = buffers()
    if not np.isfinite(z).all():
        raise NonFinite("non-finite state in batch integration")
    store(slice(None))
    return final.T.copy(), (lo_out[0], hi_out[0], lo_out[1], hi_out[1])


def detect_limit_cycle(p: ModelParams, traj: Trajectory,
                       t_burn: float = 200.0) -> CycleReport:
    """Look for a periodic orbit via returns to the section y = k2 + x - m.

    traj is integrated with p, usually by RK4.  The section is the
    predator isocline, crossed in the direction of increasing x; any
    closed orbit in the attracting region must cut it.  A cycle is
    reported when at least 5 consecutive returns after t_burn agree on the
    period within 1% and the x peak-to-peak extent exceeds 1e-4; stability
    comes from the trend of log-gaps between successive return points.
    """
    _check_burn_in(t_burn)
    x, y, t, h = traj.x, traj.y, traj.times, traj.h
    g = y - (p.k2 + x - p.m)
    # sign change of g with x increasing: section crossing between k and k+1
    dx = np.diff(x)
    cross = (g[:-1] > 0.0) & (g[1:] <= 0.0) & (dx > 0.0)
    idx = np.nonzero(cross & (t[:-1] >= t_burn))[0]
    if len(idx) < 5:
        raise Inconclusive(f"only {len(idx)} section crossings after burn-in")

    frac = g[idx] / (g[idx] - g[idx + 1])
    t_cross = t[idx] + frac * h
    x_cross = x[idx] + frac * (x[idx + 1] - x[idx])
    crossings = tuple(zip(t_cross.tolist(), x_cross.tolist()))

    periods = np.diff(t_cross)
    last = periods[-5:]
    period = float(np.mean(last))
    periodic = bool(np.max(np.abs(last - period)) < 0.01 * period)

    # amplitude over the last few returns (at least one full revolution)
    seg = slice(idx[max(0, len(idx) - 6)], idx[-1] + 1)
    amp_x = float(x[seg].max() - x[seg].min())
    amp_y = float(y[seg].max() - y[seg].min())
    found = periodic and amp_x > 1e-4

    stable = None
    if found:
        gaps = np.abs(np.diff(x_cross))
        settled = 1e-8 * max(amp_x, 1e-8)
        gaps = gaps[gaps > settled]
        if len(gaps) < 2:
            stable = True  # returns already contracted below resolution
        else:
            k = np.arange(len(gaps))
            slope = np.polyfit(k, np.log(gaps), 1)[0]
            stable = bool(slope < 0)

    return CycleReport(found=found, period=period if found else None,
                       amplitude_x=amp_x, amplitude_y=amp_y,
                       crossings=crossings, stable=stable)


def long_run_bounds(traj: Trajectory, tail_fraction: float = 0.2) -> LongRunBounds:
    """Componentwise min/max over the final tail_fraction of the trajectory."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    n = len(traj.times)
    start = int(n * (1.0 - tail_fraction))
    tail = traj.states[start:]
    if len(tail) < 1000:
        raise TooShort(f"tail has {len(tail)} points, need >= 1000")
    return LongRunBounds(
        liminf_x=float(tail[:, 0].min()), limsup_x=float(tail[:, 0].max()),
        liminf_y=float(tail[:, 1].min()), limsup_y=float(tail[:, 1].max()),
    )


def _write_rows(fileobj, header: str, columns) -> None:
    """Header line, then one row of `%.17g` values per index of the columns.

    Rows are formatted a block at a time with one `%` operation, about
    twice as fast as formatting value by value.
    """
    fileobj.write(header + "\n")
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([c[lo:lo + _CSV_BLOCK] for c in columns])
        fileobj.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def write_csv(traj: Trajectory, fileobj) -> None:
    """Write `t,x,y` rows with 17 significant digits."""
    _write_rows(fileobj, "t,x,y", (traj.times, traj.x, traj.y))
