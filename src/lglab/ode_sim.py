"""Deterministic integration: forward Euler, classical RK4, cycle detection.

The Euler branch is kept as a plain recursion so that step k+1 depends on
step k through exactly one multiply-add per term — this makes the scheme
reproducible bit-for-bit and lets the noise-free stochastic scheme collapse
onto it.  RK4 is the workhorse for analysis.  A vectorized batch integrator
runs many (parameter, initial state) pairs in lockstep for the statistical
checks in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Inconclusive, NonFinite, StepTooLarge, TooShort
from .model import (ModelParams, _check_h, _check_state, _field_batch,
                    _field_scalar, _horizon)

EULER = "Euler"
RK4 = "RK4"

_UNDERSHOOT = 1e-12
_CSV_BLOCK = 4096  # rows formatted per write


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


def _clamp(v: float, k: int) -> float:
    if v >= 0.0:
        return v
    if v >= -_UNDERSHOOT:
        return 0.0
    raise StepTooLarge(f"state left the closed quadrant at step {k}",
                       step_index=k)


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
    a, b, k1, k2, m = p.a, p.b, p.k1, p.k2, p.m
    states = np.empty((n + 1, 2))
    states[0] = (x, y)

    if scheme == EULER:
        for k in range(n):
            v1, v2 = _field_scalar(a, b, k1, k2, m, x, y)
            x = x + v1 * h
            y = y + v2 * h
            if not (math.isfinite(x) and math.isfinite(y)):
                raise NonFinite(f"non-finite state at step {k + 1}")
            x = _clamp(x, k + 1)
            y = _clamp(y, k + 1)
            states[k + 1] = (x, y)
    elif scheme == RK4:
        h2 = 0.5 * h
        h6 = h / 6.0
        for k in range(n):
            a1, b1 = _field_scalar(a, b, k1, k2, m, x, y)
            a2, b2 = _field_scalar(a, b, k1, k2, m, x + h2 * a1, y + h2 * b1)
            a3, b3 = _field_scalar(a, b, k1, k2, m, x + h2 * a2, y + h2 * b2)
            a4, b4 = _field_scalar(a, b, k1, k2, m, x + h * a3, y + h * b3)
            x = x + h6 * (a1 + 2.0 * (a2 + a3) + a4)
            y = y + h6 * (b1 + 2.0 * (b2 + b3) + b4)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise NonFinite(f"non-finite state at step {k + 1}")
            x = _clamp(x, k + 1)
            y = _clamp(y, k + 1)
            states[k + 1] = (x, y)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    times = np.arange(n + 1) * h
    return Trajectory(times=times, states=states, scheme=scheme, h=h)


def integrate_batch(a, b, k1, k2, m, init, h: float, n_steps: int,
                    tail_start: int = 0):
    """RK4 for many systems in lockstep; returns final states and tail bounds.

    All parameter arguments broadcast against init[:, 0].  Only running
    min/max over steps >= tail_start are kept (plus the final state), so
    memory stays flat no matter how long the run is.  As in integrate, a
    state below -1e-12 at any step raises StepTooLarge; the check runs on
    a running minimum after the last step, so it reports no step index.
    Inputs are checked before the first step, with the errors integrate
    and ModelParams raise.
    """
    _check_h(h)
    if not 0 <= tail_start <= n_steps:
        raise ValueError("need 0 <= tail_start <= n_steps")
    for extreme in (np.min, np.max):  # every system passes if these do
        ModelParams(*(float(extreme(v)) for v in (a, b, k1, k2, m)))
    x = np.array(init[:, 0], dtype=float)
    y = np.array(init[:, 1], dtype=float)
    _check_state(x, y)
    h2, h6 = 0.5 * h, h / 6.0
    min_x = np.full_like(x, np.inf)
    max_x = np.full_like(x, -np.inf)
    min_y = np.full_like(x, np.inf)
    max_y = np.full_like(x, -np.inf)
    floor = np.full_like(x, np.inf)  # np.fmin skips NaN: a blow-up keeps the dip
    if tail_start == 0:
        np.minimum(min_x, x, out=min_x); np.maximum(max_x, x, out=max_x)
        np.minimum(min_y, y, out=min_y); np.maximum(max_y, y, out=max_y)
    for k in range(n_steps):
        a1, b1 = _field_batch(a, b, k1, k2, m, x, y)
        a2, b2 = _field_batch(a, b, k1, k2, m, x + h2 * a1, y + h2 * b1)
        a3, b3 = _field_batch(a, b, k1, k2, m, x + h2 * a2, y + h2 * b2)
        a4, b4 = _field_batch(a, b, k1, k2, m, x + h * a3, y + h * b3)
        x = x + h6 * (a1 + 2.0 * (a2 + a3) + a4)
        y = y + h6 * (b1 + 2.0 * (b2 + b3) + b4)
        np.fmin(floor, x, out=floor); np.fmin(floor, y, out=floor)
        if k + 1 >= tail_start:
            np.minimum(min_x, x, out=min_x); np.maximum(max_x, x, out=max_x)
            np.minimum(min_y, y, out=min_y); np.maximum(max_y, y, out=max_y)
    bad = floor < -_UNDERSHOOT
    if bad.any():
        raise StepTooLarge(
            f"state left the closed quadrant in system {int(np.argmax(bad))}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFinite("non-finite state in batch integration")
    final = np.column_stack([x, y])
    return final, (min_x, max_x, min_y, max_y)


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
