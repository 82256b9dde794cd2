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
                    _check_run, _check_state, _field_scalar, _partials)

EULER = "Euler"
RK4 = "RK4"

_UNDERSHOOT = 1e-12
_CHUNK = 512  # steps stepped on Python floats, or of noise drawn, at a time
_CSV_BLOCK = 1024  # rows formatted per write
_RETIRE_EVERY = 1024  # integrate_batch steps between checks for frozen systems


def _const(v) -> np.ndarray:
    """v as a 0-d float64 array: as a ufunc operand it gives the bits the
    Python float gives, and a call in a loop skips converting that float
    each time.  (An np.float64 scalar is no faster than the float.)"""
    return np.array(v, dtype=float)


_ZERO, _ONE, _TWO = _const(0.0), _const(1.0), _const(2.0)


def _grid_times(n: int, h: float) -> np.ndarray:
    """The grid times k*h for k = 0..n: the bits of np.arange(n + 1) * h,
    since every k is exact in float64, without its int64 temporary."""
    times = np.arange(n + 1, dtype=float)
    times *= h
    return times


# _write_rows' tables.  A slot word is built from bytes, so the byte order
# of the machine does not matter.
_SPLIT = 134217729.0  # 2**27 + 1
_E16, _E17 = 10 ** 16, 10 ** 17
_S0 = -270  # 10**s for s in [-270, 300], filled as blocks ask for them
_P10 = np.full((571, 4), np.nan)  # H, L, H's halves; row s - _S0
_P10_FILLED = np.zeros(571, dtype=bool)


def _group_tables():
    """Four digits as (digit, 0) byte pairs, for 0..9999 and then with the
    trailing zeros dropped (0 gives no digit), and the digits each keeps."""
    g = np.arange(10000, dtype=np.int16)
    kept = 4 - sum(g % 10 ** k == 0 for k in range(1, 5))
    pairs = np.zeros((2, 10000, 4, 2), dtype=np.uint8)
    pairs[:, :, :, 0] = np.stack([g // 1000, g // 100 % 10, g // 10 % 10,
                                  g % 10], axis=1) + ord("0")
    pairs[1][np.arange(4) >= kept[:, None]] = 0
    return (pairs.reshape(20000, 8).view(np.uint64)[:, 0],
            np.concatenate([np.full(10000, 4), kept]).astype(np.uint8))


def _byte_words(strings) -> np.ndarray:
    """Each string, padded with 0 bytes to 8, as one uint64."""
    return np.frombuffer(b"".join(s.ljust(8, b"\0") for s in strings),
                         dtype=np.uint64)


_GROUPS, _KEPT = _group_tables()
_HEAD = _byte_words([sign + b"\0" * 5 + b"%d" % d
                     for sign in (b"\0", b"-") for d in range(10)])
_PREFIX = _byte_words([b"\0" + b"0.000"[:1 - x] if -4 <= x < 0 else b""
                       for x in range(-300, 300)])
_EXPONENT = _byte_words([b"e%+03d" % x if not -4 <= x < 17 else b""
                         for x in range(-300, 300)])
_COMMA, _NEWLINE = _byte_words([b"\0" * 5 + b",", b"\0" * 5 + b"\n"])


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
    _check_state(x, y, "state")
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
    index.  Non-finite states raise NonFinite.  Each _CHUNK steps are
    stepped on Python floats and then stored into one preallocated states
    array, so no list grows with the horizon.
    """
    x, y, n = _check_run(scheme, (EULER, RK4), init, h, t_max)
    rk4 = scheme == RK4
    a, b, k1, k2, m = p.a, p.b, p.k1, p.k2, p.m
    h2, h6, inf = 0.5 * h, h / 6.0, math.inf
    states = np.empty((n + 1, 2))
    states[0] = x, y
    for lo in range(1, n + 1, _CHUNK):
        xs, ys = [], []
        for k in range(lo, min(lo + _CHUNK, n + 1)):
            v1, v2 = _field_scalar(a, b, k1, k2, m, x, y)
            if rk4:
                a2, b2 = _field_scalar(a, b, k1, k2, m, x + h2 * v1,
                                       y + h2 * v2)
                a3, b3 = _field_scalar(a, b, k1, k2, m, x + h2 * a2,
                                       y + h2 * b2)
                a4, b4 = _field_scalar(a, b, k1, k2, m, x + h * a3,
                                       y + h * b3)
                x = x + h6 * (v1 + 2.0 * (a2 + a3) + a4)
                y = y + h6 * (v2 + 2.0 * (b2 + b3) + b4)
            else:
                x = x + v1 * h
                y = y + v2 * h
            if not (0.0 <= x < inf and 0.0 <= y < inf):
                x, y = _settle(x, y, k)
            xs.append(x)
            ys.append(y)
        states[lo:lo + len(xs), 0] = xs
        states[lo:lo + len(xs), 1] = ys
    return Trajectory(times=_grid_times(n, h), states=states, scheme=scheme,
                      h=h)


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
    Only the grid points from the first at or after t_burn are read, so
    the work arrays scale with that tail, not the whole trajectory.
    """
    _check_burn_in(t_burn)
    start = int(np.searchsorted(traj.times, t_burn))  # times ascend
    x, y, t, h = traj.x[start:], traj.y[start:], traj.times[start:], traj.h
    g = y - (p.k2 + x - p.m)
    # sign change of g with x increasing: section crossing between k and k+1
    dx = np.diff(x)
    idx = np.nonzero((g[:-1] > 0.0) & (g[1:] <= 0.0) & (dx > 0.0))[0]
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


def _halves(a):
    """Veltkamp's split of float64 a into hi + lo, each of at most 26
    significant bits, so that a product of two halves is exact."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _fill_pow10(lo: int, hi: int) -> None:
    """Rows lo .. hi - 1 of _P10: 10**s as H + L, H = fl(10**s) and L the
    correctly rounded rest, from exact int arithmetic, and H's halves."""
    for s in range(lo, hi):
        if s >= 0:
            H = float(10 ** s)
            L = float(10 ** s - int(H))
        else:  # int / int rounds correctly
            d = 10 ** -s
            H = 1 / d
            num, den = H.as_integer_ratio()
            L = (den - num * d) / (d * den)
        _P10[s - _S0, :2] = H, L
    rows = slice(lo - _S0, hi - _S0)
    _P10[rows, 2], _P10[rows, 3] = _halves(_P10[rows, 0])
    _P10_FILLED[rows] = True


def _scaled(a, ah, al, s):
    """floor(a * 10**s) as int64 and the fraction left, for a > 0 with
    halves ah, al.  The product is Dekker's: p + err is a * H exactly and
    a * L adds the rest of 10**s, so the sum is within 1e-14 of the exact
    product for the a * 10**s below 1e18 that are asked for."""
    i = s - _S0
    lo, hi = int(i.min()), int(i.max()) + 1
    if not _P10_FILLED[lo:hi].all():
        _fill_pow10(lo + _S0, hi + _S0)
    H, L, Hh, Hl = _P10.take(i, axis=0).T
    p = a * H
    err = ((ah * Hh - p) + ah * Hl + al * Hh) + al * Hl
    low = err + a * L
    floor = np.floor(low)
    return p.astype(np.int64) + floor.astype(np.int64), low - floor


def _digits(v):
    """(q, x, fast) for float64 values v: where fast, |v| rounds half to
    even to q * 10**(x - 16) with 10**16 <= q < 10**17, or q = x = 0 for a
    zero, exactly as '%.17g' rounds it.  The rest fall back: non-finite
    values, values outside [1e-280, 1e280), values whose scaled fraction
    lies within 1e-6 of 1/2 (exact ties among them), and the rare ones
    whose exponent one correction of the log10 estimate does not settle
    (log10 is off by at most one, but a product within 1e-14 of a power of
    ten can fall on either side of it).
    """
    a = np.abs(v)
    fast = (a >= 1e-280) & (a < 1e280)  # False for NaN too
    a = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)  # off by one near 10**x
    ah, al = _halves(a)
    f, frac = _scaled(a, ah, al, 16 - x)
    off = np.flatnonzero((f < _E16) | (f >= _E17))
    if len(off):
        x[off] += np.where(f[off] >= _E17, 1, -1)
        f[off], frac[off] = _scaled(a[off], ah[off], al[off], 16 - x[off])
        off = off[(f[off] < _E16) | (f[off] >= _E17)]
    q = f + (frac > 0.5)
    q[off] = 0
    fast[off] = False
    fast &= np.abs(frac - 0.5) > 1e-6
    carry = q == _E17  # 99...9.5 rounds up to the next power of ten
    if carry.any():
        q[carry] = _E16
        x[carry] += 1
    zero = v == 0.0
    q[zero] = x[zero] = 0
    return q, x, fast | zero


def _format_block(v, ncols: int) -> str:
    """'%.17g' % u for each u of the row-major values v, each followed by
    ',' or, after the last of ncols columns, a newline.

    Each value is laid into a slot of six uint64 words, 48 bytes: sign,
    the '0.000' prefix of 1e-4 <= |u| < 1, 17 digit and point pairs, e±DDD
    and the separator; a byte that '%.17g' does not print is 0, and one
    translate drops them all.  _digits gives the digits and the exponent;
    '%.17g' prints fixed point for -4 <= x < 17, else with an exponent,
    and drops the trailing zeros of the fraction and a point with nothing
    after it.  A value _digits does not answer, and a whole multiple of
    ten whose trailing zeros reach into its integer part, is formatted by
    '%.17g' into its own slot.
    """
    n = len(v)
    q, x, fast = _digits(v)
    d0 = q // _E16
    rest = q - d0 * _E16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    g = np.empty((n, 4), dtype=np.int64)  # digits 1-4, 5-8, 9-12, 13-16
    g[:, 0] = hi // 10 ** 4
    g[:, 1] = hi - g[:, 0] * 10 ** 4
    g[:, 2] = lo // 10 ** 4
    g[:, 3] = lo - g[:, 2] * 10 ** 4
    # a group followed by zeros only takes the stripped half of _GROUPS
    strip = np.empty((n, 4), dtype=bool)
    strip[:, 3] = True
    strip[:, 2] = g[:, 3] == 0
    strip[:, 1] = lo == 0
    strip[:, 0] = strip[:, 1] & (g[:, 1] == 0)
    g += strip * 10000
    k = _KEPT.take(g)
    kept = k[:, 0] + k[:, 1] + k[:, 2] + k[:, 3] + 1  # to the last nonzero
    sci = (x < -4) | (x >= 17)
    point = np.where(sci, 1, np.maximum(x + 1, 0))  # digits before a point
    fast &= kept >= point  # else zeros of the integer part were stripped
    slots = np.empty((n, 6), dtype=np.uint64)
    row = x + 300  # of x in _PREFIX and _EXPONENT
    slots[:, 0] = _PREFIX.take(row) | _HEAD.take(d0 + 10 * np.signbit(v))
    slots[:, 1:5] = _GROUPS.take(g)
    seps = np.full(ncols, _COMMA)
    seps[-1] = _NEWLINE
    np.bitwise_or(_EXPONENT.take(row).reshape(-1, ncols), seps,
                  out=slots.reshape(-1, ncols, 6)[:, :, 5])
    text = slots.view(np.uint8).reshape(n, 48)
    dot = np.flatnonzero((kept > point) & (point > 0))
    # the point after digit i is byte 7 + 2i of its slot
    text.reshape(-1)[dot * 48 + 5 + 2 * point[dot]] = ord(".")
    for i in np.flatnonzero(~fast).tolist():
        text[i, :45] = np.frombuffer(
            (b"%.17g" % float(v[i])).ljust(45, b"\0"), np.uint8)
    return slots.tobytes().translate(None, b"\0").decode("ascii")


def _write_rows(fileobj, header: str, columns) -> None:
    """Header line, then one row of `%.17g` values per index of the columns.

    The text is exactly '%.17g' % value, a correctly rounded conversion,
    byte for byte, but built by numpy a block of rows at a time and about
    three times as fast.  The 17 digits of |value| are
    round(|value| * 10**(16 - x)) for its decimal exponent x, from log10
    and corrected until the scaled value lies in [10**16, 10**17).  The
    product is exact enough to round right: Dekker's exact product against
    10**s held as two floats H + L (from int arithmetic) leaves an error
    below 1e-14, far inside the 1e-6 of 1/2 within which a value falls
    back to '%' itself (see _digits and _format_block).
    """
    fileobj.write(header + "\n")
    for lo in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([c[lo:lo + _CSV_BLOCK] for c in columns])
        fileobj.write(_format_block(block.ravel(), block.shape[1]))


def write_csv(traj: Trajectory, fileobj) -> None:
    """Write `t,x,y` rows with 17 significant digits, so that every value
    reads back as the same float (see _write_rows)."""
    _write_rows(fileobj, "t,x,y", (traj.times, traj.x, traj.y))
