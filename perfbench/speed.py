"""Machine-speed reference: fixed kernels that never call lglab.

The host this benchmark was built on is a virtual machine whose core
switches between a fast and a slow state, about 1.8x apart, every few
milliseconds, because of load elsewhere on the physical machine.  The share
of slow time drifts over seconds and minutes, and so does the kind of load:
in some periods the neighbours also took most of the memory bandwidth.  CPU
time moves with wall time, so a run's own timings moved by up to 1.5x
between runs of the same code, and no estimator of them alone can remove
that.  The benchmark therefore times a kernel between jobs, off the job
clock, and reports every time metric at a fixed reference speed:

    reported = measured * REF_KERNEL_S / mean kernel pass around the job

Each workload has its own kernel, a small frozen copy of the kinds of work
its jobs do, at the same array widths, so that a change of load slows the
kernel about as much as the jobs.  A change to lglab cannot change a
kernel's time, so it moves the reported metrics by exactly what it moves
the measured ones.
"""

from __future__ import annotations

import io
import json
import math
from time import perf_counter

import numpy as np

# The reference speed is the one at which a kernel pass takes 1 ms.
REF_KERNEL_S = 1.0e-3
EVERY_S = 0.01  # job time per extra pass

# the model's parameters and step of the paper's stochastic figure
A, B, K1, K2, M, S1, S2, H = 0.4, 0.1, 0.08, 0.2, 0.0025, 0.2, 0.2, 0.01
_GENS = [np.random.Generator(np.random.PCG64(i)) for i in range(16)]
_LANES = np.linspace(0.2, 0.9, 256)
_WIDE = np.linspace(0.01, 1.2, 2040).reshape(1020, 2)
_XI = np.random.default_rng(12345).standard_normal((2, 40))


def _field(x, y):
    u = max(x - M, 0.0)
    return (x * (1.0 - x) - A * y * u / (K1 + u),
            B * y * (1.0 - y / (K2 + u)))


def _field_lanes(x, y):
    u = np.maximum(x - M, 0.0)
    return (x * (1.0 - x) - A * y * u / (K1 + u),
            B * y * (1.0 - y / (K2 + u)))


def _lockstep(x, y, g1, g2, milstein):
    """One SDE step on every lane, as the ensemble and hitting kernels."""
    v1, v2 = _field_lanes(x, y)
    sqh = math.sqrt(H)
    if milstein:
        xn = x + (v1 * H + S1 * x * sqh * g1
                  + 0.5 * S1 * S1 * x * (H * g1 * g1 - H))
        yn = y + (v2 * H + S2 * y * sqh * g2
                  + 0.5 * S2 * S2 * y * (H * g2 * g2 - H))
        if (((xn <= 0.0) & (x > 0.0)) | ((yn <= 0.0) & (y > 0.0))).any():
            raise ArithmeticError("positivity lost")
        return xn, yn
    xn = np.where(x > 0.0, x * np.exp((v1 / np.where(x > 0, x, 1.0)
                                        - 0.5 * S1 * S1) * H
                                       + S1 * sqh * g1), 0.0)
    yn = np.where(y > 0.0, y * np.exp((v2 / np.where(y > 0, y, 1.0)
                                        - 0.5 * S2 * S2) * H
                                       + S2 * sqh * g2), 0.0)
    return xn, yn


def _wide_kernel() -> float:
    """mc-wide: noise drawn per generator and stacked, steps on 256 lanes,
    RK4 on 1020 systems with running tail bounds."""
    noise = [np.stack([g.standard_normal(512) for g in _GENS], axis=1)
             for _ in range(2)]
    x, y = _LANES.copy(), _LANES[::-1].copy()
    for j in range(8):
        x, y = _lockstep(x, y, np.resize(noise[0][j], 256),
                         np.resize(noise[1][j], 256), j % 2 == 1)
    wx, wy = _WIDE[:, 0].copy(), _WIDE[:, 1].copy()
    lo, hi = wx.copy(), wx.copy()
    for _ in range(3):
        a1, b1 = _field_lanes(wx, wy)
        a2, b2 = _field_lanes(wx + 0.5 * H * a1, wy + 0.5 * H * b1)
        a3, b3 = _field_lanes(wx + 0.5 * H * a2, wy + 0.5 * H * b2)
        a4, b4 = _field_lanes(wx + H * a3, wy + H * b3)
        wx = wx + H / 6.0 * (a1 + 2.0 * (a2 + a3) + a4)
        wy = wy + H / 6.0 * (b1 + 2.0 * (b2 + b3) + b4)
        np.minimum(lo, wx, out=lo)
        np.maximum(hi, wx, out=hi)
    return float(x.sum() + wy.sum() + hi.sum() - lo.sum())


def _narrow_kernel() -> float:
    """paths-narrow: scalar RK4 and Milstein loops into state arrays, CSV
    rows, and a lockstep step on 8 lanes."""
    n = _XI.shape[1]
    states = np.empty((n + 1, 2))
    x, y = 0.5, 0.5
    for k in range(n):
        a1, b1 = _field(x, y)
        a2, b2 = _field(x + 0.5 * H * a1, y + 0.5 * H * b1)
        a3, b3 = _field(x + 0.5 * H * a2, y + 0.5 * H * b2)
        a4, b4 = _field(x + H * a3, y + H * b3)
        x += H / 6.0 * (a1 + 2.0 * (a2 + a3) + a4)
        y += H / 6.0 * (b1 + 2.0 * (b2 + b3) + b4)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ArithmeticError("non-finite state")
        states[k + 1] = (x, y)
    sqh = math.sqrt(H)
    for k in range(n):
        v1, v2 = _field(x, y)
        g1, g2 = _XI[0, k], _XI[1, k]
        x = x + (v1 * H + S1 * x * sqh * g1
                 + 0.5 * S1 * S1 * x * (H * g1 * g1 - H))
        y = y + (v2 * H + S2 * y * sqh * g2
                 + 0.5 * S2 * S2 * y * (H * g2 * g2 - H))
        states[k + 1] = (x, y)
    out = io.StringIO()
    out.write("t,x,y\n")
    for k, (xv, yv) in enumerate(states):
        out.write(f"{k * H:.17g},{xv:.17g},{yv:.17g}\n")
    xs, ys = _LANES[:8].copy(), _LANES[8:16].copy()
    for j in range(4):
        xs, ys = _lockstep(xs, ys, _XI[0, j:j + 8], _XI[1, j:j + 8], False)
    return float(len(out.getvalue()) + xs.sum())


def _poly_mul(p, q):
    """Product of two polynomials held as {exponents: coefficient}."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return out


def _analysis_kernel() -> float:
    """analysis-sweep: a cubic's roots by bisection, 2x2 Jacobian spectra,
    symbolic-style polynomial products, and a JSON report."""
    a, k1, k2, m = A, K1, K2, M
    c = [1.0, a + k1 - 1.0 + 2.0 * m,
         m * m + m * (2.0 * k1 - 1.0) + a * k2 - k1, -k1 * m * (1.0 - m)]

    def value(X):
        return ((c[0] * X + c[1]) * X + c[2]) * X + c[3]

    lo, hi = 1e-12, 1.0 - m
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if (value(lo) < 0.0) == (value(mid) < 0.0):
            lo = mid
        else:
            hi = mid
    roots = np.roots(c)
    spectra = []
    for X in (lo, 0.3, 0.6):
        tr, det = -0.1 + X, 0.02 - 0.1 * X
        disc = tr * tr - 4.0 * det
        spectra.append({"trace": tr, "det": det,
                        "kind": "focus" if disc < 0 else "node",
                        "re": 0.5 * tr, "im": math.sqrt(abs(disc)) * 0.5})
    p = {(1, 0, 0): 1.0, (0, 1, 0): a, (0, 0, 1): -k1, (0, 0, 0): m}
    q = p
    for _ in range(3):
        q = _poly_mul(q, p)
    doc = json.dumps({"schema": "report", "roots": [repr(r) for r in roots],
                      "root": lo, "spectra": spectra,
                      "terms": {repr(k): v for k, v in q.items()}},
                     indent=2, sort_keys=True)
    return float(len(json.loads(doc)["terms"]) + lo)


KERNELS = {
    "mc-wide": _wide_kernel,
    "paths-narrow": _narrow_kernel,
    "analysis-sweep": _analysis_kernel,
}


def sample(kernel) -> float:
    """Seconds of one pass of ``kernel``, now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Speedometer:
    """Kernel passes between jobs, off the job clock.

    One pass is taken before the first job and after every job, and one
    more for every ``EVERY_S`` of job time, so a long job is followed by
    passes in proportion to its length.
    """

    def __init__(self, workload: str):
        self.kernel = KERNELS[workload]
        self.passes = []  # (jobs done when taken, seconds)
        self._due = 0.0

    def tick(self, jobs_done: int, job_seconds: float) -> None:
        self.passes.append((jobs_done, sample(self.kernel)))
        while job_seconds >= self._due:
            self.passes.append((jobs_done, sample(self.kernel)))
            self._due += EVERY_S

    def factors(self, n_jobs: int) -> list[float]:
        """REF_KERNEL_S / the mean pass just before and just after each job.

        The core switches between a fast and a slow state every few
        milliseconds, so a job's time grows with the share of slow time
        around it, and the mean of the passes around it tracks that share.
        """
        around = [[] for _ in range(n_jobs + 1)]
        for mark, seconds in self.passes:
            around[mark].append(seconds)
        return [factor(around[i] + around[i + 1]) for i in range(n_jobs)]

    def overall(self) -> float:
        """REF_KERNEL_S / the mean of every pass."""
        return factor([s for _, s in self.passes])


def factor(passes) -> float:
    """REF_KERNEL_S / the mean of the given passes."""
    return REF_KERNEL_S * len(passes) / math.fsum(passes)
