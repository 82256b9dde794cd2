"""Parameters, vector field and Jacobian of the refuge model.

The deterministic system on the closed quadrant {x >= 0, y >= 0} is

    dx/dt = x(1-x) - a*y*(x-m)_+ / (k1 + (x-m)_+),
    dy/dt = b*y*(1 - y / (k2 + (x-m)_+)),

with (x-m)_+ = max(0, x-m); dimensionless parameters a, b, k1, k2 > 0 and
refuge density 0 <= m < 1.  The stochastic variant adds diagonal
multiplicative noise (sigma1*x dW1, sigma2*y dW2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParams, KinkPoint

_MODEL_FIELDS = ("a", "b", "k1", "k2", "m", "sigma1", "sigma2")


@dataclass(frozen=True)
class RawParams:
    """Dimensional parameters of the original two-species system.

    rho1, rho2 are the growth rates, beta the prey competition strength,
    alpha1/alpha2 the reduction rates, kappa1/kappa2 the protection
    constants and mu the refuge density, constrained by 0 <= mu < rho1/beta.
    """

    rho1: float
    rho2: float
    beta: float
    alpha1: float
    alpha2: float
    kappa1: float
    kappa2: float
    mu: float = 0.0

    def __post_init__(self):
        for name in ("rho1", "rho2", "beta", "alpha1", "alpha2", "kappa1", "kappa2"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParams(f"{name} must be strictly positive and finite")
        if not 0 <= self.mu < self.rho1 / self.beta:
            raise InvalidParams("mu must satisfy 0 <= mu < rho1/beta")


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless parameters; sigma1 = sigma2 = 0 means deterministic."""

    a: float
    b: float
    k1: float
    k2: float
    m: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "k1", "k2"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParams(f"{name} must be strictly positive and finite")
        if not 0 <= self.m < 1:
            raise InvalidParams("m must satisfy 0 <= m < 1")
        if not (0 <= self.sigma1 < math.inf and 0 <= self.sigma2 < math.inf):
            raise InvalidParams("noise intensities must be nonnegative and finite")

    @property
    def deterministic(self) -> bool:
        return self.sigma1 == 0.0 and self.sigma2 == 0.0

    def with_b(self, b: float) -> "ModelParams":
        return replace(self, b=b)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _MODEL_FIELDS}


def nondimensionalize(raw: RawParams, sigma1: float = 0.0, sigma2: float = 0.0) -> ModelParams:
    """Rescale dimensional parameters to the dimensionless record.

    m = mu*beta/rho1, a = alpha1*rho2/(alpha2*rho1), ki = kappai*beta/rho1,
    b = rho2/rho1.  Noise intensities are carried through unchanged.
    """
    return ModelParams(
        a=raw.alpha1 * raw.rho2 / (raw.alpha2 * raw.rho1),
        b=raw.rho2 / raw.rho1,
        k1=raw.kappa1 * raw.beta / raw.rho1,
        k2=raw.kappa2 * raw.beta / raw.rho1,
        m=raw.mu * raw.beta / raw.rho1,
        sigma1=sigma1,
        sigma2=sigma2,
    )


def load_params(obj) -> ModelParams:
    """Build ModelParams from a dict, JSON string, or path to a JSON file.

    Accepts either the dimensionless fields directly or {"raw": {...}}, which
    triggers nondimensionalize.  Missing sigma fields default to 0.  A
    missing, unknown or non-numeric field raises InvalidParams.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError:
            with open(obj) as f:
                obj = json.load(f)
    try:  # a missing, unknown or non-numeric field fails in the constructor
        if "raw" in obj:
            noise = {k: v for k, v in obj.items() if k != "raw"}
            return nondimensionalize(RawParams(**obj["raw"]), **noise)
        return ModelParams(**obj)
    except TypeError as exc:
        raise InvalidParams(f"bad parameter record {obj}: {exc}") from None


def _check_h(h) -> None:
    if not h > 0:
        raise ValueError("need h > 0")
    if not h < math.inf:
        raise ValueError("h must be finite")


def _horizon(h, t_end, available=None) -> int:
    """Steps of size h from 0 to t_end, round(t_end / h), at most the steps
    available on a noise path; t_end = None takes all of them."""
    _check_h(h)
    if t_end is None:
        return available
    if not t_end >= 0:
        raise ValueError("horizon must be >= 0")
    if not t_end / h < math.inf:
        raise ValueError("horizon must be finite")
    n = int(round(t_end / h))
    if available is not None and n > available:
        raise ValueError("noise path shorter than requested horizon")
    return n


def _check_state(x, y) -> None:
    """A finite point of the closed quadrant; x and y may be arrays."""
    if not np.all((x >= 0) & (y >= 0)):
        raise ValueError("initial state must lie in the closed quadrant")
    if not np.all((x < math.inf) & (y < math.inf)):
        raise ValueError("initial state must be finite")


def _field_scalar(a, b, k1, k2, m, x, y):
    """Pure-float evaluation of the vector field (the hot path of integrators)."""
    u = x - m
    if u < 0.0:
        u = 0.0
    v1 = x * (1.0 - x) - a * y * u / (k1 + u)
    v2 = b * y * (1.0 - y / (k2 + u))
    return v1, v2


def _field_batch(a, b, k1, k2, m, x, y, out=(None, None), work=(None, None)):
    """Array evaluation of the vector field; every argument broadcasts.

    out = (v1, v2) and work are optional pairs of arrays of the broadcast
    shape that receive the result and the intermediates, so a caller in a
    loop allocates nothing; without them every operation allocates.  The
    operation order is that of _field_scalar either way.
    """
    o1, o2 = out
    w1, w2 = work
    u = np.maximum(np.subtract(x, m, out=w1), 0.0, out=w1)
    v1 = np.multiply(np.multiply(a, y, out=o1), u, out=o1)
    v1 = np.divide(v1, np.add(k1, u, out=w2), out=o1)
    v1 = np.subtract(np.multiply(x, np.subtract(1.0, x, out=w2), out=w2), v1,
                     out=o1)
    v2 = np.subtract(1.0, np.divide(y, np.add(k2, u, out=w2), out=w2), out=w2)
    v2 = np.multiply(np.multiply(b, y, out=o2), v2, out=o2)
    return v1, v2


def vector_field(p: ModelParams, state):
    """Velocity (v1, v2) at a state; broadcasts over array-valued states."""
    x, y = state
    if isinstance(x, float) and isinstance(y, float):
        return _field_scalar(p.a, p.b, p.k1, p.k2, p.m, x, y)
    return _field_batch(p.a, p.b, p.k1, p.k2, p.m,
                        np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def jacobian(p: ModelParams, state) -> np.ndarray:
    """2x2 Jacobian of the vector field at a state off the refuge line.

    Raises KinkPoint when m > 0 and x == m exactly: the field has a kink
    there and one-sided derivatives must be queried at m +- eps instead.
    """
    x, y = state
    if p.m > 0 and x == p.m:
        raise KinkPoint(f"jacobian is undefined on the line x = m = {p.m}")
    u = max(0.0, x - p.m)
    active = 1.0 if x >= p.m else 0.0
    j11 = 1.0 - 2.0 * x - p.a * y * p.k1 / (p.k1 + u) ** 2 * active
    j12 = -p.a * u / (p.k1 + u)
    j21 = p.b * y ** 2 / (p.k2 + u) ** 2 * active
    j22 = p.b - 2.0 * p.b * y / (p.k2 + u)
    return np.array([[j11, j12], [j21, j22]])
