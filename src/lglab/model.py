"""Parameters and vector field of the refuge model.

The deterministic system on the closed quadrant {x >= 0, y >= 0} is

    dx/dt = x(1-x) - a*y*(x-m)_+ / (k1 + (x-m)_+),
    dy/dt = b*y*(1 - y / (k2 + (x-m)_+)),

with (x-m)_+ = max(0, x-m); dimensionless parameters a, b, k1, k2 > 0 and
refuge density 0 <= m < 1.  The stochastic variant adds diagonal
multiplicative noise (sigma1*x dW1, sigma2*y dW2).

This module runs on the standard library alone, so the analysis layer
built on it never imports numpy; the array forms live in ode_sim.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .errors import InvalidParams, NotAnEquilibrium, NumericalFailure

_MODEL_FIELDS = ("a", "b", "k1", "k2", "m", "sigma1", "sigma2")


def _refuse_booleans(record) -> None:
    """0 < True holds, so a boolean field would pass a record's range checks.

    numpy's boolean is refused too; one can exist only once numpy has been
    imported, so it is looked up without importing numpy.
    """
    np = sys.modules.get("numpy")
    booleans = {bool} if np is None else {bool, np.bool_}
    fields = vars(record)
    if not booleans.isdisjoint(map(type, fields.values())):
        name = next(n for n, v in fields.items() if type(v) in booleans)
        raise InvalidParams(f"{name} must be a number, not a boolean")


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
        _refuse_booleans(self)
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
        _refuse_booleans(self)
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

    A string that names an existing file is read as that file, even when
    the name itself parses as JSON ("123"); any other string is parsed as
    JSON text, and failing that opened as a path, so a missing file raises
    an OSError that names it.  Accepts either the dimensionless fields
    directly or {"raw": {...}}, which triggers nondimensionalize.  Missing
    sigma fields default to 0.  A missing, unknown or non-numeric field
    raises InvalidParams.
    """
    if isinstance(obj, str):
        path = obj
        if not os.path.isfile(path):
            try:
                obj = json.loads(path)
            except json.JSONDecodeError:
                pass  # neither a file nor JSON: open() names the path
        if obj is path:
            with open(path) as f:
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


def _check_counts(least=None, **counts) -> None:
    """Each count (a step, path or bin count, or a seed) is an integer, no
    smaller than least when least is given.

    A float is refused with TypeError in this rule's words, not numpy's,
    and so is a boolean, which would pass a count's range check.  A numpy
    integer can exist only once numpy has been imported, so it is looked
    up without importing numpy, as in _refuse_booleans.  Every type is
    checked before any range.  A seed's range, >= 0, is numpy's seeding
    rule, checked before any generator is built so that its error is in
    lglab's words.
    """
    np = sys.modules.get("numpy")
    integers = (int,) if np is None else (int, np.integer)
    for name, v in counts.items():
        if isinstance(v, bool) or not isinstance(v, integers):
            raise TypeError(f"{name} must be an integer, "
                            f"not {type(v).__name__}")
    for name, v in counts.items():
        if least is not None and v < least:
            raise ValueError(f"{name} must be >= {least}")


def _check_burn_in(burn_in) -> None:
    if not burn_in >= 0:
        raise ValueError("burn_in must be >= 0")


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


def _check_state(x, y, noun="initial state") -> None:
    """A finite point of the closed quadrant (NaN fails the first test);
    noun names the point in the error."""
    if not (x >= 0 and y >= 0):
        raise ValueError(f"{noun} must lie in the closed quadrant")
    if not (x < math.inf and y < math.inf):
        raise ValueError(f"{noun} must be finite")


def _check_run(scheme, known, init, h, t_end,
               available=None) -> tuple[float, float, int]:
    """The prologue of every run: the horizon (see _horizon), then the
    scheme, one of known, then the start, a pair (a third coordinate is
    not dropped).  Returns the start as floats and the step count."""
    n = _horizon(h, t_end, available)
    if scheme not in known:
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(init) != 2:
        raise ValueError("initial state must be a pair (x, y)")
    x, y = float(init[0]), float(init[1])
    _check_state(x, y)
    return x, y, n


def _field_scalar(a, b, k1, k2, m, x, y):
    """Pure-float evaluation of the vector field (the hot path of integrators)."""
    u = x - m
    if u < 0.0:
        u = 0.0
    v1 = x * (1.0 - x) - a * y * u / (k1 + u)
    v2 = b * y * (1.0 - y / (k2 + u))
    return v1, v2


def _partials(p: ModelParams, x, y, b):
    """Partials of orders 1-3 of (v1, v2) at x >= m (one-sided on the
    refuge line), with predator growth rate b in place of p.b.

    There, with z = k1 + x - m and w = k2 + x - m, v1 = x - x^2 - a*y +
    a*k1*y/z and v2 = b*y - b*y^2/w.  Returns (d1, d2), dicts keyed by
    (order in x, order in y); absent partials vanish, and every key of d1
    is a key of d2.  A power that overflows raises NumericalFailure.
    """
    z, w, ak = p.k1 + x - p.m, p.k2 + x - p.m, p.a * p.k1
    try:
        z2, z3, w2, w3 = z ** 2, z ** 3, w ** 2, w ** 3
        d1 = {(1, 0): 1.0 - 2.0 * x - p.a * y * p.k1 / z2,
              (0, 1): -p.a * (x - p.m) / z,
              (2, 0): -2.0 + 2.0 * ak * y / z3, (1, 1): -ak / z2,
              (3, 0): -6.0 * ak * y / z ** 4, (2, 1): 2.0 * ak / z3}
        d2 = {(1, 0): b * y ** 2 / w2, (0, 1): b - 2.0 * b * y / w,
              (2, 0): -2.0 * b * y ** 2 / w3, (1, 1): 2.0 * b * y / w2,
              (0, 2): -2.0 * b / w, (3, 0): 6.0 * b * y ** 2 / w ** 4,
              (2, 1): -4.0 * b * y / w3, (1, 2): 2.0 * b / w2}
    except OverflowError:
        raise NumericalFailure(
            f"the field's partials are not finite at ({x}, {y}): "
            f"k1 + x - m = {z}, k2 + x - m = {w}") from None
    return d1, d2


def vector_field(p: ModelParams, state):
    """Velocity (v1, v2) at one finite point of the closed quadrant, as
    Python floats; the array form of the field is ode_sim._field_batch."""
    x, y = state
    x, y = float(x), float(y)
    _check_state(x, y, "state")
    return _field_scalar(p.a, p.b, p.k1, p.k2, p.m, x, y)


def _check_residual(p: ModelParams, e) -> None:
    """Raise NotAnEquilibrium unless the equilibrium record e zeroes the
    field (see equilibria.classify)."""
    v1, v2 = vector_field(p, (e.x, e.y))
    size1 = max(abs(e.x), e.x * e.x, p.a * abs(e.y))
    size2 = p.b * abs(e.y) * max(1.0, abs(e.y) / (p.k2 + max(0.0, e.x - p.m)))
    if not (abs(v1) <= 1e-9 * size1 and abs(v2) <= 1e-9 * size2):
        raise NotAnEquilibrium(
            f"field residual ({v1:.3g}, {v2:.3g}) at ({e.x}, {e.y})")
